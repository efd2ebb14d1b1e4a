//! The benchmark's own tests, on its `--smoke` mode (`Dataset::Mini`,
//! `reproduce --smoke`, 200 fuzz programs, reduced strided sizes, one pass).
//! They drive `benchmark/run.sh`, the one command, exactly as the driver does.

#[path = "../src/spec.rs"]
#[allow(dead_code)]
mod spec;

use std::path::PathBuf;
use std::process::Command;

use telemetry::json::{self, Json};

struct Finished {
    code: i32,
    /// The last line of standard output, when it parses as JSON.
    result: Option<Json>,
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

/// Every test keeps its files apart from the others' (tests run in parallel).
fn out_dir(test: &str) -> String {
    let dir = repo_root()
        .join("benchmark/out")
        .join(format!("test-{test}"));
    dir.to_string_lossy().into_owned()
}

fn run_sh(args: &[&str], corrupt: bool) -> Finished {
    let mut command = Command::new("bash");
    command
        .arg(repo_root().join("benchmark/run.sh"))
        .args(args)
        .current_dir(repo_root())
        .env_remove("BENCH_CORRUPT_EXPECTED");
    if corrupt {
        command.env("BENCH_CORRUPT_EXPECTED", "1");
    }
    let output = command.output().expect("bash runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    Finished {
        code: output.status.code().unwrap_or(-1),
        result: stdout
            .lines()
            .last()
            .and_then(|line| json::parse(line).ok()),
    }
}

fn smoke(workload: &str, seed: u64, trace: bool, test: &str, corrupt: bool) -> Finished {
    run_sh(
        &[
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
            "--out-dir",
            &out_dir(test),
        ],
        corrupt,
    )
}

/// `name -> (value, unit)` of a result object.
fn metrics(result: &Json) -> Vec<(String, f64, String)> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("the result has no metrics object: {result:?}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Json::as_f64).expect("a value"),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("a unit")
                    .to_string(),
            )
        })
        .collect()
}

fn exact_metrics(result: &Json) -> Vec<(String, f64)> {
    metrics(result)
        .into_iter()
        .filter(|(name, _, _)| spec::PER_LAYER.iter().any(|m| m.name == name && m.exact))
        .map(|(name, value, _)| (name, value))
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for workload in spec::WORKLOADS {
        for trace in [false, true] {
            let finished = smoke(workload, 1, trace, "metrics", false);
            assert_eq!(finished.code, 0, "{workload} trace {trace}");
            let result = finished.result.expect("a result line");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let reported = metrics(&result);
            let expected: Vec<(&str, &str)> = if trace {
                spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
            } else {
                spec::END_TO_END.to_vec()
            };
            assert_eq!(
                reported
                    .iter()
                    .map(|(n, _, u)| (n.as_str(), u.as_str()))
                    .collect::<Vec<_>>(),
                expected,
                "{workload} trace {trace}"
            );
            for (name, value, _) in &reported {
                assert!(well_formed(name), "{name}");
                assert!(value.is_finite(), "{workload}: {name} is {value}");
                // An end-to-end metric must never read zero.
                assert!(trace || *value > 0.0, "{workload}: {name} is {value}");
            }
        }
    }
}

#[test]
fn benchmark_json_lists_what_the_runs_print() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("the spec");
    let spec_file = json::parse(&text).expect("BENCHMARK.json is JSON");
    let names = |key: &str, field: &str| -> Vec<String> {
        spec_file
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                m.get(field)
                    .and_then(Json::as_str)
                    .expect(field)
                    .to_string()
            })
            .collect()
    };
    assert_eq!(names("workloads", "name"), spec::WORKLOADS);
    let end_to_end: Vec<_> = names("end_to_end", "name")
        .into_iter()
        .zip(names("end_to_end", "unit"))
        .collect();
    assert_eq!(
        end_to_end
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect::<Vec<_>>(),
        spec::END_TO_END
    );
    let per_layer: Vec<_> = names("per_layer", "name")
        .into_iter()
        .zip(names("per_layer", "unit"))
        .collect();
    assert_eq!(
        per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect::<Vec<_>>(),
        spec::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .collect::<Vec<_>>()
    );
}

#[test]
fn exact_metrics_repeat_on_one_seed_and_move_with_the_seed() {
    for workload in ["polybench_schedule", "fuzz_frontend"] {
        let exact = |seed| {
            let finished = smoke(workload, seed, true, &format!("exact-{seed}"), false);
            assert_eq!(finished.code, 0, "{workload} seed {seed}");
            exact_metrics(&finished.result.expect("a result line"))
        };
        let (first, again, other) = (exact(1), exact(1), exact(2));
        assert!(first.iter().any(|(_, value)| *value != 0.0), "{workload}");
        assert_eq!(first, again, "{workload}: exact metrics differ on one seed");
        assert_ne!(
            first, other,
            "{workload}: no exact metric moved with the seed"
        );
    }
}

#[test]
fn a_wrong_expected_output_fails_the_run() {
    for workload in spec::WORKLOADS {
        let finished = smoke(workload, 1, false, "corrupt", true);
        assert_ne!(finished.code, 0, "{workload}");
        let result = finished
            .result
            .expect("a result line even when checks fail");
        assert_eq!(
            result.get("correct"),
            Some(&Json::Bool(false)),
            "{workload}"
        );
        assert!(
            result.get("failed").and_then(Json::as_u64) > Some(0),
            "{workload}"
        );
    }
}

#[test]
fn a_missing_reproduce_binary_is_a_one_line_error() {
    let finished = run_sh(
        &[
            "--workload",
            "reproduce_paper",
            "--smoke",
            "--reproduce-bin",
            "/nonexistent/reproduce",
        ],
        false,
    );
    assert_eq!(finished.code, 2);
    assert!(finished.result.is_none());
}

fn run_set(test: &str, name: &str, lines: &[String]) -> String {
    let dir = PathBuf::from(out_dir(test));
    std::fs::create_dir_all(&dir).expect("the test's directory");
    let path = dir.join(name);
    std::fs::write(&path, lines.join("\n")).expect("the run set");
    path.to_string_lossy().into_owned()
}

fn record(workload: &str, pass_s: f64, failed: u64) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": 0, \"exit\": 0, \"result\": \
         {{\"correct\": {}, \"attempted\": 10, \"failed\": {failed}, \"metrics\": \
         {{\"pass_s\": {{\"value\": {pass_s}, \"unit\": \"s\"}}}}}}}}",
        failed == 0
    )
}

#[test]
fn compare_applies_the_bounds() {
    let set = |name: &str, values: &[f64], failed: u64| {
        let lines: Vec<String> = values
            .iter()
            .map(|v| record("strided_trace", *v, failed))
            .collect();
        run_set("compare", name, &lines)
    };
    let base = set("base.jsonl", &[1.00, 1.01, 0.99, 1.00], 0);
    let same = set("same.jsonl", &[1.01, 1.00, 1.00, 0.99], 0);
    let slower = set("slower.jsonl", &[1.40, 1.41, 1.39, 1.40], 0);
    let noisy = set("noisy.jsonl", &[0.70, 1.90, 1.00, 1.80], 0);
    let failing = set("failing.jsonl", &[1.00, 1.01, 0.99, 1.00], 1);
    let compare = |b: &str| run_sh(&["compare", &base, b], false).code;
    assert_eq!(compare(&same), 0, "within the bound");
    assert_eq!(compare(&slower), 1, "40 % slower is a regression");
    assert_eq!(compare(&noisy), 0, "overlapping noisy runs are unresolved");
    assert_eq!(compare(&failing), 1, "a rise in failed operations");
}

#[test]
fn a_suite_run_set_compares_equal_to_itself() {
    let out = out_dir("suite");
    let set = format!("{out}/results.jsonl");
    let suite = run_sh(
        &[
            "suite",
            "--smoke",
            "--runs",
            "1",
            "--seconds",
            "1",
            "--out-dir",
            &out,
            "--out",
            &set,
        ],
        false,
    );
    assert_eq!(suite.code, 0);
    let text = std::fs::read_to_string(&set).expect("the run set");
    let records: Vec<Json> = text
        .lines()
        .map(|l| json::parse(l).expect("a JSON line"))
        .collect();
    assert!(records[0].get("environment").is_some());
    assert_eq!(
        records
            .iter()
            .filter(|r| r.get("workload").is_some())
            .count(),
        2 * spec::WORKLOADS.len(),
        "one untraced and one traced run per workload"
    );
    assert_eq!(run_sh(&["compare", &set, &set], false).code, 0);
}

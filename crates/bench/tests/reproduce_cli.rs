//! CLI contract of the `reproduce` driver, mirroring the `tunedb` CLI suite
//! (`crates/tunestore/tests/tunedb_cli.rs`): `--list` enumerates the figure
//! harnesses and exits 0 without running anything; usage errors exit 2 with
//! a one-line diagnostic, never a panic; the two figure lanes print in
//! paper order, and stdout apart from host timings does not depend on the
//! lanes, the worker count or the run. A warm run loads its store and
//! searches nothing; a damaged store falls back to cold seeding.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

#[test]
fn list_prints_every_figure_harness_and_exits_zero() {
    let output = reproduce(&["--list"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "--list must not warn: {stderr}");
    let names: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        names,
        ["fig1", "table1", "fig6", "fig7", "fig9", "fig11", "fig12"],
        "--list prints exactly the known harnesses, one per line, in paper order"
    );
    // Every listed name must be accepted by --only (the list is the
    // contract for scripting subsets).
    for name in names {
        let probe = reproduce(&["--only", name, "--list"]);
        assert_eq!(probe.status.code(), Some(0), "--only {name} rejected");
    }
}

#[test]
fn unknown_only_target_names_itself_and_lists_the_valid_ones() {
    let output = reproduce(&["--only", "fig99"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "one-line diagnostic, got: {stderr}");
    assert_eq!(
        lines[0],
        "reproduce: unknown target 'fig99' (valid targets: fig1, table1, fig6, fig7, fig9, fig11, fig12)",
        "the diagnostic must quote the bad name and enumerate every valid target"
    );
    // The same contract holds for a bad name buried in a comma list.
    let output = reproduce(&["--only", "fig1,nope"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown target 'nope'"),
        "list parsing must name the offending entry: {stderr}"
    );
}

#[test]
fn usage_errors_exit_with_code_two() {
    for args in [
        vec!["--frobnicate"],
        vec!["--store"],
        vec!["--only"],
        vec!["--only", "fig99"],
        vec!["--warm"],                // --warm needs --store
        vec!["--verify"],              // --verify needs --store
        vec!["--profile"],             // --profile needs an output path
        vec!["--sim-workers"],         // needs a worker count
        vec!["--sim-workers", "0"],    // zero workers is meaningless
        vec!["--sim-workers", "many"], // not a number
        vec!["--cache-mode", "exact"], // no such flag
    ] {
        let output = reproduce(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "args {args:?}: expected usage error, stderr: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "args {args:?}: panicked instead of reporting: {stderr}"
        );
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "args {args:?}: one-line diagnostic");
        assert!(
            lines[0].starts_with("reproduce: "),
            "args {args:?}: diagnostic names the binary: {stderr}"
        );
    }
}

#[test]
fn sim_workers_is_respected_in_smoke_runs() {
    let output = reproduce(&["--smoke", "--only", "fig11", "--sim-workers", "2"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains("sim-workers=2"),
        "the trace sharding line reports the requested worker count: {stdout}"
    );
    // Fortran and C move every array alike, DaCe and daisy keep stationary
    // temporaries: the line names which traces collapsed to one class.
    assert!(
        stdout.contains("3 shards, classes Fortran 1, C 1, DaCe 3, daisy 3, "),
        "fig11 reports its shard plan and each version's classes: {stdout}"
    );
}

#[test]
fn profile_writes_a_parseable_json_lines_profile_and_verbose_prints_phases() {
    let dir = std::env::temp_dir().join(format!("reproduce-cli-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("profile.json");
    let path_str = path.to_str().expect("utf8 path");

    let output = reproduce(&[
        "--smoke",
        "--only",
        "fig7",
        "--verbose",
        "--profile",
        path_str,
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains("phases ["),
        "--verbose prints per-phase timings: {stdout}"
    );
    assert!(
        stdout.contains("================ profile ================"),
        "--profile prints the aggregate span tree: {stdout}"
    );
    assert!(
        stdout.contains(&format!("profile written to {}", path.display())),
        "--profile names the output file: {stdout}"
    );

    // The file round-trips through the same parser daisyprof uses, and the
    // run's schedule spans made it in.
    let contents = std::fs::read_to_string(&path).expect("profile file exists");
    let profile = telemetry::Profile::from_json_lines(&contents).expect("profile parses");
    assert_eq!(profile.label, "reproduce");
    assert!(
        profile.spans.keys().any(|path| path.contains("schedule")),
        "profile records scheduler spans: {contents}"
    );
    assert!(
        !profile.counters.is_empty(),
        "profile records counters: {contents}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig12_answers_its_trace_from_the_simulation_fig11_ran() {
    // Fig. 12b's schedule point is Fig. 11's daisy trace. The trace lane
    // keeps each version's counters, so the second request must reuse them
    // instead of running a second simulation (and a second normalize + fuse
    // of the daisy model).
    let dir = std::env::temp_dir().join(format!("reproduce-cli-memo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("profile.json");
    let output = reproduce(&[
        "--smoke",
        "--only",
        "fig11,fig12",
        "--profile",
        path.to_str().expect("utf8 path"),
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    // A reused trace simulated nothing: its line reports no time or
    // throughput.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let point = schedule_point_line(&stdout);
    assert!(
        point.contains(" accesses memo hit, ") && !point.contains("Macc/s"),
        "{point}"
    );

    let contents = std::fs::read_to_string(&path).expect("profile file exists");
    let profile = telemetry::Profile::from_json_lines(&contents).expect("profile parses");
    let counter = |name: &str| profile.counters.get(name).copied().unwrap_or(0);
    // Four versions simulated once each; a fifth would be fig12 re-simulating.
    assert_eq!(
        counter("machine.shard.simulations"),
        4,
        "{:?}",
        profile.counters
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig12_alone_measures_its_trace_simulation() {
    let output = reproduce(&["--smoke", "--only", "fig12"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let point = schedule_point_line(&stdout);
    assert!(
        point.contains(" accesses simulated in ") && point.contains(" Macc/s), "),
        "{point}"
    );
}

#[test]
fn a_full_run_prints_both_lanes_in_paper_order() {
    let stdout = reproduce_ok(&["--smoke", "--sim-workers", "2"]);
    // Every section in paper order, each holding its own tables and no
    // other figure's.
    let sections = [
        ("fig1", &["Figure 1:"][..]),
        ("table1", &["Table 1:"]),
        ("fig6", &["Figure 6:"]),
        ("fig7", &["Figure 7:"]),
        ("fig9", &["Figure 9:"]),
        ("fig11", &["Figure 11:", "Figure 11 (exact trace):"]),
        ("fig12", &["Figure 12a:", "Figure 12b:"]),
        ("summary", &[]),
    ];
    let mut rest = stdout.as_str();
    for (i, (name, titles)) in sections.iter().enumerate() {
        let start = rest
            .find(&header(name))
            .unwrap_or_else(|| panic!("no {name} section after the previous one: {stdout}"));
        rest = &rest[start..];
        let end = sections
            .get(i + 1)
            .and_then(|(next, _)| rest.find(&header(next)))
            .unwrap_or(rest.len());
        let found: Vec<&str> = rest[..end]
            .lines()
            .filter_map(|line| line.strip_prefix("=== "))
            .collect();
        assert_eq!(found.len(), titles.len(), "{name} section: {found:?}");
        for (title, prefix) in found.iter().zip(titles.iter()) {
            assert!(title.starts_with(prefix), "{name} section: {title}");
        }
    }
    // Fig. 12 still follows Fig. 11 on one lane: its schedule point is the
    // simulation Fig. 11 ran.
    assert!(
        schedule_point_line(&stdout).contains(" accesses memo hit, "),
        "{stdout}"
    );
    // The trace lane prints the same beside the schedule lane as alone.
    let trace_lane = |stdout: &str| {
        let from = stdout.find(&header("fig11")).expect("fig11 section");
        let to = stdout.find(&header("summary")).expect("summary section");
        strip_timings(&stdout[from..to])
    };
    let alone = reproduce_ok(&["--smoke", "--sim-workers", "2", "--only", "fig11,fig12"]);
    assert_eq!(trace_lane(&stdout), trace_lane(&alone));
}

#[test]
fn smoke_stdout_does_not_depend_on_workers_or_the_run() {
    let mut first = None;
    for round in 0..3 {
        for workers in ["1", "4"] {
            let run = strip_timings(&reproduce_ok(&["--smoke", "--sim-workers", workers]));
            let first = first.get_or_insert_with(|| run.clone());
            assert_eq!(*first, run, "round {round}, --sim-workers {workers}");
        }
    }
}

/// `--warm` loads the store a cold run wrote and runs no search at all. A
/// corrupt, truncated or mismatched store is not an error: the run prints
/// why the warm start failed, seeds cold and rewrites the store, which the
/// next warm run loads again.
#[test]
fn warm_runs_skip_seeding_and_damaged_stores_fall_back_to_cold_seeding() {
    let dir = std::env::temp_dir().join(format!("reproduce-cli-warm-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf8 path");
    let file = store.join("daisy-full-mini.tunedb");
    let fig6 = |extra: &[&str]| -> Output {
        let mut args = vec!["--smoke", "--store", store_arg, "--only", "fig6"];
        args.extend_from_slice(extra);
        reproduce(&args)
    };
    let profiled = |extra: &[&str], name: &str| -> (String, telemetry::Profile) {
        let path = dir.join(name);
        let mut args = extra.to_vec();
        args.extend_from_slice(&["--profile", path.to_str().expect("utf8 path")]);
        let output = fig6(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
        let contents = std::fs::read_to_string(&path).expect("profile file exists");
        let profile = telemetry::Profile::from_json_lines(&contents).expect("profile parses");
        (
            String::from_utf8_lossy(&output.stdout).into_owned(),
            profile,
        )
    };
    let seeded = |profile: &telemetry::Profile| {
        let spans = profile
            .spans
            .keys()
            .any(|path| path.split('.').any(|name| name == "seeding"));
        spans || profile.counters.contains_key("daisy.seed.nests")
    };

    let (stdout, profile) = profiled(&[], "cold.json");
    assert!(stdout.contains("full: cold database"), "{stdout}");
    assert!(seeded(&profile), "a cold run seeds: {:?}", profile.counters);
    let cold_bytes = std::fs::read(&file).expect("the cold run wrote its store");

    let (stdout, profile) = profiled(&["--warm"], "warm.json");
    assert!(stdout.contains("full: warm database"), "{stdout}");
    assert!(
        !seeded(&profile),
        "a warm run runs no search: {:?}",
        profile.spans.keys().collect::<Vec<_>>()
    );

    let mut flipped = cold_bytes.clone();
    flipped[cold_bytes.len() / 2] ^= 0x40;
    let mut foreign = tunestore::Snapshot::decode(&cold_bytes).expect("the store decodes");
    foreign.fingerprint = "another-machine".to_string();
    for (damage, bytes) in [
        ("flipped byte", flipped),
        ("truncated", cold_bytes[..40].to_vec()),
        ("foreign fingerprint", foreign.encode()),
    ] {
        std::fs::write(&file, &bytes).expect("damage the store");
        let output = fig6(&["--warm"]);
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{damage}: {stderr}");
        let reason = format!("warm start from {} failed (", file.display());
        assert!(
            stderr.contains(&reason) && stderr.contains("); seeding cold"),
            "{damage}: stderr names the failure: {stderr}"
        );
        assert!(stdout.contains("full: cold database"), "{damage}: {stdout}");
        assert_eq!(
            std::fs::read(&file).expect("store rewritten"),
            cold_bytes,
            "{damage}: the cold fallback rewrites the store"
        );
    }
    let output = fig6(&["--warm"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("full: warm database"), "{stdout}");
    assert!(output.stderr.is_empty(), "{:?}", output.stderr);
    std::fs::remove_dir_all(&dir).ok();
}

/// Fig. 12b's line about the daisy trace per schedule point.
fn schedule_point_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|line| line.starts_with("daisy trace per schedule point"))
        .unwrap_or_else(|| panic!("no schedule-point line in {stdout}"))
}

/// `reproduce`'s stdout after a successful run.
fn reproduce_ok(args: &[&str]) -> String {
    let output = reproduce(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "args {args:?}: {stderr}");
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

/// The section header `reproduce` prints before a figure or the summary.
fn header(name: &str) -> String {
    format!("================ {name} ================")
}

/// `reproduce` stdout without host timings: the trace table's `sim [ms]`
/// and `Macc/s` columns, the "simulated in … Macc/s)" clause, the seeding
/// seconds, the total wall clock and the `sim-workers=N (effective M)` of
/// the trace sharding lines.
fn strip_timings(stdout: &str) -> String {
    let mut lines = Vec::new();
    let mut in_trace_table = false;
    for line in stdout.lines() {
        in_trace_table &= !line.trim().is_empty();
        if in_trace_table {
            let columns: Vec<&str> = line.split_whitespace().collect();
            let exact = columns.iter().take(2).chain(columns.iter().skip(4));
            lines.push(exact.copied().collect::<Vec<_>>().join(" "));
            continue;
        }
        in_trace_table = line.contains("sim [ms]");
        let line = without(line, " simulated in ", " Macc/s)");
        let line = without(&line, " entries in ", "s");
        let line = without(&line, "total wall clock: ", "s");
        lines.push(without(&line, "sim-workers=", ")"));
    }
    lines.join("\n")
}

/// `line` without the text from `start` through the first `end` after it.
fn without(line: &str, start: &str, end: &str) -> String {
    let Some(from) = line.find(start) else {
        return line.to_string();
    };
    let rest = from + start.len();
    match line[rest..].find(end) {
        Some(to) => format!("{}{}", &line[..from], &line[rest + to + end.len()..]),
        None => line.to_string(),
    }
}

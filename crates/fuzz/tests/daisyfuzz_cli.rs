//! Contract tests for the `daisyfuzz` binary: exit codes, one-line usage
//! diagnostics, the JSON report, and the injected-fault path that proves
//! the farm catches, shrinks and reports a real divergence end to end.

use std::process::{Command, Output};

fn daisyfuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_daisyfuzz"))
        .args(args)
        .output()
        .expect("daisyfuzz runs")
}

fn stderr_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr)
        .trim_end()
        .to_string()
}

#[test]
fn usage_errors_are_one_line_and_exit_2() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["run", "--budget"][..],
        &["run", "--budget", "many"][..],
        &["run", "--inject", "gamma-rays"][..],
        &["run", "--frobnicate", "1"][..],
        &["replay"][..],
        &["corpus"][..],
        &["corpus", "demote"][..],
    ] {
        let output = daisyfuzz(args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "args {args:?} must exit 2, stderr: {}",
            stderr_line(&output)
        );
        let err = stderr_line(&output);
        assert!(
            err.starts_with("daisyfuzz: ") && !err.contains('\n'),
            "args {args:?} must produce a one-line daisyfuzz: diagnostic, got {err:?}"
        );
    }
}

#[test]
fn a_clean_bounded_run_exits_0_with_a_summary() {
    let output = daisyfuzz(&["run", "--seed", "3405", "--budget", "60"]);
    assert_eq!(output.status.code(), Some(0));
    let out = String::from_utf8_lossy(&output.stdout);
    assert!(out.contains("cases=60/60"));
    assert!(out.contains("failures=0"));
    assert!(out.contains("panics_contained=0"));
}

#[test]
fn an_injected_mismatch_is_caught_shrunk_and_reported() {
    let json_path =
        std::env::temp_dir().join(format!("daisyfuzz-cli-inject-{}.json", std::process::id()));
    let output = daisyfuzz(&[
        "run",
        "--seed",
        "3405",
        "--budget",
        "50",
        "--inject",
        "exec",
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert_eq!(
        output.status.code(),
        Some(1),
        "an injected fault must fail the run"
    );
    let out = String::from_utf8_lossy(&output.stdout);
    assert!(out.contains("MISMATCH"), "stdout: {out}");
    assert!(out.contains("injected fault"), "stdout: {out}");
    assert!(
        out.contains("replay with: daisyfuzz replay --seed"),
        "failures must carry a replayable seed, stdout: {out}"
    );
    assert!(
        out.contains("shrunk in"),
        "failures must be shrunk, stdout: {out}"
    );
    let json = std::fs::read_to_string(&json_path).expect("json report written");
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains("\"oracle\": \"exec\""));
    assert!(json.contains("\"shrunk\":"));
    std::fs::remove_file(&json_path).ok();
}

#[test]
fn injected_panics_are_contained_and_the_run_still_finishes() {
    let output = daisyfuzz(&[
        "run", "--seed", "3405", "--budget", "80", "--inject", "panic",
    ]);
    assert_eq!(output.status.code(), Some(1));
    let out = String::from_utf8_lossy(&output.stdout);
    assert!(out.contains("PANIC"), "stdout: {out}");
    assert!(!out.contains("panics_contained=0"), "stdout: {out}");
}

#[test]
fn replay_accepts_a_seed_and_a_corpus_file() {
    let output = daisyfuzz(&["replay", "--seed", "3405"]);
    assert_eq!(output.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&output.stdout).contains("passed every oracle"));

    let corpus = fuzz::corpus::default_corpus_dir();
    let case = fuzz::corpus::load_corpus(&corpus)
        .expect("corpus loads")
        .into_iter()
        .next()
        .expect("corpus is non-empty");
    let output = daisyfuzz(&["replay", case.path.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(0));
}

/// ROADMAP item 6 (iii): 200 000 nested parentheses used to overflow the
/// recursive-descent parser's stack and abort the process.
#[test]
fn replaying_a_deeply_nested_case_is_a_parse_error_not_an_abort() {
    let path =
        std::env::temp_dir().join(format!("daisyfuzz-cli-nested-{}.loop", std::process::id()));
    let source = format!(
        "program deep {{ param N = 2; array A[N]; for i in 0..N {{ A[i] = {}1.0{}; }} }}",
        "(".repeat(200_000),
        ")".repeat(200_000)
    );
    std::fs::write(&path, source).expect("case file is writable");
    let output = daisyfuzz(&["replay", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    // As for any other unparsable case file: one line, exit 2.
    assert_eq!(output.status.code(), Some(2), "{}", stderr_line(&output));
    let err = stderr_line(&output);
    assert!(
        err.contains("parse error at 1:") && err.contains("nesting deeper than 256 levels"),
        "{err}"
    );
    assert!(!err.contains('\n'), "{err}");
}

/// ROADMAP item 6 (iii), the other half: a 200 000-term `1+1+…` chain nests
/// no parenthesis, but builds a tree as deep as the one above, which every
/// recursive walker used to follow into a stack overflow.
#[test]
fn replaying_a_long_operator_chain_is_a_parse_error_not_an_abort() {
    for (label, subscript, value) in [
        ("value", "i".to_string(), vec!["1.0"; 200_000].join("+")),
        (
            "subscript",
            format!("{}i", "0+".repeat(200_000)),
            "1.0".into(),
        ),
    ] {
        let path = std::env::temp_dir().join(format!(
            "daisyfuzz-cli-chain-{label}-{}.loop",
            std::process::id()
        ));
        let source = format!(
            "program chain {{ param N = 2; array A[N]; for i in 0..N {{ A[{subscript}] = {value}; }} }}"
        );
        std::fs::write(&path, source).expect("case file is writable");
        let output = daisyfuzz(&["replay", path.to_str().unwrap()]);
        let _ = std::fs::remove_file(&path);
        assert_eq!(output.status.code(), Some(2), "{}", stderr_line(&output));
        let err = stderr_line(&output);
        assert!(
            err.contains("parse error at 1:") && err.contains("nesting deeper than 256 levels"),
            "{label}: {err}"
        );
        assert!(!err.contains('\n'), "{label}: {err}");
    }
}

/// ROADMAP item 6 (i): `N * N` elements wrap `i64` to 0, and the exec oracle
/// used to index the empty storage — a panic. The size is now an error that
/// names the array.
#[test]
fn replaying_an_extent_that_wraps_is_an_error_naming_the_array() {
    let path = std::env::temp_dir().join(format!("daisyfuzz-cli-wrap-{}.loop", std::process::id()));
    std::fs::write(
        &path,
        "program wrap { param N = 4611686018427387904; array A[N][N]; \
         for i in 0..2 { A[i][0] = 1.0; } }",
    )
    .expect("case file is writable");
    let output = daisyfuzz(&["replay", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(output.status.code(), Some(1), "{}", stderr_line(&output));
    let out = String::from_utf8_lossy(&output.stdout);
    assert_eq!(out.lines().count(), 1, "{out}");
    assert!(out.contains("array `A`"), "{out}");
    assert!(!out.contains("PANICKED"), "{out}");
}

#[test]
fn help_lists_every_command() {
    let output = daisyfuzz(&["--help"]);
    assert_eq!(output.status.code(), Some(0));
    let out = String::from_utf8_lossy(&output.stdout);
    for needle in ["run", "replay", "corpus", "--inject", "exit status"] {
        assert!(out.contains(needle), "help must mention {needle}");
    }
}

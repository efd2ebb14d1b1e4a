//! CLI contract of the `tunedb` binary: any subcommand given a missing or
//! corrupt snapshot path must exit non-zero with a single one-line
//! diagnostic on stderr — never a panic or a backtrace.

use std::path::PathBuf;
use std::process::{Command, Output};

use tunestore::Snapshot;

fn tunedb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tunedb"))
        .args(args)
        .output()
        .expect("tunedb runs")
}

fn tmpdir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tunedb-cli-{label}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Asserts the failure contract: exit code 1, no panic markers, exactly one
/// stderr line of the form `tunedb: <path>: <reason>`.
fn assert_clean_failure(output: &Output, path: &str, label: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "{label}: expected exit 1, stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "{label}: panicked instead of reporting: {stderr}"
    );
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(
        lines.len(),
        1,
        "{label}: diagnostic must be one line: {stderr}"
    );
    assert!(
        lines[0].starts_with("tunedb: ") && lines[0].contains(path),
        "{label}: diagnostic must name the store: {stderr}"
    );
}

#[test]
fn every_subcommand_reports_missing_stores_cleanly() {
    let dir = tmpdir("missing");
    let missing = dir.join("missing.tunedb");
    let missing = missing.to_str().unwrap();
    let out = dir.join("out.tunedb");
    let out = out.to_str().unwrap();
    for args in [
        vec!["stats", missing],
        vec!["inspect", missing],
        vec!["inspect", missing, "5"],
        vec!["verify", missing],
        vec!["gc", missing],
        vec!["merge", out, missing],
    ] {
        let output = tunedb(&args);
        assert_clean_failure(&output, missing, &args.join(" "));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_subcommand_reports_corrupt_stores_cleanly() {
    let dir = tmpdir("corrupt");
    let out = dir.join("out.tunedb");
    let out = out.to_str().unwrap();
    // A zoo of corruption: wrong magic, truncated header, empty file, and a
    // bit-flipped but otherwise valid store.
    let garbage = dir.join("garbage.tunedb");
    std::fs::write(&garbage, b"DAISYTDBgarbage").unwrap();
    let empty = dir.join("empty.tunedb");
    std::fs::write(&empty, b"").unwrap();
    let flipped = dir.join("flipped.tunedb");
    let snapshot = Snapshot::new();
    snapshot.save(&flipped).unwrap();
    let mut bytes = std::fs::read(&flipped).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&flipped, &bytes).unwrap();

    for corrupt in [&garbage, &empty, &flipped] {
        let corrupt = corrupt.to_str().unwrap();
        for args in [
            vec!["stats", corrupt],
            vec!["inspect", corrupt],
            vec!["verify", corrupt],
            vec!["gc", corrupt],
            vec!["merge", out, corrupt],
        ] {
            let output = tunedb(&args);
            assert_clean_failure(&output, corrupt, &args.join(" "));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_reports_the_unwritable_output_path() {
    let dir = tmpdir("merge-out");
    let store = dir.join("ok.tunedb");
    Snapshot::new().save(&store).unwrap();
    let store = store.to_str().unwrap();
    // A parent that is a regular file: creating the output directory fails.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"file").unwrap();
    let bad_out = blocker.join("out.tunedb");
    let bad_out = bad_out.to_str().unwrap();
    let output = tunedb(&["merge", bad_out, store]);
    assert_clean_failure(&output, bad_out, "merge to unwritable path");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_with_code_two() {
    for args in [
        vec![],
        vec!["stats"],
        vec!["frobnicate", "x"],
        vec!["verify", "a.tunedb", "b.tunedb"],
        // A store is one snapshot file: there is nothing to recover,
        // compact or deep-verify.
        vec!["recover", "a.tunedb"],
        vec!["compact", "a.tunedb"],
        vec!["verify", "a.tunedb", "--deep"],
        vec!["verify", "--deep", "a.tunedb"],
    ] {
        let output = tunedb(&args);
        assert_eq!(output.status.code(), Some(2), "args: {args:?}");
    }
    let output = tunedb(&["inspect", "x.tunedb", "not-a-number"]);
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn happy_path_round_trips() {
    let dir = tmpdir("ok");
    let store = dir.join("ok.tunedb");
    Snapshot::new().save(&store).unwrap();
    let store = store.to_str().unwrap();
    for args in [
        vec!["stats", store],
        vec!["verify", store],
        vec!["gc", store],
    ] {
        let output = tunedb(&args);
        assert_eq!(
            output.status.code(),
            Some(0),
            "args {args:?}, stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! Replays every committed corpus case through the full oracle battery.
//!
//! The corpus under `fuzz/corpus/` holds generated programs that graduated
//! because their structural feature set was new. Each is a regression
//! test: it once exercised a pipeline shape end to end, and must keep
//! passing every differential oracle bit for bit.

use fuzz::campaign::check_program;
use fuzz::corpus::{default_corpus_dir, features_of, load_corpus};
use loop_ir::source::to_source;

#[test]
fn every_committed_corpus_case_passes_every_oracle() {
    let dir = default_corpus_dir();
    let cases = load_corpus(&dir).expect("corpus loads");
    assert!(
        !cases.is_empty(),
        "fuzz/corpus must contain committed cases (looked in {})",
        dir.display()
    );
    for case in &cases {
        let verdict = check_program(&case.program);
        assert!(
            verdict.is_pass(),
            "{} regressed: {:?}",
            case.path.display(),
            verdict
        );
    }
}

#[test]
fn corpus_cases_cover_distinct_feature_sets() {
    let cases = load_corpus(&default_corpus_dir()).expect("corpus loads");
    let keys: std::collections::BTreeSet<String> = cases
        .iter()
        .map(|c| {
            features_of(&c.program)
                .into_iter()
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    assert_eq!(
        keys.len(),
        cases.len(),
        "two corpus files share a feature set; one is redundant"
    );
}

#[test]
fn corpus_headers_record_the_generating_seed() {
    let cases = load_corpus(&default_corpus_dir()).expect("corpus loads");
    for case in &cases {
        let text = std::fs::read_to_string(&case.path).expect("readable");
        assert!(
            text.starts_with("// daisyfuzz: seed=0x"),
            "{} is missing its seed header",
            case.path.display()
        );
    }
}

#[test]
fn generated_corpus_files_are_in_canonical_source_form() {
    // A generated case is written by `to_source`, so below its `//` header
    // it must be exactly what `to_source` emits for the program it parses
    // to: this pins the source format byte for byte.
    let cases = load_corpus(&default_corpus_dir()).expect("corpus loads");
    let mut generated = 0;
    for case in &cases {
        let name = case.path.file_name().unwrap().to_string_lossy();
        if !name.starts_with("seed_") {
            continue;
        }
        generated += 1;
        let text = std::fs::read_to_string(&case.path).expect("readable");
        let body: String = text
            .split_inclusive('\n')
            .filter(|line| !line.starts_with("//"))
            .collect();
        assert_eq!(
            to_source(&case.program).expect("has a source form"),
            body,
            "{} is not what to_source emits",
            case.path.display()
        );
    }
    assert!(generated > 0, "no generated corpus files");
}

//! The graduating corpus: interesting generated programs, committed as
//! frontend-syntax `.loop` files and replayed as a regression test.
//!
//! A program "graduates" when its structural feature set is not already
//! covered by the corpus. Features are coarse shape descriptors (depth,
//! strides, reductions, parametric bounds, ...), so the corpus stays small
//! while still pinning every generator shape the oracles exercise. Each
//! file carries a `// daisyfuzz:` header recording the seed and features;
//! the lexer skips `//` comments, so the files parse unchanged.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use loop_ir::prelude::*;
use loop_ir::source::to_source;
use loop_ir::visit::{walk_computations, walk_loops};

/// Structural features describing why a case is interesting.
pub fn features_of(program: &Program) -> BTreeSet<String> {
    let mut features = BTreeSet::new();
    let loops = walk_loops(&program.body);
    let iterators: BTreeSet<&Var> = loops.iter().map(|l| &l.iter).collect();
    for l in &loops {
        if l.step != 1 {
            features.insert("strided".to_string());
        }
        if l.lower.as_const().is_none() || l.upper.as_const().is_none() {
            features.insert("parametric-bounds".to_string());
        }
        let mut triangular = false;
        for bound in [&l.lower, &l.upper] {
            bound.for_each_var(&mut |v| triangular |= v != &l.iter && iterators.contains(v));
        }
        if triangular {
            features.insert("triangular".to_string());
        }
        if l.schedule.parallel {
            features.insert("pragma-parallel".to_string());
        }
    }
    let max_depth = walk_computations(&program.body)
        .iter()
        .map(|c| c.depth())
        .max()
        .unwrap_or(0);
    features.insert(format!("depth-{max_depth}"));
    let top_level_loops = program
        .body
        .iter()
        .filter(|n| matches!(n, Node::Loop(_)))
        .count();
    if top_level_loops > 1 {
        features.insert("multi-nest".to_string());
    }
    for comp in program.computations() {
        if let Some(op) = comp.reduction {
            features.insert(format!("reduction-{op:?}").to_lowercase());
        }
        if comp.target.indices.len() == 1
            && comp.target.indices[0].as_const() == Some(0)
            && comp.reduction.is_some()
        {
            features.insert("scalar-accumulator".to_string());
        }
        let mut loads = Vec::new();
        comp.value.for_each_load(&mut |r| loads.push(r));
        for idx in comp
            .target
            .indices
            .iter()
            .chain(loads.iter().flat_map(|r| r.indices.iter()))
        {
            classify_subscript(idx, &mut features);
        }
        if loads.len() > 1 {
            features.insert("multi-load".to_string());
        }
    }
    if program.computations().len() > 2 {
        features.insert("multi-statement".to_string());
    }
    features
}

fn classify_subscript(e: &Expr, features: &mut BTreeSet<String>) {
    match e {
        Expr::Sub(a, b) if matches!(**a, Expr::Const(_)) && matches!(**b, Expr::Var(_)) => {
            features.insert("reversed-subscript".to_string());
        }
        Expr::Add(_, b) | Expr::Sub(_, b) if matches!(**b, Expr::Const(c) if c != 0) => {
            features.insert("staggered-subscript".to_string());
        }
        Expr::Mul(..) => {
            features.insert("scaled-subscript".to_string());
        }
        _ => {}
    }
}

/// A key naming a feature set (stable across runs: features are sorted).
pub fn feature_key(features: &BTreeSet<String>) -> String {
    features.iter().cloned().collect::<Vec<_>>().join(",")
}

/// One corpus entry on disk.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// File path.
    pub path: PathBuf,
    /// Parsed program.
    pub program: Program,
}

/// Loads every `.loop` file under `dir`, sorted by file name. Errors name
/// the offending file.
pub fn load_corpus(dir: &Path) -> std::result::Result<Vec<CorpusCase>, String> {
    let mut cases = Vec::new();
    if !dir.exists() {
        return Ok(cases);
    }
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().map(|x| x == "loop").unwrap_or(false))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let program = loop_ir::parser::parse_program(&text)
            .map_err(|e| format!("parsing {}: {e}", path.display()))?;
        cases.push(CorpusCase { path, program });
    }
    Ok(cases)
}

/// Renders a corpus file: metadata header plus the program in frontend
/// syntax (the header lines are `//` comments the lexer skips).
pub fn render_case(program: &Program, seed: u64) -> std::result::Result<String, String> {
    let body = to_source(program).map_err(|e| format!("emitting source: {e}"))?;
    let features = feature_key(&features_of(program));
    Ok(format!(
        "// daisyfuzz: seed={seed:#018x}\n// features: {features}\n{body}"
    ))
}

/// Promotion outcome for one candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Promotion {
    /// Written to disk under the returned path.
    Graduated(PathBuf),
    /// Feature set already covered.
    Covered,
    /// Corpus is at capacity.
    Full,
}

/// Promotes `program` into `dir` if its feature set adds coverage.
/// The corpus is capped at `cap` files so it stays reviewable.
pub fn promote(
    dir: &Path,
    program: &Program,
    seed: u64,
    cap: usize,
) -> std::result::Result<Promotion, String> {
    let existing = load_corpus(dir)?;
    let covered: BTreeSet<String> = existing
        .iter()
        .map(|c| feature_key(&features_of(&c.program)))
        .collect();
    let key = feature_key(&features_of(program));
    if covered.contains(&key) {
        return Ok(Promotion::Covered);
    }
    if existing.len() >= cap {
        return Ok(Promotion::Full);
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let name = format!("seed_{seed:016x}.loop");
    let path = dir.join(name);
    let text = render_case(program, seed)?;
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(Promotion::Graduated(path))
}

/// The repo-relative corpus directory, resolved from this crate's
/// manifest (crates/fuzz → repo root → fuzz/corpus).
pub fn default_corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    fn temp_corpus() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "daisyfuzz-corpus-{}-{:x}",
            std::process::id(),
            generate(7, &GenConfig::default()).structural_hash()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn corpus_files_round_trip_through_the_parser() {
        let dir = temp_corpus();
        let config = GenConfig::default();
        let program = generate(42, &config);
        let outcome = promote(&dir, &program, 42, 24).expect("promotion io");
        assert!(matches!(outcome, Promotion::Graduated(_)));
        let cases = load_corpus(&dir).expect("load");
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].program, program, "header comments must be inert");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_feature_sets_do_not_graduate() {
        let dir = temp_corpus();
        let config = GenConfig::default();
        let program = generate(42, &config);
        promote(&dir, &program, 42, 24).expect("first");
        let again = promote(&dir, &program, 43, 24).expect("second");
        assert_eq!(again, Promotion::Covered);
        let cases = load_corpus(&dir).expect("load");
        assert_eq!(cases.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_cap_is_respected() {
        let dir = temp_corpus();
        let config = GenConfig::default();
        let mut graduated = 0usize;
        for seed in 0..200u64 {
            match promote(&dir, &generate(seed, &config), seed, 5).expect("io") {
                Promotion::Graduated(_) => graduated += 1,
                Promotion::Covered => {}
                Promotion::Full => break,
            }
        }
        assert!(graduated <= 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn features_describe_shape_not_noise() {
        let config = GenConfig::default();
        // Distinct seeds with the same shape map to the same key; the
        // generator's menu guarantees some collisions within 100 seeds.
        let keys: BTreeSet<String> = (0..100u64)
            .map(|s| feature_key(&features_of(&generate(s, &config))))
            .collect();
        assert!(keys.len() < 100, "feature keys must abstract over noise");
        assert!(keys.len() > 5, "feature keys must still distinguish shapes");
    }
}

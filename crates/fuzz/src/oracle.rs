//! The differential oracles: every fast path of the pipeline checked
//! against its retained reference on one generated program.
//!
//! Each oracle runs under [`std::panic::catch_unwind`], so a crash in any
//! engine is contained and reported as a [`Verdict::Panic`] rather than
//! killing the campaign. The oracles are:
//!
//! * **exec** — the compiled execution engine versus the tree-walking
//!   reference interpreter (`machine::interp::reference`): bit-identical
//!   array state and statement counts, or the *same error kind* when the
//!   program faults.
//! * **trace** — the compiled access stream versus the symbolic walker
//!   [`machine::trace::walk_accesses_symbolic`] (the reference
//!   interpreter's loop walk): identical entry sequences.
//! * **cache** — a two-way cache oracle: the run-compressed simulation
//!   versus the naive LRU reference, bit-identical counters on the tiny
//!   test machine whose four sets force conflicts; and the sharded driver
//!   under the program's canonical plan (translation classes and all)
//!   versus the shard oracle on the naive LRU, every shard streamed into
//!   its own cold reference.
//! * **dependence** — the dependence analysis ([`dependence::analyze`]:
//!   dense integer rows, direction vectors refined level by level) versus
//!   the naive reference ([`dependence::reference::analyze`]: every `3ⁿ`
//!   vector of every access pair on a freshly built symbolic system): the
//!   same edges in the same order.
//! * **normalize** — the normalization pipeline: the normalized program
//!   validates, normalization is idempotent, the normalized program still
//!   agrees with *its* references (exec + trace), and its results match
//!   the original program to fp-reordering tolerance.
//! * **schedule** — the daisy scheduler driven headlessly: outcomes are
//!   bit-identical across scheduler parallelism levels and across a
//!   cold-vs-warm (persist + warm-start) round trip, and the scheduled
//!   program still validates and computes what the original computes — with
//!   transfer tuning on, against a database seeded from a few generated
//!   siblings (recipes transferred from other nests) and then from the case
//!   itself too (recipes searched for these very nests).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use daisy::{DaisyConfig, DaisyScheduler};
use loop_ir::prelude::*;
use machine::interp::{reference, ProgramData};
use machine::{
    simulate_cache, simulate_cache_reference, simulate_cache_sharded_reference,
    simulate_cache_sharded_with_plan, CompiledProgram, MachineConfig, ShardPlan,
};
use normalize::Normalizer;

use crate::gen::{generate, GenConfig};

/// An oracle: `Ok(())` on agreement, `Err(detail)` on divergence.
pub type OracleFn = fn(&Program) -> std::result::Result<(), String>;

/// Every oracle with its name, in the order [`check_all`] runs them. The
/// schedule oracle comes last: it costs two scheduler constructions and a
/// store round trip per case, so campaigns subsample it.
pub const ORACLES: [(&str, OracleFn); 6] = [
    ("exec", exec_oracle),
    ("trace", trace_oracle),
    ("cache", cache_oracle),
    ("dependence", dependence_oracle),
    ("normalize", normalize_oracle),
    ("schedule", schedule_oracle),
];

/// Outcome of running one oracle (or a whole oracle battery) on a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every cross-check agreed.
    Pass,
    /// A fast path disagreed with its reference.
    Mismatch {
        /// Which oracle observed the disagreement.
        oracle: &'static str,
        /// Human-readable description of the divergence.
        detail: String,
    },
    /// An engine panicked; the panic was contained.
    Panic {
        /// Which oracle was running when the panic escaped.
        oracle: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Pass`].
    pub fn is_pass(&self) -> bool {
        matches!(self, Verdict::Pass)
    }

    /// Coarse failure class used by the shrinker to preserve the failure
    /// while reducing: `(oracle, is_panic)`.
    pub fn failure_key(&self) -> Option<(&'static str, bool)> {
        match self {
            Verdict::Pass => None,
            Verdict::Mismatch { oracle, .. } => Some((oracle, false)),
            Verdict::Panic { oracle, .. } => Some((oracle, true)),
        }
    }
}

/// Runs every oracle on `program`, stopping at the first failure; the
/// schedule oracle only when `schedule` is set.
pub fn check_all(program: &Program, schedule: bool) -> Verdict {
    let battery = if schedule {
        &ORACLES[..]
    } else {
        &ORACLES[..ORACLES.len() - 1]
    };
    for &(name, oracle) in battery {
        match contain(name, || oracle(program)) {
            Verdict::Pass => {}
            failure => return failure,
        }
    }
    Verdict::Pass
}

/// Runs a single oracle by name (as [`Verdict::failure_key`] reports it) — the
/// shrinker re-runs exactly the failing oracle.
///
/// # Panics
///
/// When `oracle` names none of [`ORACLES`].
pub fn check_one(program: &Program, oracle: &str) -> Verdict {
    let &(name, f) = ORACLES
        .iter()
        .find(|(name, _)| *name == oracle)
        .unwrap_or_else(|| panic!("unknown oracle {oracle:?}"));
    contain(name, || f(program))
}

/// Runs `f` with panic containment, mapping the three outcomes onto a
/// [`Verdict`].
fn contain(oracle: &'static str, f: impl FnOnce() -> std::result::Result<(), String>) -> Verdict {
    // The span closes *after* catch_unwind resolves, so a contained panic
    // still exits the span cleanly (the guard tolerates unwinding anyway).
    let _span = telemetry::span(oracle);
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(())) => Verdict::Pass,
        Ok(Err(detail)) => Verdict::Mismatch { oracle, detail },
        Err(payload) => Verdict::Panic {
            oracle,
            message: panic_message(payload),
        },
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// The oracles
// ---------------------------------------------------------------------------

fn exec_oracle(program: &Program) -> std::result::Result<(), String> {
    exec_differential(program, "")
}

/// The exec differential, reusable on derived programs (`label` prefixes
/// the failure detail so normalize/schedule failures say which program
/// variant diverged).
fn exec_differential(program: &Program, label: &str) -> std::result::Result<(), String> {
    let mut slow_data =
        ProgramData::seeded(program).map_err(|e| format!("{label}storage allocation: {e}"))?;
    let mut slow = reference::Interpreter::new();
    let slow_result = slow.run(program, &mut slow_data);

    let mut fast_data =
        ProgramData::seeded(program).map_err(|e| format!("{label}storage allocation: {e}"))?;
    let fast_result = execute(program, &mut fast_data);

    match (slow_result, fast_result) {
        (Ok(()), Ok(fast)) => {
            if slow.executed_statements != fast {
                return Err(format!(
                    "{label}statement counts diverge: reference {} vs compiled {fast}",
                    slow.executed_statements
                ));
            }
            if slow_data != fast_data {
                return Err(format!(
                    "{label}array state diverges between reference and compiled execution ({})",
                    first_data_difference(program, &slow_data, &fast_data)
                ));
            }
            Ok(())
        }
        (Err(a), Err(b)) => {
            if std::mem::discriminant(&a) == std::mem::discriminant(&b) {
                Ok(())
            } else {
                Err(format!(
                    "{label}error kinds diverge: reference `{a}` vs compiled `{b}`"
                ))
            }
        }
        (Err(a), Ok(_)) => Err(format!(
            "{label}reference faults (`{a}`) but the compiled engine succeeds"
        )),
        (Ok(()), Err(b)) => Err(format!(
            "{label}compiled engine faults (`{b}`) but the reference succeeds"
        )),
    }
}

/// Lowers and executes `program` once through the compiled engine; the
/// executed statement count.
fn execute(program: &Program, data: &mut ProgramData) -> machine::Result<u64> {
    CompiledProgram::lower(program)?.execute(data)
}

fn first_data_difference(program: &Program, a: &ProgramData, b: &ProgramData) -> String {
    for name in program.arrays.keys() {
        if let Some(diff) = a.max_abs_diff(b, name.as_str()) {
            if diff != 0.0 {
                return format!("first differing array {name}, max |delta| = {diff:e}");
            }
        }
    }
    "arrays equal elementwise; metadata differs".to_string()
}

fn trace_oracle(program: &Program) -> std::result::Result<(), String> {
    let compiled =
        machine::exec::CompiledProgram::lower(program).map_err(|e| format!("lowering: {e}"))?;
    let mut fast = Vec::new();
    let fast_result = compiled.stream(&mut |e| fast.push(e));
    let mut slow = Vec::new();
    let slow_result = machine::trace::walk_accesses_symbolic(program, |e| slow.push(e));
    match (fast_result, slow_result) {
        (Ok(fast_n), Ok(slow_n)) => {
            if fast_n != slow_n {
                return Err(format!(
                    "access counts diverge: compiled stream {fast_n} vs symbolic walk {slow_n}"
                ));
            }
            if fast != slow {
                let at = fast
                    .iter()
                    .zip(&slow)
                    .position(|(a, b)| a != b)
                    .unwrap_or(fast.len().min(slow.len()));
                return Err(format!(
                    "access streams diverge at entry {at}: compiled {:?} vs symbolic {:?}",
                    fast.get(at),
                    slow.get(at)
                ));
            }
            Ok(())
        }
        (Err(a), Err(b)) if std::mem::discriminant(&a) == std::mem::discriminant(&b) => Ok(()),
        (a, b) => Err(format!(
            "stream outcomes diverge: compiled {:?} vs symbolic {:?}",
            a.err().map(|e| e.to_string()),
            b.err().map(|e| e.to_string())
        )),
    }
}

fn cache_oracle(program: &Program) -> std::result::Result<(), String> {
    let machine = MachineConfig::tiny_for_tests();
    let (fast, naive) = match (
        simulate_cache(program, &machine),
        simulate_cache_reference(program, &machine),
    ) {
        (Ok(f), Ok(n)) => (f, n),
        (Err(f), Err(n)) if std::mem::discriminant(&f) == std::mem::discriminant(&n) => {
            return Ok(())
        }
        (f, n) => {
            return Err(format!(
                "simulation outcomes diverge: run-compressed {:?}, reference {:?}",
                f.err().map(|e| e.to_string()),
                n.err().map(|e| e.to_string()),
            ))
        }
    };
    let (fast, naive) = (
        (fast.accesses(), fast.l1(), fast.l2()),
        (naive.accesses(), naive.l1(), naive.l2()),
    );
    if fast != naive {
        return Err(format!(
            "(accesses, L1, L2) diverge from the reference: {fast:?} vs {naive:?}"
        ));
    }
    sharded_cache_differential(program, &machine)
}

/// The sharded driver under the canonical plan — one simulation per
/// translation class, on two workers — against the un-deduplicated shard
/// oracle of the same plan, every shard on its own naive LRU. Runs only on
/// programs the monolithic simulations accepted, so any error here is a
/// divergence.
fn sharded_cache_differential(
    program: &Program,
    machine: &MachineConfig,
) -> std::result::Result<(), String> {
    let sharded = || -> machine::Result<_> {
        let compiled = CompiledProgram::lower(program)?;
        let plan = ShardPlan::for_program(&compiled)?;
        Ok((
            simulate_cache_sharded_with_plan(&compiled, &plan, machine, 2)?,
            simulate_cache_sharded_reference(&compiled, &plan, machine)?,
        ))
    };
    let (fast, oracle) =
        sharded().map_err(|e| format!("sharded simulation fails where monolithic ran: {e}"))?;
    let counters = |s: &machine::ShardedCacheStats| (s.accesses(), s.l1(), s.l2(), s.shards());
    if counters(&fast) != counters(&oracle) {
        return Err(format!(
            "sharded counters ({} classes) diverge from the reference shards: {:?} vs {:?}",
            fast.classes(),
            counters(&fast),
            counters(&oracle)
        ));
    }
    Ok(())
}

fn dependence_oracle(program: &Program) -> std::result::Result<(), String> {
    let production = dependence::analyze(program);
    let reference = dependence::reference::analyze(program);
    let (fast, naive) = (production.all(), reference.all());
    if let Some(at) = (0..fast.len().max(naive.len())).find(|&k| fast.get(k) != naive.get(k)) {
        let show =
            |d: Option<&dependence::Dependence>| d.map_or("nothing".into(), |d| d.to_string());
        return Err(format!(
            "edge {at} of {} (reference: {}): {} vs reference {}",
            fast.len(),
            naive.len(),
            show(fast.get(at)),
            show(naive.get(at)),
        ));
    }
    Ok(())
}

fn normalize_oracle(program: &Program) -> std::result::Result<(), String> {
    let normalized = Normalizer::new()
        .run(program)
        .map_err(|e| format!("normalization fails: {e}"))?;
    normalized
        .program
        .validate()
        .map_err(|e| format!("normalized program is invalid: {e}"))?;
    let twice = Normalizer::new()
        .run(&normalized.program)
        .map_err(|e| format!("re-normalization fails: {e}"))?;
    if twice.program != normalized.program {
        return Err("normalization is not idempotent".to_string());
    }
    // The normalized program must still agree with its own references.
    exec_differential(&normalized.program, "normalized program: ")?;
    // And preserve the original semantics to fp-reordering tolerance.
    semantics_match(program, &normalized.program, "normalization")
}

/// Runs both programs on seeded storage and compares every array of the
/// original to fp-reordering tolerance; faults must agree in kind.
fn semantics_match(
    original: &Program,
    derived: &Program,
    what: &str,
) -> std::result::Result<(), String> {
    let mut before = ProgramData::seeded(original).map_err(|e| e.to_string())?;
    let before_result = execute(original, &mut before);
    let mut after = ProgramData::seeded(derived).map_err(|e| e.to_string())?;
    let after_result = execute(derived, &mut after);
    match (before_result, after_result) {
        (Ok(_), Ok(_)) => {
            for name in original.arrays.keys() {
                let Some(diff) = before.max_abs_diff(&after, name.as_str()) else {
                    return Err(format!("{what} dropped or reshaped array {name}"));
                };
                // `>=` plus the NaN check keeps the semantics of
                // `!(diff < 1e-9)`: a NaN difference is a failure.
                if diff >= 1e-9 || diff.is_nan() {
                    return Err(format!(
                        "{what} changes results: array {name} differs by {diff:e}"
                    ));
                }
            }
            Ok(())
        }
        (Err(a), Err(b)) if std::mem::discriminant(&a) == std::mem::discriminant(&b) => Ok(()),
        (a, b) => Err(format!(
            "{what} changes the execution outcome: original {:?}, derived {:?}",
            a.err().map(|e| e.to_string()),
            b.err().map(|e| e.to_string())
        )),
    }
}

/// Headless scheduling config: transfer tuning enabled (the database is
/// seeded per case, see [`schedule_oracle`]), on the tiny machine so
/// cost-model cache simulations stay cheap.
fn daisy_config() -> DaisyConfig {
    DaisyConfig {
        normalize: true,
        idiom_detection: true,
        threads: 4,
        machine: MachineConfig::tiny_for_tests(),
        neighbors: 3,
        parallelism: 1,
        simulation_parallelism: 1,
    }
}

/// Sibling programs the schedule oracle's database is seeded from before
/// the case itself.
const SIBLINGS: u64 = 3;

/// A scheduler whose in-memory database is seeded from a few generated
/// siblings of the case. An oracle sees only the program — a corpus replay
/// or a shrunk candidate has no generator seed — so the siblings' seeds
/// derive from its structural hash: deterministic per program, different
/// across cases.
fn sibling_seeded_scheduler(program: &Program) -> DaisyScheduler {
    let seed = program.structural_hash();
    let siblings: Vec<Program> = (1..=SIBLINGS)
        .map(|k| generate(seed.wrapping_add(k), &GenConfig::default()))
        .collect();
    let mut scheduler = DaisyScheduler::new(daisy_config());
    scheduler.seed_from_programs(&siblings);
    scheduler
}

/// A scheduled program must validate and compute what the original does.
fn check_scheduled(
    program: &Program,
    outcome: &daisy::ScheduleOutcome,
    what: &str,
) -> std::result::Result<(), String> {
    outcome
        .program
        .validate()
        .map_err(|e| format!("{what} produces an invalid program: {e}"))?;
    semantics_match(program, &outcome.program, what)
}

fn schedule_oracle(program: &Program) -> std::result::Result<(), String> {
    // Transferred: against the siblings alone every recipe that wins was
    // tuned on *another* nest and retargeted by the k-NN scan.
    let mut sequential = sibling_seeded_scheduler(program);
    let transferred = sequential.schedule(program);
    check_scheduled(program, &transferred, "transfer-tuned scheduling")?;
    // Searched: with the case's own nests seeded too, every nest has an
    // exact-match entry holding the recipe the evolutionary search found
    // for it — which then wins or ties.
    sequential.seed_from_programs(std::slice::from_ref(program));
    // Parallelism must never change the outcome (the documented contract of
    // DaisyConfig::parallelism).
    let mut parallel = sequential.clone();
    parallel.set_parallelism(4);
    let cold = sequential.schedule(program);
    let wide = parallel.schedule(program);
    if cold != wide {
        return Err("ScheduleOutcome diverges between scheduler parallelism 1 and 4".to_string());
    }
    check_scheduled(program, &cold, "scheduling")?;
    // Cold-vs-warm: persisting the seeded database and warm starting a
    // fresh scheduler from it must reproduce the outcome bit-identically.
    // The sequence number keeps concurrent checks of one program (parallel
    // tests replaying the same seed) out of each other's directory.
    static SEQUENCE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "daisyfuzz-store-{}-{:016x}-{}",
        std::process::id(),
        program.structural_hash(),
        SEQUENCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("store dir: {e}"))?;
    let path = dir.join("case.tunedb");
    let result = (|| {
        sequential
            .persist(&path)
            .map_err(|e| format!("persist: {e}"))?;
        let mut warmed = DaisyScheduler::new(daisy_config());
        warmed
            .warm_start(&path)
            .map_err(|e| format!("warm start: {e}"))?;
        let warm = warmed.schedule(program);
        if warm != cold {
            return Err(
                "ScheduleOutcome diverges between cold and warm-started schedulers".to_string(),
            );
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_pass_every_oracle() {
        let config = GenConfig::default();
        for seed in 0..40 {
            let p = generate(seed, &config);
            let verdict = check_all(&p, seed % 8 == 0);
            assert!(verdict.is_pass(), "seed {seed} fails: {verdict:?}\n{p}");
        }
    }

    #[test]
    fn the_schedule_oracle_schedules_through_transfer_tuning() {
        // Both databases under the oracle must lead somewhere: siblings'
        // recipes that win on the case's nests, and exact hits once the
        // case's own nests are seeded.
        let config = GenConfig::default();
        let (mut transferred, mut exact) = (0, 0);
        for seed in 0..16 {
            let p = generate(seed, &config);
            let applied = |scheduler: &DaisyScheduler, what: &str| {
                let outcome = scheduler.schedule(&p);
                outcome
                    .decisions
                    .iter()
                    .filter(|d| d.contains(what))
                    .count()
            };
            let mut scheduler = sibling_seeded_scheduler(&p);
            transferred += applied(&scheduler, "applied recipe from");
            scheduler.seed_from_programs(std::slice::from_ref(&p));
            exact += applied(&scheduler, "[exact]");
        }
        assert!(transferred > 0, "no sibling recipe ever won");
        assert!(exact > 0, "no exact match ever won");
    }

    #[test]
    fn a_broken_program_is_reported_not_propagated() {
        // An out-of-bounds program: both engines fault with the same error
        // kind, which counts as agreement — and never as an escape.
        let p = loop_ir::parser::parse_program(
            "program oob { param N = 4; array A[N]; for i in 0..N { A[i + 3] = 1.0; } }",
        )
        .unwrap();
        assert!(check_all(&p, true).is_pass());
    }

    #[test]
    fn contain_reports_panics_as_verdicts() {
        let verdict = contain("exec", || panic!("boom {}", 7));
        assert_eq!(
            verdict,
            Verdict::Panic {
                oracle: "exec",
                message: "boom 7".to_string()
            }
        );
    }
}

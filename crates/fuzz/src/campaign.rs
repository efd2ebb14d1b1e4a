//! The differential campaign: generate, check, contain, shrink, report.
//!
//! A campaign derives one independent sub-seed per case from the campaign
//! seed (SplitMix64 over the case index), generates a program, runs the
//! oracle battery with panic containment, and on any failure shrinks the
//! program before recording it. The default panic hook is silenced for the
//! duration of the campaign so contained panics do not spray backtraces;
//! the panic *payload* still reaches the report through `catch_unwind`.
//!
//! For mutation-testing the farm itself (the acceptance criterion that an
//! injected mismatch is caught, shrunk and reported), [`CampaignConfig::inject`]
//! deliberately corrupts one comparison: the campaign re-checks each case
//! with a fault injected into the named oracle's fast-path result, which
//! must surface as a mismatch through exactly the same catch → shrink →
//! report path a real bug would take.

use std::time::Instant;

use loop_ir::prelude::*;
use telemetry::json::json_string;

use crate::gen::{generate, GenConfig};
use crate::oracle::{check_all, check_one, Verdict};
use crate::shrink::{same_failure, shrink};

/// A deliberately injected fault, for testing the farm end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Pretend the exec fast path corrupted one element.
    ExecMismatch,
    /// Pretend an engine panicked on programs with a reduction statement.
    Panic,
}

impl Inject {
    /// Parses the `--inject` CLI value.
    pub fn parse(s: &str) -> Option<Inject> {
        match s {
            "exec" => Some(Inject::ExecMismatch),
            "panic" => Some(Inject::Panic),
            _ => None,
        }
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign seed; case `i` uses sub-seed `case_seed(seed, i)`.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub budget: u64,
    /// Generator envelope.
    pub gen: GenConfig,
    /// Run the schedule oracle on every `schedule_every`-th case (0 =
    /// never); every other oracle runs on every case.
    pub schedule_every: u64,
    /// Maximum accepted shrink reductions per failure.
    pub shrink_steps: usize,
    /// Stop after this many failures (0 = collect all).
    pub max_failures: usize,
    /// Deliberate fault injection for farm self-tests.
    pub inject: Option<Inject>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xDA15,
            budget: 1000,
            gen: GenConfig::default(),
            schedule_every: 16,
            shrink_steps: 400,
            max_failures: 10,
            inject: None,
        }
    }
}

/// One recorded failure, fully replayable.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Case index within the campaign.
    pub index: u64,
    /// The derived per-case seed (`daisyfuzz replay --seed <this>`).
    pub case_seed: u64,
    /// Which oracle failed.
    pub oracle: String,
    /// `true` when the failure was a contained panic.
    pub panicked: bool,
    /// Divergence description or panic message.
    pub detail: String,
    /// The original program, in frontend syntax.
    pub original: String,
    /// The shrunk program, in frontend syntax.
    pub shrunk: String,
    /// Accepted shrink reductions.
    pub shrink_steps: usize,
}

/// Campaign result summary.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign seed.
    pub seed: u64,
    /// Cases requested.
    pub budget: u64,
    /// Cases actually run (== budget unless stopped early by max_failures).
    pub cases: u64,
    /// Contained panics (each also appears in `failures`).
    pub panics_contained: u64,
    /// All recorded failures, shrunk.
    pub failures: Vec<Failure>,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
}

impl CampaignReport {
    /// `true` when every case passed every oracle.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the report as JSON (hand-rolled; the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        json.push_str("  \"generated_by\": \"daisyfuzz run\",\n");
        json.push_str(&format!("  \"seed\": {},\n", self.seed));
        json.push_str(&format!("  \"budget\": {},\n", self.budget));
        json.push_str(&format!("  \"cases\": {},\n", self.cases));
        json.push_str(&format!(
            "  \"panics_contained\": {},\n",
            self.panics_contained
        ));
        json.push_str(&format!("  \"elapsed_secs\": {:.3},\n", self.elapsed_secs));
        json.push_str(&format!("  \"clean\": {},\n", self.clean()));
        json.push_str("  \"failures\": [\n");
        for (i, f) in self.failures.iter().enumerate() {
            json.push_str("    {\n");
            json.push_str(&format!("      \"index\": {},\n", f.index));
            json.push_str(&format!("      \"case_seed\": {},\n", f.case_seed));
            json.push_str(&format!("      \"oracle\": {},\n", json_string(&f.oracle)));
            json.push_str(&format!("      \"panicked\": {},\n", f.panicked));
            json.push_str(&format!("      \"detail\": {},\n", json_string(&f.detail)));
            json.push_str(&format!("      \"shrink_steps\": {},\n", f.shrink_steps));
            json.push_str(&format!(
                "      \"original\": {},\n",
                json_string(&f.original)
            ));
            json.push_str(&format!("      \"shrunk\": {}\n", json_string(&f.shrunk)));
            json.push_str(if i + 1 == self.failures.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        json.push_str("  ]\n}\n");
        json
    }
}

/// SplitMix64: derives the independent per-case seed from the campaign
/// seed and case index (the same mix the rand shim uses for seeding).
pub fn case_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut z = campaign_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Silences the default panic hook while `f` runs, so contained panics do
/// not print backtraces mid-campaign. Restores the previous hook after.
fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(previous);
    result
}

/// Checks one program, applying any configured fault injection.
fn check_case(program: &Program, config: &CampaignConfig, index: u64) -> Verdict {
    let schedule = config.schedule_every != 0 && index.is_multiple_of(config.schedule_every);
    let genuine = check_all(program, schedule);
    if !genuine.is_pass() {
        return genuine;
    }
    match config.inject {
        None => genuine,
        Some(Inject::ExecMismatch) => {
            // Simulate a broken exec fast path: the compiled engine "wrote"
            // a corrupted value whenever the program has at least one
            // computation inside a loop (so shrinking has real work to do).
            let dynamic = program
                .computations()
                .iter()
                .any(|c| !c.target.indices.is_empty());
            if dynamic {
                Verdict::Mismatch {
                    oracle: "exec",
                    detail: "injected fault: compiled engine corrupted one element".to_string(),
                }
            } else {
                genuine
            }
        }
        Some(Inject::Panic) => {
            if program.computations().iter().any(|c| c.reduction.is_some()) {
                Verdict::Panic {
                    oracle: "exec",
                    message: "injected fault: engine panicked on a reduction".to_string(),
                }
            } else {
                genuine
            }
        }
    }
}

/// Runs a full campaign.
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let start = Instant::now();
    let mut failures = Vec::new();
    let mut panics_contained = 0u64;
    let mut cases = 0u64;

    with_quiet_panics(|| {
        let _campaign = telemetry::span("fuzz");
        for index in 0..config.budget {
            let _case = telemetry::span("case");
            telemetry::counter("fuzz.cases", 1);
            cases = index + 1;
            let seed = case_seed(config.seed, index);
            let program = generate(seed, &config.gen);
            let verdict = check_case(&program, config, index);
            if verdict.is_pass() {
                continue;
            }
            if matches!(verdict, Verdict::Panic { .. }) {
                panics_contained += 1;
                telemetry::counter("fuzz.panics_contained", 1);
            }
            telemetry::counter("fuzz.failures", 1);
            failures.push(shrink_failure(&program, verdict, config, index, seed));
            if config.max_failures != 0 && failures.len() >= config.max_failures {
                break;
            }
        }
    });

    CampaignReport {
        seed: config.seed,
        budget: config.budget,
        cases,
        panics_contained,
        failures,
        elapsed_secs: start.elapsed().as_secs_f64(),
    }
}

/// Replays one case seed exactly as the campaign would run it (including
/// any injection), returning the program and its verdict.
pub fn replay_seed(seed: u64, config: &CampaignConfig) -> (Program, Verdict) {
    let program = generate(seed, &config.gen);
    let verdict = with_quiet_panics(|| {
        // Replay runs every oracle including schedule (index 0 hits the
        // sampled oracle too).
        let mut c = config.clone();
        c.schedule_every = 1;
        check_case(&program, &c, 0)
    });
    (program, verdict)
}

/// Checks a parsed program (a corpus case or a shrunk reproduction) with
/// the full battery, panics silenced.
pub fn check_program(program: &Program) -> Verdict {
    with_quiet_panics(|| check_all(program, true))
}

fn shrink_failure(
    program: &Program,
    verdict: Verdict,
    config: &CampaignConfig,
    index: u64,
    seed: u64,
) -> Failure {
    // Re-checking a candidate must reproduce the same failure key. For
    // injected faults the re-check applies the same injection, so the
    // shrinker sees the synthetic bug exactly like a real one.
    let (oracle, panicked, detail) = match &verdict {
        Verdict::Mismatch { oracle, detail } => (*oracle, false, detail.clone()),
        Verdict::Panic { oracle, message } => (*oracle, true, message.clone()),
        Verdict::Pass => unreachable!("only failures are shrunk"),
    };
    let re_check = |candidate: &Program| -> Verdict {
        if config.inject.is_some() {
            check_case(candidate, config, index)
        } else {
            check_one(candidate, oracle)
        }
    };
    let shrunk = {
        let _span = telemetry::span("shrink");
        shrink(
            program,
            same_failure(&verdict, re_check),
            config.shrink_steps,
        )
    };
    telemetry::counter("fuzz.shrink.steps", shrunk.steps as u64);
    Failure {
        index,
        case_seed: seed,
        oracle: oracle.to_string(),
        panicked,
        detail,
        original: program.to_string(),
        shrunk: shrunk.program.to_string(),
        shrink_steps: shrunk.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CampaignConfig {
        CampaignConfig {
            budget: 120,
            schedule_every: 40,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn a_clean_campaign_records_nothing() {
        let report = run_campaign(&small_config());
        assert!(report.clean(), "failures: {:#?}", report.failures);
        assert_eq!(report.cases, 120);
        assert_eq!(report.panics_contained, 0);
    }

    #[test]
    fn case_seeds_are_independent_of_each_other() {
        let a = case_seed(1, 0);
        let b = case_seed(1, 1);
        let c = case_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, case_seed(1, 0));
    }

    #[test]
    fn injected_mismatches_are_caught_and_shrunk() {
        let mut config = small_config();
        config.inject = Some(Inject::ExecMismatch);
        config.max_failures = 3;
        let report = run_campaign(&config);
        assert!(!report.clean(), "the injected fault must be caught");
        for f in &report.failures {
            assert_eq!(f.oracle, "exec");
            assert!(f.detail.contains("injected fault"));
            assert!(
                f.shrunk.len() <= f.original.len(),
                "shrinking must never grow the program"
            );
            // The shrunk program must still reproduce the injected failure.
            let p = loop_ir::parser::parse_program(&f.shrunk).expect("shrunk program parses");
            let v = check_case(&p, &config, f.index);
            assert_eq!(v.failure_key(), Some(("exec", false)));
        }
    }

    #[test]
    fn injected_panics_are_contained_not_fatal() {
        let mut config = small_config();
        config.inject = Some(Inject::Panic);
        config.max_failures = 2;
        let report = run_campaign(&config);
        assert!(report.panics_contained > 0, "no reduction case in budget");
        assert!(report
            .failures
            .iter()
            .all(|f| !f.panicked || f.detail.contains("injected fault")));
    }

    #[test]
    fn reports_render_valid_json_strings() {
        let mut config = small_config();
        config.inject = Some(Inject::ExecMismatch);
        config.max_failures = 1;
        let report = run_campaign(&config);
        let json = report.to_json();
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"oracle\": \"exec\""));
        // Newlines inside program sources must be escaped.
        assert!(json.contains("\\n"));
    }
}

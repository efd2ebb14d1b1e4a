//! `fuzz_frontend`: front-door-bound, thousands of tiny programs.
//!
//! The inputs are the source texts of 2000 generated programs
//! (`fuzz::gen::generate(seed + i)` rendered with `to_source`). One pass
//! takes each text through the whole front door: `parse_program` ->
//! `Normalizer::run` -> `dependence::analyze` -> `schedule` (against a
//! database seeded in set-up from 64 sibling programs) -> lower + execute,
//! and compares the result with the reference interpreter on the parsed
//! original. Per-program fixed costs (parse, lowering, memo construction,
//! k-NN over a database 12x PolyBench's) dominate: a change that buys
//! big-program speed with per-program set-up cost loses here.

use daisy::{DaisyScheduler, ScheduleOutcome};
use fuzz::gen::{generate, GenConfig};
use loop_ir::parser::parse_program;
use loop_ir::program::Program;
use loop_ir::source::to_source;
use machine::interp::{reference, ProgramData};
use machine::CompiledProgram;
use normalize::Normalizer;
use telemetry::Profile;

use super::{
    corrupt, modelled_speedup_geomean, probe_analyses, probe_database, report_scheduling_layers,
    scheduler_config, within_tolerance, Workload,
};
use crate::clock::Stopwatch;
use crate::run::{layer, share, timed_layer, Run, Spans};

const PROGRAMS: u64 = 2000;
const SMOKE_PROGRAMS: u64 = 200;
/// Sibling programs (seeds after the inputs') the database is seeded from.
const SIBLINGS: u64 = 64;

struct FuzzFrontend {
    sources: Vec<String>,
    scheduler: DaisyScheduler,
    /// The first pass's outcomes: every later pass must reproduce them.
    first: Vec<ScheduleOutcome>,
    statements: u64,
}

/// What the front door produced for one source text.
struct Product {
    original: Program,
    outcome: ScheduleOutcome,
    data: ProgramData,
    statements: u64,
}

impl FuzzFrontend {
    fn front_door(&self, source: &str) -> Result<(Product, f64), String> {
        let original = layer("bench.loop_ir.parse_program", || parse_program(source))
            .map_err(|e| format!("parse: {e}"))?;
        let normalized = layer("bench.normalize.run", || Normalizer::new().run(&original))
            .map_err(|e| format!("normalize: {e}"))?;
        let graph = layer("bench.dependence.analyze", || {
            dependence::analyze(&original)
        });
        std::hint::black_box((normalized, graph));
        let (outcome, schedule_seconds) = timed_layer("bench.daisy.scheduler.schedule", || {
            self.scheduler.schedule(&original)
        });
        let compiled = layer("bench.machine.exec.lower", || {
            CompiledProgram::lower(&outcome.program)
        })
        .map_err(|e| format!("lower: {e}"))?;
        let mut data = ProgramData::seeded(&outcome.program).map_err(|e| format!("data: {e}"))?;
        let statements = layer("bench.machine.exec.execute", || compiled.execute(&mut data))
            .map_err(|e| format!("execute: {e}"))?;
        Ok((
            Product {
                original,
                outcome,
                data,
                statements,
            },
            schedule_seconds,
        ))
    }
}

impl<'a> Workload<'a> for FuzzFrontend {
    fn pass(&mut self, run: &mut Run<'a>) {
        let watch = Stopwatch::start();
        let products: Vec<_> = self.sources.iter().map(|s| self.front_door(s)).collect();
        run.pass(&watch);

        let mut outcomes = Vec::with_capacity(products.len());
        self.statements = 0;
        for (index, product) in products.into_iter().enumerate() {
            let verdict = product.and_then(|(product, schedule_seconds)| {
                run.ops([schedule_seconds]);
                self.statements += product.statements;
                let mut expected = reference::run_seeded(&product.original)
                    .map_err(|e| format!("reference: {e}"))?;
                if run.cfg.corrupt_expected {
                    corrupt(&mut expected, &product.original);
                }
                within_tolerance(&product.original, &expected, &product.data)?;
                Ok(product.outcome)
            });
            run.check(verdict.is_ok(), || {
                format!("program {index}: {:?}", verdict.as_ref().err())
            });
            outcomes.extend(verdict);
        }
        if self.first.is_empty() {
            self.first = outcomes;
        } else {
            run.check(outcomes == self.first, || {
                "ScheduleOutcomes differ between passes".to_string()
            });
        }
    }

    fn layers(&mut self, run: &mut Run<'a>, profile: &dyn Fn() -> Profile) {
        let programs: Vec<Program> = self
            .sources
            .iter()
            .filter_map(|s| parse_program(s).ok())
            .collect();
        for program in &programs {
            std::hint::black_box(layer("bench.loop_ir.to_source", || to_source(program)).ok());
        }
        probe_analyses(run, programs.iter());

        run.layer(
            "daisy.quality.modelled_speedup_geomean",
            modelled_speedup_geomean(&programs, &self.first),
        );

        let nearest_us = probe_database(run, &self.scheduler, programs.iter(), profile);
        run.layer("daisy.database.nearest_us_450", nearest_us);

        let spans = Spans(profile());
        report_scheduling_layers(run, &spans, &self.first);
        let bytes: usize = self.sources.iter().map(String::len).sum();
        run.layer(
            "loop_ir.parse_mb_per_s",
            share(
                // The traced pass parsed every source exactly once.
                bytes as f64 / 1e6,
                spans.seconds("bench.loop_ir.parse_program"),
            ),
        );
        run.layer(
            "loop_ir.to_source_ms",
            spans.mean_seconds("bench.loop_ir.to_source") * 1e3,
        );
        run.layer(
            "machine.exec.execute_mstmt_per_s",
            share(
                self.statements as f64 / 1e6,
                spans.seconds("bench.machine.exec.execute"),
            ),
        );
    }
}

pub fn run(run: &mut Run<'_>) {
    let cfg = run.cfg;
    let count = if cfg.smoke { SMOKE_PROGRAMS } else { PROGRAMS };
    let gen = GenConfig::default();
    let mut workload = run.setup(|_| {
        let sources = (0..count)
            .map(|i| {
                to_source(&generate(cfg.seed + i, &gen))
                    .unwrap_or_else(|e| panic!("generated program {i} has no source form: {e}"))
            })
            .collect();
        let siblings: Vec<Program> = (count..count + SIBLINGS)
            .map(|i| generate(cfg.seed + i, &gen))
            .collect();
        let mut scheduler = DaisyScheduler::new(scheduler_config(cfg));
        scheduler.seed_from_programs(&siblings);
        let workload = FuzzFrontend {
            sources,
            scheduler,
            first: Vec::new(),
            statements: 0,
        };
        // Warm-up: the front door on a tenth of the inputs.
        for source in workload.sources.iter().step_by(10) {
            std::hint::black_box(workload.front_door(source).is_ok());
        }
        workload
    });
    run.drive(&mut workload);
}

//! `polybench_schedule`: scheduler-bound, zero simulated accesses.
//!
//! One pass makes a fresh `DaisyScheduler`, seeds it cold from the 15 A
//! variants and schedules 105 inputs: per benchmark the A, B and Py variants
//! plus four `random_b_variant(a, seed + k)`. `normalize`, `dependence`,
//! `transforms`, `daisy.search`, `daisy.scheduler` and `machine.cost` do all
//! the work; a faster cache simulator must show no change here.

use std::time::Instant;

use daisy::{DaisyScheduler, EvolutionarySearch, ScheduleOutcome, SearchConfig};
use loop_ir::nest::Node;
use loop_ir::program::Program;
use normalize::Normalizer;
use polybench::{all_benchmarks, random_b_variant, Dataset};
use telemetry::Profile;

use super::{
    modelled_speedup_geomean, outputs_match, probe_analyses, probe_database,
    report_scheduling_layers, scheduler_config, Workload,
};
use crate::clock::Stopwatch;
use crate::run::{layer, share, timed_layer, untraced, Run, Spans};
use crate::stats::median;

/// Random B variants per benchmark, seeded `seed + k`.
const RANDOM_VARIANTS: u64 = 4;

struct Input {
    /// Index of the benchmark's A variant in `Inputs::programs`.
    a_variant: usize,
    label: String,
}

struct Inputs {
    a_variants: Vec<Program>,
    /// Parallel to `programs`.
    meta: Vec<Input>,
    programs: Vec<Program>,
}

fn build_inputs(dataset: Dataset, seed: u64) -> Inputs {
    let mut inputs = Inputs {
        a_variants: Vec::new(),
        meta: Vec::new(),
        programs: Vec::new(),
    };
    for bench in all_benchmarks() {
        let a = (bench.a)(dataset);
        let a_variant = inputs.programs.len();
        let mut family = vec![
            ("a".to_string(), a.clone()),
            ("b".to_string(), (bench.b)(dataset)),
            ("py".to_string(), (bench.py)(dataset).0),
        ];
        for k in 0..RANDOM_VARIANTS {
            family.push((format!("rand{k}"), random_b_variant(&a, seed + k)));
        }
        for (variant, program) in family {
            inputs.meta.push(Input {
                a_variant,
                label: format!("{}/{variant}", bench.name),
            });
            inputs.programs.push(program);
        }
        inputs.a_variants.push(a);
    }
    inputs
}

struct PolybenchSchedule {
    inputs: Inputs,
    /// The first pass's outcomes: every later pass must reproduce them.
    first: Vec<ScheduleOutcome>,
    /// The scheduler of the latest pass, seeded; the probes reuse it.
    scheduler: DaisyScheduler,
}

impl PolybenchSchedule {
    fn seeded_scheduler(&self, run: &Run<'_>) -> DaisyScheduler {
        let mut scheduler = DaisyScheduler::new(scheduler_config(run.cfg));
        layer("bench.daisy.scheduler.seed_from_programs", || {
            scheduler.seed_from_programs(&self.inputs.a_variants)
        });
        scheduler
    }

    /// Schedules every input; returns the outcomes and each call's seconds.
    fn schedule_all(&self, scheduler: &DaisyScheduler) -> (Vec<ScheduleOutcome>, Vec<f64>) {
        self.inputs
            .programs
            .iter()
            .map(|program| {
                timed_layer("bench.daisy.scheduler.schedule", || {
                    scheduler.schedule(program)
                })
            })
            .unzip()
    }
}

impl<'a> Workload<'a> for PolybenchSchedule {
    fn pass(&mut self, run: &mut Run<'a>) {
        let watch = Stopwatch::start();
        let scheduler = self.seeded_scheduler(run);
        let (outcomes, seconds) = self.schedule_all(&scheduler);
        run.pass(&watch);
        run.ops(seconds);

        self.scheduler = scheduler;
        if self.first.is_empty() {
            self.first = outcomes;
            return;
        }
        for ((outcome, first), input) in outcomes.iter().zip(&self.first).zip(&self.inputs.meta) {
            run.check(outcome == first, || {
                format!("{}: ScheduleOutcome differs between passes", input.label)
            });
        }
    }

    fn layers(&mut self, run: &mut Run<'a>, profile: &dyn Fn() -> Profile) {
        let inputs = &self.inputs;
        let dataset = dataset(run);

        // The paper's two claims under this repo's model, both exact.
        run.layer(
            "daisy.quality.modelled_speedup_geomean",
            modelled_speedup_geomean(&inputs.programs, &self.first),
        );
        let variants: Vec<bool> = inputs
            .meta
            .iter()
            .enumerate()
            .filter(|&(index, input)| index != input.a_variant)
            .map(|(index, input)| {
                let own = self.first[index].report.seconds;
                let a = self.first[input.a_variant].report.seconds;
                (own - a).abs() <= 0.01 * a
            })
            .collect();
        run.layer(
            "daisy.quality.ab_aligned_share",
            share(
                variants.iter().filter(|&&aligned| aligned).count() as f64,
                variants.len() as f64,
            ),
        );

        let built = layer("bench.polybench.build", || {
            all_benchmarks()
                .iter()
                .map(|b| ((b.a)(dataset), (b.b)(dataset), (b.py)(dataset)))
                .collect::<Vec<_>>()
        });
        let machine = scheduler_config(run.cfg).machine;
        for (a, _, (py, ops)) in &built {
            let _span = telemetry::span("bench.baselines.model");
            std::hint::black_box((
                baselines::clang_schedule(a),
                baselines::icc_schedule(a),
                baselines::polly_schedule(a),
                baselines::tiramisu_schedule(a, bench::THREADS).is_ok(),
                baselines::python_framework_times(py, ops, &machine, bench::THREADS),
            ));
        }

        probe_analyses(run, inputs.programs.iter());

        for program in &inputs.programs {
            let model = bench::paper_machine_model(bench::THREADS);
            layer("bench.machine.cost.estimate_cold", || {
                model.estimate(program)
            });
            layer("bench.machine.cost.estimate_memo", || {
                model.estimate(program)
            });
        }

        // Every database recipe on every nest the database was seeded from.
        let normalized: Vec<Program> = inputs
            .a_variants
            .iter()
            .filter_map(|a| Normalizer::new().run(a).ok())
            .map(|n| n.program)
            .collect();
        let (mut applied, mut applied_ok) = (0u64, 0u64);
        for nest in normalized.iter().flat_map(|p| &p.body) {
            let Node::Loop(nest) = nest else { continue };
            for entry in self.scheduler.database().entries() {
                applied += 1;
                let result = layer("bench.transforms.apply_to_nest", || {
                    entry.recipe.apply_to_nest(nest)
                });
                applied_ok += u64::from(result.is_ok());
            }
        }
        run.layer(
            "transforms.apply_ok_share",
            share(applied_ok as f64, applied as f64),
        );

        // The evolutionary search alone, one call per seeding nest; its
        // counters are the difference across the probe.
        let before = Spans(profile());
        let search = EvolutionarySearch::new(SearchConfig::default()).with_parallel(false);
        let model = bench::paper_machine_model(bench::THREADS);
        for program in &normalized {
            for index in 0..program.body.len() {
                if matches!(program.body[index], Node::Loop(_)) {
                    layer("bench.daisy.search.search", || {
                        search.search(program, index, &model, &[])
                    });
                }
            }
        }
        let after = Spans(profile());
        let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
        let candidates = delta("daisy.search.candidates");
        let deduped = delta("daisy.search.deduped_recipes");
        run.layer(
            "daisy.search.candidates_per_s",
            share(candidates, after.seconds("bench.daisy.search.search")),
        );
        run.layer("daisy.search.dedup_share", share(deduped, candidates));
        run.layer(
            "daisy.search.rejected_precost_share",
            share(delta("daisy.search.rejected_precost"), candidates - deduped),
        );

        let nearest_us = probe_database(run, &self.scheduler, inputs.programs.iter(), profile);
        run.layer("daisy.database.nearest_us_38", nearest_us);

        // The PR 4 gate: the same schedule loop on 1 and on W worker threads,
        // alternating, medians of three.
        let mut scheduler = self.scheduler.clone();
        let mut loop_seconds = |parallelism: usize| {
            scheduler.set_parallelism(parallelism);
            let start = Instant::now();
            inputs.programs.iter().for_each(|p| {
                std::hint::black_box(scheduler.schedule(p));
            });
            start.elapsed().as_secs_f64()
        };
        let (sequential, parallel): (Vec<f64>, Vec<f64>) = untraced(|| {
            (0..3)
                .map(|_| (loop_seconds(1), loop_seconds(run.cfg.workers)))
                .unzip()
        });
        run.layer(
            "daisy.scheduler.parallel_speedup",
            share(median(&sequential), median(&parallel)),
        );

        self.probe_store(run);

        let spans = Spans(profile());
        report_scheduling_layers(run, &spans, &self.first);
        let ms = |path: &str| spans.mean_seconds(path) * 1e3;
        run.layer("polybench.build_ms", ms("bench.polybench.build"));
        run.layer("baselines.model_ms", ms("bench.baselines.model"));
        run.layer(
            "daisy.scheduler.seed_ms",
            ms("bench.daisy.scheduler.seed_from_programs"),
        );
        run.layer(
            "machine.cost.estimate_us_cold",
            ms("bench.machine.cost.estimate_cold") * 1e3,
        );
        run.layer(
            "machine.cost.estimate_us_memo",
            ms("bench.machine.cost.estimate_memo") * 1e3,
        );
        run.layer(
            "transforms.apply_us",
            ms("bench.transforms.apply_to_nest") * 1e3,
        );
        run.layer("daisy.search.search_ms", ms("bench.daisy.search.search"));
        run.layer("tunestore.persist_ms", ms("bench.tunestore.persist"));
        run.layer("tunestore.warm_start_ms", ms("bench.tunestore.warm_start"));
        run.layer(
            "tunestore.journal_appends_per_s",
            share(
                spans.count("bench.tunestore.insert") as f64,
                spans.seconds("bench.tunestore.insert"),
            ),
        );
    }
}

impl PolybenchSchedule {
    /// The tuning store on the real filesystem: snapshot persist and warm
    /// start, and one durable (fsynced) journal append per database entry.
    fn probe_store(&self, run: &mut Run<'_>) {
        let dir = run
            .cfg
            .out_dir
            .join(format!("store-{}", std::process::id()));
        let result = (|| -> Result<u64, String> {
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let snapshot = dir.join("polybench.tunedb");
            layer("bench.tunestore.persist", || {
                self.scheduler.persist(&snapshot)
            })
            .map_err(|e| format!("persist: {e}"))?;
            let bytes = std::fs::metadata(&snapshot)
                .map_err(|e| e.to_string())?
                .len();
            let mut warmed = DaisyScheduler::new(scheduler_config(run.cfg));
            let loaded = layer("bench.tunestore.warm_start", || {
                warmed.warm_start(&snapshot)
            })
            .map_err(|e| format!("warm start: {e}"))?;
            if loaded != self.scheduler.database().len() {
                return Err(format!("warm start loaded {loaded} entries"));
            }
            let mut store = self
                .scheduler
                .open_store(dir.join("journaled.tunedb"))
                .map_err(|e| format!("open store: {e}"))?;
            for entry in self.scheduler.database().entries() {
                let stored = entry.to_stored();
                layer("bench.tunestore.insert", || store.insert(stored))
                    .map_err(|e| format!("journal append: {e}"))?;
            }
            Ok(bytes)
        })();
        // Best effort: a leftover directory is under the ignored out/.
        let _ = std::fs::remove_dir_all(&dir);
        run.check(result.is_ok(), || format!("tuning store probe: {result:?}"));
        run.layer(
            "tunestore.snapshot_bytes",
            result.unwrap_or_default() as f64,
        );
    }
}

/// Semantic check, once per input at `Dataset::Mini` (the reference
/// interpreter cannot run paper sizes): a scheduler seeded like the measured
/// one schedules the Mini twin of every input, and the scheduled program
/// must compute what the reference computes on the unscheduled input.
fn verify_semantics(run: &mut Run<'_>) {
    let mini = build_inputs(Dataset::Mini, run.cfg.seed);
    let mut scheduler = DaisyScheduler::new(scheduler_config(run.cfg));
    scheduler.seed_from_programs(&mini.a_variants);
    for (program, input) in mini.programs.iter().zip(&mini.meta) {
        let outcome = scheduler.schedule(program);
        let verdict = outputs_match(program, &outcome.program, run.cfg);
        run.check(verdict.is_ok(), || format!("{}: {verdict:?}", input.label));
    }
}

fn dataset(run: &Run<'_>) -> Dataset {
    if run.cfg.smoke {
        Dataset::Mini
    } else {
        Dataset::Large
    }
}

pub fn run(run: &mut Run<'_>) {
    let dataset = dataset(run);
    let seed = run.cfg.seed;
    let mut workload = run.setup(|run| {
        let mut workload = PolybenchSchedule {
            inputs: build_inputs(dataset, seed),
            first: Vec::new(),
            scheduler: DaisyScheduler::default(),
        };
        // Warm-up: one full pass, not recorded.
        workload.scheduler = workload.seeded_scheduler(run);
        std::hint::black_box(workload.schedule_all(&workload.scheduler));
        workload
    });
    verify_semantics(run);
    run.drive(&mut workload);
}

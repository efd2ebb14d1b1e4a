//! `strided_trace`: the exact cache simulator on non-unit strides.
//!
//! One pass runs `simulate_cache_sharded` at `W` workers over five fixed
//! programs (`benchmark/workloads/strided/*.loop`): GEMM in ijk / ikj / jki
//! order, a column-major walk and a 5-tap stencil. Same cache and shard
//! layers as `reproduce_paper`, used differently: non-unit strides,
//! run-group-window sharding instead of block sharding, capacity-bound
//! working sets. A run-compression trick that helps unit stride and costs
//! strided access shows here. The inputs are fixed files, so `--seed` does
//! not change them.

use loop_ir::parser::parse_program;
use loop_ir::program::Program;
use machine::{
    estimate_cache, simulate_cache, simulate_cache_reference, simulate_cache_sharded, AccessSink,
    CompiledProgram, MachineConfig, ShardedCacheStats, StrideRun, TraceEntry,
};
use telemetry::Profile;

use super::Workload;
use crate::clock::Stopwatch;
use crate::run::{layer, share, timed_layer, untraced, Run, Spans};

const SOURCES: [(&str, &str); 5] = [
    (
        "gemm_ijk",
        include_str!("../../workloads/strided/gemm_ijk.loop"),
    ),
    (
        "gemm_ikj",
        include_str!("../../workloads/strided/gemm_ikj.loop"),
    ),
    (
        "gemm_jki",
        include_str!("../../workloads/strided/gemm_jki.loop"),
    ),
    (
        "col_major",
        include_str!("../../workloads/strided/col_major.loop"),
    ),
    (
        "stencil_5tap",
        include_str!("../../workloads/strided/stencil_5tap.loop"),
    ),
];

/// Every size parameter is divided by this for the reference check (the
/// per-access reference simulator cannot run the full sizes) and by its
/// square for a smoke run.
const REDUCTION: i64 = 4;

/// Sink that only counts: the emission ceiling of the trace walker.
#[derive(Default)]
struct CountingSink {
    accesses: u64,
}

impl AccessSink for CountingSink {
    fn access(&mut self, _entry: TraceEntry) {
        self.accesses += 1;
    }

    fn run(&mut self, _start: u64, _stride: i64, count: u64, _is_write: bool) {
        self.accesses += count;
    }

    fn run_group(&mut self, runs: &[StrideRun]) {
        self.accesses += runs.iter().map(|r| r.count).sum::<u64>();
    }
}

fn reduced(program: &Program, divisor: i64) -> Program {
    let params: Vec<(String, i64)> = program
        .params
        .iter()
        .map(|(name, value)| (name.as_str().to_string(), (value / divisor).max(4)))
        .collect();
    let params: Vec<(&str, i64)> = params.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    program
        .with_params(&params)
        .expect("the size parameters of the strided programs can shrink")
}

struct StridedTrace {
    machine: MachineConfig,
    programs: Vec<Program>,
    /// The first pass's counters: every later pass must reproduce them.
    first: Vec<ShardedCacheStats>,
}

impl StridedTrace {
    fn parse(smoke: bool) -> Vec<Program> {
        SOURCES
            .iter()
            .map(|(name, source)| {
                let program = layer("bench.loop_ir.parse_program", || parse_program(source))
                    .unwrap_or_else(|e| panic!("{name}.loop does not parse: {e}"));
                if smoke {
                    reduced(&program, REDUCTION * REDUCTION)
                } else {
                    program
                }
            })
            .collect()
    }

    fn simulate_all(&self, workers: usize, span: &'static str) -> Vec<(ShardedCacheStats, f64)> {
        self.programs
            .iter()
            .map(|program| {
                let (stats, seconds) = timed_layer(span, || {
                    simulate_cache_sharded(program, &self.machine, workers)
                });
                let stats =
                    stats.unwrap_or_else(|e| panic!("{} does not simulate: {e}", program.name));
                (stats, seconds)
            })
            .collect()
    }

    /// Output checks at a reduced size, against code the sharded simulator
    /// shares nothing with: the per-access reference simulator fed by the
    /// symbolic walker. The run-compressed monolithic simulation must
    /// reproduce its counters, the analytic estimate must bracket them, and
    /// sharding must not depend on the worker count.
    fn verify(&self, run: &mut Run<'_>) {
        for program in &self.programs {
            let small = reduced(program, REDUCTION);
            let name = &small.name;
            let reference = simulate_cache_reference(&small, &self.machine)
                .unwrap_or_else(|e| panic!("{name} has no reference simulation: {e}"));
            let (l1, l2) = (reference.l1(), reference.l2());
            let accesses = reference.accesses() + u64::from(run.cfg.corrupt_expected);
            let exact = simulate_cache(&small, &self.machine);
            run.check(
                matches!(&exact, Ok(c) if c.accesses() == accesses && c.l1() == l1 && c.l2() == l2),
                || format!("{name}: simulate_cache differs from the reference simulator"),
            );
            let estimate = estimate_cache(&small, &self.machine);
            run.check(
                matches!(&estimate, Ok(e) if e.accesses == accesses && e.brackets(&l1, &l2)),
                || format!("{name}: estimate_cache does not bracket the exact miss counts"),
            );
            let one = simulate_cache_sharded(&small, &self.machine, 1);
            let many = simulate_cache_sharded(&small, &self.machine, run.cfg.workers);
            run.check(
                matches!((&one, &many), (Ok(a), Ok(b)) if a == b && a.accesses() == accesses),
                || format!("{name}: sharded counters depend on the worker count"),
            );
        }
    }
}

impl<'a> Workload<'a> for StridedTrace {
    fn pass(&mut self, run: &mut Run<'a>) {
        let watch = Stopwatch::start();
        let results = self.simulate_all(
            run.cfg.workers,
            "bench.machine.shard.simulate_cache_sharded",
        );
        run.pass(&watch);

        let (stats, seconds): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        run.ops(seconds);
        if self.first.is_empty() {
            self.first = stats;
            return;
        }
        for ((stats, first), program) in stats.iter().zip(&self.first).zip(&self.programs) {
            run.check(stats == first, || {
                format!("{}: counters differ between passes", program.name)
            });
        }
    }

    fn layers(&mut self, run: &mut Run<'a>, profile: &dyn Fn() -> Profile) {
        // The PR 9 gate at full size: 1 worker against W, with identical
        // counters.
        let span = "bench.machine.shard.simulate_cache_sharded";
        let (single, pooled) = untraced(|| {
            (
                self.simulate_all(1, span),
                self.simulate_all(run.cfg.workers, span),
            )
        });
        for (((stats, _), first), program) in single.iter().zip(&self.first).zip(&self.programs) {
            run.check(stats == first, || {
                format!("{}: counters differ between 1 and W workers", program.name)
            });
        }
        let seconds = |results: &[(ShardedCacheStats, f64)]| results.iter().map(|r| r.1).sum();
        let (single_seconds, pooled_seconds): (f64, f64) = (seconds(&single), seconds(&pooled));

        let (mut accesses, mut probes, mut l1_misses, mut l2_misses) = (0u64, 0u64, 0u64, 0u64);
        let mut bracket = 0u64;
        for program in &self.programs {
            let name = &program.name;
            let compiled = layer("bench.machine.exec.lower", || {
                CompiledProgram::lower(program)
            })
            .unwrap_or_else(|e| panic!("{name} does not lower: {e}"));
            let mut sink = CountingSink::default();
            let streamed = layer("bench.machine.exec.stream", || compiled.stream(&mut sink));
            run.check(matches!(streamed, Ok(n) if n == sink.accesses), || {
                format!("{name}: the stream reports {streamed:?} accesses")
            });

            let cache = layer("bench.machine.cache.simulate_cache", || {
                simulate_cache(program, &self.machine)
            })
            .unwrap_or_else(|e| panic!("{name} does not simulate: {e}"));
            run.check(cache.accesses() == sink.accesses, || {
                format!("{name}: simulated and streamed access counts differ")
            });
            accesses += cache.accesses();
            probes += cache.probes();
            l1_misses += cache.l1().misses;
            l2_misses += cache.l2().misses;

            let estimate = layer("bench.machine.analytic.estimate_cache", || {
                estimate_cache(program, &self.machine)
            });
            run.check(
                matches!(&estimate, Ok(e) if e.brackets(&cache.l1(), &cache.l2())),
                || format!("{name}: estimate_cache does not bracket the exact miss counts"),
            );
            bracket += estimate.map_or(0, |e| e.error_bound);
        }

        let spans = Spans(profile());
        let macc = accesses as f64 / 1e6;
        let rate = |path: &str| share(macc, spans.seconds(path));
        run.layer(
            "loop_ir.parse_mb_per_s",
            share(
                SOURCES.iter().map(|(_, s)| s.len()).sum::<usize>() as f64 / 1e6,
                spans.seconds("bench.loop_ir.parse_program"),
            ),
        );
        run.layer(
            "machine.exec.lower_us",
            spans.mean_seconds("bench.machine.exec.lower") * 1e6,
        );
        run.layer(
            "machine.exec.stream_macc_per_s",
            rate("bench.machine.exec.stream"),
        );
        run.layer(
            "machine.cache.macc_per_s",
            rate("bench.machine.cache.simulate_cache"),
        );
        run.layer("machine.cache.accesses", accesses as f64);
        run.layer(
            "machine.cache.probes_per_access",
            share(probes as f64, accesses as f64),
        );
        run.layer("machine.cache.l1_misses", l1_misses as f64);
        run.layer("machine.cache.l2_misses", l2_misses as f64);
        run.layer("machine.shard.macc_per_s_w1", share(macc, single_seconds));
        run.layer("machine.shard.macc_per_s_wW", share(macc, pooled_seconds));
        run.layer(
            "machine.shard.speedup",
            share(single_seconds, pooled_seconds),
        );
        run.layer(
            "machine.shard.shards",
            self.first.iter().map(|s| s.shards()).sum::<usize>() as f64,
        );
        run.layer(
            "machine.analytic.estimate_ms",
            spans.mean_seconds("bench.machine.analytic.estimate_cache") * 1e3,
        );
        run.layer(
            "machine.analytic.bracket_share",
            share(bracket as f64, accesses as f64),
        );
    }
}

pub fn run(run: &mut Run<'_>) {
    let smoke = run.cfg.smoke;
    let workers = run.cfg.workers;
    let mut workload = run.setup(|_| {
        let workload = StridedTrace {
            machine: MachineConfig::xeon_e5_2680v3(),
            programs: StridedTrace::parse(smoke),
            first: Vec::new(),
        };
        // Warm-up: one full pass, not recorded.
        std::hint::black_box(workload.simulate_all(workers, "bench.warm_up"));
        workload
    });
    workload.verify(run);
    run.drive(&mut workload);
}

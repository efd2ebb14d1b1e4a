//! The figure/table harnesses as library functions, driven by the
//! `reproduce` binary (`reproduce --only <figure>` for a single one).
//!
//! Every function regenerates one figure or table of the paper and returns
//! its [`Table`]s: typed cells plus the note lines under them, each summary
//! note computed from the table's own values. Formatting happens when
//! `reproduce` displays a table, so it decides when and in which order the
//! text reaches stdout. The scheduling figures take a [`ReproContext`],
//! which seeds a transfer-tuning database once per configuration and —
//! when a store directory is given — warm-starts it from a persisted
//! `tunestore` snapshot instead, so a whole reproduction run pays the
//! seeding cost at most once ever per machine. The trace-backed CLOUDSC
//! figures (Fig. 11, Fig. 12) take a [`TraceContext`] instead, which owns
//! nothing a scheduling figure touches.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::iter::once;
use std::path::PathBuf;
use std::time::Instant;

use baselines::{
    clang_schedule, icc_schedule, polly_schedule, python_framework_times, tiramisu_schedule,
};
use daisy::{DaisyConfig, DaisyScheduler};
use loop_ir::parser::parse_program;
use loop_ir::program::Program;
use machine::{effective_workers, simulate_cache_sharded, MachineConfig, ShardedCacheStats};
use normalize::Normalizer;
use polybench::cloudsc::{
    daisy_model, erosion_optimized, erosion_original, erosion_single_level, full_model,
    CloudscSizes, CloudscVariant,
};
use polybench::{all_benchmarks, Dataset};

use crate::{
    daisy_seeded_from_a_variants, geometric_mean, paper_machine_model, Cell, Table, THREADS,
};

/// The scheduler configurations the figure harnesses use. `Full` is the
/// complete daisy pipeline; `NoNormalize` is the "Opt only" ablation arm
/// (Fig. 7) and the "daisy w/o norm" arm (Fig. 9). Each seeds a different
/// database, so each persists to its own store file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Normalization + transfer tuning + idiom detection (the default).
    Full,
    /// Transfer tuning without a priori normalization.
    NoNormalize,
}

impl SchedulerKind {
    /// The daisy configuration of this kind.
    pub fn config(self) -> DaisyConfig {
        match self {
            SchedulerKind::Full => DaisyConfig::default(),
            SchedulerKind::NoNormalize => DaisyConfig {
                normalize: false,
                ..DaisyConfig::default()
            },
        }
    }

    /// Short name used in store file names and log lines.
    pub fn stem(self) -> &'static str {
        match self {
            SchedulerKind::Full => "full",
            SchedulerKind::NoNormalize => "nonorm",
        }
    }
}

/// Options shared by every figure in one reproduction run.
#[derive(Debug, Clone, Default)]
pub struct ReproOptions {
    /// Use tiny problem sizes (`Dataset::Mini`, `CloudscSizes::mini()`) so
    /// the whole run finishes in seconds — the CI configuration.
    pub smoke: bool,
    /// Directory holding persisted tuning stores. Cold-seeded databases are
    /// persisted here; with [`ReproOptions::warm`] set, seeding is skipped
    /// entirely when a compatible store exists.
    pub store: Option<PathBuf>,
    /// Warm-start schedulers from the store instead of seeding.
    pub warm: bool,
    /// Worker threads for the sharded cache simulation behind the trace
    /// figures (`--sim-workers`). `0` uses the machine's available
    /// parallelism. Sharded counters are bit-identical at any value, so
    /// this only changes wall clock, never figures.
    pub sim_workers: usize,
}

impl ReproOptions {
    /// The CLOUDSC sizes of a run with these options.
    pub fn sizes(&self) -> CloudscSizes {
        if self.smoke {
            CloudscSizes::mini()
        } else {
            CloudscSizes::paper()
        }
    }
}

/// How one scheduler's database was obtained, for the run summary.
#[derive(Debug, Clone)]
pub struct SeedingEvent {
    /// Which scheduler configuration.
    pub kind: SchedulerKind,
    /// True when the database was loaded from a store, false when it was
    /// seeded by search.
    pub warm: bool,
    /// Number of database entries.
    pub entries: usize,
    /// Wall-clock seconds spent seeding or loading.
    pub seconds: f64,
    /// The store file involved, if any.
    pub store: Option<PathBuf>,
}

/// Shared state of the scheduling figures of one reproduction run: the
/// options plus the lazily built (and possibly warm-started) schedulers,
/// one per [`SchedulerKind`].
#[derive(Debug, Default)]
pub struct ReproContext {
    options: ReproOptions,
    schedulers: HashMap<SchedulerKind, DaisyScheduler>,
    events: Vec<SeedingEvent>,
}

impl ReproContext {
    /// Creates a context for one run.
    pub fn new(options: ReproOptions) -> Self {
        ReproContext {
            options,
            ..ReproContext::default()
        }
    }

    /// The options this run was started with.
    pub fn options(&self) -> &ReproOptions {
        &self.options
    }

    /// How each scheduler used so far obtained its database.
    pub fn events(&self) -> &[SeedingEvent] {
        &self.events
    }

    /// The PolyBench dataset of this run.
    pub fn dataset(&self) -> Dataset {
        if self.options.smoke {
            Dataset::Mini
        } else {
            Dataset::Large
        }
    }

    /// The store file a scheduler kind persists to / warm-starts from under
    /// this run's options (`<store>/daisy-<kind>-<dataset>.tunedb`).
    pub fn store_path(&self, kind: SchedulerKind) -> Option<PathBuf> {
        let dataset = format!("{:?}", self.dataset()).to_lowercase();
        self.options
            .store
            .as_ref()
            .map(|dir| dir.join(format!("daisy-{}-{}.tunedb", kind.stem(), dataset)))
    }

    /// The scheduler of the given kind, seeded (or warm-started) on first
    /// use and cached for the rest of the run.
    pub fn scheduler(&mut self, kind: SchedulerKind) -> &DaisyScheduler {
        if !self.schedulers.contains_key(&kind) {
            let (scheduler, event) = self.build(kind);
            self.events.push(event);
            self.schedulers.insert(kind, scheduler);
        }
        &self.schedulers[&kind]
    }

    fn build(&self, kind: SchedulerKind) -> (DaisyScheduler, SeedingEvent) {
        let store = self.store_path(kind);
        if self.options.warm {
            if let Some(path) = &store {
                let start = Instant::now();
                let mut scheduler = DaisyScheduler::new(kind.config());
                match scheduler.warm_start(path) {
                    Ok(entries) => {
                        let event = SeedingEvent {
                            kind,
                            warm: true,
                            entries,
                            seconds: start.elapsed().as_secs_f64(),
                            store: store.clone(),
                        };
                        return (scheduler, event);
                    }
                    Err(e) => eprintln!(
                        "reproduce: warm start from {} failed ({e}); seeding cold",
                        path.display()
                    ),
                }
            }
        }
        let start = Instant::now();
        let scheduler = daisy_seeded_from_a_variants(self.dataset(), kind.config());
        let seconds = start.elapsed().as_secs_f64();
        if let Some(path) = &store {
            if let Err(e) = scheduler.persist(path) {
                eprintln!("reproduce: could not persist {} ({e})", path.display());
            }
        }
        let event = SeedingEvent {
            kind,
            warm: false,
            entries: scheduler.database().len(),
            seconds,
            store,
        };
        (scheduler, event)
    }

    /// Verifies the cold/warm equivalence guarantee for one scheduler kind:
    /// a scheduler warm-started from the persisted store must hold the
    /// identical database and produce bit-identical `ScheduleOutcome`s to a
    /// cold-seeded one on every equivalence workload (the Table 1 CLOUDSC
    /// erosion nests plus the A and B variants of every PolyBench
    /// benchmark). The cold side is this run's scheduler when the run
    /// seeded it, and a freshly seeded one otherwise.
    ///
    /// # Errors
    /// A message when the store directory is missing from the options or the
    /// store cannot be loaded.
    pub fn verify(&self, kind: SchedulerKind) -> Result<EquivalenceReport, String> {
        let path = self
            .store_path(kind)
            .ok_or_else(|| "cold/warm verification needs --store".to_string())?;
        let mut warm = DaisyScheduler::new(kind.config());
        warm.warm_start(&path)
            .map_err(|e| format!("warm start from {} failed: {e}", path.display()))?;
        let seeded;
        let cold = match self.events.iter().find(|e| e.kind == kind) {
            Some(event) if !event.warm => &self.schedulers[&kind],
            _ => {
                seeded = daisy_seeded_from_a_variants(self.dataset(), kind.config());
                &seeded
            }
        };

        let mut identical = warm.database().entries() == cold.database().entries();
        if !identical {
            eprintln!(
                "verify[{}]: databases differ (cold {} entries, warm {})",
                kind.stem(),
                cold.database().len(),
                warm.database().len()
            );
        }
        let workloads = equivalence_workloads(self.dataset(), self.options.sizes());
        let mut outcomes_identical = 0;
        for (name, program) in &workloads {
            if cold.schedule(program) == warm.schedule(program) {
                outcomes_identical += 1;
            } else {
                identical = false;
                eprintln!("verify[{}]: outcome mismatch on {name}", kind.stem());
            }
        }
        Ok(EquivalenceReport {
            entries: cold.database().len(),
            outcomes_checked: workloads.len(),
            outcomes_identical,
            identical,
        })
    }
}

/// What the trace-backed figures (Fig. 11, Fig. 12) of one reproduction run
/// share: the options, the four CLOUDSC versions (Fortran, C, DaCe, daisy)
/// at trace sizes and their simulated cache counters. Separate from
/// [`ReproContext`] so those figures can run on their own thread beside the
/// scheduling figures.
#[derive(Debug)]
pub struct TraceContext {
    options: ReproOptions,
    trace_versions: OnceCell<Vec<(&'static str, Program)>>,
    /// The exact counters of each trace version, simulated on first use.
    traces: [OnceCell<ShardedCacheStats>; 4],
}

impl TraceContext {
    /// Creates a context for one run.
    pub fn new(options: ReproOptions) -> Self {
        TraceContext {
            options,
            trace_versions: OnceCell::new(),
            traces: Default::default(),
        }
    }

    /// The options this run was started with.
    pub fn options(&self) -> &ReproOptions {
        &self.options
    }

    /// The exact cache counters of trace version `index` (an index into
    /// [`trace_versions`](Self::trace_versions)) on the paper's machine:
    /// its access trace through the block-sharded simulator at the run's
    /// `--sim-workers`, which leaves the counters bit-identical. Simulated
    /// once per run, so a trace both figures need (Fig. 11's daisy row and
    /// Fig. 12b's schedule point) is reused. The wall-clock seconds come
    /// back only from the call that ran the simulation.
    pub fn trace(&self, index: usize) -> (&ShardedCacheStats, Option<f64>) {
        let mut seconds = None;
        let stats = self.traces[index].get_or_init(|| {
            let (name, program) = &self.trace_versions()[index];
            let start = Instant::now();
            let stats = simulate_cache_sharded(
                program,
                &MachineConfig::xeon_e5_2680v3(),
                self.options.sim_workers,
            )
            .unwrap_or_else(|e| panic!("{name}: trace fails: {e}"));
            seconds = Some(start.elapsed().as_secs_f64().max(1e-9));
            stats
        });
        (stats, seconds)
    }

    /// The four CLOUDSC versions at [`trace_sizes`](Self::trace_sizes),
    /// built on first use.
    pub fn trace_versions(&self) -> &[(&'static str, Program)] {
        self.trace_versions
            .get_or_init(|| cloudsc_versions(self.trace_sizes()))
    }

    /// The CLOUDSC sizes the trace-backed figure columns simulate: the
    /// run's sizes, lifted to the paper's full `NBLOCKS = 4096` outside
    /// smoke runs; the block-sharded simulator keeps that affordable.
    pub fn trace_sizes(&self) -> CloudscSizes {
        let sizes = self.options.sizes();
        if self.options.smoke {
            sizes
        } else {
            CloudscSizes {
                nblocks: FULL_TRACE_NBLOCKS,
                ..sizes
            }
        }
    }
}

// --------------------------------------------------------------------------
// Figure 1
// --------------------------------------------------------------------------

/// A GEMM kernel with the loops in the given `order` (a permutation of
/// "ijk") at the Figure 1 problem size, divided by `shrink` (1 = paper
/// size, larger for smoke runs).
fn gemm_with_order(order: &str, shrink: i64) -> Program {
    let l: Vec<char> = order.chars().collect();
    let bound = |c: char| match c {
        'i' => "NI",
        'j' => "NJ",
        _ => "NK",
    };
    parse_program(&format!(
        "program gemm_{order} {{
           param NI = {ni}; param NJ = {nj}; param NK = {nk};
           scalar alpha = 1.5; scalar beta = 1.2;
           array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
           for {a} in 0..{ab} {{ for {b} in 0..{bb} {{ for {c} in 0..{cb} {{
             C[i][j] += alpha * A[i][k] * B[k][j];
           }} }} }}
         }}",
        ni = 1000 / shrink,
        nj = 1100 / shrink,
        nk = 1200 / shrink,
        a = l[0],
        b = l[1],
        c = l[2],
        ab = bound(l[0]),
        bb = bound(l[1]),
        cb = bound(l[2]),
    ))
    .expect("gemm variant parses")
}

/// Figure 1: structurally different GEMM kernels yield significantly
/// different performance under a baseline compiler and under Polly, while
/// the normalized pipeline maps them all to the same canonical form.
pub fn fig1_gemm_variants(ctx: &mut ReproContext) -> Vec<Table> {
    let shrink = if ctx.options().smoke { 25 } else { 1 };
    let model = paper_machine_model(THREADS);
    let sequential = paper_machine_model(1);
    let mut table = Table::new(
        format!(
            "Figure 1: GEMM loop-order variants (estimated seconds, NI={})",
            1000 / shrink
        ),
        &["order", "clang -O3", "Polly", "normalized order"],
    );
    for order in ["ijk", "ikj", "jik", "jki", "kij", "kji"] {
        let p = gemm_with_order(order, shrink);
        let clang = sequential.estimate(&clang_schedule(&p)).seconds;
        let polly = model.estimate(&polly_schedule(&p)).seconds;
        let normalized = Normalizer::new().run(&p).expect("normalizes").program;
        let canonical: String = normalized.loop_nests()[0]
            .nested_iterators()
            .iter()
            .map(|v| v.to_string())
            .collect();
        table.rows.push(vec![
            Cell::Text(order.to_string()),
            Cell::Fixed(clang, 3),
            Cell::Fixed(polly, 3),
            Cell::Text(canonical),
        ]);
    }
    let spread = |header: &str| {
        let times = table.values(header);
        times.iter().cloned().fold(f64::MIN, f64::max)
            / times.iter().cloned().fold(f64::MAX, f64::min)
    };
    table.notes = vec![
        format!(
            "clang worst/best ratio: {:.1}x   Polly worst/best ratio: {:.1}x",
            spread("clang -O3"),
            spread("Polly")
        ),
        canonical_order_note(&table),
    ];
    vec![table]
}

/// Fig. 1's statement about its `normalized order` column: that every
/// variant maps to the same canonical loop order, or else which variants
/// miss the most common one.
fn canonical_order_note(table: &Table) -> String {
    let normalized: Vec<&Cell> = table.column("normalized order").collect();
    let count = |order: &Cell| normalized.iter().filter(|&&o| o == order).count();
    // The most common order; on a tie, the one of the earliest variant.
    let canonical = normalized.iter().rev().max_by_key(|&&o| count(o)).copied();
    let differing: Vec<String> = table
        .column("order")
        .zip(&normalized)
        .filter(|&(_, &order)| Some(order) != canonical)
        .map(|(variant, order)| format!("{variant} ({order})"))
        .collect();
    match canonical {
        Some(canonical) if !differing.is_empty() => format!(
            "after normalization {} of {} variants map to the canonical loop order {canonical}; {} do not",
            normalized.len() - differing.len(),
            normalized.len(),
            differing.join(", ")
        ),
        _ => "after normalization every variant maps to the same canonical loop order".to_string(),
    }
}

// --------------------------------------------------------------------------
// Figure 6
// --------------------------------------------------------------------------

/// Figure 6: daisy vs Polly vs icc vs the Tiramisu auto-scheduler on the A
/// and B variants of the 15 PolyBench benchmarks. Runtimes are normalized
/// to the daisy A variant; `X` marks benchmarks the Tiramisu adapter cannot
/// convert.
pub fn fig6_autoschedulers(ctx: &mut ReproContext) -> Vec<Table> {
    let dataset = ctx.dataset();
    let model = paper_machine_model(THREADS);
    let scheduler = ctx.scheduler(SchedulerKind::Full);
    let mut table = Table::new(
        "Figure 6: normalized runtime (baseline = daisy A, lower is better)",
        &[
            "benchmark",
            "daisy A [s]",
            "daisy A",
            "daisy B",
            "Polly A",
            "Polly B",
            "icc A",
            "icc B",
            "Tiramisu A",
            "Tiramisu B",
        ],
    );
    for b in all_benchmarks() {
        let a_prog = (b.a)(dataset);
        let b_prog = (b.b)(dataset);
        let daisy_a = scheduler.schedule(&a_prog).seconds();
        let estimate = |p: Program| Some(model.estimate(&p).seconds);
        let tiramisu = |p: &Program| tiramisu_schedule(p, THREADS).ok().and_then(estimate);
        let runtimes = [
            Some(daisy_a),
            Some(scheduler.schedule(&b_prog).seconds()),
            estimate(polly_schedule(&a_prog)),
            estimate(polly_schedule(&b_prog)),
            estimate(icc_schedule(&a_prog)),
            estimate(icc_schedule(&b_prog)),
            tiramisu(&a_prog),
            tiramisu(&b_prog),
        ];
        table.rows.push(
            [Cell::Text(b.name.to_string()), Cell::Fixed(daisy_a, 4)]
                .into_iter()
                .chain(runtimes.map(|t| Cell::Ratio(t, daisy_a)))
                .collect(),
        );
    }

    let daisy_a = table.values("daisy A");
    let daisy_b = table.values("daisy B");
    let gaps: Vec<f64> = daisy_a
        .iter()
        .zip(&daisy_b)
        .map(|(a, b)| (b / a - 1.0).abs())
        .collect();
    // Speedup of daisy over one baseline column on the rows it converts.
    let speedup = |header: String, daisy: &[f64]| {
        let speedups: Vec<f64> = table
            .column(&header)
            .zip(daisy)
            .filter_map(|(cell, d)| Some(cell.value()? / d))
            .collect();
        geometric_mean(&speedups)
    };
    let speedups = |variant: &str, daisy: &[f64]| {
        format!(
            "geo-mean speedup of daisy on {variant} variants: {:.2}x vs Polly, {:.2}x vs icc, {:.2}x vs Tiramisu",
            speedup(format!("Polly {variant}"), daisy),
            speedup(format!("icc {variant}"), daisy),
            speedup(format!("Tiramisu {variant}"), daisy)
        )
    };
    table.notes = vec![
        format!(
            "daisy A/B robustness: mean gap {:.1}%  max gap {:.1}%",
            100.0 * gaps.iter().sum::<f64>() / gaps.len() as f64,
            100.0 * gaps.iter().cloned().fold(0.0, f64::max)
        ),
        speedups("A", &daisy_a),
        speedups("B", &daisy_b),
    ];
    vec![table]
}

// --------------------------------------------------------------------------
// Figure 7
// --------------------------------------------------------------------------

/// Figure 7: ablation study — clang alone, transfer tuning without
/// normalization (Opt), normalization without transfer tuning (Norm), and
/// the full pipeline (Norm + Opt), on the A and B variants of every
/// benchmark. Runtimes are normalized to clang on the A variant.
pub fn fig7_ablation(ctx: &mut ReproContext) -> Vec<Table> {
    let dataset = ctx.dataset();
    let sequential = paper_machine_model(1);

    // Build (or warm-start) both schedulers up front, in summary order.
    ctx.scheduler(SchedulerKind::Full);
    ctx.scheduler(SchedulerKind::NoNormalize);

    let mut table = Table::new(
        "Figure 7: ablation (baseline = clang A, lower is better)",
        &[
            "benchmark",
            "clang A [s]",
            "clang A",
            "Opt A",
            "Norm A",
            "Norm+Opt A",
            "clang B",
            "Opt B",
            "Norm B",
            "Norm+Opt B",
        ],
    );
    let clang = |p: &Program| sequential.estimate(&clang_schedule(p)).seconds;
    let norm_only = |p: &Program| {
        let normalized = Normalizer::new().run(p).expect("normalizes").program;
        clang(&normalized)
    };
    for b in all_benchmarks() {
        let variants = [(b.a)(dataset), (b.b)(dataset)];
        let clang_a = clang(&variants[0]);
        let mut row = vec![Cell::Text(b.name.to_string()), Cell::Fixed(clang_a, 4)];
        for p in &variants {
            let opt = ctx.scheduler(SchedulerKind::NoNormalize).schedule(p);
            let full = ctx.scheduler(SchedulerKind::Full).schedule(p);
            let runtimes = [clang(p), opt.seconds(), norm_only(p), full.seconds()];
            row.extend(runtimes.map(|t| Cell::Ratio(Some(t), clang_a)));
        }
        table.rows.push(row);
    }
    vec![table]
}

// --------------------------------------------------------------------------
// Figure 9
// --------------------------------------------------------------------------

/// Figure 9: the NPBench (Python) variants optimized by daisy (with and
/// without normalization) compared against the NumPy, Numba and DaCe
/// framework models. Runtimes are normalized to daisy (lower is better).
pub fn fig9_python_frameworks(ctx: &mut ReproContext) -> Vec<Table> {
    let dataset = ctx.dataset();
    let machine = MachineConfig::xeon_e5_2680v3();
    ctx.scheduler(SchedulerKind::Full);
    ctx.scheduler(SchedulerKind::NoNormalize);

    let mut table = Table::new(
        "Figure 9: Python-frontend variants (baseline = daisy, lower is better)",
        &[
            "benchmark",
            "daisy [s]",
            "daisy",
            "daisy w/o norm",
            "NumPy",
            "Numba",
            "DaCe",
        ],
    );
    for b in all_benchmarks() {
        let (py_prog, ops) = (b.py)(dataset);
        let daisy = ctx
            .scheduler(SchedulerKind::Full)
            .schedule(&py_prog)
            .seconds();
        let daisy_wo = ctx
            .scheduler(SchedulerKind::NoNormalize)
            .schedule(&py_prog)
            .seconds();
        let frameworks = python_framework_times(&py_prog, &ops, &machine, THREADS);
        let runtimes = [
            daisy,
            daisy_wo,
            frameworks.numpy,
            frameworks.numba,
            frameworks.dace,
        ];
        table.rows.push(
            [Cell::Text(b.name.to_string()), Cell::Fixed(daisy, 4)]
                .into_iter()
                .chain(runtimes.map(|t| Cell::Ratio(Some(t), daisy)))
                .collect(),
        );
    }
    vec![table]
}

// --------------------------------------------------------------------------
// Figure 11
// --------------------------------------------------------------------------

/// The four CLOUDSC proxy versions at the given sizes: Fortran, C, DaCe and
/// daisy ([`daisy_model`]).
fn cloudsc_versions(sizes: CloudscSizes) -> Vec<(&'static str, Program)> {
    vec![
        ("Fortran", full_model(CloudscVariant::Fortran, sizes)),
        ("C", full_model(CloudscVariant::C, sizes)),
        ("DaCe", full_model(CloudscVariant::Dace, sizes)),
        ("daisy", daisy_model(sizes)),
    ]
}

/// Figure 11: sequential runtime of the full CLOUDSC proxy for the Fortran,
/// C, DaCe and daisy versions (normalized to Fortran), plus the achieved
/// FLOP/s of Fortran and daisy against the machine peak (§5.2).
pub fn fig11_cloudsc_full(ctx: &mut TraceContext) -> Vec<Table> {
    let sizes = ctx.options().sizes();
    let trace_sizes = ctx.trace_sizes();
    let sequential = paper_machine_model(1);
    let at_run_sizes = (trace_sizes.nblocks != sizes.nblocks).then(|| cloudsc_versions(sizes));
    let versions = at_run_sizes.as_deref().unwrap_or(ctx.trace_versions());

    let reports: Vec<(&str, machine::CostReport)> = versions
        .iter()
        .map(|(name, p)| (*name, sequential.estimate(p)))
        .collect();
    let baseline = reports[0].1.seconds;
    let mut roofline = Table::new(
        format!(
            "Figure 11: CLOUDSC sequential execution, roofline at run sizes (NPROMA={}, NBLOCKS={})",
            sizes.nproma, sizes.nblocks
        ),
        &["version", "seconds", "normalized", "GFLOP/s"],
    );
    roofline.rows = reports
        .iter()
        .map(|(name, r)| {
            vec![
                Cell::Text(name.to_string()),
                Cell::Fixed(r.seconds, 3),
                Cell::Ratio(Some(r.seconds), baseline),
                Cell::Fixed(r.flops_per_second() / 1e9, 1),
            ]
        })
        .collect();
    let seconds = roofline.values("seconds");
    let gflops = roofline.values("GFLOP/s");
    let peak = sequential.machine().peak_flops_per_core() / 1e9;
    roofline.notes = vec![
        format!(
            "daisy vs hand-tuned Fortran: {:.1}% faster",
            100.0 * (seconds[0] - seconds[3]) / seconds[0]
        ),
        format!(
            "peak (1 core, FMA+AVX): {:.1} GFLOP/s; Fortran reaches {:.1}%, daisy {:.1}% of peak",
            peak,
            100.0 * gflops[0] / peak,
            100.0 * gflops[3] / peak
        ),
    ];

    // Every schedule point is also backed by the exact simulated access
    // stream. Throughput divides what the replicas streamed, not the
    // logical accesses their classes stand for.
    let mut shards = 0;
    let mut classes = Vec::new();
    let mut trace = Table::new(
        format!(
            "Figure 11 (exact trace): block-sharded cache simulation, NBLOCKS={}",
            trace_sizes.nblocks
        ),
        &[
            "version",
            "accesses",
            "sim [ms]",
            "Macc/s",
            "L1 hit rate",
            "L1 loads",
        ],
    );
    trace.rows = ctx
        .trace_versions()
        .iter()
        .enumerate()
        .map(|(index, (name, _))| {
            let (stats, seconds) = ctx.trace(index);
            shards = stats.shards();
            classes.push((*name, stats.classes()));
            // Fig. 11 runs first in its lane and so times every trace; one
            // an earlier call simulated has no time to show.
            let (sim_ms, macc) = match seconds {
                Some(s) => (
                    Cell::Fixed(s * 1e3, 1),
                    Cell::Fixed(stats.streamed_accesses() as f64 / s / 1e6, 0),
                ),
                None => (Cell::Text("-".to_string()), Cell::Text("-".to_string())),
            };
            vec![
                Cell::Text(name.to_string()),
                Cell::Count(stats.accesses()),
                sim_ms,
                macc,
                Cell::Percent(100.0 * stats.l1().hit_rate(), 1),
                Cell::Count(stats.l1().loads),
            ]
        })
        .collect();
    trace.notes = vec![trace_sharding(ctx, shards, &classes)];
    vec![roofline, trace]
}

/// The block count the paper's full CLOUDSC experiments sweep
/// (`NBLOCKS = 4096`, ~1.6B accesses per schedule point at paper
/// NPROMA/KLEV) — sustained by the block-sharded parallel simulator.
const FULL_TRACE_NBLOCKS: i64 = 4096;

/// The sharding line of a trace-backed figure: block count, the shards of
/// each trace's plan, how many of them each version actually simulated (its
/// classes), and the requested/effective simulation worker counts (the pool
/// fans out classes, so it clamps to the most any version had).
fn trace_sharding(ctx: &TraceContext, shards: usize, classes: &[(&str, usize)]) -> String {
    let sim_workers = ctx.options().sim_workers;
    let per_version: Vec<String> = classes
        .iter()
        .map(|(name, count)| format!("{name} {count}"))
        .collect();
    let most = classes.iter().map(|&(_, count)| count).max().unwrap_or(0);
    format!(
        "trace sharding: NBLOCKS={}, {shards} shards, classes {}, sim-workers={sim_workers} (effective {})",
        ctx.trace_sizes().nblocks,
        per_version.join(", "),
        effective_workers(sim_workers, most),
    )
}

// --------------------------------------------------------------------------
// Figure 12
// --------------------------------------------------------------------------

/// Figure 12: strong scaling (fixed workload, 1-12 threads) and weak
/// scaling (workload grows with the thread count) of the CLOUDSC proxy for
/// the Fortran, C, DaCe and daisy versions.
pub fn fig12_cloudsc_scaling(ctx: &mut TraceContext) -> Vec<Table> {
    let sizes = ctx.options().sizes();
    let strong = [1usize, 2, 4, 6, 8, 10, 12].map(|threads| (threads.to_string(), sizes, threads));
    let strong = scaling_table(
        "Figure 12a: strong scaling (seconds per run)",
        "threads",
        &strong,
    );

    // The weak-scaling workload list; a smoke run shrinks the column
    // counts 64x so the whole figure stays CI-sized.
    let scale = if ctx.options().smoke { 64 } else { 1 };
    let weak =
        [(65536i64, 1usize), (131072, 2), (262144, 4), (524288, 8)].map(|(columns, threads)| {
            let columns = columns / scale;
            let sizes = CloudscSizes::with_columns(columns);
            (format!("{columns} / {threads}"), sizes, threads)
        });
    let mut weak = scaling_table(
        "Figure 12b: weak scaling (seconds per run)",
        "columns/threads",
        &weak,
    );

    // The weak-scaling points only grow the block count and blocks are
    // independent, so one sharded simulation at the full schedule-point
    // block count stands for every row's exact per-block access stream.
    // After Fig. 11 this is the daisy trace it already simulated, so the
    // line then reports no time and no throughput.
    let name = ctx.trace_versions()[3].0;
    let (trace, seconds) = ctx.trace(3);
    let source = match seconds {
        Some(seconds) => format!(
            "simulated in {:.1} ms ({:.0} Macc/s)",
            seconds * 1e3,
            trace.streamed_accesses() as f64 / seconds / 1e6
        ),
        None => "memo hit".to_string(),
    };
    weak.notes = vec![
        format!(
            "daisy trace per schedule point (NBLOCKS={}): {} accesses {source}, L1 hit rate {:.1}%",
            ctx.trace_sizes().nblocks,
            trace.accesses(),
            100.0 * trace.l1().hit_rate()
        ),
        trace_sharding(ctx, trace.shards(), &[(name, trace.classes())]),
    ];
    vec![strong, weak]
}

/// One Fig. 12 panel: the roofline seconds per run of the four CLOUDSC
/// versions at each `(label, sizes, threads)` point, plus daisy's gain over
/// Fortran. Consecutive points of equal sizes share one build of the
/// versions.
fn scaling_table(
    title: &str,
    label: &'static str,
    points: &[(String, CloudscSizes, usize)],
) -> Table {
    let mut table = Table::new(
        title,
        &[label, "Fortran", "C", "DaCe", "daisy", "daisy vs Fortran"],
    );
    let mut built: Option<(CloudscSizes, Vec<(&str, Program)>)> = None;
    for (label, sizes, threads) in points {
        if built.as_ref().is_none_or(|(at, _)| at != sizes) {
            built = Some((*sizes, cloudsc_versions(*sizes)));
        }
        let (_, versions) = built.as_ref().expect("built above");
        let model = paper_machine_model(*threads);
        let times: Vec<f64> = versions
            .iter()
            .map(|(_, p)| model.estimate(p).seconds)
            .collect();
        let gain = 100.0 * (times[0] - times[3]) / times[0];
        table.rows.push(
            once(Cell::Text(label.clone()))
                .chain(times.into_iter().map(|t| Cell::Fixed(t, 3)))
                .chain(once(Cell::Percent(gain, 2)))
                .collect(),
        );
    }
    table
}

// --------------------------------------------------------------------------
// Table 1
// --------------------------------------------------------------------------

/// The Table 1 CLOUDSC erosion workloads at the given sizes: the nests the
/// cold/warm equivalence guarantee is checked on.
fn table1_workloads(sizes: CloudscSizes) -> [(&'static str, Program); 4] {
    [
        (
            "erosion_single_original",
            erosion_single_level(sizes, false),
        ),
        (
            "erosion_single_optimized",
            erosion_single_level(sizes, true),
        ),
        ("erosion_full_original", erosion_original(sizes)),
        ("erosion_full_optimized", erosion_optimized(sizes)),
    ]
}

/// Table 1: the erosion-of-clouds loop nest before and after normalization +
/// producer-consumer fusion — runtime for a single vertical iteration and
/// for all KLEV iterations, plus the absolute number of L1 loads and evicts.
pub fn table1_cloudsc_erosion(ctx: &mut ReproContext) -> Vec<Table> {
    let sizes = ctx.options().sizes();
    let model = paper_machine_model(1);

    let [original_single, optimized_single, original_full, optimized_full] =
        table1_workloads(sizes).map(|(_, p)| p);

    // The single-level nests have a one-trip top-level loop, so the sharded
    // driver runs them as one covering shard: counters exactly match the
    // monolithic simulation at any worker count.
    let cache = |p: &Program| simulate_cache_sharded(p, model.machine(), 0).expect("trace runs");
    let (original_cache, optimized_cache) = (cache(&original_single), cache(&optimized_single));
    let ms = |p: &Program| Cell::Fixed(model.estimate(p).seconds * 1000.0, 3);
    let counts = |metric: &str, count: fn(&ShardedCacheStats) -> u64| {
        vec![
            Cell::Text(metric.to_string()),
            Cell::Count(count(&original_cache)),
            Cell::Count(count(&optimized_cache)),
        ]
    };
    let mut table = Table::new(
        format!(
            "Table 1: erosion of clouds, NPROMA={}, KLEV={}",
            sizes.nproma, sizes.klev
        ),
        &["metric", "Original", "Optimized"],
    );
    table.rows = vec![
        vec![
            Cell::Text("Single Iteration [ms]".to_string()),
            ms(&original_single),
            ms(&optimized_single),
        ],
        vec![
            Cell::Text("KLEV Iterations [ms]".to_string()),
            ms(&original_full),
            ms(&optimized_full),
        ],
        counts("L1 Loads (single iteration)", |s| s.l1().loads),
        counts("L1 Evicts (single iteration)", |s| s.l1().evicts),
        counts("L1 accesses (single iteration)", |s| s.accesses()),
    ];
    let original = table.values("Original");
    let optimized = table.values("Optimized");
    table.notes = vec![
        format!(
            "runtime speedup: single iteration {:.2}x, KLEV iterations {:.2}x",
            original[0] / optimized[0],
            original[1] / optimized[1]
        ),
        "note: the paper's lower L1 load/evict counts stem from removed register spills,"
            .to_string(),
        "which the IR-level cache simulation cannot observe.".to_string(),
    ];
    vec![table]
}

// --------------------------------------------------------------------------
// Cold/warm equivalence
// --------------------------------------------------------------------------

/// One scheduler configuration's cold/warm comparison.
#[derive(Debug, Clone)]
pub struct EquivalenceReport {
    /// Entries in the (deduped) database.
    pub entries: usize,
    /// Workloads scheduled by both sides.
    pub outcomes_checked: usize,
    /// Workloads whose `ScheduleOutcome`s were bit-identical.
    pub outcomes_identical: usize,
    /// True when databases and every outcome matched exactly.
    pub identical: bool,
}

/// The workloads cold/warm equivalence is checked on: the Table 1 CLOUDSC
/// erosion nests plus the A and B variants of every PolyBench benchmark.
fn equivalence_workloads(dataset: Dataset, sizes: CloudscSizes) -> Vec<(String, Program)> {
    let mut workloads: Vec<(String, Program)> = table1_workloads(sizes)
        .into_iter()
        .map(|(name, p)| (name.to_string(), p))
        .collect();
    for b in all_benchmarks() {
        workloads.push((format!("{}_a", b.name), (b.a)(dataset)));
        workloads.push((format!("{}_b", b.name), (b.b)(dataset)));
    }
    workloads
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_options(store: Option<PathBuf>, warm: bool) -> ReproOptions {
        ReproOptions {
            smoke: true,
            store,
            warm,
            ..ReproOptions::default()
        }
    }

    #[test]
    fn context_caches_schedulers_and_records_events() {
        let mut ctx = ReproContext::new(smoke_options(None, false));
        ctx.scheduler(SchedulerKind::Full);
        ctx.scheduler(SchedulerKind::Full);
        assert_eq!(ctx.events().len(), 1, "second use must hit the cache");
        assert!(!ctx.events()[0].warm);
        assert!(ctx.events()[0].entries > 0);
    }

    #[test]
    fn store_paths_encode_kind_and_dataset() {
        let ctx = ReproContext::new(smoke_options(Some(PathBuf::from("/tmp/store")), false));
        let path = ctx.store_path(SchedulerKind::NoNormalize).unwrap();
        assert_eq!(path, PathBuf::from("/tmp/store/daisy-nonorm-mini.tunedb"));
        let none = ReproContext::new(smoke_options(None, false));
        assert!(none.store_path(SchedulerKind::Full).is_none());
    }

    #[test]
    fn cold_run_persists_and_warm_run_loads_identical_database() {
        let dir = std::env::temp_dir().join(format!("bench-figures-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let mut cold = ReproContext::new(smoke_options(Some(dir.clone()), false));
        let cold_entries: Vec<_> = cold
            .scheduler(SchedulerKind::Full)
            .database()
            .entries()
            .to_vec();
        assert!(cold.store_path(SchedulerKind::Full).unwrap().exists());
        // The cold run verifies against its own scheduler.
        let report = cold.verify(SchedulerKind::Full).expect("store exists");
        assert!(report.identical, "cold/warm equivalence must hold");

        let mut warm = ReproContext::new(smoke_options(Some(dir.clone()), true));
        let warm_db = warm.scheduler(SchedulerKind::Full).database().entries();
        assert_eq!(warm_db, cold_entries.as_slice());
        assert!(warm.events()[0].warm);

        // A warm run seeds a fresh cold reference.
        let report = warm.verify(SchedulerKind::Full).expect("store exists");
        assert!(report.identical, "cold/warm equivalence must hold");
        assert_eq!(report.outcomes_checked, report.outcomes_identical);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_request_without_a_store_falls_back_to_cold_seeding() {
        let dir = std::env::temp_dir().join(format!("bench-figures-miss-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut ctx = ReproContext::new(smoke_options(Some(dir.clone()), true));
        ctx.scheduler(SchedulerKind::Full);
        assert!(!ctx.events()[0].warm);
        // The fallback also persists, so the next warm run hits.
        assert!(ctx.store_path(SchedulerKind::Full).unwrap().exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fig1_states_the_canonical_order_its_column_holds() {
        let mut ctx = ReproContext::new(smoke_options(None, false));
        let tables = fig1_gemm_variants(&mut ctx);
        let [table] = &tables[..] else {
            panic!("Fig. 1 is one table: {tables:?}")
        };
        let orders: Vec<&Cell> = table.column("normalized order").collect();
        assert_eq!(orders.len(), 6);
        assert!(orders
            .iter()
            .all(|&order| *order == Cell::Text("ikj".into())));
        assert_eq!(
            table.notes[1],
            "after normalization every variant maps to the same canonical loop order"
        );

        // A column that disagrees names the variants that miss the most
        // common order.
        let mut split = table.clone();
        split.rows[2][3] = Cell::Text("jik".into());
        split.rows[5][3] = Cell::Text("kji".into());
        assert_eq!(
            canonical_order_note(&split),
            "after normalization 4 of 6 variants map to the canonical loop order ikj; \
             jik (jik), kji (kji) do not"
        );
    }
}

//! The figure/table harnesses as library functions, driven by the
//! `reproduce` binary (`reproduce --only <figure>` for a single one).
//!
//! Every function regenerates one figure or table of the paper and renders
//! it into a `&mut String`, so `reproduce` decides when and in which order
//! the text reaches stdout. The ones that need a transfer-tuning database
//! pull their scheduler from a [`ReproContext`], which seeds it once per
//! configuration and — when a store directory is given — warm-starts it
//! from a persisted `tunestore` snapshot instead, so a whole reproduction
//! run pays the seeding cost at most once ever per machine. The
//! trace-backed CLOUDSC figures (Fig. 11, Fig. 12) share a [`TraceContext`]
//! instead, which owns nothing a scheduling figure touches.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt::Write;
use std::path::PathBuf;
use std::time::Instant;

use baselines::{
    clang_schedule, icc_schedule, polly_schedule, python_framework_times, tiramisu_schedule,
};
use daisy::{DaisyConfig, DaisyScheduler, ScheduleOutcome};
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
    daisy_seeded_from_a_variants, geometric_mean, paper_machine_model, ratio, render_table, THREADS,
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
    /// Every scheduler configuration the harnesses use.
    pub const ALL: [SchedulerKind; 2] = [SchedulerKind::Full, SchedulerKind::NoNormalize];

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
    /// Print the per-phase wall clock ([`daisy::PhaseTimings`]) of every
    /// schedule the figures run.
    pub verbose: bool,
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

/// Renders one schedule's per-phase wall clock into `out` when
/// `--verbose` is on. A free function (not a [`ReproContext`] method) so
/// figures can call it while a scheduler borrow of the context is live.
pub fn render_phases(out: &mut String, verbose: bool, label: &str, outcome: &ScheduleOutcome) {
    if verbose {
        let _ = writeln!(out, "  phases [{label}]: {}", outcome.phase_timings);
    }
}

/// How one scheduler's database was obtained, for the run summary.
#[derive(Debug, Clone)]
pub struct SeedingEvent {
    /// Which scheduler configuration.
    pub kind: SchedulerKind,
    /// `"warm"` when loaded from a store, `"cold"` when seeded by search.
    pub mode: &'static str,
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
                            mode: "warm",
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
            mode: "cold",
            entries: scheduler.database().len(),
            seconds,
            store,
        };
        (scheduler, event)
    }
}

/// What the trace-backed figures (Fig. 11, Fig. 12) of one reproduction run
/// share: the options, the CLOUDSC versions at trace sizes and their
/// simulated cache counters. Separate from [`ReproContext`] so those
/// figures can run on their own thread beside the scheduling figures.
#[derive(Debug)]
pub struct TraceContext {
    options: ReproOptions,
    trace_versions: OnceCell<Vec<(&'static str, Program)>>,
    /// The exact counters of each [`cloudsc_versions`] entry, simulated
    /// on first use.
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

    /// [`cloudsc_versions`] at the sizes the trace-backed columns simulate
    /// (the run's sizes, lifted to [`FULL_TRACE_NBLOCKS`] outside smoke
    /// runs), built on first use.
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
pub fn gemm_with_order(order: &str, shrink: i64) -> Program {
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
pub fn fig1_gemm_variants(ctx: &ReproContext, out: &mut String) {
    let shrink = if ctx.options().smoke { 25 } else { 1 };
    let model = paper_machine_model(THREADS);
    let sequential = paper_machine_model(1);
    let mut rows = Vec::new();
    let mut clang_times = Vec::new();
    let mut polly_times = Vec::new();
    for order in ["ijk", "ikj", "jik", "jki", "kij", "kji"] {
        let p = gemm_with_order(order, shrink);
        let clang = sequential.estimate(&clang_schedule(&p)).seconds;
        let polly = model.estimate(&polly_schedule(&p)).seconds;
        let normalized = Normalizer::new().run(&p).expect("normalizes").program;
        let canonical: Vec<String> = normalized.loop_nests()[0]
            .nested_iterators()
            .iter()
            .map(|v| v.to_string())
            .collect();
        clang_times.push(clang);
        polly_times.push(polly);
        rows.push(vec![
            order.to_string(),
            format!("{clang:.3}"),
            format!("{polly:.3}"),
            canonical.join(""),
        ]);
    }
    render_table(
        out,
        &format!(
            "Figure 1: GEMM loop-order variants (estimated seconds, NI={})",
            1000 / shrink
        ),
        &["order", "clang -O3", "Polly", "normalized order"],
        &rows,
    );
    let spread = |times: &[f64]| {
        times.iter().cloned().fold(f64::MIN, f64::max)
            / times.iter().cloned().fold(f64::MAX, f64::min)
    };
    let _ = writeln!(
        out,
        "\nclang worst/best ratio: {:.1}x   Polly worst/best ratio: {:.1}x",
        spread(&clang_times),
        spread(&polly_times)
    );
    let _ = writeln!(
        out,
        "after normalization every variant maps to the same canonical loop order"
    );
}

// --------------------------------------------------------------------------
// Figure 6
// --------------------------------------------------------------------------

/// Figure 6: daisy vs Polly vs icc vs the Tiramisu auto-scheduler on the A
/// and B variants of the 15 PolyBench benchmarks. Runtimes are normalized
/// to the daisy A variant; `X` marks benchmarks the Tiramisu adapter cannot
/// convert.
pub fn fig6_autoschedulers(ctx: &mut ReproContext, out: &mut String) {
    let dataset = ctx.dataset();
    let verbose = ctx.options().verbose;
    let model = paper_machine_model(THREADS);
    let scheduler = ctx.scheduler(SchedulerKind::Full);

    let mut rows = Vec::new();
    let mut ab_gaps = Vec::new();
    let mut speedup_polly_a = Vec::new();
    let mut speedup_icc_a = Vec::new();
    let mut speedup_tiramisu_a = Vec::new();
    let mut speedup_polly_b = Vec::new();
    let mut speedup_icc_b = Vec::new();
    let mut speedup_tiramisu_b = Vec::new();

    for b in all_benchmarks() {
        let a_prog = (b.a)(dataset);
        let b_prog = (b.b)(dataset);
        let outcome_a = scheduler.schedule(&a_prog);
        let outcome_b = scheduler.schedule(&b_prog);
        render_phases(out, verbose, &format!("{}/A", b.name), &outcome_a);
        render_phases(out, verbose, &format!("{}/B", b.name), &outcome_b);
        let daisy_a = outcome_a.seconds();
        let daisy_b = outcome_b.seconds();
        let polly_a = model.estimate(&polly_schedule(&a_prog)).seconds;
        let polly_b = model.estimate(&polly_schedule(&b_prog)).seconds;
        let icc_a = model.estimate(&icc_schedule(&a_prog)).seconds;
        let icc_b = model.estimate(&icc_schedule(&b_prog)).seconds;
        let tira_a = tiramisu_schedule(&a_prog, THREADS)
            .ok()
            .map(|p| model.estimate(&p).seconds);
        let tira_b = tiramisu_schedule(&b_prog, THREADS)
            .ok()
            .map(|p| model.estimate(&p).seconds);

        ab_gaps.push((daisy_b / daisy_a - 1.0).abs());
        speedup_polly_a.push(polly_a / daisy_a);
        speedup_icc_a.push(icc_a / daisy_a);
        speedup_polly_b.push(polly_b / daisy_b);
        speedup_icc_b.push(icc_b / daisy_b);
        if let Some(t) = tira_a {
            speedup_tiramisu_a.push(t / daisy_a);
        }
        if let Some(t) = tira_b {
            speedup_tiramisu_b.push(t / daisy_b);
        }

        rows.push(vec![
            b.name.to_string(),
            format!("{daisy_a:.4}"),
            ratio(Some(daisy_a), daisy_a),
            ratio(Some(daisy_b), daisy_a),
            ratio(Some(polly_a), daisy_a),
            ratio(Some(polly_b), daisy_a),
            ratio(Some(icc_a), daisy_a),
            ratio(Some(icc_b), daisy_a),
            ratio(tira_a, daisy_a),
            ratio(tira_b, daisy_a),
        ]);
    }
    render_table(
        out,
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
        &rows,
    );
    let _ = writeln!(
        out,
        "\ndaisy A/B robustness: mean gap {:.1}%  max gap {:.1}%",
        100.0 * ab_gaps.iter().sum::<f64>() / ab_gaps.len() as f64,
        100.0 * ab_gaps.iter().cloned().fold(0.0, f64::max)
    );
    let _ = writeln!(
        out,
        "geo-mean speedup of daisy on A variants: {:.2}x vs Polly, {:.2}x vs icc, {:.2}x vs Tiramisu",
        geometric_mean(&speedup_polly_a),
        geometric_mean(&speedup_icc_a),
        geometric_mean(&speedup_tiramisu_a)
    );
    let _ = writeln!(
        out,
        "geo-mean speedup of daisy on B variants: {:.2}x vs Polly, {:.2}x vs icc, {:.2}x vs Tiramisu",
        geometric_mean(&speedup_polly_b),
        geometric_mean(&speedup_icc_b),
        geometric_mean(&speedup_tiramisu_b)
    );
}

// --------------------------------------------------------------------------
// Figure 7
// --------------------------------------------------------------------------

/// Figure 7: ablation study — clang alone, transfer tuning without
/// normalization (Opt), normalization without transfer tuning (Norm), and
/// the full pipeline (Norm + Opt), on the A and B variants of every
/// benchmark. Runtimes are normalized to clang on the A variant.
pub fn fig7_ablation(ctx: &mut ReproContext, out: &mut String) {
    let dataset = ctx.dataset();
    let verbose = ctx.options().verbose;
    let sequential = paper_machine_model(1);

    // Build (or warm-start) both schedulers up front; the borrow of one
    // ends before the other is used.
    ctx.scheduler(SchedulerKind::Full);
    ctx.scheduler(SchedulerKind::NoNormalize);

    let mut rows = Vec::new();
    for b in all_benchmarks() {
        let a_prog = (b.a)(dataset);
        let b_prog = (b.b)(dataset);
        let clang_a = sequential.estimate(&clang_schedule(&a_prog)).seconds;
        let clang_b = sequential.estimate(&clang_schedule(&b_prog)).seconds;
        let norm_only = |p: &Program| {
            let normalized = Normalizer::new().run(p).expect("normalizes").program;
            sequential.estimate(&clang_schedule(&normalized)).seconds
        };
        let opt_a = ctx.scheduler(SchedulerKind::NoNormalize).schedule(&a_prog);
        let opt_b = ctx.scheduler(SchedulerKind::NoNormalize).schedule(&b_prog);
        let full_a = ctx.scheduler(SchedulerKind::Full).schedule(&a_prog);
        let full_b = ctx.scheduler(SchedulerKind::Full).schedule(&b_prog);
        render_phases(out, verbose, &format!("{}/A", b.name), &full_a);
        render_phases(out, verbose, &format!("{}/B", b.name), &full_b);
        let row = vec![
            b.name.to_string(),
            format!("{clang_a:.4}"),
            ratio(Some(clang_a), clang_a),
            ratio(Some(opt_a.seconds()), clang_a),
            ratio(Some(norm_only(&a_prog)), clang_a),
            ratio(Some(full_a.seconds()), clang_a),
            ratio(Some(clang_b), clang_a),
            ratio(Some(opt_b.seconds()), clang_a),
            ratio(Some(norm_only(&b_prog)), clang_a),
            ratio(Some(full_b.seconds()), clang_a),
        ];
        rows.push(row);
    }
    render_table(
        out,
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
        &rows,
    );
    let _ = writeln!(
        out,
        "\nBoth normalization and transfer tuning are required for consistently low runtimes;"
    );
    let _ = writeln!(
        out,
        "without normalization the database recipes fail to apply to the B variants."
    );
}

// --------------------------------------------------------------------------
// Figure 9
// --------------------------------------------------------------------------

/// Figure 9: the NPBench (Python) variants optimized by daisy (with and
/// without normalization) compared against the NumPy, Numba and DaCe
/// framework models. Runtimes are normalized to daisy (lower is better).
pub fn fig9_python_frameworks(ctx: &mut ReproContext, out: &mut String) {
    let dataset = ctx.dataset();
    let machine = MachineConfig::xeon_e5_2680v3();
    ctx.scheduler(SchedulerKind::Full);
    ctx.scheduler(SchedulerKind::NoNormalize);

    let mut rows = Vec::new();
    for b in all_benchmarks() {
        let (py_prog, ops) = (b.py)(dataset);
        let daisy_t = ctx
            .scheduler(SchedulerKind::Full)
            .schedule(&py_prog)
            .seconds();
        let daisy_wo = ctx
            .scheduler(SchedulerKind::NoNormalize)
            .schedule(&py_prog)
            .seconds();
        let frameworks = python_framework_times(&py_prog, &ops, &machine, THREADS);
        rows.push(vec![
            b.name.to_string(),
            format!("{daisy_t:.4}"),
            ratio(Some(daisy_t), daisy_t),
            ratio(Some(daisy_wo), daisy_t),
            ratio(Some(frameworks.numpy), daisy_t),
            ratio(Some(frameworks.numba), daisy_t),
            ratio(Some(frameworks.dace), daisy_t),
        ]);
    }
    render_table(
        out,
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
        &rows,
    );
}

// --------------------------------------------------------------------------
// Figure 11
// --------------------------------------------------------------------------

/// The four CLOUDSC proxy versions at the given sizes: Fortran, C, DaCe and
/// daisy ([`daisy_model`]).
pub fn cloudsc_versions(sizes: CloudscSizes) -> Vec<(&'static str, Program)> {
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
pub fn fig11_cloudsc_full(ctx: &TraceContext, out: &mut String) {
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
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|(name, r)| {
            vec![
                name.to_string(),
                format!("{:.3}", r.seconds),
                ratio(Some(r.seconds), baseline),
                format!("{:.1}", r.flops_per_second() / 1e9),
            ]
        })
        .collect();
    render_table(
        out,
        &format!(
            "Figure 11: CLOUDSC sequential execution, roofline at run sizes (NPROMA={}, NBLOCKS={})",
            sizes.nproma, sizes.nblocks
        ),
        &["version", "seconds", "normalized", "GFLOP/s"],
        &rows,
    );
    let daisy_seconds = reports[3].1.seconds;
    let _ = writeln!(
        out,
        "\ndaisy vs hand-tuned Fortran: {:.1}% faster",
        100.0 * (baseline - daisy_seconds) / baseline
    );
    let peak = sequential.machine().peak_flops_per_core() / 1e9;
    let _ = writeln!(
        out,
        "peak (1 core, FMA+AVX): {:.1} GFLOP/s; Fortran reaches {:.1}%, daisy {:.1}% of peak",
        peak,
        100.0 * reports[0].1.flops_per_second() / 1e9 / peak,
        100.0 * reports[3].1.flops_per_second() / 1e9 / peak
    );

    // Since PR 5 the run-compressed simulator sustains multi-block
    // full-model traces, so every Fig. 11 schedule point is backed by the
    // exact simulated access stream, not only the analytical model.
    // Throughput divides what the replicas streamed, not the logical
    // accesses their classes stand for.
    let mut shards = 0;
    let mut classes = Vec::new();
    let rows: Vec<Vec<String>> = ctx
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
                    format!("{:.1}", s * 1e3),
                    format!("{:.0}", stats.streamed_accesses() as f64 / s / 1e6),
                ),
                None => ("-".to_string(), "-".to_string()),
            };
            vec![
                name.to_string(),
                stats.accesses().to_string(),
                sim_ms,
                macc,
                format!("{:.1}%", 100.0 * stats.l1().hit_rate()),
                stats.l1().loads.to_string(),
            ]
        })
        .collect();
    render_table(
        out,
        &format!(
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
        &rows,
    );
    render_trace_sharding(out, "\ntrace sharding", ctx, shards, &classes);
}

/// The block count the paper's full CLOUDSC experiments sweep
/// (`NBLOCKS = 4096`, ~1.6B accesses per schedule point at paper
/// NPROMA/KLEV) — sustained by the block-sharded parallel simulator.
pub const FULL_TRACE_NBLOCKS: i64 = 4096;

/// Renders the sharding configuration of a trace-backed figure section:
/// block count, the shards of each trace's plan, how many of them each
/// version actually simulated (its classes), and the requested/effective
/// simulation worker counts (the pool fans out classes, so it clamps to
/// the most any version had).
fn render_trace_sharding(
    out: &mut String,
    label: &str,
    ctx: &TraceContext,
    shards: usize,
    classes: &[(&str, usize)],
) {
    let sim_workers = ctx.options().sim_workers;
    let per_version: Vec<String> = classes
        .iter()
        .map(|(name, count)| format!("{name} {count}"))
        .collect();
    let most = classes.iter().map(|&(_, count)| count).max().unwrap_or(0);
    let _ = writeln!(
        out,
        "{label}: NBLOCKS={}, {shards} shards, classes {}, sim-workers={sim_workers} (effective {})",
        ctx.trace_sizes().nblocks,
        per_version.join(", "),
        effective_workers(sim_workers, most),
    );
}

// --------------------------------------------------------------------------
// Figure 12
// --------------------------------------------------------------------------

/// Figure 12: strong scaling (fixed workload, 1-12 threads) and weak
/// scaling (workload grows with the thread count) of the CLOUDSC proxy for
/// the Fortran, C, DaCe and daisy versions.
pub fn fig12_cloudsc_scaling(ctx: &TraceContext, out: &mut String) {
    let programs = cloudsc_versions(ctx.options().sizes());
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 6, 8, 10, 12] {
        let model = paper_machine_model(threads);
        let times: Vec<f64> = programs
            .iter()
            .map(|(_, p)| model.estimate(p).seconds)
            .collect();
        let gain = 100.0 * (times[0] - times[3]) / times[0];
        rows.push(vec![
            threads.to_string(),
            format!("{:.3}", times[0]),
            format!("{:.3}", times[1]),
            format!("{:.3}", times[2]),
            format!("{:.3}", times[3]),
            format!("{gain:.2}%"),
        ]);
    }
    render_table(
        out,
        "Figure 12a: strong scaling (seconds per run)",
        &[
            "threads",
            "Fortran",
            "C",
            "DaCe",
            "daisy",
            "daisy vs Fortran",
        ],
        &rows,
    );

    // The weak-scaling workload list; a smoke run shrinks the column
    // counts 64x so the whole figure stays CI-sized.
    let scale = if ctx.options().smoke { 64 } else { 1 };
    let mut rows = Vec::new();
    for (columns, threads) in [(65536i64, 1usize), (131072, 2), (262144, 4), (524288, 8)] {
        let sizes = CloudscSizes::with_columns(columns / scale);
        let programs = cloudsc_versions(sizes);
        let model = paper_machine_model(threads);
        let times: Vec<f64> = programs
            .iter()
            .map(|(_, p)| model.estimate(p).seconds)
            .collect();
        let gain = 100.0 * (times[0] - times[3]) / times[0];
        rows.push(vec![
            format!("{} / {threads}", columns / scale),
            format!("{:.3}", times[0]),
            format!("{:.3}", times[1]),
            format!("{:.3}", times[2]),
            format!("{:.3}", times[3]),
            format!("{gain:.2}%"),
        ]);
    }
    render_table(
        out,
        "Figure 12b: weak scaling (seconds per run)",
        &[
            "columns/threads",
            "Fortran",
            "C",
            "DaCe",
            "daisy",
            "daisy vs Fortran",
        ],
        &rows,
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
    let _ = writeln!(
        out,
        "\ndaisy trace per schedule point (NBLOCKS={}): {} accesses {source}, L1 hit rate {:.1}%",
        ctx.trace_sizes().nblocks,
        trace.accesses(),
        100.0 * trace.l1().hit_rate()
    );
    render_trace_sharding(
        out,
        "trace sharding",
        ctx,
        trace.shards(),
        &[(name, trace.classes())],
    );
}

// --------------------------------------------------------------------------
// Table 1
// --------------------------------------------------------------------------

/// The Table 1 CLOUDSC erosion workloads at the given sizes: the nests the
/// cold/warm equivalence guarantee is checked on.
pub fn table1_workloads(sizes: CloudscSizes) -> Vec<(&'static str, Program)> {
    vec![
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
pub fn table1_cloudsc_erosion(ctx: &ReproContext, out: &mut String) {
    let sizes = ctx.options().sizes();
    let model = paper_machine_model(1);

    let original_single = erosion_single_level(sizes, false);
    let optimized_single = erosion_single_level(sizes, true);
    let original_full = erosion_original(sizes);
    let optimized_full = erosion_optimized(sizes);

    let t = |p: &Program| model.estimate(p).seconds * 1000.0;
    // The single-level nests have a one-trip top-level loop, so the sharded
    // driver runs them as one covering shard: counters exactly match the
    // monolithic simulation at any worker count.
    // `(l1_loads, l1_evicts, accesses)` per nest.
    let cache = |p: &Program| -> (u64, u64, u64) {
        let stats = simulate_cache_sharded(p, model.machine(), 0).expect("trace runs");
        (stats.l1().loads, stats.l1().evicts, stats.accesses())
    };
    let orig_cache = cache(&original_single);
    let opt_cache = cache(&optimized_single);

    let rows = vec![
        vec![
            "Single Iteration [ms]".to_string(),
            format!("{:.3}", t(&original_single)),
            format!("{:.3}", t(&optimized_single)),
        ],
        vec![
            "KLEV Iterations [ms]".to_string(),
            format!("{:.3}", t(&original_full)),
            format!("{:.3}", t(&optimized_full)),
        ],
        vec![
            "L1 Loads (single iteration)".to_string(),
            format!("{}", orig_cache.0),
            format!("{}", opt_cache.0),
        ],
        vec![
            "L1 Evicts (single iteration)".to_string(),
            format!("{}", orig_cache.1),
            format!("{}", opt_cache.1),
        ],
        vec![
            "L1 accesses (single iteration)".to_string(),
            format!("{}", orig_cache.2),
            format!("{}", opt_cache.2),
        ],
    ];
    render_table(
        out,
        &format!(
            "Table 1: erosion of clouds, NPROMA={}, KLEV={}",
            sizes.nproma, sizes.klev
        ),
        &["metric", "Original", "Optimized"],
        &rows,
    );
    let _ = writeln!(
        out,
        "\nruntime speedup: single iteration {:.2}x, KLEV iterations {:.2}x",
        t(&original_single) / t(&optimized_single),
        t(&original_full) / t(&optimized_full)
    );
    let _ = writeln!(
        out,
        "note: the paper's lower L1 load/evict counts stem from removed register spills,"
    );
    let _ = writeln!(out, "which the IR-level cache simulation cannot observe.");
}

// --------------------------------------------------------------------------
// Cold/warm equivalence
// --------------------------------------------------------------------------

/// One scheduler configuration's cold/warm comparison.
#[derive(Debug, Clone)]
pub struct EquivalenceReport {
    /// Which scheduler configuration was compared.
    pub kind: SchedulerKind,
    /// Entries in the (deduped) database.
    pub entries: usize,
    /// Workloads scheduled by both sides.
    pub outcomes_checked: usize,
    /// Workloads whose [`ScheduleOutcome`]s were bit-identical.
    pub outcomes_identical: usize,
    /// True when databases and every outcome matched exactly.
    pub identical: bool,
}

/// The workloads cold/warm equivalence is checked on: the Table 1 CLOUDSC
/// erosion nests plus the A and B variants of every PolyBench benchmark.
pub fn equivalence_workloads(dataset: Dataset, sizes: CloudscSizes) -> Vec<(String, Program)> {
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

/// Verifies the cold/warm equivalence guarantee for one scheduler kind: a
/// scheduler warm-started from the persisted store must hold the identical
/// database and produce bit-identical [`ScheduleOutcome`]s to a freshly
/// seeded one on every equivalence workload.
///
/// # Errors
/// A message when the store directory is missing from the options or the
/// store cannot be loaded.
pub fn verify_cold_warm(
    options: &ReproOptions,
    kind: SchedulerKind,
) -> Result<EquivalenceReport, String> {
    let ctx = ReproContext::new(options.clone());
    let cold = daisy_seeded_from_a_variants(ctx.dataset(), kind.config());
    verify_scheduler_against_store(&cold, options, kind)
}

/// Like [`verify_cold_warm`], but against an already cold-seeded scheduler
/// — for callers (a cold `reproduce --verify` run) that just paid for
/// seeding and must not pay again.
///
/// # Errors
/// A message when the store directory is missing from the options or the
/// store cannot be loaded.
pub fn verify_scheduler_against_store(
    cold: &DaisyScheduler,
    options: &ReproOptions,
    kind: SchedulerKind,
) -> Result<EquivalenceReport, String> {
    let ctx = ReproContext::new(options.clone());
    let path = ctx
        .store_path(kind)
        .ok_or_else(|| "cold/warm verification needs --store".to_string())?;

    let mut warm = DaisyScheduler::new(kind.config());
    warm.warm_start(&path)
        .map_err(|e| format!("warm start from {} failed: {e}", path.display()))?;

    let mut identical = warm.database().entries() == cold.database().entries();
    if !identical {
        eprintln!(
            "verify[{}]: databases differ (cold {} entries, warm {})",
            kind.stem(),
            cold.database().len(),
            warm.database().len()
        );
    }
    let workloads = equivalence_workloads(ctx.dataset(), options.sizes());
    let mut outcomes_identical = 0;
    for (name, program) in &workloads {
        let cold_outcome: ScheduleOutcome = cold.schedule(program);
        let warm_outcome = warm.schedule(program);
        if cold_outcome == warm_outcome {
            outcomes_identical += 1;
        } else {
            identical = false;
            eprintln!("verify[{}]: outcome mismatch on {name}", kind.stem());
        }
    }
    Ok(EquivalenceReport {
        kind,
        entries: cold.database().len(),
        outcomes_checked: workloads.len(),
        outcomes_identical,
        identical,
    })
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
        assert_eq!(ctx.events()[0].mode, "cold");
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

        let mut warm = ReproContext::new(smoke_options(Some(dir.clone()), true));
        let warm_db = warm.scheduler(SchedulerKind::Full).database().entries();
        assert_eq!(warm_db, cold_entries.as_slice());
        assert_eq!(warm.events()[0].mode, "warm");

        let report = verify_cold_warm(&smoke_options(Some(dir.clone()), true), SchedulerKind::Full)
            .expect("store exists");
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
        assert_eq!(ctx.events()[0].mode, "cold");
        // The fallback also persists, so the next warm run hits.
        assert!(ctx.store_path(SchedulerKind::Full).unwrap().exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}

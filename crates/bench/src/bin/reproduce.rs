//! `reproduce` — the unified reproduction driver: every figure and table of
//! the paper behind one entry point, with shared warm-start flags for the
//! persistent tuning store.
//!
//! The figures run on two lanes that share nothing but the options. The
//! schedule lane (`fig1`, `table1`, `fig6`, `fig7`, `fig9`) runs on the
//! main thread and shares the lazily seeded schedulers; the trace lane
//! (`fig11`, `fig12`) runs on a scoped thread beside it and shares the
//! simulated CLOUDSC traces, so Fig. 12b's schedule point reuses the daisy
//! trace Fig. 11 simulated. `--sim-workers` sizes the trace
//! lane's shard pool; the schedule lane keeps running next to that pool.
//! Each figure returns its tables, which render into a buffer of its own,
//! and the buffers print in paper order once both lanes finished, so stdout is the same as a
//! one-after-another run apart from host timings. `--only` leaves a lane
//! empty when it selects none of its figures.
//!
//! ```text
//! reproduce [--smoke] [--store DIR] [--warm] [--verify] [--only LIST] [--list]
//!           [--profile OUT.json] [--sim-workers N]
//!
//!   --smoke       tiny problem sizes (Dataset::Mini, CloudscSizes::mini());
//!                 the CI configuration, finishes in seconds
//!   --sim-workers N
//!                 worker threads for the sharded cache simulation behind
//!                 the trace figures (N >= 1; default: the machine's
//!                 available parallelism); counters are bit-identical at
//!                 any value, so this only changes wall clock. The pool
//!                 runs beside the schedule lane, not instead of it
//!   --profile F   record a telemetry profile of the whole run — spans,
//!                 counters and latency histograms across the scheduler,
//!                 the cache simulator and the tuning store — to F as
//!                 JSON lines, and print the aggregate span tree (one
//!                 `figure.<name>` root per figure, opened on the lane
//!                 that runs it, with each `schedule` call's normalize /
//!                 seed / search / cost phases under it); inspect or diff
//!                 the file with daisyprof
//!   --store DIR   persist cold-seeded tuning databases under DIR
//!                 (<DIR>/daisy-<config>-<dataset>.tunedb)
//!   --warm        warm-start schedulers from the store instead of seeding
//!                 (falls back to cold seeding + persist on a miss)
//!   --verify      after the run, check the cold/warm equivalence
//!                 guarantee for every scheduler configuration the run
//!                 used: bit-identical databases and ScheduleOutcomes on
//!                 the Table 1 CLOUDSC workloads and all PolyBench A/B
//!                 variants (a cold run's scheduler doubles as the
//!                 reference; a warm run seeds a fresh cold one); exits 1
//!                 on any mismatch
//!   --only LIST   comma-separated subset of figures, e.g. fig6,table1
//!   --list        print the known figure names and exit
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bench::figures::{
    fig11_cloudsc_full, fig12_cloudsc_scaling, fig1_gemm_variants, fig6_autoschedulers,
    fig7_ablation, fig9_python_frameworks, table1_cloudsc_erosion, ReproContext, ReproOptions,
    TraceContext,
};
use bench::Table;

/// One reproduction target: its `--only` name, the telemetry span it runs
/// under, and its harness on the lane that runs it.
struct Figure {
    name: &'static str,
    span: &'static str,
    lane: Lane,
}

/// The lane a figure runs on, with its harness: the schedule lane shares the
/// run's schedulers, the trace lane the simulated CLOUDSC traces.
enum Lane {
    Schedule(fn(&mut ReproContext) -> Vec<Table>),
    Trace(fn(&mut TraceContext) -> Vec<Table>),
}
use Lane::{Schedule, Trace};

/// The reproduction targets, in paper order. Adding a figure adds a line.
#[rustfmt::skip]
const FIGURES: [Figure; 7] = [
    Figure { name: "fig1",   span: "figure.fig1",   lane: Schedule(fig1_gemm_variants) },
    Figure { name: "table1", span: "figure.table1", lane: Schedule(table1_cloudsc_erosion) },
    Figure { name: "fig6",   span: "figure.fig6",   lane: Schedule(fig6_autoschedulers) },
    Figure { name: "fig7",   span: "figure.fig7",   lane: Schedule(fig7_ablation) },
    Figure { name: "fig9",   span: "figure.fig9",   lane: Schedule(fig9_python_frameworks) },
    Figure { name: "fig11",  span: "figure.fig11",  lane: Trace(fig11_cloudsc_full) },
    Figure { name: "fig12",  span: "figure.fig12",  lane: Trace(fig12_cloudsc_scaling) },
];

struct Args {
    options: ReproOptions,
    verify: bool,
    only: Option<Vec<String>>,
    profile: Option<PathBuf>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut options = ReproOptions::default();
    let mut verify = false;
    let mut only = None;
    let mut profile = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => options.smoke = true,
            "--warm" => options.warm = true,
            "--verify" => verify = true,
            "--store" => {
                let dir = args.next().ok_or("--store needs a directory")?;
                options.store = Some(PathBuf::from(dir));
            }
            "--profile" => {
                let path = args.next().ok_or("--profile needs an output path")?;
                profile = Some(PathBuf::from(path));
            }
            "--sim-workers" => {
                let n = args.next().ok_or("--sim-workers needs a worker count")?;
                options.sim_workers = match n.parse::<usize>() {
                    Ok(workers) if workers >= 1 => workers,
                    _ => {
                        return Err(format!(
                            "--sim-workers needs a worker count >= 1, got {n:?}"
                        ))
                    }
                };
            }
            "--only" => {
                let list = args.next().ok_or("--only needs a figure list")?;
                let names: Vec<String> = list.split(',').map(|s| s.trim().to_string()).collect();
                for name in &names {
                    if !FIGURES.iter().any(|figure| figure.name == name) {
                        let valid: Vec<&str> = FIGURES.iter().map(|figure| figure.name).collect();
                        return Err(format!(
                            "unknown target '{name}' (valid targets: {})",
                            valid.join(", ")
                        ));
                    }
                }
                only = Some(names);
            }
            "--list" => {
                for figure in &FIGURES {
                    println!("{}", figure.name);
                }
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if options.warm && options.store.is_none() {
        return Err("--warm needs --store".to_string());
    }
    if verify && options.store.is_none() {
        return Err("--verify needs --store".to_string());
    }
    Ok(Some(Args {
        options,
        verify,
        only,
        profile,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("reproduce: {e}");
            return ExitCode::from(2);
        }
    };

    // With --profile, every span and counter of the run aggregates into one
    // in-memory recorder; the figures themselves are unaware of it.
    let recorder = args
        .profile
        .as_ref()
        .map(|_| std::sync::Arc::new(telemetry::AggregatingRecorder::default()));
    if let Some(recorder) = &recorder {
        telemetry::install(recorder.clone());
    }
    let code = run_figures(&args);
    if let (Some(path), Some(recorder)) = (&args.profile, &recorder) {
        telemetry::uninstall();
        let profile = recorder.profile("reproduce");
        if let Err(e) = std::fs::write(path, profile.to_json_lines()) {
            eprintln!("reproduce: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("\n================ profile ================");
        print!("{}", profile.render_tree());
        println!("profile written to {}", path.display());
    }
    code
}

fn run_figures(args: &Args) -> ExitCode {
    let selected: Vec<&Figure> = FIGURES
        .iter()
        .filter(|figure| {
            args.only
                .as_ref()
                .is_none_or(|names| names.iter().any(|n| n == figure.name))
        })
        .collect();

    let start = Instant::now();
    let mut ctx = ReproContext::new(args.options.clone());
    let sections = std::thread::scope(|scope| {
        let trace = scope.spawn(|| {
            let mut trace_ctx = TraceContext::new(args.options.clone());
            run_lane(&selected, &mut trace_ctx, |lane| match lane {
                Trace(figure) => Some(*figure),
                Schedule(_) => None,
            })
        });
        let schedule = run_lane(&selected, &mut ctx, |lane| match lane {
            Schedule(figure) => Some(*figure),
            Trace(_) => None,
        });
        let trace = trace
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        // Each figure ran on exactly one of the two lanes.
        schedule
            .into_iter()
            .zip(trace)
            .flat_map(|(schedule, trace)| schedule.or(trace))
            .collect::<Vec<String>>()
    });
    for (figure, text) in selected.iter().zip(sections) {
        println!("\n================ {} ================", figure.name);
        print!("{text}");
    }

    println!("\n================ summary ================");
    for event in ctx.events() {
        let store = event
            .store
            .as_ref()
            .map(|p| format!(" ({})", p.display()))
            .unwrap_or_default();
        println!(
            "scheduler {:>6}: {} database, {} entries in {:.3}s{store}",
            event.kind.stem(),
            if event.warm { "warm" } else { "cold" },
            event.entries,
            event.seconds
        );
    }
    println!("total wall clock: {:.3}s", start.elapsed().as_secs_f64());

    if args.verify {
        println!("\n================ cold/warm verification ================");
        // Verify exactly the scheduler configurations this run used (an
        // --only subset may have used none, or just one).
        if ctx.events().is_empty() {
            println!("the selected figures used no schedulers; nothing to verify");
            return ExitCode::SUCCESS;
        }
        let mut ok = true;
        for kind in ctx.events().iter().map(|event| event.kind) {
            match ctx.verify(kind) {
                Ok(report) => {
                    println!(
                        "verify {:>6}: {} entries, {}/{} outcomes bit-identical -> {}",
                        kind.stem(),
                        report.entries,
                        report.outcomes_identical,
                        report.outcomes_checked,
                        if report.identical { "OK" } else { "MISMATCH" }
                    );
                    ok &= report.identical;
                }
                Err(e) => {
                    eprintln!("verify {:>6}: {e}", kind.stem());
                    ok = false;
                }
            }
        }
        if !ok {
            eprintln!("reproduce: cold/warm equivalence FAILED");
            return ExitCode::FAILURE;
        }
        println!("cold/warm equivalence holds");
    }
    ExitCode::SUCCESS
}

/// Runs the selected figures that `harness` places on this lane, in order,
/// each under its `figure.<name>` span; returns each selected figure's
/// rendered tables, `None` where the figure runs on the other lane.
fn run_lane<C>(
    figures: &[&Figure],
    ctx: &mut C,
    harness: impl Fn(&Lane) -> Option<fn(&mut C) -> Vec<Table>>,
) -> Vec<Option<String>> {
    figures
        .iter()
        .map(|figure| {
            let run = harness(&figure.lane)?;
            let _span = telemetry::span(figure.span);
            Some(run(ctx).iter().map(Table::to_string).collect())
        })
        .collect()
}

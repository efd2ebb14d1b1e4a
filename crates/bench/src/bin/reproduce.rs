//! `reproduce` — the unified reproduction driver: every figure and table of
//! the paper behind one entry point, with shared warm-start flags for the
//! persistent tuning store.
//!
//! The figures run on two lanes that share nothing but the options. The
//! schedule lane (`fig1`, `table1`, `fig6`, `fig7`, `fig9`) runs on the
//! main thread and shares the lazily seeded schedulers; the trace lane
//! (`fig11`, `fig12`) runs on a scoped thread beside it and shares the
//! CLOUDSC trace model, so Fig. 12b's schedule point stays a
//! simulation-memo hit after Fig. 11. `--sim-workers` sizes the trace
//! lane's shard pool; the schedule lane keeps running next to that pool.
//! Each figure renders into its own buffer, and the buffers print in paper
//! order once both lanes finished, so stdout is the same as a
//! one-after-another run apart from host timings. `--only` leaves a lane
//! empty when it selects none of its figures.
//!
//! ```text
//! reproduce [--smoke] [--store DIR] [--warm] [--verify] [--only LIST] [--list]
//!           [--verbose] [--profile OUT.json] [--sim-workers N]
//!
//!   --smoke       tiny problem sizes (Dataset::Mini, CloudscSizes::mini());
//!                 the CI configuration, finishes in seconds
//!   --sim-workers N
//!                 worker threads for the sharded cache simulation behind
//!                 the trace figures (N >= 1; default: the machine's
//!                 available parallelism); counters are bit-identical at
//!                 any value, so this only changes wall clock. The pool
//!                 runs beside the schedule lane, not instead of it
//!   --verbose     print the per-phase wall clock (normalize / seed /
//!                 search / cost) of every schedule the figures run
//!   --profile F   record a telemetry profile of the whole run — spans,
//!                 counters and latency histograms across the scheduler,
//!                 the cache simulator and the tuning store — to F as
//!                 JSON lines, and print the aggregate span tree (one
//!                 `figure.<name>` root per figure, opened on the lane
//!                 that runs it); inspect or diff the file with daisyprof
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
    fig7_ablation, fig9_python_frameworks, table1_cloudsc_erosion, verify_cold_warm,
    verify_scheduler_against_store, ReproContext, ReproOptions, TraceContext,
};

/// The reproduction targets, in paper order.
const FIGURES: [&str; 7] = ["fig1", "table1", "fig6", "fig7", "fig9", "fig11", "fig12"];

/// How many of [`FIGURES`] run on the schedule lane; the rest, the CLOUDSC
/// case study that closes the paper, run on the trace lane. So the schedule
/// lane's sections followed by the trace lane's are in paper order.
const SCHEDULE_LANE: usize = 5;

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
            "--verbose" => options.verbose = true,
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
                    if !FIGURES.contains(&name.as_str()) {
                        return Err(format!(
                            "unknown target '{name}' (valid targets: {})",
                            FIGURES.join(", ")
                        ));
                    }
                }
                only = Some(names);
            }
            "--list" => {
                for name in FIGURES {
                    println!("{name}");
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
    let selected = |name: &str| {
        args.only
            .as_ref()
            .map(|names| names.iter().any(|n| n == name))
            .unwrap_or(true)
    };

    let (schedule_lane, trace_lane) = FIGURES.split_at(SCHEDULE_LANE);
    let start = Instant::now();
    let mut ctx = ReproContext::new(args.options.clone());
    let sections = std::thread::scope(|scope| {
        let trace = scope.spawn(|| {
            let trace_ctx = TraceContext::new(args.options.clone());
            run_lane(trace_lane, selected, |name, out| match name {
                "fig11" => fig11_cloudsc_full(&trace_ctx, out),
                "fig12" => fig12_cloudsc_scaling(&trace_ctx, out),
                _ => unreachable!("FIGURES and the trace dispatch table are in sync"),
            })
        });
        let mut sections = run_lane(schedule_lane, selected, |name, out| match name {
            "fig1" => fig1_gemm_variants(&ctx, out),
            "table1" => table1_cloudsc_erosion(&ctx, out),
            "fig6" => fig6_autoschedulers(&mut ctx, out),
            "fig7" => fig7_ablation(&mut ctx, out),
            "fig9" => fig9_python_frameworks(&mut ctx, out),
            _ => unreachable!("FIGURES and the schedule dispatch table are in sync"),
        });
        let trace = trace
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        sections.extend(trace);
        sections
    });
    for (name, text) in sections {
        println!("\n================ {name} ================");
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
            event.mode,
            event.entries,
            event.seconds
        );
    }
    println!("total wall clock: {:.3}s", start.elapsed().as_secs_f64());

    if args.verify {
        println!("\n================ cold/warm verification ================");
        // Verify exactly the scheduler configurations this run used (an
        // --only subset may have used none, or just one): a cold run's
        // scheduler doubles as the verification reference, a warm run
        // seeds a fresh cold reference to compare against the store.
        let used: Vec<_> = ctx
            .events()
            .iter()
            .map(|e| (e.kind, e.mode))
            .collect::<Vec<_>>();
        if used.is_empty() {
            println!("the selected figures used no schedulers; nothing to verify");
            return ExitCode::SUCCESS;
        }
        let mut ok = true;
        for (kind, mode) in used {
            let result = if mode == "cold" {
                verify_scheduler_against_store(ctx.scheduler(kind), &args.options, kind)
            } else {
                verify_cold_warm(&args.options, kind)
            };
            match result {
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

/// Runs the selected figures of one lane in order, each under a
/// `figure.<name>` span and into a buffer of its own; returns every figure's
/// name with its text.
fn run_lane(
    names: &[&'static str],
    selected: impl Fn(&str) -> bool,
    mut figure: impl FnMut(&str, &mut String),
) -> Vec<(&'static str, String)> {
    names
        .iter()
        .filter(|name| selected(name))
        .map(|&name| {
            let _span = telemetry::span(figure_span(name));
            let mut out = String::new();
            figure(name, &mut out);
            (name, out)
        })
        .collect()
}

/// The telemetry span a figure runs under.
fn figure_span(name: &str) -> &'static str {
    match name {
        "fig1" => "figure.fig1",
        "table1" => "figure.table1",
        "fig6" => "figure.fig6",
        "fig7" => "figure.fig7",
        "fig9" => "figure.fig9",
        "fig11" => "figure.fig11",
        "fig12" => "figure.fig12",
        _ => unreachable!("FIGURES and the span table are in sync"),
    }
}

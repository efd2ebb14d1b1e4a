//! `benchmark suite`: a whole set of runs in one file, the input of
//! `benchmark compare`.
//!
//! The untraced runs of the four workloads are interleaved round-robin, one
//! seed per round, so slow drift of the machine hits all workloads alike;
//! one traced run of each follows. Every run is a process of its own, as
//! under the driver. The file is JSON lines: an `environment` record, one
//! record per run holding the run's result object, and a closing
//! `environment_end` record.

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use telemetry::json::json_string;

use crate::spec::WORKLOADS;
use crate::{common_config, Fatal, Options};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn main(mut options: Options) -> Result<ExitCode, Fatal> {
    let runs: u64 = options.parsed("--runs")?.unwrap_or(10);
    let out = options.value("--out")?;
    let cfg = common_config(&mut options)?;
    options.finish()?;
    let out = out.map_or_else(|| cfg.out_dir.join("results.jsonl"), Into::into);
    let io = |e: std::io::Error| Fatal(format!("{}: {e}", out.display()));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut file = std::fs::File::create(&out).map_err(io)?;
    writeln!(
        file,
        "{{\"environment\": {{\"commit\": {}, \"rustc\": {}, \"cores_available\": {}, \
         \"workers\": {}, \"seed\": {}, \"runs\": {runs}, \"seconds\": {}, \"smoke\": {}, \
         \"loadavg_1m\": {}}}}}",
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
        json_string(&command_line("rustc", &["-V"])),
        cfg.cores,
        cfg.workers,
        cfg.seed,
        cfg.seconds,
        cfg.smoke,
        load_average()
    )
    .map_err(io)?;

    let exe = std::env::current_exe().map_err(|e| Fatal(format!("own executable: {e}")))?;
    let untraced = (0..runs).flat_map(|round| WORKLOADS.map(|w| (w, cfg.seed + round, 0)));
    let traced = WORKLOADS.map(|w| (w, cfg.seed, 1));
    let mut all_correct = true;
    for (workload, seed, trace) in untraced.chain(traced) {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", &trace.to_string()])
            .arg("--out-dir")
            .arg(&cfg.out_dir);
        if let Some(path) = &cfg.reproduce_bin {
            command.arg("--reproduce-bin").arg(path);
        }
        if cfg.smoke {
            command.arg("--smoke");
        }
        let output = command
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| Fatal(format!("spawning {}: {e}", exe.display())))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let result = stdout.lines().last().unwrap_or("null");
        all_correct &= output.status.success();
        writeln!(
            file,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
             \"exit\": {}, \"result\": {result}}}",
            output.status.code().unwrap_or(-1)
        )
        .map_err(io)?;
    }
    writeln!(
        file,
        "{{\"environment_end\": {{\"loadavg_1m\": {}}}}}",
        load_average()
    )
    .map_err(io)?;
    eprintln!("benchmark: run set written to {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

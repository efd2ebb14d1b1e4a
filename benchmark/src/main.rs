//! The repo's one benchmark: four workloads over the normalize -> schedule ->
//! price pipeline, end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//!           [--reproduce-bin PATH] [--out-dir DIR]
//!     one run; the last line of standard output is the result object
//! benchmark suite [--runs N] [--seed N] [--seconds S] [--smoke] [--out FILE] ...
//!     N untraced runs of every workload, interleaved round-robin, then one
//!     traced run of each; the result lines go to FILE
//! benchmark compare A B [--spec BENCHMARK.json]
//!     holds run set B against run set A under the bounds of the spec
//! ```
//!
//! Exit status: 0 when every checked operation passed, 1 when one failed or
//! `compare` found a regression, 2 on a usage or environment error.

mod clock;
mod compare;
mod run;
mod spec;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Config, Run};

/// A usage or environment error: one line on stderr, exit status 2.
pub struct Fatal(pub String);

/// `--name value` pairs and bare flags after the subcommand.
pub struct Options(Vec<String>);

impl Options {
    /// Removes every `--name value` and returns the first value: run.sh
    /// appends its defaults after the caller's own options.
    pub fn value(&mut self, name: &str) -> Result<Option<String>, Fatal> {
        let mut first = None;
        while let Some(at) = self.0.iter().position(|a| a == name) {
            if at + 1 >= self.0.len() {
                return Err(Fatal(format!("{name} needs a value")));
            }
            self.0.remove(at);
            let value = self.0.remove(at);
            first.get_or_insert(value);
        }
        Ok(first)
    }

    pub fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, Fatal> {
        match self.value(name)? {
            None => Ok(None),
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| Fatal(format!("{name} cannot be {text:?}"))),
        }
    }

    /// Removes the bare flag `name`; true when it was there.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    /// Removes and returns the next positional argument.
    pub fn positional(&mut self) -> Option<String> {
        let at = self.0.iter().position(|a| !a.starts_with("--"))?;
        Some(self.0.remove(at))
    }

    pub fn finish(self) -> Result<(), Fatal> {
        match self.0.first() {
            None => Ok(()),
            Some(arg) => Err(Fatal(format!("unknown argument {arg:?}"))),
        }
    }
}

/// The options one run and the suite share.
pub fn common_config(options: &mut Options) -> Result<Config, Fatal> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reproduce_bin = match options.value("--reproduce-bin")? {
        Some(path) => Some(PathBuf::from(path)),
        // By default the sibling of this executable: run.sh builds both into
        // one target directory.
        None => std::env::current_exe()
            .ok()
            .map(|exe| exe.with_file_name("reproduce")),
    };
    Ok(Config {
        workload: String::new(),
        seed: options.parsed("--seed")?.unwrap_or(1),
        seconds: options.parsed("--seconds")?.unwrap_or(10.0),
        trace: false,
        smoke: options.flag("--smoke"),
        workers: cores.min(spec::MAX_WORKERS),
        cores,
        reproduce_bin,
        out_dir: options
            .value("--out-dir")?
            .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from),
        corrupt_expected: std::env::var_os("BENCH_CORRUPT_EXPECTED").is_some(),
    })
}

fn one_run(mut options: Options) -> Result<ExitCode, Fatal> {
    let mut cfg = common_config(&mut options)?;
    cfg.workload = options
        .value("--workload")?
        .ok_or_else(|| Fatal("--workload is required".to_string()))?;
    cfg.trace = match options.value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(Fatal(format!("--trace cannot be {other:?}"))),
    };
    options.finish()?;
    if !spec::WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(Fatal(format!(
            "unknown workload {:?} (known: {})",
            cfg.workload,
            spec::WORKLOADS.join(", ")
        )));
    }
    if cfg.workload == "reproduce_paper"
        && !cfg
            .reproduce_bin
            .as_ref()
            .is_some_and(|path| path.is_file())
    {
        return Err(Fatal(format!(
            "the reproduce binary is missing at {:?}; build it with \
             `cargo build --release -p bench --bin reproduce` or run benchmark/run.sh",
            cfg.reproduce_bin
        )));
    }

    let mut run = Run::new(&cfg);
    match cfg.workload.as_str() {
        "reproduce_paper" => workloads::reproduce_paper::run(&mut run),
        "polybench_schedule" => workloads::polybench_schedule::run(&mut run),
        "strided_trace" => workloads::strided_trace::run(&mut run),
        _ => workloads::fuzz_frontend::run(&mut run),
    }
    let result = run.result_json();
    eprintln!(
        "benchmark: {} seed {} trace {} on {} of {} cores: {}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        cfg.workers,
        cfg.cores,
        run.summary()
    );
    println!("{result}");
    Ok(if run.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(Options(args.split_off(1))),
        Some("suite") => suite::main(Options(args.split_off(1))),
        _ => one_run(Options(args)),
    };
    result.unwrap_or_else(|Fatal(message)| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}

//! `daisyfuzz` — the differential fuzz farm CLI.
//!
//! ```text
//! daisyfuzz run --seed 7 --budget 10000 [--json report.json] [--profile prof.json]
//!                                       [--inject exec|panic]
//! daisyfuzz replay <case.loop | --seed N>
//! daisyfuzz corpus promote --seed 7 --budget 500 [--dir fuzz/corpus] [--cap 24]
//! ```
//!
//! `run` executes a campaign and exits non-zero if any oracle disagreed or
//! any engine panicked; failures are shrunk and printed (and written to the
//! `--json` report) with the per-case seed needed to replay them. `replay`
//! re-checks one case — a committed `.loop` file or a generated seed —
//! with the full oracle battery. `corpus promote` runs the generator and
//! graduates programs whose structural feature set the corpus does not
//! cover yet.

use std::process::ExitCode;

use fuzz::campaign::{replay_seed, run_campaign, CampaignConfig, Inject};
use fuzz::corpus::{default_corpus_dir, load_corpus, promote, Promotion};
use fuzz::Verdict;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("daisyfuzz: {message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: daisyfuzz <run|replay|corpus> [options] (see --help)";

const HELP: &str = "\
daisyfuzz — differential fuzz farm for the loop-nest-normalization pipeline

commands:
  run      run a campaign of generated programs through every oracle
             --seed <u64>     campaign seed (default 3405)
             --budget <n>     number of programs (default 1000)
             --json <path>    write the JSON report here
             --profile <path> record a telemetry profile (spans, counters,
                              oracle time breakdown) to this JSON-lines
                              file; inspect it with daisyprof
             --inject <kind>  deliberately inject a fault (exec|panic);
                              used to test the farm itself
  replay   re-check one case with the full oracle battery
             <case.loop>      a corpus file, or
             --seed <u64>     a generated case seed
  corpus   manage the graduating corpus
             promote          generate programs and commit novel shapes
               --seed <u64>   generator seed base (default 3405)
               --budget <n>   programs to consider (default 500)
               --dir <path>   corpus directory (default fuzz/corpus)
               --cap <n>      max corpus files (default 24)

exit status: 0 clean, 1 failures found, 2 usage error";

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(ExitCode::SUCCESS);
    }
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some(other) => Err(format!("unknown command {other:?}; {USAGE}")),
        None => Err(USAGE.to_string()),
    }
}

/// `--flag value` pairs, in order of appearance (last occurrence wins).
type Flags = Vec<(String, String)>;

/// Parses `--flag value` pairs plus positional arguments.
fn parse_flags(args: &[String], known: &[&str]) -> Result<(Flags, Vec<String>), String> {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if !known.contains(&name) {
                return Err(format!("unknown option --{name}; {USAGE}"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("option --{name} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((flags, positional))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn parse_u64(flags: &[(String, String)], name: &str, default: u64) -> Result<u64, String> {
    match flag(flags, name) {
        None => Ok(default),
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("option --{name} needs an unsigned integer, got {v:?}")),
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args, &["seed", "budget", "json", "profile", "inject"])?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument {extra:?}; {USAGE}"));
    }
    let mut config = CampaignConfig {
        seed: parse_u64(&flags, "seed", 0xD4D)?,
        budget: parse_u64(&flags, "budget", 1000)?,
        ..CampaignConfig::default()
    };
    if let Some(kind) = flag(&flags, "inject") {
        config.inject = Some(
            Inject::parse(kind)
                .ok_or_else(|| format!("option --inject needs exec or panic, got {kind:?}"))?,
        );
    }

    let recorder = flag(&flags, "profile")
        .map(|_| std::sync::Arc::new(telemetry::AggregatingRecorder::default()));
    if let Some(recorder) = &recorder {
        telemetry::install(recorder.clone());
    }
    let report = run_campaign(&config);
    if let (Some(path), Some(recorder)) = (flag(&flags, "profile"), &recorder) {
        telemetry::uninstall();
        let profile = recorder.profile(&format!("daisyfuzz run --seed {}", report.seed));
        std::fs::write(path, profile.to_json_lines())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("daisyfuzz run: profile written to {path}");
    }
    let rate = if report.elapsed_secs > 0.0 {
        report.cases as f64 / report.elapsed_secs
    } else {
        0.0
    };
    println!(
        "daisyfuzz run: seed={} cases={}/{} panics_contained={} failures={} ({:.1}s, {rate:.0} cases/s)",
        report.seed,
        report.cases,
        report.budget,
        report.panics_contained,
        report.failures.len(),
        report.elapsed_secs
    );
    for f in &report.failures {
        println!(
            "  case {} (seed {:#018x}): {} {} — {}",
            f.index,
            f.case_seed,
            f.oracle,
            if f.panicked { "PANIC" } else { "MISMATCH" },
            f.detail
        );
        println!(
            "    shrunk in {} steps; replay with: daisyfuzz replay --seed {}",
            f.shrink_steps, f.case_seed
        );
        for line in f.shrunk.lines() {
            println!("    | {line}");
        }
    }
    if let Some(path) = flag(&flags, "json") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("daisyfuzz run: report written to {path}");
    }
    Ok(if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args, &["seed"])?;
    let config = CampaignConfig::default();
    let (label, program, verdict) = match (flag(&flags, "seed"), positional.first()) {
        (Some(_), Some(_)) => {
            return Err(format!("replay takes a file or --seed, not both; {USAGE}"))
        }
        (Some(seed_text), None) => {
            let seed = parse_u64(&flags, "seed", 0)?;
            let (program, verdict) = replay_seed(seed, &config);
            (format!("seed {seed_text}"), program, verdict)
        }
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let program = loop_ir::parser::parse_program(&text)
                .map_err(|e| format!("parsing {path}: {e}"))?;
            let verdict = fuzz::campaign::check_program(&program);
            (path.clone(), program, verdict)
        }
        (None, None) => return Err(format!("replay needs a case file or --seed; {USAGE}")),
    };
    match &verdict {
        Verdict::Pass => {
            println!(
                "daisyfuzz replay: {label} ({}) passed every oracle",
                program.name
            );
            Ok(ExitCode::SUCCESS)
        }
        Verdict::Mismatch { oracle, detail } => {
            println!("daisyfuzz replay: {label} FAILED oracle {oracle}: {detail}");
            Ok(ExitCode::FAILURE)
        }
        Verdict::Panic { oracle, message } => {
            println!("daisyfuzz replay: {label} PANICKED in oracle {oracle}: {message}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_corpus(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("promote") => {}
        Some(other) => return Err(format!("unknown corpus action {other:?}; {USAGE}")),
        None => return Err(format!("corpus needs an action (promote); {USAGE}")),
    }
    let (flags, positional) = parse_flags(&args[1..], &["seed", "budget", "dir", "cap"])?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument {extra:?}; {USAGE}"));
    }
    let base = parse_u64(&flags, "seed", 0xD4D)?;
    let budget = parse_u64(&flags, "budget", 500)?;
    let cap = parse_u64(&flags, "cap", 24)? as usize;
    let dir = flag(&flags, "dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_corpus_dir);

    let config = CampaignConfig::default();
    let mut graduated = 0usize;
    for index in 0..budget {
        let seed = fuzz::case_seed(base, index);
        let program = fuzz::generate(seed, &config.gen);
        match promote(&dir, &program, seed, cap)? {
            Promotion::Graduated(path) => {
                graduated += 1;
                println!("daisyfuzz corpus: graduated {}", path.display());
            }
            Promotion::Covered => {}
            Promotion::Full => {
                println!("daisyfuzz corpus: cap {cap} reached");
                break;
            }
        }
    }
    let total = load_corpus(&dir)?.len();
    println!(
        "daisyfuzz corpus: {graduated} graduated this run, {total} total in {}",
        dir.display()
    );
    Ok(ExitCode::SUCCESS)
}

//! `tunedb` — command-line inspector for persistent tuning stores.
//!
//! ```text
//! tunedb stats  <store>             summary statistics
//! tunedb inspect <store> [limit]    per-entry listing (default 20 entries)
//! tunedb verify <store>             decode + checksum + fingerprint check
//! tunedb merge  <out> <in> [<in>..] merge stores, best cost per key wins
//! tunedb gc     <store>             drop identity recipes / duplicate keys
//! ```
//!
//! A store is one snapshot file; `merge` and `gc` rewrite it with the same
//! atomic save `reproduce --store` uses.
//!
//! Every failure — a missing snapshot path, a corrupt or truncated store, an
//! unwritable output — exits with a non-zero status and a single
//! `tunedb: <path>: <reason>` diagnostic on stderr (never a panic or
//! backtrace), so the binary composes soundly in scripts and CI gates.

use std::process::ExitCode;

use tunestore::{Snapshot, StoreError};

/// A CLI failure: the offending path plus the underlying store error, so the
/// one-line diagnostic always names the file it is about.
struct Failure {
    path: String,
    error: StoreError,
}

type CliResult = Result<(), Failure>;

/// Attaches a path to a [`StoreError`], for `map_err(at(path))`.
fn at(path: &str) -> impl FnOnce(StoreError) -> Failure + '_ {
    move |error| Failure {
        path: path.to_string(),
        error,
    }
}

/// Loads a snapshot, attaching the path to any failure.
fn load(path: &str) -> Result<Snapshot, Failure> {
    Snapshot::load(path).map_err(at(path))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("stats") if args.len() == 2 => stats(&args[1]),
        Some("inspect") if args.len() == 2 || args.len() == 3 => {
            let limit = match args.get(2).map(|s| s.parse::<usize>()) {
                None => 20,
                Some(Ok(limit)) => limit,
                Some(Err(_)) => {
                    eprintln!("tunedb: inspect limit {:?} is not a number", args[2]);
                    return ExitCode::from(2);
                }
            };
            inspect(&args[1], limit)
        }
        Some("verify") if args.len() == 2 => verify(&args[1]),
        Some("merge") if args.len() >= 3 => merge(&args[1], &args[2..]),
        Some("gc") if args.len() == 2 => gc(&args[1]),
        _ => {
            eprintln!(
                "usage:\n  tunedb stats  <store>\n  tunedb inspect <store> [limit]\n  \
                 tunedb verify <store>\n  tunedb merge  <out> <in> [<in>...]\n  \
                 tunedb gc     <store>"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("tunedb: {}: {}", failure.path, failure.error);
            ExitCode::FAILURE
        }
    }
}

fn stats(path: &str) -> CliResult {
    let snapshot = load(path)?;
    let stats = snapshot.stats();
    println!("store:            {path}");
    println!("fingerprint:      {}", snapshot.fingerprint);
    println!("entries:          {}", stats.entries);
    println!("distinct keys:    {}", stats.distinct_keys);
    println!("identity recipes: {}", stats.identity_recipes);
    println!("total steps:      {}", stats.total_steps);
    if let (Some(min), Some(max)) = (stats.min_cost, stats.max_cost) {
        println!("cost range:       {min:.6}s .. {max:.6}s");
    }
    Ok(())
}

fn inspect(path: &str, limit: usize) -> CliResult {
    let snapshot = load(path)?;
    println!(
        "{} entries (fingerprint {}), showing up to {limit}:",
        snapshot.entries.len(),
        snapshot.fingerprint
    );
    for entry in snapshot.entries.iter().take(limit) {
        let chain: Vec<&str> = entry.chain.iter().map(|v| v.as_str()).collect();
        println!(
            "  {:016x}  cost {:.6}s  chain [{}]  {}  <- {}",
            entry.key,
            entry.cost,
            chain.join(", "),
            entry.recipe,
            entry.source
        );
    }
    if snapshot.entries.len() > limit {
        println!("  ... {} more", snapshot.entries.len() - limit);
    }
    Ok(())
}

fn verify(path: &str) -> CliResult {
    // `load` already checks magic, version, both section checksums and
    // decodes every entry; `load_compatible` adds the fingerprint check.
    // Every failure — including a fingerprint mismatch — exits nonzero so
    // `tunedb verify f && use f` is a sound gate in scripts.
    let snapshot = Snapshot::load_compatible(path).map_err(at(path))?;
    println!(
        "{path}: OK ({} entries, fingerprint {})",
        snapshot.entries.len(),
        snapshot.fingerprint
    );
    Ok(())
}

fn merge(out: &str, inputs: &[String]) -> CliResult {
    let mut merged = load(&inputs[0])?;
    println!("{}: {} entries", inputs[0], merged.entries.len());
    for path in &inputs[1..] {
        let other = load(path)?;
        if other.fingerprint != merged.fingerprint {
            return Err(Failure {
                path: path.clone(),
                error: StoreError::FingerprintMismatch {
                    found: other.fingerprint,
                    expected: merged.fingerprint,
                },
            });
        }
        let changed = merged.merge(&other);
        println!(
            "{path}: {} entries, {changed} merged in",
            other.entries.len()
        );
    }
    merged.save(out).map_err(at(out))?;
    println!("{out}: wrote {} entries", merged.entries.len());
    Ok(())
}

fn gc(path: &str) -> CliResult {
    let mut snapshot = load(path)?;
    let before = snapshot.entries.len();
    let removed = snapshot.gc();
    snapshot.save(path).map_err(at(path))?;
    println!(
        "{path}: {before} -> {} entries ({removed} removed)",
        snapshot.entries.len()
    );
    Ok(())
}

//! `benchmark compare A B`: holds run set B against run set A.
//!
//! One row per (metric, workload). An end-to-end metric is `regressed` when
//! B's median is worse than A's by more than the bound `BENCHMARK.json`
//! fixes for it, `unresolved` when the run-to-run spread (interquartile
//! range over median, of either set) is wider than that bound and the two
//! sets' ranges overlap, and `ok` otherwise. Per-layer metrics have no
//! bound: the exact ones are reported `same` or `changed`, the timed ones
//! with their ratio only. Exits 1 on any regression and on any rise in
//! failed operations.

use std::collections::BTreeMap;
use std::process::ExitCode;

use telemetry::json::{self, Json};

use crate::spec::PER_LAYER;
use crate::stats::{median, spread};
use crate::{Fatal, Options};

#[derive(Default)]
struct RunSet {
    /// `(traced, workload, metric)` -> one value per run.
    values: BTreeMap<(bool, String, String), Vec<f64>>,
    /// workload -> failed operations over all its runs.
    failed: BTreeMap<String, u64>,
}

fn load(path: &str) -> Result<RunSet, Fatal> {
    let text = std::fs::read_to_string(path).map_err(|e| Fatal(format!("{path}: {e}")))?;
    let mut set = RunSet::default();
    for (number, line) in text.lines().enumerate() {
        let bad = |what: &str| Fatal(format!("{path}: line {}: {what}", number + 1));
        let record = json::parse(line).map_err(|e| bad(&e))?;
        let Some(workload) = record.get("workload").and_then(Json::as_str) else {
            continue; // an environment record
        };
        let traced = record.get("trace").and_then(Json::as_u64) == Some(1);
        let result = record.get("result").ok_or_else(|| bad("no result"))?;
        let failed = result
            .get("failed")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("the run printed no result"))?;
        *set.failed.entry(workload.to_string()).or_default() += failed;
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(bad("no metrics"));
        };
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("a metric without a value"))?;
            set.values
                .entry((traced, workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// `name -> (lower is better, bound)` of the spec's end-to-end metrics.
fn bounds(path: &str) -> Result<BTreeMap<String, (bool, f64)>, Fatal> {
    let bad = |what: &str| Fatal(format!("{path}: {what}"));
    let text = std::fs::read_to_string(path).map_err(|e| bad(&e.to_string()))?;
    let spec = json::parse(&text).map_err(|e| bad(&e))?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("no end_to_end list"))?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => {
                    Ok((name.to_string(), (better == "lower", bound)))
                }
                _ => Err(bad("an end_to_end metric lacks name, better or bound")),
            }
        })
        .collect()
}

fn range(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

pub fn main(mut options: Options) -> Result<ExitCode, Fatal> {
    let spec = options
        .value("--spec")?
        .unwrap_or_else(|| "BENCHMARK.json".to_string());
    let (Some(a), Some(b)) = (options.positional(), options.positional()) else {
        return Err(Fatal(
            "usage: benchmark compare A B [--spec BENCHMARK.json]".to_string(),
        ));
    };
    options.finish()?;
    let bounds = bounds(&spec)?;
    let (a, b) = (load(&a)?, load(&b)?);

    let mut regressions = 0;
    println!(
        "{:<20} {:<40} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread"
    );
    for ((traced, workload, metric), in_a) in &a.values {
        let Some(in_b) = b.values.get(&(*traced, workload.clone(), metric.clone())) else {
            continue;
        };
        let (median_a, median_b) = (median(in_a), median(in_b));
        let change = if median_a == 0.0 {
            0.0
        } else {
            (median_b - median_a) / median_a.abs()
        };
        let noise = spread(in_a).max(spread(in_b));
        let verdict = if let Some(&(lower_is_better, bound)) = bounds.get(metric) {
            let worse_by = if lower_is_better { change } else { -change };
            let ((lo_a, hi_a), (lo_b, hi_b)) = (range(in_a), range(in_b));
            if noise > bound && lo_a <= hi_b && lo_b <= hi_a {
                "unresolved"
            } else if worse_by > bound {
                regressions += 1;
                "regressed"
            } else {
                "ok"
            }
        } else if PER_LAYER.iter().any(|m| m.name == metric && m.exact) {
            if in_a.iter().chain(in_b).all(|v| *v == in_a[0]) {
                "same"
            } else {
                "changed"
            }
        } else {
            "-"
        };
        println!(
            "{workload:<20} {metric:<40} {median_a:>14.6} {median_b:>14.6} {:>+7.1}% {:>6.1}%  {verdict}",
            change * 100.0,
            noise * 100.0
        );
    }
    for (workload, failed_a) in &a.failed {
        let failed_b = b.failed.get(workload).copied().unwrap_or(0);
        let verdict = if failed_b > *failed_a {
            regressions += 1;
            "regressed"
        } else {
            "ok"
        };
        println!(
            "{workload:<20} {:<40} {failed_a:>14} {failed_b:>14} {:>8} {:>7}  {verdict}",
            "failed", "", ""
        );
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: {regressions} regression(s)");
        ExitCode::FAILURE
    })
}

//! One benchmark run: configuration, the pass loop, the tally of checked
//! operations and the result line.
//!
//! The benchmark is a closed loop with one client: one call into the product
//! at a time from this process. End-to-end numbers come from an untraced
//! run; a traced run installs a telemetry recorder, wraps every layer call
//! in a `bench.<layer>.<fn>` span and reports the per-layer metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use telemetry::{AggregatingRecorder, Profile};

use crate::clock::{self, Stopwatch};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, quartiles};
use crate::workloads::Workload;

/// How often an untraced run repeats its set-up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// A traced run alternates untraced and traced passes (for the tracing
/// overhead) until this many seconds or pairs are spent.
const TRACE_PAIR_SECONDS: f64 = 6.0;
const TRACE_MAX_PAIRS: usize = 5;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes and a single pass: the configuration the tests run.
    pub smoke: bool,
    /// Worker threads pinned inside the product: `min(cores, 4)`.
    pub workers: usize,
    pub cores: usize,
    pub reproduce_bin: Option<PathBuf>,
    /// Where traces, stores and other files a run leaves behind go.
    pub out_dir: PathBuf,
    /// Test-only hook: the checkers perturb their expected values, so every
    /// output check must fail. Proves the checks can fail.
    pub corrupt_expected: bool,
}

pub struct Run<'a> {
    pub cfg: &'a Config,
    setup_s: Vec<f64>,
    pass_s: Vec<f64>,
    cpu_s: Vec<f64>,
    op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    layers: BTreeMap<&'static str, f64>,
    measuring_since: Option<Instant>,
}

impl<'a> Run<'a> {
    pub fn new(cfg: &'a Config) -> Self {
        Run {
            cfg,
            setup_s: Vec::new(),
            pass_s: Vec::new(),
            cpu_s: Vec::new(),
            op_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            layers: BTreeMap::new(),
            measuring_since: None,
        }
    }

    /// Runs the workload's set-up (inputs, seeding that is not the measured
    /// thing, a warm-up) and times it. An untraced run repeats it and keeps
    /// the last state, so `setup_s` is a median and not one sample.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Run<'a>) -> T) -> T {
        let repeats = if self.cfg.trace || self.cfg.smoke {
            1
        } else {
            SETUP_REPEATS
        };
        let mut state = None;
        for _ in 0..repeats {
            let start = Instant::now();
            state = Some(build(self));
            self.setup_s.push(start.elapsed().as_secs_f64());
        }
        state.expect("set-up ran at least once")
    }

    /// Records one checked operation; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("benchmark: check failed: {}", what());
            }
        }
    }

    /// Records the latencies, in seconds, of the operations of a pass.
    pub fn ops(&mut self, seconds: impl IntoIterator<Item = f64>) {
        self.op_ms.extend(seconds.into_iter().map(|s| s * 1e3));
    }

    /// Ends the measured part of a pass and records its wall and CPU seconds.
    pub fn pass(&mut self, watch: &Stopwatch) {
        let (wall, cpu) = watch.stop();
        self.pass_s.push(wall);
        self.cpu_s.push(cpu);
    }

    /// Sets a per-layer metric of a traced run.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// Whether the measurement window has room for one more pass of the
    /// mean length seen so far. A smoke run makes exactly one.
    fn wants_another_pass(&mut self) -> bool {
        let done = self.pass_s.len();
        let Some(since) = self.measuring_since else {
            self.measuring_since = Some(Instant::now());
            return true;
        };
        if self.cfg.smoke {
            return false;
        }
        let elapsed = since.elapsed().as_secs_f64();
        elapsed + elapsed / done as f64 <= self.cfg.seconds
    }

    /// Drives the measurement. Untraced: passes until `--seconds` are spent.
    /// Traced: alternating untraced and traced passes, then the workload's
    /// `layers` (its probes, run under the recorder of the last traced pass,
    /// and its span-derived metrics); the spans and counters are written to
    /// `<out>/trace.<workload>.jsonl`.
    pub fn drive(&mut self, workload: &mut dyn Workload<'a>) {
        if !self.cfg.trace {
            while self.wants_another_pass() {
                workload.pass(self);
            }
            return;
        }
        let started = Instant::now();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let recorder = loop {
            workload.pass(self);
            plain.push(*self.pass_s.last().expect("a pass records itself"));
            // A fresh recorder per traced pass: counters of the kept profile
            // are those of exactly one pass plus the probes.
            let recorder = Arc::new(AggregatingRecorder::default());
            let untraced_ops = self.op_ms.len();
            telemetry::install(recorder.clone());
            workload.pass(self);
            telemetry::uninstall();
            traced.push(*self.pass_s.last().expect("a pass records itself"));
            // Operation latencies are reported from the untraced passes only.
            self.op_ms.truncate(untraced_ops);
            let spent = started.elapsed().as_secs_f64();
            let pairs = plain.len();
            if self.cfg.smoke
                || pairs >= TRACE_MAX_PAIRS
                || spent + spent / pairs as f64 > TRACE_PAIR_SECONDS
            {
                break recorder;
            }
        };
        self.layer(
            "telemetry.overhead_share",
            (median(&traced) - median(&plain)) / median(&plain),
        );
        self.layer("bench.op_ms_p50", median(&self.op_ms));
        self.layer("bench.op_ms_p95", percentile(&self.op_ms, 95.0));
        telemetry::install(recorder.clone());
        let label = format!("benchmark {} seed {}", self.cfg.workload, self.cfg.seed);
        workload.layers(self, &|| recorder.profile(&label));
        telemetry::uninstall();
        self.layer("process.peak_rss_mb", clock::peak_rss_mb());
        let path = self
            .cfg
            .out_dir
            .join(format!("trace.{}.jsonl", self.cfg.workload));
        let written = std::fs::create_dir_all(&self.cfg.out_dir)
            .and_then(|()| std::fs::write(&path, recorder.profile(&label).to_json_lines()));
        self.check(written.is_ok(), || {
            format!("writing {}: {written:?}", path.display())
        });
    }

    /// The result line of the contract: `correct`, `attempted`, `failed` and
    /// every end-to-end metric (untraced) or every per-layer metric (traced).
    /// A metric that is not a finite number counts as a failed operation.
    pub fn result_json(&mut self) -> String {
        let metrics: Vec<(&str, &str, f64)> = if self.cfg.trace {
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, *self.layers.get(m.name).unwrap_or(&0.0)))
                .collect()
        } else {
            let values = [
                median(&self.setup_s),
                median(&self.pass_s),
                median(&self.cpu_s),
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), value)| (name, unit, value))
                .collect()
        };
        let mut body = Vec::new();
        for (name, unit, value) in metrics {
            self.check(value.is_finite(), || format!("metric {name} is {value}"));
            let value = if value.is_finite() { value } else { 0.0 };
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Sample count, median and quartiles behind each end-to-end metric,
    /// for the human-readable summary on stderr.
    pub fn summary(&self) -> String {
        let mut text = format!("{} checked, {} failed", self.attempted, self.failed);
        for (name, samples) in [
            ("setup_s", &self.setup_s),
            ("pass_s", &self.pass_s),
            ("cpu_s", &self.cpu_s),
            ("op_ms", &self.op_ms),
        ] {
            let (q1, q3) = quartiles(samples).unwrap_or((median(samples), median(samples)));
            text.push_str(&format!(
                "\n  {name:<8} n={:<5} median {:.6} quartiles {q1:.6} .. {q3:.6}",
                samples.len(),
                median(samples),
            ));
        }
        text
    }
}

/// Runs `f` with the recorder of a traced run taken out: for probes that
/// compare worker counts, where the recorder's lock would skew the ratio.
pub fn untraced<R>(f: impl FnOnce() -> R) -> R {
    let recorder = telemetry::uninstall();
    let result = f();
    if let Some(recorder) = recorder {
        telemetry::install(recorder);
    }
    result
}

/// Wraps one call into a product layer in a `bench.<layer>.<fn>` span. With
/// no recorder installed (every untraced run) this is one relaxed load.
pub fn layer<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = telemetry::span(name);
    f()
}

/// [`layer`] that also returns the wall seconds of the call, measured whether
/// or not a recorder is installed.
pub fn timed_layer<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let (result, nanos) = telemetry::timed(name, f);
    (result, nanos as f64 / 1e9)
}

/// Reads span and counter totals out of a traced run's profile.
pub struct Spans(pub Profile);

impl Spans {
    /// Total seconds spent in the span at `path`; 0 when it never ran.
    pub fn seconds(&self, path: &str) -> f64 {
        self.0.spans.get(path).map_or(0.0, |h| h.total as f64 / 1e9)
    }

    pub fn count(&self, path: &str) -> u64 {
        self.0.spans.get(path).map_or(0, |h| h.count)
    }

    /// Mean seconds per call of the span at `path`; 0 when it never ran.
    pub fn mean_seconds(&self, path: &str) -> f64 {
        match self.count(path) {
            0 => 0.0,
            n => self.seconds(path) / n as f64,
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.0.counters.get(name).copied().unwrap_or(0)
    }
}

/// `part / whole`, 0 when the whole is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

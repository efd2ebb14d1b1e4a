//! `reproduce_paper`: the product's real entry point at paper sizes.
//!
//! One pass spawns the release `reproduce` binary twice: cold into an empty
//! `--store` directory, then `--warm` from the store the cold run wrote.
//! Wall clock is ~90 % block-sharded exact cache simulation of unit-stride
//! CLOUDSC at `NBLOCKS = 4096` (`machine.exec` stream -> `machine.cache` ->
//! `machine.shard`); the scheduler does almost nothing here. The inputs are
//! the paper's, so `--seed` does not change them.

use std::path::{Path, PathBuf};
use std::process::Command;

use telemetry::Profile;

use super::Workload;
use crate::clock::Stopwatch;
use crate::run::{layer, timed_layer, Run, Spans};

/// `reproduce --list`, in paper order, with the span each `--only` run of a
/// traced run is recorded under.
const FIGURES: [(&str, &str, &str); 7] = [
    ("fig1", "bench.figures.fig1", "bench.figures.fig1_s"),
    ("table1", "bench.figures.table1", "bench.figures.table1_s"),
    ("fig6", "bench.figures.fig6", "bench.figures.fig6_s"),
    ("fig7", "bench.figures.fig7", "bench.figures.fig7_s"),
    ("fig9", "bench.figures.fig9", "bench.figures.fig9_s"),
    ("fig11", "bench.figures.fig11", "bench.figures.fig11_s"),
    ("fig12", "bench.figures.fig12", "bench.figures.fig12_s"),
];

struct ReproducePaper {
    binary: PathBuf,
    /// Scratch directory of this process; every store lives under it.
    scratch: PathBuf,
    stores: usize,
    /// The first cold run's figure tables: every later run, cold or warm,
    /// must print the same.
    tables: Option<String>,
}

/// The figure tables of a `reproduce` run: its standard output up to the
/// summary, without host timings. Those are the `sim [ms]` and `Macc/s`
/// columns of the trace table (third and fourth, until the next blank line)
/// and the "simulated in … ms (… Macc/s)" part of the trace lines.
fn figure_tables(stdout: &str) -> String {
    let mut tables = Vec::new();
    let mut in_trace_table = false;
    for line in stdout.lines() {
        if line.contains("================ summary") {
            break;
        }
        in_trace_table &= !line.trim().is_empty();
        if in_trace_table {
            let columns: Vec<&str> = line.split_whitespace().collect();
            let exact = columns.iter().take(2).chain(columns.iter().skip(4));
            tables.push(exact.copied().collect::<Vec<_>>().join(" "));
            continue;
        }
        in_trace_table = line.contains("sim [ms]");
        match (line.find(" simulated in "), line.find(" Macc/s)")) {
            (Some(from), Some(to)) if from < to => tables.push(format!(
                "{}{}",
                &line[..from],
                &line[to + " Macc/s)".len()..]
            )),
            _ => tables.push(line.to_string()),
        }
    }
    tables.join("\n")
}

impl ReproducePaper {
    /// Where the cold child of a traced pass writes its own profile.
    fn child_trace(&self, run: &Run<'_>) -> String {
        let path = run.cfg.out_dir.join("trace.reproduce_child.jsonl");
        path.to_string_lossy().into_owned()
    }

    fn fresh_store(&mut self) -> PathBuf {
        self.stores += 1;
        self.scratch.join(format!("store-{}", self.stores))
    }

    /// Runs `reproduce` with the common flags plus `extra`; returns its
    /// standard output, or what went wrong.
    fn reproduce(&self, run: &Run<'_>, extra: &[&str], store: &Path) -> Result<String, String> {
        let mut command = Command::new(&self.binary);
        if run.cfg.smoke {
            command.arg("--smoke");
        }
        command
            .args(["--sim-workers", &run.cfg.workers.to_string(), "--store"])
            .arg(store)
            .args(extra);
        let output = command
            .output()
            .map_err(|e| format!("spawning {}: {e}", self.binary.display()))?;
        if !output.status.success() {
            return Err(format!(
                "reproduce {extra:?} exited with {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        String::from_utf8(output.stdout).map_err(|e| format!("reproduce output: {e}"))
    }

    /// One checked `reproduce` run under `span`: exit 0 and the same figure
    /// tables as every other run. Returns its wall seconds.
    fn checked(
        &mut self,
        run: &mut Run<'_>,
        span: &'static str,
        extra: &[&str],
        store: &Path,
    ) -> f64 {
        let (result, seconds) = timed_layer(span, || self.reproduce(run, extra, store));
        run.check(result.is_ok(), || format!("{result:?}"));
        if let Ok(stdout) = result {
            let mut tables = figure_tables(&stdout);
            if run.cfg.corrupt_expected {
                tables.push_str("\ncorrupted");
            }
            let expected = self.tables.get_or_insert_with(|| figure_tables(&stdout));
            run.check(*expected == tables, || {
                format!("reproduce {extra:?}: figure tables differ from the first run's")
            });
        }
        seconds
    }
}

impl<'a> Workload<'a> for ReproducePaper {
    fn pass(&mut self, run: &mut Run<'a>) {
        let store = self.fresh_store();
        // Under the recorder of a traced run the cold child is traced too,
        // through the product's own `--profile`.
        let child_trace = self.child_trace(run);
        let profile: &[&str] = if telemetry::enabled() {
            &["--profile", &child_trace]
        } else {
            &[]
        };
        let watch = Stopwatch::start();
        let cold = self.checked(run, "bench.reproduce.cold", profile, &store);
        let warm = self.checked(run, "bench.reproduce.warm", &["--warm"], &store);
        run.pass(&watch);
        run.ops([cold, warm]);
        let _ = std::fs::remove_dir_all(&store);
    }

    fn layers(&mut self, run: &mut Run<'a>, profile: &dyn Fn() -> Profile) {
        // Each figure alone. Their tables are a part of the full run's, so
        // only the exit code is checked.
        for (figure, span, _) in FIGURES {
            let store = self.fresh_store();
            let result = layer(span, || self.reproduce(run, &["--only", figure], &store));
            run.check(result.is_ok(), || format!("{result:?}"));
        }
        // What the traced pass's cold child says it simulated.
        let child = std::fs::read_to_string(self.child_trace(run))
            .map_err(|e| e.to_string())
            .and_then(|text| Profile::from_json_lines(&text));
        run.check(child.is_ok(), || {
            format!("reproduce --profile: {:?}", child.as_ref().err())
        });
        if let Ok(child) = child {
            let child = Spans(child);
            run.layer(
                "machine.cache.accesses",
                (child.counter("machine.cache.accesses") + child.counter("machine.shard.accesses"))
                    as f64,
            );
            run.layer(
                "machine.shard.shards",
                child.counter("machine.shard.shards") as f64,
            );
        }

        let spans = Spans(profile());
        run.layer(
            "bench.reproduce.cold_s",
            spans.mean_seconds("bench.reproduce.cold"),
        );
        run.layer(
            "bench.reproduce.warm_s",
            spans.mean_seconds("bench.reproduce.warm"),
        );
        for (_, span, metric) in FIGURES {
            run.layer(metric, spans.seconds(span));
        }
    }
}

impl Drop for ReproducePaper {
    fn drop(&mut self) {
        // Best effort: what is left is under the ignored out/ directory.
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

pub fn run(run: &mut Run<'_>) {
    let binary = run
        .cfg
        .reproduce_bin
        .clone()
        .expect("main checked that the reproduce binary exists");
    let scratch = run
        .cfg
        .out_dir
        .join(format!("reproduce-{}", std::process::id()));
    let mut workload = ReproducePaper {
        binary,
        scratch,
        stores: 0,
        tables: None,
    };
    // Set-up: the smoke configuration cold, then warm with `--verify`, which
    // checks the cold/warm equivalence guarantee of every scheduler used. It
    // doubles as the warm-up (binary and store code paged in).
    run.setup(|run| {
        let store = workload.fresh_store();
        for extra in [&["--smoke"][..], &["--smoke", "--warm", "--verify"]] {
            let result = workload.reproduce(run, extra, &store);
            run.check(result.is_ok(), || format!("{result:?}"));
        }
    });
    run.drive(&mut workload);
}

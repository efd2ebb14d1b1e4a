//! Profile documents: log2-bucketed [`Histogram`]s, the [`Profile`]
//! snapshot an [`AggregatingRecorder`](crate::AggregatingRecorder)
//! produces, its JSON-lines serialization (what `reproduce --profile` and
//! `daisyfuzz run --profile` write and `daisyprof` reads), the
//! human-readable span tree, and profile diffing.
//!
//! # File format
//!
//! One JSON object per line. The first line is the header, every
//! following line one event:
//!
//! ```text
//! {"profile":"daisy-telemetry","version":1,"label":"reproduce --smoke"}
//! {"type":"span","path":"schedule.normalize","count":34,"total_ns":81243,"max":4096,"buckets":[[11,30],[12,4]]}
//! {"type":"histogram","name":"daisy.parallel.worker_items","count":8,"total":34,"max":6,"buckets":[[2,3],[3,5]]}
//! {"type":"counter","name":"machine.cost.nests_priced","value":1187}
//! ```
//!
//! Buckets are sparse `[log2_index, count]` pairs: index 0 holds the
//! value 0, index `b >= 1` holds values in `[2^(b-1), 2^b - 1]`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Json};

/// Number of log2 buckets: index 0 for zero, 1..=64 for each power-of-two
/// magnitude of a `u64`.
pub const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples. Fixed size, no retained
/// samples; quantiles are answered from the buckets (upper bound of the
/// bucket the quantile falls in, clamped to the observed max).
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[0]` counts zeros; `buckets[b]` counts values in
    /// `[2^(b-1), 2^b - 1]`.
    pub buckets: [u64; BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (exact, not bucketed).
    pub total: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            total: 0,
            max: 0,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("total", &self.total)
            .field("max", &self.max)
            .finish()
    }
}

/// Bucket index of `value`: 0 for 0, else `64 - leading_zeros` (so 1 → 1,
/// 2..=3 → 2, 4..=7 → 3, …).
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `index` (saturating at `u64::MAX`).
fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.total = self.total.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total = self.total.saturating_add(other.total);
        self.max = self.max.max(other.max);
    }

    /// Exact mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Bucketed quantile: the inclusive upper bound of the bucket the
    /// `q`-quantile sample falls in, clamped to the observed max. `q` in
    /// `[0, 1]`; returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// The 99th-percentile bucket bound — the headline latency number in
    /// `daisyprof` tables.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Sparse `[bucket_index, count]` pairs for serialization.
    fn sparse_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect()
    }
}

/// A profile snapshot: everything one recorded run produced. Span paths
/// are dot-joined (`"schedule.normalize"`), so the map keys encode the
/// span tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Free-form run label (typically the command line that produced it).
    pub label: String,
    /// Per-span-path duration histograms, in nanoseconds.
    pub spans: BTreeMap<String, Histogram>,
    /// Explicit value histograms (sizes, batch widths, …).
    pub histograms: BTreeMap<String, Histogram>,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
}

fn write_histogram_fields(line: &mut String, h: &Histogram, total_key: &str) {
    let _ = write!(
        line,
        "\"count\":{},\"{}\":{},\"max\":{},\"buckets\":[",
        h.count, total_key, h.total, h.max
    );
    for (i, (index, n)) in h.sparse_buckets().iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "[{index},{n}]");
    }
    line.push(']');
}

impl Profile {
    /// Serializes as JSON lines (header line, then one event per line).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"profile\":\"daisy-telemetry\",\"version\":1,\"label\":{}}}",
            json::json_string(&self.label)
        );
        for (path, hist) in &self.spans {
            let mut line = format!("{{\"type\":\"span\",\"path\":{},", json::json_string(path));
            write_histogram_fields(&mut line, hist, "total_ns");
            line.push('}');
            let _ = writeln!(out, "{line}");
        }
        for (name, hist) in &self.histograms {
            let mut line = format!(
                "{{\"type\":\"histogram\",\"name\":{},",
                json::json_string(name)
            );
            write_histogram_fields(&mut line, hist, "total");
            line.push('}');
            let _ = writeln!(out, "{line}");
        }
        for (name, value) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}",
                json::json_string(name),
                value
            );
        }
        out
    }

    /// Parses a JSON-lines profile back. Strict: a bad header, unknown
    /// event type or malformed line is an error (this is the `daisyprof`
    /// format validator).
    pub fn from_json_lines(text: &str) -> Result<Profile, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header) = lines.next().ok_or("empty profile")?;
        let header = json::parse(header).map_err(|e| format!("line 1: {e}"))?;
        match header.get("profile").and_then(Json::as_str) {
            Some("daisy-telemetry") => {}
            _ => return Err("line 1: not a daisy-telemetry profile header".to_string()),
        }
        match header.get("version").and_then(Json::as_u64) {
            Some(1) => {}
            other => return Err(format!("line 1: unsupported profile version {other:?}")),
        }
        let mut profile = Profile {
            label: header
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            ..Profile::default()
        };
        for (index, line) in lines {
            let context = |m: &str| format!("line {}: {m}", index + 1);
            let event = json::parse(line).map_err(|e| context(&e))?;
            match event.get("type").and_then(Json::as_str) {
                Some("span") => {
                    let path = event
                        .get("path")
                        .and_then(Json::as_str)
                        .ok_or_else(|| context("span without path"))?;
                    let hist = parse_histogram(&event, "total_ns").map_err(|e| context(&e))?;
                    profile.spans.insert(path.to_string(), hist);
                }
                Some("histogram") => {
                    let name = event
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| context("histogram without name"))?;
                    let hist = parse_histogram(&event, "total").map_err(|e| context(&e))?;
                    profile.histograms.insert(name.to_string(), hist);
                }
                Some("counter") => {
                    let name = event
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| context("counter without name"))?;
                    let value = event
                        .get("value")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| context("counter without value"))?;
                    profile.counters.insert(name.to_string(), value);
                }
                other => return Err(context(&format!("unknown event type {other:?}"))),
            }
        }
        Ok(profile)
    }

    /// Human-readable report: the span tree (count/total/mean/p99 per
    /// path), then histograms, then counters.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "profile: {}", self.label);
        if self.spans.is_empty() {
            let _ = writeln!(out, "  (no spans recorded)");
        }
        let width = self
            .spans
            .keys()
            .map(|p| 2 * (p.matches('.').count() + 1) + display_segment(&self.spans, p).len())
            .max()
            .unwrap_or(0)
            .max(16);
        for (path, hist) in &self.spans {
            let depth = path.matches('.').count() + 1;
            let label = format!(
                "{}{}",
                "  ".repeat(depth),
                display_segment(&self.spans, path)
            );
            let _ = writeln!(
                out,
                "{label:<width$}  count {:>8}  total {:>10}  mean {:>10}  p99 {:>10}",
                hist.count,
                fmt_ns(hist.total),
                fmt_ns(hist.mean() as u64),
                fmt_ns(hist.p99()),
            );
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (name, hist) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name}: count {} total {} mean {:.1} max {} p99 {}",
                    hist.count,
                    hist.total,
                    hist.mean(),
                    hist.max,
                    hist.p99(),
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name}: {value}");
            }
        }
        out
    }

    /// Exports the profile as a chrome://tracing (Trace Event Format) JSON
    /// document, loadable in `chrome://tracing` or Perfetto.
    ///
    /// The profile is aggregated — it has no per-event timestamps — so the
    /// export synthesizes a timeline: root span paths are laid end to end
    /// and each span's children are packed depth-first from their parent's
    /// start, every slice as one complete (`"X"`) event whose duration is
    /// the path's *total* time. Slice widths are therefore exact aggregate
    /// attributions, not individual invocations; `count`, `mean_ns` and
    /// `p99_ns` ride along in each slice's `args`. Counters become `"C"`
    /// events at time zero, explicit histograms counter events carrying
    /// their totals.
    pub fn to_chrome_trace(&self) -> String {
        // A path's parent is its longest proper dot-prefix that was itself
        // recorded (same rule the tree renderer uses); spans whose prefixes
        // were never recorded start their own root slices.
        let mut children: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut roots: Vec<&str> = Vec::new();
        for path in self.spans.keys() {
            let mut prefix = path.as_str();
            let mut parent = None;
            while let Some((shorter, _)) = prefix.rsplit_once('.') {
                if self.spans.contains_key(shorter) {
                    parent = Some(shorter);
                    break;
                }
                prefix = shorter;
            }
            match parent {
                Some(parent) => children.entry(parent).or_default().push(path),
                None => roots.push(path),
            }
        }

        let mut events = Vec::new();
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\
             \"args\":{{\"name\":{}}}}}",
            json::json_string(&self.label)
        ));
        let mut stack: Vec<(&str, u64)> = Vec::new();
        let mut cursor = 0u64;
        for root in roots {
            stack.push((root, cursor));
            cursor += self.spans[root].total;
        }
        // DFS in reverse so siblings pop in alphabetical order.
        stack.reverse();
        while let Some((path, start)) = stack.pop() {
            let hist = &self.spans[path];
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"span\",\"name\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"count\":{},\"mean_ns\":{},\"p99_ns\":{}}}}}",
                json::json_string(path),
                start as f64 / 1_000.0,
                hist.total as f64 / 1_000.0,
                hist.count,
                hist.mean() as u64,
                hist.p99(),
            ));
            if let Some(kids) = children.get(path) {
                let mut child_start = start;
                let mut packed: Vec<(&str, u64)> = Vec::new();
                for &child in kids {
                    packed.push((child, child_start));
                    child_start += self.spans[child].total;
                }
                // Reverse again so the first child is processed first.
                stack.extend(packed.into_iter().rev());
            }
        }
        for (name, value) in &self.counters {
            events.push(format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"name\":{},\"ts\":0,\
                 \"args\":{{\"value\":{value}}}}}",
                json::json_string(name)
            ));
        }
        for (name, hist) in &self.histograms {
            events.push(format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"name\":{},\"ts\":0,\
                 \"args\":{{\"total\":{},\"count\":{}}}}}",
                json::json_string(name),
                hist.total,
                hist.count,
            ));
        }
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",\n")
        )
    }

    /// Renders the difference `self -> other` (counts, totals, counter
    /// deltas) over the union of keys — how `daisyprof diff a b` makes a
    /// regression attributable to a phase.
    pub fn render_diff(&self, other: &Profile) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "diff: {} -> {}", self.label, other.label);
        let _ = writeln!(out, "spans:");
        let empty = Histogram::default();
        for path in union_keys(self.spans.keys(), other.spans.keys()) {
            let a = self.spans.get(&path).unwrap_or(&empty);
            let b = other.spans.get(&path).unwrap_or(&empty);
            let ratio = if a.total > 0 {
                format!("{:>7.2}x", b.total as f64 / a.total as f64)
            } else if b.total > 0 {
                "    new".to_string()
            } else {
                "      -".to_string()
            };
            let _ = writeln!(
                out,
                "  {path:<40}  count {:>8} -> {:<8}  total {:>10} -> {:<10}  {ratio}",
                a.count,
                b.count,
                fmt_ns(a.total),
                fmt_ns(b.total),
            );
        }
        let _ = writeln!(out, "counters:");
        for name in union_keys(self.counters.keys(), other.counters.keys()) {
            let a = self.counters.get(&name).copied().unwrap_or(0);
            let b = other.counters.get(&name).copied().unwrap_or(0);
            let delta = b as i128 - a as i128;
            let _ = writeln!(out, "  {name:<40}  {a:>12} -> {b:<12}  ({delta:+})");
        }
        out
    }
}

/// What to print for `path` in the tree: the last segment when the parent
/// path was itself recorded (normal nesting), the full path otherwise
/// (e.g. spans from worker threads that start their own roots).
fn display_segment<'p>(spans: &BTreeMap<String, Histogram>, path: &'p str) -> &'p str {
    match path.rsplit_once('.') {
        Some((parent, segment)) if spans.contains_key(parent) => segment,
        _ => path,
    }
}

fn union_keys<'k>(
    a: impl Iterator<Item = &'k String>,
    b: impl Iterator<Item = &'k String>,
) -> Vec<String> {
    let mut keys: Vec<String> = a.chain(b).cloned().collect();
    keys.sort();
    keys.dedup();
    keys
}

fn parse_histogram(event: &Json, total_key: &str) -> Result<Histogram, String> {
    let mut hist = Histogram {
        count: event
            .get("count")
            .and_then(Json::as_u64)
            .ok_or("missing count")?,
        total: event
            .get(total_key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing {total_key}"))?,
        max: event
            .get("max")
            .and_then(Json::as_u64)
            .ok_or("missing max")?,
        ..Histogram::default()
    };
    let buckets = event
        .get("buckets")
        .and_then(Json::as_array)
        .ok_or("missing buckets")?;
    for pair in buckets {
        let pair = pair
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or("bad bucket")?;
        let index = pair[0].as_u64().ok_or("bad bucket index")? as usize;
        let n = pair[1].as_u64().ok_or("bad bucket count")?;
        if index >= BUCKETS {
            return Err(format!("bucket index {index} out of range"));
        }
        hist.buckets[index] = n;
    }
    Ok(hist)
}

/// Formats nanoseconds for humans: `17ns`, `4.2µs`, `13ms`, `2.41s`.
pub fn fmt_ns(ns: u64) -> String {
    let ns_f = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns_f / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns_f / 1_000_000.0)
    } else {
        format!("{:.2}s", ns_f / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_zero_special_cased() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn quantiles_come_from_bucket_upper_bounds_clamped_to_max() {
        let mut h = Histogram::default();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 10);
        assert_eq!(h.quantile(0.5), 1);
        // The p99 sample is the 1000: bucket 10 upper bound is 1023,
        // clamped to the observed max of 1000.
        assert_eq!(h.p99(), 1000);
        assert_eq!(h.quantile(0.0), 1);
        let empty = Histogram::default();
        assert_eq!(empty.p99(), 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn merge_adds_counts_totals_and_buckets() {
        let mut a = Histogram::default();
        a.record(4);
        a.record(100);
        let mut b = Histogram::default();
        b.record(7);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.total, 111);
        assert_eq!(a.max, 100);
        assert_eq!(a.buckets[0], 1);
        assert_eq!(a.buckets[3], 2);
    }

    fn sample_profile() -> Profile {
        let mut profile = Profile {
            label: "unit \"test\"".to_string(),
            ..Profile::default()
        };
        let mut h = Histogram::default();
        h.record(1200);
        h.record(900);
        profile.spans.insert("schedule".to_string(), h.clone());
        profile
            .spans
            .insert("schedule.normalize".to_string(), h.clone());
        profile.histograms.insert("sizes".to_string(), h);
        profile.counters.insert("hits".to_string(), 42);
        profile.counters.insert("misses".to_string(), 0);
        profile
    }

    #[test]
    fn json_lines_round_trip_is_lossless() {
        let profile = sample_profile();
        let text = profile.to_json_lines();
        let parsed = Profile::from_json_lines(&text).expect("round trip parses");
        assert_eq!(parsed, profile);
    }

    #[test]
    fn from_json_lines_rejects_garbage_and_wrong_headers() {
        assert!(Profile::from_json_lines("").is_err());
        assert!(Profile::from_json_lines("{\"profile\":\"other\"}").is_err());
        assert!(Profile::from_json_lines(
            "{\"profile\":\"daisy-telemetry\",\"version\":9,\"label\":\"x\"}"
        )
        .is_err());
        let bad_event = "{\"profile\":\"daisy-telemetry\",\"version\":1,\"label\":\"x\"}\n\
                         {\"type\":\"mystery\"}";
        let err = Profile::from_json_lines(bad_event).unwrap_err();
        assert!(err.contains("line 2"), "error names the line: {err}");
    }

    #[test]
    fn tree_report_nests_children_and_lists_counters() {
        let report = sample_profile().render_tree();
        assert!(report.contains("profile: unit \"test\""));
        assert!(report.contains("schedule"));
        // The child renders as its segment, indented deeper.
        assert!(report.contains("    normalize"));
        assert!(report.contains("hits: 42"));
        assert!(report.contains("sizes:"));
    }

    #[test]
    fn diff_reports_ratios_new_spans_and_counter_deltas() {
        let a = sample_profile();
        let mut b = sample_profile();
        b.label = "second".to_string();
        let mut h = Histogram::default();
        h.record(5000);
        b.spans.insert("fresh".to_string(), h);
        *b.counters.get_mut("hits").unwrap() = 40;
        let diff = a.render_diff(&b);
        assert!(diff.contains("diff: unit \"test\" -> second"));
        assert!(diff.contains("fresh"));
        assert!(diff.contains("new"));
        assert!(diff.contains("(-2)"), "hits 42 -> 40: {diff}");
    }

    #[test]
    fn chrome_trace_packs_children_inside_parents_and_parses_as_json() {
        let trace = sample_profile().to_chrome_trace();
        let doc = crate::json::parse(&trace).expect("chrome trace is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");

        let slice = |name: &str| {
            events
                .iter()
                .find(|e| {
                    e.get("ph").and_then(Json::as_str) == Some("X")
                        && e.get("name").and_then(Json::as_str) == Some(name)
                })
                .unwrap_or_else(|| panic!("no X event for {name}: {trace}"))
        };
        let parent = slice("schedule");
        let child = slice("schedule.normalize");
        let ts = |e: &Json| e.get("ts").and_then(Json::as_f64).expect("ts");
        let dur = |e: &Json| e.get("dur").and_then(Json::as_f64).expect("dur");
        // The child packs from its parent's start; both durations are the
        // span totals (1200 + 900 ns = 2.1 µs).
        assert_eq!(ts(parent), 0.0);
        assert_eq!(ts(child), 0.0);
        assert_eq!(dur(parent), 2.1);
        assert_eq!(dur(child), 2.1);
        assert_eq!(
            parent
                .get("args")
                .and_then(|a| a.get("count"))
                .and_then(Json::as_u64),
            Some(2)
        );

        // Counters and histograms become "C" events.
        let counter = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("hits"))
            .expect("counter event");
        assert_eq!(counter.get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(
            counter
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_u64),
            Some(42)
        );
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some("sizes")),
            "histograms export as counter events: {trace}"
        );
        // The process is labeled after the profile.
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(Json::as_str) == Some("M")
                    && e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        == Some("unit \"test\"")
            }),
            "metadata event labels the process: {trace}"
        );
    }

    #[test]
    fn chrome_trace_lays_unrelated_roots_end_to_end() {
        let mut profile = Profile {
            label: "roots".to_string(),
            ..Profile::default()
        };
        let mut a = Histogram::default();
        a.record(2_000);
        let mut b = Histogram::default();
        b.record(3_000);
        profile.spans.insert("alpha".to_string(), a);
        profile.spans.insert("beta".to_string(), b);
        let trace = profile.to_chrome_trace();
        let doc = crate::json::parse(&trace).expect("parses");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let ts = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|e| e.get("ts"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert_eq!(ts("alpha"), 0.0);
        assert_eq!(ts("beta"), 2.0, "beta starts after alpha's 2µs total");
    }

    #[test]
    fn fmt_ns_picks_the_right_unit() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(4_200), "4.2µs");
        assert_eq!(fmt_ns(13_000_000), "13.0ms");
        assert_eq!(fmt_ns(2_410_000_000), "2.41s");
    }
}

//! Structured observability for the whole scheduling stack.
//!
//! Every hot layer of the reproduction (the `daisy` scheduler, the
//! `machine` execution/simulation engines, the `fuzz` farm) reports into **one global [`Recorder`]** through three
//! primitives:
//!
//! - **Counters** ([`counter`]): monotonically increasing `u64` totals
//!   keyed by a `&'static str` name (`"machine.cost.nests_priced"`).
//! - **Histograms** ([`histogram`]): log2-bucketed value distributions
//!   ([`Histogram`]) for latency and size samples; `p99` and friends are
//!   answered from the buckets, no samples are retained.
//! - **Spans** ([`span`], [`timed`]): RAII guards that push a name onto a
//!   thread-local stack. A span's *path* is the dot-joined stack at entry
//!   (`"schedule.normalize"`), so nesting is captured structurally and a
//!   profile renders as a tree. Durations land in a per-path [`Histogram`].
//!
//! # Recorder model
//!
//! Recording is **off by default** and costs a single relaxed atomic load
//! per call site when disabled — no allocation, no locks, no thread-local
//! access. [`install`] flips the global flag and routes events to an
//! [`Arc<dyn Recorder>`]; [`uninstall`] flips it back. Two sinks ship with
//! the crate:
//!
//! - [`AggregatingRecorder`] folds events into a [`profile::Profile`]
//!   (per-path duration histograms + counters) for `reproduce --profile`,
//!   `daisyfuzz run --profile` and the `daisyprof` viewer;
//! - [`CollectingRecorder`] keeps the raw event log so tests can assert
//!   instrumentation *contracts* (e.g. "a warm start prices zero
//!   `daisy.search.candidates`").
//!
//! Tests that install a recorder must serialize on the global sink —
//! [`with_recorder`] does exactly that (one global mutex, install, run,
//! uninstall, even across panics).
//!
//! # Determinism
//!
//! Span *structure* and counter *values* are deterministic for a fixed
//! workload: they count decisions (nests priced, fallbacks, exact transfer
//! hits), never wall-clock. Durations obviously vary run to run; everything
//! else in a profile is stable, which is what makes `daisyprof diff`
//! meaningful.
//!
//! Guards are unwinding-safe: dropping a span guard in any order (early
//! return, `panic!` unwinding, leaked inner guards) truncates the
//! thread-local stack back to the guard's own depth, so a corrupted frame
//! can never leak into later span paths.

pub mod json;
pub mod profile;
mod recorder;

pub use profile::{Histogram, Profile};
pub use recorder::{AggregatingRecorder, CollectingRecorder, Event, Recorder};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Fast-path switch: one relaxed load decides whether any telemetry call
/// does work. `install` stores `true`, `uninstall` stores `false`.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed sink. Checked only after `ENABLED` passes, so the lock is
/// never touched on the disabled path.
static GLOBAL: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Serializes [`with_recorder`] scopes (the global recorder is process-wide
/// state; concurrent test scopes would cross-contaminate).
static SCOPE: Mutex<()> = Mutex::new(());

thread_local! {
    /// The span stack: names of every live span on this thread, outermost
    /// first. Only touched while recording is enabled.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Is a recorder installed? One relaxed atomic load — callers that need to
/// *compute* something before reporting it (e.g. summing cache stats)
/// should guard the computation with this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `recorder` as the global sink and enables recording.
pub fn install(recorder: Arc<dyn Recorder>) {
    let mut guard = GLOBAL.write().unwrap_or_else(|e| e.into_inner());
    *guard = Some(recorder);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables recording and returns the previously installed sink (so a
/// driver can consume its aggregate after a run).
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    ENABLED.store(false, Ordering::SeqCst);
    GLOBAL.write().unwrap_or_else(|e| e.into_inner()).take()
}

/// Runs `f` with `recorder` installed, serialized against every other
/// `with_recorder` scope in the process, and uninstalls on the way out —
/// including when `f` panics. The standard way for tests to assert
/// instrumentation contracts.
pub fn with_recorder<R>(recorder: Arc<dyn Recorder>, f: impl FnOnce() -> R) -> R {
    let _scope = SCOPE.lock().unwrap_or_else(|e| e.into_inner());
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            uninstall();
        }
    }
    install(recorder);
    let _uninstall = Uninstall;
    f()
}

fn with_global(f: impl FnOnce(&dyn Recorder)) {
    let guard = GLOBAL.read().unwrap_or_else(|e| e.into_inner());
    if let Some(recorder) = guard.as_deref() {
        f(recorder);
    }
}

/// Adds `delta` to the counter `name`. Near-free when disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    counter_slow(name, delta);
}

#[cold]
fn counter_slow(name: &'static str, delta: u64) {
    with_global(|r| r.counter_add(name, delta));
}

/// Records `value` into the histogram `name`. Near-free when disabled.
#[inline]
pub fn histogram(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    histogram_slow(name, value);
}

#[cold]
fn histogram_slow(name: &'static str, value: u64) {
    with_global(|r| r.histogram_record(name, value));
}

/// A live span. Created by [`span`]; records its duration under its path
/// when dropped. When recording is disabled at creation the guard is inert
/// (no allocation, nothing to undo on drop).
#[must_use = "a span measures the scope it is alive for; bind it to a variable"]
pub struct Span {
    state: Option<SpanState>,
}

struct SpanState {
    path: String,
    /// Stack length *including* this span's own frame at entry; drop
    /// truncates back to `depth - 1`, which also cleans up any inner
    /// guards that leaked without running their destructor.
    depth: usize,
    start: Instant,
}

/// Enters a span named `name`, nested under whatever spans are live on
/// this thread. The returned guard exits the span on drop.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { state: None };
    }
    let Ok((path, depth)) = STACK.try_with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        (stack.join("."), stack.len())
    }) else {
        return Span { state: None };
    };
    with_global(|r| r.span_enter(&path));
    Span {
        state: Some(SpanState {
            path,
            depth,
            start: Instant::now(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let nanos = state.start.elapsed().as_nanos() as u64;
        // Truncate rather than pop: if an inner guard was leaked (or
        // guards drop out of order), the stack still lands exactly at
        // this span's parent frame. Out-of-order drops of *this* guard
        // after a deeper truncation make this a no-op.
        let _ = STACK.try_with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.len() >= state.depth {
                stack.truncate(state.depth - 1);
            }
        });
        with_global(|r| r.span_exit(&state.path, nanos));
    }
}

/// Runs `f` under a span named `name` and returns `(result, elapsed_ns)`.
/// The elapsed time is measured whether or not recording is enabled, so
/// callers (e.g. `ScheduleOutcome::phase_timings`) always get real numbers.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let guard = span(name);
    let result = f();
    drop(guard);
    (result, start.elapsed().as_nanos() as u64)
}

/// Current thread-local span depth — test hook for the unbalanced-guard
/// suite (a healthy quiescent thread reports 0).
pub fn span_stack_depth() -> usize {
    STACK.try_with(|stack| stack.borrow().len()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global recorder is process-wide; these tests flip it, so they
    /// must not overlap (the harness runs `#[test]`s on multiple threads).
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_calls_are_inert() {
        let _serial = serial();
        assert!(!enabled());
        counter("test.counter", 5);
        histogram("test.hist", 123);
        let guard = span("test");
        assert_eq!(span_stack_depth(), 0, "disabled span must not touch TLS");
        drop(guard);
        assert_eq!(span_stack_depth(), 0);
    }

    #[test]
    fn with_recorder_collects_counters_and_nested_span_paths() {
        let _serial = serial();
        let sink = Arc::new(CollectingRecorder::default());
        with_recorder(sink.clone(), || {
            counter("outer.total", 2);
            counter("outer.total", 3);
            let _a = span("alpha");
            {
                let _b = span("beta");
                histogram("sizes", 17);
            }
            let _c = span("gamma");
        });
        assert!(!enabled(), "with_recorder must uninstall on exit");
        assert_eq!(sink.counter_total("outer.total"), 5);
        assert_eq!(
            sink.span_paths(),
            vec!["alpha", "alpha.beta", "alpha.gamma"],
            "paths reflect nesting at entry, dot-joined"
        );
        assert_eq!(sink.span_count("alpha.beta"), 1);
        assert_eq!(span_stack_depth(), 0);
    }

    #[test]
    fn with_recorder_uninstalls_after_a_panic() {
        let _serial = serial();
        let sink = Arc::new(CollectingRecorder::default());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_recorder(sink.clone(), || {
                let _s = span("doomed");
                panic!("boom");
            })
        }));
        assert!(result.is_err());
        assert!(!enabled(), "panic inside the scope must still uninstall");
        assert_eq!(span_stack_depth(), 0, "unwinding must pop the span");
        assert_eq!(sink.span_count("doomed"), 1, "the span still completes");
    }

    #[test]
    fn timed_returns_elapsed_even_when_disabled() {
        let _serial = serial();
        assert!(!enabled());
        let (value, nanos) = timed("probe", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(value, 42);
        assert!(nanos >= 1_000_000, "sleep of 2ms measured as {nanos}ns");
    }
}

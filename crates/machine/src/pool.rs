//! The one worker pool: every queue of independent work in the workspace —
//! the scheduler's seeding searches, `schedule`'s nests and a search's
//! rewrite groups, the shard simulator's translation classes and
//! stragglers — fans out through [`parallel_map`], and none of them decides
//! for itself whether threads are worth it.
//!
//! **The one fan-out rule.** The calling thread is worker 0: it drains the
//! queue alone until a spawn-cost budget (a private constant, about
//! 300 µs) has elapsed, and only if items remain does it spawn helpers and
//! keep draining beside them. The rule has two bounds: never slower than
//! the sequential loop by more than `workers - 1` spawns (paid only by a
//! queue that already outlasted the budget), and never slower than spawning
//! up front by more than the budget or one item, whichever is longer (the
//! helpers' head start the caller worked through alone). Cheap queues — a
//! search's memoized rewrites, a one-class simulation — never leave
//! their caller; a seeding, a many-nest CLOUDSC plan or the 32 classes of
//! a DaCe trace fan out after their first item or two.
//!
//! Each call site names its telemetry through one [`Counters`] constant,
//! so a profile tells the scheduler's fan-outs (`daisy.parallel.*`) from
//! the simulator's (`machine.shard.*`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The telemetry names of one call site's fan-outs. Whether a call fanned
/// out, how many threads got to drain anything and how the items spread
/// over them depend on timing; `jobs` does not.
pub struct Counters {
    /// Counter: items handed to the pool.
    pub jobs: &'static str,
    /// Counter: threads that drained at least one item — 1 per call that
    /// never spawned.
    pub workers: &'static str,
    /// Counter: calls that spawned helpers.
    pub fanouts: &'static str,
    /// Histogram: items drained per thread.
    pub worker_items: &'static str,
}

/// The worker-thread count [`parallel_map`] actually uses for a request:
/// `0` means "the machine decides"; any explicit request is clamped to
/// [`std::thread::available_parallelism`] — oversubscribing cores only adds
/// spawn and scheduling overhead (a 12-worker request on a 1-core machine
/// made the parallel scheduler ~0.84x of sequential; the benchmark tracks
/// it as `daisy.scheduler.parallel_speedup`) — and to the item count.
pub fn effective_workers(requested: usize, items: usize) -> usize {
    // Asked once per process: the answer costs a system call and a walk of
    // the cgroup files (~10 µs), and this runs per queue — the rewrite
    // groups of every search, every `schedule` call.
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let available =
        *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let requested = if requested == 0 {
        available
    } else {
        requested.min(available)
    };
    requested.min(items)
}

/// How long the calling thread drains a [`parallel_map`] queue alone before
/// it pays for helper threads: about the cost of spawning and joining one
/// scoped thread on the machines this runs on. A queue that empties within
/// it — one `schedule` call on a small program, a search's memoized
/// rewrites — never spawns at all.
const SPAWN_BUDGET: Duration = Duration::from_micros(300);

/// Maps `f` over `items` on up to `workers` threads, preserving order.
/// `workers == 0` uses the machine's available parallelism; `1` runs on the
/// calling thread; larger requests are clamped by [`effective_workers`].
/// Results are written back by item index, so the output is independent of
/// the worker count for any pure `f`.
///
/// The calling thread is worker 0: it starts draining the queue at once
/// and, alone, until the spawn budget has elapsed. Only if items remain
/// then does it spawn helpers (at most `workers - 1`, and never more than
/// there are items beyond its own next one) and keep draining beside them
/// (see the module docs for the rule's bounds).
///
/// A panic inside `f` is contained to the item that raised it: whichever
/// thread drained it catches it, leaves the slot empty, and keeps draining,
/// so one poisoned item can never take a whole fan-out down with it. Each
/// poisoned item is then retried once, *sequentially* on the calling
/// thread — a transient panic heals, and a deterministic one re-raises
/// there with an intact single-threaded backtrace instead of a cross-thread
/// join error.
pub fn parallel_map<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    counters: &'static Counters,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if items.is_empty() {
        return Vec::new();
    }
    let workers = effective_workers(workers, items.len());
    let next = AtomicUsize::new(0);
    // One contained attempt at the next queued item; `None` once the queue
    // is empty, `Some((index, None))` when the item panicked.
    let attempt_next = || {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let item = items.get(index)?;
        let attempt = catch_unwind(AssertUnwindSafe(|| f(item)));
        Some((index, attempt.ok()))
    };
    let mut results: Vec<Option<R>> = Vec::new();
    results.resize_with(items.len(), || None);

    // Worker 0, alone: until the queue is empty or the budget is spent.
    let start = Instant::now();
    let mut own_items = 0u64;
    while workers <= 1 || start.elapsed() < SPAWN_BUDGET {
        let Some((index, value)) = attempt_next() else {
            break;
        };
        results[index] = value;
        own_items += 1;
    }

    let remaining = items.len().saturating_sub(next.load(Ordering::Relaxed));
    let helpers = (workers - 1).min(remaining.saturating_sub(1));
    let mut drained_by = 1u64;
    if remaining > 0 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..helpers)
                .map(|_| scope.spawn(|| std::iter::from_fn(attempt_next).collect::<Vec<_>>()))
                .collect();
            while let Some((index, value)) = attempt_next() {
                results[index] = value;
                own_items += 1;
            }
            for handle in handles {
                // A helper only exits by returning its chunk; a join error
                // would mean a panic escaped catch_unwind (an
                // abort-on-unwind payload) — skip it and let the sequential
                // retry decide.
                let Ok(chunk) = handle.join() else { continue };
                if chunk.is_empty() {
                    continue;
                }
                drained_by += 1;
                telemetry::histogram(counters.worker_items, chunk.len() as u64);
                for (index, value) in chunk {
                    results[index] = value;
                }
            }
        });
    }
    telemetry::counter(counters.jobs, items.len() as u64);
    telemetry::counter(counters.workers, drained_by);
    telemetry::counter(counters.fanouts, u64::from(helpers > 0));
    telemetry::histogram(counters.worker_items, own_items);
    items
        .iter()
        .zip(results)
        .map(|(item, slot)| slot.unwrap_or_else(|| f(item)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    const TEST: Counters = Counters {
        jobs: "test.pool.jobs",
        workers: "test.pool.workers",
        fanouts: "test.pool.fanouts",
        worker_items: "test.pool.worker_items",
    };

    /// What the fan-out tests map over their items: `work` makes an item
    /// outlast the spawn budget several times over, so the queue fans out
    /// wherever there is more than one core; without it the whole queue
    /// drains well inside the budget, on the calling thread.
    fn item_cost(work: bool) {
        if work {
            std::thread::sleep(SPAWN_BUDGET * 4);
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let doubled = parallel_map(0, &items, &TEST, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map(0, &empty, &TEST, |&x: &usize| x).is_empty());
        // And when the queue fans out.
        let items: Vec<usize> = (0..24).collect();
        let tripled = parallel_map(4, &items, &TEST, |&x| {
            item_cost(true);
            x * 3
        });
        assert_eq!(tripled, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn a_queue_of_trivial_items_never_leaves_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..16).collect();
        // The rule is a clock: a caller descheduled for the whole budget in
        // the microsecond this queue takes would spawn. Not three times.
        let stayed_home = (0..3).any(|_| {
            parallel_map(4, &items, &TEST, |_| std::thread::current().id())
                .iter()
                .all(|&id| id == caller)
        });
        assert!(stayed_home, "sub-budget queues must not fan out");
    }

    #[test]
    fn a_queue_that_outlasts_the_budget_fans_out_beside_the_caller() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..12).collect();
        let ids = parallel_map(4, &items, &TEST, |_| {
            item_cost(true);
            std::thread::current().id()
        });
        assert_eq!(ids[0], caller, "the caller is worker 0 and starts at once");
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        let helped = ids.iter().any(|&id| id != caller);
        assert_eq!(helped, available > 1, "helpers exactly when cores allow");
        // One worker is one thread, whatever the items cost.
        let ids = parallel_map(1, &items, &TEST, |_| {
            item_cost(true);
            std::thread::current().id()
        });
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn a_spawned_helper_drains_an_item_whenever_cores_allow() {
        // The caller may empty a queue before a helper it spawned gets a
        // core. Here the first item outlasts the spawn budget, and every
        // later one waits (for at most a second) until some item has started
        // off the calling thread, so a helper gets its item on any load.
        let caller = std::thread::current().id();
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        let helper_started = AtomicBool::new(false);
        let items: Vec<usize> = (0..8).collect();
        let ids = parallel_map(0, &items, &TEST, |&x| {
            let id = std::thread::current().id();
            if id != caller {
                helper_started.store(true, Ordering::SeqCst);
            }
            if x == 0 {
                item_cost(true);
            } else if available > 1 {
                let deadline = Instant::now() + Duration::from_secs(1);
                while !helper_started.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            id
        });
        let helped = ids.iter().any(|&id| id != caller);
        assert_eq!(helped, available > 1, "helpers exactly when cores allow");
    }

    #[test]
    fn parallel_map_contains_worker_panics_and_retries_sequentially() {
        // Item 41 panics on its first attempt only — drained by the caller
        // (trivial items) or by whichever thread gets it (working items);
        // the map must survive, retry it on the calling thread, and still
        // produce every result in order.
        let caller = std::thread::current().id();
        for work in [false, true] {
            let attempts_on_41 = AtomicUsize::new(0);
            let retried_on = std::sync::Mutex::new(None);
            let items: Vec<usize> = (0..if work { 48 } else { 128 }).collect();
            let results = parallel_map(4, &items, &TEST, |&x| {
                item_cost(work);
                if x == 41 {
                    if attempts_on_41.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("transient failure on item {x}");
                    }
                    *retried_on.lock().unwrap() = Some(std::thread::current().id());
                }
                x * 3
            });
            assert_eq!(results, items.iter().map(|x| x * 3).collect::<Vec<_>>());
            assert_eq!(attempts_on_41.load(Ordering::SeqCst), 2, "one retry");
            assert_eq!(*retried_on.lock().unwrap(), Some(caller));
        }
    }

    #[test]
    fn parallel_map_repanics_deterministic_failures_on_the_caller() {
        for work in [false, true] {
            let items: Vec<usize> = (0..32).collect();
            let caught = std::panic::catch_unwind(|| {
                parallel_map(4, &items, &TEST, |&x| {
                    item_cost(work);
                    if x == 13 {
                        panic!("deterministically poisoned item");
                    }
                    x
                })
            });
            assert!(caught.is_err(), "a persistent panic must still surface");
        }
    }

    #[test]
    fn requested_workers_clamp_to_available_parallelism() {
        // An explicit 12-worker request on a 1-core machine once
        // oversubscribed the scheduler to 0.84x of sequential. Requests
        // must never exceed the machine.
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(effective_workers(0, 64), available.min(64));
        assert!(effective_workers(12, 1024) <= available);
        assert!(effective_workers(usize::MAX, 1024) <= available);
        assert_eq!(effective_workers(1, 8), 1);
        assert_eq!(effective_workers(8, 3), available.min(8).min(3));
        assert_eq!(effective_workers(4, 0), 0);
        // An oversubscribed request still maps correctly after clamping.
        let items: Vec<usize> = (0..100).collect();
        assert_eq!(
            parallel_map(1024, &items, &TEST, |&x| x + 1),
            (1..101).collect::<Vec<_>>()
        );
    }
}

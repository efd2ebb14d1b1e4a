//! Wall clock, CPU time and peak memory of this process and its children.
//!
//! CPU time comes from `getrusage`, the only source that covers every thread
//! (also the ones that have already exited) and every waited-for child with
//! microsecond resolution; `std` has no wrapper for it, so it is declared
//! here against the C library `std` already links.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads CPU time through the 64-bit Linux `rusage` layout");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout the
    // kernel fills for 64-bit Linux (enforced by the `compile_error!` above),
    // and `who` is one of the two constants the call defines.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) cannot fail with valid arguments");
    usage
}

fn cpu_of(usage: &Rusage) -> f64 {
    (usage.utime.sec + usage.stime.sec) as f64 + (usage.utime.usec + usage.stime.usec) as f64 / 1e6
}

/// User + system CPU seconds consumed so far by this process (all threads)
/// and by every child it has waited for.
pub fn cpu_seconds() -> f64 {
    cpu_of(&rusage(RUSAGE_SELF)) + cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// Peak resident set in MB: the larger of this process's and of its largest
/// waited-for child's.
pub fn peak_rss_mb() -> f64 {
    let kib = rusage(RUSAGE_SELF).longs[0].max(rusage(RUSAGE_CHILDREN).longs[0]);
    kib as f64 / 1024.0
}

/// A running wall + CPU measurement.
pub struct Stopwatch {
    started: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// `(wall seconds, cpu seconds)` since `start`.
    pub fn stop(&self) -> (f64, f64) {
        (
            self.started.elapsed().as_secs_f64(),
            cpu_seconds() - self.cpu,
        )
    }
}

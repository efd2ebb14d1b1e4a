//! A set-associative, write-allocate, LRU cache simulator with two levels.
//!
//! The CLOUDSC case study (Table 1) reports absolute numbers of loads and
//! evicts on the L1 cache before and after normalization + fusion; this
//! simulator reproduces those counters from the exact access stream of a
//! program.
//!
//! # Layout and geometry
//!
//! Each level stores its tags in one flat preallocated array (`set_count *
//! assoc` entries, per set in true LRU order with the MRU line at the
//! front) and maps a line to its set by masking with `set_count - 1`. Two
//! invariants make that indexing valid, both established by
//! `CacheLevel::new`:
//!
//! * the line size is rounded to the nearest power of two (ties upward), so
//!   the line number is `address >> line_shift`;
//! * the set count is rounded to the *nearest* power of two (ties upward)
//!   of `capacity / line_bytes / assoc`, so the set index is
//!   `line & (set_count - 1)`. When `capacity / line_bytes` is not a
//!   multiple of `assoc` times a power of two, the modeled capacity is
//!   `set_count * assoc * line_bytes`, which can deviate from the configured
//!   capacity by at most a factor of √2 — previously the quotient was
//!   silently truncated, modeling caches up to 2× smaller than configured.
//!
//! # Streaming fast paths
//!
//! [`CacheHierarchy::access`] short-circuits an access to the same line as
//! the immediately preceding access: that line is by construction the MRU
//! entry of its set, so the access is a guaranteed hit and only the hit
//! counter needs to move. [`CacheHierarchy::access_run_group`], the one
//! run-compression path, extends the idea to the *interleaved* stream of a
//! whole compiled innermost loop (one or more lockstep runs) with one rule:
//! an access is simulated only when its lane's line changed. Lanes whose
//! stride is below a line (*stationary* lanes) cut the stream into line
//! phases; each phase's first iteration is simulated in full, and after it
//! only the lanes striding a line or more (*movers*) are probed while the
//! stationary lanes' accesses are credited as L1 hits in closed form —
//! re-touching resident lines in lane order is idempotent on a set's
//! recency order as long as no other line enters the set, and the
//! iterations in which a mover's line does (plus the one after each) are
//! replayed in full. A unit-stride group has no movers and costs
//! O(distinct lines); a GEMM column walk next to a row walk probes one lane
//! in four. A single run is a group of one lane: a sub-line stride
//! simulates one access per distinct line and credits the rest as hits, a
//! stride of a line or more is simulated per access. All fast paths
//! produce counters that are *bit-identical* to naively simulating every
//! access (see [`mod@reference`] and the equivalence tests). Runs whose
//! addresses leave `[0, i64::MAX]` wrap modulo 2^64, the same way in every
//! path, and are simulated per access.

use std::collections::BTreeMap;

use loop_ir::expr::Var;

use crate::config::MachineConfig;
use crate::trace::StrideRun;

/// Counters of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of lines loaded into the level (misses of this level).
    pub loads: u64,
    /// Number of dirty or clean lines evicted to make room.
    pub evicts: u64,
    /// Number of accesses that hit in the level.
    pub hits: u64,
    /// Number of accesses that missed in the level.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no accesses were simulated.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another replica's counters into this one — the reduction
    /// of the sharded simulation driver (`shard::simulate_cache_sharded`).
    /// Field-wise `u64` addition, so the merged result is independent of
    /// the order shards are folded in: any worker schedule produces
    /// bit-identical totals.
    pub fn merge(&mut self, other: &CacheStats) {
        self.loads += other.loads;
        self.evicts += other.evicts;
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Sentinel marking an unused way. Valid only because a real line number
/// would require an address of at least `u64::MAX * line_bytes`.
const EMPTY: u64 = u64::MAX;

/// Rounds to the nearest power of two, ties toward the larger one. Shared
/// with the analytic tier ([`crate::analytic`]), which must model the same
/// rounded geometry the simulator actually uses.
pub(crate) fn nearest_pow2(n: u64) -> u64 {
    let n = n.max(1);
    if n.is_power_of_two() {
        return n;
    }
    let above = n.next_power_of_two();
    let below = above / 2;
    if n - below < above - n {
        below
    } else {
        above
    }
}

/// The carry pass of [`CacheLevel::access_line_tracked`] over one set:
/// returns the hit flag and the last tag carried (the victim on a miss).
/// Generic over the set's type so that an 8-way set — both levels of the
/// modelled Xeon — can come in as an array: with the trip count known the
/// pass unrolls into straight-line selects (one worker, generic → unrolled:
/// `col_major` 0.27 → 0.19 s, `gemm_ijk` 0.35 → 0.31 s, `gemm_jki` 0.69 →
/// 0.73 s).
#[inline(always)]
fn carry_pass<S: AsMut<[u64]> + ?Sized>(set: &mut S, line: u64) -> (bool, u64) {
    let mut carry = line;
    let mut hit = false;
    for way in set.as_mut() {
        let tag = *way;
        *way = if hit { tag } else { carry };
        hit |= tag == line;
        carry = tag;
    }
    (hit, carry)
}

/// One level of a set-associative LRU cache: per set, the line tags in true
/// LRU order (front = MRU) inside one flat preallocated array — the
/// reference algorithm's recency list without its per-set `Vec`s. An access
/// writes its line at the front and carries the displaced tags down; the
/// victim of a miss is always the back of the set ([`EMPTY`] ways sink
/// there by construction, so "first empty way, else LRU" needs no separate
/// scan).
#[derive(Debug, Clone)]
struct CacheLevel {
    /// `set_count * assoc` line numbers in per-set LRU order, [`EMPTY`]
    /// when the way is unused.
    tags: Box<[u64]>,
    /// Number of full lookups performed (the fast paths' probe count; the
    /// run-compression tests pin their closed-form crediting against it).
    probes: u64,
    assoc: usize,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `set_count - 1`.
    set_mask: u64,
    stats: CacheStats,
}

impl CacheLevel {
    /// The rounded `(line_bytes, set_count)` of a level (see the module
    /// docs), both powers of two.
    fn geometry(capacity: usize, assoc: usize, line_bytes: usize) -> (u64, u64) {
        let assoc = assoc.max(1) as u64;
        let line_bytes = nearest_pow2(line_bytes.max(1) as u64);
        let lines = ((capacity as u64) / line_bytes).max(assoc);
        (line_bytes, nearest_pow2(lines / assoc))
    }

    fn new(capacity: usize, assoc: usize, line_bytes: usize) -> Self {
        let assoc = assoc.max(1);
        let (line_bytes, set_count) = Self::geometry(capacity, assoc, line_bytes);
        CacheLevel {
            tags: vec![EMPTY; (set_count as usize) * assoc].into_boxed_slice(),
            probes: 0,
            assoc,
            line_shift: line_bytes.trailing_zeros(),
            set_mask: set_count - 1,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn line_of(&self, address: u64) -> u64 {
        address >> self.line_shift
    }

    /// Accesses one line; returns the hit flag and the tag the access
    /// displaced ([`EMPTY`] when no line was evicted).
    ///
    /// A hit on the MRU way changes nothing and returns at once. Otherwise
    /// lookup and move-to-front are one carry pass: the incoming tag is
    /// written at the front and each displaced tag moves one way down until
    /// the line's old way absorbs the carry (a hit) or it falls off the back
    /// (a miss, the carry being the victim). The pass always runs to the
    /// back, turning into a rewrite of each way with itself once absorbed:
    /// an exit at the hit way is a branch the predictor loses whenever the
    /// hit depth varies, which costs more than the ways saved.
    #[inline]
    fn access_line_tracked(&mut self, line: u64) -> (bool, u64) {
        let base = ((line & self.set_mask) as usize) * self.assoc;
        self.probes += 1;
        let set = &mut self.tags[base..base + self.assoc];
        if set[0] == line {
            self.stats.hits += 1;
            return (true, EMPTY);
        }
        let (hit, carry) = match <&mut [u64; 8]>::try_from(&mut *set) {
            Ok(eight_ways) => carry_pass(eight_ways, line),
            Err(_) => carry_pass(set, line),
        };
        if hit {
            self.stats.hits += 1;
            return (true, EMPTY);
        }
        self.stats.misses += 1;
        self.stats.loads += 1;
        if carry != EMPTY {
            self.stats.evicts += 1;
        }
        (false, carry)
    }

    /// Accesses one line; returns true on hit.
    #[inline]
    fn access_line(&mut self, line: u64) -> bool {
        self.access_line_tracked(line).0
    }

    /// Accesses the byte address; returns true on hit. The hierarchy's hot
    /// paths pass lines directly; this remains for the level-granularity
    /// tests.
    #[cfg(test)]
    fn access(&mut self, address: u64) -> bool {
        self.access_line(self.line_of(address))
    }
}

/// A two-level cache hierarchy fed with byte addresses.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: CacheLevel,
    l2: CacheLevel,
    accesses: u64,
    /// L1 line number of the previous access; a repeat is a guaranteed hit.
    last_line: u64,
    /// Scratch of the run-group fast path, kept on the hierarchy so
    /// per-innermost-loop calls allocate nothing.
    group: GroupScratch,
}

/// Working state of one [`CacheHierarchy::access_run_group`] call.
#[derive(Debug, Clone, Default)]
struct GroupScratch {
    /// One entry per run, in stream order.
    lanes: Vec<GroupLane>,
    /// One entry per mover lane, in stream order.
    movers: Vec<GroupMover>,
    /// The L1 sets holding a stationary lane's line in the current phase.
    sets: Vec<u64>,
    /// The L1 tags evicted while replaying one iteration.
    evicted: Vec<u64>,
    /// Telemetry: stationary accesses credited in quiet iterations.
    credited: u64,
    /// Telemetry: iterations after a phase head replayed in full.
    replayed: u64,
}

/// Per-run state of the run-group fast path. Everything advances
/// incrementally: a sub-line stride can never skip a line, so crossings move
/// `line` by `dir` (±1) and the crossing distances are either a closed-form
/// period (stride divides the line size) or a 32-bit division over the
/// direction-relative entry offset — no per-phase multiply or shift.
#[derive(Debug, Clone)]
struct GroupLane {
    /// The line the lane currently walks.
    line: u64,
    /// The iteration at which the lane leaves `line`.
    next: u64,
    /// Line increment per crossing: ±1 for sub-line strides, 0 for stride
    /// zero.
    dir: i64,
    /// Byte offset of the current line's first access from the entry edge
    /// in walk direction (maintained only when `period` is 0).
    o: u32,
    /// `|stride|`, consulted only when below the line size.
    s_abs: u32,
    /// Closed-form iterations per line once past the (possibly partial)
    /// first line — `line_bytes / |stride|` when that divides evenly, `0`
    /// when the crossing distance must be divided out per crossing.
    period: u64,
    base: i64,
    stride: i64,
    /// `|stride|` is a line or more: on a fresh line every iteration, never
    /// bounding a phase. Only `line` is maintained, copied from the lane's
    /// [`GroupMover`] whenever an iteration is replayed.
    mover: bool,
    /// Middle member of a stagger cluster: its line crossings never end a
    /// phase (they move onto a line the cluster leader already keeps
    /// resident), so its `line`/`next` are recomputed lazily from `base`
    /// whenever a phase head finds them stale.
    elided: bool,
}

/// The per-iteration state of a mover lane, kept apart from [`GroupLane`] so
/// the quiet loop walks a dense array of exactly the lanes it probes.
#[derive(Debug, Clone)]
struct GroupMover {
    /// Byte address of the lane's access in the current iteration.
    addr: u64,
    stride: i64,
    /// Position of the lane in the group (stream order).
    lane: usize,
}

/// The address of access `i` of a constant-stride run, modulo 2^64 — the one
/// wrap rule of every simulation path.
#[inline]
fn run_address(base: u64, stride: i64, i: u64) -> u64 {
    base.wrapping_add((stride as u64).wrapping_mul(i))
}

/// The address of a run's last access when the whole run stays inside
/// `[0, i64::MAX]`, the domain of the closed-form fast paths; `None` when it
/// walks below zero or overflows (such runs wrap, see [`run_address`]).
fn run_end(base: u64, stride: i64, count: u64) -> Option<u64> {
    let span = stride.checked_mul(i64::try_from(count.checked_sub(1)?).ok()?)?;
    let end = i64::try_from(base).ok()?.checked_add(span)?;
    u64::try_from(end).ok()
}

impl GroupMover {
    /// Advances to the next iteration. Groups on the lane path stay inside
    /// `[0, i64::MAX]` (see [`run_end`]); the wrap only keeps the step past
    /// a group's last iteration, whose address is never used, from
    /// overflowing.
    #[inline]
    fn step(&mut self) {
        self.addr = self.addr.wrapping_add_signed(self.stride);
    }

    /// Whether the lane's current line maps to one of the stationary `sets`.
    #[inline]
    fn collides(&self, sets: &[u64], shift: u32, set_mask: u64) -> bool {
        sets.contains(&((self.addr >> shift) & set_mask))
    }
}

/// Whether any mover's current line maps to one of the stationary `sets`.
#[inline]
fn movers_collide(movers: &[GroupMover], sets: &[u64], shift: u32, set_mask: u64) -> bool {
    movers
        .iter()
        .any(|mover| mover.collides(sets, shift, set_mask))
}

impl GroupScratch {
    /// Whether the last replayed iteration evicted a line a stationary lane
    /// keeps touching.
    fn stationary_evicted(&self) -> bool {
        self.evicted.iter().any(|tag| {
            self.lanes
                .iter()
                .any(|lane| !lane.mover && lane.line == *tag)
        })
    }
}

impl CacheHierarchy {
    /// Builds the hierarchy described by a [`MachineConfig`].
    pub fn from_machine(machine: &MachineConfig) -> Self {
        let hierarchy = CacheHierarchy {
            l1: CacheLevel::new(machine.l1_bytes, machine.l1_assoc, machine.line_bytes),
            l2: CacheLevel::new(machine.l2_bytes, machine.l2_assoc, machine.line_bytes),
            accesses: 0,
            last_line: EMPTY,
            group: GroupScratch::default(),
        };
        // The run-group path reconstructs line-aligned addresses; both levels
        // sharing one line size keeps those addresses on the original lines.
        debug_assert_eq!(hierarchy.l1.line_shift, hierarchy.l2.line_shift);
        hierarchy
    }

    /// The rounded line size and the byte distance after which the set
    /// mapping of both levels repeats, `line_bytes × max(L1 sets, L2 sets)`
    /// (the *set period*). Moving every address by the same whole number of
    /// lines shifts each level's set index by one constant modulo that
    /// level's set count, and moving one address by a whole set period
    /// keeps it in the same set at both levels. `None` when a line is wider
    /// than the [`AddressMap`] alignment, so that two arrays could share one.
    pub(crate) fn line_and_set_period_bytes(machine: &MachineConfig) -> Option<(u64, u64)> {
        let (line_bytes, l1_sets) =
            CacheLevel::geometry(machine.l1_bytes, machine.l1_assoc, machine.line_bytes);
        let (_, l2_sets) =
            CacheLevel::geometry(machine.l2_bytes, machine.l2_assoc, machine.line_bytes);
        (line_bytes <= AddressMap::ALIGN).then(|| (line_bytes, line_bytes * l1_sets.max(l2_sets)))
    }

    /// Simulates one access to the given byte address (reads and writes are
    /// treated alike: write-allocate).
    #[inline]
    pub fn access(&mut self, address: u64) {
        self.accesses += 1;
        self.access_counted(address);
    }

    /// The access path without the total-access bookkeeping (used by the
    /// run-group path, which counts accesses in bulk).
    #[inline]
    fn access_counted(&mut self, address: u64) {
        self.access_counted_tracked(address);
    }

    /// Like [`access_counted`](Self::access_counted), but reports the L1 tag
    /// the access displaced ([`EMPTY`] when none) — the run-group fast path
    /// uses it to detect one of its live lines being evicted.
    #[inline]
    fn access_counted_tracked(&mut self, address: u64) -> u64 {
        self.access_counted_at_line(address, self.l1.line_of(address))
    }

    /// The tracked access path with the L1 line already computed (the
    /// run-group phase loop derives it for its own bookkeeping anyway).
    /// Both levels share one line size, so the line stands in for the
    /// address at L2 as well.
    #[inline]
    fn access_counted_at_line(&mut self, address: u64, line: u64) -> u64 {
        debug_assert_eq!(self.l1.line_of(address), line);
        if line == self.last_line {
            // The previous access touched this exact line, so it is the MRU
            // entry of its set: a guaranteed hit whose recency update is a
            // no-op. Identical counters to the full lookup.
            self.l1.stats.hits += 1;
            return EMPTY;
        }
        self.last_line = line;
        let (hit, evicted) = self.l1.access_line_tracked(line);
        if !hit {
            self.l2.access_line(line);
        }
        evicted
    }

    /// Simulates iterations `iterations` of a lockstep group one access at a
    /// time, in stream order.
    fn expand_group(&mut self, runs: &[StrideRun], iterations: std::ops::Range<u64>) {
        for i in iterations {
            for r in runs {
                self.access_counted(run_address(r.base, r.stride, i));
            }
        }
    }

    /// Runs quiet iterations, at most `budget >= 1` of them: the movers are
    /// on an iteration known to be quiet; each pass probes them in lane
    /// order, steps them and stops once the iteration they are then on has
    /// one in a stationary set (or the budget is spent). Returns the
    /// iterations completed. Kept out of line and free of the phase
    /// bookkeeping so the loop keeps the levels' fields in registers.
    #[inline(never)]
    fn quiet_iterations(&mut self, movers: &mut [GroupMover], sets: &[u64], budget: u64) -> u64 {
        let (shift, set_mask) = (self.l1.line_shift, self.l1.set_mask);
        let mut done = 0;
        loop {
            let mut collides = false;
            for mover in movers.iter_mut() {
                self.access_counted_at_line(mover.addr, mover.addr >> shift);
                mover.step();
                collides |= mover.collides(sets, shift, set_mask);
            }
            done += 1;
            if collides || done == budget {
                return done;
            }
        }
    }

    /// Touches one lane's line in stream order, noting the L1 tag it
    /// displaced (any address on the line is equivalent for the hierarchy:
    /// both levels share one line size).
    #[inline]
    fn touch_tracked(&mut self, line: u64, evictions: &mut Vec<u64>) {
        let evicted = self.access_counted_at_line(line << self.l1.line_shift, line);
        if evicted != EMPTY {
            evictions.push(evicted);
        }
    }

    /// Simulates the interleaved access stream of a compiled innermost loop:
    /// iteration `i` touches `runs[0].base + i·stride`, then `runs[1]`, … —
    /// the lockstep advance of every access plan of the loop body. All runs
    /// of a group share one trip count.
    ///
    /// Lanes come in two kinds. A *stationary* lane (`|stride|` below the
    /// line size, zero included) stays on one cache line for several
    /// iterations; a *mover* (`|stride|` of a line or more) is on a fresh
    /// line every iteration. The stream is cut into *line phases*: maximal
    /// iteration ranges in which no stationary lane crosses a line boundary.
    /// A phase's first iteration (its head) is replayed access by access in
    /// stream order — which also refreshes the LRU recency of every live
    /// line. Every later iteration of the phase is either
    ///
    /// * *quiet* — only the movers are probed, in lane order, and the
    ///   stationary lanes' accesses are credited as L1 hits in closed form
    ///   (they never reach L2); a group without movers credits the whole
    ///   rest of the phase at once — or
    /// * *replayed* in full stream order like a head.
    ///
    /// Why a quiet iteration is exact. Call an L1 set that holds a
    /// stationary lane's line a stationary set. Right after a replayed
    /// iteration in which no mover's line mapped to a stationary set, every
    /// stationary set has its stationary lines at the front, in the order of
    /// their last touch within the iteration. Touching them again in that
    /// same lane order hits every time and moves each line to where it
    /// already is — the touches are idempotent on the set's recency order —
    /// so as long as no other line enters a stationary set, dropping them
    /// changes neither the state nor any counter but the L1 hits credited,
    /// and the movers' probes, which go to other sets, commute with them.
    /// Hence the replay rule: an iteration is quiet unless a mover's line
    /// maps to a stationary set in it **or in the iteration before it**.
    /// The second half is not optional: a mover's line that entered a
    /// stationary set late in a replayed iteration sits in front of the
    /// stationary lines touched before it, so the next iteration's touches
    /// do reorder them, and only after that replay is the set back at its
    /// fixed point. Quiet iterations leave `last_line` on the last mover
    /// probed, which stays the MRU line of its (non-stationary) set, so the
    /// repeated-line shortcut remains valid across them.
    ///
    /// The one further exception is an associativity conflict: when a
    /// replayed iteration (a head included) evicts a stationary lane's
    /// line, the rest of the phase falls back to per-access simulation.
    ///
    /// Two refinements bound the bookkeeping. A group without a stationary
    /// lane is one phase of quiet iterations with nothing to credit: it is
    /// expanded per access up front. And in groups without a mover, stagger
    /// clusters — contiguous same-array lanes one sub-line stride apart
    /// within a line span, the shape of a stencil body — stop breaking
    /// phases at their middle members' line crossings, which by construction
    /// land on a line the cluster already holds resident. Counters remain
    /// bit-identical to expanding the group through [`access`](Self::access)
    /// in interleaved order, as the differential suites verify.
    pub fn access_run_group(&mut self, runs: &[StrideRun]) {
        let Some(first) = runs.first() else {
            return;
        };
        let count = first.count;
        if runs.iter().any(|r| r.count != count) {
            // Degenerate group: the runs disagree on the trip count (a
            // malformed plan, or zero-trip members mixed with live ones).
            // Interleave them per-access honoring each run's own count —
            // trusting `runs[0]` would drop or invent accesses.
            let longest = runs.iter().map(|r| r.count).max().unwrap_or(0);
            let total = runs.iter().map(|r| r.count).sum::<u64>();
            telemetry::counter("machine.cache.group_ragged_accesses", total);
            self.accesses += total;
            for i in 0..longest {
                for r in runs {
                    if i < r.count {
                        self.access_counted(run_address(r.base, r.stride, i));
                    }
                }
            }
            return;
        }
        if count == 0 {
            return;
        }
        let width = runs.len() as u64;
        self.accesses += count * width;
        telemetry::counter("machine.cache.group_accesses", count * width);
        if runs
            .iter()
            .any(|r| run_end(r.base, r.stride, count).is_none())
        {
            // A run leaving `[0, i64::MAX]` wraps exactly the way the
            // expanded per-access stream does.
            self.expand_group(runs, 0..count);
            return;
        }
        let shift = self.l1.line_shift;
        let line_bytes = 1u64 << shift;
        debug_assert!(shift < 32, "line sizes are small powers of two");
        let lb = line_bytes as u32;
        if runs.iter().all(|r| r.stride.unsigned_abs() >= line_bytes) {
            // No stationary lane (strided column walks): one phase whose
            // every iteration is quiet — the movers, which are all the
            // lanes, probed in lane order. Expanding it per access is the
            // same simulation without the lane state, and measurably the
            // cheaper way to run it (`col_major`: 0.19 s against 0.22 s
            // through the loop below, one worker).
            telemetry::counter("machine.cache.group_superline_accesses", count * width);
            self.expand_group(runs, 0..count);
            return;
        }
        let mut g = std::mem::take(&mut self.group);
        g.lanes.clear();
        g.movers.clear();
        (g.credited, g.replayed) = (0, 0);
        for (lane, r) in runs.iter().enumerate() {
            let s_abs = r.stride.unsigned_abs();
            let addr = r.base;
            let line = addr >> shift;
            // The first access's offset from the line edge the walk enters
            // through (start edge for positive strides, end edge for
            // negative), so one formula covers both directions.
            let o_fwd = (addr & (line_bytes - 1)) as u32;
            let o = if r.stride >= 0 { o_fwd } else { lb - 1 - o_fwd };
            g.lanes.push(GroupLane {
                // The setup "crossing" at i = 0 adds `dir` back.
                line: line.wrapping_sub_signed(r.stride.signum()),
                next: 0,
                dir: r.stride.signum(),
                o,
                s_abs: s_abs.min(u64::from(u32::MAX)) as u32,
                // Only powers of two divide the (power-of-two) line size, so
                // the closed-form period needs no division.
                period: if s_abs != 0 && s_abs < line_bytes && s_abs.is_power_of_two() {
                    line_bytes >> s_abs.trailing_zeros()
                } else {
                    0
                },
                base: r.base as i64,
                stride: r.stride,
                mover: s_abs >= line_bytes,
                elided: false,
            });
            if s_abs >= line_bytes {
                g.movers.push(GroupMover {
                    addr,
                    stride: r.stride,
                    lane,
                });
            }
        }
        // Stagger clusters: maximal blocks of lanes, contiguous in run
        // order, on one array with one nonzero sub-line stride and all
        // bases within one line span (`A[i-1] / A[i] / A[i+1]`). Such a
        // block occupies at most two adjacent cache lines at any iteration,
        // and a middle member only ever crosses onto the line the cluster
        // leader already keeps resident, so middle crossings cannot miss
        // and need not end a phase. Only the leader (front-most in walk
        // direction, first to enter a new line) and the rear (last off the
        // old line, whose crossing freezes its recency) keep bounding
        // `phase_end`; the rest are elided. Adjacent lines must map to
        // different sets for the recency argument to hold, hence the
        // `set_mask > 0` gate; run-order contiguity keeps every external
        // lane's stream position outside the block, so which member last
        // touched a cluster line never reorders it against outsiders.
        // A group with a mover elides nothing: the quiet rule reads the
        // stationary lanes' lines, so every crossing must be a head there.
        if self.l1.set_mask > 0 && g.movers.is_empty() {
            let mut j = 0;
            while j < runs.len() {
                let stride = runs[j].stride;
                if stride == 0 {
                    j += 1;
                    continue;
                }
                let (mut lo, mut hi) = (runs[j].base, runs[j].base);
                let mut k = j + 1;
                while k < runs.len() && runs[k].array == runs[j].array && runs[k].stride == stride {
                    let nlo = lo.min(runs[k].base);
                    let nhi = hi.max(runs[k].base);
                    if nhi - nlo >= line_bytes {
                        break;
                    }
                    (lo, hi) = (nlo, nhi);
                    k += 1;
                }
                if k - j >= 3 {
                    let (lead, rear) = if stride > 0 { (hi, lo) } else { (lo, hi) };
                    let (mut lead_kept, mut rear_kept) = (false, false);
                    let mut elided = 0u64;
                    for (lane, run) in g.lanes[j..k].iter_mut().zip(&runs[j..k]) {
                        if !lead_kept && run.base == lead {
                            lead_kept = true;
                        } else if !rear_kept && run.base == rear {
                            rear_kept = true;
                        } else {
                            lane.elided = true;
                            elided += 1;
                        }
                    }
                    telemetry::counter("machine.cache.group_stagger_elided", elided * count);
                }
                j = k.max(j + 1);
            }
        }
        let mut i = 0u64;
        while i < count {
            // One fused pass per phase: simulate the phase head (one full
            // iteration, in stream order) while computing how long no
            // stationary lane leaves its current line (`phase_end`). Evicted
            // tags are checked against the live lines only after the pass,
            // when every lane's line is known.
            let mut phase_end = count;
            g.evicted.clear();
            for mover in &mut g.movers {
                mover.addr = run_address(runs[mover.lane].base, mover.stride, i);
                g.lanes[mover.lane].line = mover.addr >> shift;
            }
            for lane in &mut g.lanes {
                if lane.elided {
                    // Elided cluster middles may have crossed several lines
                    // since the last head (their crossings never end a
                    // phase): catch up from the absolute address. Their
                    // `next` never bounds `phase_end`.
                    if lane.next <= i {
                        let addr = (lane.base + lane.stride * i as i64) as u64;
                        lane.line = addr >> shift;
                        let o_fwd = (addr & (line_bytes - 1)) as u32;
                        let o = if lane.stride >= 0 {
                            o_fwd
                        } else {
                            lb - 1 - o_fwd
                        };
                        lane.next = i + u64::from((lb - 1 - o) / lane.s_abs + 1);
                    }
                } else if !lane.mover {
                    if lane.next == i {
                        if lane.stride == 0 {
                            lane.line = (lane.base as u64) >> shift;
                            lane.next = count;
                        } else {
                            // A sub-line stride enters the adjacent line;
                            // the crossing distance is the closed-form
                            // period past the (possibly partial) first line,
                            // or a 32-bit division over the entry offset.
                            lane.line = lane.line.wrapping_add_signed(lane.dir);
                            lane.next = if lane.period != 0 && i != 0 {
                                i + lane.period
                            } else {
                                let iters = (lb - 1 - lane.o) / lane.s_abs + 1;
                                lane.o = lane.o + lane.s_abs * iters - lb;
                                i + u64::from(iters)
                            };
                        }
                    }
                    phase_end = phase_end.min(lane.next);
                }
                self.touch_tracked(lane.line, &mut g.evicted);
            }
            i += 1;
            if g.stationary_evicted() {
                // Falls through to the per-access fallback below.
            } else if g.movers.is_empty() {
                // Every live line is resident and hits evict nothing: the
                // rest of the phase hits in L1, credited in closed form.
                self.l1.stats.hits += (phase_end - i) * width;
                i = phase_end;
            } else {
                i = self.mixed_phase_tail(&mut g, i, phase_end);
            }
            if i < phase_end {
                // An associativity conflict displaced a line the phase keeps
                // touching: the remaining iterations are not all-hit,
                // simulate them one access at a time.
                telemetry::counter(
                    "machine.cache.group_conflict_accesses",
                    (phase_end - i) * width,
                );
                self.expand_group(runs, i..phase_end);
                i = phase_end;
            }
        }
        if !g.movers.is_empty() {
            telemetry::counter("machine.cache.group_stationary_credited", g.credited);
            telemetry::counter("machine.cache.group_replayed_iterations", g.replayed);
        }
        self.group = g;
    }

    /// Iterations `i..phase_end` of a phase in a group with movers, `i - 1`
    /// being its head: quiet ones probe the movers only, the others are
    /// replayed in stream order (the rule and its proof are on
    /// [`access_run_group`](Self::access_run_group)). Returns `phase_end`,
    /// or the first iteration not simulated when a replay evicted a
    /// stationary lane's line.
    fn mixed_phase_tail(&mut self, g: &mut GroupScratch, mut i: u64, phase_end: u64) -> u64 {
        let (shift, set_mask) = (self.l1.line_shift, self.l1.set_mask);
        let stationary = (g.lanes.len() - g.movers.len()) as u64;
        g.sets.clear();
        g.sets.extend(
            g.lanes
                .iter()
                .filter(|lane| !lane.mover)
                .map(|lane| lane.line & set_mask),
        );
        // Invariant: the movers are on iteration `i`, not yet probed, and
        // `collided` says whether one of them mapped to a stationary set in
        // iteration `i - 1`.
        let mut collided = movers_collide(&g.movers, &g.sets, shift, set_mask);
        g.movers.iter_mut().for_each(GroupMover::step);
        while i < phase_end {
            let collides = movers_collide(&g.movers, &g.sets, shift, set_mask);
            if !collides && !collided {
                let ran = self.quiet_iterations(&mut g.movers, &g.sets, phase_end - i);
                self.l1.stats.hits += ran * stationary;
                g.credited += ran * stationary;
                i += ran;
                continue;
            }
            for mover in &mut g.movers {
                g.lanes[mover.lane].line = mover.addr >> shift;
                mover.step();
            }
            g.evicted.clear();
            for lane in &g.lanes {
                self.touch_tracked(lane.line, &mut g.evicted);
            }
            g.replayed += 1;
            i += 1;
            if g.stationary_evicted() {
                break;
            }
            collided = collides;
        }
        i
    }

    /// Total number of simulated accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of real L1 lookups performed. The run-compressed fast paths
    /// credit guaranteed hits in closed form, so `probes() / accesses()` is
    /// the fraction of the stream that was actually simulated per access.
    pub fn probes(&self) -> u64 {
        self.l1.probes
    }

    /// Counters of the L1 cache.
    pub fn l1(&self) -> CacheStats {
        self.l1.stats
    }

    /// Counters of the L2 cache.
    pub fn l2(&self) -> CacheStats {
        self.l2.stats
    }
}

/// The one cache oracle: per-set `Vec<u64>` in LRU order, one full lookup
/// per access, the same (rounded) geometry as [`CacheHierarchy`]. As an
/// [`AccessSink`](crate::AccessSink) it expands every run it is handed.
pub mod reference {
    use super::{nearest_pow2, CacheStats};
    use crate::config::MachineConfig;

    /// One level of the reference simulator.
    #[derive(Debug, Clone)]
    struct ReferenceLevel {
        sets: Vec<Vec<u64>>, // per set: line tags in LRU order (front = MRU)
        assoc: usize,
        line_bytes: u64,
        set_count: u64,
        stats: CacheStats,
    }

    impl ReferenceLevel {
        fn new(capacity: usize, assoc: usize, line_bytes: usize) -> Self {
            let assoc = assoc.max(1);
            let line_bytes = nearest_pow2(line_bytes.max(1) as u64);
            let lines = ((capacity as u64) / line_bytes).max(assoc as u64);
            let set_count = nearest_pow2(lines / assoc as u64);
            ReferenceLevel {
                sets: vec![Vec::with_capacity(assoc); set_count as usize],
                assoc,
                line_bytes,
                set_count,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, address: u64) -> bool {
            let line = address / self.line_bytes;
            let set_idx = (line % self.set_count) as usize;
            let set = &mut self.sets[set_idx];
            if let Some(pos) = set.iter().position(|&t| t == line) {
                set.remove(pos);
                set.insert(0, line);
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            self.stats.loads += 1;
            if set.len() >= self.assoc {
                set.pop();
                self.stats.evicts += 1;
            }
            set.insert(0, line);
            false
        }
    }

    /// The naive two-level hierarchy the streaming simulator must match
    /// counter-for-counter.
    #[derive(Debug, Clone)]
    pub struct ReferenceCacheHierarchy {
        l1: ReferenceLevel,
        l2: ReferenceLevel,
        accesses: u64,
    }

    impl ReferenceCacheHierarchy {
        /// Builds the hierarchy described by a [`MachineConfig`].
        pub fn from_machine(machine: &MachineConfig) -> Self {
            ReferenceCacheHierarchy {
                l1: ReferenceLevel::new(machine.l1_bytes, machine.l1_assoc, machine.line_bytes),
                l2: ReferenceLevel::new(machine.l2_bytes, machine.l2_assoc, machine.line_bytes),
                accesses: 0,
            }
        }

        /// Simulates one access.
        pub fn access(&mut self, address: u64) {
            self.accesses += 1;
            if !self.l1.access(address) {
                self.l2.access(address);
            }
        }

        /// Total number of simulated accesses.
        pub fn accesses(&self) -> u64 {
            self.accesses
        }

        /// Counters of the L1 cache.
        pub fn l1(&self) -> CacheStats {
            self.l1.stats
        }

        /// Counters of the L2 cache.
        pub fn l2(&self) -> CacheStats {
            self.l2.stats
        }
    }
}

/// Assigns non-overlapping base addresses to the arrays of a program so that
/// linear offsets can be turned into byte addresses.
#[derive(Debug, Clone, Default)]
pub struct AddressMap {
    bases: BTreeMap<Var, u64>,
}

impl AddressMap {
    /// Alignment of every array base; arrays are padded to a multiple of it.
    pub(crate) const ALIGN: u64 = 0x1000;

    /// Lays out the arrays of a program consecutively, 4 KiB aligned.
    pub fn for_program(program: &loop_ir::Program) -> Self {
        let mut bases = BTreeMap::new();
        let mut cursor: u64 = Self::ALIGN;
        for (name, array) in &program.arrays {
            let bytes = array.size_bytes(&program.params).unwrap_or(0).max(0) as u64;
            bases.insert(name.clone(), cursor);
            cursor += (bytes + Self::ALIGN - 1) & !(Self::ALIGN - 1);
        }
        AddressMap { bases }
    }

    /// The byte address of element `offset` (in elements) of the array.
    pub fn address(&self, array: &str, offset: i64, elem_size: usize) -> Option<u64> {
        self.bases
            .get(array)
            .map(|&base| Self::element(base, offset, elem_size))
    }

    /// The byte address of element `offset` of an array based at `base`.
    /// Negative offsets clamp to the base; an offset past the end of the
    /// address space wraps, the same way in every trace walker.
    pub(crate) fn element(base: u64, offset: i64, elem_size: usize) -> u64 {
        base.wrapping_add((offset.max(0) as u64).wrapping_mul(elem_size as u64))
    }

    /// The base byte address of an array, if it is laid out.
    pub fn base(&self, array: &str) -> Option<u64> {
        self.bases.get(array).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceCacheHierarchy;
    use super::*;
    use crate::trace::AccessSink;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny() -> CacheHierarchy {
        CacheHierarchy::from_machine(&MachineConfig::tiny_for_tests())
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny();
        c.access(0);
        c.access(8);
        c.access(16);
        assert_eq!(c.l1().misses, 1, "same line");
        assert_eq!(c.l1().hits, 2);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn streaming_misses_once_per_line() {
        let mut c = tiny();
        for i in 0..1024u64 {
            c.access(i * 8);
        }
        // 1024 doubles = 8 KiB = 128 lines.
        assert_eq!(c.l1().loads, 128);
        assert_eq!(c.l1().hits, 1024 - 128);
    }

    #[test]
    fn capacity_evictions_occur() {
        let machine = MachineConfig::tiny_for_tests(); // 1 KiB L1 = 16 lines
        let mut c = CacheHierarchy::from_machine(&machine);
        // touch 64 distinct lines twice; the second pass misses again in L1
        // because the working set (4 KiB) exceeds the 1 KiB L1.
        for _ in 0..2 {
            for i in 0..64u64 {
                c.access(i * 64);
            }
        }
        assert!(c.l1().evicts > 0);
        assert!(c.l1().misses > 64);
        // but the 8 KiB L2 holds the working set: second-pass L2 hits.
        assert!(c.l2().hits > 0);
    }

    #[test]
    fn working_set_within_l1_has_no_evicts_on_reuse() {
        let machine = MachineConfig::tiny_for_tests();
        let mut c = CacheHierarchy::from_machine(&machine);
        for _ in 0..4 {
            for i in 0..8u64 {
                c.access(i * 64);
            }
        }
        assert_eq!(c.l1().loads, 8);
        assert_eq!(c.l1().evicts, 0);
        assert!(c.l1().hit_rate() > 0.7);
    }

    #[test]
    fn lru_replacement_order() {
        // Direct construction: 4 lines capacity, assoc 4, one set.
        let mut level = CacheLevel::new(256, 4, 64);
        assert_eq!(level.set_mask, 0);
        for addr in [0u64, 64, 128, 192] {
            level.access(addr);
        }
        // Touch line 0 to make it MRU, then insert a new line: line 64 (LRU)
        // must be evicted, so accessing 0 still hits but 64 misses.
        level.access(0);
        level.access(256);
        assert!(level.access(0));
        assert!(!level.access(64));
    }

    #[test]
    fn geometry_rounds_to_nearest_power_of_two() {
        assert_eq!(nearest_pow2(1), 1);
        assert_eq!(nearest_pow2(12), 16); // equidistant from 8 and 16: ties up
        assert_eq!(nearest_pow2(11), 8);
        assert_eq!(nearest_pow2(13), 16);
        assert_eq!(nearest_pow2(64), 64);
        // A 96-line capacity at assoc 4 is 24 ideal sets; the nearest valid
        // power of two is 32 sets, not the truncated 16 the old geometry
        // produced (which modeled a 2/3-sized cache).
        let level = CacheLevel::new(96 * 64, 4, 64);
        assert_eq!(level.set_mask + 1, 32);
    }

    #[test]
    fn address_map_keeps_arrays_disjoint() {
        use loop_ir::prelude::*;
        let p = Program::builder("two")
            .param("N", 100)
            .array("A", &["N"])
            .array("B", &["N"])
            .build()
            .unwrap();
        let map = AddressMap::for_program(&p);
        let a_last = map.address("A", 99, 8).unwrap();
        let b_first = map.address("B", 0, 8).unwrap();
        assert!(a_last < b_first);
        assert!(map.address("Z", 0, 8).is_none());
        assert_eq!(map.base("A"), Some(0x1000));
    }

    #[test]
    fn hit_rate_of_empty_stats_is_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    fn assert_same_stats(fast: &CacheHierarchy, slow: &ReferenceCacheHierarchy, label: &str) {
        assert_eq!(fast.accesses(), slow.accesses(), "{label}: access counts");
        assert_eq!(fast.l1(), slow.l1(), "{label}: L1 counters");
        assert_eq!(fast.l2(), slow.l2(), "{label}: L2 counters");
    }

    #[test]
    fn flat_simulator_matches_reference_on_random_streams() {
        let machine = MachineConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(0xCAC4E);
        for round in 0..8 {
            let mut fast = CacheHierarchy::from_machine(&machine);
            let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
            for _ in 0..20_000 {
                // Mix of hot lines (set conflicts) and a long tail.
                let address = if rng.gen_bool(0.5) {
                    rng.gen_range(0..4096u64)
                } else {
                    rng.gen_range(0..1 << 20)
                };
                fast.access(address);
                slow.access(address);
            }
            assert_same_stats(&fast, &slow, &format!("random round {round}"));
        }
    }

    #[test]
    fn strided_runs_match_reference_exactly() {
        let machine = MachineConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(0x57E1DE);
        // Strides spanning sub-line, exactly-line, super-line, zero and
        // negative; starts unaligned on purpose.
        for &stride in &[0i64, 4, 8, 24, 63, 64, 65, 128, 1000, -8, -64, -24] {
            for _ in 0..4 {
                let count = rng.gen_range(1..800u64);
                let start = rng.gen_range(100_000..200_000u64);
                let mut fast = CacheHierarchy::from_machine(&machine);
                let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
                // Pre-warm both with a shared random prefix so runs start
                // from a non-trivial cache state.
                for _ in 0..500 {
                    let a = rng.gen_range(0..1 << 18);
                    fast.access(a);
                    slow.access(a);
                }
                fast.access_run_group(&[array_run(start, stride, count, 0)]);
                slow.run(start, stride, count, false);
                assert_same_stats(&fast, &slow, &format!("stride {stride} count {count}"));
            }
        }
    }

    #[test]
    fn run_groups_match_reference_across_stride_mixes() {
        let machine = MachineConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(0x6E0);
        // Groups mixing unit, zero, negative, sub-line and super-line
        // strides, with staggered unaligned bases.
        let stride_menu = [0i64, 8, 8, 8, -8, 16, 24, 63, 64, 65, 128, -64];
        for round in 0..24 {
            let k = rng.gen_range(2..7usize);
            let count = rng.gen_range(1..600u64);
            let runs: Vec<StrideRun> = (0..k)
                .map(|_| {
                    let stride = stride_menu[rng.gen_range(0..stride_menu.len())];
                    let base = rng.gen_range(100_000..180_000u64);
                    array_run(base, stride, count, 0)
                })
                .collect();
            let mut fast = CacheHierarchy::from_machine(&machine);
            let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
            // Shared random prefix: the group starts from non-trivial state.
            for _ in 0..400 {
                let a = rng.gen_range(0..1 << 18);
                fast.access(a);
                slow.access(a);
            }
            fast.access_run_group(&runs);
            slow.run_group(&runs);
            // And a shared random suffix: the state the group leaves behind
            // (stamp order, last-line shortcut) must be equivalent too.
            for _ in 0..400 {
                let a = rng.gen_range(0..1 << 18);
                fast.access(a);
                slow.access(a);
            }
            assert_same_stats(&fast, &slow, &format!("group round {round}"));
        }
    }

    #[test]
    fn conflicting_run_groups_fall_back_bit_identically() {
        // tiny_for_tests: 1 KiB L1, assoc 4, 64 B lines -> 4 sets. Five
        // streams whose bases collide in one set exceed the associativity,
        // so every phase head evicts a live line and the group must take the
        // per-access fallback — with identical counters.
        let machine = MachineConfig::tiny_for_tests();
        let count = 512;
        let runs: Vec<StrideRun> = (0..5)
            .map(|j| array_run(0x1000 * (j + 1), 8, count, 0))
            .collect();
        let mut fast = CacheHierarchy::from_machine(&machine);
        let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
        fast.access_run_group(&runs);
        slow.run_group(&runs);
        assert_same_stats(&fast, &slow, "associativity conflict");
        assert!(
            fast.l1().evicts > 0,
            "the conflict case must actually evict"
        );
    }

    #[test]
    fn run_groups_handle_degenerate_shapes() {
        let machine = MachineConfig::tiny_for_tests();
        let mut fast = CacheHierarchy::from_machine(&machine);
        let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
        // Empty group and zero-trip group: no accesses at all.
        fast.access_run_group(&[]);
        fast.access_run_group(&[array_run(0, 8, 0, 0), array_run(64, 8, 0, 0)]);
        assert_eq!(fast.accesses(), 0);
        // Single-run group: one stationary lane, one head per line.
        fast.access_run_group(&[array_run(4096, 8, 100, 0)]);
        slow.run(4096, 8, 100, false);
        assert_same_stats(&fast, &slow, "single-run group");
        // A run walking below address zero wraps like the expanded stream.
        let wrap = [array_run(64, -128, 4, 0), array_run(4096, 8, 4, 0)];
        fast.access_run_group(&wrap);
        slow.run_group(&wrap);
        assert_same_stats(&fast, &slow, "negative wrap");
    }

    /// Expands a group honoring each run's *own* trip count (ragged groups
    /// interleave only the runs still live at iteration `i`).
    fn expand_ragged_group_on(slow: &mut ReferenceCacheHierarchy, runs: &[StrideRun]) {
        let longest = runs.iter().map(|r| r.count).max().unwrap_or(0);
        for i in 0..longest {
            for r in runs {
                if i < r.count {
                    slow.access(run_address(r.base, r.stride, i));
                }
            }
        }
    }

    #[test]
    fn hostile_strides_wrap_like_the_per_access_stream() {
        // Runs whose end address overflows `i64`, starts beyond `i64::MAX`
        // or walks below zero: checked arithmetic routes them to the
        // per-access path (a debug build must not panic, a release build
        // must not take a closed-form branch on a wrapped end), and every
        // path steps addresses modulo 2^64 like `run_address`.
        assert_eq!(run_end(0x1000, 8, 5), Some(0x1020));
        assert_eq!(run_end(64, -8, 9), Some(0));
        assert_eq!(run_end(64, -8, 10), None);
        assert_eq!(run_end(0x1000, i64::MAX, 3), None);
        assert_eq!(run_end(u64::MAX, 0, 1), None);
        assert_eq!(run_end(0, 0, u64::MAX), None);
        let machine = MachineConfig::tiny_for_tests();
        for &(start, stride, count) in &[
            (0x1000u64, i64::MAX, 5u64),
            (0x1000, i64::MIN, 4),
            (u64::MAX - 100, 64, 8),
            (u64::MAX - 100, 8, 40),
            (1 << 62, 1 << 61, 9),
            (64, -128, 4),
        ] {
            let mut fast = CacheHierarchy::from_machine(&machine);
            let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
            fast.access_run_group(&[array_run(start, stride, count, 0)]);
            slow.run(start, stride, count, false);
            assert_same_stats(&fast, &slow, &format!("run {start:#x} + i * {stride}"));
        }
        let groups: Vec<Vec<StrideRun>> = vec![
            vec![
                array_run(0x1000, i64::MAX, 6, 0),
                array_run(0x2000, 8, 6, 0),
            ],
            vec![
                array_run(0x1000, i64::MIN, 6, 0),
                array_run(0x2000, 0, 6, 0),
            ],
            vec![
                array_run(u64::MAX - 64, 8, 40, 0),
                array_run(0x3000, 64, 40, 0),
            ],
            vec![
                array_run(1 << 62, 1 << 61, 7, 0),
                array_run(1 << 62, -(1 << 61), 7, 0),
                array_run(0x40, 8, 7, 0),
            ],
            // Ragged and hostile at once.
            vec![
                array_run(0x1000, i64::MAX, 3, 0),
                array_run(0x2000, 8, 5, 0),
            ],
        ];
        for (j, runs) in groups.iter().enumerate() {
            let mut fast = CacheHierarchy::from_machine(&machine);
            let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
            fast.access_run_group(runs);
            expand_ragged_group_on(&mut slow, runs);
            assert_same_stats(&fast, &slow, &format!("hostile group {j}"));
        }
    }

    #[test]
    fn ragged_run_groups_fall_back_instead_of_panicking() {
        // Runs disagreeing on the trip count used to trip a debug assertion
        // (and silently follow runs[0] in release builds); now they take a
        // per-access fallback with counters matching the ragged expansion.
        let machine = MachineConfig::tiny_for_tests();
        let groups: Vec<Vec<StrideRun>> = vec![
            vec![array_run(0x1000, 8, 100, 0), array_run(0x2000, 8, 60, 0)],
            // A zero-trip member mixed with live ones.
            vec![
                array_run(0x1000, 8, 50, 0),
                array_run(0x2000, 8, 0, 0),
                array_run(0x3000, -8, 20, 0),
            ],
            // Zero strides only, unequal counts.
            vec![array_run(0x1000, 0, 7, 0), array_run(0x2000, 0, 3, 0)],
            // Line-sized, zero and super-line strides together.
            vec![
                array_run(0x1000, 64, 33, 0),
                array_run(0x2040, 0, 12, 0),
                array_run(0x5000, 128, 5, 0),
            ],
            // runs[0] is the *short* one: trusting it would drop accesses.
            vec![array_run(0x1000, 8, 1, 0), array_run(0x2000, 8, 400, 0)],
        ];
        for (j, runs) in groups.iter().enumerate() {
            let mut fast = CacheHierarchy::from_machine(&machine);
            let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
            fast.access_run_group(runs);
            expand_ragged_group_on(&mut slow, runs);
            assert_same_stats(&fast, &slow, &format!("ragged group {j}"));
        }
    }

    #[test]
    fn zero_stride_and_zero_count_groups_are_safe() {
        let machine = MachineConfig::tiny_for_tests();
        // All-zero-trip ragged group: a no-op, not a division or underflow.
        let mut fast = CacheHierarchy::from_machine(&machine);
        fast.access_run_group(&[
            array_run(0, 8, 0, 0),
            array_run(64, -8, 0, 0),
            array_run(128, 0, 0, 0),
        ]);
        assert_eq!(fast.accesses(), 0);
        // Lockstep all-zero-stride group: every iteration re-touches the
        // same lines; the phase math must not divide by the zero stride.
        let runs = vec![array_run(0x1000, 0, 256, 0), array_run(0x1044, 0, 256, 0)];
        let mut fast = CacheHierarchy::from_machine(&machine);
        let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
        fast.access_run_group(&runs);
        slow.run_group(&runs);
        assert_same_stats(&fast, &slow, "zero-stride lockstep");
    }

    #[test]
    fn aligned_unit_stride_group_simulates_one_iteration_per_line_phase() {
        // Three aligned unit-stride streams over 1024 iterations touch
        // 3 * 128 lines; everything else must be credited as closed-form
        // hits without probes. The observable: counters match the reference
        // while the number of real probes stays near the line count.
        let machine = MachineConfig::tiny_for_tests();
        let runs: Vec<StrideRun> = (0..3)
            .map(|j| array_run(0x40000 * (j + 1), 8, 1024, 0))
            .collect();
        let mut fast = CacheHierarchy::from_machine(&machine);
        let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
        fast.access_run_group(&runs);
        slow.run_group(&runs);
        assert_same_stats(&fast, &slow, "aligned unit stride");
        assert_eq!(fast.accesses(), 3 * 1024);
        assert!(
            fast.l1.probes <= 3 * 128 + 3,
            "phase compression must probe ~once per line, probed {}",
            fast.l1.probes
        );
    }

    /// A run with an explicit array slot (stagger clusters only form within
    /// one array).
    fn array_run(base: u64, stride: i64, count: u64, array: u32) -> StrideRun {
        StrideRun {
            base,
            stride,
            count,
            array,
            is_write: false,
        }
    }

    #[test]
    fn stagger_cluster_groups_match_reference_and_compress_probes() {
        // A five-tap stencil body: five same-array lanes one element apart
        // plus an output lane on a second array. The cluster's middle
        // members stop breaking phases, so only the leader and rear
        // crossings (plus the output lane's) cost heads — the probe count
        // must sit well below one probe per line per lane.
        let machine = MachineConfig::tiny_for_tests();
        let count = 1024u64;
        let mut runs: Vec<StrideRun> = (0..5)
            .map(|t| array_run(0x40000 + 8 * t, 8, count, 0))
            .collect();
        runs.push(array_run(0x80000, 8, count, 1));
        let mut fast = CacheHierarchy::from_machine(&machine);
        let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
        fast.access_run_group(&runs);
        slow.run_group(&runs);
        assert_same_stats(&fast, &slow, "five-tap stagger");
        assert_eq!(fast.accesses(), 6 * count);
        // Two cluster heads + shortcuts per 8-iteration line period: about
        // five real probes per period of 48 accesses.
        assert!(
            fast.l1.probes <= count,
            "stagger merging must elide middle-tap heads, probed {}",
            fast.l1.probes
        );
    }

    #[test]
    fn stagger_cluster_edge_shapes_match_reference() {
        let machine = MachineConfig::tiny_for_tests();
        let count = 700u64;
        let groups: Vec<Vec<StrideRun>> = vec![
            // Bases straddling a line boundary.
            vec![
                array_run(0x40000 - 8, 8, count, 0),
                array_run(0x40000, 8, count, 0),
                array_run(0x40000 + 8, 8, count, 0),
            ],
            // Span exactly one line minus one byte (still mergeable) and
            // span exactly one line (not mergeable) side by side.
            vec![
                array_run(0x40000, 8, count, 0),
                array_run(0x40000 + 32, 8, count, 0),
                array_run(0x40000 + 63, 8, count, 0),
            ],
            vec![
                array_run(0x40000, 8, count, 0),
                array_run(0x40000 + 32, 8, count, 0),
                array_run(0x40000 + 64, 8, count, 0),
            ],
            // Negative-stride stencil (reversal subscripts), unaligned.
            vec![
                array_run(0x54321, -8, count, 0),
                array_run(0x54321 + 16, -8, count, 0),
                array_run(0x54321 + 8, -8, count, 0),
                array_run(0x54329, -8, count, 0),
            ],
            // Duplicate taps: leader and rear share a base.
            vec![
                array_run(0x40000, 8, count, 0),
                array_run(0x40000, 8, count, 0),
                array_run(0x40000, 8, count, 0),
            ],
            // Cluster interrupted by another array's lane: the taps are not
            // contiguous in run order and must not merge across it.
            vec![
                array_run(0x40000, 8, count, 0),
                array_run(0x80000, 8, count, 1),
                array_run(0x40008, 8, count, 0),
                array_run(0x40010, 8, count, 0),
            ],
            // Two independent clusters plus a zero-stride lane between.
            vec![
                array_run(0x40000, 8, count, 0),
                array_run(0x40008, 8, count, 0),
                array_run(0x40010, 8, count, 0),
                array_run(0x70004, 0, count, 2),
                array_run(0x90000 + 24, -24, count, 1),
                array_run(0x90000, -24, count, 1),
                array_run(0x90000 + 48, -24, count, 1),
            ],
            // Non-power-of-two stride with bases straddling two boundaries.
            vec![
                array_run(0x4003c, 12, count, 0),
                array_run(0x40000, 12, count, 0),
                array_run(0x40014, 12, count, 0),
                array_run(0x40028, 12, count, 0),
            ],
        ];
        for (j, runs) in groups.iter().enumerate() {
            let mut fast = CacheHierarchy::from_machine(&machine);
            let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
            fast.access_run_group(runs);
            slow.run_group(runs);
            // The state left behind must be equivalent too.
            for a in (0..(1u64 << 14)).step_by(64) {
                fast.access(a);
                slow.access(a);
            }
            assert_same_stats(&fast, &slow, &format!("stagger edge group {j}"));
        }
    }

    #[test]
    fn superline_only_groups_take_the_per_access_path_up_front() {
        // Column-major walks: every lane's |stride| is at least a line, so
        // the group bails out per access — with bit-identical counters.
        // `tests/telemetry_counters.rs` pins that it takes the bailout.
        let machine = MachineConfig::tiny_for_tests();
        let runs = vec![
            array_run(0x10000, 64, 300, 0),
            array_run(0x20000, 128, 300, 1),
            array_run(0x60000, -64, 300, 2),
        ];
        let mut fast = CacheHierarchy::from_machine(&machine);
        fast.access_run_group(&runs);
        let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
        slow.run_group(&runs);
        assert_same_stats(&fast, &slow, "super-line bailout");
    }

    #[test]
    fn stagger_clusters_elide_middle_lanes() {
        // Three taps elide their middle lane, two elide nothing: either way
        // the counters are the expanded stream's. `tests/telemetry_counters.rs`
        // pins the elision count.
        let machine = MachineConfig::tiny_for_tests();
        for taps in [3u64, 2] {
            let runs: Vec<StrideRun> = (0..taps)
                .map(|t| array_run(0x40000 + 8 * t, 8, 64, 0))
                .collect();
            let mut fast = CacheHierarchy::from_machine(&machine);
            fast.access_run_group(&runs);
            let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
            slow.run_group(&runs);
            assert_same_stats(&fast, &slow, &format!("{taps} taps"));
        }
    }

    #[test]
    fn interleaved_runs_and_accesses_match_reference() {
        let machine = MachineConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(99);
        let mut fast = CacheHierarchy::from_machine(&machine);
        let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
        for _ in 0..200 {
            if rng.gen_bool(0.5) {
                let start = rng.gen_range(0..1 << 16);
                let stride = *[8i64, 16, 64, -8].get(rng.gen_range(0..4usize)).unwrap();
                let count = rng.gen_range(1..200u64);
                fast.access_run_group(&[array_run(start, stride, count, 0)]);
                slow.run(start, stride, count, false);
            } else {
                let address = rng.gen_range(0..1 << 16);
                fast.access(address);
                slow.access(address);
            }
        }
        assert_same_stats(&fast, &slow, "interleaved");
    }
}

//! Block-sharded parallel cache simulation.
//!
//! The CLOUDSC proxy iterates `NBLOCKS` independent blocks in its outermost
//! loop; at the paper's full `NBLOCKS = 4096` one thread walking the whole
//! trace (~1.6B accesses) is the bottleneck of every trace-backed figure.
//! This module cuts a compiled program's trace into shards, streams each
//! shard — one per class of shards a replica cannot tell apart — through
//! its *own* [`CacheHierarchy`] replica on a worker pool, and merges the
//! per-shard counters with an order-independent reduction.
//!
//! # Shard granularity
//!
//! [`ShardPlan::for_program`] picks the cut:
//!
//! * **Blocks** — when the program body is exactly one top-level loop with
//!   nested structure (the CLOUDSC `IBL` block loop after lowering), each
//!   shard is one iteration of that loop, streamed directly via a
//!   shard-ranged walk — no shard ever touches another shard's trace, and
//!   the whole fan-out walks the trace exactly once.
//! * **Run groups** — any other shape falls back to cutting the stream of
//!   *emission units* (lockstep run groups and bare accesses) into at most
//!   [`RUN_GROUP_SHARDS`] contiguous windows. Each shard replays the walk
//!   and simulates only its window, so the fallback trades a bounded number
//!   of cheap re-walks for not needing any structural precondition.
//!
//! # Determinism contract
//!
//! The plan is a pure function of the compiled program — never of the
//! worker count — and each shard is simulated on a cold replica, so the
//! merged [`ShardedCacheStats`] are **bit-identical at any worker count**:
//! `simulate_cache_sharded` with 8 workers equals the same call with 1
//! worker, counter for counter. A plan with a single all-covering shard
//! degenerates to exactly [`simulate_cache`](crate::simulate_cache).
//!
//! Cold replicas mean shard boundaries reset cache state: relative to one
//! monolithic simulation, a multi-shard run charges each shard its own
//! compulsory misses instead of inheriting a warm cache. For block-disjoint
//! traces like CLOUDSC (each block touches its own array slabs) the stale
//! lines a monolithic run would evict occupy ways exactly like the empty
//! ways of a cold replica, so hits, misses and loads coincide with the
//! monolithic counters; only `evicts` is defined per shard.
//!
//! # Shard classes
//!
//! CLOUDSC's blocks are independent and identically shaped: block `b`'s
//! trace is block 0's with every array moved by `b` slabs. A cold LRU
//! replica cannot tell two such shards apart once all their moves agree on
//! one whole number of lines modulo the *set period*
//! `line_bytes × max(L1 sets, L2 sets)`, so the driver groups the shards of
//! a block plan into *translation classes*, simulates one representative
//! per class and adds its counters once per member — the 4096 blocks of
//! the Fortran and C versions, which move every array alike modulo the
//! set period, are one simulation, and those of DaCe and daisy, whose temporaries stay
//! put, are 32. [`ShardedCacheStats`] still reports the logical totals of
//! the whole plan and is bit-identical to simulating every shard (the
//! shard oracle, [`simulate_cache_sharded_reference`], streams every shard
//! into its own naive LRU and the differential suite holds the two equal);
//! [`ShardedCacheStats::classes`] says how many shards' L2 was simulated,
//! [`ShardedCacheStats::l1_streams`] how many shards were streamed through
//! an L1 (see "Two levels, two periods" below) and
//! [`ShardedCacheStats::streamed_accesses`] how many accesses those held.
//!
//! The class key of a shard `[lo, hi)` (clamped to the trip count) is its
//! length, then `lo × shift_ref mod line_bytes` for the first array the
//! block body touches (the reference), then, for every other array,
//! `(lo × shift − lo × shift_ref) mod period` — where `shift` is an array's
//! byte move per block trip (`CompiledProgram::block_shifts`) and
//! `line_bytes` the simulator's rounded line size.
//!
//! **Why equal keys mean equal counters.** Take two shards with equal keys
//! and let `D` be how far the second moves the reference against the
//! first. The first term makes `D` a whole number of lines, and the
//! relative terms make every other array move by `D` too, up to whole set
//! periods. The streams have the same length and shape, so the second is
//! the first with every address raised by `D` plus a per-array multiple of
//! the period:
//!
//! * every address keeps its offset inside its line, and — arrays being
//!   page-aligned, so that in-bounds accesses to different arrays never
//!   share a line — the lines one stream touches map one-to-one onto the
//!   other's, preserving which accesses share a line and which lines are
//!   adjacent;
//! * at each level, every line's set index moves by the same constant
//!   `D / line_bytes` modulo the level's set count (the period is a whole
//!   number of sets at both levels). That relabels the sets — a bijection
//!   that keeps which lines share a set.
//!
//! LRU sets are independent of one another, so hits, misses, loads,
//! evictions and every set's recency order carry over set by set. The
//! run-group fast path decides on nothing else — phase cuts and in-line
//! offsets, stagger clusters (same-array bases within a line span, the
//! `set_mask > 0` gate), super-line stepping, and the conflict fallback,
//! which asks whether a mover shares a set with a stationary lane — so
//! `probes` agree as well. Singleton classes are simulated exactly as
//! before.
//!
//! Three conditions refuse a class, each falling back to simulating the
//! shards one by one:
//!
//! 1. **The block loop is not a translation.** Some descendant bound
//!    depends on the block iterator, some access is not affine, or two
//!    accesses to one array move at different rates — `block_shifts` is
//!    `None` and every shard is its own class. The same holds for
//!    run-group plans and for cache lines wider than the array alignment.
//! 2. **An array moves backwards.** A later block could clamp at the array
//!    base where an earlier one does not; `block_shifts` is `None` again.
//! 3. **The representative's stream leaves an array.** Negative offsets
//!    clamp to the array base and offsets past the end land in a
//!    neighbouring array, and either breaks the one-to-one line mapping.
//!    Each class is represented by its lowest trip; the streamer records
//!    the offset range it touched per array, and unless that range, moved
//!    to the class's highest trip, stays inside every array, all members
//!    of the class are simulated. (All-zero shifts replay the identical
//!    stream and need no check.)
//!
//! # Two levels, two periods
//!
//! The argument above holds at each level with that level's own period.
//! L2 is probed only on an L1 miss, with the missed line, and every
//! decision of the run-group fast path reads only L1 sets and in-line
//! offsets. So two shards whose keys agree at the *L1 set period*
//! `line_bytes × L1 sets` have the same L1 hits, misses, loads, evictions
//! and probes, and the second one's L1 misses are the first one's, in the
//! same order, each moved by the second one's byte distance from the first
//! in the array the line lies in — a whole number of lines. Translation
//! classes refine these *L1 classes* (the L1 period divides the set
//! period): on the modelled Xeon, DaCe's and daisy's 32 translation classes
//! are 4 L1 classes each, because their slabs move a whole number of L1
//! periods modulo one another and the temporaries differ only at L2.
//!
//! The driver therefore groups translation classes by their
//! representatives' key at the L1 period and streams each L1 class's
//! lowest representative once, through one L1 whose misses go to one cold
//! L2 replica per translation class of the L1 class. Before a missed line
//! enters a replica, it is moved by that class representative's whole-line
//! distance from the streamed one in the line's own array, which the
//! stream finds from the arrays' byte ranges: arrays are
//! [`AddressMap`](crate::cache::AddressMap)-aligned, so no line spans two.
//! Each replica then sees exactly the L2 stream of its representative, and
//! every class is weighted by its members as before; misses are forwarded
//! as they happen, so nothing grows with the trace. An L1 class of one
//! translation class is simulated exactly as before. When the streamed
//! representative's footprint, moved to the highest member of the L1
//! class, leaves an array, each translation class falls back to the path
//! above: the streamed one keeps its own replica, which saw its lines
//! unmoved, and each other class streams its own representative.
//!
//! Simulations fan out through the one worker pool, [`crate::pool`], one
//! L1 class per job.

use std::collections::HashMap;

use loop_ir::program::Program;

use crate::cache::reference::ReferenceCacheHierarchy;
use crate::cache::{CacheHierarchy, CacheStats};
use crate::config::MachineConfig;
use crate::error::Result;
use crate::exec::{ArrayShift, BlockFootprint, CompiledProgram};
use crate::pool::{parallel_map, Counters};
use crate::trace::{AccessSink, StrideRun, TraceEntry};

/// Maximum shard count of the run-group fallback. Each fallback shard
/// replays the full trace walk (simulating only its window), so the cut
/// count bounds the re-walk overhead; it is a constant — not derived from
/// the worker count — because the shard plan must never depend on how many
/// workers later execute it (see the module-level determinism contract).
pub const RUN_GROUP_SHARDS: usize = 16;

/// At which granularity a [`ShardPlan`] cuts the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardGranularity {
    /// Iteration sub-ranges of the single top-level (block) loop.
    Blocks,
    /// Contiguous windows of trace emission units (lockstep run groups and
    /// bare accesses), the fallback for non-blocked programs.
    RunGroups,
}

/// A deterministic cut of a compiled program's trace into shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    granularity: ShardGranularity,
    /// Half-open `[lo, hi)` ranges in trip-index space (`Blocks`) or
    /// emission-unit space (`RunGroups`); sorted, non-overlapping.
    cuts: Vec<(u64, u64)>,
}

impl ShardPlan {
    /// Builds the canonical plan for a compiled program: one shard per
    /// block when the program is block-shardable, at most
    /// [`RUN_GROUP_SHARDS`] near-equal emission-unit windows otherwise.
    /// The result depends only on the program, never on the worker count.
    ///
    /// # Errors
    /// Bound or subscript evaluation errors from the unit-counting walk of
    /// the fallback path.
    pub fn for_program(compiled: &CompiledProgram) -> Result<ShardPlan> {
        if let Some(trips) = compiled.block_trips() {
            return Ok(ShardPlan {
                granularity: ShardGranularity::Blocks,
                cuts: (0..trips).map(|t| (t, t + 1)).collect(),
            });
        }
        let mut counter = UnitCounter { units: 0 };
        compiled.stream(&mut counter)?;
        Ok(ShardPlan {
            granularity: ShardGranularity::RunGroups,
            cuts: partition(counter.units, RUN_GROUP_SHARDS),
        })
    }

    /// The degenerate plan with one shard covering the whole trace — by
    /// construction bit-identical to the monolithic
    /// [`simulate_cache`](crate::simulate_cache).
    ///
    /// # Errors
    /// As [`ShardPlan::for_program`].
    pub fn single(compiled: &CompiledProgram) -> Result<ShardPlan> {
        let plan = ShardPlan::for_program(compiled)?;
        let total = plan.cuts.last().map_or(0, |&(_, hi)| hi);
        Ok(ShardPlan {
            granularity: plan.granularity,
            cuts: if total == 0 {
                Vec::new()
            } else {
                vec![(0, total)]
            },
        })
    }

    /// A block-granularity plan with explicit trip-index cuts, for tests
    /// exercising ragged and irregular shard shapes. Ranges past the block
    /// loop's trip count clamp to it (streaming nothing beyond the end).
    pub fn blocks(cuts: Vec<(u64, u64)>) -> ShardPlan {
        ShardPlan {
            granularity: ShardGranularity::Blocks,
            cuts,
        }
    }

    /// The granularity this plan cuts at.
    pub fn granularity(&self) -> ShardGranularity {
        self.granularity
    }

    /// The shard ranges, half-open, in plan order.
    pub fn shards(&self) -> &[(u64, u64)] {
        &self.cuts
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.cuts.len()
    }

    /// True when the plan has no shards (a zero-trip block loop or an
    /// empty trace).
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }
}

/// Splits `[0, total)` into at most `shards` near-equal contiguous ranges,
/// earlier ranges taking the remainder (the last shard may be ragged).
fn partition(total: u64, shards: usize) -> Vec<(u64, u64)> {
    if total == 0 {
        return Vec::new();
    }
    let shards = (shards as u64).clamp(1, total);
    let (base, rem) = (total / shards, total % shards);
    let mut cuts = Vec::with_capacity(shards as usize);
    let mut lo = 0;
    for s in 0..shards {
        let hi = lo + base + u64::from(s < rem);
        cuts.push((lo, hi));
        lo = hi;
    }
    cuts
}

/// The merged counters of one sharded simulation. `PartialEq` compares
/// every counter, so asserting two results equal *is* the bit-identity
/// check of the determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedCacheStats {
    accesses: u64,
    streamed: u64,
    probes: u64,
    l1: CacheStats,
    l2: CacheStats,
    shards: usize,
    classes: usize,
    l1_streams: usize,
    granularity: ShardGranularity,
}

impl ShardedCacheStats {
    fn empty(plan: &ShardPlan, classes: usize) -> Self {
        ShardedCacheStats {
            accesses: 0,
            streamed: 0,
            probes: 0,
            l1: CacheStats::default(),
            l2: CacheStats::default(),
            shards: plan.len(),
            classes,
            l1_streams: 0,
            granularity: plan.granularity(),
        }
    }

    /// Counts one stream of `accesses` accesses through an L1 replica.
    fn add_stream(&mut self, accesses: u64) {
        self.l1_streams += 1;
        self.streamed += accesses;
    }

    /// Adds the counters of one finished replica, `times` over.
    fn add(&mut self, replica: &Replica, times: u64) {
        let scaled = |stats: CacheStats| CacheStats {
            loads: stats.loads * times,
            evicts: stats.evicts * times,
            hits: stats.hits * times,
            misses: stats.misses * times,
        };
        self.accesses += replica.accesses * times;
        self.probes += replica.probes * times;
        self.l1.merge(&scaled(replica.l1));
        self.l2.merge(&scaled(replica.l2));
    }

    /// Total accesses of all shards — the logical count of the whole plan,
    /// each class counted once per member.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Accesses actually streamed through an L1 replica: those of the
    /// [`l1_streams`](Self::l1_streams) shards that were streamed. Equal to
    /// [`accesses`](Self::accesses) when nothing was deduplicated; the
    /// count a simulation throughput divides by.
    pub fn streamed_accesses(&self) -> u64 {
        self.streamed
    }

    /// L1 lookups of the whole plan: each streamed shard's count of real
    /// L1 lookups (see [`CacheHierarchy::probes`]), weighted by the shards
    /// it stands for. L2 lookups are not counted.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Merged L1 counters.
    pub fn l1(&self) -> CacheStats {
        self.l1
    }

    /// Merged L2 counters.
    pub fn l2(&self) -> CacheStats {
        self.l2
    }

    /// Number of shards the plan cut the trace into.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of shards whose L2 was simulated: one per translation class
    /// (see the module docs), plus every further member of a class whose
    /// representative could not stand for it. Equal to
    /// [`shards`](Self::shards) when nothing was deduplicated.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of shards streamed through an L1 replica: one per L1 class
    /// (see the module docs), plus every shard its representative could
    /// not stand for. At most [`classes`](Self::classes).
    pub fn l1_streams(&self) -> usize {
        self.l1_streams
    }

    /// The granularity the trace was cut at.
    pub fn granularity(&self) -> ShardGranularity {
        self.granularity
    }
}

/// The counters of one finished shard replica.
struct Replica {
    accesses: u64,
    probes: u64,
    l1: CacheStats,
    l2: CacheStats,
}

impl Replica {
    fn of(cache: &CacheHierarchy) -> Self {
        Replica {
            accesses: cache.accesses(),
            probes: cache.probes(),
            l1: cache.l1(),
            l2: cache.l2(),
        }
    }
}

/// Simulates a program's cache behavior sharded across `workers` worker
/// threads (`0` lets the machine decide) under the canonical
/// [`ShardPlan::for_program`] plan. Counters are bit-identical at any
/// worker count; see the module docs for the exact contract.
///
/// # Errors
/// Lowering and trace-generation errors.
pub fn simulate_cache_sharded(
    program: &Program,
    machine: &MachineConfig,
    workers: usize,
) -> Result<ShardedCacheStats> {
    let compiled = CompiledProgram::lower(program)?;
    let plan = ShardPlan::for_program(&compiled)?;
    simulate_cache_sharded_with_plan(&compiled, &plan, machine, workers)
}

/// The telemetry names of the shard simulator's fan-outs.
const SHARD_POOL: Counters = Counters {
    jobs: "machine.shard.jobs",
    workers: "machine.shard.workers",
    fanouts: "machine.shard.fanouts",
    worker_items: "machine.shard.worker_items",
};

/// [`simulate_cache_sharded`] with an explicit plan: streams one
/// representative shard per L1 class (see the module docs) through its own
/// cold [`CacheHierarchy`] replica on the worker pool — with one L2 replica
/// per translation class the L1 class holds — and merges the counters, each
/// translation class weighted by its member count (field-wise sums, so any
/// worker schedule produces bit-identical totals).
///
/// # Errors
/// Trace-generation errors; the first failing L1 class (in plan order of
/// first appearance) wins.
pub fn simulate_cache_sharded_with_plan(
    compiled: &CompiledProgram,
    plan: &ShardPlan,
    machine: &MachineConfig,
    workers: usize,
) -> Result<ShardedCacheStats> {
    let _span = telemetry::span("simulate_cache_sharded");
    let shifts = match plan.granularity() {
        ShardGranularity::Blocks => compiled.block_shifts(),
        ShardGranularity::RunGroups => None,
    };
    let shifts = shifts.as_deref();
    let classes = shard_classes(compiled, plan, machine, shifts);
    let l1_classes = l1_classes(&classes, shifts, machine);
    let simulate = |&(lo, hi): &(u64, u64)| {
        let _shard_span = telemetry::span("simulate_cache_sharded.shard");
        simulate_shard(compiled, plan.granularity(), lo, hi, machine)
    };
    // One translation class on its own: its representative streamed alone,
    // standing for its members only if the highest of them still stays
    // inside every array (classes with members have block shifts and
    // footprints).
    let alone = |class: &ShardClass| {
        let (replica, footprint) = simulate(&plan.shards()[class.representative])?;
        let translates = class.others.is_empty()
            || footprint
                .zip(shifts)
                .is_some_and(|(touched, shifts)| touched.translates(shifts, class.span));
        Ok::<_, crate::error::MachineError>((replica, translates))
    };
    let outcomes = parallel_map(workers, &l1_classes, &SHARD_POOL, |members| {
        let [class] = members.as_slice() else {
            let shifts = shifts.expect("only block shifts merge translation classes");
            return stream_l1_class(compiled, plan, machine, shifts, &classes, members, alone);
        };
        let (replica, translates) = alone(&classes[*class])?;
        Ok(vec![ClassOutcome {
            class: *class,
            replica,
            translates,
            streamed: true,
        }])
    });
    let mut merged = ShardedCacheStats::empty(plan, classes.len());
    let mut stragglers = Vec::new();
    for outcome in outcomes {
        for outcome in outcome? {
            let (class, replica) = (&classes[outcome.class], &outcome.replica);
            if outcome.streamed {
                merged.add_stream(replica.accesses);
            }
            if outcome.translates {
                merged.add(replica, 1 + class.others.len() as u64);
            } else {
                merged.add(replica, 1);
                stragglers.extend(class.others.iter().map(|&shard| plan.shards()[shard]));
            }
        }
    }
    // Members a representative could not stand for are simulated one by
    // one, exactly as if each had been its own class.
    merged.classes += stragglers.len();
    for result in parallel_map(workers, &stragglers, &SHARD_POOL, simulate) {
        let replica = result?.0;
        merged.add_stream(replica.accesses);
        merged.add(&replica, 1);
    }
    record_sharded_counters(&merged);
    Ok(merged)
}

/// The shard oracle of the differential suite: the same shard
/// decomposition, but *every* shard's stream — no translation classes,
/// nothing skipped — expanded into its own cold
/// [`ReferenceCacheHierarchy`], the naive LRU, sequentially. Accesses and
/// per-level counters are bit-identical to
/// [`simulate_cache_sharded_with_plan`] at any worker count — that equality
/// is exactly the run-compression and translation contract, shard by
/// shard. The naive LRU counts no probes, so `probes` reads 0.
///
/// # Errors
/// Trace-generation errors.
pub fn simulate_cache_sharded_reference(
    compiled: &CompiledProgram,
    plan: &ShardPlan,
    machine: &MachineConfig,
) -> Result<ShardedCacheStats> {
    let mut merged = ShardedCacheStats::empty(plan, plan.len());
    for &(lo, hi) in plan.shards() {
        let mut cache = ReferenceCacheHierarchy::from_machine(machine);
        stream_shard(compiled, plan.granularity(), lo, hi, &mut cache)?;
        let replica = Replica {
            accesses: cache.accesses(),
            probes: 0,
            l1: cache.l1(),
            l2: cache.l2(),
        };
        merged.add_stream(replica.accesses);
        merged.add(&replica, 1);
    }
    Ok(merged)
}

/// The shards of a plan one L2 simulation stands for, by plan index.
struct ShardClass {
    /// The member starting at the lowest block trip — the one simulated.
    /// Shifts are non-negative, so if its stream clamps nowhere, no
    /// member's does.
    representative: usize,
    /// The other members.
    others: Vec<usize>,
    /// The representative's range, clamped to the block loop's trip count.
    trips: (u64, u64),
    /// Block trips from the representative's start to the start of the
    /// highest member.
    span: u64,
}

/// The class key of block trips `[lo, hi)` at set period `period`: the
/// length, the reference array's (the first shift's) start shift inside
/// its line, then every other array's start shift relative to the
/// reference's modulo `period`; `u128` keeps `lo × shift` exact.
fn class_key(
    (lo, hi): (u64, u64),
    shifts: &[ArrayShift],
    line_bytes: u64,
    period: u64,
) -> Vec<u64> {
    let (line_bytes, period) = (u128::from(line_bytes), u128::from(period));
    let mut key = vec![hi.saturating_sub(lo)];
    if let (true, Some((reference, others))) = (lo < hi, shifts.split_first()) {
        let start = |s: &ArrayShift| u128::from(lo) * u128::from(s.bytes) % period;
        let origin = start(reference);
        key.push((origin % line_bytes) as u64);
        key.extend(
            others
                .iter()
                .map(|s| ((start(s) + period - origin) % period) as u64),
        );
    }
    key
}

/// Indices `0..count` grouped by `key`, groups and members in order of
/// first appearance.
fn group_by_key(count: usize, key: impl Fn(usize) -> Vec<u64>) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_key: HashMap<Vec<u64>, usize> = HashMap::new();
    for item in 0..count {
        let group = *by_key.entry(key(item)).or_insert(groups.len());
        if group == groups.len() {
            groups.push(Vec::new());
        }
        groups[group].push(item);
    }
    groups
}

/// Groups the shards of a plan into translation classes, in order of first
/// appearance. Without block shifts (run-group plans, block loops whose
/// trips are not translations of each other, geometries where arrays can
/// share a line) every shard is its own class.
fn shard_classes(
    compiled: &CompiledProgram,
    plan: &ShardPlan,
    machine: &MachineConfig,
    shifts: Option<&[ArrayShift]>,
) -> Vec<ShardClass> {
    let trips = compiled.block_trips().unwrap_or(0);
    let clamped = |shard: usize| {
        let (lo, hi) = plan.shards()[shard];
        (lo.min(trips), hi.min(trips))
    };
    let groups = match shifts.zip(CacheHierarchy::line_and_set_periods(machine)) {
        None => (0..plan.len()).map(|shard| vec![shard]).collect(),
        Some((shifts, (line_bytes, _, period))) => group_by_key(plan.len(), |shard| {
            class_key(clamped(shard), shifts, line_bytes, period)
        }),
    };
    groups
        .into_iter()
        .map(|mut members| {
            let start = |shard: &usize| clamped(*shard).0;
            let lowest = (0..members.len())
                .min_by_key(|&i| start(&members[i]))
                .expect("groups are never empty");
            let representative = members.swap_remove(lowest);
            let highest = members.iter().map(start).max();
            ShardClass {
                representative,
                trips: clamped(representative),
                span: highest.map_or(0, |high| high - start(&representative)),
                others: members,
            }
        })
        .collect()
}

/// Groups translation classes into L1 classes — those whose
/// representatives' keys agree at the L1 set period — by index into
/// `classes`, in order of first appearance. Translation classes refine L1
/// classes (the L1 set period divides the set period), so every member of
/// one translation class shares its L1 class.
fn l1_classes(
    classes: &[ShardClass],
    shifts: Option<&[ArrayShift]>,
    machine: &MachineConfig,
) -> Vec<Vec<usize>> {
    match shifts.zip(CacheHierarchy::line_and_set_periods(machine)) {
        None => (0..classes.len()).map(|class| vec![class]).collect(),
        Some((shifts, (line_bytes, l1_period, _))) => group_by_key(classes.len(), |class| {
            class_key(classes[class].trips, shifts, line_bytes, l1_period)
        }),
    }
}

/// One translation class as an L1 stream found it.
struct ClassOutcome {
    /// Index into the plan's translation classes.
    class: usize,
    /// The counters of the class representative.
    replica: Replica,
    /// Whether they stand for the class's other members.
    translates: bool,
    /// Whether the L1 stream behind them counts as one of its own (the
    /// further replicas of a shared stream do not).
    streamed: bool,
}

/// Streams the lowest representative of an L1 class of several
/// translation classes once through L1, with one L2 replica per
/// translation class, each fed the L1's misses moved by the distance from
/// that stream to the class's representative (see "Two levels, two
/// periods" in the module docs). When the stream's footprint does not
/// stay inside every array up to the highest member of the L1 class, each
/// translation class takes `alone` instead — except the streamed one,
/// whose own replica saw its lines unmoved.
fn stream_l1_class(
    compiled: &CompiledProgram,
    plan: &ShardPlan,
    machine: &MachineConfig,
    shifts: &[ArrayShift],
    classes: &[ShardClass],
    members: &[usize],
    alone: impl Fn(&ShardClass) -> Result<(Replica, bool)>,
) -> Result<Vec<ClassOutcome>> {
    let _shard_span = telemetry::span("simulate_cache_sharded.shard");
    let (line_bytes, _, _) = CacheHierarchy::line_and_set_periods(machine)
        .expect("only geometries with set periods merge translation classes");
    let start = |class: usize| classes[class].trips.0;
    let lead = (0..members.len())
        .min_by_key(|&m| start(members[m]))
        .expect("L1 classes are never empty");
    let origin = start(members[lead]);
    // Per array, its line range and, per member, how many lines that
    // member's representative sits above the lead's in it — a whole number,
    // since the two share their L1 key. (A count past `u64` only arises
    // when the footprint check below fails, and the replica is dropped.)
    let mut arrays = Vec::with_capacity(shifts.len());
    let mut offsets = Vec::with_capacity(shifts.len() * members.len());
    for shift in shifts {
        let (base, end) = shift.addresses;
        if base < end {
            arrays.push((base / line_bytes, end.div_ceil(line_bytes)));
            offsets.extend(members.iter().map(|&class| {
                let bytes = u128::from(start(class) - origin) * u128::from(shift.bytes);
                debug_assert_eq!(bytes % u128::from(line_bytes), 0);
                (bytes / u128::from(line_bytes)) as u64
            }));
        }
    }
    let mut cache = CacheHierarchy::with_l2_replicas(machine, arrays, offsets, members.len());
    let (lo, hi) = plan.shards()[classes[members[lead]].representative];
    let footprint = compiled.stream_block_range(lo, hi, &mut cache)?;
    let replica = |l2| Replica {
        accesses: cache.accesses(),
        probes: cache.probes(),
        l1: cache.l1(),
        l2,
    };
    let l2 = cache.l2_replicas();
    let span = members
        .iter()
        .map(|&class| start(class) + classes[class].span - origin)
        .max()
        .unwrap_or(0);
    let whole = footprint.translates(shifts, span);
    members
        .iter()
        .zip(l2)
        .enumerate()
        .map(|(m, (&class, l2))| {
            let (replica, translates) = if whole || m == lead {
                let own = &classes[class];
                let translates =
                    whole || own.others.is_empty() || footprint.translates(shifts, own.span);
                (replica(l2), translates)
            } else {
                alone(&classes[class])?
            };
            Ok(ClassOutcome {
                class,
                replica,
                translates,
                streamed: m == lead || !whole,
            })
        })
        .collect()
}

/// Streams one shard through the run-compressed simulator into a cold
/// replica; block shards also report what they touched.
fn simulate_shard(
    compiled: &CompiledProgram,
    granularity: ShardGranularity,
    lo: u64,
    hi: u64,
    machine: &MachineConfig,
) -> Result<(Replica, Option<BlockFootprint>)> {
    let mut cache = CacheHierarchy::from_machine(machine);
    let footprint = stream_shard(compiled, granularity, lo, hi, &mut cache)?;
    Ok((Replica::of(&cache), footprint))
}

/// Streams shard `[lo, hi)` of a plan of the given granularity into `sink`;
/// block shards also report what they touched.
fn stream_shard(
    compiled: &CompiledProgram,
    granularity: ShardGranularity,
    lo: u64,
    hi: u64,
    sink: &mut impl AccessSink,
) -> Result<Option<BlockFootprint>> {
    match granularity {
        ShardGranularity::Blocks => Ok(Some(compiled.stream_block_range(lo, hi, sink)?)),
        ShardGranularity::RunGroups => {
            compiled.stream(&mut UnitWindow {
                inner: sink,
                next: 0,
                lo,
                hi,
            })?;
            Ok(None)
        }
    }
}

/// Publishes the counters of one finished sharded simulation, at the
/// simulation boundary only (the per-shard hot paths carry no telemetry
/// cost beyond one span each).
fn record_sharded_counters(stats: &ShardedCacheStats) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter("machine.shard.simulations", 1);
    telemetry::counter("machine.shard.shards", stats.shards as u64);
    telemetry::counter("machine.shard.classes", stats.classes as u64);
    telemetry::counter("machine.shard.l1_streams", stats.l1_streams as u64);
    telemetry::counter("machine.shard.accesses", stats.accesses);
}

/// Counts trace emission units — each lockstep run group or bare access
/// is one unit, the atom run-group granularity cuts at.
struct UnitCounter {
    units: u64,
}

impl AccessSink for UnitCounter {
    fn access(&mut self, _entry: TraceEntry) {
        self.units += 1;
    }

    fn run_group(&mut self, _runs: &[StrideRun]) {
        self.units += 1;
    }
}

/// Forwards only the emission units with index in `[lo, hi)` to the inner
/// sink; everything else is counted and dropped. Whole units are never
/// split, so the windows of a run-group plan tile the trace exactly.
struct UnitWindow<'a, S> {
    inner: &'a mut S,
    next: u64,
    lo: u64,
    hi: u64,
}

impl<S> UnitWindow<'_, S> {
    fn take(&mut self) -> bool {
        let unit = self.next;
        self.next += 1;
        self.lo <= unit && unit < self.hi
    }
}

impl<S: AccessSink> AccessSink for UnitWindow<'_, S> {
    fn access(&mut self, entry: TraceEntry) {
        if self.take() {
            self.inner.access(entry);
        }
    }

    fn run_group(&mut self, runs: &[StrideRun]) {
        if self.take() {
            self.inner.run_group(runs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{simulate_cache, simulate_cache_reference};
    use loop_ir::parser::parse_program;

    /// `N = 16` keeps each block's 128-byte slab line-aligned, so blocks
    /// are line-disjoint (the CLOUDSC layout property the disjointness test
    /// relies on).
    fn blocked_program(nblocks: i64) -> Program {
        parse_program(&format!(
            "program blocked {{ param NB = {nblocks}; param N = 16;
               array A[NB * N]; array B[NB * N];
               for b in 0..NB {{
                 for i in 0..N {{ B[b * N + i] = A[b * N + i] * 2.0; }}
               }} }}"
        ))
        .expect("blocked program parses")
    }

    /// Equality on everything except `probes`: how often the simulator
    /// probed is a property of the pipeline (run compression probes once
    /// per distinct line, the naive oracle counts none), not of the
    /// determinism contract, which covers the cache *counters*.
    fn assert_counters_eq(a: &ShardedCacheStats, b: &ShardedCacheStats) {
        assert_eq!(a.accesses(), b.accesses());
        assert_eq!(a.l1(), b.l1());
        assert_eq!(a.l2(), b.l2());
        assert_eq!(a.shards(), b.shards());
    }

    fn flat_program() -> Program {
        parse_program(
            "program flat { param N = 64; array A[N]; array B[N];
               for i in 0..N { B[i] = A[i] + 1.0; } }",
        )
        .expect("flat program parses")
    }

    fn multi_nest_program() -> Program {
        parse_program(
            "program multi { param N = 16; array A[N][N]; array C[N];
               for i in 0..N { C[i] = A[i][0]; }
               for i in 0..N { for j in 0..N { A[i][j] = C[i] * 2.0; } } }",
        )
        .expect("multi-nest program parses")
    }

    #[test]
    fn blocked_programs_shard_one_block_per_shard() {
        let compiled = CompiledProgram::lower(&blocked_program(7)).unwrap();
        let plan = ShardPlan::for_program(&compiled).unwrap();
        assert_eq!(plan.granularity(), ShardGranularity::Blocks);
        assert_eq!(plan.len(), 7);
        assert_eq!(plan.shards()[0], (0, 1));
        assert_eq!(plan.shards()[6], (6, 7));
    }

    #[test]
    fn flat_and_multi_nest_programs_fall_back_to_run_groups() {
        for program in [flat_program(), multi_nest_program()] {
            let compiled = CompiledProgram::lower(&program).unwrap();
            let plan = ShardPlan::for_program(&compiled).unwrap();
            assert_eq!(plan.granularity(), ShardGranularity::RunGroups);
            assert!(!plan.is_empty(), "{}: empty plan", program.name);
            assert!(plan.len() <= RUN_GROUP_SHARDS);
            // The windows tile the unit space.
            let mut expected = 0;
            for &(lo, hi) in plan.shards() {
                assert_eq!(lo, expected);
                assert!(hi > lo);
                expected = hi;
            }
        }
    }

    #[test]
    fn zero_trip_block_loops_yield_an_empty_plan_and_zero_stats() {
        let program = blocked_program(0);
        let compiled = CompiledProgram::lower(&program).unwrap();
        let plan = ShardPlan::for_program(&compiled).unwrap();
        assert_eq!(plan.granularity(), ShardGranularity::Blocks);
        assert!(plan.is_empty());
        let machine = MachineConfig::tiny_for_tests();
        let stats = simulate_cache_sharded(&program, &machine, 4).unwrap();
        assert_eq!(stats.accesses(), 0);
        assert_eq!(stats.l1(), CacheStats::default());
        assert_eq!(stats.l2(), CacheStats::default());
    }

    #[test]
    fn a_single_covering_shard_reproduces_the_monolithic_simulation() {
        let machine = MachineConfig::tiny_for_tests();
        for program in [blocked_program(5), flat_program(), multi_nest_program()] {
            let compiled = CompiledProgram::lower(&program).unwrap();
            let plan = ShardPlan::single(&compiled).unwrap();
            assert_eq!(plan.len(), 1, "{}", program.name);
            let sharded = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 1).unwrap();
            let mono = simulate_cache(&program, &machine).unwrap();
            assert_eq!(sharded.accesses(), mono.accesses(), "{}", program.name);
            assert_eq!(sharded.probes(), mono.probes(), "{}", program.name);
            assert_eq!(sharded.l1(), mono.l1(), "{}", program.name);
            assert_eq!(sharded.l2(), mono.l2(), "{}", program.name);
        }
    }

    #[test]
    fn counters_are_bit_identical_at_any_worker_count() {
        let machine = MachineConfig::tiny_for_tests();
        for program in [blocked_program(9), multi_nest_program()] {
            let baseline = simulate_cache_sharded(&program, &machine, 1).unwrap();
            for workers in [0usize, 2, 3, 8] {
                let stats = simulate_cache_sharded(&program, &machine, workers).unwrap();
                assert_eq!(stats, baseline, "{}: workers {workers}", program.name);
            }
        }
    }

    #[test]
    fn sharded_counters_match_the_per_access_oracle_on_ragged_cuts() {
        let machine = MachineConfig::tiny_for_tests();
        let program = blocked_program(10);
        let compiled = CompiledProgram::lower(&program).unwrap();
        // Ragged last shard (3+3+3+1), plus a range clamped past the end.
        let plan = ShardPlan::blocks(vec![(0, 3), (3, 6), (6, 9), (9, 12)]);
        let sharded = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 3).unwrap();
        let oracle = simulate_cache_sharded_reference(&compiled, &plan, &machine).unwrap();
        assert_counters_eq(&sharded, &oracle);
        // All accesses are covered exactly once despite the clamped range.
        assert_eq!(
            sharded.accesses(),
            simulate_cache(&program, &machine).unwrap().accesses()
        );
    }

    #[test]
    fn block_disjoint_traces_keep_monolithic_hits_misses_and_loads() {
        // Each block touches its own slab of A and B, so stale lines from
        // earlier blocks behave exactly like a cold replica's empty ways:
        // hits/misses/loads match the monolithic run, only evicts are
        // defined per shard (see the module docs).
        let machine = MachineConfig::tiny_for_tests();
        let program = blocked_program(8);
        let sharded = simulate_cache_sharded(&program, &machine, 2).unwrap();
        let mono = simulate_cache(&program, &machine).unwrap();
        assert_eq!(sharded.accesses(), mono.accesses());
        for (sh, mo, level) in [
            (sharded.l1(), mono.l1(), "L1"),
            (sharded.l2(), mono.l2(), "L2"),
        ] {
            assert_eq!(sh.hits, mo.hits, "{level} hits");
            assert_eq!(sh.misses, mo.misses, "{level} misses");
            assert_eq!(sh.loads, mo.loads, "{level} loads");
        }
    }

    #[test]
    fn run_group_windows_agree_with_the_per_access_oracle() {
        let machine = MachineConfig::tiny_for_tests();
        let program = multi_nest_program();
        let compiled = CompiledProgram::lower(&program).unwrap();
        let plan = ShardPlan::for_program(&compiled).unwrap();
        let sharded = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 3).unwrap();
        let oracle = simulate_cache_sharded_reference(&compiled, &plan, &machine).unwrap();
        assert_counters_eq(&sharded, &oracle);
        assert_eq!(
            sharded.accesses(),
            simulate_cache_reference(&program, &machine)
                .unwrap()
                .accesses()
        );
    }

    /// Rows of `n` doubles per block; `n = 128` is one set period of the
    /// tiny machine (64 B lines x 16 L2 sets).
    fn rows_program(nblocks: i64, n: i64) -> Program {
        parse_program(&format!(
            "program rows {{ param NB = {nblocks}; param N = {n};
               array A[NB * N]; array B[NB * N];
               for b in 0..NB {{
                 for i in 0..N {{ B[b * N + i] = A[b * N + i] * 2.0; }}
               }} }}"
        ))
        .expect("rows program parses")
    }

    #[test]
    fn classes_group_shards_by_length_and_shift_residue() {
        let machine = MachineConfig::tiny_for_tests();
        // Half-period rows: every array moves by 8 whole lines per block.
        // Cuts out of order, one of length 2, one past the end.
        let plan = ShardPlan::blocks(vec![(5, 6), (1, 2), (2, 3), (3, 5), (0, 1), (6, 9), (7, 9)]);
        let summary = |program: &Program| {
            let compiled = CompiledProgram::lower(program).unwrap();
            let shifts = compiled.block_shifts().expect("rows translate");
            // Without shifts every shard stands alone.
            assert_eq!(shard_classes(&compiled, &plan, &machine, None).len(), 7);
            shard_classes(&compiled, &plan, &machine, Some(&shifts))
                .iter()
                .map(|c| (c.representative, c.others.clone(), c.span))
                .collect::<Vec<_>>()
        };
        // A and B move together, so every single block relabels the sets
        // of block 0 (represented by block 0, spanning to (6, 9) clamped
        // to (6, 7)); the only shard of length 2 and the only empty one
        // stand alone.
        assert_eq!(
            summary(&rows_program(7, 64)),
            vec![(4, vec![0, 1, 2, 5], 6), (3, vec![], 0), (6, vec![], 0)]
        );
        // A stationary vector pins the set labels: even and odd blocks
        // fall back to their two residues modulo the set period.
        let pinned = parse_program(
            "program pinned { param NB = 7; param N = 64;
               array A[NB * N]; array B[NB * N]; array C[N];
               for b in 0..NB {
                 for i in 0..N { B[b * N + i] = A[b * N + i] * C[i]; }
               } }",
        )
        .unwrap();
        assert_eq!(
            summary(&pinned),
            vec![
                // Odd single blocks: 5, 1 -> represented by block 1.
                (1, vec![0], 4),
                // Even single blocks: 2, 0, and (6, 9) clamped to (6, 7).
                (4, vec![2, 5], 6),
                (3, vec![], 0),
                (6, vec![], 0),
            ]
        );
        // A row is two L1 periods (64 B x 4 L1 sets), so the odd and even
        // blocks share their L1 class.
        let compiled = CompiledProgram::lower(&pinned).unwrap();
        let shifts = compiled.block_shifts().unwrap();
        let classes = shard_classes(&compiled, &plan, &machine, Some(&shifts));
        assert_eq!(
            l1_classes(&classes, Some(&shifts), &machine),
            vec![vec![0, 1], vec![2], vec![3]]
        );
        assert_eq!(l1_classes(&classes, None, &machine).len(), 4);
    }

    #[test]
    fn deduplicated_counters_equal_every_shard_simulated_alone() {
        let machine = MachineConfig::tiny_for_tests();
        let compiled = CompiledProgram::lower(&rows_program(9, 128)).unwrap();
        let plan = ShardPlan::for_program(&compiled).unwrap();
        let stats = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 4).unwrap();
        assert_eq!((stats.shards(), stats.classes()), (9, 1));
        assert_eq!(9 * stats.streamed_accesses(), stats.accesses());

        let mut alone = ShardedCacheStats::empty(&plan, plan.len());
        for &(lo, hi) in plan.shards() {
            let granularity = ShardGranularity::Blocks;
            let (replica, _) = simulate_shard(&compiled, granularity, lo, hi, &machine).unwrap();
            alone.add(&replica, 1);
        }
        assert_eq!(stats.probes(), alone.probes());
        assert_counters_eq(&stats, &alone);
    }

    #[test]
    fn a_clamping_representative_hands_its_class_back() {
        let machine = MachineConfig::tiny_for_tests();
        // Block 0 reads A[-1], which clamps to A[0]; later blocks read the
        // last element of the previous row instead.
        let program = parse_program(
            "program clamp { param NB = 5; param N = 128;
               array A[NB * N]; array B[NB * N];
               for b in 0..NB {
                 for i in 0..N { B[b * N + i] = A[b * N + i - 1]; }
               } }",
        )
        .unwrap();
        let compiled = CompiledProgram::lower(&program).unwrap();
        let plan = ShardPlan::for_program(&compiled).unwrap();
        let stats = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 2).unwrap();
        assert_eq!(stats.classes(), 5, "every member is simulated");
        let oracle = simulate_cache_sharded_reference(&compiled, &plan, &machine).unwrap();
        assert_counters_eq(&stats, &oracle);
        assert_ne!(
            stats.l1().loads,
            5 * simulate_cache_sharded_with_plan(
                &compiled,
                &ShardPlan::blocks(vec![(0, 1)]),
                &machine,
                1
            )
            .unwrap()
            .l1()
            .loads,
            "block 0 alone does not stand for the others"
        );
    }
}

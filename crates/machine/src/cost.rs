//! An analytical cost model for loop-nest programs.
//!
//! Measuring wall-clock time of generated machine code is not available to
//! this reproduction (no LLVM backend), so schedules are compared through an
//! analytical model of the paper's experimental machine: a cache-aware
//! roofline. For every computation the model estimates
//!
//! * compute time from the FLOP count, SIMD annotations and the machine's
//!   issue width,
//! * memory time from a working-set analysis of the enclosing loops: the
//!   outermost loop level whose data footprint fits each cache level
//!   determines how often lines must be re-fetched, and the stride of the
//!   innermost iterator determines how much of every fetched line is used,
//! * parallel time from the loop-level `parallel` annotations, including the
//!   saturating memory bandwidth and the atomic penalty of parallelized
//!   reductions.
//!
//! Absolute seconds are indicative only; the model's purpose is to rank
//! schedules the same way the paper's Xeon does (who wins, by what factor,
//! where the crossovers are).
//!
//! # Memoization
//!
//! The evolutionary search prices thousands of candidate programs that differ
//! in a single nest; re-deriving the working-set analysis for the unchanged
//! nests dominated its runtime. [`CostModel`] therefore memoizes in two
//! tables, both behind structural hashes and both shared across clones of a
//! model (worker threads costing candidates in parallel populate one table):
//!
//! 1. **Per nest.** A nest's cost is a pure function of *(machine, thread
//!    count, program environment, nest structure)*, where the environment is
//!    the parameter bindings and array declarations
//!    ([`Program::environment_hash`]) and the structure is everything
//!    [`loop_ir::structural_hash_node`] covers (bounds, steps, schedule
//!    annotations, subscripts, values — statement names excluded).
//! 2. **Per run signature.** Below the nest level, every computation's
//!    *run summary* — the absolute linearized stride of each access along
//!    each iterator, the access-affinity flags and the target's subscript
//!    variables, i.e. exactly the per-iterator facts a constant-stride run
//!    of the access exposes — is memoized keyed by `(environment,
//!    computation structure)`. The summary is independent of the enclosing
//!    loop order, so search candidates that only permute, annotate or
//!    re-tile the outer loops miss layer 1 but re-price from cached run
//!    summaries: the symbolic affine extraction is never repeated, only the
//!    cheap per-stack arithmetic.
//!
//! [`CostModel::without_memoization`] turns both off; estimates are
//! bit-identical either way (the unit tests below hold the two against each
//! other).

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use loop_ir::expr::{AffineExpr, Expr, Var};
use loop_ir::nest::{BlasCall, Computation, Loop, Node};
use loop_ir::program::Program;
use loop_ir::structural_hash_node;

use crate::blas::blas_call_time;
use crate::config::MachineConfig;

/// Shared memo table of a [`CostModel`]: per-nest costs keyed by
/// `(environment hash, nest structural hash)`.
type CostMemo = Arc<Mutex<HashMap<(u64, u64), NestCost>>>;

/// Shared run-summary table: per-computation summaries keyed by
/// `(environment hash, computation structural hash)`.
type SummaryMemo = Arc<Mutex<HashMap<(u64, u64), Arc<CompSummary>>>>;

/// The run summary of one computation: every IR-derived fact the pricing
/// arithmetic needs, independent of the enclosing loop order. Deriving it
/// (symbolic affine extraction per access) is the expensive part of pricing
/// a computation; everything downstream is arithmetic over the loop stack.
#[derive(Debug, Clone)]
struct CompSummary {
    /// Floating-point operations per dynamic execution.
    flops: f64,
    /// Whether the statement is a reduction update.
    reduction: bool,
    /// Iterators referenced by the target's subscripts.
    target_vars: BTreeSet<Var>,
    /// Per access (in [`Computation::for_each_access`] order): the
    /// linearized offset, whose coefficients are the element strides along
    /// the iterators, or `None` when the access is non-affine or its array
    /// is unknown.
    coeffs: Vec<Option<AffineExpr>>,
}

impl CompSummary {
    fn of(program: &Program, comp: &Computation) -> CompSummary {
        let mut coeffs = Vec::with_capacity(comp.access_count());
        comp.for_each_access(|access| {
            coeffs.push(
                program
                    .array(&access.array_ref.array)
                    .ok()
                    .and_then(|array| access.array_ref.linear_offset(array, &program.params)),
            )
        });
        let mut target_vars = BTreeSet::new();
        for idx in &comp.target.indices {
            idx.for_each_var(&mut |v| {
                target_vars.insert(v.clone());
            });
        }
        CompSummary {
            flops: comp.flops() as f64,
            reduction: comp.reduction.is_some(),
            target_vars,
            coeffs,
        }
    }

    /// Absolute element stride of access `i` along `iter` (zero if the
    /// iterator does not appear; `None` when the access is non-affine).
    fn stride_of(&self, access: usize, iter: &Var) -> Option<u64> {
        self.coeffs[access]
            .as_ref()
            .map(|offset| offset.coefficient(iter).unsigned_abs())
    }
}

/// Loop-control overhead in cycles per executed loop iteration (increment,
/// compare, branch). Negligible for large loop bodies, but it is what makes
/// fully operator-at-a-time code (one tiny loop per intermediate value)
/// slower than the same statements fused into one loop.
const LOOP_OVERHEAD_CYCLES: f64 = 1.0;

/// Estimated cost of one top-level node (loop nest or library call).
#[derive(Debug, Clone, PartialEq)]
pub struct NestCost {
    /// Short description (nest iterators or library call name).
    pub description: String,
    /// Estimated execution time in seconds.
    pub seconds: f64,
    /// Floating-point operations executed.
    pub flops: f64,
    /// Estimated DRAM traffic in bytes.
    pub dram_bytes: f64,
}

/// Estimated cost of a whole program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostReport {
    /// Total estimated time in seconds.
    pub seconds: f64,
    /// Total floating-point operations.
    pub flops: f64,
    /// Total estimated DRAM traffic in bytes.
    pub dram_bytes: f64,
    /// Per-top-level-node breakdown.
    pub per_nest: Vec<NestCost>,
}

impl CostReport {
    /// The report of a program whose top-level nodes cost `per_nest`, in
    /// body order. Totals are accumulated front to back from zero — *the*
    /// summation order of a report: callers that keep per-node costs and
    /// re-total them get bit-identical `f64`s to
    /// [`CostModel::estimate`] on the materialized program.
    pub fn from_nests(per_nest: Vec<NestCost>) -> Self {
        let mut report = CostReport {
            per_nest,
            ..CostReport::default()
        };
        for cost in &report.per_nest {
            report.seconds += cost.seconds;
            report.flops += cost.flops;
            report.dram_bytes += cost.dram_bytes;
        }
        report
    }

    /// Achieved FLOP/s under the model.
    pub fn flops_per_second(&self) -> f64 {
        if self.seconds > 0.0 {
            self.flops / self.seconds
        } else {
            0.0
        }
    }
}

/// A program's environment as a [`CostModel`] memo key: what
/// [`CostModel::node_cost_in`] is handed instead of hashing the program's
/// declarations again for every node. It holds for the program it was taken
/// from and for every program with the same parameters, scalar parameters
/// and arrays — the same program with other top-level nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Environment(Option<u64>);

/// The analytical cost model.
#[derive(Debug, Clone)]
pub struct CostModel {
    machine: MachineConfig,
    threads: usize,
    /// Per-nest memo, shared across clones so parallel workers fill one
    /// table; `None` disables memoization.
    memo: Option<CostMemo>,
    /// Per-computation run-summary memo (layer 2), shared like `memo`.
    summaries: Option<SummaryMemo>,
}

#[derive(Debug, Clone)]
struct LoopInfo<'a> {
    iter: Var,
    trip: f64,
    /// Midpoint of the iterator's value range, used to evaluate bounds of
    /// inner loops that depend on this iterator.
    mid_value: i64,
    /// The loop's lower and upper bounds. An access varies with every loop
    /// a varying loop's bounds read: that attributes tiled accesses to
    /// their tile loops.
    bounds: [&'a Expr; 2],
    parallel: bool,
    vectorize: bool,
}

impl LoopInfo<'_> {
    /// Whether this loop's bounds read `v`.
    fn bound_uses(&self, v: &Var) -> bool {
        self.bounds.iter().any(|bound| bound.uses_var(v))
    }
}

impl CostModel {
    /// Creates a cost model for `threads` worker threads on `machine`,
    /// with memoization enabled.
    pub fn new(machine: MachineConfig, threads: usize) -> Self {
        CostModel {
            threads: threads.max(1),
            machine,
            memo: Some(Arc::new(Mutex::new(HashMap::new()))),
            summaries: Some(Arc::new(Mutex::new(HashMap::new()))),
        }
    }

    /// Creates a sequential cost model for the paper's machine.
    pub fn sequential() -> Self {
        CostModel::new(MachineConfig::default(), 1)
    }

    /// Returns this model with memoization disabled — every nest is priced
    /// from scratch. What the memoized answers are tested against.
    pub fn without_memoization(mut self) -> Self {
        self.memo = None;
        self.summaries = None;
        self
    }

    /// Number of distinct nests currently memoized.
    pub fn memo_entries(&self) -> usize {
        self.memo
            .as_ref()
            .map(|memo| memo.lock().expect("cost memo poisoned").len())
            .unwrap_or(0)
    }

    /// Number of distinct computation run summaries currently memoized.
    pub fn run_summary_entries(&self) -> usize {
        self.summaries
            .as_ref()
            .map(|memo| memo.lock().expect("summary memo poisoned").len())
            .unwrap_or(0)
    }

    /// The machine description used by the model.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The number of threads the model assumes.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Estimates the execution cost of a program.
    pub fn estimate(&self, program: &Program) -> CostReport {
        self.estimate_in(program, self.environment(program))
    }

    /// [`estimate`](Self::estimate) given `program`'s
    /// [`environment`](Self::environment).
    pub fn estimate_in(&self, program: &Program, env: Environment) -> CostReport {
        let per_nest = program
            .body
            .iter()
            .map(|node| self.node_cost_in(program, env, node))
            .collect();
        CostReport::from_nests(per_nest)
    }

    /// The memo key of `program`'s environment under this model (no key
    /// when memoization is off).
    pub fn environment(&self, program: &Program) -> Environment {
        Environment(self.memo.as_ref().map(|_| program.environment_hash()))
    }

    /// Cost of a single top-level node under the program's environment
    /// (parameters, scalar parameters, arrays). `node` does not have to be
    /// part of `program.body`: the scheduler prices transformed nests this
    /// way without materializing candidate programs. Memoized per
    /// `(environment, node structure)` exactly like [`estimate`](Self::estimate).
    pub fn node_cost(&self, program: &Program, node: &Node) -> NestCost {
        self.node_cost_in(program, self.environment(program), node)
    }

    /// [`node_cost`](Self::node_cost) given `program`'s
    /// [`environment`](Self::environment), for callers that price many
    /// nodes against one program.
    pub fn node_cost_in(&self, program: &Program, env: Environment, node: &Node) -> NestCost {
        let env = env.0;
        match node {
            Node::Loop(l) => self.nest_cost_memoized(program, node, l, env),
            Node::Call(call) => self.estimate_call(program, call),
            Node::Computation(c) => NestCost {
                description: c.name.clone(),
                seconds: c.flops() as f64 / self.machine.frequency_hz,
                flops: c.flops() as f64,
                dram_bytes: 0.0,
            },
        }
    }

    /// Per-nest cost with memo lookup; `env` is `Some` iff memoization is on.
    fn nest_cost_memoized(
        &self,
        program: &Program,
        node: &Node,
        nest: &Loop,
        env: Option<u64>,
    ) -> NestCost {
        let (Some(env), Some(memo)) = (env, self.memo.as_ref()) else {
            return self.estimate_nest(program, nest, env);
        };
        let key = (env, structural_hash_node(node));
        if let Some(hit) = memo.lock().expect("cost memo poisoned").get(&key) {
            telemetry::counter("machine.cost.memo_hits", 1);
            return hit.clone();
        }
        telemetry::counter("machine.cost.memo_misses", 1);
        let cost = self.estimate_nest(program, nest, Some(env));
        memo.lock()
            .expect("cost memo poisoned")
            .insert(key, cost.clone());
        cost
    }

    /// The run summary of a computation, from the layer-2 memo when
    /// memoization is on (`env` is `Some`), derived fresh otherwise.
    fn comp_summary(
        &self,
        program: &Program,
        node: &Node,
        comp: &Computation,
        env: Option<u64>,
    ) -> Arc<CompSummary> {
        let (Some(env), Some(memo)) = (env, self.summaries.as_ref()) else {
            return Arc::new(CompSummary::of(program, comp));
        };
        let key = (env, structural_hash_node(node));
        if let Some(hit) = memo.lock().expect("summary memo poisoned").get(&key) {
            telemetry::counter("machine.cost.summary_memo_hits", 1);
            return hit.clone();
        }
        telemetry::counter("machine.cost.summary_memo_misses", 1);
        let summary = Arc::new(CompSummary::of(program, comp));
        memo.lock()
            .expect("summary memo poisoned")
            .insert(key, summary.clone());
        summary
    }

    /// Estimates one BLAS library call.
    fn estimate_call(&self, program: &Program, call: &BlasCall) -> NestCost {
        let flops = call.flops(&program.params).unwrap_or(0) as f64;
        let mut bytes = 0.0;
        for name in call.inputs.iter().chain(std::iter::once(&call.output)) {
            if let Ok(array) = program.array(name) {
                bytes += array.size_bytes(&program.params).unwrap_or(0) as f64;
            }
        }
        let seconds = blas_call_time(&self.machine, flops, bytes, self.threads);
        NestCost {
            description: format!("{call}"),
            seconds,
            flops,
            dram_bytes: bytes,
        }
    }

    /// Estimates one top-level loop nest.
    fn estimate_nest(&self, program: &Program, nest: &Loop, env: Option<u64>) -> NestCost {
        let mut total = NestCost {
            description: iterator_list(nest),
            seconds: 0.0,
            flops: 0.0,
            dram_bytes: 0.0,
        };
        let mut stack = Vec::new();
        self.walk(program, nest, &mut stack, &mut total, env);
        // Nested library calls contribute through walk as well.
        total
    }

    fn walk<'a>(
        &self,
        program: &Program,
        l: &'a Loop,
        stack: &mut Vec<LoopInfo<'a>>,
        total: &mut NestCost,
        env: Option<u64>,
    ) {
        let (trip, mid_value) = self.average_trip(program, l, stack);
        // Loop-control overhead for every dynamic iteration of this loop,
        // amortized over the threads executing it when a parallel loop
        // encloses it (or it is parallel itself).
        let iterations: f64 = stack.iter().map(|s| s.trip).product::<f64>() * trip;
        let parallelized = l.schedule.parallel || stack.iter().any(|s| s.parallel);
        let overhead_threads = if parallelized {
            self.threads.min(self.machine.cores).max(1) as f64
        } else {
            1.0
        };
        total.seconds +=
            iterations * LOOP_OVERHEAD_CYCLES / self.machine.frequency_hz / overhead_threads;
        stack.push(LoopInfo {
            iter: l.iter.clone(),
            trip,
            mid_value,
            bounds: [&l.lower, &l.upper],
            parallel: l.schedule.parallel,
            vectorize: l.schedule.vectorize,
        });
        for node in &l.body {
            match node {
                Node::Loop(inner) => self.walk(program, inner, stack, total, env),
                Node::Computation(c) => {
                    let summary = self.comp_summary(program, node, c, env);
                    let (seconds, flops, dram_bytes) = self.computation_cost(&summary, stack);
                    total.seconds += seconds;
                    total.flops += flops;
                    total.dram_bytes += dram_bytes;
                }
                Node::Call(call) => {
                    let mut cost = self.estimate_call(program, call);
                    let outer_iters: f64 = stack.iter().map(|s| s.trip).product();
                    cost.seconds *= outer_iters;
                    cost.flops *= outer_iters;
                    cost.dram_bytes *= outer_iters;
                    total.seconds += cost.seconds;
                    total.flops += cost.flops;
                    total.dram_bytes += cost.dram_bytes;
                }
            }
        }
        stack.pop();
    }

    /// Average trip count of a loop (and the midpoint of its value range),
    /// evaluating bounds with outer iterators bound to the midpoint of their
    /// own ranges (handles triangular and tiled domains).
    fn average_trip(&self, program: &Program, l: &Loop, stack: &[LoopInfo<'_>]) -> (f64, i64) {
        // The innermost loop of a name shadows outer ones and parameters.
        let value_of = |v: &Var| match stack.iter().rev().find(|info| &info.iter == v) {
            Some(info) => Some(info.mid_value),
            None => program.params.get(v).copied(),
        };
        let lower = l.lower.eval_with(&value_of).unwrap_or(0);
        let upper = l.upper.eval_with(&value_of).unwrap_or(lower);
        let extent = (upper - lower).max(0) as f64;
        let trip = (extent / l.step.max(1) as f64).max(1.0);
        (trip, lower + (extent as i64) / 2)
    }

    /// Seconds, flops and DRAM bytes of every dynamic instance of one
    /// computation under `stack`.
    fn computation_cost(&self, summary: &CompSummary, stack: &[LoopInfo<'_>]) -> (f64, f64, f64) {
        let total_iters: f64 = stack.iter().map(|s| s.trip).product::<f64>().max(1.0);
        let flops = summary.flops * total_iters;

        // ---- compute time ----------------------------------------------
        let innermost = stack.last();
        let mut flops_per_cycle = self.machine.scalar_flops_per_cycle;
        if let Some(inner) = innermost {
            if inner.vectorize && Self::vectorizable(summary, &inner.iter) {
                flops_per_cycle *=
                    self.machine.vector_width as f64 * self.machine.vector_efficiency;
            }
        }
        // Very large loop bodies (heavily unrolled physics code) suffer from
        // register pressure; model a mild penalty that fission removes.
        let body_size_penalty = 1.0 + (summary.flops / 64.0).min(1.0);
        let mut compute_seconds =
            flops * body_size_penalty / (self.machine.frequency_hz * flops_per_cycle);

        // ---- memory time -------------------------------------------------
        let (dram_bytes, l2_bytes) = self.memory_traffic(summary, stack);

        // ---- parallelism --------------------------------------------------
        let parallel_level = stack.iter().position(|s| s.parallel);
        let mut threads = 1usize;
        let mut overhead = 0.0;
        let mut atomic = false;
        if let Some(level) = parallel_level {
            threads = self
                .threads
                .min(self.machine.cores)
                .min(stack[level].trip.round() as usize)
                .max(1);
            let outer_regions: f64 = stack[..level]
                .iter()
                .map(|s| s.trip)
                .product::<f64>()
                .max(1.0);
            overhead = self.machine.parallel_overhead * threads as f64 * outer_regions;
            // A reduction whose target does not vary with the parallel loop
            // must be updated atomically. "Varies" includes indirect
            // variation through loop bounds: a tile's point loop owns a
            // distinct slice of the target for every tile-loop iteration.
            if summary.reduction {
                let mut influencing: Vec<Var> = stack
                    .iter()
                    .map(|s| s.iter.clone())
                    .filter(|iter| summary.target_vars.contains(iter))
                    .collect();
                let mut changed = true;
                while changed {
                    changed = false;
                    for info in stack.iter() {
                        if influencing.contains(&info.iter) {
                            continue;
                        }
                        let influences = influencing.iter().any(|v| {
                            stack
                                .iter()
                                .find(|s| &s.iter == v)
                                .map(|s| s.bound_uses(&info.iter))
                                .unwrap_or(false)
                        });
                        if influences {
                            influencing.push(info.iter.clone());
                            changed = true;
                        }
                    }
                }
                if !influencing.contains(&stack[level].iter) {
                    atomic = true;
                }
            }
        }

        let memory_seconds = if threads > 1 {
            dram_bytes / self.machine.bandwidth_with_threads(threads)
                + l2_bytes / (self.machine.l2_bandwidth * threads as f64)
        } else {
            dram_bytes / self.machine.dram_bandwidth + l2_bytes / self.machine.l2_bandwidth
        };

        if atomic {
            // Atomic updates serialize: no parallel speedup and every update
            // pays the penalty.
            compute_seconds *= self.machine.atomic_penalty;
        } else if threads > 1 {
            compute_seconds /= threads as f64;
        }

        let seconds = compute_seconds.max(memory_seconds) + overhead;
        (seconds, flops, dram_bytes)
    }

    /// A computation vectorizes well along `iter` when none of its accesses
    /// has a large stride along that iterator (unit stride and loop-invariant
    /// accesses are fine).
    fn vectorizable(summary: &CompSummary, iter: &Var) -> bool {
        (0..summary.coeffs.len()).all(|access| {
            summary
                .stride_of(access, iter)
                .is_some_and(|stride| stride <= 1)
        })
    }

    /// Estimated (DRAM bytes, L2 bytes) moved for all dynamic instances of a
    /// computation, via a working-set analysis over its loop stack.
    fn memory_traffic(&self, summary: &CompSummary, stack: &[LoopInfo<'_>]) -> (f64, f64) {
        let n_accesses = summary.coeffs.len();
        let elems_per_line = self.machine.elems_per_line(8) as f64;
        let depth = stack.len();

        // Per access: the absolute linearized stride along every stack loop
        // (straight from the cached run summary), and the set of loops that
        // vary the access. A loop varies an access if its iterator appears
        // in the subscripts, or (transitively) if a varying loop's bounds
        // depend on it — this attributes tiled accesses to their tile loops,
        // whose iterators only appear in point-loop bounds.
        // Both are `depth` entries per access, one access after the other.
        let mut coeffs: Vec<f64> = Vec::with_capacity(n_accesses * depth);
        let mut varying: Vec<bool> = Vec::with_capacity(n_accesses * depth);
        for access in 0..n_accesses {
            match &summary.coeffs[access] {
                Some(offset) => coeffs.extend(
                    stack
                        .iter()
                        .map(|info| offset.coefficient(&info.iter).unsigned_abs() as f64),
                ),
                // Non-affine access: treat as touching a new line at every
                // level (worst case).
                None => coeffs.extend(std::iter::repeat_n(f64::INFINITY, depth)),
            }
            let per_loop = &coeffs[access * depth..];
            varying.extend(per_loop.iter().map(|c| *c > 0.0));
            let varies = &mut varying[access * depth..];
            // Transitive closure through loop bounds.
            loop {
                let mut changed = false;
                for v in 0..depth {
                    if !varies[v] {
                        continue;
                    }
                    for m in 0..depth {
                        if !varies[m] && stack[v].bound_uses(&stack[m].iter) {
                            varies[m] = true;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        // Distinct cache lines one access touches while the loops
        // `level..depth` execute once.
        let lines_for = |access_idx: usize, level: usize| -> f64 {
            let c = &coeffs[access_idx * depth..(access_idx + 1) * depth];
            let varies = &varying[access_idx * depth..(access_idx + 1) * depth];
            let mut elements = 1.0;
            for l in level..depth {
                if varies[l] {
                    elements *= stack[l].trip;
                }
            }
            // Spatial locality is governed by the smallest non-zero stride of
            // a loop inside the window (the loop walking along a cache line);
            // bound-driven loops (tile loops) fall back to the globally
            // smallest stride because consecutive tiles are adjacent.
            let mut min_stride = f64::INFINITY;
            for &stride in &c[level..depth] {
                if stride > 0.0 {
                    min_stride = min_stride.min(stride);
                }
            }
            if min_stride.is_infinite() {
                for &stride in &c[..depth] {
                    if stride > 0.0 {
                        min_stride = min_stride.min(stride);
                    }
                }
            }
            if elements <= 1.0 {
                return 1.0;
            }
            if min_stride.is_infinite() {
                return elements;
            }
            if min_stride <= 1.0 {
                (elements / elems_per_line).max(1.0)
            } else if min_stride < elems_per_line {
                (elements * min_stride / elems_per_line).max(1.0)
            } else {
                elements
            }
        };

        // Footprint of the sub-nest starting at `level` (bytes).
        let footprint = |level: usize| -> f64 {
            (0..n_accesses).map(|i| lines_for(i, level)).sum::<f64>()
                * self.machine.line_bytes as f64
        };

        // Outermost level whose footprint fits the given capacity.
        let fit_level = |capacity: f64| -> usize {
            for level in 0..depth {
                if footprint(level) <= capacity {
                    return level;
                }
            }
            depth
        };

        let dram_level = fit_level(self.machine.l3_bytes as f64 * 0.8);
        let l1_level = fit_level(self.machine.l1_bytes as f64 * 0.8);

        let executions_outside = |level: usize| -> f64 {
            stack[..level]
                .iter()
                .map(|s| s.trip)
                .product::<f64>()
                .max(1.0)
        };

        // Traffic through a cache boundary: once the sub-nest one level above
        // the fitting level no longer fits, each of its executions re-fetches
        // its distinct lines; if everything fits, only compulsory misses
        // remain.
        let traffic = |access_idx: usize, fit: usize| -> f64 {
            let lines = if fit == 0 {
                lines_for(access_idx, 0)
            } else {
                executions_outside(fit - 1) * lines_for(access_idx, fit - 1)
            };
            lines * self.machine.line_bytes as f64
        };

        let mut dram_bytes = 0.0;
        let mut l2_bytes = 0.0;
        for i in 0..n_accesses {
            dram_bytes += traffic(i, dram_level);
            l2_bytes += traffic(i, l1_level);
        }
        (dram_bytes, l2_bytes)
    }
}

/// The iterators of `nest` and of every loop below it, in
/// [`Loop::nested_iterators`] order, joined by commas: a nest's
/// [`NestCost::description`].
fn iterator_list(nest: &Loop) -> String {
    fn push_below(l: &Loop, out: &mut String) {
        for node in &l.body {
            if let Node::Loop(inner) = node {
                out.push(',');
                out.push_str(inner.iter.as_str());
                push_below(inner, out);
            }
        }
    }
    let mut out = nest.iter.as_str().to_owned();
    push_below(nest, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;
    use transforms::{tile_band, Recipe, Transform};

    fn gemm(order: &str, n: i64) -> Program {
        let loops: Vec<char> = order.chars().collect();
        parse_program(&format!(
            "program gemm {{ param NI = {n}; param NJ = {n}; param NK = {n};
               array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
               for {a} in 0..N{a_up} {{ for {b} in 0..N{b_up} {{ for {c} in 0..N{c_up} {{
                 C[i][j] += A[i][k] * B[k][j];
               }} }} }} }}",
            a = loops[0],
            b = loops[1],
            c = loops[2],
            a_up = loops[0].to_uppercase(),
            b_up = loops[1].to_uppercase(),
            c_up = loops[2].to_uppercase(),
        ))
        .unwrap()
    }

    #[test]
    fn the_unroll_factor_does_not_change_an_estimate() {
        // The recipe search leaves unrolling out of its space for exactly
        // this reason: every unrolled recipe would tie with the same recipe
        // without it. When the model starts to price unrolling, this test
        // fails, and the unroll axis goes back into the search.
        let model = CostModel::new(MachineConfig::xeon_e5_2680v3(), 12).without_memoization();
        for scheduled in [false, true] {
            let mut plain = gemm("ikj", 256);
            if scheduled {
                let Node::Loop(nest) = &mut plain.body[0] else {
                    panic!("gemm is one nest");
                };
                transforms::mark_parallel(nest, &Var::new("i")).unwrap();
                transforms::mark_vectorize(nest, &Var::new("j")).unwrap();
            }
            let mut unrolled = plain.clone();
            let Node::Loop(nest) = &mut unrolled.body[0] else {
                panic!("gemm is one nest");
            };
            transforms::mark_unroll(nest, &Var::new("j"), 4).unwrap();
            assert_eq!(
                model.estimate(&unrolled).seconds.to_bits(),
                model.estimate(&plain).seconds.to_bits(),
                "the cost model now prices unrolling: put the unroll axis back \
                 into the recipe search's space (scheduled: {scheduled})"
            );
        }
    }

    #[test]
    fn flop_count_matches_iteration_space() {
        let p = gemm("ijk", 100);
        let report = CostModel::sequential().estimate(&p);
        // 2 flops per iteration (mul + reduction add).
        assert!((report.flops - 2.0 * 100.0_f64.powi(3)).abs() < 1.0);
        assert!(report.seconds > 0.0);
        assert!(report.flops_per_second() > 0.0);
    }

    #[test]
    fn a_nest_is_described_by_its_iterators_in_nested_order() {
        // Sibling loops, a triangular bound that reads an outer iterator
        // and a parameter shadowed by nothing: the description lists every
        // loop depth-first, and the midpoint bindings price what a map of
        // the parameters overlaid by the loop midpoints would.
        let p = parse_program(
            "program sib { param N = 40;
               array A[N][N]; array B[N];
               for t in 0..4 {
                 for i in 0..N { for j in 0..i + 1 { A[i][j] = A[i][j] + 1.0; } }
                 for k in 2..N - 1 { B[k] = B[k - 1] * 0.5; }
               } }",
        )
        .unwrap();
        let nest = p.loop_nests()[0];
        let names: Vec<String> = nest
            .nested_iterators()
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(iterator_list(nest), names.join(","));
        let report = CostModel::sequential().estimate(&p);
        assert_eq!(report.per_nest[0].description, "t,i,j,k");
        // Per `t`: 40 trips of `i` times 21 of `j` (its bound read at the
        // midpoint `i` = 20), and 37 trips of `k`; one flop each.
        assert_eq!(report.flops, 4.0 * (40.0 * 21.0 + 37.0));
    }

    #[test]
    fn loop_order_changes_estimated_runtime() {
        let model = CostModel::sequential();
        let good = model.estimate(&gemm("ikj", 512)).seconds;
        let bad = model.estimate(&gemm("jki", 512)).seconds;
        assert!(
            bad > good * 1.5,
            "column-major innermost ({bad}) should be clearly slower than row-major ({good})"
        );
    }

    #[test]
    fn tiling_reduces_dram_traffic_and_time() {
        // Large enough that a full row panel no longer fits the last-level
        // cache, so the untiled version pays capacity misses.
        let p = gemm("ikj", 4096);
        let nest = p.loop_nests()[0].clone();
        let tiled = tile_band(
            &nest,
            &[
                (Var::new("i"), 64),
                (Var::new("k"), 64),
                (Var::new("j"), 64),
            ],
        )
        .unwrap();
        let mut tiled_program = p.clone();
        tiled_program.body = vec![Node::Loop(tiled)];
        let model = CostModel::sequential();
        let base = model.estimate(&p);
        let opt = model.estimate(&tiled_program);
        assert!(opt.dram_bytes < base.dram_bytes);
        assert!(opt.seconds <= base.seconds);
    }

    #[test]
    fn vectorization_speeds_up_unit_stride_loops() {
        let p = gemm("ikj", 256);
        let nest = p.loop_nests()[0].clone();
        let recipe = Recipe::new(vec![Transform::Vectorize {
            iter: Var::new("j"),
        }]);
        let mut vectorized = p.clone();
        vectorized.body = recipe.apply_to_nest(&nest).unwrap();
        let model = CostModel::sequential();
        let base = model.estimate(&p).seconds;
        let vec = model.estimate(&vectorized).seconds;
        assert!(vec < base);
    }

    #[test]
    fn parallel_loops_scale_until_bandwidth_saturates() {
        let p = gemm("ikj", 512);
        let nest = p.loop_nests()[0].clone();
        let recipe = Recipe::new(vec![Transform::Parallelize {
            iter: Var::new("i"),
        }]);
        let mut parallel = p.clone();
        parallel.body = recipe.apply_to_nest(&nest).unwrap();
        let machine = MachineConfig::xeon_e5_2680v3();
        let t1 = CostModel::new(machine.clone(), 1)
            .estimate(&parallel)
            .seconds;
        let t4 = CostModel::new(machine.clone(), 4)
            .estimate(&parallel)
            .seconds;
        let t12 = CostModel::new(machine, 12).estimate(&parallel).seconds;
        assert!(t4 < t1);
        assert!(t12 <= t4);
        // Scaling is sublinear at 12 threads (bandwidth saturation).
        assert!(t12 > t1 / 12.0 * 0.9);
    }

    #[test]
    fn parallelized_reduction_pays_atomic_penalty() {
        // sum[0] += A[i] with the i loop parallelized: every update is atomic.
        let p = parse_program(
            "program reduce { param N = 100000; array A[N]; array s[1];
               #pragma parallel
               for i in 0..N { s[0] += A[i]; } }",
        )
        .unwrap();
        let serial = parse_program(
            "program reduce { param N = 100000; array A[N]; array s[1];
               for i in 0..N { s[0] += A[i]; } }",
        )
        .unwrap();
        let machine = MachineConfig::xeon_e5_2680v3();
        let par = CostModel::new(machine.clone(), 12).estimate(&p).seconds;
        let seq = CostModel::new(machine, 1).estimate(&serial).seconds;
        assert!(
            par > seq,
            "atomic reduction ({par}) must not beat serial ({seq})"
        );
    }

    #[test]
    fn blas_call_is_faster_than_naive_nest() {
        use loop_ir::prelude::*;
        let naive = gemm("ijk", 512);
        let call = BlasCall {
            kind: BlasKind::Gemm,
            output: Var::new("C"),
            inputs: vec![Var::new("A"), Var::new("B")],
            dims: vec![var("NI"), var("NJ"), var("NK")],
            alpha: fconst(1.0),
            beta: fconst(1.0),
        };
        let mut blas_program = naive.clone();
        blas_program.body = vec![Node::Call(call)];
        let model = CostModel::sequential();
        let naive_time = model.estimate(&naive).seconds;
        let blas_time = model.estimate(&blas_program).seconds;
        assert!(blas_time < naive_time / 2.0);
        // Same flops either way.
        assert!((model.estimate(&blas_program).flops - model.estimate(&naive).flops).abs() < 1.0);
    }

    #[test]
    fn triangular_nest_counts_half_the_iterations() {
        let full = parse_program(
            "program full { param N = 256; array A[N][N];
               for i in 0..N { for j in 0..N { A[i][j] = 1.0; } } }",
        )
        .unwrap();
        let tri = parse_program(
            "program tri { param N = 256; array A[N][N];
               for i in 0..N { for j in 0..i { A[i][j] = 1.0; } } }",
        )
        .unwrap();
        let model = CostModel::sequential();
        let f = model.estimate(&full);
        let t = model.estimate(&tri);
        assert!(t.dram_bytes < f.dram_bytes * 0.7);
    }

    #[test]
    fn memoized_and_unmemoized_estimates_are_identical() {
        let memoized = CostModel::new(MachineConfig::xeon_e5_2680v3(), 12);
        let plain = memoized.clone().without_memoization();
        for order in ["ijk", "ikj", "jki"] {
            let p = gemm(order, 128);
            let a = memoized.estimate(&p);
            let b = plain.estimate(&p);
            // Repeat with a warm memo: must still be bit-identical.
            let c = memoized.estimate(&p);
            assert_eq!(a, b, "order {order}");
            assert_eq!(a, c, "order {order} warm");
        }
        assert_eq!(memoized.memo_entries(), 3);
        assert_eq!(plain.memo_entries(), 0);
    }

    #[test]
    fn permuted_candidates_share_one_run_summary() {
        // All six GEMM loop orders contain the same computation, so the
        // per-nest memo holds six entries while the run-summary layer holds
        // exactly one — permuting outer loops re-prices from the cached
        // summary instead of re-deriving the affine access facts.
        let model = CostModel::sequential();
        let mut estimates = Vec::new();
        for order in ["ijk", "ikj", "jik", "jki", "kij", "kji"] {
            estimates.push(model.estimate(&gemm(order, 64)));
        }
        assert_eq!(model.memo_entries(), 6);
        assert_eq!(model.run_summary_entries(), 1);
        // The summary is order-independent input, not an order-independent
        // answer: permutations still price differently.
        let plain = model.clone().without_memoization();
        for (order, est) in ["ijk", "ikj", "jik", "jki", "kij", "kji"]
            .iter()
            .zip(&estimates)
        {
            assert_eq!(est, &plain.estimate(&gemm(order, 64)), "order {order}");
        }
        assert_eq!(plain.run_summary_entries(), 0);
    }

    #[test]
    fn memo_distinguishes_problem_sizes_and_structures() {
        let model = CostModel::sequential();
        let small = model.estimate(&gemm("ijk", 32)).seconds;
        let large = model.estimate(&gemm("ijk", 64)).seconds;
        assert!(
            large > small,
            "different params must not share memo entries"
        );
        assert_eq!(model.memo_entries(), 2);
        // A schedule annotation changes the structure, hence the entry.
        let mut annotated = gemm("ijk", 32);
        annotated.body[0].as_loop_mut().unwrap().schedule.vectorize = true;
        model.estimate(&annotated);
        assert_eq!(model.memo_entries(), 3);
    }

    #[test]
    fn simulated_cache_counters_are_parallelism_invariant() {
        // The model only prices; exact counters for the machine it prices
        // on come from the sharded simulator, whose worker count is
        // wall-clock only: every count must give bit-identical counters.
        let p = gemm("ikj", 48);
        let model = CostModel::sequential();
        let baseline = crate::simulate_cache_sharded(&p, model.machine(), 1).unwrap();
        assert!(baseline.accesses() > 0);
        for workers in [2usize, 8] {
            assert_eq!(
                crate::simulate_cache_sharded(&p, model.machine(), workers).unwrap(),
                baseline,
                "workers {workers}"
            );
        }
    }

    #[test]
    fn clones_share_the_memo_across_threads() {
        let model = CostModel::sequential();
        let programs: Vec<Program> = ["ijk", "ikj", "kij", "jik"]
            .iter()
            .map(|o| gemm(o, 96))
            .collect();
        std::thread::scope(|scope| {
            for chunk in programs.chunks(2) {
                let worker = model.clone();
                scope.spawn(move || {
                    for p in chunk {
                        worker.estimate(p);
                    }
                });
            }
        });
        assert_eq!(model.memo_entries(), 4);
    }
}

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
//! # No tables
//!
//! [`CostModel`] is a plain value — a machine and a thread count — and
//! pricing is a pure function of *(machine, thread count, program
//! environment, node)*: the same node under the same program prices to the
//! same bits every time, on any thread. The model keeps nothing between
//! calls. A caller that needs a node's cost more than once keeps the
//! [`NestCost`] it got: the scheduler prices the normalized program once and
//! splices the winners' costs into that vector, and database seeding prices
//! each program once for all of its nests' searches. The telemetry counter
//! `machine.cost.nests_priced` counts every top-level loop nest priced.

use loop_ir::array::ArrayRef;
use loop_ir::expr::{AffineFold, Expr, Var};
use loop_ir::nest::{BlasCall, Computation, Loop, Node};
use loop_ir::program::Program;

use crate::blas::blas_call_time;
use crate::config::MachineConfig;

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

/// The analytical cost model: the machine it prices on and the number of
/// threads a schedule may use there.
#[derive(Debug, Clone)]
pub struct CostModel {
    machine: MachineConfig,
    threads: usize,
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
    /// Creates a cost model for `threads` worker threads on `machine`.
    pub fn new(machine: MachineConfig, threads: usize) -> Self {
        CostModel {
            threads: threads.max(1),
            machine,
        }
    }

    /// Creates a sequential cost model for the paper's machine.
    pub fn sequential() -> Self {
        CostModel::new(MachineConfig::default(), 1)
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
        let per_nest = program
            .body
            .iter()
            .map(|node| self.node_cost(program, node))
            .collect();
        CostReport::from_nests(per_nest)
    }

    /// Cost of a single top-level node under the program's environment
    /// (parameters, scalar parameters, arrays). `node` does not have to be
    /// part of `program.body`: the scheduler prices transformed nests this
    /// way without materializing candidate programs.
    pub fn node_cost(&self, program: &Program, node: &Node) -> NestCost {
        match node {
            Node::Loop(l) => self.estimate_nest(program, l),
            Node::Call(call) => self.estimate_call(program, call),
            Node::Computation(c) => NestCost {
                description: c.name.clone(),
                seconds: c.flops() as f64 / self.machine.frequency_hz,
                flops: c.flops() as f64,
                dram_bytes: 0.0,
            },
        }
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
    fn estimate_nest(&self, program: &Program, nest: &Loop) -> NestCost {
        telemetry::counter("machine.cost.nests_priced", 1);
        let mut total = NestCost {
            description: iterator_list(nest),
            seconds: 0.0,
            flops: 0.0,
            dram_bytes: 0.0,
        };
        let mut stack = Vec::new();
        self.walk(program, nest, &mut stack, &mut total);
        // Nested library calls contribute through walk as well.
        total
    }

    fn walk<'a>(
        &self,
        program: &Program,
        l: &'a Loop,
        stack: &mut Vec<LoopInfo<'a>>,
        total: &mut NestCost,
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
                Node::Loop(inner) => self.walk(program, inner, stack, total),
                Node::Computation(c) => {
                    let (seconds, flops, dram_bytes) = self.computation_cost(program, c, stack);
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
    fn computation_cost(
        &self,
        program: &Program,
        comp: &Computation,
        stack: &[LoopInfo<'_>],
    ) -> (f64, f64, f64) {
        let strides = access_strides(program, comp, stack);
        let flops_per_execution = comp.flops() as f64;
        let total_iters: f64 = stack.iter().map(|s| s.trip).product::<f64>().max(1.0);
        let flops = flops_per_execution * total_iters;

        // ---- compute time ----------------------------------------------
        let innermost = stack.last();
        let mut flops_per_cycle = self.machine.scalar_flops_per_cycle;
        if let Some(inner) = innermost {
            if inner.vectorize && Self::vectorizable(&strides, stack.len()) {
                flops_per_cycle *=
                    self.machine.vector_width as f64 * self.machine.vector_efficiency;
            }
        }
        // Very large loop bodies (heavily unrolled physics code) suffer from
        // register pressure; model a mild penalty that fission removes.
        let body_size_penalty = 1.0 + (flops_per_execution / 64.0).min(1.0);
        let mut compute_seconds =
            flops * body_size_penalty / (self.machine.frequency_hz * flops_per_cycle);

        // ---- memory time -------------------------------------------------
        let (dram_bytes, l2_bytes) = self.memory_traffic(&strides, stack);

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
            if comp.reduction.is_some() {
                let mut influencing: Vec<Var> = stack
                    .iter()
                    .map(|s| s.iter.clone())
                    .filter(|iter| comp.target.indices.iter().any(|idx| idx.uses_var(iter)))
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

    /// A computation vectorizes well along the innermost of its `depth`
    /// loops when none of its accesses has a large stride along that loop
    /// (unit stride and loop-invariant accesses are fine).
    fn vectorizable(strides: &[f64], depth: usize) -> bool {
        strides
            .chunks_exact(depth)
            .all(|per_loop| per_loop[depth - 1] <= 1.0)
    }

    /// Estimated (DRAM bytes, L2 bytes) moved for all dynamic instances of a
    /// computation whose accesses have `coeffs` ([`access_strides`]), via a
    /// working-set analysis over its loop stack.
    fn memory_traffic(&self, coeffs: &[f64], stack: &[LoopInfo<'_>]) -> (f64, f64) {
        let elems_per_line = self.machine.elems_per_line(8) as f64;
        let depth = stack.len();
        let n_accesses = coeffs.len() / depth;

        // Per access: the absolute linearized stride along every stack loop
        // (`coeffs`), and the set of loops that vary the access. A loop
        // varies an access if its iterator appears in the subscripts, or
        // (transitively) if a varying loop's bounds depend on it — this
        // attributes tiled accesses to their tile loops, whose iterators only
        // appear in point-loop bounds. Both are `depth` entries per access,
        // one access after the other.
        let mut varying: Vec<bool> = Vec::with_capacity(n_accesses * depth);
        for access in 0..n_accesses {
            let per_loop = &coeffs[access * depth..(access + 1) * depth];
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

/// The absolute element stride of each of `comp`'s accesses (in
/// [`Computation::for_each_access`] order) along every loop of `stack`,
/// outermost first: `stack.len()` entries per access, one access after the
/// other. Deriving them is the expensive part of pricing a computation;
/// everything downstream is arithmetic over the loop stack. An access that
/// is non-affine or whose array is unknown has infinite strides.
fn access_strides(program: &Program, comp: &Computation, stack: &[LoopInfo<'_>]) -> Vec<f64> {
    let depth = stack.len();
    // Each access's coefficients are summed in `i64` here, then widened.
    const INLINE: usize = 8;
    let mut inline = [0i64; INLINE];
    let mut heap = Vec::new();
    let row = match inline.get_mut(..depth) {
        Some(slice) => slice,
        None => {
            heap.resize(depth, 0);
            heap.as_mut_slice()
        }
    };
    let mut strides = Vec::with_capacity(comp.access_count() * depth);
    comp.for_each_access(|access| {
        row.fill(0);
        if linear_coefficients(program, access.array_ref, stack, row) {
            strides.extend(row.iter().map(|c| c.unsigned_abs() as f64));
        } else {
            // Non-affine access: treat as touching a new line at every
            // level (worst case).
            strides.extend(std::iter::repeat_n(f64::INFINITY, depth));
        }
    });
    strides
}

/// Writes the coefficient of every `stack` loop's iterator in
/// `array_ref`'s linearized offset ([`ArrayRef::linear_offset`]) to `row`,
/// which starts zeroed, without building the offset: the fold's terms are
/// scattered straight into the loops they name, like the dependence
/// tester's rows. `false` where the offset is `None`: a subscript is not
/// affine, or the array is unknown or has another rank.
fn linear_coefficients(
    program: &Program,
    array_ref: &ArrayRef,
    stack: &[LoopInfo<'_>],
    row: &mut [i64],
) -> bool {
    let Ok(array) = program.array(&array_ref.array) else {
        return false;
    };
    if array.rank() != array_ref.rank() {
        return false;
    }
    let folded = array.with_strides(&program.params, |strides| {
        let mut fold = AffineFold::new(&program.params);
        let mut scatter = |v: Option<&Var>, c: i64| {
            for (info, coefficient) in stack.iter().zip(row.iter_mut()) {
                if v == Some(&info.iter) {
                    *coefficient += c;
                }
            }
        };
        array_ref
            .indices
            .iter()
            .zip(strides)
            .try_for_each(|(idx, &stride)| fold.add(idx, stride, &mut scatter))
    });
    match folded {
        None => false,
        Some(Some(())) => true,
        // What the fold declines, the reference decides.
        Some(None) => match array_ref.linear_offset(array, &program.params) {
            Some(offset) => {
                for (info, coefficient) in stack.iter().zip(row.iter_mut()) {
                    *coefficient = offset.coefficient(&info.iter);
                }
                true
            }
            None => false,
        },
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
        let model = CostModel::new(MachineConfig::xeon_e5_2680v3(), 12);
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
        // The problem size is an input too: the same order at a smaller `N`
        // prices lower.
        let small = model.estimate(&gemm("ikj", 256)).seconds;
        assert!(
            good > small,
            "N = 512 ({good}) must cost more than N = 256 ({small})"
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
}

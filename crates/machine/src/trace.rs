//! Streaming memory-access trace generation.
//!
//! Walks the iteration space of a program and feeds the exact sequence of
//! element accesses (without computing values) to an [`AccessSink`] — the
//! cache simulator for experiments such as the CLOUDSC Table 1 measurement.
//! Nothing is ever materialized: the trace is produced and consumed one
//! access (or one constant-stride *run*) at a time.
//!
//! The walk itself lives in the shared compiled execution engine
//! ([`crate::exec`]): the program is lowered once into affine offset/stride
//! plans and [`CompiledProgram::stream`] emits the trace straight from those
//! plans — every compiled innermost loop becomes one [`AccessSink::run_group`]
//! of lockstep [`StrideRun`] segments (one per array reference), without ever
//! expanding them into individual addresses. Sinks that want the per-access
//! stream get it from the default `run_group` expansion; [`CacheHierarchy`]
//! instead takes whole groups into the run-aware simulator
//! ([`CacheHierarchy::access_run_group`]), which processes a run in time
//! proportional to the distinct cache lines it touches.
//!
//! One oracle stands behind each layer: [`walk_accesses_symbolic`], the
//! symbolic walk shared with the reference interpreter, is the ground truth
//! of the stream, and the naive [`ReferenceCacheHierarchy`] — an
//! [`AccessSink`] that expands every run — that of the simulator
//! ([`simulate_cache_reference`], and the shard oracle
//! [`crate::shard::simulate_cache_sharded_reference`]).

use loop_ir::array::AccessKind;
use loop_ir::nest::Node;
use loop_ir::program::Program;

use crate::cache::reference::ReferenceCacheHierarchy;
use crate::cache::{AddressMap, CacheHierarchy, CacheStats};
use crate::config::MachineConfig;
use crate::error::{MachineError, Result};
use crate::exec::CompiledProgram;
use crate::interp::reference;

/// One entry of an access trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Byte address of the access.
    pub address: u64,
    /// Whether it is a write.
    pub is_write: bool,
}

/// One constant-stride access run of a compiled innermost loop: the `count`
/// addresses `base, base + stride, …` of a single array reference, emitted
/// straight from the compiled offset/stride plan without expansion.
///
/// Runs travel in *groups* (one group per innermost-loop execution) whose
/// members advance in lockstep: iteration `i` touches every run's
/// `base + i·stride`, in run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrideRun {
    /// Byte address of the first access.
    pub base: u64,
    /// Byte distance between consecutive accesses (zero and negative are
    /// valid: loop-invariant and reversal subscripts).
    pub stride: i64,
    /// Number of accesses in the run (the loop's trip count).
    pub count: u64,
    /// Slot of the accessed array in the compiled program's array table.
    pub array: u32,
    /// Whether every access of the run is a write.
    pub is_write: bool,
}

/// Consumer of a streamed access trace.
///
/// Implementors receive the trace in execution order, either access by
/// access or — for every compiled innermost loop — as lockstep run
/// groups. The default [`run_group`](AccessSink::run_group) expands a
/// group to individual accesses (a one-lane group through
/// [`run`](AccessSink::run)), so a sink only interested in single entries
/// implements [`access`](AccessSink::access) alone.
pub trait AccessSink {
    /// Consumes one access.
    fn access(&mut self, entry: TraceEntry);

    /// Consumes `count` accesses at `start, start + stride, …` (modulo
    /// 2^64).
    fn run(&mut self, start: u64, stride: i64, count: u64, is_write: bool) {
        let mut address = start;
        for _ in 0..count {
            self.access(TraceEntry { address, is_write });
            address = address.wrapping_add(stride as u64);
        }
    }

    /// Consumes a group of lockstep runs — the access plans of one compiled
    /// innermost loop execution: iteration `i` emits `runs[0].base +
    /// i·stride`, then `runs[1]`, … The default expands the group to
    /// individual accesses in exactly that interleaved order (a single-run
    /// group delegates to [`run`](AccessSink::run)), preserving the
    /// per-access trace for sinks that do not understand runs.
    fn run_group(&mut self, runs: &[StrideRun]) {
        match runs {
            [] => {}
            [r] => self.run(r.base, r.stride, r.count, r.is_write),
            _ => {
                let mut addresses: Vec<u64> = runs.iter().map(|r| r.base).collect();
                for _ in 0..runs[0].count {
                    for (address, r) in addresses.iter_mut().zip(runs) {
                        self.access(TraceEntry {
                            address: *address,
                            is_write: r.is_write,
                        });
                        *address = address.wrapping_add(r.stride as u64);
                    }
                }
            }
        }
    }
}

/// A closure is a per-access sink: the defaults expand every run for it.
impl<F: FnMut(TraceEntry)> AccessSink for F {
    fn access(&mut self, entry: TraceEntry) {
        self(entry);
    }
}

/// The production simulator takes whole run groups into its closed-form
/// fast path; the sharded driver feeds its replicas the same way, so
/// per-shard counters stay bit-compatible with [`simulate_cache`].
impl AccessSink for CacheHierarchy {
    fn access(&mut self, entry: TraceEntry) {
        CacheHierarchy::access(self, entry.address);
    }

    fn run_group(&mut self, runs: &[StrideRun]) {
        self.access_run_group(runs);
    }
}

/// The naive oracle takes everything one access at a time: the default
/// [`AccessSink::run`] and [`AccessSink::run_group`] expand every run in
/// stream order.
impl AccessSink for ReferenceCacheHierarchy {
    fn access(&mut self, entry: TraceEntry) {
        ReferenceCacheHierarchy::access(self, entry.address);
    }
}

/// Runs the whole access trace of a program through a two-level cache
/// simulator and returns the hierarchy with its counters. The trace is
/// streamed run-compressed: compiled innermost loops reach the simulator as
/// lockstep [`StrideRun`] groups and are processed in time proportional to
/// the distinct cache lines they touch — with counters bit-identical to
/// the naive oracle ([`simulate_cache_reference`]).
///
/// # Errors
/// Propagates trace-generation errors.
pub fn simulate_cache(program: &Program, machine: &MachineConfig) -> Result<CacheHierarchy> {
    let _span = telemetry::span("simulate_cache");
    let mut cache = CacheHierarchy::from_machine(machine);
    CompiledProgram::lower(program)?.stream(&mut cache)?;
    record_cache_counters(&cache);
    Ok(cache)
}

/// [`estimate_cache`]'s answer: the exact counters in the shape the
/// benchmark's `strided_trace` workload reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEstimate {
    /// Total access count.
    pub accesses: u64,
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Largest distance of either level's miss count from the exact one:
    /// always 0.
    pub error_bound: u64,
}

impl CacheEstimate {
    /// Whether exact per-level counters lie within
    /// [`error_bound`](CacheEstimate::error_bound) misses of these.
    pub fn brackets(&self, exact_l1: &CacheStats, exact_l2: &CacheStats) -> bool {
        exact_l1.misses.abs_diff(self.l1.misses) <= self.error_bound
            && exact_l2.misses.abs_diff(self.l2.misses) <= self.error_bound
    }
}

/// Runs [`simulate_cache`] and returns its counters with `error_bound` 0.
/// A shim kept only because the benchmark harness still calls it; it goes
/// when the harness stops (ROADMAP item 5(a)).
///
/// # Errors
/// Those of [`simulate_cache`].
pub fn estimate_cache(program: &Program, machine: &MachineConfig) -> Result<CacheEstimate> {
    let cache = simulate_cache(program, machine)?;
    Ok(CacheEstimate {
        accesses: cache.accesses(),
        l1: cache.l1(),
        l2: cache.l2(),
        error_bound: 0,
    })
}

/// Publishes the counters of one finished simulation. The per-level stats
/// are summed at this boundary rather than inside the access loops, so the
/// simulator's hot paths carry no per-access telemetry cost.
fn record_cache_counters(cache: &CacheHierarchy) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter("machine.cache.simulations", 1);
    telemetry::counter("machine.cache.accesses", cache.accesses());
    telemetry::counter("machine.cache.probes", cache.probes());
    let (l1, l2) = (cache.l1(), cache.l2());
    telemetry::counter("machine.cache.l1.hits", l1.hits);
    telemetry::counter("machine.cache.l1.misses", l1.misses);
    telemetry::counter("machine.cache.l1.evicts", l1.evicts);
    telemetry::counter("machine.cache.l2.hits", l2.hits);
    telemetry::counter("machine.cache.l2.misses", l2.misses);
    telemetry::counter("machine.cache.l2.evicts", l2.evicts);
}

/// Simulates the trace on the naive [`ReferenceCacheHierarchy`] through
/// the symbolic walk, [`walk_accesses_symbolic`]: the cache oracle the
/// differential suites and the benchmark's `strided_trace` output check
/// compare [`simulate_cache`] against.
///
/// # Errors
/// Propagates trace-generation errors.
pub fn simulate_cache_reference(
    program: &Program,
    machine: &MachineConfig,
) -> Result<ReferenceCacheHierarchy> {
    let mut cache = ReferenceCacheHierarchy::from_machine(machine);
    walk_accesses_symbolic(program, |entry| cache.access(entry.address))?;
    Ok(cache)
}

/// The symbolic trace walk: the shared reference walk
/// ([`crate::interp::reference`]) with every subscript evaluated per
/// access, no compilation, no runs. The ground truth of the compiled
/// stream's equivalence tests; returns the number of accesses.
///
/// # Errors
/// Those of the reference walk, plus unknown arrays and extents that
/// cannot be evaluated.
pub fn walk_accesses_symbolic(program: &Program, mut sink: impl FnMut(TraceEntry)) -> Result<u64> {
    let map = AddressMap::for_program(program);
    let mut count = 0u64;
    reference::walk(program, &mut |node, bindings| {
        // Library calls are opaque to the trace.
        let Node::Computation(c) = node else {
            return Ok(());
        };
        c.try_for_each_access(|access| {
            let name = &access.array_ref.array;
            let array = program
                .array(name)
                .map_err(|_| MachineError::UnknownArray(name.to_string()))?;
            let offset = array
                .with_strides(&program.params, |strides| {
                    reference::element_offset(access.array_ref, strides, None, bindings)
                })
                .ok_or_else(|| MachineError::UnboundSize(name.to_string()))??;
            let address = map
                .address(name.as_str(), offset, array.elem_size)
                .ok_or_else(|| MachineError::UnknownArray(name.to_string()))?;
            count += 1;
            sink(TraceEntry {
                address,
                is_write: access.kind == AccessKind::Write,
            });
            Ok(())
        })
    })?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;

    /// The compiled stream, expanded access by access.
    fn walk_accesses(program: &Program, mut sink: impl FnMut(TraceEntry)) -> Result<u64> {
        CompiledProgram::lower(program)?.stream(&mut sink)
    }

    #[test]
    fn trace_counts_match_iteration_space() {
        let p = parse_program(
            "program t { param N = 10; array A[N]; array B[N];
               for i in 0..N { B[i] = A[i] * 2.0; } }",
        )
        .unwrap();
        let mut writes = 0;
        let total = walk_accesses(&p, |e| {
            if e.is_write {
                writes += 1;
            }
        })
        .unwrap();
        assert_eq!(total, 20); // one read + one write per iteration
        assert_eq!(writes, 10);
    }

    #[test]
    fn reduction_target_counts_read_and_write() {
        let p = parse_program(
            "program r { param N = 4; array A[N]; array s[1];
               for i in 0..N { s[0] += A[i]; } }",
        )
        .unwrap();
        let total = walk_accesses(&p, |_| {}).unwrap();
        // per iteration: read A, read s (reduction), write s.
        assert_eq!(total, 12);
    }

    #[test]
    fn contiguous_vs_strided_cache_behaviour() {
        // Row-major traversal of a 64x64 matrix touches each line once;
        // column-major traversal of the same matrix misses on every access
        // once the working set exceeds the tiny L1.
        let row = parse_program(
            "program row { param N = 64; array A[N][N];
               for i in 0..N { for j in 0..N { A[i][j] = 1.0; } } }",
        )
        .unwrap();
        let col = parse_program(
            "program col { param N = 64; array A[N][N];
               for j in 0..N { for i in 0..N { A[i][j] = 1.0; } } }",
        )
        .unwrap();
        let machine = MachineConfig::tiny_for_tests();
        let row_cache = simulate_cache(&row, &machine).unwrap();
        let col_cache = simulate_cache(&col, &machine).unwrap();
        assert!(row_cache.l1().loads < col_cache.l1().loads);
        // Row-major: 64*64 doubles = 512 lines.
        assert_eq!(row_cache.l1().loads, 512);
        // Column-major with a 1 KiB L1: essentially every access misses.
        assert!(col_cache.l1().loads > 3000);
    }

    #[test]
    fn estimate_cache_is_the_exact_simulation() {
        let p = parse_program(
            "program st { param N = 96; array A[N][N]; array B[N];
               for j in 0..N step 3 { for i in 0..N { B[i] += A[i][j]; } } }",
        )
        .unwrap();
        let machine = MachineConfig::tiny_for_tests();
        let exact = simulate_cache(&p, &machine).unwrap();
        let estimate = estimate_cache(&p, &machine).unwrap();
        assert_eq!(estimate.accesses, exact.accesses());
        assert_eq!((estimate.l1, estimate.l2), (exact.l1(), exact.l2()));
        assert_eq!(estimate.error_bound, 0);
        assert!(estimate.brackets(&exact.l1(), &exact.l2()));
        assert!(exact.l1().misses > 0);
    }

    #[test]
    fn blas_calls_are_opaque() {
        use loop_ir::prelude::*;
        let call = BlasCall {
            kind: BlasKind::Gemm,
            output: Var::new("C"),
            inputs: vec![Var::new("A"), Var::new("B")],
            dims: vec![var("N"), var("N"), var("N")],
            alpha: fconst(1.0),
            beta: fconst(1.0),
        };
        let p = Program::builder("b")
            .param("N", 8)
            .array("A", &["N", "N"])
            .array("B", &["N", "N"])
            .array("C", &["N", "N"])
            .node(Node::Call(call))
            .build()
            .unwrap();
        assert_eq!(walk_accesses(&p, |_| {}).unwrap(), 0);
    }

    #[test]
    fn symbolic_upper_bounds_use_parameters() {
        let p = parse_program(
            "program s { param N = 6; array A[N][N];
               for i in 0..N { for j in 0..i { A[i][j] = 0.0; } } }",
        )
        .unwrap();
        let total = walk_accesses(&p, |_| {}).unwrap();
        // triangular: 0+1+...+5 = 15 writes.
        assert_eq!(total, 15);
    }

    /// The compiled streaming walker must emit exactly the trace of the
    /// symbolic walker — same addresses, same kinds, same order.
    fn assert_identical_traces(source: &str) {
        let p = parse_program(source).unwrap();
        let mut streamed = Vec::new();
        let n1 = walk_accesses(&p, |e| streamed.push(e)).unwrap();
        let mut symbolic = Vec::new();
        let n2 = walk_accesses_symbolic(&p, |e| symbolic.push(e)).unwrap();
        assert_eq!(n1, n2);
        assert_eq!(streamed, symbolic);
    }

    #[test]
    fn streaming_trace_matches_symbolic_trace() {
        // Perfect nest, multiple interleaved accesses.
        assert_identical_traces(
            "program gemm { param N = 12; array A[N][N]; array B[N][N]; array C[N][N];
               for i in 0..N { for j in 0..N { for k in 0..N {
                 C[i][j] += A[i][k] * B[k][j];
               } } } }",
        );
        // Imperfect nest with a computation between loops.
        assert_identical_traces(
            "program imp { param N = 9; array A[N][N]; array s[N];
               for i in 0..N {
                 s[i] = 0.0;
                 for j in 0..N { s[i] += A[i][j]; }
               } }",
        );
        // Strided loop with an offset subscript.
        assert_identical_traces(
            "program st { param N = 40; array A[N]; array B[N];
               for i in 0..N step 3 { B[i] = A[i] * 1.5; } }",
        );
        // Triangular bounds.
        assert_identical_traces(
            "program tri { param N = 15; array A[N][N];
               for i in 0..N { for j in 0..i { A[i][j] = 2.0; } } }",
        );
        // Non-affine subscript (modulo) forces the symbolic fallback.
        assert_identical_traces(
            "program na { param N = 16; array A[N];
               for i in 0..N { A[i % 4] = 1.0; } }",
        );
        // Single-access innermost loop: a one-run group.
        assert_identical_traces(
            "program run { param N = 200; array A[N];
               for i in 0..N { A[i] = 0.0; } }",
        );
        // Negative-stride access: the reversal subscript still compiles.
        assert_identical_traces(
            "program rev { param N = 32; array A[N]; array B[N];
               for i in 0..N { B[i] = A[N - 1 - i]; } }",
        );
        // Zero-trip loops emit nothing.
        assert_identical_traces(
            "program zt { param N = 0; array A[8];
               for i in 0..N { A[i] = 1.0; } }",
        );
    }

    #[test]
    fn streaming_cache_matches_reference_cache() {
        let machine = MachineConfig::tiny_for_tests();
        for source in [
            "program gemm { param N = 24; array A[N][N]; array B[N][N]; array C[N][N];
               for i in 0..N { for j in 0..N { for k in 0..N {
                 C[i][j] += A[i][k] * B[k][j];
               } } } }",
            "program col { param N = 48; array A[N][N];
               for j in 0..N { for i in 0..N { A[i][j] = 1.0; } } }",
            "program copy { param N = 3000; array A[N]; array B[N];
               for i in 0..N { B[i] = A[i]; } }",
        ] {
            let p = parse_program(source).unwrap();
            let fast = simulate_cache(&p, &machine).unwrap();
            let slow = simulate_cache_reference(&p, &machine).unwrap();
            assert_eq!(fast.accesses(), slow.accesses(), "{}", p.name);
            assert_eq!(fast.l1(), slow.l1(), "{} L1", p.name);
            assert_eq!(fast.l2(), slow.l2(), "{} L2", p.name);
        }
    }
}

//! A Polly-like polyhedral scheduler baseline.
//!
//! Polly (LLVM's polyhedral optimizer with the Pluto-style ILP scheduler)
//! tiles permutable loop bands, parallelizes the outermost parallel band
//! dimension and strip-mine-vectorizes the innermost one. Crucially for this
//! paper, its ILP objective (minimizing dependence distances) does not
//! minimize access strides, so the quality of its output depends on the loop
//! structure the program arrives with — the sensitivity that Figure 6's A/B
//! comparison exposes. This baseline therefore works on the program *as
//! written* (no a priori normalization): it keeps the loop order, tiles
//! rectangular bands, parallelizes the outermost dependence-free loop and
//! vectorizes the innermost contiguous loop.

use dependence::{analyze, is_parallel_loop, DependenceGraph};
use loop_ir::expr::Var;
use loop_ir::nest::{Loop, Node};
use loop_ir::program::Program;
use transforms::{mark_parallel, mark_vectorize, perfect_chain, tile_band};

/// The tile size Polly uses by default (first and second level tiling merged
/// into one square tile here).
const POLLY_TILE: i64 = 32;

/// Schedules a program the way `-O3 -polly -polly-parallel -polly-tiling
/// -polly-vectorizer=stripmine` would: per top-level nest, tile the
/// rectangular perfectly nested band, parallelize the outermost loop without
/// carried dependences, vectorize the innermost contiguous loop.
pub fn polly_schedule(program: &Program) -> Program {
    let graph = analyze(program);
    let mut out = program.clone();
    out.body = program
        .body
        .iter()
        .map(|node| match node {
            Node::Loop(nest) => Node::Loop(schedule_nest(program, &graph, nest)),
            other => other.clone(),
        })
        .collect();
    out
}

fn schedule_nest(program: &Program, graph: &DependenceGraph, nest: &Loop) -> Loop {
    let chain: Vec<Var> = perfect_chain(nest).map(|l| l.iter.clone()).collect();

    // 1. Tiling of the permutable band: only rectangular loops whose
    //    interchange with every other band member is legal are tiled (Polly
    //    tiles permutable bands only).
    let mut tiled = nest.clone();
    if chain.len() >= 2 {
        let band: Vec<(Var, i64)> = chain
            .iter()
            .filter(|iter| {
                // rectangular bound (no other chain iterator in the bounds)
                perfect_chain(nest)
                    .find(|l| &l.iter == *iter)
                    .map(|l| {
                        let mut rectangular = true;
                        for bound in [&l.lower, &l.upper] {
                            bound.for_each_var(&mut |v| rectangular &= !chain.contains(v));
                        }
                        rectangular
                    })
                    .unwrap_or(false)
            })
            .map(|iter| (iter.clone(), POLLY_TILE))
            .collect();
        if band.len() >= 2 {
            if let Ok(t) = tile_band(nest, &band) {
                tiled = t;
            }
        }
    }

    // 2. Parallelize the outermost loop that carries no dependence.
    let outer_candidates: Vec<Var> = perfect_chain(&tiled).map(|l| l.iter.clone()).collect();
    let mut scheduled = tiled;
    for iter in &outer_candidates {
        // Tile loops inherit the parallelism of their point loop.
        let point = Var::new(iter.as_str().strip_suffix("_t").unwrap_or(iter.as_str()));
        if is_parallel_loop(graph, &point) {
            mark_parallel(&mut scheduled, iter).expect("a chain loop of the nest it marks");
            break;
        }
    }

    // 3. Strip-mine vectorization of the innermost loop when contiguous.
    if let Some(innermost) = scheduled.nested_iterators().last().cloned() {
        let contiguous = nest.computations().iter().all(|c| {
            c.try_for_each_access(|access| {
                program
                    .array(&access.array_ref.array)
                    .ok()
                    .and_then(|a| access.array_ref.linear_offset(a, &program.params))
                    .is_some_and(|off| off.coefficient(&innermost).unsigned_abs() <= 1)
                    .then_some(())
                    .ok_or(())
            })
            .is_ok()
        });
        if contiguous {
            mark_vectorize(&mut scheduled, &innermost).expect("a loop of the nest it marks");
        }
    }
    scheduled
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;
    use machine::{CostModel, MachineConfig};

    fn gemm(order: &str, n: i64) -> Program {
        let l: Vec<char> = order.chars().collect();
        parse_program(&format!(
            "program gemm {{ param N = {n};
               array A[N][N]; array B[N][N]; array C[N][N];
               for {} in 0..N {{ for {} in 0..N {{ for {} in 0..N {{
                 C[i][j] += A[i][k] * B[k][j];
               }} }} }} }}",
            l[0], l[1], l[2]
        ))
        .unwrap()
    }

    #[test]
    fn polly_tiles_and_parallelizes_gemm() {
        let p = gemm("ijk", 512);
        let scheduled = polly_schedule(&p);
        let nest = scheduled.loop_nests()[0];
        // The band is tiled: 6 loops deep, tile loops outermost.
        assert_eq!(nest.nested_iterators().len(), 6);
        assert!(nest.iter.as_str().ends_with("_t"));
        // The outermost tile loop of a parallel dimension is parallelized.
        assert!(nest.schedule.parallel);
        assert!(scheduled.validate().is_ok());
    }

    #[test]
    fn polly_keeps_the_incoming_loop_order() {
        let good = polly_schedule(&gemm("ikj", 512));
        let bad = polly_schedule(&gemm("jki", 512));
        let order = |p: &Program| -> Vec<String> {
            p.loop_nests()[0]
                .nested_iterators()
                .iter()
                .map(|v| v.to_string())
                .collect()
        };
        assert_eq!(order(&good), vec!["i_t", "k_t", "j_t", "i", "k", "j"]);
        assert_eq!(order(&bad), vec!["j_t", "k_t", "i_t", "j", "k", "i"]);
        // ... and therefore its performance depends on the variant.
        let model = CostModel::new(MachineConfig::xeon_e5_2680v3(), 12);
        let t_good = model.estimate(&good).seconds;
        let t_bad = model.estimate(&bad).seconds;
        assert!(t_bad > t_good, "good {t_good}, bad {t_bad}");
    }

    #[test]
    fn polly_beats_plain_clang_on_gemm() {
        let p = gemm("ijk", 512);
        let model = CostModel::new(MachineConfig::xeon_e5_2680v3(), 12);
        let clang = model.estimate(&crate::compiler::clang_schedule(&p)).seconds;
        let polly = model.estimate(&polly_schedule(&p)).seconds;
        assert!(polly < clang);
    }

    #[test]
    fn triangular_nests_are_not_tiled_but_still_parallelized() {
        let p = parse_program(
            "program tri { param N = 256; array C[N][N];
               for i in 0..N { for j in 0..i + 1 { C[i][j] = 1.0; } } }",
        )
        .unwrap();
        let scheduled = polly_schedule(&p);
        let nest = scheduled.loop_nests()[0];
        assert_eq!(nest.nested_iterators().len(), 2);
        assert!(nest.schedule.parallel);
    }

    #[test]
    fn sequential_recurrences_stay_sequential() {
        let p = parse_program(
            "program rec { param N = 1000; array A[N];
               for i in 1..N { A[i] = A[i - 1] * 0.5; } }",
        )
        .unwrap();
        let scheduled = polly_schedule(&p);
        assert!(!scheduled.loop_nests()[0].schedule.parallel);
    }
}

//! The search against an independent oracle, on the paper's own inputs.
//!
//! For every top-level nest of the PolyBench A, B and Py variants at Mini and
//! of the CLOUDSC mini programs, each as written and normalized, and of the
//! normalized A and Py variants at Medium and Large,
//! [`EvolutionarySearch::search`]'s score must equal, bit for bit, the
//! cheapest recipe of the oracle's own enumeration. At Mini every tile size
//! ties with another one on every nest, so Mini alone cannot tell a space
//! that lost a tile size; the larger sizes can (16 is the only best size
//! of some Medium nests, 32 of some Large ones). The oracle shares no
//! code with the search's candidate pricing: it materializes every recipe
//! (`evaluate_recipe`) and prices the whole program, behind the same
//! semantic gate. Its space is wider
//! than the search's: it also unrolls the innermost loop, so a cost model
//! that starts to price unrolling fails here first.

use daisy::search::evaluate_recipe;
use daisy::{nest_scoped_graph, recipe_is_semantically_legal, EvolutionarySearch};
use loop_ir::expr::Var;
use loop_ir::nest::Node;
use loop_ir::program::Program;
use machine::{CostModel, MachineConfig};
use normalize::Normalizer;
use polybench::cloudsc::{erosion_original, full_model, CloudscSizes, CloudscVariant};
use polybench::{all_benchmarks, Dataset};
use transforms::{perfect_chain, Recipe, Transform};

/// Every combination of the axes a schedule can take on a chain: no tiling
/// or one square tile size over the whole chain (chains of two or more
/// loops), the outermost loop (its tile loop when tiled) parallel or not,
/// the innermost loop vectorized or not, and no unrolling or one of three
/// unroll factors on the innermost loop — 80 recipes for a chain of two or
/// more loops.
fn every_recipe(chain: &[Var]) -> Vec<Recipe> {
    let (outer, inner) = (&chain[0], &chain[chain.len() - 1]);
    let mut tiles = vec![None];
    if chain.len() >= 2 {
        tiles.extend([16, 32, 64, 128].map(Some));
    }
    let mut recipes = Vec::new();
    for tile in tiles {
        for parallel in [false, true] {
            for vectorize in [false, true] {
                for unroll in [None, Some(2), Some(4), Some(8)] {
                    let mut steps = Vec::new();
                    if let Some(size) = tile {
                        let tiles = chain.iter().map(|v| (v.clone(), size)).collect();
                        steps.push(Transform::Tile { tiles });
                    }
                    if parallel {
                        let iter = match tile {
                            Some(_) => Var::new(format!("{outer}_t")),
                            None => outer.clone(),
                        };
                        steps.push(Transform::Parallelize { iter });
                    }
                    if vectorize {
                        let iter = inner.clone();
                        steps.push(Transform::Vectorize { iter });
                    }
                    if let Some(factor) = unroll {
                        let iter = inner.clone();
                        steps.push(Transform::Unroll { iter, factor });
                    }
                    recipes.push(Recipe::new(steps));
                }
            }
        }
    }
    recipes
}

/// The cheapest whole-program seconds over [`every_recipe`] of nest `index`.
fn oracle_minimum(program: &Program, index: usize, reference: &CostModel) -> f64 {
    let Node::Loop(nest) = &program.body[index] else {
        unreachable!("oracle asked about a non-loop node");
    };
    let graph = nest_scoped_graph(program, nest);
    let chain: Vec<Var> = perfect_chain(nest).map(|l| l.iter.clone()).collect();
    every_recipe(&chain)
        .iter()
        .filter(|recipe| recipe_is_semantically_legal(&graph, nest, recipe))
        .filter_map(|recipe| evaluate_recipe(program, index, recipe, reference))
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn the_search_finds_the_minimum_of_every_recipe_on_the_papers_inputs() {
    let mut programs: Vec<Program> = Vec::new();
    for bench in all_benchmarks() {
        programs.push((bench.a)(Dataset::Mini));
        programs.push((bench.b)(Dataset::Mini));
        programs.push((bench.py)(Dataset::Mini).0);
    }
    let sizes = CloudscSizes::mini();
    for variant in [
        CloudscVariant::Fortran,
        CloudscVariant::C,
        CloudscVariant::Dace,
    ] {
        programs.push(full_model(variant, sizes));
    }
    programs.push(erosion_original(sizes));
    let mut to_normalize = programs.clone();
    for dataset in [Dataset::Medium, Dataset::Large] {
        for bench in all_benchmarks() {
            to_normalize.extend([(bench.a)(dataset), (bench.py)(dataset).0]);
        }
    }
    programs.extend(
        to_normalize
            .iter()
            .map(|p| Normalizer::new().run(p).expect("normalizes").program),
    );

    let machine = MachineConfig::xeon_e5_2680v3();
    let model = CostModel::new(machine.clone(), 12);
    let reference = CostModel::new(machine, 12);
    let search = EvolutionarySearch::default();
    let mut nests = 0;
    for program in &programs {
        for (index, node) in program.body.iter().enumerate() {
            if !matches!(node, Node::Loop(_)) {
                continue;
            }
            let (best, score) = search.search(program, index, &model, &[]);
            let minimum = oracle_minimum(program, index, &reference);
            assert_eq!(
                score.to_bits(),
                minimum.to_bits(),
                "{} nest {index}: the search's `{best}` scores {score}, the oracle's minimum is {minimum}",
                program.name
            );
            nests += 1;
        }
    }
    assert!(nests > 500, "{nests} nests");
}

//! The production dependence analysis against its naive reference on random
//! affine access pairs.
//!
//! `dependence::analyze` refines direction vectors level by level, pruning
//! below a refuted relaxed prefix, and tests on dense integer rows;
//! `dependence::reference` materialises all `3ⁿ` vectors and tests each on a
//! freshly built symbolic system. The generator aims at what the relaxation
//! argument rests on: 1–5 common loops, loops of one name with different
//! bounds on the two sides, zero and negative coefficients, and extents of
//! zero and one (where `<`/`>` are impossible but `=` is not).
//!
//! Both testers are also held to symmetry: exchanging source and
//! destination and reversing the vector keeps the answer. The committed
//! seeds in `proptest-regressions/` each break it for a tester that bounds
//! the source iteration only.

use std::collections::BTreeMap;

use dependence::tester::{AccessContext, LoopBound};
use dependence::{reference, Direction};
use loop_ir::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const ITERATORS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// `lower`, `upper` of one loop; extents of 0 and 1 are as likely as larger.
fn bounds(rng: &mut StdRng) -> (i64, i64) {
    let lower = rng.gen_range(-3..4);
    let extent = *[0, 1, 1, 2, 3, 4, 6].choose(rng).unwrap();
    (lower, lower + extent)
}

/// One subscript over `iters`: small coefficients, many of them zero or
/// negative; now and then a parameter-scaled iterator, a symbol nothing
/// binds, or a product of two iterators (not affine).
fn subscript(rng: &mut StdRng, iters: &[&str]) -> Expr {
    let mut e = cst(rng.gen_range(-4..5));
    for &iter in iters {
        let c = *[0, 0, 1, 1, -1, 2, -2, 3].choose(rng).unwrap();
        if c != 0 {
            e = e + var(iter) * cst(c);
        }
    }
    match rng.gen_range(0..12) {
        0 => e + var(iters[0]) * var("N"),
        1 => e + var("unbound"),
        2 => e + var(iters[0]) * var(iters[iters.len() - 1]),
        3 => e + var("N"),
        _ => e,
    }
}

fn subscripts(rng: &mut StdRng, rank: usize, iters: &[&str]) -> Vec<Expr> {
    (0..rank).map(|_| subscript(rng, iters)).collect()
}

/// `statement` wrapped in one loop per `(iterator, bounds)`, outermost first.
fn nest(loops: &[(&str, (i64, i64))], body: Vec<Node>) -> Node {
    let mut nodes = body;
    for &(iter, (lower, upper)) in loops.iter().rev() {
        nodes = vec![for_loop(iter, cst(lower), cst(upper), nodes)];
    }
    nodes.pop().expect("at least one loop")
}

/// Two statements over `X` sharing 1–5 loop names: in one nest, or in two
/// nests whose same-named loops have bounds of their own and which may each
/// have one more loop the other lacks.
fn program(seed: u64) -> Program {
    let rng = &mut StdRng::seed_from_u64(seed);
    let common = &ITERATORS[..rng.gen_range(1..6)];
    let rank = rng.gen_range(1..3);
    let statement = |rng: &mut StdRng, name: &str, iters: &[&str]| {
        let target = ArrayRef::new("X", subscripts(rng, rank, iters));
        let value = load("X", subscripts(rng, rank, iters)) + load("Y", vec![var(iters[0])]);
        Node::Computation(if rng.gen_bool(0.3) {
            Computation::reduction(name, target, BinOp::Add, value)
        } else {
            Computation::assign(name, target, value)
        })
    };
    let builder = Program::builder("pair")
        .param("N", 3)
        .array_with_dims("X", vec![cst(64); rank])
        .array_with_dims("Y", vec![cst(64)]);
    let body = if rng.gen_bool(0.4) {
        let loops: Vec<_> = common.iter().map(|&iter| (iter, bounds(rng))).collect();
        let (s0, s1) = (statement(rng, "S0", common), statement(rng, "S1", common));
        vec![nest(&loops, vec![s0, s1])]
    } else {
        ["p", "q"]
            .iter()
            .enumerate()
            .map(|(k, &private)| {
                let mut iters = common.to_vec();
                if rng.gen_bool(0.4) {
                    iters.insert(rng.gen_range(0..iters.len() + 1), private);
                }
                let loops: Vec<_> = iters.iter().map(|&iter| (iter, bounds(rng))).collect();
                let s = statement(rng, &format!("S{k}"), &iters);
                nest(&loops, vec![s])
            })
            .collect()
    };
    builder.nodes(body).build_unchecked()
}

/// Two accesses to `X`, each inside the loops of `common` (bounds of their
/// own on each side) and maybe one private loop.
struct AccessPair {
    common: Vec<Var>,
    src: (ArrayRef, Vec<LoopBound>),
    dst: (ArrayRef, Vec<LoopBound>),
}

impl AccessPair {
    fn new(rng: &mut StdRng) -> Self {
        let common = &ITERATORS[..rng.gen_range(1..6)];
        let rank = rng.gen_range(1..3);
        let side = |rng: &mut StdRng, private: &'static str| {
            let mut iters = common.to_vec();
            if rng.gen_bool(0.4) {
                iters.insert(rng.gen_range(0..iters.len() + 1), private);
            }
            let loops: Vec<LoopBound> = iters
                .iter()
                .map(|&iter| {
                    let (lower, upper) = bounds(rng);
                    LoopBound::new(iter, lower, upper)
                })
                .collect();
            (ArrayRef::new("X", subscripts(rng, rank, &iters)), loops)
        };
        let (src, dst) = (side(rng, "p"), side(rng, "q"));
        AccessPair {
            common: common.iter().map(|&iter| Var::new(iter)).collect(),
            src,
            dst,
        }
    }

    /// `tester`'s answer for the source and destination under `directions`,
    /// or, `exchanged`, for the destination and source under the reversed
    /// vector.
    fn test(&self, tester: Tester, directions: &[Direction], exchanged: bool) -> bool {
        let (src, dst) = (context(&self.src), context(&self.dst));
        let params = BTreeMap::from([(Var::new("N"), 3)]);
        if exchanged {
            let reversed: Vec<Direction> = directions.iter().map(|&d| reverse(d)).collect();
            tester(&dst, &src, &self.common, &reversed, &params)
        } else {
            tester(&src, &dst, &self.common, directions, &params)
        }
    }

    /// One direction per common loop, `*` included.
    fn directions(&self, rng: &mut StdRng) -> Vec<Direction> {
        self.common
            .iter()
            .map(|_| {
                *[Direction::Eq, Direction::Lt, Direction::Gt, Direction::Any]
                    .choose(rng)
                    .unwrap()
            })
            .collect()
    }
}

fn context((array_ref, loops): &(ArrayRef, Vec<LoopBound>)) -> AccessContext<'_> {
    AccessContext { array_ref, loops }
}

type Tester =
    fn(&AccessContext<'_>, &AccessContext<'_>, &[Var], &[Direction], &BTreeMap<Var, i64>) -> bool;

const TESTERS: [(&str, Tester); 2] = [
    ("production", dependence::tester::may_depend),
    ("reference", reference::may_depend),
];

fn reverse(direction: Direction) -> Direction {
    match direction {
        Direction::Lt => Direction::Gt,
        Direction::Gt => Direction::Lt,
        same => same,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn the_pruned_walk_emits_what_flat_enumeration_emits(seed in 0..u64::MAX) {
        let program = program(seed);
        let (production, naive) = (dependence::analyze(&program), reference::analyze(&program));
        prop_assert_eq!(
            production.all(),
            naive.all(),
            "{}",
            loop_ir::printer::print_program(&program)
        );
    }

    #[test]
    fn one_vector_tests_as_in_the_reference_whatever_its_directions(seed in 0..u64::MAX) {
        // `*` never comes out of `analyze`; `may_depend` still accepts it.
        let rng = &mut StdRng::seed_from_u64(seed);
        let pair = AccessPair::new(rng);
        for _ in 0..16 {
            let directions = pair.directions(rng);
            prop_assert_eq!(
                pair.test(TESTERS[0].1, &directions, false),
                pair.test(TESTERS[1].1, &directions, false),
                "{:?} -> {:?} under {:?}",
                pair.src, pair.dst, directions
            );
        }
    }

    #[test]
    fn exchanging_the_accesses_and_reversing_the_vector_keeps_the_answer(seed in 0..u64::MAX) {
        // Both iterations stay inside their own loop's bounds, so the test of
        // a mirrored question must give the same answer — in production and
        // in the reference alike. The generator mixes coefficient signs
        // (`5 − i` against `i`), gives each side its own bounds (zero and
        // one trip included) and now and then a free symbol.
        let rng = &mut StdRng::seed_from_u64(seed);
        let pair = AccessPair::new(rng);
        for _ in 0..16 {
            let directions = pair.directions(rng);
            for (name, tester) in TESTERS {
                prop_assert_eq!(
                    pair.test(tester, &directions, false),
                    pair.test(tester, &directions, true),
                    "{}: {:?} -> {:?} under {:?}",
                    name, pair.src, pair.dst, directions
                );
            }
        }
    }
}

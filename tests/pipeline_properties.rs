//! Property-based tests (proptest) on the core invariants of the pipeline:
//! normalization is semantics-preserving and idempotent on randomly generated
//! affine programs, and legal random permutations never change results.

use loop_ir::prelude::*;
use machine::{CompiledProgram, ProgramData};
use normalize::Normalizer;
use proptest::prelude::*;

/// Builds a random two-statement, two-deep loop-nest program from a small
/// parameter space: statement order, loop order, access transposition and
/// operation choice.
fn arbitrary_program() -> impl Strategy<Value = Program> {
    (
        0..2usize,       // loop order: (i,j) or (j,i)
        prop::bool::ANY, // transpose the second statement's accesses
        prop::bool::ANY, // second statement reads the first statement's output
        2..6i64,         // extent N
        3..7i64,         // extent M
    )
        .prop_map(|(order, transpose, chained, n, m)| {
            let s1 = Computation::assign(
                "S1",
                ArrayRef::new("B", vec![var("i"), var("j")]),
                load("A", vec![var("i"), var("j")]) * fconst(2.0) + fconst(1.0),
            );
            let second_input = if chained { "B" } else { "C" };
            // The target (and the independent input C) may be transposed; the
            // chained input B keeps its layout so subscripts stay in bounds.
            let t_idx = if transpose {
                vec![var("j"), var("i")]
            } else {
                vec![var("i"), var("j")]
            };
            let s_idx = if chained || !transpose {
                vec![var("i"), var("j")]
            } else {
                vec![var("j"), var("i")]
            };
            let s2 = Computation::assign(
                "S2",
                ArrayRef::new("D", t_idx),
                load(second_input, s_idx) + fconst(3.0),
            );
            let body = vec![Node::Computation(s1), Node::Computation(s2)];
            let nest = if order == 0 {
                for_loop(
                    "i",
                    cst(0),
                    var("N"),
                    vec![for_loop("j", cst(0), var("M"), body)],
                )
            } else {
                for_loop(
                    "j",
                    cst(0),
                    var("M"),
                    vec![for_loop("i", cst(0), var("N"), body)],
                )
            };
            Program::builder("random")
                .param("N", n)
                .param("M", m)
                .array("A", &["N", "M"])
                .array("B", &["N", "M"])
                .array_with_dims(
                    "C",
                    if transpose && !chained {
                        vec![var("M"), var("N")]
                    } else {
                        vec![var("N"), var("M")]
                    },
                )
                .array_with_dims(
                    "D",
                    if transpose {
                        vec![var("M"), var("N")]
                    } else {
                        vec![var("N"), var("M")]
                    },
                )
                .node(nest)
                .build()
                .expect("generated program is well-formed")
        })
}

fn outputs_of(program: &Program) -> ProgramData {
    let mut data = ProgramData::seeded(program).expect("storage allocates");
    CompiledProgram::lower(program)
        .and_then(|compiled| compiled.execute(&mut data))
        .expect("program executes");
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn normalization_preserves_semantics(program in arbitrary_program()) {
        let normalized = Normalizer::new().run(&program).unwrap();
        prop_assert!(normalized.program.validate().is_ok());
        let before = outputs_of(&program);
        let after = outputs_of(&normalized.program);
        for array in ["B", "D"] {
            let diff = before.max_abs_diff(&after, array).unwrap();
            prop_assert!(diff < 1e-12, "array {array} differs by {diff}");
        }
    }

    #[test]
    fn normalization_is_idempotent(program in arbitrary_program()) {
        let once = Normalizer::new().run(&program).unwrap().program;
        let twice = Normalizer::new().run(&once).unwrap().program;
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn structural_variants_normalize_to_equal_nest_count(program in arbitrary_program()) {
        // Any random legal variant of the program must land on a canonical
        // form with the same number of atomic loop nests.
        let normalized = Normalizer::new().run(&program).unwrap().program;
        let variant = polybench::random_b_variant(&program, 11);
        let normalized_variant = Normalizer::new().run(&variant).unwrap().program;
        prop_assert_eq!(
            normalized.loop_nests().len(),
            normalized_variant.loop_nests().len()
        );
    }

    #[test]
    fn cost_model_is_positive_and_finite(program in arbitrary_program()) {
        let report = machine::CostModel::sequential().estimate(&program);
        prop_assert!(report.seconds.is_finite());
        prop_assert!(report.seconds >= 0.0);
        prop_assert!(report.dram_bytes >= 0.0);
    }
}

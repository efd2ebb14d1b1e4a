//! Demonstrates the two normalization criteria on the paper's Figure 3
//! example: two independent computations with contiguous and strided accesses
//! fused into one loop nest are fissioned and stride-minimized, and the
//! reference interpreter confirms that the semantics are unchanged.
//!
//! Run with `cargo run --example normalize_gemm`.

use loop_ir::parser::parse_program;
use loop_ir::printer::print_program;
use machine::interp::run_seeded;
use normalize::{MaximalFission, Normalizer, StrideMinimization};

fn main() {
    let source = "
        program figure3 {
          param N = 64; param M = 96;
          array A[N][M]; array B[N][M];
          array C[M][N]; array D[M][N];
          for i in 0..N {
            for j in 0..M {
              B[i][j] = A[i][j] * 2.0;
              D[j][i] = C[j][i] + 1.0;
            }
          }
        }";
    let program = parse_program(source).expect("parses");
    println!("--- original (Figure 3a) ---\n{}", print_program(&program));

    let (fissioned, fission_stats) = MaximalFission::new().run(program.clone());
    println!(
        "--- after maximal loop fission (Figure 3b), {} loop(s) split ---\n{}",
        fission_stats.loops_split,
        print_program(&fissioned)
    );

    let (permuted, permute_stats) = StrideMinimization::new().run(fissioned);
    println!(
        "--- after stride minimization (Figure 3c), {} nest(s) permuted ---\n{}",
        permute_stats.nests_permuted,
        print_program(&permuted)
    );

    // The full pipeline in one call, plus a semantics check.
    let normalized = Normalizer::new().run(&program).expect("normalizes");
    let before = run_seeded(&program).expect("original runs");
    let after = run_seeded(&normalized.program).expect("normalized runs");
    for array in ["B", "D"] {
        let diff = before.max_abs_diff(&after, array).expect("same shapes");
        println!("max |Δ{array}| between original and normalized: {diff:e}");
    }
}

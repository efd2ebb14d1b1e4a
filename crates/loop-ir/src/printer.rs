//! The one printer: [`Program`]'s `Display`, which writes the frontend
//! grammar of [`crate::parser`]. [`crate::source::to_source`] is a check in
//! front of it.

use std::fmt;

use crate::nest::Node;
use crate::program::Program;
use crate::scalar::Literal;

impl fmt::Display for Program {
    /// Writes the program in the frontend grammar of [`crate::parser`]: a
    /// `program name { … }` definition, two spaces of indentation per
    /// level. A program [`crate::source::to_source`] accepts reparses from
    /// this text to an equal program (statement names aside). Constructs
    /// the grammar lacks still print readably, in a form the parser
    /// rejects: `unroll(k)` in a `#pragma`, `min`/`max` in an index, a
    /// select as `(a < b ? c : d)`, a library call as `dgemm(C, A, B);`, a
    /// `min=`/`max=`/`pow=` reduction, and `NaN`/`inf` constants.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} {{", self.name)?;
        for (name, value) in &self.params {
            writeln!(f, "  param {name} = {value};")?;
        }
        for (name, &value) in &self.scalar_params {
            // A declaration reads a signed number, not an expression.
            if value < 0.0 {
                writeln!(f, "  scalar {name} = -{};", Literal(-value))?;
            } else {
                writeln!(f, "  scalar {name} = {};", Literal(value))?;
            }
        }
        for array in self.arrays.values() {
            writeln!(f, "  array {array};")?;
        }
        for node in &self.body {
            write_node(f, node, 1)?;
        }
        f.write_str("}\n")
    }
}

/// Writes `node` as statements of the frontend grammar, `depth` levels
/// deep.
fn write_node(f: &mut fmt::Formatter<'_>, node: &Node, depth: usize) -> fmt::Result {
    let pad = depth * 2;
    match node {
        Node::Loop(l) => {
            let s = &l.schedule;
            if s.parallel || s.vectorize || s.unroll > 1 {
                write!(f, "{:pad$}#pragma", "")?;
                if s.parallel {
                    f.write_str(" parallel")?;
                }
                if s.vectorize {
                    f.write_str(" simd")?;
                }
                if s.unroll > 1 {
                    write!(f, " unroll({})", s.unroll)?;
                }
                f.write_str("\n")?;
            }
            write!(f, "{:pad$}for {} in {}..{}", "", l.iter, l.lower, l.upper)?;
            if l.step != 1 {
                write!(f, " step {}", l.step)?;
            }
            f.write_str(" {\n")?;
            for n in &l.body {
                write_node(f, n, depth + 1)?;
            }
            writeln!(f, "{:pad$}}}", "")
        }
        Node::Computation(c) => writeln!(f, "{:pad$}{c};", ""),
        Node::Call(call) => writeln!(f, "{:pad$}{call};", ""),
    }
}

#[cfg(test)]
mod tests {
    use crate::expr::{cst, var};
    use crate::nest::{for_loop, Computation, LoopSchedule};
    use crate::prelude::*;

    fn sample() -> Program {
        let s1 = Computation::reduction(
            "S1",
            ArrayRef::new("C", vec![var("i"), var("j")]),
            BinOp::Add,
            load("A", vec![var("i"), var("k")]) * load("B", vec![var("k"), var("j")]),
        );
        Program::builder("gemm")
            .param("NI", 4)
            .param("NJ", 4)
            .param("NK", 4)
            .array("A", &["NI", "NK"])
            .array("B", &["NK", "NJ"])
            .array("C", &["NI", "NJ"])
            .node(for_loop(
                "i",
                cst(0),
                var("NI"),
                vec![for_loop(
                    "j",
                    cst(0),
                    var("NJ"),
                    vec![for_loop(
                        "k",
                        cst(0),
                        var("NK"),
                        vec![Node::Computation(s1)],
                    )],
                )],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn program_printer_includes_declarations() {
        let text = sample().to_string();
        assert!(text.starts_with("program gemm {\n"));
        assert!(text.contains("\n  param NI = 4;\n"));
        assert!(text.contains("\n  array A[NI][NK];\n"));
        assert!(text.contains("for i in 0..NI {"));
        assert!(text.contains("C[i][j] += (A[i][k] * B[k][j]);"));
    }

    #[test]
    fn indentation_follows_nesting() {
        let text = sample().to_string();
        assert!(text.contains("\n      for k in 0..NK {\n"));
        assert!(text.contains("\n        C[i][j]"));
        assert!(text.ends_with("\n      }\n    }\n  }\n}\n"));
    }

    #[test]
    fn schedule_annotations_are_printed() {
        let mut p = sample();
        if let Node::Loop(l) = &mut p.body[0] {
            l.schedule = LoopSchedule::parallel();
            if let Node::Loop(inner) = &mut l.body[0] {
                inner.schedule.vectorize = true;
                inner.schedule.unroll = 4;
            }
        }
        let text = p.to_string();
        assert!(text.contains("\n  #pragma parallel\n  for i in 0..NI {"));
        assert!(text.contains("\n    #pragma simd unroll(4)\n    for j in 0..NJ {"));
    }

    #[test]
    fn strided_loop_prints_step() {
        let mut p = sample();
        if let Node::Loop(l) = &mut p.body[0] {
            l.step = 32;
        }
        let text = p.to_string();
        assert!(text.contains("\n  for i in 0..NI step 32 {\n"));
        assert!(text.contains("\n    for j in 0..NJ {\n"));
    }

    #[test]
    fn display_writes_the_frontend_grammar_and_the_rest_readably() {
        let update = Computation::reduction(
            "S1",
            ArrayRef::new("C", vec![var("i"), var("j")]),
            BinOp::Add,
            load("A", vec![var("i"), var("k")]) * load("B", vec![var("k"), var("j")]),
        );
        let clamp = Computation::assign(
            "S2",
            ArrayRef::new("C", vec![var("i"), cst(0)]),
            ScalarExpr::select(
                ScalarExpr::Index(var("i")),
                CmpOp::Lt,
                fconst(-0.5),
                param("alpha"),
                fconst(3.0),
            ),
        );
        let mut inner = for_loop("k", cst(0), var("N"), vec![Node::Computation(update)]);
        if let Node::Loop(l) = &mut inner {
            l.step = 32;
            l.schedule.vectorize = true;
            l.schedule.unroll = 4;
        }
        let mut nest = for_loop(
            "i",
            cst(0),
            var("N"),
            vec![
                for_loop("j", cst(1), var("N") - cst(1), vec![inner]),
                Node::Computation(clamp),
            ],
        );
        if let Node::Loop(l) = &mut nest {
            l.schedule.parallel = true;
        }
        let call = BlasCall {
            kind: BlasKind::Gemm,
            output: Var::new("C"),
            inputs: vec![Var::new("A"), Var::new("B")],
            dims: vec![var("N"), var("N"), var("N")],
            alpha: fconst(1.0),
            beta: fconst(1.0),
        };
        let p = Program::builder("gemm")
            .param("N", 4)
            .scalar("alpha", 2.0)
            .array("A", &["N", "N"])
            .array("B", &["N", "N"])
            .array("C", &["N", "N"])
            .node(nest)
            .node(Node::Call(call))
            .build()
            .unwrap();
        assert_eq!(
            p.to_string(),
            "program gemm {
  param N = 4;
  scalar alpha = 2.0;
  array A[N][N];
  array B[N][N];
  array C[N][N];
  #pragma parallel
  for i in 0..N {
    for j in 1..(N - 1) {
      #pragma simd unroll(4)
      for k in 0..N step 32 {
        C[i][j] += (A[i][k] * B[k][j]);
      }
    }
    C[i][0] = (index(i) < (0.0 - 0.5) ? alpha : 3.0);
  }
  dgemm(C, A, B);
}
"
        );
    }
}

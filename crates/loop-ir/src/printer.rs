//! A C-like pretty printer for programs and loop nests.
//!
//! The output mirrors the pseudocode style the paper uses in its figures. It
//! does not round-trip: `for (i = 0; …)` headers and `#pragma` lines are not
//! part of the frontend grammar. [`crate::source::to_source`] emits text
//! that [`crate::parser`] accepts.

use std::fmt::Write as _;

use crate::nest::{Loop, Node};
use crate::program::Program;

/// Pretty-prints a whole program, including its declarations.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {} {{", program.name);
    for (name, value) in &program.params {
        let _ = writeln!(out, "  param {name} = {value};");
    }
    for (name, value) in &program.scalar_params {
        let _ = writeln!(out, "  scalar {name} = {value};");
    }
    for array in program.arrays.values() {
        let mut dims = String::new();
        for d in &array.dims {
            let _ = write!(dims, "[{d}]");
        }
        let _ = writeln!(out, "  array {}{};", array.name, dims);
    }
    for node in &program.body {
        print_node(node, 1, &mut out);
    }
    out.push_str("}\n");
    out
}

/// Pretty-prints a sequence of nodes (without program declarations).
pub fn print_nodes(nodes: &[Node]) -> String {
    let mut out = String::new();
    for node in nodes {
        print_node(node, 0, &mut out);
    }
    out
}

/// Pretty-prints a single loop nest.
pub fn print_loop(l: &Loop) -> String {
    let mut out = String::new();
    print_node(&Node::Loop(l.clone()), 0, &mut out);
    out
}

fn print_node(node: &Node, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match node {
        Node::Loop(l) => {
            let mut annotations = Vec::new();
            if l.schedule.parallel {
                annotations.push("parallel".to_string());
            }
            if l.schedule.vectorize {
                annotations.push("simd".to_string());
            }
            if l.schedule.unroll > 1 {
                annotations.push(format!("unroll({})", l.schedule.unroll));
            }
            if !annotations.is_empty() {
                let _ = writeln!(out, "{pad}#pragma {}", annotations.join(" "));
            }
            let step = if l.step == 1 {
                format!("{} += 1", l.iter)
            } else {
                format!("{} += {}", l.iter, l.step)
            };
            let _ = writeln!(
                out,
                "{pad}for ({iter} = {lo}; {iter} < {hi}; {step}) {{",
                iter = l.iter,
                lo = l.lower,
                hi = l.upper,
            );
            for n in &l.body {
                print_node(n, indent + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Node::Computation(c) => {
            let _ = writeln!(out, "{pad}{c};  // {}", c.name);
        }
        Node::Call(call) => {
            let _ = writeln!(out, "{pad}{call};");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let text = print_program(&sample());
        assert!(text.contains("program gemm {"));
        assert!(text.contains("param NI = 4;"));
        assert!(text.contains("array A[NI][NK];"));
        assert!(text.contains("for (i = 0; i < NI; i += 1) {"));
        assert!(text.contains("C[i][j] += (A[i][k] * B[k][j]);"));
    }

    #[test]
    fn indentation_follows_nesting() {
        let text = print_program(&sample());
        assert!(text.contains("\n      for (k = 0"));
        assert!(text.contains("\n        C[i][j]"));
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
        let text = print_program(&p);
        assert!(text.contains("#pragma parallel"));
        assert!(text.contains("#pragma simd unroll(4)"));
    }

    #[test]
    fn node_printer_without_program() {
        let p = sample();
        let text = print_nodes(&p.body);
        assert!(text.starts_with("for (i = 0"));
        let l = p.loop_nests()[0];
        assert_eq!(print_loop(l), text);
    }

    #[test]
    fn strided_loop_prints_step() {
        let l = Loop {
            step: 32,
            ..match for_loop("i", cst(0), cst(128), vec![]) {
                Node::Loop(l) => l,
                _ => unreachable!(),
            }
        };
        assert!(print_loop(&l).contains("i += 32"));
    }
}

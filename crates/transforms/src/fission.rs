//! Loop distribution (fission): splitting the body of a loop into separate
//! loops over the same iteration domain.
//!
//! This is the primitive behind the paper's *maximal loop fission*
//! normalization criterion (§2.1): computations without mutual dependences
//! are divided across copies of the enclosing loop nest.

use loop_ir::nest::{Loop, Node};

use crate::error::{Result, TransformError};

/// Distributes the body of `nest` into one loop per group.
///
/// `groups` lists, for every new loop, the indices of the body nodes it
/// receives (in their original relative order). The nodes are *moved* into
/// the new loops, so groups must cover disjoint indices; indices not
/// mentioned in any group are dropped, which callers should avoid —
/// [`distribute_all`] builds the common "one node per group" split.
///
/// The caller is responsible for legality (see `dependence::can_distribute`
/// and `dependence::sccs_of_body`) and for ordering groups topologically.
///
/// # Errors
/// Returns [`TransformError::InvalidGroup`] if a group references an index
/// outside the body or one an earlier group already took.
pub fn distribute(nest: Loop, groups: &[Vec<usize>]) -> Result<Vec<Loop>> {
    let Loop {
        iter,
        lower,
        upper,
        step,
        body,
        schedule,
    } = nest;
    let mut body: Vec<Option<Node>> = body.into_iter().map(Some).collect();
    groups
        .iter()
        .map(|group| {
            let nodes = group
                .iter()
                .map(|&idx| {
                    body.get_mut(idx)
                        .and_then(Option::take)
                        .ok_or(TransformError::InvalidGroup(idx))
                })
                .collect::<Result<Vec<Node>>>()?;
            let mut l = Loop::new(iter.clone(), lower.clone(), upper.clone(), nodes);
            l.step = step;
            l.schedule = schedule;
            Ok(l)
        })
        .collect()
}

/// Distributes every body node of `nest` into its own loop, preserving order.
pub fn distribute_all(nest: Loop) -> Vec<Loop> {
    let groups: Vec<Vec<usize>> = (0..nest.body.len()).map(|i| vec![i]).collect();
    distribute(nest, &groups).expect("indices are in range by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::prelude::*;

    /// The paper's Figure 3a: two independent computations in one loop nest.
    fn figure3a_nest() -> Loop {
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("B", vec![var("i"), var("j")]),
            load("A", vec![var("i"), var("j")]) * fconst(2.0),
        );
        let s2 = Computation::assign(
            "S2",
            ArrayRef::new("D", vec![var("j"), var("i")]),
            load("C", vec![var("j"), var("i")]) + fconst(1.0),
        );
        let inner = for_loop(
            "j",
            cst(0),
            var("M"),
            vec![Node::Computation(s1), Node::Computation(s2)],
        );
        match for_loop("i", cst(0), var("N"), vec![inner]) {
            Node::Loop(l) => l,
            _ => unreachable!(),
        }
    }

    #[test]
    fn distribute_all_splits_every_node() {
        let nest = figure3a_nest();
        let inner = nest.body[0].as_loop().unwrap();
        let split = distribute_all(inner.clone());
        assert_eq!(split.len(), 2);
        assert_eq!(split[0].computations()[0].name, "S1");
        assert_eq!(split[1].computations()[0].name, "S2");
        // Both copies keep the original iteration domain.
        for l in &split {
            assert_eq!(l.iter, Var::new("j"));
            assert_eq!(l.upper, var("M"));
        }
    }

    #[test]
    fn distribute_preserves_header_properties() {
        let mut nest = figure3a_nest();
        nest.step = 4;
        nest.schedule.parallel = true;
        let split = distribute_all(nest);
        assert_eq!(split.len(), 1);
        assert_eq!(split[0].step, 4);
        assert!(split[0].schedule.parallel);
    }

    #[test]
    fn grouped_distribution_keeps_groups_together() {
        let s = |name: &str, arr: &str| {
            Node::Computation(Computation::assign(
                name,
                ArrayRef::new(arr, vec![var("i")]),
                fconst(0.0),
            ))
        };
        let nest = match for_loop(
            "i",
            cst(0),
            var("N"),
            vec![s("S1", "A"), s("S2", "B"), s("S3", "D")],
        ) {
            Node::Loop(l) => l,
            _ => unreachable!(),
        };
        let split = distribute(nest, &[vec![0, 2], vec![1]]).unwrap();
        assert_eq!(split.len(), 2);
        let names: Vec<String> = split[0]
            .computations()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        assert_eq!(names, vec!["S1", "S3"]);
        assert_eq!(split[1].computations()[0].name, "S2");
    }

    #[test]
    fn out_of_range_group_is_rejected() {
        let nest = figure3a_nest();
        let err = distribute(nest.clone(), &[vec![0], vec![5]]).unwrap_err();
        assert_eq!(err, TransformError::InvalidGroup(5));
        // Nodes move: a second group cannot take what the first one has.
        let err = distribute(nest, &[vec![0], vec![0]]).unwrap_err();
        assert_eq!(err, TransformError::InvalidGroup(0));
    }
}

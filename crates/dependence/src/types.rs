//! Dependence kinds, direction vectors and the [`Dependence`] record.

use std::fmt;
use std::sync::Arc;

use loop_ir::expr::Var;
use loop_ir::nest::CompId;

/// The classical classification of a data dependence.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DepKind {
    /// Read-after-write (true) dependence.
    Flow,
    /// Write-after-read dependence.
    Anti,
    /// Write-after-write dependence.
    Output,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        };
        f.write_str(s)
    }
}

/// The direction of a dependence with respect to one common loop.
///
/// For a dependence from source iteration `I` to destination iteration `I'`,
/// the direction at loop `l` describes the relation `I[l] ? I'[l]`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// The source iteration is earlier (`<`): the dependence is carried
    /// forward by this loop.
    Lt,
    /// Same iteration of this loop (`=`).
    Eq,
    /// The source iteration is later (`>`). A leading `>` would violate
    /// program order, so it can only appear below a carrying `<` level.
    Gt,
    /// Unknown / any relation (`*`), used when the test cannot refine.
    Any,
}

impl Direction {
    /// True if this direction admits `<`.
    pub fn may_be_lt(self) -> bool {
        matches!(self, Direction::Lt | Direction::Any)
    }

    /// True if this direction admits `>`.
    pub fn may_be_gt(self) -> bool {
        matches!(self, Direction::Gt | Direction::Any)
    }

    /// True if this direction admits `=`.
    pub fn may_be_eq(self) -> bool {
        matches!(self, Direction::Eq | Direction::Any)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::Lt => "<",
            Direction::Eq => "=",
            Direction::Gt => ">",
            Direction::Any => "*",
        };
        f.write_str(s)
    }
}

/// A data dependence between two computations (possibly the same one).
#[derive(Clone, PartialEq, Debug)]
pub struct Dependence {
    /// The computation whose access happens first in program order.
    pub src: CompId,
    /// The computation whose access happens second.
    pub dst: CompId,
    /// Dependence classification.
    pub kind: DepKind,
    /// The array through which the dependence flows.
    pub array: Var,
    /// The loops enclosing *both* computations, outermost first; shared by
    /// the edges of one pair of computations.
    pub common_loops: Arc<[Var]>,
    /// One direction per common loop, outermost first.
    pub directions: Vec<Direction>,
}

impl Dependence {
    /// True if the dependence holds within a single iteration of every common
    /// loop (all directions admit `=` and no level necessarily differs).
    pub fn is_loop_independent(&self) -> bool {
        self.directions.iter().all(|d| *d == Direction::Eq)
    }

    /// The outermost common-loop level (0-based) that may carry the
    /// dependence, i.e. the first level whose direction admits `<` while all
    /// outer levels admit `=`.
    pub fn carried_level(&self) -> Option<usize> {
        for (level, d) in self.directions.iter().enumerate() {
            if d.may_be_lt() {
                return Some(level);
            }
            if !d.may_be_eq() {
                return None;
            }
        }
        None
    }

    /// True if the dependence may be carried by the loop with the given
    /// iterator, i.e. the loop is a common loop and some instance of the
    /// dependence has its first `<` at that level.
    pub fn may_be_carried_by(&self, iter: &Var) -> bool {
        match self.common_loops.iter().position(|v| v == iter) {
            Some(level) => {
                // all outer levels must admit `=` and this level must admit `<`.
                self.directions[..level].iter().all(|d| d.may_be_eq())
                    && self.directions[level].may_be_lt()
            }
            None => false,
        }
    }

    /// The direction at the level of the given common loop, if it is one.
    pub fn direction_of(&self, iter: &Var) -> Option<Direction> {
        self.common_loops
            .iter()
            .position(|v| v == iter)
            .map(|i| self.directions[i])
    }
}

impl fmt::Display for Dependence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} -> {} on {} (",
            self.kind, self.src, self.dst, self.array
        )?;
        for (i, (l, d)) in self.common_loops.iter().zip(&self.directions).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}:{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(directions: Vec<Direction>) -> Dependence {
        Dependence {
            src: CompId(0),
            dst: CompId(1),
            kind: DepKind::Flow,
            array: Var::new("A"),
            common_loops: [Var::new("i"), Var::new("j"), Var::new("k")].into(),
            directions,
        }
    }

    #[test]
    fn loop_independent_detection() {
        assert!(dep(vec![Direction::Eq, Direction::Eq, Direction::Eq]).is_loop_independent());
        assert!(!dep(vec![Direction::Eq, Direction::Lt, Direction::Eq]).is_loop_independent());
        assert!(!dep(vec![Direction::Any, Direction::Eq, Direction::Eq]).is_loop_independent());
    }

    #[test]
    fn carried_level_is_first_lt() {
        assert_eq!(
            dep(vec![Direction::Eq, Direction::Lt, Direction::Eq]).carried_level(),
            Some(1)
        );
        assert_eq!(
            dep(vec![Direction::Lt, Direction::Gt, Direction::Eq]).carried_level(),
            Some(0)
        );
        assert_eq!(
            dep(vec![Direction::Eq, Direction::Eq, Direction::Eq]).carried_level(),
            None
        );
        // A leading Gt cannot carry anything.
        assert_eq!(
            dep(vec![Direction::Gt, Direction::Lt, Direction::Eq]).carried_level(),
            None
        );
        // Any admits both = and <.
        assert_eq!(
            dep(vec![Direction::Any, Direction::Eq, Direction::Eq]).carried_level(),
            Some(0)
        );
    }

    #[test]
    fn carried_by_specific_loop() {
        let d = dep(vec![Direction::Eq, Direction::Lt, Direction::Any]);
        assert!(!d.may_be_carried_by(&Var::new("i")));
        assert!(d.may_be_carried_by(&Var::new("j")));
        // k can also carry it when j is =? j is Lt only (not Eq), so no.
        assert!(!d.may_be_carried_by(&Var::new("k")));
        assert!(!d.may_be_carried_by(&Var::new("z")));
    }

    #[test]
    fn direction_lookup_and_display() {
        let d = dep(vec![Direction::Eq, Direction::Lt, Direction::Any]);
        assert_eq!(d.direction_of(&Var::new("j")), Some(Direction::Lt));
        assert_eq!(d.direction_of(&Var::new("z")), None);
        let text = d.to_string();
        assert!(text.contains("flow"));
        assert!(text.contains("j:<"));
        assert!(text.contains("k:*"));
    }

    #[test]
    fn direction_predicates() {
        assert!(Direction::Any.may_be_lt());
        assert!(Direction::Any.may_be_gt());
        assert!(Direction::Any.may_be_eq());
        assert!(Direction::Lt.may_be_lt());
        assert!(!Direction::Lt.may_be_eq());
        assert!(!Direction::Eq.may_be_gt());
    }
}

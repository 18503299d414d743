//! Atoms: the operands of FIR instructions.

use std::fmt;

/// Identifier of an FIR variable.
///
/// Variables are immutable (single assignment): once bound by a `Let…` form
/// the value never changes.  Mutation happens only through the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Identifier of a top-level FIR function; also an index into the runtime
/// function table (paper §4.1: "a function table contains pointers to all
/// valid higher-order functions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FunId(pub u32);

/// A migration label.  The paper's `migrate [i, …]` pseudo-instruction
/// carries "a unique label that identifies the migration call, and is used by
/// the backend to determine where program execution resumes after a
/// successful migration".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for FunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// An atom is an operand position: either an immutable variable or a literal
/// constant.  Atoms are the only things instructions may read; all compound
/// computation goes through a `Let…` binding.
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// The unit value.
    Unit,
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// Character literal.
    Char(char),
    /// String literal (allocated in the heap as an immutable string block at
    /// first use).
    Str(String),
    /// An immutable variable.
    Var(VarId),
    /// A direct reference to a top-level function.
    Fun(FunId),
}

impl Atom {
    /// Whether this atom is a compile-time constant (not a variable).
    pub fn is_const(&self) -> bool {
        !matches!(self, Atom::Var(_))
    }

    /// Collect the free variable of this atom (if any) into `out`.
    pub fn free_vars(&self, out: &mut Vec<VarId>) {
        if let Atom::Var(v) = self {
            out.push(*v);
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Unit => write!(f, "()"),
            Atom::Int(v) => write!(f, "{v}"),
            Atom::Float(v) => write!(f, "{v:?}"),
            Atom::Bool(v) => write!(f, "{v}"),
            Atom::Char(c) => write!(f, "{c:?}"),
            Atom::Str(s) => write!(f, "{s:?}"),
            Atom::Var(v) => write!(f, "{v}"),
            Atom::Fun(id) => write!(f, "{id}"),
        }
    }
}

impl From<i64> for Atom {
    fn from(v: i64) -> Self {
        Atom::Int(v)
    }
}

impl From<f64> for Atom {
    fn from(v: f64) -> Self {
        Atom::Float(v)
    }
}

impl From<bool> for Atom {
    fn from(v: bool) -> Self {
        Atom::Bool(v)
    }
}

impl From<VarId> for Atom {
    fn from(v: VarId) -> Self {
        Atom::Var(v)
    }
}

impl From<FunId> for Atom {
    fn from(v: FunId) -> Self {
        Atom::Fun(v)
    }
}

impl From<&str> for Atom {
    fn from(s: &str) -> Self {
        Atom::Str(s.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Atom::Int(-3).to_string(), "-3");
        assert_eq!(Atom::Var(VarId(7)).to_string(), "v7");
        assert_eq!(Atom::Fun(FunId(2)).to_string(), "f2");
        assert_eq!(Atom::Str("hi".into()).to_string(), "\"hi\"");
        assert_eq!(Atom::Unit.to_string(), "()");
    }

    #[test]
    fn free_vars_only_for_vars() {
        let mut out = Vec::new();
        Atom::Int(4).free_vars(&mut out);
        Atom::Var(VarId(1)).free_vars(&mut out);
        Atom::Fun(FunId(0)).free_vars(&mut out);
        assert_eq!(out, vec![VarId(1)]);
    }

    #[test]
    fn conversion_helpers() {
        assert_eq!(Atom::from(5i64), Atom::Int(5));
        assert_eq!(Atom::from(true), Atom::Bool(true));
        assert_eq!(Atom::from(VarId(3)), Atom::Var(VarId(3)));
        assert!(Atom::from("s").is_const());
        assert!(!Atom::from(VarId(3)).is_const());
    }
}

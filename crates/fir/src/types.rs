//! The FIR type language.

use std::fmt;

/// Types of FIR values.
///
/// The FIR is a *typed* intermediate representation: the migration server
/// type-checks every inbound program before executing it, which is what makes
/// whole-process migration viable across machines that do not trust each
/// other (paper §4.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// The unit type (no information); produced by externals called only for
    /// their effect.
    Unit,
    /// 64-bit signed integers.  Source-level `int`, `long` and enum values
    /// all lower to this type.
    Int,
    /// IEEE-754 double-precision floats.
    Float,
    /// Booleans, produced by comparisons and consumed by `If`.
    Bool,
    /// Unicode scalar values (source-level `char`).
    Char,
    /// Immutable string constants (block of UTF-8 bytes in the heap).
    Str,
    /// A pointer to a heap block whose elements all have the given type.
    /// Source-level C pointers are (base + offset) pairs whose base is an
    /// index into the pointer table (paper §4.1.1); the element type is what
    /// a `LetLoad` at that pointer produces.
    Ptr(Box<Ty>),
    /// A pointer to a raw (untyped) data block, addressed byte-wise.  This is
    /// the representation of C buffers for which no element type is known.
    Raw,
    /// A direct reference to a top-level function taking the given argument
    /// types.  FIR functions never return (continuation-passing style), so
    /// there is no result type.
    Fun(Vec<Ty>),
    /// A heap-allocated closure callable with the given argument types.
    /// Closures are how the front end represents continuations and
    /// first-class functions after closure conversion.
    Closure(Vec<Ty>),
    /// The dynamic type.  Used for values whose static type is unknown at a
    /// boundary (e.g. the payload of a message receive); every use is guarded
    /// by a runtime check in the backend.
    Any,
}

impl Ty {
    /// Pointer to `elem`.
    pub fn ptr(elem: Ty) -> Ty {
        Ty::Ptr(Box::new(elem))
    }

    /// Whether a value of this type lives (directly) in the heap and is thus
    /// affected by garbage collection, copy-on-write and migration
    /// relocation.
    pub fn is_heap(&self) -> bool {
        matches!(self, Ty::Ptr(_) | Ty::Raw | Ty::Str | Ty::Closure(_))
    }

    /// Whether `value_ty` may flow into a slot of type `self` without a
    /// runtime conversion.  `Any` is compatible in both directions (the
    /// backend inserts a runtime check when narrowing).
    pub fn accepts(&self, value_ty: &Ty) -> bool {
        if self == value_ty || matches!(self, Ty::Any) || matches!(value_ty, Ty::Any) {
            return true;
        }
        match (self, value_ty) {
            // A closure may be passed where a function of identical signature
            // is expected and vice versa is *not* allowed: calling a direct
            // function requires no environment, calling a closure does.
            (Ty::Closure(a), Ty::Closure(b)) | (Ty::Fun(a), Ty::Fun(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.accepts(y))
            }
            (Ty::Ptr(a), Ty::Ptr(b)) => a.accepts(b),
            _ => false,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Unit => write!(f, "unit"),
            Ty::Int => write!(f, "int"),
            Ty::Float => write!(f, "float"),
            Ty::Bool => write!(f, "bool"),
            Ty::Char => write!(f, "char"),
            Ty::Str => write!(f, "string"),
            Ty::Ptr(elem) => write!(f, "ptr<{elem}>"),
            Ty::Raw => write!(f, "raw"),
            Ty::Fun(args) => {
                write!(f, "fun(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Ty::Closure(args) => {
                write!(f, "clo(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Ty::Any => write!(f, "any"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        assert_eq!(Ty::ptr(Ty::Int).to_string(), "ptr<int>");
        assert_eq!(
            Ty::Fun(vec![Ty::Int, Ty::Bool]).to_string(),
            "fun(int, bool)"
        );
        assert_eq!(Ty::Closure(vec![]).to_string(), "clo()");
    }

    #[test]
    fn accepts_reflexive_and_any() {
        let tys = [
            Ty::Unit,
            Ty::Int,
            Ty::Float,
            Ty::Bool,
            Ty::Char,
            Ty::Str,
            Ty::ptr(Ty::Float),
            Ty::Raw,
            Ty::Fun(vec![Ty::Int]),
            Ty::Closure(vec![Ty::Int]),
        ];
        for t in &tys {
            assert!(t.accepts(t), "{t} should accept itself");
            assert!(Ty::Any.accepts(t));
            assert!(t.accepts(&Ty::Any));
        }
        assert!(!Ty::Int.accepts(&Ty::Float));
        assert!(!Ty::ptr(Ty::Int).accepts(&Ty::ptr(Ty::Float)));
    }

    #[test]
    fn heap_classification() {
        assert!(Ty::ptr(Ty::Int).is_heap());
        assert!(Ty::Raw.is_heap());
        assert!(Ty::Str.is_heap());
        assert!(Ty::Closure(vec![]).is_heap());
        assert!(!Ty::Int.is_heap());
        assert!(!Ty::Fun(vec![]).is_heap());
    }

    #[test]
    fn closure_and_fun_not_interchangeable() {
        let f = Ty::Fun(vec![Ty::Int]);
        let c = Ty::Closure(vec![Ty::Int]);
        assert!(!f.accepts(&c));
        assert!(!c.accepts(&f));
    }
}

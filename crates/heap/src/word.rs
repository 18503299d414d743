//! The architecture-independent value representation.

use crate::pointer_table::PtrIdx;
use mojave_wire::{WireCodec, WireError, WireReader, WireWriter};
use std::fmt;

/// A tagged runtime value.
///
/// This is the representation used for registers, heap block elements, and
/// everything that crosses a migration boundary.  Crucially there are no raw
/// machine addresses: heap references are [`PtrIdx`] values (pointer-table
/// indices) and function references are function-table indices, which is
/// what lets migration ship the heap byte-for-byte between machines
/// (paper §4.2.2: "since no real pointers exist in the data, system
/// migration does not need to construct an explicit map between pointers
/// across different machines").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Word {
    /// The unit value.
    #[default]
    Unit,
    /// 64-bit signed integer.
    Int(i64),
    /// IEEE-754 double.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Unicode scalar.
    Char(char),
    /// Base pointer: an index into the pointer table.
    Ptr(PtrIdx),
    /// Function value: an index into the function table.
    Fun(u32),
}

impl Word {
    /// Whether this word references a heap block (and therefore must be
    /// traced by the garbage collector and preserved by migration).
    pub fn is_ptr(&self) -> bool {
        matches!(self, Word::Ptr(_))
    }

    /// The pointer-table index if this is a pointer.
    pub fn as_ptr(&self) -> Option<PtrIdx> {
        match self {
            Word::Ptr(p) => Some(*p),
            _ => None,
        }
    }

    /// The integer value if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Word::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float value if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Word::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean value if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Word::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Short tag name for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Word::Unit => "unit",
            Word::Int(_) => "int",
            Word::Float(_) => "float",
            Word::Bool(_) => "bool",
            Word::Char(_) => "char",
            Word::Ptr(_) => "ptr",
            Word::Fun(_) => "fun",
        }
    }

    /// Structural equality that treats floats by bit pattern, so heap
    /// snapshots can be compared exactly (NaN == NaN for snapshot purposes).
    pub fn bitwise_eq(&self, other: &Word) -> bool {
        match (self, other) {
            (Word::Float(a), Word::Float(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }

    /// Fixed-width encoding for the slab formats (v4 batched, v5 tag and
    /// payload slabs): a tag byte plus a 64-bit payload.  The tag values
    /// match the per-word varint codec so the encodings stay reviewable
    /// side by side.
    pub fn to_raw(self) -> (u8, u64) {
        match self {
            Word::Unit => (0, 0),
            Word::Int(v) => (1, v as u64),
            Word::Float(v) => (2, v.to_bits()),
            Word::Bool(v) => (3, u64::from(v)),
            Word::Char(c) => (4, c as u64),
            Word::Ptr(p) => (5, p.0 as u64),
            Word::Fun(i) => (6, i as u64),
        }
    }

    /// Decode a `(tag, payload)` pair produced by [`Word::to_raw`],
    /// rejecting invalid tags and out-of-range payloads (bad bools, invalid
    /// Unicode scalars, pointer/function indices beyond `u32`).
    pub fn from_raw(tag: u8, payload: u64) -> Result<Word, WireError> {
        let bad = |context: &'static str| WireError::BadTag {
            context,
            tag: payload,
        };
        Ok(match tag {
            0 => Word::Unit,
            1 => Word::Int(payload as i64),
            2 => Word::Float(f64::from_bits(payload)),
            3 => match payload {
                0 => Word::Bool(false),
                1 => Word::Bool(true),
                _ => return Err(bad("Word::Bool payload")),
            },
            4 => {
                let code = u32::try_from(payload).map_err(|_| bad("Word::Char payload"))?;
                Word::Char(char::from_u32(code).ok_or_else(|| bad("Word::Char payload"))?)
            }
            5 => Word::Ptr(PtrIdx(
                u32::try_from(payload).map_err(|_| bad("Word::Ptr payload"))?,
            )),
            6 => Word::Fun(u32::try_from(payload).map_err(|_| bad("Word::Fun payload"))?),
            _ => {
                return Err(WireError::BadTag {
                    context: "Word tag",
                    tag: tag as u64,
                })
            }
        })
    }
}

/// Append the [`Word::from_raw`] decodings of `tags` and `payloads` (of
/// equal length) to `out`.  A run whose tags are all `Int` — most of a
/// numeric heap — is checked in one pass and converted without a fallible
/// match per word; any other run is decoded word by word, so a bad tag or
/// an out-of-range `Bool`, `Char`, `Ptr` or `Fun` payload is the same
/// precise error.
pub(crate) fn extend_from_raw(
    out: &mut Vec<Word>,
    tags: &[u8],
    payloads: &[u64],
) -> Result<(), WireError> {
    debug_assert_eq!(tags.len(), payloads.len());
    const INT: u8 = 1;
    if tags.iter().all(|&tag| tag == INT) {
        out.extend(payloads.iter().map(|&payload| Word::Int(payload as i64)));
        return Ok(());
    }
    for (&tag, &payload) in tags.iter().zip(payloads) {
        out.push(Word::from_raw(tag, payload)?);
    }
    Ok(())
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Word::Unit => write!(f, "()"),
            Word::Int(v) => write!(f, "{v}"),
            Word::Float(v) => write!(f, "{v:?}"),
            Word::Bool(v) => write!(f, "{v}"),
            Word::Char(c) => write!(f, "{c:?}"),
            Word::Ptr(p) => write!(f, "ptr#{}", p.0),
            Word::Fun(i) => write!(f, "fun#{i}"),
        }
    }
}

impl WireCodec for Word {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Word::Unit => w.write_u8(0),
            Word::Int(v) => {
                w.write_u8(1);
                w.write_ivarint(*v);
            }
            Word::Float(v) => {
                w.write_u8(2);
                w.write_f64(*v);
            }
            Word::Bool(v) => {
                w.write_u8(3);
                w.write_bool(*v);
            }
            Word::Char(c) => {
                w.write_u8(4);
                w.write_u32(*c as u32);
            }
            Word::Ptr(p) => {
                w.write_u8(5);
                w.write_uvarint(p.0 as u64);
            }
            Word::Fun(i) => {
                w.write_u8(6);
                w.write_uvarint(*i as u64);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.read_u8()? {
            0 => Word::Unit,
            1 => Word::Int(r.read_ivarint()?),
            2 => Word::Float(r.read_f64()?),
            3 => Word::Bool(r.read_bool()?),
            4 => {
                let code = r.read_u32()?;
                Word::Char(char::from_u32(code).ok_or(WireError::BadTag {
                    context: "Word::Char",
                    tag: code as u64,
                })?)
            }
            5 => Word::Ptr(PtrIdx(r.read_uvarint_u32("Word::Ptr index")?)),
            6 => Word::Fun(r.read_uvarint_u32("Word::Fun index")?),
            tag => {
                return Err(WireError::BadTag {
                    context: "Word",
                    tag: tag as u64,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mojave_wire::{from_bytes, to_bytes};

    #[test]
    fn accessors() {
        assert_eq!(Word::Int(5).as_int(), Some(5));
        assert_eq!(Word::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Word::Bool(true).as_bool(), Some(true));
        assert_eq!(Word::Ptr(PtrIdx(3)).as_ptr(), Some(PtrIdx(3)));
        assert_eq!(Word::Int(5).as_ptr(), None);
        assert!(Word::Ptr(PtrIdx(0)).is_ptr());
        assert!(!Word::Fun(0).is_ptr());
    }

    #[test]
    fn wire_roundtrip_all_kinds() {
        let words = vec![
            Word::Unit,
            Word::Int(-77),
            Word::Float(3.25),
            Word::Bool(false),
            Word::Char('λ'),
            Word::Ptr(PtrIdx(12345)),
            Word::Fun(7),
        ];
        let bytes = to_bytes(&words);
        let back: Vec<Word> = from_bytes(&bytes).unwrap();
        assert_eq!(words, back);
    }

    #[test]
    fn raw_roundtrip_all_kinds() {
        let words = [
            Word::Unit,
            Word::Int(i64::MIN),
            Word::Float(f64::NAN),
            Word::Bool(true),
            Word::Char('λ'),
            Word::Ptr(PtrIdx(u32::MAX)),
            Word::Fun(7),
        ];
        for w in words {
            let (tag, payload) = w.to_raw();
            let back = Word::from_raw(tag, payload).unwrap();
            assert!(w.bitwise_eq(&back), "{w:?} -> ({tag}, {payload:#x})");
        }
    }

    #[test]
    fn raw_rejects_invalid_payloads() {
        assert!(Word::from_raw(3, 2).is_err()); // bad bool
        assert!(Word::from_raw(4, 0xD800).is_err()); // surrogate char
        assert!(Word::from_raw(4, u64::MAX).is_err()); // char beyond u32
        assert!(Word::from_raw(5, u64::MAX).is_err()); // ptr beyond u32
        assert!(Word::from_raw(6, 1 << 40).is_err()); // fun beyond u32
        assert!(Word::from_raw(9, 0).is_err()); // unknown tag
    }

    #[test]
    fn bitwise_eq_handles_nan() {
        let a = Word::Float(f64::NAN);
        let b = Word::Float(f64::NAN);
        assert!(a.bitwise_eq(&b));
        assert_ne!(a, b, "PartialEq follows IEEE NaN semantics");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Word::Ptr(PtrIdx(4)).to_string(), "ptr#4");
        assert_eq!(Word::Fun(2).to_string(), "fun#2");
        assert_eq!(Word::Unit.to_string(), "()");
    }
}

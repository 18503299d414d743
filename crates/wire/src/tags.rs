//! Image magic, format version and section tags.

/// Magic number written at the start of every migration/checkpoint image.
///
/// Spells "MJVE" in ASCII when viewed little-endian in a hex dump, which is
/// handy when inspecting checkpoint files on disk.
pub const MAGIC: u32 = 0x4556_4A4D;

/// Current version of the wire format — the **v5 image layout**: framed,
/// length-prefixed sections whose heap payloads carry **codec-tagged
/// compressed slab frames** (see `mojave-codec` and the "Compression"
/// chapter of `docs/WIRE_FORMAT.md`), with optional delta-against-base
/// heap payloads.
pub const FORMAT_VERSION: u32 = 5;

/// The **batched (v4) image layout**: framed sections and slab-encoded
/// heap blocks, no compression.  Decoders still accept it; no encoder
/// produces it.
pub const BATCHED_VERSION: u32 = 4;

/// Oldest format version this runtime still decodes: the **v1 image
/// layout** (unframed sections, per-word heap encoding).  Encoders only
/// ever produce [`FORMAT_VERSION`]; v1 and [`BATCHED_VERSION`] support
/// exists so checkpoint images written by older runtimes remain loadable.
pub const MIN_SUPPORTED_VERSION: u32 = 3;

/// Section tags delimit the major regions of a migration image so that a
/// decoder can fail fast with a precise error instead of misinterpreting
/// bytes from one section as another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SectionTag {
    /// Image header (magic, version, source architecture).
    Header = 0x01,
    /// Serialised FIR program text.
    FirProgram = 0x02,
    /// The pointer table (indices and block offsets).
    PointerTable = 0x03,
    /// Heap block payloads.
    HeapBlocks = 0x04,
    /// The function table.
    FunctionTable = 0x05,
    /// The migrate environment (live variables packed into the heap).
    MigrateEnv = 0x06,
    /// Resume metadata (migration label, protocol, target string).
    Resume = 0x07,
    /// Retired: compiled bytecode, which images no longer carry.  Kept so
    /// the byte is never reused and a decoder's rejection can name it.
    Bytecode = 0x08,
    /// Speculation-state summary (open levels, for diagnostics only).
    Speculation = 0x09,
    /// Incremental heap payload: dirty blocks + pointer-table fixups against
    /// a named base checkpoint (v2 images only).
    HeapDelta = 0x0A,
    /// The code of a delta image, by reference: the 8-byte
    /// [`crate::fingerprint`] of its base's code section (tag byte and
    /// body), standing in the code section's slot.  Only delta images
    /// carry it; resolution takes the base's code after checking it.
    CodeRef = 0x0B,
}

impl SectionTag {
    /// All tags, in the order sections appear in an image.
    pub const ALL: [SectionTag; 11] = [
        SectionTag::Header,
        SectionTag::FirProgram,
        SectionTag::PointerTable,
        SectionTag::HeapBlocks,
        SectionTag::FunctionTable,
        SectionTag::MigrateEnv,
        SectionTag::Resume,
        SectionTag::Bytecode,
        SectionTag::Speculation,
        SectionTag::HeapDelta,
        SectionTag::CodeRef,
    ];

    /// Human-readable name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            SectionTag::Header => "Header",
            SectionTag::FirProgram => "FirProgram",
            SectionTag::PointerTable => "PointerTable",
            SectionTag::HeapBlocks => "HeapBlocks",
            SectionTag::FunctionTable => "FunctionTable",
            SectionTag::MigrateEnv => "MigrateEnv",
            SectionTag::Resume => "Resume",
            SectionTag::Bytecode => "Bytecode",
            SectionTag::Speculation => "Speculation",
            SectionTag::HeapDelta => "HeapDelta",
            SectionTag::CodeRef => "CodeRef",
        }
    }

    /// Decode a tag byte.
    pub fn from_u8(byte: u8) -> Option<SectionTag> {
        SectionTag::ALL.into_iter().find(|t| *t as u8 == byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip_through_bytes() {
        for tag in SectionTag::ALL {
            assert_eq!(SectionTag::from_u8(tag as u8), Some(tag));
        }
        assert_eq!(SectionTag::from_u8(0x00), None);
        assert_eq!(SectionTag::from_u8(0xFF), None);
    }

    #[test]
    fn tag_names_are_unique() {
        let mut names: Vec<_> = SectionTag::ALL.iter().map(|t| t.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), SectionTag::ALL.len());
    }
}

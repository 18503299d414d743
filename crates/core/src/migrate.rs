//! Whole-process migration: images, protocols and delivery sinks
//! (paper §4.2).
//!
//! Migration is split into the three operations the paper names:
//!
//! * **pack** — capture the entire process state.  [`crate::Process::pack`]
//!   garbage-collects, stores the live variables into a fresh
//!   `migrate_env` block, freezes the heap into a [`SnapshotPack`] and
//!   encodes it at once into a [`MigrationImage`] holding the code (FIR;
//!   a delta checkpoint names its base's code instead), the pointer table,
//!   the heap blocks and the resume continuation.  An asynchronous
//!   checkpoint skips the collection and defers the same encode to the
//!   sink.
//! * **transmit** — hand the image to a [`MigrationSink`].  A standalone
//!   process uses [`InMemorySink`] (checkpoint files in a
//!   [`CheckpointStore`]); the cluster crate provides a sink that routes
//!   `migrate://node` targets through the simulated network to a migration
//!   daemon.
//! * **unpack** — [`crate::Process::from_image`] verifies the image
//!   (type-checks the FIR — the safety step that makes migration viable
//!   between machines that do not trust each other), recompiles it for the
//!   local backend, rebuilds the heap and resumes at the saved
//!   continuation.

use crate::error::RuntimeError;
use mojave_fir::{MigrateProtocol, Program};
use mojave_heap::{
    image_payload_stats, Heap, HeapConfig, HeapError, HeapSnapshot, ImageCodec, ImageKind, PtrIdx,
    Word,
};
use mojave_wire::{
    uvarint_len, CodecSet, SectionTag, WireCodec, WireError, WireReader, WireWriter,
    FORMAT_VERSION, MIN_SUPPORTED_VERSION,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// The code section as an image carries it: one immutable FIR [`Program`],
/// shared by every image a process packs, together with the body of the
/// framed section it encodes to and that section's fingerprint — each
/// produced by the first image that needs it, reused by every later one.
///
/// The code is always the machine-independent FIR: the destination
/// type-checks and recompiles it (paper §4.2.2: "MCC never migrates the
/// actual executable text").
///
/// There is no mutable access: changed code is a new `CodeSection`
/// (`Program::into`) with nothing cached, so the cached bytes are the
/// encoding of this code by construction.  Equality compares the code only.
#[derive(Debug, Clone)]
pub struct CodeSection(Arc<EncodedCode>);

#[derive(Debug)]
struct EncodedCode {
    program: Program,
    body: OnceLock<Vec<u8>>,
    fingerprint: OnceLock<u64>,
}

impl CodeSection {
    /// Whether `a` and `b` are one shared section (as [`Arc::ptr_eq`]).
    pub fn ptr_eq(a: &CodeSection, b: &CodeSection) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The encoded section body, produced on first use.
    fn body(&self) -> &[u8] {
        self.0.body.get_or_init(|| {
            let mut w = WireWriter::new();
            self.0.program.encode(&mut w);
            w.into_bytes()
        })
    }

    /// [`mojave_wire::fingerprint`] of the section's tag byte followed by
    /// its body — what a delta's [`ImageCode::Base`] names its base's code
    /// by.  Computed once.
    pub fn fingerprint(&self) -> u64 {
        *self.0.fingerprint.get_or_init(|| {
            mojave_wire::fingerprint_parts(&[&[SectionTag::FirProgram as u8], self.body()])
        })
    }
}

impl From<Program> for CodeSection {
    fn from(program: Program) -> Self {
        CodeSection(Arc::new(EncodedCode {
            program,
            body: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }))
    }
}

impl std::ops::Deref for CodeSection {
    type Target = Program;
    fn deref(&self) -> &Program {
        &self.0.program
    }
}

impl PartialEq for CodeSection {
    fn eq(&self, other: &Self) -> bool {
        CodeSection::ptr_eq(self, other) || **self == **other
    }
}

/// The code of a migration image: the code section itself, or — in a
/// delta checkpoint — a reference to the code its base carries.
#[derive(Debug, Clone, PartialEq)]
pub enum ImageCode {
    /// The code travels in the image: every full image, and delta images
    /// written before deltas referenced their base's code.
    Inline(CodeSection),
    /// The code is the base checkpoint's, whose
    /// [`CodeSection::fingerprint`] is `fingerprint`.  A delta is useless
    /// without its full base, and the base already carries the code, so
    /// the delta ships 13 bytes (a [`SectionTag::CodeRef`] section)
    /// instead of the program.  Resolution checks the fingerprint, so a
    /// base overwritten by a different program is a precise error.
    Base {
        /// [`CodeSection::fingerprint`] of the base's code.
        fingerprint: u64,
    },
}

impl ImageCode {
    /// The code section, if the image carries it.
    pub fn inline(&self) -> Option<&CodeSection> {
        match self {
            ImageCode::Inline(code) => Some(code),
            ImageCode::Base { .. } => None,
        }
    }

    /// [`CodeSection::fingerprint`] of the code the image runs, carried
    /// or referenced.
    pub fn fingerprint(&self) -> u64 {
        match self {
            ImageCode::Inline(code) => code.fingerprint(),
            ImageCode::Base { fingerprint } => *fingerprint,
        }
    }

    /// What a freshly packed image carries: the code itself in a full
    /// image, a reference to the base's code in a delta (whose base this
    /// process packed, with this very code section).
    pub(crate) fn packed(code: CodeSection, heap_image: &HeapImage) -> ImageCode {
        if heap_image.is_delta() {
            ImageCode::Base {
                fingerprint: code.fingerprint(),
            }
        } else {
            ImageCode::Inline(code)
        }
    }

    /// Bytes of the framed section body this code writes.
    fn body_len(&self) -> usize {
        match self {
            ImageCode::Inline(code) => code.body().len(),
            ImageCode::Base { .. } => 8,
        }
    }
}

impl From<Program> for ImageCode {
    fn from(program: Program) -> Self {
        ImageCode::Inline(program.into())
    }
}

/// The heap payload of a migration image: a complete encoding of the live
/// heap, or an incremental delta against a named base checkpoint.  Every
/// pack builds it with one payload builder, from a frozen
/// [`HeapSnapshot`].  The payload is written once: the encoder's buffer
/// is moved into an `Arc<Vec<u8>>` (never an `Arc<[u8]>`, which would
/// copy it), and every clone — the image a sink was handed, the entry a
/// [`CheckpointStore`] keeps, the image it loads — shares those bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum HeapImage {
    /// Every live block with its pointer-table capacity: an
    /// [`ImageKind::Full`] image, in the layout the image's format version
    /// names (per-word in v1 images, which are read but never written).
    Full(Arc<Vec<u8>>),
    /// Only the blocks dirtied since the base checkpoint plus the
    /// pointer-table fixups: an [`ImageKind::Delta`] image.
    /// Resolving requires the base image, normally via
    /// [`CheckpointStore::load`].
    Delta {
        /// Name of the base checkpoint (a full image) in the store.
        base: String,
        /// [`mojave_wire::fingerprint`] of the base's heap payload bytes.
        /// Resolution verifies it, so a base overwritten under the same
        /// name is a precise error instead of a silently wrong heap.
        base_fingerprint: u64,
        /// The encoded delta.
        bytes: Arc<Vec<u8>>,
    },
}

impl HeapImage {
    /// Write the payload of a full image of `heap`, or of a delta against
    /// `delta_base` (`(name, heap-payload fingerprint)`), in `codecs` — the
    /// one payload builder behind [`SnapshotPack::into_image`] (and so
    /// every pack) and delta resolution.  Long unwritten columns are
    /// copied from a live earlier image that holds them
    /// ([`mojave_heap::ImageRecords::encode_shared`]); the second value is
    /// how many payload bytes were.
    pub(crate) fn encode(
        heap: &HeapSnapshot,
        codecs: CodecSet,
        delta_base: Option<(String, u64)>,
    ) -> Result<(HeapImage, u64), HeapError> {
        let (kind, w) = match delta_base {
            None => (
                ImageKind::Full,
                WireWriter::with_capacity(heap.live_bytes() + 256),
            ),
            Some(_) => (ImageKind::Delta, WireWriter::new()),
        };
        let (bytes, reused) = heap.image_records(kind)?.encode_shared(w, codecs);
        let image = match delta_base {
            None => HeapImage::Full(bytes),
            Some((base, base_fingerprint)) => HeapImage::Delta {
                base,
                base_fingerprint,
                bytes,
            },
        };
        Ok((image, reused))
    }

    /// The tag of the image section this payload travels in.
    fn section_tag(&self) -> SectionTag {
        match self {
            HeapImage::Full(_) => SectionTag::HeapBlocks,
            HeapImage::Delta { .. } => SectionTag::HeapDelta,
        }
    }

    /// Write that section's body: the length-prefixed payload, after the
    /// base's name and heap fingerprint for a delta.
    fn write_body(&self, w: &mut WireWriter) {
        if let HeapImage::Delta {
            base,
            base_fingerprint,
            ..
        } = self
        {
            w.write_str(base);
            w.write_u64(*base_fingerprint);
        }
        w.write_bytes(self.bytes());
    }

    /// Bytes [`HeapImage::write_body`] writes.
    fn body_len(&self) -> usize {
        let prefixed = |len: usize| uvarint_len(len as u64) + len;
        match self {
            HeapImage::Full(bytes) => prefixed(bytes.len()),
            HeapImage::Delta { base, bytes, .. } => {
                prefixed(base.len()) + 8 + prefixed(bytes.len())
            }
        }
    }

    /// The encoded payload.
    fn bytes(&self) -> &[u8] {
        match self {
            HeapImage::Full(bytes) | HeapImage::Delta { bytes, .. } => bytes,
        }
    }

    /// Size of the encoded heap payload in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the payload is empty (never the case for real images).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this is a delta payload.
    pub fn is_delta(&self) -> bool {
        matches!(self, HeapImage::Delta { .. })
    }

    /// The base checkpoint name, for delta payloads.
    pub fn base(&self) -> Option<&str> {
        match self {
            HeapImage::Full(_) => None,
            HeapImage::Delta { base, .. } => Some(base),
        }
    }

    /// [`mojave_wire::fingerprint`] of the payload bytes — what a delta
    /// records about its base so resolution can detect an overwritten one.
    pub fn fingerprint(&self) -> u64 {
        mojave_wire::fingerprint(self.bytes())
    }
}

/// A complete, self-contained image of a process: everything needed to
/// resume it on any machine (or later in time, for checkpoints — the paper
/// formats checkpoints as executable files; ours are executable by
/// `mcc resume <file>` or [`crate::Process::from_image`]).  A delta
/// checkpoint is the exception: it needs its base for both heap and code
/// ([`MigrationImage::resolve_delta`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationImage {
    /// Wire format version this image was decoded from (or will be encoded
    /// as): [`FORMAT_VERSION`] for freshly packed images,
    /// [`MIN_SUPPORTED_VERSION`] for legacy v1 checkpoints.  Selects the
    /// section layout and the heap block codec.
    pub format_version: u32,
    /// Architecture tag of the machine that packed the image.
    pub source_arch: String,
    /// The code: inline, or — in a delta checkpoint — its base's, by
    /// fingerprint.
    pub code: ImageCode,
    /// Encoded heap (pointer table + blocks), full or delta.
    pub heap_image: HeapImage,
    /// Pointer to the `migrate_env` block holding the live variables.
    pub migrate_env: PtrIdx,
    /// The continuation to call on resume (`Word::Fun` or a closure
    /// pointer).
    pub resume_fun: Word,
    /// The migration label `i` identifying the migration call site.
    pub label: u32,
    /// Number of speculation levels that were open when the image was
    /// packed (informational; open speculations do not survive migration —
    /// the grid application commits before checkpointing for this reason).
    pub open_speculations: u32,
}

impl MigrationImage {
    /// Total image size in bytes once serialised (used by the network model
    /// and by the migration experiments), counted from the section lengths:
    /// only the header and the three small trailing sections are written,
    /// to a scratch buffer.
    pub fn byte_size(&self) -> usize {
        let (version, framed) = self.layout();
        let mut small = WireWriter::new();
        small.write_header_versioned(&self.source_arch, version);
        self.write_tail(&mut small, framed);
        let frame = if framed { 1 + 4 } else { 1 };
        small.len() + frame + self.code.body_len() + frame + self.heap_image.body_len()
    }

    /// Whether this image uses the legacy v1 layout (unframed sections,
    /// per-word heap blocks).
    fn is_legacy(&self) -> bool {
        self.format_version <= MIN_SUPPORTED_VERSION
    }

    /// The layout [`MigrationImage::to_bytes`] writes: the header version
    /// and whether the sections are framed.  The v1 layout cannot express
    /// a delta payload or a code reference; a legacy-versioned image whose
    /// fields were edited into either (unreachable by decode) is written
    /// framed under [`FORMAT_VERSION`] rather than panicking.
    fn layout(&self) -> (u32, bool) {
        if !self.is_legacy() {
            (self.format_version, true)
        } else if self.heap_image.is_delta() || self.code.inline().is_none() {
            (FORMAT_VERSION, true)
        } else {
            (self.format_version, false)
        }
    }

    /// Serialise the image to the canonical wire format, using the layout
    /// matching [`MigrationImage::format_version`] so decode/encode round
    /// trips are byte-faithful for every version: v1 writes bare section
    /// tags, every later version frames each section after the header
    /// (tag + u32 length + body), so decoders can slice or skip sections
    /// without parsing them.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (version, framed) = self.layout();
        let mut w = WireWriter::with_capacity(self.code.body_len() + self.heap_image.len() + 1024);
        w.write_header_versioned(&self.source_arch, version);
        match &self.code {
            ImageCode::Inline(code) => section(&mut w, framed, SectionTag::FirProgram, |w| {
                w.write_raw(code.body())
            }),
            ImageCode::Base { fingerprint } => section(&mut w, framed, SectionTag::CodeRef, |w| {
                w.write_u64(*fingerprint)
            }),
        }
        section(&mut w, framed, self.heap_image.section_tag(), |w| {
            self.heap_image.write_body(w)
        });
        self.write_tail(&mut w, framed);
        w.into_bytes()
    }

    /// Write the migrate-env, resume and speculation sections.
    fn write_tail(&self, w: &mut WireWriter, framed: bool) {
        section(w, framed, SectionTag::MigrateEnv, |w| {
            w.write_uvarint(self.migrate_env.0 as u64)
        });
        section(w, framed, SectionTag::Resume, |w| {
            self.resume_fun.encode(w);
            w.write_uvarint(self.label as u64);
        });
        section(w, framed, SectionTag::Speculation, |w| {
            w.write_uvarint(self.open_speculations as u64)
        });
    }

    /// Decode an image, rejecting corrupted or version-mismatched input.
    /// Both the current framed layout and the legacy v1 layout decode; the
    /// header version selects the parser.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let header = r.read_header()?;
        let image = if header.version <= MIN_SUPPORTED_VERSION {
            Self::from_bytes_v1(&mut r, header.version, header.source_arch)?
        } else {
            Self::from_bytes_v2(&mut r, header.version, header.source_arch)?
        };
        if !r.is_empty() {
            return Err(WireError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(image)
    }

    fn from_bytes_v1(
        r: &mut WireReader<'_>,
        format_version: u32,
        source_arch: String,
    ) -> Result<Self, WireError> {
        r.expect_section(SectionTag::FirProgram)?;
        let code = Program::decode(r)?;
        r.expect_section(SectionTag::HeapBlocks)?;
        let heap_image = HeapImage::Full(r.read_bytes()?.to_vec().into());
        r.expect_section(SectionTag::MigrateEnv)?;
        let migrate_env = PtrIdx(r.read_uvarint_u32("migrate_env pointer")?);
        r.expect_section(SectionTag::Resume)?;
        let resume_fun = Word::decode(r)?;
        let label = r.read_uvarint_u32("migration label")?;
        r.expect_section(SectionTag::Speculation)?;
        let open_speculations = r.read_uvarint_u32("open speculation count")?;
        Ok(MigrationImage {
            format_version,
            source_arch,
            code: code.into(),
            heap_image,
            migrate_env,
            resume_fun,
            label,
            open_speculations,
        })
    }

    fn from_bytes_v2(
        r: &mut WireReader<'_>,
        format_version: u32,
        source_arch: String,
    ) -> Result<Self, WireError> {
        let mut code_section = r.read_framed()?;
        let code = match code_section.tag() {
            SectionTag::FirProgram => Program::decode(&mut code_section)?.into(),
            SectionTag::CodeRef => ImageCode::Base {
                fingerprint: code_section.read_u64()?,
            },
            other => {
                return Err(WireError::SectionMismatch {
                    expected: "FirProgram or CodeRef",
                    found: other as u8,
                })
            }
        };
        code_section.finish()?;

        let mut heap_section = r.read_framed()?;
        let heap_image = match heap_section.tag() {
            SectionTag::HeapBlocks => HeapImage::Full(heap_section.read_bytes()?.to_vec().into()),
            SectionTag::HeapDelta => HeapImage::Delta {
                base: heap_section.read_str()?.to_owned(),
                base_fingerprint: heap_section.read_u64()?,
                bytes: heap_section.read_bytes()?.to_vec().into(),
            },
            other => {
                return Err(WireError::SectionMismatch {
                    expected: "HeapBlocks or HeapDelta",
                    found: other as u8,
                })
            }
        };
        heap_section.finish()?;
        if code.inline().is_none() && !heap_image.is_delta() {
            // Only a delta has a base whose code it can name; a full image
            // names code only inside the store that holds it, and no such
            // reference leaves the store.
            return Err(WireError::SectionMismatch {
                expected: "FirProgram (a full image carries its code)",
                found: SectionTag::CodeRef as u8,
            });
        }

        let mut env = r.expect_framed(SectionTag::MigrateEnv)?;
        let migrate_env = PtrIdx(env.read_uvarint_u32("migrate_env pointer")?);
        env.finish()?;

        let mut resume = r.expect_framed(SectionTag::Resume)?;
        let resume_fun = Word::decode(&mut resume)?;
        let label = resume.read_uvarint_u32("migration label")?;
        resume.finish()?;

        let mut spec = r.expect_framed(SectionTag::Speculation)?;
        let open_speculations = spec.read_uvarint_u32("open speculation count")?;
        spec.finish()?;

        Ok(MigrationImage {
            format_version,
            source_arch,
            code,
            heap_image,
            migrate_env,
            resume_fun,
            label,
            open_speculations,
        })
    }

    /// The code the image carries, or — for a delta that references its
    /// base's code — the rejection an unresolved delta gets.
    pub(crate) fn inline_code(&self) -> Result<&CodeSection, RuntimeError> {
        match (&self.code, self.heap_image.base()) {
            (ImageCode::Inline(code), _) => Ok(code),
            (ImageCode::Base { .. }, Some(base)) => Err(needs_base(base)),
            (ImageCode::Base { .. }, None) => Err(RuntimeError::MigrationRejected(
                "a full image must carry its code, not a reference to a base's".into(),
            )),
        }
    }

    /// Decode the heap section into a fresh heap.
    ///
    /// Delta images cannot be decoded standalone — resolve them against
    /// their base first ([`MigrationImage::decode_heap_with_base`], or let
    /// [`CheckpointStore::load`] do it).
    pub fn decode_heap(&self, config: HeapConfig) -> Result<Heap, RuntimeError> {
        match &self.heap_image {
            HeapImage::Full(bytes) => {
                let mut r = WireReader::new(bytes);
                let codec = ImageCodec::of_version(self.format_version);
                let heap = Heap::decode_image(&mut r, codec, config)?;
                if !r.is_empty() {
                    return Err(RuntimeError::Image(WireError::TrailingBytes {
                        remaining: r.remaining(),
                    }));
                }
                Ok(heap)
            }
            HeapImage::Delta { base, .. } => Err(needs_base(base)),
        }
    }

    /// Decode the heap by applying this image's delta to `base` (a full
    /// image, normally the checkpoint named by the delta).  For full
    /// images this is just [`MigrationImage::decode_heap`].
    ///
    /// The base's heap payload must match the fingerprint recorded in the
    /// delta: a base checkpoint that was overwritten under the same name
    /// since the delta was written is a precise error, never a silently
    /// wrong heap.
    pub fn decode_heap_with_base(
        &self,
        base: &MigrationImage,
        config: HeapConfig,
    ) -> Result<Heap, RuntimeError> {
        let HeapImage::Delta {
            base: base_name,
            base_fingerprint,
            bytes,
        } = &self.heap_image
        else {
            return self.decode_heap(config);
        };
        let HeapImage::Full(base_bytes) = &base.heap_image else {
            return Err(RuntimeError::MigrationRejected(
                "a delta's base checkpoint must be a full image".into(),
            ));
        };
        if mojave_wire::fingerprint(base_bytes) != *base_fingerprint {
            return Err(RuntimeError::MigrationRejected(format!(
                "base checkpoint `{base_name}` does not match the content this delta \
                 was written against (it was overwritten since)"
            )));
        }
        let mut base_r = WireReader::new(base_bytes);
        let mut delta_r = WireReader::new(bytes);
        let heap = Heap::decode_delta_image(
            &mut base_r,
            &mut delta_r,
            ImageCodec::of_version(base.format_version),
            ImageCodec::of_version(self.format_version),
            config,
        )?;
        for (r, what) in [(&base_r, "base"), (&delta_r, "delta")] {
            if !r.is_empty() {
                return Err(RuntimeError::MigrationRejected(format!(
                    "{what} heap image has {} trailing bytes",
                    r.remaining()
                )));
            }
        }
        Ok(heap)
    }

    /// The image's heap-payload `(raw, stored)` wire sizes: `stored` is
    /// the payload's byte length; for v5 payloads `raw` expands every
    /// compressed slab frame to its declared raw length (frame headers
    /// only — nothing is decompressed).  Pre-v5 payloads carry no
    /// compression, so both sides equal the byte length.  Used by the
    /// asynchronous pipeline's byte accounting.
    pub fn heap_payload_wire_stats(&self) -> (u64, u64) {
        let image = &self.heap_image;
        payload_wire_sizes(self.format_version, image.bytes(), image.is_delta())
    }

    /// Materialise a delta image into an equivalent self-contained full
    /// image by applying it to `base`.  The resulting image decodes
    /// anywhere a freshly packed one does.
    ///
    /// A delta that references its base's code resumes with that code,
    /// shared with `base`, once its fingerprint matches: a base overwritten
    /// by a different program is a precise error, never a wrong program.
    pub fn resolve_delta(&self, base: &MigrationImage) -> Result<MigrationImage, RuntimeError> {
        let Some(base_name) = self.heap_image.base() else {
            return Ok(self.clone());
        };
        let code = match (&self.code, &base.code) {
            (ImageCode::Inline(code), _) => code.clone(),
            (ImageCode::Base { fingerprint }, ImageCode::Inline(code))
                if code.fingerprint() == *fingerprint =>
            {
                code.clone()
            }
            (ImageCode::Base { fingerprint }, _) => {
                return Err(RuntimeError::MigrationRejected(format!(
                    "base checkpoint `{base_name}` does not carry the code this delta \
                     was written against (code fingerprint {fingerprint:#018x})"
                )))
            }
        };
        let mut heap = self.decode_heap_with_base(base, HeapConfig::default())?;
        let (heap_image, _) = HeapImage::encode(&heap.freeze(), CodecSet::all(), None)?;
        Ok(MigrationImage {
            format_version: FORMAT_VERSION,
            source_arch: self.source_arch.clone(),
            code: ImageCode::Inline(code),
            heap_image,
            migrate_env: self.migrate_env,
            resume_fun: self.resume_fun,
            label: self.label,
            open_speculations: self.open_speculations,
        })
    }
}

/// The rejection of a delta used without its base.
fn needs_base(base: &str) -> RuntimeError {
    RuntimeError::MigrationRejected(format!(
        "delta image needs its base checkpoint `{base}` to decode"
    ))
}

/// Write one section: framed (tag, u32 length, body) or, in the v1
/// layout, a bare tag followed by the body.
fn section(w: &mut WireWriter, framed: bool, tag: SectionTag, body: impl FnOnce(&mut WireWriter)) {
    if framed {
        body(&mut w.begin_section(tag));
    } else {
        w.write_section(tag);
        body(w);
    }
}

/// A migration image together with the protocol and target it was packed
/// for — the unit the cluster transport moves between nodes.
#[derive(Debug, Clone)]
pub struct PackedProcess {
    /// The protocol parsed from the target string.
    pub protocol: MigrateProtocol,
    /// The target (node name or checkpoint path, without the scheme).
    pub target: String,
    /// Serialised image bytes.
    pub bytes: Vec<u8>,
}

impl PackedProcess {
    /// Decode the carried image.
    pub fn image(&self) -> Result<MigrationImage, WireError> {
        MigrationImage::from_bytes(&self.bytes)
    }
}

/// What happened when an image was handed to a [`MigrationSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The process now runs elsewhere; the local copy must terminate.
    Migrated,
    /// The image was durably stored (checkpoint/suspend file written).
    Stored,
    /// Delivery failed; the process continues on the source machine
    /// (paper: "if migration fails for any reason, the process will continue
    /// to execute on the original machine").
    Failed(String),
}

impl DeliveryOutcome {
    /// Stable numeric code used in flight-recorder event payloads
    /// (0 stored, 1 migrated, 3 failed; 2 is retired).
    pub fn obs_code(&self) -> u64 {
        match self {
            DeliveryOutcome::Stored => 0,
            DeliveryOutcome::Migrated => 1,
            DeliveryOutcome::Failed(_) => 3,
        }
    }
}

/// A process checkpoint captured up to — but not including — the expensive
/// encode: the code section, resume metadata and a **zero-pause
/// [`HeapSnapshot`]** of the heap ([`crate::Process::pack_snapshot`]).
///
/// Every pack goes through one.  Producing it costs O(pointer-table);
/// turning it into a [`MigrationImage`] ([`SnapshotPack::into_image`] —
/// codec choice, slab staging, compression) is the expensive half.  A
/// synchronous pack runs it at once; the asynchronous checkpoint pipeline
/// moves it off the mutator thread, to a worker that runs it concurrently
/// with the mutator.
#[derive(Debug)]
pub struct SnapshotPack {
    /// The codecs negotiated with the sink for the heap image's slab
    /// frames.
    pub codecs: CodecSet,
    /// Architecture tag of the packing machine.
    pub source_arch: String,
    /// The FIR code section, shared with the
    /// process and with every image it packs: neither the freeze nor
    /// [`SnapshotPack::into_image`] clones the program, and a delta
    /// carries only its fingerprint.
    pub code: CodeSection,
    /// The frozen heap.
    pub heap: HeapSnapshot,
    /// `Some((base, fingerprint))` to encode an incremental delta against
    /// that stored full checkpoint; `None` for a full image.
    pub delta_base: Option<(String, u64)>,
    /// Pointer to the `migrate_env` block holding the live variables.
    pub migrate_env: PtrIdx,
    /// The continuation to call on resume.
    pub resume_fun: Word,
    /// The migration label identifying the call site.
    pub label: u32,
    /// Speculation levels open at pack time (informational).
    pub open_speculations: u32,
    /// Nanoseconds the mutator spent in [`mojave_heap::Heap::freeze`] —
    /// the pause this pack actually cost, accounted into
    /// [`PipelineStats::pause_ns`].
    pub freeze_ns: u64,
    /// For full checkpoints taken with deltas on: a slot
    /// [`SnapshotPack::into_image`] fills with the heap payload's
    /// fingerprint — the value the process's next delta checkpoints pin
    /// their base with once this one's delivery answers `Stored`.  A
    /// synchronous pack fills it before delivery; an asynchronous one
    /// fills it whenever its worker encodes, and until then the process
    /// falls back to full images.
    pub fingerprint_slot: Option<Arc<OnceLock<u64>>>,
}

impl SnapshotPack {
    /// Run the encode: serialise the frozen heap (full or delta) in the
    /// negotiated codecs and assemble the [`MigrationImage`].  Fills
    /// [`SnapshotPack::fingerprint_slot`] for full images.  This is the
    /// expensive half, which a synchronous pack runs at once and a
    /// pipeline worker runs off-thread; the error case
    /// ([`mojave_heap::HeapError::NoCleanPoint`]) is unreachable when the
    /// pack came from [`crate::Process::pack_snapshot`], which validates
    /// the clean point.
    pub fn into_image(self) -> Result<MigrationImage, RuntimeError> {
        self.into_image_counted().map(|(image, _)| image)
    }

    /// [`SnapshotPack::into_image`], also returning how many heap-payload
    /// bytes were copied from earlier images instead of encoded — what
    /// [`PipelineStats::bytes_reused`] sums.
    pub fn into_image_counted(self) -> Result<(MigrationImage, u64), RuntimeError> {
        let (heap_image, reused) = HeapImage::encode(&self.heap, self.codecs, self.delta_base)?;
        if let Some(slot) = &self.fingerprint_slot {
            if !heap_image.is_delta() {
                let _ = slot.set(heap_image.fingerprint());
            }
        }
        let image = MigrationImage {
            format_version: FORMAT_VERSION,
            source_arch: self.source_arch,
            code: ImageCode::packed(self.code, &heap_image),
            heap_image,
            migrate_env: self.migrate_env,
            resume_fun: self.resume_fun,
            label: self.label,
            open_speculations: self.open_speculations,
        };
        Ok((image, reused))
    }
}

/// Counters of an asynchronous checkpoint pipeline, exposed through
/// [`MigrationSink::pipeline_stats`].  All byte counters refer to the
/// heap payload of the images the pipeline produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Nanoseconds the **mutator** was blocked across all submissions:
    /// heap freezes plus any time spent waiting on a full queue.  The
    /// number the zero-pause design minimises.
    pub pause_ns: u64,
    /// Nanoseconds pipeline workers spent encoding images off-thread —
    /// the cost that used to be part of the mutator's pause.  Summed
    /// across workers: with several encodes running at once it is CPU
    /// time, not elapsed time, and can exceed the wall clock.
    pub encode_ns: u64,
    /// Checkpoints currently queued (not yet picked up by a worker).
    pub queue_depth: usize,
    /// High-water mark of the queue: the deepest the queue ever got at a
    /// submit.  `queue_depth` is almost always 0 by the time anyone reads
    /// it (workers drain fast); this is the number that shows whether
    /// backpressure ever actually built up.  Jobs a worker has taken are
    /// not counted, so it never exceeds the configured capacity.
    pub queue_depth_max: usize,
    /// Heap-payload bytes of produced images with every compressed frame
    /// expanded to its raw length.
    pub bytes_raw: u64,
    /// Heap-payload bytes actually put on the wire.
    pub bytes_stored: u64,
    /// Of `bytes_stored`, the bytes copied from an earlier image that
    /// still held them — long columns not written since — instead of
    /// encoded.
    pub bytes_reused: u64,
    /// Checkpoints submitted to the pipeline.
    pub submitted: u64,
    /// Checkpoints fully encoded and delivered (or failed trying),
    /// counted in submit order — deliveries never overtake each other.
    /// After a drain it equals `submitted`: the pipeline drops nothing.
    pub completed: u64,
    /// Deliveries that failed (encode error or sink failure).
    pub failed: u64,
}

/// Where packed images go: checkpoint files, a migration daemon on another
/// node, etc.
pub trait MigrationSink {
    /// Deliver an image according to the protocol.
    fn deliver(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> DeliveryOutcome;

    /// Base-image negotiation: whether the checkpoint named `base` is still
    /// available on this sink's storage **with the expected heap content**
    /// (`base_fingerprint`), i.e. whether a delta against it could be
    /// resolved later.  Matching by name alone is not enough — another
    /// writer may have replaced the name with a different image, and a
    /// delta stored against it would be dead on arrival.  A process only
    /// emits delta checkpoints when the sink answers `true`; the default
    /// (`false`) makes every checkpoint a full image.
    fn has_base(&self, _base: &str, _base_fingerprint: u64) -> bool {
        false
    }

    /// Codec negotiation: the slab-compression codecs this sink accepts
    /// in heap payloads.  The default is [`CodecSet::all`]; a sink that
    /// advertises less still receives v5 images, whose slab frames stay
    /// within its set — `{Raw}` means frames that are all Raw.
    fn accepted_codecs(&self) -> CodecSet {
        CodecSet::all()
    }

    /// Deliver a checkpoint whose expensive encode has been **deferred**:
    /// the caller froze the heap ([`SnapshotPack`]) and hands the encode +
    /// delivery to the sink.  The default implementation encodes inline
    /// and delivers synchronously — [`SnapshotPack::into_image`] then
    /// [`MigrationSink::deliver`], the very calls a synchronous checkpoint
    /// makes, so the bytes are the same.  An asynchronous sink
    /// (`mojave-runtime`'s `AsyncSink`) overrides this to enqueue the pack
    /// for a worker thread and return immediately.
    fn deliver_deferred(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        pack: SnapshotPack,
    ) -> DeliveryOutcome {
        match pack.into_image() {
            Ok(image) => self.deliver(protocol, target, &image),
            Err(e) => DeliveryOutcome::Failed(format!("deferred encode failed: {e}")),
        }
    }

    /// Block until every deferred delivery previously accepted by this
    /// sink is durably completed.  A no-op for synchronous sinks.
    /// [`crate::Process::run`] calls this before returning, so checkpoints
    /// a finished (or crashed) process reported as stored are actually
    /// resolvable by a resurrection daemon.
    fn flush(&mut self) {}

    /// Statistics of the asynchronous pipeline behind this sink, if any.
    fn pipeline_stats(&self) -> Option<PipelineStats> {
        None
    }
}

/// On-wire size accounting for a [`CheckpointStore`]: the bytes images
/// would occupy with every slab frame stored raw vs. the bytes actually
/// stored, aggregated over the images currently present.  Computed from
/// frame headers alone (nothing is decompressed), so compression is
/// *observable*, not inferred.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of images currently stored.
    pub images: usize,
    /// Number of distinct code sections (programs) the store holds, each
    /// once for every stored image that names it.
    pub code_sections: usize,
    /// Total size with every compressed frame expanded to its raw length.
    pub raw_bytes: u64,
    /// Total size actually stored: every image's stored bytes plus each
    /// held code section's framed bytes, counted once.
    pub stored_bytes: u64,
    /// Cumulative nanoseconds spent in [`CheckpointStore::put`] and
    /// [`CheckpointStore::put_image`] — the store-side ingest cost
    /// (frame-header accounting plus the map insert), over the store's
    /// lifetime (not reduced by `remove`).  Together with
    /// [`PipelineStats`]' pause/encode split this completes the checkpoint
    /// time accounting end to end.
    pub put_ns: u64,
}

impl StoreStats {
    /// Aggregate compression ratio, `stored / raw` (1.0 when the store is
    /// empty or nothing is compressed; lower is better).
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            1.0
        } else {
            self.stored_bytes as f64 / self.raw_bytes as f64
        }
    }

    /// Bytes the slab compression saved across the stored images.
    pub fn saved_bytes(&self) -> u64 {
        self.raw_bytes.saturating_sub(self.stored_bytes)
    }
}

/// One stored entry.
#[derive(Debug)]
struct Entry {
    /// What was stored.
    stored: Stored,
    /// The code this entry names in the store's code table.
    code: EntryCode,
    /// `(raw, stored)` wire sizes of the bytes a read of this entry
    /// returns, with a program the store holds counted as its 13-byte
    /// `CodeRef`, so [`CheckpointStore::stats`] is a cheap sum.
    sizes: (u64, u64),
    /// The heap-payload fingerprint, computed on first ask — keeps
    /// delta-base negotiation O(1) per checkpoint instead of hashing the
    /// base payload every time.  A rewrite of the name replaces the entry,
    /// and with it this cache.
    fingerprint: Option<u64>,
}

/// The contents of an [`Entry`], cloned — never copied — so readers
/// serialise, parse or hash them after the lock is released.
#[derive(Debug, Clone)]
enum Stored {
    /// The bytes of a raw [`CheckpointStore::put`], verbatim.  An
    /// `Arc<Vec<u8>>`, not an `Arc<[u8]>`: `put` moves the caller's buffer
    /// in instead of copying it.
    Blob(Arc<Vec<u8>>),
    /// An image [`CheckpointStore::put_image`] stored, never serialised:
    /// its small decoded sections, its heap payload shared with the image
    /// that was delivered, and [`ImageCode::Base`] in the program's place
    /// where the store holds the program.
    Image(MigrationImage),
}

/// How a stored entry relates to the store's code table.
#[derive(Debug, Clone, Copy)]
enum EntryCode {
    /// Nothing held: a raw [`CheckpointStore::put`], a v1 image, or a
    /// delta whose code the store does not hold.
    Own,
    /// A delta whose `CodeRef` names code the store holds; the entry keeps
    /// a reference on it.
    Names(u64),
    /// A full image whose code the store holds: the entry's image names
    /// it by [`ImageCode::Base`] in the program's place.
    Shared(u64),
}

/// A code section the store holds once, with the number of entries that
/// hold a reference on it.
#[derive(Debug)]
struct HeldCode {
    section: CodeSection,
    refs: usize,
}

#[derive(Debug, Default)]
struct StoreInner {
    /// Sorted by name, so [`CheckpointStore::names`] needs no sort.
    images: BTreeMap<String, Entry>,
    /// Every program a stored image names, by
    /// [`CodeSection::fingerprint`]: dropped with the last entry naming it.
    codes: BTreeMap<u64, HeldCode>,
    /// Bumped by every `put`/`remove`; fingerprints computed outside the
    /// lock are only cached if no write landed in between, so a concurrent
    /// overwrite can never pin a stale entry.
    generation: u64,
    /// Cumulative time spent in `put` and `put_image` (see
    /// [`StoreStats::put_ns`]).
    put_ns: u64,
}

impl StoreInner {
    /// Take a reference on `code`, keeping the section (shared, not
    /// copied) if this is the first entry to name it.
    fn hold(&mut self, code: &CodeSection) -> EntryCode {
        let fingerprint = code.fingerprint();
        self.codes
            .entry(fingerprint)
            .or_insert_with(|| HeldCode {
                section: code.clone(),
                refs: 0,
            })
            .refs += 1;
        EntryCode::Shared(fingerprint)
    }

    /// Take a reference on the code `fingerprint` names, if it is held.
    fn name(&mut self, fingerprint: u64) -> EntryCode {
        match self.codes.get_mut(&fingerprint) {
            Some(held) => {
                held.refs += 1;
                EntryCode::Names(fingerprint)
            }
            None => EntryCode::Own,
        }
    }

    /// Drop `code`'s reference, and the section with its last one.
    fn release(&mut self, code: EntryCode) {
        let (EntryCode::Names(fingerprint) | EntryCode::Shared(fingerprint)) = code else {
            return;
        };
        if let Some(held) = self.codes.get_mut(&fingerprint) {
            held.refs -= 1;
            if held.refs == 0 {
                self.codes.remove(&fingerprint);
            }
        }
    }

    /// Store (replace) `name`'s entry, releasing the code of the one it
    /// replaces.
    fn insert(&mut self, name: &str, entry: Entry, start: Instant) {
        self.generation += 1;
        if let Some(old) = self.images.insert(name.to_owned(), entry) {
            self.release(old.code);
        }
        self.put_ns += start.elapsed().as_nanos() as u64;
    }
}

/// A named store of checkpoint images — the stand-in for the paper's
/// "reliable and distributed storage medium" (their cluster used an NFS
/// mount).  Cloning shares the underlying store, so tests and the cluster's
/// resurrection daemon can read what processes wrote.
///
/// Images are stored without a copy, and code is stored once.  Every
/// image handed to [`CheckpointStore::put_image`] is kept as the image
/// itself, sharing the heap payload its encoder wrote ([`HeapImage`]),
/// and a full image is kept with a reference in place of its program.
/// The store keeps each distinct program once, keyed by
/// [`CodeSection::fingerprint`], for as long as an entry names it.  No
/// such reference leaves the store: [`CheckpointStore::get`] returns the
/// bytes [`MigrationImage::to_bytes`] writes, and
/// [`CheckpointStore::load_raw`] the image with its code inline.  Raw
/// [`CheckpointStore::put`] blobs are kept verbatim.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    inner: Arc<Mutex<StoreInner>>,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("checkpoint store lock")
    }

    /// The named entry's contents, with the program the store holds for
    /// a full image bound in its `CodeRef`'s place: readers copy or parse
    /// them after the lock is released.  Absent code (which the reference
    /// counts rule out) is a rejection, never a wrong program.
    fn shared(&self, name: &str) -> Result<Stored, RuntimeError> {
        let inner = self.lock();
        let entry = inner.images.get(name).ok_or_else(|| {
            RuntimeError::MigrationRejected(format!("no checkpoint named `{name}`"))
        })?;
        let mut stored = entry.stored.clone();
        if let (EntryCode::Shared(fingerprint), Stored::Image(image)) = (entry.code, &mut stored) {
            let held = inner.codes.get(&fingerprint).ok_or_else(|| {
                RuntimeError::MigrationRejected(format!(
                    "checkpoint `{name}` names code {fingerprint:#018x} \
                     that the store does not hold"
                ))
            })?;
            image.code = ImageCode::Inline(held.section.clone());
        }
        Ok(stored)
    }

    /// Atomically store (replace) a named blob, verbatim.
    pub fn put(&self, name: &str, bytes: Vec<u8>) {
        let start = Instant::now();
        // Every byte counts toward `stored`; the heap payload's compressed
        // frames count their declared raw length toward `raw` instead.
        // Frame headers only — no decompression, no allocation.
        let stored = bytes.len() as u64;
        let sizes = heap_section(&bytes).map_or((stored, stored), |(version, payload, delta)| {
            let (raw, payload_stored) = payload_wire_sizes(version, payload, delta);
            (stored - payload_stored + raw, stored)
        });
        let entry = Entry {
            stored: Stored::Blob(Arc::new(bytes)),
            code: EntryCode::Own,
            sizes,
            fingerprint: None,
        };
        self.lock().insert(name, entry, start);
    }

    /// Atomically store (replace) a named image, keeping its code once.
    ///
    /// The entry keeps the image itself, sharing its heap payload: nothing
    /// is serialised, and its wire sizes are counted from section lengths.
    /// A framed full image is kept with an [`ImageCode::Base`] in place of
    /// its program, and the store takes a reference on the program's
    /// [`CodeSection`] (the image's own, shared, if the store did not hold
    /// it yet).  A delta, which names its base's code already, takes a
    /// reference on that code if the store holds it.  A v1 image, which
    /// cannot express a reference, keeps its program.  Reads see no
    /// difference from `put(name, image.to_bytes())`.
    pub fn put_image(&self, name: &str, image: &MigrationImage) {
        let start = Instant::now();
        let shared = match &image.code {
            ImageCode::Inline(code) if image.layout().1 && !image.heap_image.is_delta() => {
                Some(code)
            }
            _ => None,
        };
        let mut kept = image.clone();
        if let Some(code) = shared {
            kept.code = ImageCode::Base {
                fingerprint: code.fingerprint(),
            };
        }
        let stored = kept.byte_size() as u64;
        let (raw, payload_stored) = kept.heap_payload_wire_stats();
        let mut inner = self.lock();
        let code = match (shared, &image.code) {
            (Some(code), _) => inner.hold(code),
            (None, ImageCode::Base { fingerprint }) => inner.name(*fingerprint),
            (None, ImageCode::Inline(_)) => EntryCode::Own,
        };
        let entry = Entry {
            stored: Stored::Image(kept),
            code,
            sizes: (stored - payload_stored + raw, stored),
            fingerprint: None,
        };
        inner.insert(name, entry, start);
    }

    /// Fetch a named image: the bytes `put` stored, or the bytes
    /// [`MigrationImage::to_bytes`] writes for an image `put_image`
    /// stored, with its code inline.  `None` if the name is absent.
    pub fn get(&self, name: &str) -> Option<Vec<u8>> {
        Some(match self.shared(name).ok()? {
            Stored::Blob(bytes) => bytes.to_vec(),
            Stored::Image(image) => image.to_bytes(),
        })
    }

    /// Whether an image is stored under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.lock().images.contains_key(name)
    }

    /// The [`mojave_wire::fingerprint`] of the named image's heap payload,
    /// or `None` if the name is absent or undecodable.  Cached until the
    /// name is rewritten; this is the sink-side half of delta-base
    /// negotiation ([`MigrationSink::has_base`]).
    pub fn heap_fingerprint(&self, name: &str) -> Option<u64> {
        let (stored, generation) = {
            let inner = self.lock();
            let entry = inner.images.get(name)?;
            if let Some(cached) = entry.fingerprint {
                return Some(cached);
            }
            (entry.stored.clone(), inner.generation)
        };
        // Hash outside the lock — payloads can be megabytes.
        let fingerprint = match stored {
            Stored::Blob(bytes) => heap_payload_fingerprint(&bytes)?,
            Stored::Image(image) => image.heap_image.fingerprint(),
        };
        self.cache_fingerprint(name, generation, fingerprint);
        Some(fingerprint)
    }

    /// Cache `fingerprint`, computed from `name`'s bytes as of
    /// `generation`, unless a write landed since: a concurrent `put` must
    /// not leave a stale fingerprint pinned under the new content.
    fn cache_fingerprint(&self, name: &str, generation: u64, fingerprint: u64) {
        let mut inner = self.lock();
        if inner.generation == generation {
            if let Some(entry) = inner.images.get_mut(name) {
                entry.fingerprint = Some(fingerprint);
            }
        }
    }

    /// Load and decode a named image.
    ///
    /// Delta checkpoints are resolved transparently: the base image is
    /// fetched from this store, the delta applied and, for a delta that
    /// references its base's code, the base's code taken once its
    /// fingerprint matches — so callers always receive a self-contained
    /// full image.  A missing or itself-delta base is an error (the
    /// writer only deltas against full images it stored here).
    ///
    /// A full image stored by [`CheckpointStore::put_image`] comes back
    /// with the program the store holds for it, shared, never decoded
    /// again; the fingerprint check a delta's code gets then sees the same
    /// section the base was packed with.
    ///
    /// Resolution materialises the merged heap back into image bytes that
    /// the caller typically decodes once more (`Process::from_image`) —
    /// one redundant codec round trip, accepted deliberately: loads happen
    /// on the rare resume/recovery path, and "load returns a
    /// self-contained image" keeps every consumer delta-oblivious.
    pub fn load(&self, name: &str) -> Result<MigrationImage, RuntimeError> {
        let image = self.load_raw(name)?;
        match image.heap_image.base() {
            None => Ok(image),
            Some(base_name) => {
                let base = self.load_raw(base_name).map_err(|e| {
                    RuntimeError::MigrationRejected(format!(
                        "checkpoint `{name}` is a delta but its base `{base_name}` \
                         is unusable: {e}"
                    ))
                })?;
                image.resolve_delta(&base)
            }
        }
    }

    /// Load a named image without resolving delta payloads: an image
    /// [`CheckpointStore::put_image`] stored comes back as it was put,
    /// sharing its heap payload, with nothing parsed; the bytes of a raw
    /// `put` are decoded.
    pub fn load_raw(&self, name: &str) -> Result<MigrationImage, RuntimeError> {
        match self.shared(name)? {
            Stored::Blob(bytes) => Ok(MigrationImage::from_bytes(&bytes)?),
            Stored::Image(image) => Ok(image),
        }
    }

    /// Names of all stored images, sorted.
    pub fn names(&self) -> Vec<String> {
        self.lock().images.keys().cloned().collect()
    }

    /// Number of stored images.
    pub fn len(&self) -> usize {
        self.lock().images.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove a named image, returning whether it existed.  A program no
    /// other entry names goes with it.
    pub fn remove(&self, name: &str) -> bool {
        let mut inner = self.lock();
        inner.generation += 1;
        let Some(entry) = inner.images.remove(name) else {
            return false;
        };
        inner.release(entry.code);
        true
    }

    /// Aggregate on-wire size accounting over the stored images and the
    /// code they share.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        let mut stats = StoreStats {
            images: inner.images.len(),
            code_sections: inner.codes.len(),
            put_ns: inner.put_ns,
            ..StoreStats::default()
        };
        for (raw, stored) in inner.images.values().map(|entry| entry.sizes) {
            stats.raw_bytes += raw;
            stats.stored_bytes += stored;
        }
        for held in inner.codes.values() {
            // Tag, u32 length, body: the section as `to_bytes` frames it.
            let framed = (1 + 4 + held.section.body().len()) as u64;
            stats.raw_bytes += framed;
            stats.stored_bytes += framed;
        }
        stats
    }

    /// The `(raw, stored)` wire sizes of one stored image, or `None` if
    /// the name is absent.  An image stored by reference counts its
    /// 13-byte `CodeRef`, not the program the store shares.
    pub fn image_sizes(&self, name: &str) -> Option<(u64, u64)> {
        self.lock().images.get(name).map(|entry| entry.sizes)
    }

    /// Forget the code `fingerprint` while entries still name it — what
    /// a store that lost it would hold.
    #[cfg(test)]
    fn lose_code(&self, fingerprint: u64) -> bool {
        self.lock().codes.remove(&fingerprint).is_some()
    }
}

/// The heap section of a raw [`CheckpointStore::put`] blob holding a
/// framed image (v2 on), read zero-copy: the header's version, the heap
/// payload and whether it is a delta.  The code section is skipped by its
/// frame length, never decoded.  `None` for a v1 image, whose unframed
/// sections cannot be skipped, and for bytes that do not parse as an
/// image (the store accepts arbitrary blobs).
fn heap_section(bytes: &[u8]) -> Option<(u32, &[u8], bool)> {
    let mut r = WireReader::new(bytes);
    let version = r.read_header().ok()?.version;
    if version <= MIN_SUPPORTED_VERSION {
        return None;
    }
    let _code = r.read_framed().ok()?;
    let mut heap = r.read_framed().ok()?;
    let delta = match heap.tag() {
        SectionTag::HeapBlocks => false,
        SectionTag::HeapDelta => {
            heap.read_str().ok()?;
            heap.read_u64().ok()?;
            true
        }
        _ => return None,
    };
    Some((version, heap.read_bytes().ok()?, delta))
}

/// The `(raw, stored)` wire sizes of a heap payload in an image of wire
/// format `version`: `stored` is its byte length; for v5 payloads `raw`
/// expands every compressed slab frame to its declared raw length (frame
/// headers only — nothing is decompressed).  Older payloads, and ones that
/// do not parse, carry no compression: both sides equal the byte length.
fn payload_wire_sizes(version: u32, payload: &[u8], delta: bool) -> (u64, u64) {
    let stored = payload.len() as u64;
    let slab = ImageCodec::of_version(version) == ImageCodec::Slab;
    match slab.then(|| image_payload_stats(payload, delta)) {
        Some(Ok(stats)) => (stats.raw_bytes, stats.stored_bytes),
        _ => (stored, stored),
    }
}

/// Fingerprint the heap payload of a raw blob's encoded image without
/// decoding the whole image ([`heap_section`]); v1 images fall back to a
/// full decode.
/// Returns `None` for undecodable bytes.
fn heap_payload_fingerprint(bytes: &[u8]) -> Option<u64> {
    if let Some((_, payload, _)) = heap_section(bytes) {
        return Some(mojave_wire::fingerprint(payload));
    }
    let version = WireReader::new(bytes).read_header().ok()?.version;
    let image = (version <= MIN_SUPPORTED_VERSION).then(|| MigrationImage::from_bytes(bytes));
    Some(image?.ok()?.heap_image.fingerprint())
}

/// The default sink for standalone processes: checkpoints and suspends go to
/// a [`CheckpointStore`]; `migrate://` targets fail (there is no cluster),
/// so the process keeps running locally, as the paper specifies.
#[derive(Debug, Clone, Default)]
pub struct InMemorySink {
    store: CheckpointStore,
}

impl InMemorySink {
    /// A sink writing into a fresh store.
    pub fn new() -> Self {
        InMemorySink::default()
    }

    /// A sink writing into an existing (shared) store.
    pub fn with_store(store: CheckpointStore) -> Self {
        InMemorySink { store }
    }

    /// The backing store.
    pub fn store(&self) -> CheckpointStore {
        self.store.clone()
    }
}

impl MigrationSink for InMemorySink {
    fn deliver(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> DeliveryOutcome {
        match protocol {
            MigrateProtocol::Checkpoint | MigrateProtocol::Suspend => {
                self.store.put_image(target, image);
                DeliveryOutcome::Stored
            }
            MigrateProtocol::Migrate => DeliveryOutcome::Failed(
                "no migration server reachable from a standalone process".to_owned(),
            ),
        }
    }

    fn has_base(&self, base: &str, base_fingerprint: u64) -> bool {
        self.store.heap_fingerprint(base) == Some(base_fingerprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mojave_fir::builder::{term, ProgramBuilder};
    use mojave_heap::BlockData;

    /// The heap payload of `heap`, full or a delta against `delta_base`,
    /// encoded from a freeze as every pack encodes it.
    fn payload(heap: &mut Heap, delta_base: Option<(&str, u64)>) -> HeapImage {
        let delta_base = delta_base.map(|(base, fp)| (base.to_owned(), fp));
        HeapImage::encode(&heap.freeze(), CodecSet::all(), delta_base)
            .unwrap()
            .0
    }

    /// A program whose `main` halts with `code`.
    fn halting(code: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let (main, _) = pb.declare("main", &[]);
        pb.define(main, term::halt(code));
        pb.set_entry(main);
        pb.finish()
    }

    fn tiny_image() -> MigrationImage {
        let program = halting(0);

        let mut heap = Heap::new();
        let env = heap.alloc_migrate_env(vec![Word::Int(5)]).unwrap();

        MigrationImage {
            format_version: FORMAT_VERSION,
            source_arch: "ia32-sim".into(),
            code: program.into(),
            heap_image: payload(&mut heap, None),
            migrate_env: env,
            resume_fun: Word::Fun(0),
            label: 3,
            open_speculations: 0,
        }
    }

    /// The same process state in the legacy v1 layout (per-word heap,
    /// unframed sections) — what a pre-batched runtime would have stored.
    fn tiny_image_v1() -> MigrationImage {
        let mut image = tiny_image();
        let heap = image.decode_heap(HeapConfig::default()).unwrap();
        image.format_version = MIN_SUPPORTED_VERSION;
        image.heap_image = HeapImage::Full(v1_heap_image(&heap).into());
        image
    }

    /// A v1 (per-word) heap payload, written from public API: table
    /// capacity, used count, then each used entry's index and its block —
    /// index, kind, a representation byte and the per-word payload.  Only
    /// decoders read v1.
    fn v1_heap_image(heap: &Heap) -> Vec<u8> {
        let table = heap.pointer_table();
        let mut w = WireWriter::new();
        w.write_usize(table.capacity());
        w.write_usize(table.live());
        for (idx, _) in table.iter_used() {
            let block = heap.block(idx).unwrap();
            w.write_uvarint(idx.0 as u64);
            w.write_uvarint(block.header.index.0 as u64);
            block.header.kind.encode(&mut w);
            match &block.data {
                BlockData::Words(words) => {
                    w.write_u8(0);
                    words.to_vec().encode(&mut w);
                }
                BlockData::Bytes(bytes) => {
                    w.write_u8(1);
                    w.write_bytes(bytes);
                }
            }
        }
        w.into_bytes()
    }

    #[test]
    fn image_roundtrip() {
        let image = tiny_image();
        let bytes = image.to_bytes();
        let back = MigrationImage::from_bytes(&bytes).unwrap();
        assert_eq!(back, image);
        assert_eq!(back.byte_size(), bytes.len());
    }

    /// The code section is encoded once per [`CodeSection`] and spliced from
    /// then on.  The bytes with the cached body equal the bytes without it,
    /// and both hold exactly the frame a writer encoding in place produces.
    #[test]
    fn cached_code_section_splices_the_bytes_encoding_in_place_writes() {
        let image = tiny_image();
        // What the writer produced before there was a cache.
        let mut in_place = WireWriter::new();
        in_place.write_header_versioned(&image.source_arch, FORMAT_VERSION);
        let header_len = in_place.len();
        let code = image.code.inline().unwrap();
        code.encode(&mut in_place.begin_section(SectionTag::FirProgram));
        let in_place = in_place.into_bytes();
        assert!(in_place.len() > header_len + 5);

        let uncached = MigrationImage {
            code: Program::clone(code).into(),
            ..image.clone()
        };
        let first = image.to_bytes(); // encodes the body
        let second = image.to_bytes(); // splices it
        assert_eq!(first, second);
        assert_eq!(first, uncached.to_bytes());
        assert_eq!(first[..in_place.len()], in_place[..]);

        let back = MigrationImage::from_bytes(&first).unwrap();
        assert_eq!(back, image);
        assert_eq!(back.to_bytes(), first);
        assert!(!CodeSection::ptr_eq(back.code.inline().unwrap(), code));
        assert!(CodeSection::ptr_eq(
            image.clone().code.inline().unwrap(),
            code
        ));
    }

    /// `byte_size` counts what `to_bytes` writes, in every layout, from
    /// the section lengths alone.
    #[test]
    fn byte_size_counts_the_serialised_image() {
        let full = tiny_image();
        let inline_delta = MigrationImage {
            heap_image: HeapImage::Delta {
                base: "ck-base".into(),
                base_fingerprint: full.heap_image.fingerprint(),
                bytes: vec![7; 300].into(), // a two-byte length prefix
            },
            ..full.clone()
        };
        let by_reference = MigrationImage {
            code: ImageCode::Base {
                fingerprint: full.code.fingerprint(),
            },
            ..inline_delta.clone()
        };
        // Edited into what v1 cannot express: written framed instead.
        let legacy_by_reference = MigrationImage {
            format_version: MIN_SUPPORTED_VERSION,
            ..by_reference.clone()
        };
        for image in [
            tiny_image_v1(),
            full,
            inline_delta,
            by_reference,
            legacy_by_reference,
        ] {
            assert_eq!(image.byte_size(), image.to_bytes().len(), "{image:?}");
        }
    }

    #[test]
    fn v1_image_roundtrip_and_heap_decode() {
        let image = tiny_image_v1();
        let bytes = image.to_bytes();
        let back = MigrationImage::from_bytes(&bytes).unwrap();
        assert_eq!(back, image);
        assert_eq!(back.format_version, MIN_SUPPORTED_VERSION);
        // Re-serialising a decoded v1 image is byte-faithful.
        assert_eq!(back.to_bytes(), bytes);
        let heap = back.decode_heap(HeapConfig::default()).unwrap();
        assert_eq!(heap.load(back.migrate_env, 0).unwrap(), Word::Int(5));
    }

    #[test]
    fn sliced_heap_fingerprint_matches_full_decode() {
        for image in [tiny_image(), tiny_image_v1()] {
            let bytes = image.to_bytes();
            assert_eq!(
                heap_payload_fingerprint(&bytes),
                Some(image.heap_image.fingerprint())
            );
        }
        assert_eq!(heap_payload_fingerprint(&[1, 2, 3]), None);
    }

    #[test]
    fn delta_image_roundtrip_and_resolution() {
        let base = tiny_image();
        let mut heap = base.decode_heap(HeapConfig::default()).unwrap();
        heap.mark_clean();
        let extra = heap.alloc_array(3, Word::Int(8)).unwrap();
        let base_fingerprint = base.heap_image.fingerprint();
        let delta = MigrationImage {
            heap_image: payload(&mut heap, Some(("ck-base", base_fingerprint))),
            ..base.clone()
        };

        // Wire round trip preserves the delta payload.
        let back = MigrationImage::from_bytes(&delta.to_bytes()).unwrap();
        assert_eq!(back, delta);
        assert_eq!(back.heap_image.base(), Some("ck-base"));

        // Standalone decode refuses; resolution against the base succeeds.
        assert!(back.decode_heap(HeapConfig::default()).is_err());
        let merged = back
            .decode_heap_with_base(&base, HeapConfig::default())
            .unwrap();
        assert_eq!(merged.load(extra, 0).unwrap(), Word::Int(8));
        assert_eq!(merged.load(base.migrate_env, 0).unwrap(), Word::Int(5));

        let resolved = back.resolve_delta(&base).unwrap();
        assert!(!resolved.heap_image.is_delta());
        let heap2 = resolved.decode_heap(HeapConfig::default()).unwrap();
        assert_eq!(heap2.snapshot(), merged.snapshot());
    }

    #[test]
    fn checkpoint_store_resolves_delta_chains_on_load() {
        let store = CheckpointStore::new();
        let base = tiny_image();
        store.put("ck-0", base.to_bytes());

        let mut heap = base.decode_heap(HeapConfig::default()).unwrap();
        heap.mark_clean();
        heap.store(base.migrate_env, 0, Word::Int(77)).unwrap();
        let base_fingerprint = base.heap_image.fingerprint();
        let delta = MigrationImage {
            heap_image: payload(&mut heap, Some(("ck-0", base_fingerprint))),
            ..base.clone()
        };
        store.put("ck-1", delta.to_bytes());

        // load() hands back a self-contained image with the delta applied.
        let loaded = store.load("ck-1").unwrap();
        assert!(!loaded.heap_image.is_delta());
        let merged = loaded.decode_heap(HeapConfig::default()).unwrap();
        assert_eq!(merged.load(base.migrate_env, 0).unwrap(), Word::Int(77));

        // Overwriting the base name with *different* content is detected by
        // the fingerprint — resolution errors instead of merging against
        // the wrong image.
        let mut other = base.decode_heap(HeapConfig::default()).unwrap();
        other.store(base.migrate_env, 0, Word::Int(-1)).unwrap();
        let overwritten = MigrationImage {
            heap_image: payload(&mut other, None),
            ..base.clone()
        };
        store.put("ck-0", overwritten.to_bytes());
        assert!(store.load("ck-1").is_err());
        store.put("ck-0", base.to_bytes());
        assert!(store.load("ck-1").is_ok());

        // A delta whose base vanished is a precise error, not a panic.
        assert!(store.remove("ck-0"));
        assert!(store.load("ck-1").is_err());
        assert!(store.contains("ck-1"));
        assert!(!store.contains("ck-0"));
    }

    #[test]
    fn store_stats_account_raw_vs_stored_bytes() {
        let store = CheckpointStore::new();
        assert_eq!(store.stats().images, 0);
        assert_eq!(store.stats().put_ns, 0);

        // A compressible image: many small-int blocks.
        let mut heap = Heap::new();
        for i in 0..200 {
            heap.alloc_array(64, Word::Int(i % 10)).unwrap();
        }
        let env = heap.alloc_migrate_env(vec![Word::Int(5)]).unwrap();
        let image = MigrationImage {
            migrate_env: env,
            heap_image: payload(&mut heap, None),
            ..tiny_image()
        };
        store.put("big", image.to_bytes());

        let stats = store.stats();
        assert_eq!(stats.images, 1);
        assert_eq!(stats.stored_bytes, image.to_bytes().len() as u64);
        assert!(
            stats.raw_bytes > stats.stored_bytes * 4,
            "small-int image must compress ≥4×: {stats:?}"
        );
        assert!(stats.ratio() < 0.25);
        assert_eq!(stats.saved_bytes(), stats.raw_bytes - stats.stored_bytes);
        assert_eq!(
            store.image_sizes("big"),
            Some((stats.raw_bytes, stats.stored_bytes))
        );

        // Arbitrary blobs fall back to raw == stored; removal drops the
        // accounting with the image.
        store.put("blob", vec![1, 2, 3]);
        let stats = store.stats();
        assert_eq!(stats.images, 2);
        assert_eq!(store.image_sizes("blob"), Some((3, 3)));
        assert!(store.remove("big"));
        assert!(store.remove("blob"));
        let stats = store.stats();
        assert_eq!(
            (stats.images, stats.raw_bytes, stats.stored_bytes),
            (0, 0, 0)
        );
        // put_ns is lifetime accounting: it survives removals.
        assert!(stats.put_ns > 0);
    }

    /// [`tiny_image`]'s state running another program.
    fn other_program_image() -> MigrationImage {
        MigrationImage {
            code: halting(1).into(),
            ..tiny_image()
        }
    }

    /// A delta over `base` (stored as `base_name`) that names its base's
    /// code, as a pack writes it.
    fn delta_over(base: &MigrationImage, base_name: &str) -> MigrationImage {
        let mut heap = base.decode_heap(HeapConfig::default()).unwrap();
        heap.mark_clean();
        heap.store(base.migrate_env, 0, Word::Int(77)).unwrap();
        let heap_image = payload(&mut heap, Some((base_name, base.heap_image.fingerprint())));
        MigrationImage {
            code: ImageCode::packed(base.code.inline().unwrap().clone(), &heap_image),
            heap_image,
            ..base.clone()
        }
    }

    /// Framed bytes of `image`'s code section: what the store keeps once.
    fn framed_code(image: &MigrationImage) -> u64 {
        (1 + 4 + image.code.inline().unwrap().body().len()) as u64
    }

    #[test]
    fn the_store_keeps_one_program_once_for_every_image_that_names_it() {
        let store = CheckpointStore::new();
        let image = tiny_image();
        let full = image.to_bytes().len() as u64;
        store.put_image("ck-0", &image);
        store.put_image("ck-1", &image);

        let stats = store.stats();
        assert_eq!((stats.images, stats.code_sections), (2, 1));
        let entry = store.image_sizes("ck-0").unwrap().1;
        // The entry holds a 13-byte `CodeRef` where the program was.
        assert_eq!(entry, full - framed_code(&image) + 13);
        assert_eq!(stats.stored_bytes, 2 * entry + framed_code(&image));
        assert_eq!(stats.raw_bytes, stats.stored_bytes);

        // The image's own section is kept, shared, and loads come back
        // with it inline: nothing is decoded again.
        let loaded = store.load_raw("ck-1").unwrap();
        assert_eq!(loaded, image);
        assert!(CodeSection::ptr_eq(
            loaded.code.inline().unwrap(),
            image.code.inline().unwrap()
        ));
        assert_eq!(store.load("ck-0").unwrap(), image);
    }

    #[test]
    fn a_program_goes_with_the_last_entry_that_names_it() {
        let store = CheckpointStore::new();
        let image = tiny_image();
        store.put_image("ck-0", &image);
        store.put_image("ck-1", &image);

        assert!(store.remove("ck-0"));
        let stats = store.stats();
        assert_eq!((stats.images, stats.code_sections), (1, 1));
        assert_eq!(store.load_raw("ck-1").unwrap(), image);

        assert!(store.remove("ck-1"));
        let stats = store.stats();
        assert_eq!((stats.images, stats.code_sections), (0, 0));
        assert_eq!((stats.raw_bytes, stats.stored_bytes), (0, 0));
    }

    #[test]
    fn an_overwrite_releases_the_program_the_old_entry_named() {
        let store = CheckpointStore::new();
        let image = tiny_image();
        let other = other_program_image();
        assert_ne!(image.code.fingerprint(), other.code.fingerprint());

        store.put_image("ck", &image);
        store.put_image("ck", &image);
        assert_eq!(store.stats().code_sections, 1);
        store.put_image("ck", &other);
        let stats = store.stats();
        assert_eq!((stats.images, stats.code_sections), (1, 1));
        assert_eq!(
            stats.stored_bytes,
            store.image_sizes("ck").unwrap().1 + framed_code(&other)
        );
        assert_eq!(store.load_raw("ck").unwrap(), other);

        store.put("ck", vec![7, 8]);
        let stats = store.stats();
        assert_eq!((stats.images, stats.code_sections), (1, 0));
        assert_eq!(stats.stored_bytes, 2);
    }

    /// Every read of a stored entry is what a store that kept each image
    /// as the bytes `to_bytes` writes served: `get` returns those bytes,
    /// `load_raw` what `from_bytes` decodes from them, with a held program
    /// bound in its reference's place.  The sizes are pinned to the
    /// numbers that serialising store counted.
    #[test]
    fn get_returns_the_bytes_to_bytes_writes_for_every_kind_of_image() {
        let store = CheckpointStore::new();
        let full = tiny_image();
        let delta = delta_over(&full, "full");
        // Its base's program is not in this store: the delta holds nothing.
        let unheld = delta_over(&other_program_image(), "elsewhere");
        let v1 = tiny_image_v1();
        let blob = other_program_image();
        // Small ints in slab frames that compress: raw and stored differ.
        let mut heap = Heap::new();
        for i in 0..200 {
            heap.alloc_array(64, Word::Int(i % 10)).unwrap();
        }
        let compressed = MigrationImage {
            migrate_env: heap.alloc_migrate_env(vec![Word::Int(5)]).unwrap(),
            heap_image: payload(&mut heap, None),
            ..full.clone()
        };
        store.put_image("compressed", &compressed);
        store.put_image("full", &full);
        store.put_image("delta", &delta);
        store.put_image("unheld", &unheld);
        store.put_image("v1", &v1);
        store.put("blob", blob.to_bytes());

        let names = ["compressed", "full", "delta", "unheld", "v1", "blob"];
        for (name, image) in
            names
                .into_iter()
                .zip([&compressed, &full, &delta, &unheld, &v1, &blob])
        {
            let bytes = image.to_bytes();
            assert_eq!(store.get(name).unwrap(), bytes, "{name}");
            let loaded = store.load_raw(name).unwrap();
            assert_eq!(&loaded, image, "{name}");
            assert_eq!(
                loaded,
                MigrationImage::from_bytes(&bytes).unwrap(),
                "{name}"
            );
            assert_eq!(loaded.to_bytes(), bytes, "{name}");
            assert_eq!(
                store.heap_fingerprint(name),
                Some(image.heap_image.fingerprint()),
                "{name}"
            );
        }
        // The full images and the delta share one program, the image's
        // own section; the v1 image, which cannot name code, keeps its own.
        assert!(CodeSection::ptr_eq(
            store.load_raw("full").unwrap().code.inline().unwrap(),
            full.code.inline().unwrap()
        ));
        let sizes = names.map(|name| store.image_sizes(name).unwrap());
        assert_eq!(
            sizes,
            [
                (115_964, 786),
                (83, 83),
                (97, 97),
                (102, 102),
                (53, 53),
                (90, 90)
            ]
        );
        assert_eq!(sizes[4].1, v1.to_bytes().len() as u64);
        let stats = store.stats();
        assert_eq!(
            (
                stats.images,
                stats.code_sections,
                stats.raw_bytes,
                stats.stored_bytes
            ),
            (6, 1, 116_409, 1_231)
        );
        let loaded = store.load("delta").unwrap();
        let heap = loaded.decode_heap(HeapConfig::default()).unwrap();
        assert_eq!(heap.load(full.migrate_env, 0).unwrap(), Word::Int(77));
    }

    #[test]
    fn a_delta_whose_base_now_runs_another_program_is_still_rejected() {
        let store = CheckpointStore::new();
        let base = tiny_image();
        store.put_image("ck-0", &base);
        store.put_image("ck-1", &delta_over(&base, "ck-0"));
        assert!(store.load("ck-1").is_ok());

        // Same program, another heap: the heap fingerprint does not match.
        let mut heap = base.decode_heap(HeapConfig::default()).unwrap();
        heap.store(base.migrate_env, 0, Word::Int(-1)).unwrap();
        let overwritten = MigrationImage {
            heap_image: payload(&mut heap, None),
            ..base.clone()
        };
        store.put_image("ck-0", &overwritten);
        match store.load("ck-1") {
            Err(RuntimeError::MigrationRejected(msg)) => assert_eq!(
                msg,
                "base checkpoint `ck-0` does not match the content this delta was \
                 written against (it was overwritten since)"
            ),
            other => panic!("expected a precise rejection, got {other:?}"),
        }

        // Same heap, another program: the heap fingerprint matches, the
        // code fingerprint does not.  The delta still holds its own
        // program, and resolution still refuses to pair it with the wrong
        // one.
        store.put_image("ck-0", &other_program_image());
        assert_eq!(store.stats().code_sections, 2);
        match store.load("ck-1") {
            Err(RuntimeError::MigrationRejected(msg)) => {
                assert!(msg.contains("does not carry the code"), "{msg}")
            }
            other => panic!("expected a precise rejection, got {other:?}"),
        }
    }

    #[test]
    fn an_entry_whose_program_was_lost_is_rejected_not_misread() {
        let store = CheckpointStore::new();
        let image = tiny_image();
        store.put_image("ck-0", &image);
        store.put_image("ck-1", &delta_over(&image, "ck-0"));
        assert!(store.lose_code(image.code.fingerprint()));

        let lost = format!(
            "checkpoint `ck-0` names code {:#018x} that the store does not hold",
            image.code.fingerprint()
        );
        let unusable = format!(
            "checkpoint `ck-1` is a delta but its base `ck-0` is unusable: \
             migration rejected: {lost}"
        );
        for (name, want) in [("ck-0", &lost), ("ck-1", &unusable)] {
            match store.load(name) {
                Err(RuntimeError::MigrationRejected(msg)) => assert_eq!(&msg, want),
                other => panic!("{name}: expected a rejection, got {other:?}"),
            }
        }
        assert!(matches!(
            store.load_raw("ck-0"),
            Err(RuntimeError::MigrationRejected(msg)) if msg == lost
        ));
        assert_eq!(store.get("ck-0"), None);
        assert!(store.remove("ck-0"));
        assert!(store.remove("ck-1"));
        let stats = store.stats();
        assert_eq!((stats.images, stats.code_sections), (0, 0));
        assert_eq!(stats.stored_bytes, 0);
    }

    #[test]
    fn a_full_image_naming_its_code_is_a_section_mismatch_outside_a_store() {
        let image = tiny_image();
        let store = CheckpointStore::new();
        store.put_image("ck", &image);
        let stored = MigrationImage {
            code: ImageCode::Base {
                fingerprint: image.code.fingerprint(),
            },
            ..image.clone()
        }
        .to_bytes();
        // The store counts the entry as those bytes, program by reference.
        assert_eq!(store.image_sizes("ck").unwrap().1, stored.len() as u64);
        assert!(matches!(
            MigrationImage::from_bytes(&stored),
            Err(WireError::SectionMismatch { found, .. }) if found == SectionTag::CodeRef as u8
        ));
        // A raw `put` of those bytes is a blob, not a reference.
        store.put("blob", stored);
        assert!(store.load_raw("blob").is_err());
        assert_eq!(store.stats().code_sections, 1);
    }

    #[test]
    fn corrupted_image_rejected_without_panic() {
        let image = tiny_image();
        let mut bytes = image.to_bytes();
        bytes[0] ^= 0xFF;
        assert!(MigrationImage::from_bytes(&bytes).is_err());
        let truncated = &image.to_bytes()[..10];
        assert!(MigrationImage::from_bytes(truncated).is_err());
    }

    #[test]
    fn heap_section_decodes() {
        let image = tiny_image();
        let heap = image.decode_heap(HeapConfig::default()).unwrap();
        assert_eq!(heap.load(image.migrate_env, 0).unwrap(), Word::Int(5));
    }

    #[test]
    fn checkpoint_store_put_get_list() {
        let store = CheckpointStore::new();
        assert!(store.is_empty());
        store.put("ck-1", vec![1, 2, 3]);
        store.put("ck-0", vec![4]);
        assert_eq!(store.get("ck-1").unwrap(), vec![1, 2, 3]);
        assert_eq!(store.names(), vec!["ck-0".to_owned(), "ck-1".to_owned()]);
        assert_eq!(store.len(), 2);
        // Shared across clones.
        let other = store.clone();
        other.put("ck-2", vec![9]);
        assert_eq!(store.len(), 3);
        assert!(store.remove("ck-2"));
        assert!(!store.remove("ck-2"));
    }

    #[test]
    fn store_get_returns_exactly_what_was_put() {
        let store = CheckpointStore::new();
        let bytes = tiny_image().to_bytes();
        store.put("ck", bytes.clone());
        let mut got = store.get("ck").unwrap();
        assert_eq!(got, bytes);
        // The copy is the caller's: writing to it leaves the store alone.
        got[0] ^= 0xFF;
        assert_eq!(store.get("ck").unwrap(), bytes);
        assert_eq!(store.load_raw("ck").unwrap(), tiny_image());

        store.put("ck", vec![7, 8]);
        assert_eq!(store.get("ck").unwrap(), vec![7, 8]);
        assert_eq!(store.image_sizes("ck"), Some((2, 2)));
        assert_eq!(store.stats().images, 1);
    }

    /// `heap_fingerprint` hashes outside the lock; a `put` that lands
    /// between its read and its cache write must win.  The race is forced
    /// by running the two halves by hand around the overwrite.
    #[test]
    fn an_overwrite_racing_heap_fingerprint_never_caches_a_stale_fingerprint() {
        let store = CheckpointStore::new();
        let old = tiny_image();
        let mut heap = Heap::new();
        heap.alloc_migrate_env(vec![Word::Int(6)]).unwrap();
        let new = MigrationImage {
            heap_image: payload(&mut heap, None),
            ..tiny_image()
        };
        assert_ne!(old.heap_image.fingerprint(), new.heap_image.fingerprint());

        // Raw blobs, then images the store keeps with a shared payload.
        for as_image in [false, true] {
            let put = |image: &MigrationImage| match as_image {
                false => store.put("base", image.to_bytes()),
                true => store.put_image("base", image),
            };
            put(&old);
            let generation = store.lock().generation;
            let stale = heap_payload_fingerprint(&store.get("base").unwrap()).unwrap();
            assert_eq!(stale, old.heap_image.fingerprint());
            put(&new);
            store.cache_fingerprint("base", generation, stale);
            assert_eq!(
                store.heap_fingerprint("base"),
                Some(new.heap_image.fingerprint()),
                "as_image {as_image}"
            );

            // With no write in between, the value is cached and served as is.
            let generation = store.lock().generation;
            store.cache_fingerprint("base", generation, 42);
            assert_eq!(store.heap_fingerprint("base"), Some(42));
        }
    }

    #[test]
    fn in_memory_sink_behaviour_per_protocol() {
        let mut sink = InMemorySink::new();
        let image = tiny_image();
        assert_eq!(
            sink.deliver(MigrateProtocol::Checkpoint, "steps/ck-10", &image),
            DeliveryOutcome::Stored
        );
        assert_eq!(
            sink.deliver(MigrateProtocol::Suspend, "final", &image),
            DeliveryOutcome::Stored
        );
        assert!(matches!(
            sink.deliver(MigrateProtocol::Migrate, "node3", &image),
            DeliveryOutcome::Failed(_)
        ));
        let store = sink.store();
        assert_eq!(
            store.names(),
            vec!["final".to_owned(), "steps/ck-10".to_owned()]
        );
        let loaded = store.load("final").unwrap();
        assert_eq!(loaded, image);
        assert!(store.load("missing").is_err());
    }
}

//! The event taxonomy: every typed record the flight recorder holds.

/// What happened.  The two generic payload words `a`/`b` of an [`Event`]
/// mean different things per kind (documented on each variant); they
/// carry only **replay-deterministic** values — sizes, counts, levels,
/// outcome codes — never wall-clock durations, so deterministic-mode
/// event streams are a pure function of the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// A checkpoint began on the mutator (span open).  `a` = migrate
    /// label, `b` = 1 for the asynchronous (zero-pause) path, 0 for the
    /// synchronous one.
    CheckpointBegin = 1,
    /// The checkpoint's mutator-side work finished (span close).  `a` =
    /// migrate label, `b` = delivery outcome code (0 stored, 1 migrated,
    /// 3 failed).
    CheckpointEnd = 2,
    /// A zero-pause heap freeze (`Heap::freeze`), one per pack,
    /// synchronous or asynchronous.  `a` = live blocks captured, `b` =
    /// payload bytes logically captured.
    Freeze = 3,
    /// An image encode completed (mutator thread or pipeline worker).
    /// `a` = raw heap-payload bytes, `b` = stored (post-codec) bytes.
    Encode = 4,
    /// A sink delivery resolved.  `a` = delivery outcome code, `b` =
    /// image bytes shipped.
    Deliver = 5,
    /// A speculation level opened.  `a` = level id.
    SpecEnter = 6,
    /// A speculation level committed.  `a` = level id.
    SpecCommit = 7,
    /// A speculation level rolled back.  `a` = level id.
    SpecAbort = 8,
    /// A minor (young-generation) collection ran.  `a` = blocks freed,
    /// `b` = live blocks after.
    GcMinor = 9,
    /// A major (mark-sweep-compact) collection ran.  `a` = blocks freed,
    /// `b` = live blocks after.
    GcMajor = 10,
    /// A cluster message was sent.  `a` = destination node, `b` =
    /// payload length (f64 words).
    Send = 11,
    /// A cluster message was received.  `a` = source node, `b` = payload
    /// length (f64 words); `b` = `u64::MAX` encodes a failed/rolled
    /// receive (`MSG_ROLL`).
    Recv = 12,
    /// This node was marked failed.  `a` = failure epoch; `b` = 0 when
    /// the failure was self-injected (`inject_failure`), 1 when the
    /// process first *observed* an externally injected failure.
    Failure = 13,
    /// This node was resurrected from a checkpoint.  `a` = checkpoint
    /// step resumed from.
    Resurrect = 14,
    /// A transport connection was re-established after a drop.  `a` =
    /// reconnect attempt number.
    Reconnect = 15,
    /// A slab codec was chosen for an image.  `a` = codec id (0xFF =
    /// mixed/auto), `b` = stored heap-payload bytes.
    CodecChosen = 16,
    /// A checkpoint-pipeline queue-depth sample.  `a` = depth after the
    /// submit, `b` = queue capacity.
    QueueDepth = 17,
}

impl EventKind {
    /// Stable name used by the JSON exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::CheckpointBegin => "CheckpointBegin",
            EventKind::CheckpointEnd => "CheckpointEnd",
            EventKind::Freeze => "Freeze",
            EventKind::Encode => "Encode",
            EventKind::Deliver => "Deliver",
            EventKind::SpecEnter => "SpecEnter",
            EventKind::SpecCommit => "SpecCommit",
            EventKind::SpecAbort => "SpecAbort",
            EventKind::GcMinor => "GcMinor",
            EventKind::GcMajor => "GcMajor",
            EventKind::Send => "Send",
            EventKind::Recv => "Recv",
            EventKind::Failure => "Failure",
            EventKind::Resurrect => "Resurrect",
            EventKind::Reconnect => "Reconnect",
            EventKind::CodecChosen => "CodecChosen",
            EventKind::QueueDepth => "QueueDepth",
        }
    }

    /// Decode the wire byte.
    pub fn from_u8(byte: u8) -> Option<EventKind> {
        use EventKind::*;
        const ALL: [EventKind; 17] = [
            CheckpointBegin,
            CheckpointEnd,
            Freeze,
            Encode,
            Deliver,
            SpecEnter,
            SpecCommit,
            SpecAbort,
            GcMinor,
            GcMajor,
            Send,
            Recv,
            Failure,
            Resurrect,
            Reconnect,
            CodecChosen,
            QueueDepth,
        ];
        ALL.into_iter().find(|k| *k as u8 == byte)
    }

    /// Whether this kind opens a span ([`EventKind::CheckpointBegin`]).
    pub fn is_span_begin(self) -> bool {
        self == EventKind::CheckpointBegin
    }

    /// Whether this kind closes a span ([`EventKind::CheckpointEnd`]).
    pub fn is_span_end(self) -> bool {
        self == EventKind::CheckpointEnd
    }
}

/// One flight-recorder entry: when, where, what, and two payload words
/// whose meaning is per-[`EventKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Microseconds on the recorder's [`crate::ClockSource`] timeline.
    pub ts_us: u64,
    /// The node (or process slot) that recorded the event.
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (see [`EventKind`]).
    pub a: u64,
    /// Second payload word (see [`EventKind`]).
    pub b: u64,
}

impl Event {
    /// Append the canonical 29-byte little-endian encoding (the trace
    /// scrape frame element; layout documented in `docs/WIRE_FORMAT.md`).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ts_us.to_le_bytes());
        out.extend_from_slice(&self.node.to_le_bytes());
        out.push(self.kind as u8);
        out.extend_from_slice(&self.a.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
    }

    /// Size of one encoded event.
    pub const ENCODED_LEN: usize = 8 + 4 + 1 + 8 + 8;

    /// Decode one event from `bytes` (exactly [`Event::ENCODED_LEN`]).
    pub fn decode(bytes: &[u8]) -> Result<Event, String> {
        if bytes.len() < Self::ENCODED_LEN {
            return Err(format!(
                "event record truncated: {} of {} bytes",
                bytes.len(),
                Self::ENCODED_LEN
            ));
        }
        let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
        let kind = EventKind::from_u8(bytes[12])
            .ok_or_else(|| format!("unknown event kind {:#04x}", bytes[12]))?;
        Ok(Event {
            ts_us: u64_at(0),
            node: u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
            kind,
            a: u64_at(13),
            b: u64_at(21),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip_their_wire_byte() {
        for byte in 0u8..=255 {
            if let Some(kind) = EventKind::from_u8(byte) {
                assert_eq!(kind as u8, byte);
            }
        }
        assert_eq!(EventKind::from_u8(0), None);
        assert_eq!(EventKind::from_u8(18), None);
    }

    #[test]
    fn event_encoding_roundtrips() {
        let event = Event {
            ts_us: 123_456,
            node: 7,
            kind: EventKind::Deliver,
            a: u64::MAX,
            b: 42,
        };
        let mut bytes = Vec::new();
        event.encode(&mut bytes);
        assert_eq!(bytes.len(), Event::ENCODED_LEN);
        assert_eq!(Event::decode(&bytes).unwrap(), event);
        assert!(Event::decode(&bytes[..10]).is_err());
    }
}

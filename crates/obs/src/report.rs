//! The per-node scrape payload: everything a node's recorder captured,
//! packaged for shipping over a node's hub connection.

use crate::event::Event;
use crate::metrics::MetricsSnapshot;

/// One node's observability report: its metrics snapshot plus the flight
/// recorder's event stream.  This is the payload of an `ObsPush` /
/// `ObsReply` trace frame (byte layout in `docs/WIRE_FORMAT.md`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeObs {
    /// Which node this report came from.
    pub node: u32,
    /// The node's metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// The node's flight-recorder events, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring before this snapshot was taken.
    pub dropped: u64,
}

impl NodeObs {
    /// Encode into the canonical little-endian scrape payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.events.len() * Event::ENCODED_LEN);
        out.extend_from_slice(&self.node.to_le_bytes());
        out.extend_from_slice(&self.dropped.to_le_bytes());
        self.metrics.encode(&mut out);
        out.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for event in &self.events {
            event.encode(&mut out);
        }
        out
    }

    /// Decode a report produced by [`NodeObs::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<NodeObs, String> {
        if bytes.len() < 12 {
            return Err("obs report truncated before header".to_owned());
        }
        let node = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
        let dropped = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
        let (metrics, metrics_len) = MetricsSnapshot::decode(&bytes[12..])?;
        let mut pos = 12 + metrics_len;
        if pos + 4 > bytes.len() {
            return Err("obs report truncated before event count".to_owned());
        }
        let event_count =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 4;
        if bytes.len() - pos != event_count * Event::ENCODED_LEN {
            return Err(format!(
                "obs report event section is {} bytes, expected {} events * {}",
                bytes.len() - pos,
                event_count,
                Event::ENCODED_LEN
            ));
        }
        let mut events = Vec::with_capacity(event_count);
        for _ in 0..event_count {
            events.push(Event::decode(&bytes[pos..pos + Event::ENCODED_LEN])?);
            pos += Event::ENCODED_LEN;
        }
        Ok(NodeObs {
            node,
            metrics,
            events,
            dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn report_roundtrips_through_bytes() {
        let registry = MetricsRegistry::new();
        registry.counter_add("checkpoints", 4);
        registry.observe("pause_ns", 12_345);
        let report = NodeObs {
            node: 2,
            metrics: registry.snapshot(),
            events: vec![
                Event {
                    ts_us: 5,
                    node: 2,
                    kind: EventKind::CheckpointBegin,
                    a: 1,
                    b: 0,
                },
                Event {
                    ts_us: 9,
                    node: 2,
                    kind: EventKind::CheckpointEnd,
                    a: 1,
                    b: 0,
                },
            ],
            dropped: 3,
        };
        let bytes = report.to_bytes();
        let back = NodeObs::from_bytes(&bytes).unwrap();
        assert_eq!(back, report);
        assert!(NodeObs::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(NodeObs::from_bytes(&bytes[..8]).is_err());
    }

    #[test]
    fn empty_report_roundtrips() {
        let report = NodeObs::default();
        assert_eq!(NodeObs::from_bytes(&report.to_bytes()).unwrap(), report);
    }
}

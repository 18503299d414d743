//! The metrics registry: named counters and power-of-two-bucket
//! histograms behind one snapshot/merge/export surface.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`, and bucket 64 holds the top
/// half-open range ending at `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A latency/size histogram with power-of-two buckets.
///
/// Bucketing is exact and cheap (`leading_zeros`), merging is
/// element-wise addition, and the encoding ships only non-zero buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index `value` lands in: 0 for 0, else
    /// `64 - value.leading_zeros()` — so bucket `i ≥ 1` covers exactly
    /// `[2^(i-1), 2^i)`.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `index` (`0` for bucket 0,
    /// `2^index - 1` for the rest, saturating at `u64::MAX`).
    pub fn bucket_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The per-bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`) — a bucketed approximation, exact to a factor of
    /// two, which is what power-of-two buckets buy.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Fold `other` into `self`: bucket-wise sum, count/sum added,
    /// min/max widened.  Merging is how per-node histograms become the
    /// cluster-wide view.
    pub fn merge(&mut self, other: &Histogram) {
        for (into, from) in self.counts.iter_mut().zip(other.counts.iter()) {
            *into += from;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// An immutable, mergeable, exportable view of a registry (or of several
/// registries merged together).  Ordering is deterministic (`BTreeMap`),
/// so exports of equal snapshots are byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Named monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Named histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// A counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram, if one was recorded under `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Fold `other` into `self`: counters add, histograms merge.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// Human-readable export: one line per counter, one per histogram.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name} = {value}");
        }
        for (name, hist) in &self.histograms {
            let _ = writeln!(
                out,
                "{name}: count={} mean={} p50<={} p99<={} max={}",
                hist.count(),
                hist.mean(),
                hist.quantile_bound(0.50),
                hist.quantile_bound(0.99),
                hist.max(),
            );
        }
        out
    }

    /// Append the canonical little-endian encoding (the metrics half of
    /// an obs scrape frame; layout in `docs/WIRE_FORMAT.md`).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let write_name = |out: &mut Vec<u8>, name: &str| {
            let bytes = name.as_bytes();
            out.extend_from_slice(&(bytes.len().min(u16::MAX as usize) as u16).to_le_bytes());
            out.extend_from_slice(&bytes[..bytes.len().min(u16::MAX as usize)]);
        };
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (name, value) in &self.counters {
            write_name(out, name);
            out.extend_from_slice(&value.to_le_bytes());
        }
        out.extend_from_slice(&(self.histograms.len() as u32).to_le_bytes());
        for (name, hist) in &self.histograms {
            write_name(out, name);
            for word in [hist.count, hist.sum, hist.min, hist.max] {
                out.extend_from_slice(&word.to_le_bytes());
            }
            let nonzero: Vec<(usize, u64)> = hist
                .counts
                .iter()
                .enumerate()
                .filter(|(_, c)| **c != 0)
                .map(|(i, c)| (i, *c))
                .collect();
            out.push(nonzero.len() as u8);
            for (index, count) in nonzero {
                out.push(index as u8);
                out.extend_from_slice(&count.to_le_bytes());
            }
        }
    }

    /// Decode a snapshot produced by [`MetricsSnapshot::encode`],
    /// returning the snapshot and the number of bytes consumed.
    pub fn decode(bytes: &[u8]) -> Result<(MetricsSnapshot, usize), String> {
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u8], String> {
            if pos + n > bytes.len() {
                return Err(format!(
                    "metrics snapshot truncated at byte {pos} (wanted {n} more)"
                ));
            }
            let slice = &bytes[pos..pos + n];
            pos += n;
            Ok(slice)
        };
        let mut snapshot = MetricsSnapshot::default();

        let counter_count = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes"));
        for _ in 0..counter_count {
            let name_len = u16::from_le_bytes(take(2)?.try_into().expect("2 bytes")) as usize;
            let name = String::from_utf8(take(name_len)?.to_vec())
                .map_err(|_| "metric name is not UTF-8".to_owned())?;
            let value = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
            snapshot.counters.insert(name, value);
        }
        let histogram_count = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes"));
        for _ in 0..histogram_count {
            let name_len = u16::from_le_bytes(take(2)?.try_into().expect("2 bytes")) as usize;
            let name = String::from_utf8(take(name_len)?.to_vec())
                .map_err(|_| "metric name is not UTF-8".to_owned())?;
            let mut hist = Histogram::new();
            hist.count = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
            hist.sum = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
            hist.min = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
            hist.max = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
            let nonzero = take(1)?[0] as usize;
            for _ in 0..nonzero {
                let index = take(1)?[0] as usize;
                if index >= HISTOGRAM_BUCKETS {
                    return Err(format!("histogram bucket index {index} out of range"));
                }
                hist.counts[index] = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
            }
            snapshot.histograms.insert(name, hist);
        }
        Ok((snapshot, pos))
    }
}

/// A thread-safe registry the runtime layers push counters and
/// observations into.  Cheap to share; snapshot to read.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<MetricsSnapshot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to the counter `name` (creating it at 0).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        *inner.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Set counter `name` to `value` (last write wins — for gauges
    /// folded in from an end-of-run stats struct).
    pub fn counter_set(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.counters.insert(name.to_owned(), value);
    }

    /// Record one observation into the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .histograms
            .entry(name.to_owned())
            .or_default()
            .observe(value);
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Fold an already-built snapshot into this registry.
    pub fn merge(&self, other: &MetricsSnapshot) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.merge(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn observe_and_quantiles() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1108);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!(h.quantile_bound(0.5) >= 2);
        assert!(h.quantile_bound(1.0) >= 1000 / 2);
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.observe(5);
        a.observe(70_000);
        b.observe(5);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.buckets()[Histogram::bucket_index(5)], 2);
        assert_eq!(merged.buckets()[Histogram::bucket_index(70_000)], 1);
    }

    #[test]
    fn registry_snapshot_merge_and_wire_roundtrip() {
        let registry = MetricsRegistry::new();
        registry.counter_add("process.checkpoints", 3);
        registry.counter_add("process.checkpoints", 2);
        registry.observe("checkpoint.pause_ns", 1_500);
        registry.observe("checkpoint.pause_ns", 9_000_000);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("process.checkpoints"), 5);
        assert_eq!(snap.histogram("checkpoint.pause_ns").unwrap().count(), 2);

        let mut other = MetricsSnapshot::default();
        other.counters.insert("process.checkpoints".into(), 7);
        let mut merged = snap.clone();
        merged.merge(&other);
        assert_eq!(merged.counter("process.checkpoints"), 12);

        let mut bytes = Vec::new();
        snap.encode(&mut bytes);
        let (back, consumed) = MetricsSnapshot::decode(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(back, snap);
        assert!(MetricsSnapshot::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn text_export_is_stable() {
        let registry = MetricsRegistry::new();
        registry.counter_add("b.second", 2);
        registry.counter_add("a.first", 1);
        registry.observe("lat", 8);
        let snap = registry.snapshot();
        let text = snap.to_text();
        // BTreeMap ordering: deterministic, sorted by name.
        assert!(text.find("a.first").unwrap() < text.find("b.second").unwrap());
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("lat"));
    }
}

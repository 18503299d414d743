//! Heap and collector statistics.

/// Counters maintained by the heap; used by the benchmark harness to report
/// allocation rates, collection counts and copy-on-write activity, and by
/// tests to assert that the expected machinery actually ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Blocks allocated over the heap's lifetime.
    pub blocks_allocated: u64,
    /// Bytes allocated over the heap's lifetime (payload + header overhead).
    pub bytes_allocated: u64,
    /// Minor (young-generation) collections performed.
    pub minor_collections: u64,
    /// Major (full mark-sweep-compact) collections performed.
    pub major_collections: u64,
    /// Blocks freed by the collector.
    pub blocks_collected: u64,
    /// Blocks moved by sliding compaction.
    pub blocks_compacted: u64,
    /// Copy-on-write clones made on behalf of open speculations.
    pub cow_clones: u64,
    /// Bytes *logically preserved* by those clones.  The clone shares the
    /// original's payload rather than copying it; the physical copy is
    /// deferred to the first write of a still-shared payload and recorded
    /// in [`HeapStats::shared_payload_bytes`] — do not sum the two
    /// counters as if they were independent copies.
    pub cow_bytes: u64,
    /// Speculation levels entered.
    pub speculations_entered: u64,
    /// Speculation levels committed.
    pub speculations_committed: u64,
    /// Speculation levels rolled back.
    pub speculations_rolled_back: u64,
    /// Snapshots taken by [`crate::Heap::freeze`]: one per pack,
    /// synchronous or asynchronous, and any taken directly.
    pub snapshots_frozen: u64,
    /// Payload copies forced because a mutation hit a block whose payload
    /// was still shared — with a speculation clone or a live snapshot.
    /// This is the deferred half of the copy-on-write cost: cloning and
    /// freezing are pointer bumps, the byte copy lands here.
    pub shared_payload_copies: u64,
    /// Bytes copied by those forced un-sharing copies.
    pub shared_payload_bytes: u64,
    /// Numeric columns converted to the tagged form by a store of another
    /// tag ([`crate::Words`]).
    pub column_conversions: u64,
}

impl HeapStats {
    /// Total number of collections of either kind.
    pub fn total_collections(&self) -> u64 {
        self.minor_collections + self.major_collections
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let stats = HeapStats {
            minor_collections: 3,
            major_collections: 2,
            ..Default::default()
        };
        assert_eq!(stats.total_collections(), 5);
    }
}

//! Seeded input builders shared by the workloads and the layer probes.
//!
//! Everything a workload feeds the program is made here from `--seed`; the
//! program itself never sees the seed, only the generated inputs.

use mojave_grid::{FailurePlan, GridConfig};
use mojave_heap::{Heap, PtrIdx, Word};

/// SplitMix64: a tiny seeded generator (no `rand` crate offline).
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `grid_compute`: big blocks, few timesteps, one checkpoint per worker at
/// the end — VM dispatch and heap load/store do nearly all the work.
pub const GRID_COMPUTE: GridConfig = GridConfig {
    workers: 2,
    rows_per_worker: 32,
    cols: 64,
    timesteps: 8,
    checkpoint_interval: 8,
};

/// `grid_recover`: small blocks, a checkpoint every step, one injected
/// failure — pack/delta encode, store put/load, speculate/commit and
/// resurrection are the point; the VM is about half.
///
/// Like [`GRID_SERVED`], it is sized so that the one blocking receive per
/// worker per step (a cross-vCPU wake-up, whose latency has two regimes on a
/// virtualised host) stays below a tenth of the op: at 2 × 8 cells and 300
/// steps the slow regime moved this workload by 30 %.
pub const GRID_RECOVER: GridConfig = GridConfig {
    workers: 2,
    rows_per_worker: 4,
    cols: 8,
    timesteps: 200,
    checkpoint_interval: 1,
};

/// The failure injected into every `grid_recover` op: worker 1 dies inside
/// its 100th checkpoint delivery and is resurrected from the store.
pub const GRID_RECOVER_FAILURE: FailurePlan = FailurePlan {
    victim: 1,
    after_checkpoints: 100,
};

/// `grid_served`: the same grid through the RPC seam — every external call
/// is one or two loopback round trips to the hub, every checkpoint crosses a
/// socket.
///
/// The round trips are kept to about a tenth of the op on purpose.  On a
/// virtualised host what a loopback round trip costs — waking a blocked
/// thread on the other vCPU — moves by a factor of three from one quarter of
/// an hour to the next, while a pure-ALU loop does not move: a 750-step,
/// 4-cell-wide version of this workload sat at 54 ms for eight minutes, then
/// at 82 ms for eight more, and at 150 steps of 4 × 16 cells (round trips a
/// quarter of the op) the median of ten 15-second runs still spread by 18 to
/// 31 % while every other workload's spread by 1 to 4 %.  A workload made of
/// such wake-ups cannot repeat within any bound; this one keeps enough
/// stencil work per step (8 × 64 cells) that a round trip three times dearer
/// moves it by about a fifth.  What the transport costs is measured directly
/// by `cluster.rpc_rtt_us`, `cluster.ext_call_us` and `cluster.deliver_us`.
pub const GRID_SERVED: GridConfig = GridConfig {
    workers: 2,
    rows_per_worker: 8,
    cols: 64,
    timesteps: 30,
    checkpoint_interval: 10,
};

/// Live heap the `migrate_cold` process carries.
pub const MIGRATE_HEAP_BYTES: usize = 1024 * 1024;

/// Words per block of the mixed heap (512 payload bytes).
pub const MIXED_BLOCK_WORDS: usize = 64;

/// Fill `heap` with 64-word array blocks until it holds `target_bytes` of
/// live data; returns the blocks (the mutator's roots).
///
/// Entropy is mixed on purpose: even blocks hold small integers below 1000
/// (the delta+varint filter's home turf), odd blocks hold full 64-bit values
/// from the seed (incompressible), so a packed image stays a large fraction
/// of the raw heap and every codec has real work to do.
pub fn populate_heap_mixed(heap: &mut Heap, target_bytes: usize, seed: u64) -> Vec<PtrIdx> {
    let mut rng = SplitMix64(seed);
    let mut blocks = Vec::new();
    while heap.live_bytes() < target_bytes {
        let block = heap
            .alloc_array(MIXED_BLOCK_WORDS as i64, Word::Int(0))
            .expect("a 64-word block fits");
        let small = blocks.len() % 2 == 0;
        for i in 0..MIXED_BLOCK_WORDS {
            let bits = rng.next_u64();
            let value = if small { bits % 1000 } else { bits };
            heap.store(block, i as i64, Word::Int(value as i64))
                .expect("index in range");
        }
        blocks.push(block);
    }
    blocks
}

/// Arrays the `ckpt_stream` program keeps live.
pub const CKPT_ARRAYS: usize = 64;
/// Words per array: 64 × 2048 × 8 B = 1 MiB of live heap.
pub const CKPT_ARRAY_WORDS: usize = 2048;
/// Checkpoints one `ckpt_stream` op takes.
pub const CKPT_ROUNDS: usize = 32;
/// Arrays written (one word each) between two checkpoints.
pub const CKPT_TOUCHED_PER_ROUND: usize = 16;
/// Name the set-up run suspends under.
pub const CKPT_SUSPEND_NAME: &str = "ckpt-stream-ready";

/// MojaveC source of the `ckpt_stream` process.
///
/// It fills 64 `int[2048]` arrays from a 64-bit LCG seeded by `seed` — even
/// arrays keep the value modulo 1000, odd arrays keep all 64 bits, the same
/// entropy mix as [`populate_heap_mixed`], so a full image stays above half
/// of raw — suspends (that image is what each op resumes), then takes 32
/// checkpoints under rotating names, storing one word into each of 16 arrays
/// between them, and exits with a digest of the words it touched.
pub fn ckpt_stream_source(seed: u64) -> String {
    let mut src = String::from("int main() {\n    int x = ");
    // Odd and below 2^62 so the literal parses as a positive int.
    src.push_str(&format!(
        "{};\n",
        (seed.wrapping_mul(2) | 1) & ((1 << 62) - 1)
    ));
    for a in 0..CKPT_ARRAYS {
        let value = if a % 2 == 0 { "x % 1000" } else { "x" };
        src.push_str(&format!(
            "    int[] a{a} = alloc_int({CKPT_ARRAY_WORDS});\n    \
             for (int i{a} = 0; i{a} < {CKPT_ARRAY_WORDS}; i{a} = i{a} + 1) {{ \
             x = x * 6364136223846793005 + 1442695040888963407; a{a}[i{a}] = {value}; }}\n"
        ));
    }
    src.push_str(&format!("    suspend(\"{CKPT_SUSPEND_NAME}\");\n"));
    src.push_str("    int k = 0;\n");
    src.push_str(&format!("    while (k < {CKPT_ROUNDS}) {{\n"));
    let groups = CKPT_ARRAYS / CKPT_TOUCHED_PER_ROUND;
    for g in 0..groups {
        src.push_str(&format!("        if (k % {groups} == {g}) {{\n"));
        for a in g * CKPT_TOUCHED_PER_ROUND..(g + 1) * CKPT_TOUCHED_PER_ROUND {
            src.push_str(&format!("            a{a}[k] = a{a}[k + 1] + k;\n"));
        }
        src.push_str("        }\n");
    }
    src.push_str("        checkpoint(str_concat(\"ck-\", int_to_str(k)));\n");
    src.push_str("        k = k + 1;\n    }\n");
    src.push_str("    int digest = 0;\n");
    for a in 0..CKPT_ARRAYS {
        src.push_str(&format!(
            "    digest = digest * 31 + a{a}[{}] + a{a}[{}];\n",
            a % CKPT_ROUNDS,
            CKPT_ROUNDS - 1 - a % CKPT_ROUNDS
        ));
    }
    src.push_str("    return digest;\n}\n");
    src
}

/// Run `f` on a thread with a deep stack and hand back what it returns.
///
/// `mojave_lang`'s lowering recurses once per statement of a function body
/// and the FIR passes once per nested `let`; the `main` that
/// [`ckpt_stream_source`] generates has about 270 statements.  An optimised
/// build handles that on an ordinary stack, an unoptimised one needs some
/// 20 MiB — more than a test thread (2 MiB) or the main thread (8 MiB) has.
/// Only address space is reserved: pages the recursion never reaches are
/// never touched.
pub fn on_deep_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    const DEEP_STACK_BYTES: usize = 256 * 1024 * 1024;
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(DEEP_STACK_BYTES)
            .spawn_scoped(scope, f)
            .expect("a thread can be started")
            .join()
    })
    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Order-sensitive FNV-1a digest over every word of every block in `roots`
/// — the benchmark-side oracle that a migrated heap equals its source.
pub fn heap_digest(heap: &Heap, roots: &[PtrIdx]) -> Result<u64, String> {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |value: u64| {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for &root in roots {
        let len = heap.block_len(root).map_err(|e| e.to_string())?;
        mix(len as u64);
        for i in 0..len {
            let (tag, payload) = heap
                .load(root, i as i64)
                .map_err(|e| e.to_string())?
                .to_raw();
            mix(u64::from(tag));
            mix(payload);
        }
    }
    Ok(hash)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_heap_reaches_its_size_and_follows_the_seed() {
        let mut a = Heap::new();
        let roots_a = populate_heap_mixed(&mut a, 64 * 1024, 7);
        assert!(a.live_bytes() >= 64 * 1024);
        let mut b = Heap::new();
        let roots_b = populate_heap_mixed(&mut b, 64 * 1024, 7);
        let mut c = Heap::new();
        let roots_c = populate_heap_mixed(&mut c, 64 * 1024, 8);
        assert_eq!(
            heap_digest(&a, &roots_a).unwrap(),
            heap_digest(&b, &roots_b).unwrap()
        );
        assert_ne!(
            heap_digest(&a, &roots_a).unwrap(),
            heap_digest(&c, &roots_c).unwrap()
        );
        // Even blocks are small ints, odd blocks are not.
        assert!(a.load(roots_a[0], 5).unwrap().as_int().unwrap() < 1000);
    }

    #[test]
    fn ckpt_stream_source_compiles() {
        on_deep_stack(|| mojave_lang::compile_source(&ckpt_stream_source(12))).expect("compiles");
    }
}

//! Experiments E1–E2: whole-process migration cost, FIR vs binary, as a
//! function of heap size, with the transfer/recompile breakdown.
//!
//! Paper reference points (700 MHz nodes, 100 Mbps network, 1 MB heap):
//!   FIR migration ≈ 4 s, ~10 % network transfer, ~90 % recompilation;
//!   binary migration < 1 s, ~30 % data transfer.
//! The shape to reproduce: FIR migration is several times more expensive
//! than binary migration because of destination-side verification and
//! recompilation; transfer is a minority share of FIR migration and a much
//! larger share of binary migration.  Absolute numbers on this substrate are
//! far smaller than 2007 hardware; the harness prints both the measured
//! values and the calibrated cost-model estimates (see EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mojave_bench::{mutate_percent, populate_heap, process_with_heap};
use mojave_cluster::CostModel;
use mojave_core::{InMemorySink, MigrationSink, Process, ProcessConfig};
use mojave_fir::MigrateProtocol;
use mojave_grid::{FailurePlan, GridConfig, GridOptions};
use mojave_heap::{Heap, HeapConfig, Word};
use mojave_runtime::{AsyncSink, PipelineConfig};
use mojave_wire::{CodecId, CodecSet, WireReader, WireWriter};
use std::time::{Duration, Instant};

const HEAP_SIZES_KB: [usize; 4] = [64, 256, 1024, 4096];

/// Pack + unpack (verify, recompile, rebuild heap) with the FIR protocol.
fn fir_migration(c: &mut Criterion) {
    let mut group = c.benchmark_group("migration/fir_roundtrip");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for kb in HEAP_SIZES_KB {
        group.throughput(Throughput::Bytes((kb * 1024) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kb}KiB")),
            &kb,
            |b, &kb| {
                let (mut process, roots) = process_with_heap(kb * 1024, false);
                b.iter(|| {
                    let image = process.pack(0, Word::Fun(0), &roots).expect("pack");
                    let resumed =
                        Process::from_image(image, ProcessConfig::default()).expect("unpack");
                    resumed.heap().live_bytes()
                });
            },
        );
    }
    group.finish();
}

/// The same round trip with the binary protocol (no verification, no
/// recompilation at the destination).
fn binary_migration(c: &mut Criterion) {
    let mut group = c.benchmark_group("migration/binary_roundtrip");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for kb in HEAP_SIZES_KB {
        group.throughput(Throughput::Bytes((kb * 1024) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kb}KiB")),
            &kb,
            |b, &kb| {
                let (mut process, roots) = process_with_heap(kb * 1024, true);
                b.iter(|| {
                    let image = process.pack(0, Word::Fun(0), &roots).expect("pack");
                    let resumed =
                        Process::from_image(image, ProcessConfig::default()).expect("unpack");
                    resumed.heap().live_bytes()
                });
            },
        );
    }
    group.finish();
}

/// The destination-side share alone: verification + recompilation of the FIR
/// (the component the paper attributes ~90 % of FIR migration time to).
fn recompilation_share(c: &mut Criterion) {
    let mut group = c.benchmark_group("migration/destination_recompile");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let (mut process, roots) = process_with_heap(1024 * 1024, false);
    let image = process.pack(0, Word::Fun(0), &roots).expect("pack");
    let program = match &*image.code {
        mojave_core::migrate::PackedCode::Fir(p) => p.clone(),
        _ => unreachable!("FIR image"),
    };
    group.bench_function("verify_and_compile_1MiB_image", |b| {
        b.iter(|| {
            mojave_fir::validate(&program).unwrap();
            mojave_fir::typecheck(&program, &mojave_fir::ExternEnv::standard()).unwrap();
            mojave_core::backend::compile_program(&program).unwrap()
        });
    });
    group.bench_function("heap_decode_1MiB_image", |b| {
        b.iter(|| image.decode_heap(Default::default()).unwrap());
    });
    group.finish();

    // Print the table the paper's Section 5 summarises: measured split on
    // this substrate plus the calibrated model for the 2007 testbed.
    let model = CostModel::default();
    eprintln!();
    eprintln!("migration breakdown (modelled for the paper's 700 MHz / 100 Mbps testbed):");
    eprintln!(
        "{:>10} {:>14} {:>14} {:>12} {:>12}",
        "heap", "FIR total (s)", "bin total (s)", "FIR xfer %", "bin xfer %"
    );
    for kb in HEAP_SIZES_KB {
        let (mut process, roots) = process_with_heap(kb * 1024, false);
        let image = process.pack(0, Word::Fun(0), &roots).expect("pack");
        let fir_nodes = process.program().map(|p| p.size()).unwrap_or(0);
        let fir = model.fir_migration(image.byte_size(), fir_nodes, kb * 1024);
        let bin = model.binary_migration(image.byte_size(), kb * 1024);
        eprintln!(
            "{:>8}KB {:>14.2} {:>14.2} {:>11.1}% {:>11.1}%",
            kb,
            fir.total_us() / 1e6,
            bin.total_us() / 1e6,
            fir.transfer_fraction() * 100.0,
            bin.transfer_fraction() * 100.0,
        );
    }
}

/// The wire hot path itself: batched slab encoding vs. the legacy per-word
/// varint loop, on identical 1 MiB heaps, both directions.
fn heap_encode_paths(c: &mut Criterion) {
    const HEAP_BYTES: usize = 1024 * 1024;
    let mut heap = Heap::new();
    populate_heap(&mut heap, HEAP_BYTES);

    let mut group = c.benchmark_group("migration/heap_encode");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .throughput(Throughput::Bytes(HEAP_BYTES as u64));
    group.bench_function("legacy_per_word_encode", |b| {
        b.iter(|| {
            let mut w = WireWriter::with_capacity(HEAP_BYTES);
            heap.encode_image_legacy(&mut w);
            w.into_bytes().len()
        });
    });
    group.bench_function("batched_encode", |b| {
        b.iter(|| {
            let mut w = WireWriter::with_capacity(HEAP_BYTES);
            heap.encode_image(&mut w);
            w.into_bytes().len()
        });
    });

    let mut w = WireWriter::new();
    heap.encode_image_legacy(&mut w);
    let legacy_bytes = w.into_bytes();
    let mut w = WireWriter::new();
    heap.encode_image(&mut w);
    let batched_bytes = w.into_bytes();
    group.bench_function("legacy_per_word_decode", |b| {
        b.iter(|| {
            let mut r = WireReader::new(&legacy_bytes);
            Heap::decode_image_legacy(&mut r, HeapConfig::default()).unwrap()
        });
    });
    group.bench_function("batched_decode", |b| {
        b.iter(|| {
            let mut r = WireReader::new(&batched_bytes);
            Heap::decode_image(&mut r, HeapConfig::default()).unwrap()
        });
    });
    group.finish();
    eprintln!(
        "heap image sizes for {} KiB of live data: legacy {} B, batched {} B",
        HEAP_BYTES / 1024,
        legacy_bytes.len(),
        batched_bytes.len()
    );
}

/// Delta vs. full checkpoint cost as a function of the mutated fraction:
/// the delta path's work should track the dirty percentage, the full path
/// the total heap size.
fn delta_vs_full_checkpoints(c: &mut Criterion) {
    const HEAP_BYTES: usize = 1024 * 1024;
    let mut group = c.benchmark_group("migration/delta_vs_full");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));

    let mut sizes = Vec::new();
    for percent in [1usize, 10, 50] {
        let mut heap = Heap::new();
        let ptrs = populate_heap(&mut heap, HEAP_BYTES);
        heap.mark_clean();
        mutate_percent(&mut heap, &ptrs, percent);

        // Per-variant throughput: each path is credited with the bytes it
        // actually produces, so the delta numbers are not inflated by the
        // untouched remainder of the heap.
        let mut w = WireWriter::new();
        heap.encode_image(&mut w);
        let full_len = w.into_bytes().len();
        let mut w = WireWriter::new();
        heap.encode_delta_image(&mut w);
        let delta_len = w.into_bytes().len();
        sizes.push((percent, full_len, delta_len));

        group.throughput(Throughput::Bytes(full_len as u64));
        group.bench_with_input(
            BenchmarkId::new("full", format!("{percent}pct_dirty")),
            &percent,
            |b, _| {
                b.iter(|| {
                    let mut w = WireWriter::with_capacity(HEAP_BYTES);
                    heap.encode_image(&mut w);
                    w.into_bytes().len()
                });
            },
        );
        group.throughput(Throughput::Bytes(delta_len as u64));
        group.bench_with_input(
            BenchmarkId::new("delta", format!("{percent}pct_dirty")),
            &percent,
            |b, _| {
                b.iter(|| {
                    let mut w = WireWriter::new();
                    heap.encode_delta_image(&mut w);
                    w.into_bytes().len()
                });
            },
        );
    }
    group.finish();
    eprintln!("checkpoint image sizes (1 MiB live heap):");
    eprintln!(
        "{:>12} {:>12} {:>12} {:>8}",
        "dirty %", "full (B)", "delta (B)", "ratio"
    );
    for (percent, full, delta) in sizes {
        eprintln!(
            "{percent:>11}% {full:>12} {delta:>12} {:>7.1}x",
            full as f64 / delta as f64
        );
    }
}

/// Wire v5 slab compression: image size and encode/decode cost per codec
/// on the 1 MiB small-int heap, against the v1 per-word varint baseline
/// and the batched v4 layout.
///
/// The *size* acceptance gate — v5 `VarintLz` full images at or below the
/// v1 varint size — is deterministic and asserted here, loudly, so the CI
/// smoke run (`cargo bench --bench migration -- codec`) fails on a
/// compression-ratio regression.  The throughput claim (encode ≥2× the
/// per-word baseline; ~2.8× measured on the reference container) is
/// wall-clock and therefore *reported*, not asserted: a hard timing gate
/// on a shared CI runner is a flake generator, and the criterion medians
/// printed above the table are the durable record.
fn codec_compression(c: &mut Criterion) {
    const HEAP_BYTES: usize = 1024 * 1024;
    let mut heap = Heap::new();
    populate_heap(&mut heap, HEAP_BYTES);

    let encode_v1 = |heap: &Heap| {
        let mut w = WireWriter::with_capacity(HEAP_BYTES);
        heap.encode_image_legacy(&mut w);
        w.into_bytes()
    };
    let encode_v4 = |heap: &Heap| {
        let mut w = WireWriter::with_capacity(HEAP_BYTES);
        heap.encode_image(&mut w);
        w.into_bytes()
    };
    let encode_v5 = |heap: &Heap, allowed: CodecSet| {
        let mut w = WireWriter::with_capacity(HEAP_BYTES);
        heap.encode_image_compressed(&mut w, allowed);
        w.into_bytes()
    };

    let v1 = encode_v1(&heap);
    let v4 = encode_v4(&heap);
    let v5_by_codec: Vec<(CodecId, Vec<u8>)> = CodecId::ALL
        .iter()
        .map(|&codec| (codec, encode_v5(&heap, CodecSet::only(codec))))
        .collect();
    let v5_auto = encode_v5(&heap, CodecSet::all());

    let mut group = c.benchmark_group("migration/codec");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .throughput(Throughput::Bytes(HEAP_BYTES as u64));
    group.bench_function("v1_per_word_encode", |b| b.iter(|| encode_v1(&heap).len()));
    group.bench_function("v4_batched_encode", |b| b.iter(|| encode_v4(&heap).len()));
    for codec in CodecId::ALL {
        group.bench_function(format!("v5_{}_encode", codec.name().to_lowercase()), |b| {
            b.iter(|| encode_v5(&heap, CodecSet::only(codec)).len())
        });
    }
    group.bench_function("v5_auto_encode", |b| {
        b.iter(|| encode_v5(&heap, CodecSet::all()).len())
    });
    for (codec, bytes) in &v5_by_codec {
        group.bench_function(format!("v5_{}_decode", codec.name().to_lowercase()), |b| {
            b.iter(|| {
                let mut r = WireReader::new(bytes);
                Heap::decode_image_compressed(&mut r, HeapConfig::default()).unwrap()
            })
        });
    }
    group.finish();

    // Size table + the acceptance gates.
    eprintln!();
    eprintln!("full-image sizes for the 1 MiB small-int heap:");
    eprintln!("{:>16} {:>12} {:>10}", "layout", "bytes", "vs v1");
    let row = |name: &str, len: usize| {
        eprintln!(
            "{name:>16} {len:>12} {:>9.2}x",
            len as f64 / v1.len() as f64
        );
    };
    row("v1 per-word", v1.len());
    row("v4 batched", v4.len());
    for (codec, bytes) in &v5_by_codec {
        row(&format!("v5 {}", codec.name()), bytes.len());
    }
    row("v5 auto", v5_auto.len());

    let v5_varint_lz = &v5_by_codec
        .iter()
        .find(|(codec, _)| *codec == CodecId::VarintLz)
        .expect("VarintLz measured")
        .1;
    assert!(
        v5_varint_lz.len() <= v1.len(),
        "ratio regression: v5 VarintLz image ({} B) exceeds the v1 varint image ({} B)",
        v5_varint_lz.len(),
        v1.len()
    );

    // Wall-clock cross-check of the throughput claim, independent of the
    // harness: median-of-5 timed reps of each encoder.
    let median_time = |f: &dyn Fn() -> usize| {
        let mut times: Vec<Duration> = (0..5)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed()
            })
            .collect();
        times.sort();
        times[2]
    };
    let t_v1 = median_time(&|| encode_v1(&heap).len());
    let t_v5 = median_time(&|| encode_v5(&heap, CodecSet::only(CodecId::VarintLz)).len());
    let speedup = t_v1.as_secs_f64() / t_v5.as_secs_f64();
    eprintln!(
        "encode wall-clock: v1 per-word {:?}, v5 VarintLz {:?} ({speedup:.2}x; \
         the acceptance target is ≥2x — investigate below ~1.5x on quiet hardware)",
        t_v1, t_v5
    );
}

/// The asynchronous checkpoint pipeline's two acceptance gates, asserted
/// in-bench so `cargo bench --bench migration -- pause` fails loudly on a
/// regression:
///
/// 1. **Pause gate** — the mutator pause of an asynchronous checkpoint
///    (zero-pause heap freeze + pipeline submission) on the 1 MiB heap is
///    ≤ 10 % of the synchronous checkpoint time (pack + deliver, which
///    includes the encode the pipeline moves off-thread).  Both sides are
///    deterministic medians of the same workload on the same substrate,
///    so the ratio gate is stable where an absolute timing gate would
///    flake.
/// 2. **Replay gate** — a 64-node deterministic grid run produces an
///    identical replay digest with `async_checkpoints` enabled and
///    disabled (drain barriers make the pipeline's side effects land at
///    the synchronous points).
fn async_pause(c: &mut Criterion) {
    const HEAP_BYTES: usize = 1024 * 1024;

    let mut group = c.benchmark_group("migration/pause");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("sync_checkpoint_1MiB", |b| {
        let (mut process, roots) = process_with_heap(HEAP_BYTES, false);
        let mut sink = InMemorySink::new();
        let mut n = 0u32;
        b.iter(|| {
            let image = process.pack(0, Word::Fun(0), &roots).expect("pack");
            n += 1;
            sink.deliver(MigrateProtocol::Checkpoint, &format!("ck-{n}"), &image)
        });
    });
    group.bench_function("async_submit_1MiB", |b| {
        let (mut process, roots) = process_with_heap(HEAP_BYTES, false);
        // A deep queue so the timed region is pure freeze + submission;
        // the worker drains it concurrently.
        let mut sink = AsyncSink::new(
            Box::new(InMemorySink::new()),
            PipelineConfig {
                queue_capacity: 1 << 14,
                ..PipelineConfig::default()
            },
        );
        let mut n = 0u32;
        b.iter(|| {
            let pack = process
                .pack_snapshot(0, Word::Fun(0), &roots, None)
                .expect("pack");
            n += 1;
            sink.deliver_deferred(MigrateProtocol::Checkpoint, &format!("ck-{n}"), pack)
        });
        sink.drain();
    });
    group.finish();

    // Both gates cost real work (ten 1 MiB checkpoints; four 64-node grid
    // runs), so they are skipped when a CLI filter excludes the pause
    // group — e.g. the CI codec smoke leg, which must not flake on a
    // noisy runner's pause timing.
    let filter = std::env::args().skip(1).find(|arg| !arg.starts_with('-'));
    if filter
        .as_deref()
        .is_some_and(|f| !"migration/pause".contains(f))
    {
        return;
    }

    // Gate 1: hand-rolled medians (independent of the harness), drained
    // between reps so queue state never leaks into the timed region.
    let median_ns = |f: &mut dyn FnMut()| -> u64 {
        let mut times: Vec<u64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_nanos() as u64
            })
            .collect();
        times.sort_unstable();
        times[2]
    };
    let (mut process, roots) = process_with_heap(HEAP_BYTES, false);
    let mut sync_sink = InMemorySink::new();
    let mut n = 0u32;
    let t_sync = median_ns(&mut || {
        let image = process.pack(0, Word::Fun(0), &roots).expect("pack");
        n += 1;
        sync_sink.deliver(MigrateProtocol::Checkpoint, &format!("ck-{n}"), &image);
    });
    let mut async_sink = AsyncSink::new(Box::new(InMemorySink::new()), PipelineConfig::default());
    let mut pause_times: Vec<u64> = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        let pack = process
            .pack_snapshot(0, Word::Fun(0), &roots, None)
            .expect("pack");
        n += 1;
        async_sink.deliver_deferred(MigrateProtocol::Checkpoint, &format!("ck-{n}"), pack);
        pause_times.push(start.elapsed().as_nanos() as u64);
        // Untimed: keep the queue empty so every rep measures a fresh,
        // unblocked submission.
        async_sink.drain();
    }
    pause_times.sort_unstable();
    let t_pause = pause_times[2];
    let stats = async_sink.stats();
    eprintln!();
    eprintln!(
        "async checkpoint pause on the 1 MiB heap: {:.1} µs vs {:.1} µs synchronous \
         ({:.1} % — gate: ≤ 10 %); pipeline encode {:.1} µs/checkpoint off-thread",
        t_pause as f64 / 1e3,
        t_sync as f64 / 1e3,
        t_pause as f64 * 100.0 / t_sync as f64,
        stats.encode_ns as f64 / stats.completed.max(1) as f64 / 1e3,
    );
    assert!(
        t_pause * 10 <= t_sync,
        "pause regression: async checkpoint pause {t_pause} ns exceeds 10% of the \
         synchronous checkpoint time {t_sync} ns"
    );

    // Gate 2: 64-node deterministic replay digest, async on vs off.
    {
        let config = GridConfig {
            workers: 64,
            rows_per_worker: 2,
            cols: 4,
            timesteps: 6,
            checkpoint_interval: 2,
        };
        let failure = Some(FailurePlan {
            victim: 23,
            after_checkpoints: 1,
        });
        let seed = 0x0A57_AC1D;
        let sync = mojave_grid::run_grid_with(
            &config,
            failure,
            GridOptions {
                seed: Some(seed),
                ..GridOptions::default()
            },
        )
        .expect("sync 64-node run");
        let asynchronous = mojave_grid::run_grid_with(
            &config,
            failure,
            GridOptions {
                seed: Some(seed),
                async_checkpoints: true,
                ..GridOptions::default()
            },
        )
        .expect("async 64-node run");
        assert!(sync.is_correct() && asynchronous.is_correct());
        assert_eq!(
            sync.replay_digest(),
            asynchronous.replay_digest(),
            "64-node deterministic replay digest must be identical with \
             async_checkpoints on and off"
        );
        eprintln!(
            "64-node deterministic replay digest identical with async checkpoints \
             on/off ({} checkpoints, {} deltas)",
            asynchronous.checkpoints, asynchronous.delta_checkpoints
        );
    }
}

criterion_group!(
    benches,
    fir_migration,
    binary_migration,
    recompilation_share,
    heap_encode_paths,
    delta_vs_full_checkpoints,
    codec_compression,
    async_pause
);
criterion_main!(benches);

//! Layer probes: each times one layer's public functions directly, on the
//! same seeded inputs the workloads use.
//!
//! A probe's number does not depend on which workload the traced run is
//! for.  Every traced run takes all of them (a traced run must report every
//! per-layer metric) and `ledger all` keeps the first run's readings for
//! every workload, so its document holds one value of each.  Each probe
//! keeps its work to a few tens of milliseconds and reports a median of
//! repeats; all of them together take about 0.6 s.

use crate::inputs::{
    populate_heap_mixed, SplitMix64, CKPT_ARRAYS, CKPT_ARRAY_WORDS, GRID_COMPUTE,
    MIGRATE_HEAP_BYTES, MIXED_BLOCK_WORDS,
};
use crate::measure::{median, median_ns_per_call, time_ms};
use crate::workloads::{mcc_path, process_with_mixed_heap, text};
use mojave_cluster::{
    Cluster, ClusterConfig, ClusterExternals, ClusterServer, RemoteCluster, RemoteSink,
};
use mojave_core::{
    backend, BackendKind, CheckpointStore, DeliveryOutcome, MigrationImage, MigrationSink, Process,
    ProcessConfig, RunOutcome,
};
use mojave_fir::{ExternEnv, MigrateProtocol};
use mojave_grid::{reference_checksums, worker_source, GridConfig};
use mojave_heap::{Heap, HeapConfig, Word};
use mojave_wire::{CodecId, CodecSet, FrameKind};
use std::hint::black_box;
use std::process::{Command, Stdio};

/// `(metric name, value)` pairs from every probe.
pub type Readings = Vec<(&'static str, f64)>;

/// Run every probe.
pub fn run_all(seed: u64) -> Result<Readings, String> {
    let mut out = Readings::new();
    compiler(&mut out)?;
    vm(&mut out)?;
    migration_stages(seed, &mut out)?;
    store(seed, &mut out)?;
    heap_ops(&mut out)?;
    freeze(seed, &mut out)?;
    speculation(seed, &mut out)?;
    wire_frames(seed, &mut out)?;
    transport(seed, &mut out)?;
    grid(&mut out);
    node_spawn(&mut out);
    Ok(out)
}

/// `lang` front end, `fir` verification and `core::backend` elaboration of
/// the `grid_compute` worker — what every grid op and every `from_image`
/// pays before the first instruction runs.
fn compiler(out: &mut Readings) -> Result<(), String> {
    let source = worker_source(&GRID_COMPUTE);
    let tokens = mojave_lang::lexer::lex(&source).map_err(text)?;
    let ast = mojave_lang::parser::parse(&tokens).map_err(text)?;
    let program = mojave_lang::lower::lower_program(&ast).map_err(text)?;
    let ms = |f: &mut dyn FnMut()| median_ns_per_call(5, 4, f) / 1e6;
    out.push((
        "lang.compile_ms",
        ms(&mut || {
            black_box(mojave_lang::compile_source(black_box(&source)).is_ok());
        }),
    ));
    out.push((
        "lang.lex_ms",
        ms(&mut || {
            black_box(mojave_lang::lexer::lex(black_box(&source)).is_ok());
        }),
    ));
    out.push((
        "lang.parse_ms",
        ms(&mut || {
            black_box(mojave_lang::parser::parse(black_box(&tokens)).is_ok());
        }),
    ));
    out.push((
        "lang.lower_ms",
        ms(&mut || {
            black_box(mojave_lang::lower::lower_program(black_box(&ast)).is_ok());
        }),
    ));
    out.push(("lang.fir_size", program.size() as f64));
    let env = ExternEnv::standard();
    out.push((
        "fir.typecheck_ms",
        ms(&mut || {
            black_box(mojave_fir::validate(black_box(&program)).is_ok());
            black_box(mojave_fir::typecheck(black_box(&program), &env).is_ok());
        }),
    ));
    out.push((
        "core.backend_compile_ms",
        ms(&mut || {
            black_box(backend::compile_program(black_box(&program)).is_ok());
        }),
    ));
    Ok(())
}

/// Nanoseconds per executed step on each back end: one worker of the
/// `grid_compute` block size alone on a one-node cluster (no peers, so no
/// waiting), two timesteps.
fn vm(out: &mut Readings) -> Result<(), String> {
    let shape = GridConfig {
        workers: 1,
        timesteps: 2,
        checkpoint_interval: 2,
        ..GRID_COMPUTE
    };
    let program = mojave_lang::compile_source(&worker_source(&shape)).map_err(text)?;
    for (name, backend) in [
        ("core.vm_ns_per_step", BackendKind::Bytecode),
        ("core.interp_ns_per_step", BackendKind::Interp),
    ] {
        let mut runs = Vec::new();
        for _ in 0..3 {
            let cluster = Cluster::new(ClusterConfig::deterministic(1, 1));
            let config = ProcessConfig {
                backend,
                ..ProcessConfig::default()
            };
            let mut process = Process::new(program.clone(), config)
                .map_err(text)?
                .with_externals(Box::new(ClusterExternals::new(cluster, 0)));
            let (ms, outcome) = time_ms(|| process.run());
            if !matches!(outcome, Ok(RunOutcome::Exit(_))) {
                return Err(format!("{name}: the worker ended as {outcome:?}"));
            }
            runs.push(ms * 1e6 / process.stats().steps as f64);
        }
        out.push((name, median(&runs)));
    }
    Ok(())
}

/// The stages of a cold migration of the `migrate_cold` process, one timing
/// per stage, plus the heap decode alone and the image's size accounting.
fn migration_stages(seed: u64, out: &mut Readings) -> Result<(), String> {
    let (mut source, blocks) = process_with_mixed_heap(MIGRATE_HEAP_BYTES, seed);
    let roots: Vec<Word> = blocks.iter().copied().map(Word::Ptr).collect();
    let mut stages: [Vec<f64>; 5] = Default::default();
    let mut last = None;
    for _ in 0..7 {
        let (pack_ms, image) = time_ms(|| source.pack(0, Word::Fun(0), &roots));
        let image = image.map_err(text)?;
        let (to_bytes_ms, bytes) = time_ms(|| image.to_bytes());
        let (from_bytes_ms, received) = time_ms(|| MigrationImage::from_bytes(&bytes));
        let received = received.map_err(text)?;
        let (from_image_ms, process) =
            time_ms(|| Process::from_image(received.clone(), ProcessConfig::default()));
        drop(process.map_err(text)?);
        // The heap half of `from_image`, alone, on the same image.
        let (decode_ms, heap) = time_ms(|| received.decode_heap(HeapConfig::default()));
        drop(heap.map_err(text)?);
        for (stage, ms) in stages.iter_mut().zip([
            pack_ms,
            to_bytes_ms,
            from_bytes_ms,
            from_image_ms,
            decode_ms,
        ]) {
            stage.push(ms);
        }
        last = Some(image);
    }
    for (name, stage) in [
        "core.pack_ms",
        "core.to_bytes_ms",
        "core.from_bytes_ms",
        "core.from_image_ms",
        "core.decode_heap_ms",
    ]
    .into_iter()
    .zip(&stages)
    {
        out.push((name, median(stage)));
    }
    let image = last.expect("at least one iteration ran");
    let (raw, stored) = image.heap_payload_wire_stats();
    out.push(("codec.ratio", stored as f64 / raw as f64));

    // Slab codecs on the word slab that image carries: every word of every
    // root block, in heap order.
    let mut slab = Vec::with_capacity(blocks.len() * MIXED_BLOCK_WORDS);
    for &block in &blocks {
        for i in 0..MIXED_BLOCK_WORDS {
            slab.push(
                source
                    .heap()
                    .load(block, i as i64)
                    .map_err(text)?
                    .to_raw()
                    .1,
            );
        }
    }
    let mib = (slab.len() * 8) as f64 / (1024.0 * 1024.0);
    for (codec, enc_name, dec_name) in [
        (
            CodecId::Varint,
            "codec.varint_enc_mib_s",
            "codec.varint_dec_mib_s",
        ),
        (CodecId::Lz, "codec.lz_enc_mib_s", "codec.lz_dec_mib_s"),
        (
            CodecId::VarintLz,
            "codec.varintlz_enc_mib_s",
            "codec.varintlz_dec_mib_s",
        ),
    ] {
        let mut packed = Vec::new();
        let enc_ns = median_ns_per_call(3, 1, || {
            packed.clear();
            mojave_wire::compress_words(codec, black_box(&slab), &mut packed);
        });
        let mut unpacked = Vec::with_capacity(slab.len());
        let mut failed = false;
        let dec_ns = median_ns_per_call(3, 1, || {
            unpacked.clear();
            failed |=
                mojave_wire::decompress_words(codec, &packed, slab.len(), &mut unpacked).is_err();
        });
        if failed || unpacked != slab {
            return Err(format!("{} does not round-trip the slab", codec.name()));
        }
        out.push((enc_name, mib / (enc_ns / 1e9)));
        out.push((dec_name, mib / (dec_ns / 1e9)));
    }
    Ok(())
}

/// `CheckpointStore`: `put` of a delta-sized image, and `load` of the last
/// image of an eight-delta chain (parse + resolve against the full base).
fn store(seed: u64, out: &mut Readings) -> Result<(), String> {
    let (mut process, blocks) = process_with_mixed_heap(200 * 1024, seed);
    let roots: Vec<Word> = blocks.iter().copied().map(Word::Ptr).collect();
    let store = CheckpointStore::new();
    let base = process.pack(0, Word::Fun(0), &roots).map_err(text)?;
    let fingerprint = base.heap_image.fingerprint();
    store.put("base", base.to_bytes());
    // The code section every image carries, delta or not.
    out.push((
        "fir.code_bytes",
        (base.byte_size() - base.heap_image.len()) as f64,
    ));
    process.heap_mut().mark_clean();
    let mut delta_bytes = Vec::new();
    for step in 0..8i64 {
        for block in blocks.iter().skip(step as usize).step_by(16) {
            process
                .heap_mut()
                .store(*block, step, Word::Int(-step))
                .map_err(text)?;
        }
        let delta = process
            .pack_delta(0, Word::Fun(0), &roots, "base", fingerprint)
            .map_err(text)?;
        delta_bytes = delta.to_bytes();
        store.put(&format!("delta-{step}"), delta_bytes.clone());
    }
    let load_ns = median_ns_per_call(5, 2, || {
        black_box(store.load("delta-7").is_ok());
    });
    if store.load("delta-7").is_err() {
        return Err("the delta chain does not load".to_owned());
    }
    out.push(("core.store_load_ms", load_ns / 1e6));
    let puts: Vec<f64> = (0..5)
        .map(|_| {
            // `put` takes ownership; the copies are made outside the timing.
            let copies = vec![delta_bytes.clone(); 200];
            let (ms, ()) = time_ms(|| {
                for bytes in copies {
                    store.put("put-probe", bytes);
                }
            });
            ms * 1e3 / 200.0
        })
        .collect();
    out.push(("core.store_put_us", median(&puts)));
    Ok(())
}

/// Raw heap operations: allocation of a 64-word block, load, store.
fn heap_ops(out: &mut Readings) -> Result<(), String> {
    let alloc_ns = median_ns_per_call(5, 1, || {
        let mut heap = Heap::new();
        for _ in 0..2000 {
            black_box(heap.alloc_array(64, Word::Int(0)).is_ok());
        }
    }) / 2000.0;
    out.push(("heap.alloc_ns", alloc_ns));
    let mut heap = Heap::new();
    let block = heap.alloc_array(1024, Word::Int(7)).map_err(text)?;
    let mut i = 0i64;
    out.push((
        "heap.load_ns",
        median_ns_per_call(5, 100_000, || {
            i = (i + 1) & 1023;
            black_box(heap.load(block, i).is_ok());
        }),
    ));
    out.push((
        "heap.store_ns",
        median_ns_per_call(5, 100_000, || {
            i = (i + 1) & 1023;
            black_box(heap.store(block, i, Word::Int(i)).is_ok());
        }),
    ));
    Ok(())
}

/// The asynchronous checkpoint's mutator-side costs on the `ckpt_stream`
/// heap shape (64 blocks of 16 KiB): `freeze`, then the first store to each
/// block while the snapshot is still alive (one lazy 16 KiB copy each).
fn freeze(seed: u64, out: &mut Readings) -> Result<(), String> {
    let mut heap = Heap::new();
    let mut rng = SplitMix64(seed);
    let mut blocks = Vec::new();
    for _ in 0..CKPT_ARRAYS {
        let block = heap
            .alloc_array(CKPT_ARRAY_WORDS as i64, Word::Int(0))
            .map_err(text)?;
        for i in 0..CKPT_ARRAY_WORDS {
            heap.store(block, i as i64, Word::Int(rng.next_u64() as i64))
                .map_err(text)?;
        }
        blocks.push(block);
    }
    let (mut freezes, mut stores) = (Vec::new(), Vec::new());
    for round in 0..15i64 {
        let (freeze_ms, snapshot) = time_ms(|| heap.freeze());
        let (store_ms, ok) = time_ms(|| {
            blocks
                .iter()
                .all(|b| heap.store(*b, round, Word::Int(round)).is_ok())
        });
        if !ok {
            return Err("store after freeze failed".to_owned());
        }
        drop(snapshot);
        freezes.push(freeze_ms * 1e3);
        stores.push(store_ms * 1e3 / blocks.len() as f64);
    }
    out.push(("heap.freeze_us", median(&freezes)));
    out.push(("heap.store_after_freeze_us", median(&stores)));
    Ok(())
}

/// Speculation on a 200 KiB heap with 10 % of its blocks written inside the
/// level (the paper's E3–E5): commit and abort of such a level, and — since
/// entering alone is below the clock's resolution — the round trip of
/// entering and at once committing an empty level.
fn speculation(seed: u64, out: &mut Readings) -> Result<(), String> {
    let mut heap = Heap::new();
    let blocks = populate_heap_mixed(&mut heap, 200 * 1024, seed);
    let touched = blocks.len() / 10;
    let mut failed = false;
    let enter_ns = median_ns_per_call(5, 2000, || {
        let level = heap.spec_enter();
        failed |= heap.spec_commit(level).is_err();
    });
    if failed {
        return Err("committing an empty level failed".to_owned());
    }
    out.push(("heap.spec_enter_us", enter_ns / 1e3));
    let (mut commits, mut aborts) = (Vec::new(), Vec::new());
    for round in 0..40i64 {
        let level = heap.spec_enter();
        for block in blocks.iter().take(touched) {
            heap.store(*block, round % 64, Word::Int(round))
                .map_err(text)?;
        }
        if round % 2 == 0 {
            let (ms, result) = time_ms(|| heap.spec_commit(level));
            result.map_err(text)?;
            commits.push(ms * 1e3);
        } else {
            let (ms, result) = time_ms(|| heap.spec_rollback(level));
            result.map_err(text)?;
            aborts.push(ms * 1e3);
        }
    }
    out.push(("heap.spec_commit_us", median(&commits)));
    out.push(("heap.spec_abort_us", median(&aborts)));
    Ok(())
}

/// Transport framing alone: `write_frame` + `read_frame` of a 64 KiB
/// payload through a `Vec`, no socket.
fn wire_frames(seed: u64, out: &mut Readings) -> Result<(), String> {
    let mut rng = SplitMix64(seed);
    let payload: Vec<u8> = (0..64 * 1024).map(|_| rng.next_u64() as u8).collect();
    let mut buffer = Vec::with_capacity(payload.len() + 16);
    let mut failed = false;
    let ns = median_ns_per_call(5, 100, || {
        buffer.clear();
        failed |= mojave_wire::write_frame(&mut buffer, FrameKind::Deliver, &payload).is_err();
        match mojave_wire::read_frame(&mut buffer.as_slice()) {
            Ok((_, back)) => failed |= back.len() != payload.len(),
            Err(_) => failed = true,
        }
    });
    if failed {
        return Err("a frame did not round-trip".to_owned());
    }
    out.push(("wire.frame_rt_us", ns / 1e3));
    Ok(())
}

/// The socket transport over loopback: one RPC round trip (`tick`), and the
/// throughput of shipping the `migrate_cold` image through `RemoteSink`.
fn transport(seed: u64, out: &mut Readings) -> Result<(), String> {
    let cluster = Cluster::new(ClusterConfig::deterministic(1, seed));
    let server = ClusterServer::bind(cluster, "127.0.0.1:0").map_err(text)?;
    let addr = server.local_addr().to_string();
    let remote = RemoteCluster::connect(&addr, 0, CodecSet::all()).map_err(text)?;
    let mut failed = false;
    let rtt_ns = median_ns_per_call(5, 400, || failed |= remote.tick().is_err());
    out.push(("cluster.rpc_rtt_us", rtt_ns / 1e3));

    let (mut process, blocks) = process_with_mixed_heap(MIGRATE_HEAP_BYTES, seed);
    let roots: Vec<Word> = blocks.into_iter().map(Word::Ptr).collect();
    let image = process.pack(0, Word::Fun(0), &roots).map_err(text)?;
    let mib = image.byte_size() as f64 / (1024.0 * 1024.0);
    let mut sink = RemoteSink::new(remote.clone());
    let deliver_ns = median_ns_per_call(5, 1, || {
        failed |= sink.deliver(MigrateProtocol::Checkpoint, "image-probe", &image)
            != DeliveryOutcome::Stored;
    });
    remote.bye();
    if failed {
        return Err("a loopback RPC failed".to_owned());
    }
    out.push(("cluster.image_mib_s", mib / (deliver_ns / 1e9)));
    Ok(())
}

/// The grid layer's own piece outside the workers: the sequential reference
/// solver every op runs to check itself, on the `grid_compute` shape.
fn grid(out: &mut Readings) {
    let reference_ns = median_ns_per_call(5, 4, || {
        black_box(reference_checksums(black_box(&GRID_COMPUTE)));
    });
    out.push(("grid.reference_ms", reference_ns / 1e6));
}

/// What starting one node process costs before it does anything: spawn
/// `mcc` with no arguments (it prints its usage and exits) and wait for it.
/// Every `grid_served` op pays this once per worker, in parallel.
fn node_spawn(out: &mut Readings) {
    let Some(mcc) = mcc_path() else {
        return;
    };
    let spawns: Vec<f64> = (0..9)
        .filter_map(|_| {
            let (ms, status) = time_ms(|| {
                Command::new(&mcc)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .status()
            });
            status.is_ok().then_some(ms)
        })
        .collect();
    out.push(("mcc.node_spawn_ms", median(&spawns)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::PER_LAYER;

    /// `ledger all` copies the metrics flagged `probe` from one traced run to
    /// every workload, so the flags must name exactly what the probes take.
    #[test]
    fn probe_flags_name_what_the_probes_take() {
        let taken: Vec<&str> = run_all(12)
            .expect("the probes run")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        for metric in PER_LAYER {
            // The spawn probe needs the `mcc` binary beside the test binary.
            let expected = metric.probe && metric.name != "mcc.node_spawn_ms";
            assert!(
                !expected || taken.contains(&metric.name),
                "{} is flagged as a probe but no probe takes it",
                metric.name
            );
        }
        for name in taken {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name && m.probe),
                "{name} is taken by a probe but not flagged as one"
            );
        }
    }
}

//! Transport fault paths, exercised over real loopback sockets: mid-frame
//! disconnects, short reads, handshake version/codec mismatches, and the
//! hostile mutation corpus from `mojave-fuzz` arriving both as framed
//! image payloads and as raw pre-handshake byte streams.
//!
//! The contract under test: every fault produces a **precise error** —
//! an `Error` frame, a `Failed` delivery outcome, or a closed connection
//! — and the server keeps serving other connections.  Never a panic,
//! never a hang.

use mojave_cluster::{
    Cluster, ClusterConfig, ClusterOps, ClusterServer, RecvOutcome, RemoteCluster,
};
use mojave_core::DeliveryOutcome;
use mojave_fir::MigrateProtocol;
use mojave_wire::{
    read_frame, write_frame, CodecSet, FrameError, FrameKind, Hello, WireWriter, FORMAT_VERSION,
    MAGIC, TRANSPORT_VERSION,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Panics observed anywhere in this test binary — server handler threads
/// included.  The fault sweep asserts it stays at zero.
static PANICS: AtomicUsize = AtomicUsize::new(0);

fn install_panic_counter() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            default(info);
        }));
    });
}

/// A served cluster.  Every receive the fault tests make has its payload
/// sent first, so none of them waits on the deadlock safety net.
fn served(nodes: usize) -> (ClusterServer, String) {
    let server =
        ClusterServer::bind(Cluster::new(ClusterConfig::new(nodes)), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// The health probe: a fresh, fully valid connection still handshakes,
/// moves a message and delivers a (bogus, but precisely rejected) image.
fn assert_server_alive(server: &ClusterServer, addr: &str) {
    let a = RemoteCluster::connect(addr, 0, CodecSet::all()).expect("healthy connect");
    let b = RemoteCluster::connect(addr, 1, CodecSet::all()).expect("healthy connect");
    a.send(1, 99, vec![4.5]).expect("healthy send");
    assert_eq!(
        b.recv(0, 99).expect("healthy recv"),
        RecvOutcome::Data(vec![4.5])
    );
    let outcome = a
        .deliver(MigrateProtocol::Checkpoint, "probe", b"garbage")
        .expect("healthy rpc");
    assert!(matches!(outcome, DeliveryOutcome::Failed(_)));
    let _ = server;
    a.bye();
    b.bye();
}

#[test]
fn mid_frame_disconnect_leaves_the_server_serving() {
    install_panic_counter();
    let (server, addr) = served(2);

    // A header promising 4096 payload bytes, then 10 bytes, then death.
    let mut stream = TcpStream::connect(&addr).expect("dial");
    let mut partial = vec![FrameKind::Hello as u8];
    partial.extend_from_slice(&4096u32.to_le_bytes());
    partial.extend_from_slice(&[0xAB; 10]);
    stream.write_all(&partial).expect("write partial frame");
    drop(stream);

    // A header cut inside the length field.
    let mut stream = TcpStream::connect(&addr).expect("dial");
    stream
        .write_all(&[FrameKind::Hello as u8, 0x10])
        .expect("write split header");
    drop(stream);

    // Death after a complete, valid handshake, mid-way through a Deliver.
    let mut stream = TcpStream::connect(&addr).expect("dial");
    let hello = Hello::current(0, CodecSet::all().bits(), "ia32-sim");
    write_frame(&mut stream, FrameKind::Hello, &hello.to_payload()).expect("hello");
    let (kind, _) = read_frame(&mut stream).expect("welcome");
    assert_eq!(kind, FrameKind::Welcome);
    let mut partial = vec![FrameKind::Deliver as u8];
    partial.extend_from_slice(&100_000u32.to_le_bytes());
    partial.extend_from_slice(&[0xCD; 64]);
    stream.write_all(&partial).expect("write partial deliver");
    drop(stream);

    assert_server_alive(&server, &addr);
    assert_eq!(PANICS.load(Ordering::SeqCst), 0);
}

#[test]
fn handshake_mismatches_get_precise_error_frames() {
    install_panic_counter();
    let (server, addr) = served(2);

    let expect_error = |hello_payload: Vec<u8>, needle: &str| {
        let mut stream = TcpStream::connect(&addr).expect("dial");
        write_frame(&mut stream, FrameKind::Hello, &hello_payload).expect("hello");
        match read_frame(&mut stream) {
            Ok((FrameKind::Error, payload)) => {
                let message = mojave_wire::decode_error(&payload);
                assert!(
                    message.contains(needle),
                    "error message `{message}` should mention `{needle}`"
                );
            }
            other => panic!("expected an Error frame, got {other:?}"),
        }
    };

    // Wrong transport version.
    let mut hello = Hello::current(0, CodecSet::all().bits(), "ia32-sim");
    hello.transport_version = TRANSPORT_VERSION + 7;
    expect_error(hello.to_payload(), "transport version");

    // The previous transport version: its Welcome carried a byte this one
    // no longer sends, so it is refused by number, not misparsed.
    let mut hello = Hello::current(0, CodecSet::all().bits(), "ia32-sim");
    hello.transport_version = 2;
    expect_error(
        hello.to_payload(),
        &format!("unsupported transport version 2 (this server speaks {TRANSPORT_VERSION})"),
    );

    // An image format this server cannot decode.
    let mut hello = Hello::current(0, CodecSet::all().bits(), "ia32-sim");
    hello.format_version = FORMAT_VERSION + 10;
    expect_error(hello.to_payload(), "format version");

    // A node the cluster does not have.
    expect_error(
        Hello::current(7, CodecSet::all().bits(), "ia32-sim").to_payload(),
        "node 7",
    );

    // Garbage magic in the hello payload.
    let mut w = WireWriter::new();
    w.write_u32(MAGIC ^ 0xFFFF);
    w.write_u32(TRANSPORT_VERSION);
    expect_error(w.into_bytes(), "bad hello");

    // A first frame that is not a Hello at all.
    let mut stream = TcpStream::connect(&addr).expect("dial");
    write_frame(&mut stream, FrameKind::Tick, &[]).expect("tick");
    match read_frame(&mut stream) {
        Ok((FrameKind::Error, payload)) => {
            let message = mojave_wire::decode_error(&payload);
            assert!(message.contains("expected Hello"), "got `{message}`");
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }

    // Codec mismatch is *not* an error: garbage advertised bits degrade
    // to the shared subset (Raw always survives).
    let remote = RemoteCluster::connect(&addr, 0, CodecSet::from_bits(0b1010_0000))
        .expect("garbage codec bits still handshake");
    assert_eq!(remote.welcome().codec_bits, CodecSet::raw_only().bits());
    remote.bye();

    assert_server_alive(&server, &addr);
    assert_eq!(PANICS.load(Ordering::SeqCst), 0);
}

#[test]
fn malformed_rpc_payloads_error_without_killing_the_server() {
    install_panic_counter();
    let (server, addr) = served(2);

    // Valid handshake, then a Deliver frame whose payload is not even a
    // valid RPC encoding: the server answers with an Error frame and
    // closes only this connection.
    let mut stream = TcpStream::connect(&addr).expect("dial");
    let hello = Hello::current(0, CodecSet::all().bits(), "ia32-sim");
    write_frame(&mut stream, FrameKind::Hello, &hello.to_payload()).expect("hello");
    let (kind, _) = read_frame(&mut stream).expect("welcome");
    assert_eq!(kind, FrameKind::Welcome);
    write_frame(&mut stream, FrameKind::Deliver, b"xy").expect("bad deliver");
    match read_frame(&mut stream) {
        Ok((FrameKind::Error, payload)) => {
            let message = mojave_wire::decode_error(&payload);
            assert!(message.contains("Deliver"), "got `{message}`");
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }

    // Same for a server-only frame kind sent by a client.
    let remote = RemoteCluster::connect(&addr, 1, CodecSet::all()).expect("connect");
    let err = remote.send(9, 1, Vec::new()).unwrap_err();
    assert!(
        matches!(&err, FrameError::Protocol(msg) if msg.contains("node 9")),
        "got {err:?}"
    );

    assert_server_alive(&server, &addr);
    assert_eq!(PANICS.load(Ordering::SeqCst), 0);
}

#[test]
fn hostile_corpus_over_the_socket_yields_precise_errors_and_zero_panics() {
    install_panic_counter();
    let (server, addr) = served(2);
    let corpus = mojave_fuzz::mutate::corpus();
    assert!(!corpus.is_empty(), "mutation corpus must not be empty");

    // Mutants of every corpus image, shipped as Deliver payloads over one
    // long-lived connection: each is either parsed (Stored — checkpoints
    // are idempotent by name) or rejected with a precise message.  The
    // connection itself must survive every one of them.
    let remote = RemoteCluster::connect(&addr, 0, CodecSet::all()).expect("connect");
    let mut delivered = 0u32;
    let mut rejected = 0u32;
    for (name, bytes) in &corpus {
        for seed in 0..24u64 {
            let (mutant, kind) = mojave_fuzz::mutate::mutate(bytes, seed);
            let outcome = remote
                .deliver(MigrateProtocol::Checkpoint, "hostile-ck", &mutant)
                .unwrap_or_else(|e| panic!("{name} seed {seed} ({kind:?}): rpc died: {e}"));
            match outcome {
                DeliveryOutcome::Stored => delivered += 1,
                DeliveryOutcome::Failed(message) => {
                    assert!(
                        !message.is_empty(),
                        "{name} seed {seed}: rejection must carry a reason"
                    );
                    rejected += 1;
                }
                other => panic!("{name} seed {seed}: unexpected outcome {other:?}"),
            }
        }
    }
    remote.bye();
    assert!(rejected > 0, "the sweep must exercise rejection paths");
    // Some mutations (e.g. benign byte flips in float payloads) still
    // parse — that is fine and expected.
    let _ = delivered;

    // The same corpus raw on the wire, pre-handshake: hostile bytes where
    // a Hello should be.  Every connection dies quickly and cleanly.
    for (_, bytes) in corpus.iter() {
        let mut stream = TcpStream::connect(&addr).expect("dial");
        let _ = stream.write_all(&bytes[..bytes.len().min(512)]);
        drop(stream);
    }

    assert_server_alive(&server, &addr);
    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        0,
        "hostile input must never panic a server thread"
    );
}

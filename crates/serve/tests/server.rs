//! End-to-end tests for the serving layer: exactness over the wire (also
//! under live readers and across hundreds of connections), pipelined
//! ordering, backpressure, hostile-frame survival,
//! and drain-on-shutdown — all against real sockets on ephemeral ports.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use asketch::filter::VectorFilter;
use asketch::ASketch;
use asketch_parallel::{ConcurrentASketch, ConcurrentConfig};
use asketch_serve::{Client, ErrorCode, Request, Response, ServeConfig, Server, MAX_FRAME};
use sketches::CountMin;
use streamgen::{ExactCounter, StreamSpec};

const FILTER_ITEMS: usize = 24;
const SHARDS: usize = 3;
const SEED: u64 = 0x5EED_2016;

fn kernel(shard: usize) -> ASketch<VectorFilter, CountMin> {
    ASketch::new(
        VectorFilter::new(FILTER_ITEMS),
        CountMin::with_byte_budget(SEED ^ shard as u64, 4, 1 << 16).expect("budget fits"),
    )
}

fn runtime_config(shards: usize) -> ConcurrentConfig {
    ConcurrentConfig {
        shards,
        batch: 64,
        publish_interval: 256,
        view_interval: 1024,
        ..ConcurrentConfig::default()
    }
}

fn spawn_server() -> Server<VectorFilter, CountMin> {
    serve(ServeConfig::default())
}

fn serve(cfg: ServeConfig) -> Server<VectorFilter, CountMin> {
    let rt = ConcurrentASketch::spawn(runtime_config(SHARDS), kernel);
    Server::spawn(cfg, rt).expect("bind ephemeral port")
}

fn workload(len: usize) -> (Vec<u64>, ExactCounter) {
    let spec = StreamSpec {
        len,
        distinct: 2_000,
        skew: 1.2,
        seed: 0xC0C0_2026,
    };
    let stream = spec.materialize();
    let truth = ExactCounter::from_keys(&stream);
    (stream, truth)
}

/// One write connection streams a skewed workload while three reader
/// connections hammer estimates; after SYNC, every distinct key's
/// networked estimate equals a local runtime fed the same ordered stream
/// — the filter is order-dependent, so this checks the serving path
/// preserved arrival order end to end — and no read waited on a writer.
#[test]
fn networked_answers_match_local_runtime_exactly() {
    let server = spawn_server();
    let addr = server.addr();
    let (stream, truth) = workload(40_000);

    let mut reference = ConcurrentASketch::spawn(runtime_config(SHARDS), kernel);
    reference.insert_batch(&stream);
    reference.sync();
    let ref_handle = reference.query_handle();

    // Each reader is served once before the writes start, then reads
    // until the stream is synced.
    let stop = Arc::new(AtomicBool::new(false));
    let live = Arc::new(Barrier::new(4));
    let readers: Vec<_> = (0..3u64)
        .map(|r| {
            let (stop, live) = (Arc::clone(&stop), Arc::clone(&live));
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("reader connect");
                let keys: Vec<u64> = (0..512u64).map(|i| i * 31 + r).collect();
                let mut served = 0u64;
                loop {
                    let vals = c.estimate_batch(&keys).expect("live read");
                    assert_eq!(vals.len(), keys.len());
                    if served == 0 {
                        live.wait();
                    }
                    served += vals.len() as u64;
                    if stop.load(Ordering::Acquire) {
                        return served;
                    }
                }
            })
        })
        .collect();
    live.wait();

    let mut client = Client::connect(addr).expect("connect");
    for chunk in stream.chunks(1_000) {
        assert_eq!(
            client.update_batch(chunk).expect("update"),
            chunk.len() as u32
        );
    }
    let routed = client.sync().expect("sync");
    assert_eq!(routed, stream.len() as u64, "sync reports total routed");
    stop.store(true, Ordering::Release);
    for reader in readers {
        assert!(
            reader.join().expect("reader") > 0,
            "a reader was never served"
        );
    }

    let keys: Vec<u64> = truth.iter().map(|(k, _)| k).collect();
    let over_wire = client.estimate_batch(&keys).expect("estimate batch");
    for (i, &key) in keys.iter().enumerate() {
        assert_eq!(
            over_wire[i],
            ref_handle.estimate(key),
            "networked estimate diverged for key {key}"
        );
    }

    // Top-k over the wire matches the local snapshot view too.
    let net_topk = client.top_k(10).expect("topk");
    assert_eq!(net_topk, ref_handle.top_k(10), "top-k diverged over wire");

    let (_, health, gauge) = server.shutdown();
    assert_eq!(health.total_routed(), stream.len() as u64);
    assert_eq!(gauge.protocol_errors, 0);
    assert_eq!(
        gauge.reader_blocked, 0,
        "reads blocked under live writes (retries={})",
        gauge.reader_retries
    );
    let _ = reference.finish();
}

/// 512 connections at once, one client thread each: every socket is open
/// before the first write, each streams batches and reads a live
/// estimate, and after a SYNC the runtime accounts for every accepted key
/// exactly — accept fan-out, per-reactor connection bookkeeping and
/// cross-connection staging at a count far beyond the other tests'.
#[test]
fn many_connections_are_accepted_and_accounted_exactly() {
    const CONNS: usize = 512;
    const BATCHES: usize = 4;
    const BATCH: usize = 128;
    let server = spawn_server();
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(CONNS));
    let workers: Vec<_> = (0..CONNS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("worker connect");
                barrier.wait(); // every socket open before anyone writes
                let keys: Vec<u64> = (0..BATCH as u64)
                    .map(|i| i.wrapping_mul(31).wrapping_add(c as u64))
                    .collect();
                for _ in 0..BATCHES {
                    assert_eq!(
                        client.update_batch(&keys).expect("worker update"),
                        BATCH as u32
                    );
                }
                assert!(client.estimate(c as u64 % 64).expect("worker estimate") >= 0);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread");
    }
    let routed = Client::connect(addr)
        .expect("control connect")
        .sync()
        .expect("control sync");
    let expected = (CONNS * BATCHES * BATCH) as u64;
    assert_eq!(
        routed, expected,
        "post-sync count across {CONNS} connections"
    );
    assert!(server.stats().connections_accepted > CONNS as u64);
    let (_, health, gauge) = server.shutdown();
    assert_eq!(health.total_routed(), expected);
    assert_eq!(gauge.protocol_errors, 0);
}

/// Deep pipeline: many requests written before any response is read; the
/// responses must come back in request order, one per request.
#[test]
fn pipelined_responses_come_back_in_request_order() {
    let server = spawn_server();
    let mut client = Client::connect(server.addr()).expect("connect");

    // Give key k exactly k occurrences (k = 1..=40), then barrier.
    let mut keys = Vec::new();
    for k in 1u64..=40 {
        keys.extend(std::iter::repeat_n(k, k as usize));
    }
    client.update_batch(&keys).expect("update");
    client.sync().expect("sync");

    // Pipeline 200 interleaved estimates without reading a single reply.
    let order: Vec<u64> = (0..200u64).map(|i| 1 + (i * 7) % 40).collect();
    for &k in &order {
        client.send(&Request::Estimate(k)).expect("queue frame");
    }
    client.flush().expect("flush pipeline");
    for &k in &order {
        match client.recv().expect("pipelined reply") {
            Response::Value(v) => {
                assert_eq!(v, k as i64, "reply out of order: key {k} answered {v}")
            }
            other => panic!("expected VALUE, got {other:?}"),
        }
    }

    let (_, _, gauge) = server.shutdown();
    assert_eq!(gauge.frames_in, gauge.frames_out, "every frame answered");
}

/// A write flood blocks on the rings: nothing is shed and post-sync
/// counts stay exact.
#[test]
fn block_policy_floods_without_shedding() {
    let server = spawn_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let (stream, _) = workload(30_000);
    for chunk in stream.chunks(500) {
        client
            .update_batch(chunk)
            .expect("update under backpressure");
    }
    let routed = client.sync().expect("sync");
    assert_eq!(routed, stream.len() as u64);
    let (_, health, _) = server.shutdown();
    assert_eq!(health.total_routed(), stream.len() as u64);
}

/// Frame-level hostility: unknown opcodes and malformed bodies get error
/// frames and the connection keeps serving; an oversized declared length
/// gets an error frame and then the connection closes (unresyncable).
#[test]
fn hostile_frames_get_error_frames_and_never_kill_the_server() {
    let server = spawn_server();
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    client.update_batch(&[7, 7, 7]).expect("seed");
    client.sync().expect("sync");

    // Unknown opcode: error frame, connection survives.
    let mut raw = client.stream().try_clone().expect("clone stream");
    raw.write_all(&[1, 0, 0, 0, 0x7F]).expect("unknown opcode");
    match client.recv().expect("error frame") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownOpcode),
        other => panic!("expected error frame, got {other:?}"),
    }

    // Malformed body (ESTIMATE with a truncated key): error frame, survives.
    raw.write_all(&[5, 0, 0, 0, 0x03, 1, 2, 3, 4])
        .expect("truncated estimate");
    match client.recv().expect("error frame") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected error frame, got {other:?}"),
    }

    // Hostile batch count (declares 2^28 keys in a 12-byte frame): the
    // decoder must reject before allocating.
    let mut hostile = vec![9, 0, 0, 0, 0x04];
    hostile.extend_from_slice(&(1u32 << 28).to_le_bytes());
    hostile.extend_from_slice(&[0xAA; 4]);
    raw.write_all(&hostile).expect("hostile count");
    match client.recv().expect("error frame") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected error frame, got {other:?}"),
    }

    // The same connection still answers real queries afterwards.
    assert_eq!(client.estimate(7).expect("still serving"), 3);

    // Oversized declared length: error frame, then the server closes us.
    let too_big = (MAX_FRAME + 1).to_le_bytes();
    raw.write_all(&too_big).expect("oversized prefix");
    raw.flush().expect("flush");
    match client.recv().expect("too-large error frame") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::TooLarge),
        other => panic!("expected too-large error, got {other:?}"),
    }
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    assert!(
        client.recv().is_err(),
        "connection must close after unresyncable framing damage"
    );

    // A fresh connection is unaffected.
    let mut fresh = Client::connect(addr).expect("reconnect");
    assert_eq!(fresh.estimate(7).expect("fresh estimate"), 3);

    let (_, _, gauge) = server.shutdown();
    assert!(gauge.protocol_errors >= 4, "hostile frames were counted");
}

/// Mid-frame disconnect (client dies half way through a payload): no
/// panic, no partial apply, and the server keeps serving others.
#[test]
fn mid_frame_disconnect_is_harmless() {
    let server = spawn_server();
    let addr = server.addr();

    {
        let mut torn = TcpStream::connect(addr).expect("connect raw");
        // Declare a 100-byte UPDATE_BATCH, send 9 bytes, vanish.
        torn.write_all(&[100, 0, 0, 0, 0x02]).expect("prefix");
        torn.write_all(&[1, 2, 3, 4]).expect("partial body");
        torn.flush().expect("flush");
    } // dropped: RST/FIN mid-frame

    // Also: a clean half-close exactly at a frame boundary.
    {
        let torn = TcpStream::connect(addr).expect("connect raw");
        torn.shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut buf = [0u8; 1];
        let mut r = torn.try_clone().expect("clone");
        assert_eq!(r.read(&mut buf).expect("server closes cleanly"), 0);
    }

    let mut client = Client::connect(addr).expect("connect");
    client.update_batch(&[42]).expect("update");
    client.sync().expect("sync");
    assert_eq!(client.estimate(42).expect("estimate"), 1);

    let (_, health, _) = server.shutdown();
    assert_eq!(
        health.total_routed(),
        1,
        "torn frame must not partially apply"
    );
}

/// HEALTH over the wire: shard count, routed totals, and no degradation
/// on a healthy in-memory runtime.
#[test]
fn health_frame_reports_shard_states() {
    let server = spawn_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .update_batch(&(0..1_000u64).collect::<Vec<_>>())
        .expect("update");
    client.sync().expect("sync");
    match client.call(&Request::Health).expect("health") {
        Response::HealthInfo(info) => {
            assert_eq!(info.shards.len(), SHARDS);
            assert_eq!(info.total_routed, 1_000);
            assert!(info.worst_fault_shard.is_none(), "healthy runtime");
            assert!(info.shards.iter().all(|s| !s.durability_degraded));
        }
        other => panic!("expected HEALTH_INFO, got {other:?}"),
    }
    server.shutdown();
}

/// Shutdown drains: updates acknowledged but never SYNCed must still be
/// in the finished kernels — accepted means applied-before-finish.
#[test]
fn shutdown_drains_every_accepted_write() {
    let server = spawn_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let (stream, truth) = workload(20_000);
    for chunk in stream.chunks(700) {
        client.update_batch(chunk).expect("update");
    }
    // No sync, no estimate — straight to shutdown.
    drop(client);
    let (kernels, health, _) = server.shutdown();
    assert_eq!(
        health.total_routed(),
        stream.len() as u64,
        "every acknowledged batch drained through the runtime"
    );

    // Per-key exactness against a sequential per-shard reference.
    let partition = asketch_parallel::KeyPartition::new(SHARDS);
    let mut reference: Vec<_> = (0..SHARDS).map(kernel).collect();
    for &k in &stream {
        reference[partition.shard_of(k)].insert(k);
    }
    for (key, _) in truth.iter() {
        let shard = partition.shard_of(key);
        assert_eq!(
            kernels[shard].estimate(key),
            reference[shard].estimate(key),
            "drained kernel diverged for key {key}"
        );
    }
}

/// Reads stay wait-free while a concurrent connection hammers writes:
/// the server-side blocked-reader gauge stays at zero.
#[test]
fn reads_stay_wait_free_under_live_writes() {
    let server = spawn_server();
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("writer connect");
            let batch: Vec<u64> = (0..4_096u64).collect();
            while !stop.load(Ordering::Acquire) {
                c.update_batch(&batch).expect("live writes");
            }
        })
    };
    let mut reader = Client::connect(addr).expect("reader connect");
    let keys: Vec<u64> = (0..256u64).collect();
    for _ in 0..400 {
        let vals = reader.estimate_batch(&keys).expect("live read");
        assert_eq!(vals.len(), keys.len());
    }
    stop.store(true, Ordering::Release);
    writer.join().expect("writer thread");
    let (_, _, gauge) = server.shutdown();
    assert_eq!(
        gauge.reader_blocked, 0,
        "reads must stay wait-free under live UPDATE traffic (retries={})",
        gauge.reader_retries
    );
}

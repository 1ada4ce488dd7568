//! Reactor-specific integration tests: partial I/O at every seam
//! (mid-frame reads split across EAGAIN, short writes resumed without
//! reordering), slow-reader isolation, the ack invariant (an `OK` goes
//! out only once its keys are journaled and in a ring), and the
//! per-reactor I/O gauges surfaced through the HEALTH frame.
//!
//! The general protocol/semantics suite lives in `server.rs` and runs
//! against the default config; these tests pin the event-driven data
//! plane's edges specifically, so most run a single reactor thread to
//! make cross-connection interference observable.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use asketch::filter::VectorFilter;
use asketch::ASketch;
use asketch_parallel::{ConcurrentASketch, ConcurrentConfig};
use asketch_serve::{encode_request, Client, Request, Response, ServeConfig, Server};
use sketches::CountMin;

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

fn spawn_with(cfg: ServeConfig) -> Server<VectorFilter, CountMin> {
    let rt = ConcurrentASketch::spawn(runtime_config(SHARDS), kernel);
    Server::spawn(cfg, rt).expect("bind ephemeral port")
}

fn reactor_config() -> ServeConfig {
    ServeConfig {
        reactors: 1,
        ..ServeConfig::default()
    }
}

/// One frame dribbled onto the wire a few bytes at a time, with pauses
/// long enough that the reactor sees many EAGAIN-terminated reads mid-
/// frame — including splits inside the 4-byte length prefix. The frame
/// must apply exactly once, and a response must come back intact.
#[cfg(target_os = "linux")]
#[test]
fn mid_frame_reads_split_across_eagain() {
    let server = spawn_with(reactor_config());
    let addr = server.addr();

    let keys: Vec<u64> = (0..257u64).map(|i| i * 31 % 97).collect();
    let mut frame = Vec::new();
    encode_request(&Request::UpdateBatch(keys.clone()), &mut frame);

    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    // Dribble: 3-byte slices with pauses. The length prefix itself is
    // split 3+1, and every payload chunk arrives in its own wakeup.
    for chunk in frame.chunks(3) {
        raw.write_all(chunk).expect("dribble");
        raw.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Exactly one OK for exactly one frame.
    let mut len_buf = [0u8; 4];
    raw.read_exact(&mut len_buf).expect("response prefix");
    let len = u32::from_le_bytes(len_buf) as usize;
    let mut payload = vec![0u8; len];
    raw.read_exact(&mut payload).expect("response payload");
    assert_eq!(
        asketch_serve::decode_response(&payload),
        Ok(Response::Ok(keys.len() as u32))
    );
    drop(raw);

    let mut client = Client::connect(addr).expect("connect verifier");
    let synced = client.sync().expect("sync");
    assert_eq!(synced, keys.len() as u64, "the dribbled frame applied once");
    let stats = server.stats();
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.updates_ingested, keys.len() as u64);
    server.shutdown();
}

/// Deep-pipelined large responses against a client that only starts
/// reading after everything is sent: the reactor's gather buffer takes
/// short writes and must resume mid-buffer without reordering,
/// duplicating, or dropping a single response.
#[cfg(target_os = "linux")]
#[test]
fn short_writes_resume_without_reordering_or_duplication() {
    let server = spawn_with(reactor_config());
    let addr = server.addr();

    // Seed distinguishable per-key counts.
    let mut seedc = Client::connect(addr).expect("connect seeder");
    let keys: Vec<u64> = (0..64u64).collect();
    let stream: Vec<u64> = keys
        .iter()
        .flat_map(|&k| std::iter::repeat_n(k, (k as usize % 7) + 1))
        .collect();
    seedc.update_batch(&stream).expect("seed");
    seedc.sync().expect("sync");
    drop(seedc);

    // Pipeline many ESTIMATE_BATCH requests (large answers) without
    // reading anything back: the responses pile up in the reactor's
    // gather buffer and the kernel socket buffer fills, forcing short
    // writes across several wakeups.
    const ROUNDS: usize = 400;
    let big: Vec<u64> = (0..2048u64).map(|i| i % 64).collect();
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..ROUNDS {
        client
            .send(&Request::EstimateBatch(big.clone()))
            .expect("send");
    }
    client.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(50)); // let the backlog build

    let expected = {
        let handle = server.query_handle();
        big.iter().map(|&k| handle.estimate(k)).collect::<Vec<_>>()
    };
    for round in 0..ROUNDS {
        match client.recv().expect("recv") {
            Response::Values(values) => {
                assert_eq!(
                    values, expected,
                    "round {round} answered out of order or torn"
                );
            }
            other => panic!("round {round}: unexpected response {other:?}"),
        }
    }
    let stats = server.stats();
    assert_eq!(stats.frames_in, ROUNDS as u64 + 2, "no duplicated frames");
    server.shutdown();
}

/// A peer that never reads while owed megabytes of responses must not
/// stall other connections on the same (only) reactor thread: the
/// reactor parks that connection's reads at the high-water mark and
/// keeps serving its neighbours.
#[cfg(target_os = "linux")]
#[test]
fn slow_reader_does_not_stall_neighbours_on_same_reactor() {
    let server = spawn_with(reactor_config());
    let addr = server.addr();

    // Slow reader: pipeline a large volume of TOPK+ESTIMATE_BATCH
    // requests and never read a byte.
    let mut seedc = Client::connect(addr).expect("connect seeder");
    seedc
        .update_batch(&(0..512u64).collect::<Vec<_>>())
        .expect("seed");
    drop(seedc);

    let slow = TcpStream::connect(addr).expect("connect slow");
    slow.set_nodelay(true).expect("nodelay");
    let big: Vec<u64> = (0..4096u64).collect();
    let mut frame = Vec::new();
    encode_request(&Request::EstimateBatch(big), &mut frame);
    let mut writer = slow.try_clone().expect("clone");
    // Write requests until the server owes this socket far more than
    // one gather-buffer high-water mark, then stop touching it.
    let mut queued = 0usize;
    writer
        .set_write_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");
    for _ in 0..4000 {
        match writer.write_all(&frame) {
            Ok(()) => queued += 1,
            Err(_) => break, // kernel buffers full: server already owes plenty
        }
    }
    assert!(queued > 0);

    // Neighbour: full request/response round-trips must stay snappy the
    // whole time the slow reader is wedged.
    let mut neighbour = Client::connect(addr).expect("connect neighbour");
    neighbour
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let started = Instant::now();
    for i in 0..200u64 {
        let _ = neighbour.estimate(i % 512).expect("neighbour read served");
        neighbour
            .update_batch(&[i])
            .expect("neighbour write served");
    }
    let synced = neighbour.sync().expect("neighbour sync served");
    assert!(synced >= 512 + 200, "neighbour writes routed");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "neighbour stalled behind slow reader: {:?}",
        started.elapsed()
    );

    drop(slow);
    drop(writer);
    server.shutdown();
}

/// An `OK` to an unsequenced write means its keys are journaled and in
/// a ring. Connection A acks batches one at a time and never syncs;
/// after each `OK`, a HEALTH on connection B (the other reactor) must
/// already count every acked key as routed. `total_routed` counts only
/// shipped batches — keys still staged in a reactor or buffered in the
/// router are not in it — so an `OK` written before its keys were
/// flushed fails here.
#[cfg(target_os = "linux")]
#[test]
fn ok_ack_means_keys_are_routed() {
    const FRAMES: u64 = 20;
    const KEYS: u64 = 300;
    let server = spawn_with(ServeConfig {
        reactors: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let mut writer = Client::connect(addr).expect("connect writer");
    let mut prober = Client::connect(addr).expect("connect prober");

    for frame in 0..FRAMES {
        let keys: Vec<u64> = (frame * KEYS..(frame + 1) * KEYS).collect();
        assert_eq!(writer.update_batch(&keys).expect("update"), KEYS as u32);
        let acked = (frame + 1) * KEYS;
        match prober.call(&Request::Health).expect("health") {
            Response::HealthInfo(info) => assert!(
                info.total_routed >= acked,
                "frame {frame}: {acked} keys acked but only {} routed",
                info.total_routed
            ),
            other => panic!("unexpected health response {other:?}"),
        }
    }

    drop((writer, prober));
    let (_, health, _) = server.shutdown();
    assert_eq!(health.total_routed(), FRAMES * KEYS);
}

/// The reactor's I/O gauges ride the HEALTH frame: wakeups, frames,
/// syscall and mega-batch counters are all live and self-consistent.
#[cfg(target_os = "linux")]
#[test]
fn reactor_gauges_surface_through_health_frame() {
    let server = spawn_with(ServeConfig {
        reactors: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..16 {
        client
            .update_batch(&(0..17_000u64).collect::<Vec<_>>())
            .expect("update");
        client.estimate(3).expect("estimate");
    }
    client.sync().expect("sync");

    let info = match client.call(&Request::Health).expect("health") {
        Response::HealthInfo(info) => info,
        other => panic!("unexpected health response {other:?}"),
    };
    assert_eq!(info.reactors.len(), 2, "one gauge entry per reactor");
    let total_frames: u64 = info.reactors.iter().map(|r| r.frames_in).sum();
    assert!(total_frames >= 33, "frames counted: {total_frames}");
    assert!(info.reactors.iter().any(|r| r.wakeups > 0));
    assert!(info.reactors.iter().any(|r| r.read_syscalls > 0));
    assert!(info.reactors.iter().any(|r| r.bytes_read > 0));
    // 16 × 17 000-key frames over the 16 384-key staging bound must have
    // forced mid-wakeup mega-batch flushes.
    let mega_keys: u64 = info.reactors.iter().map(|r| r.mega_batch_keys).sum();
    assert_eq!(
        mega_keys,
        16 * 17_000,
        "every accepted key left via a mega-batch"
    );
    assert!(info.reactors.iter().all(|r| r.staging_bound == 16_384));

    // The same gauges come back attached to the final health snapshot.
    drop(client);
    let (_, health, gauge) = server.shutdown();
    assert_eq!(health.reactors.len(), 2);
    let final_frames: u64 = health.reactors.iter().map(|r| r.frames_in).sum();
    assert!(final_frames >= total_frames);
    // The server totals are the per-reactor sums, not a second count.
    assert_eq!(gauge.frames_in, final_frames);
    assert_eq!(
        gauge.connections_active,
        health.reactors.iter().map(|r| r.connections).sum::<u64>()
    );
}

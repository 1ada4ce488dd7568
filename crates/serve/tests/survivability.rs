//! Socket-level survivability tests (DESIGN.md §17): shutdown-racing
//! reconnects, connection caps, the idle/partial-frame reapers, and the
//! resilient client's exactly-once guarantee through a chaos proxy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use asketch::filter::VectorFilter;
use asketch::ASketch;
use asketch_parallel::{ConcurrentASketch, ConcurrentConfig};
use asketch_serve::{
    ChaosConfig, ChaosProxy, Client, ErrorCode, FaultKind, Request, ResilientClient, Response,
    RetryPolicy, ServeConfig, Server,
};
use sketches::CountMin;

fn runtime(shards: usize) -> ConcurrentASketch<VectorFilter, CountMin> {
    let cfg = ConcurrentConfig {
        shards,
        batch: 64,
        ..ConcurrentConfig::default()
    };
    ConcurrentASketch::spawn(cfg, |i| {
        ASketch::new(
            VectorFilter::new(64),
            CountMin::new(0x5EED_2016 ^ i as u64, 4, 4096).expect("valid geometry"),
        )
    })
}

fn base_cfg() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    }
}

/// A client that reconnects while the server drains must get a typed
/// `SHUTTING_DOWN` refusal (with a retry hint), never a silent hang.
/// The drain window is held open by a connection with a large unread
/// response backlog, exactly the state a slow reader leaves behind.
#[cfg(target_os = "linux")]
#[test]
fn reconnect_racing_shutdown_sees_typed_refusal() {
    let cfg = ServeConfig {
        reactors: 1,
        drain_ms: 2_000,
        ..base_cfg()
    };
    let server = Server::spawn(cfg, runtime(2)).expect("spawn server");
    let addr = server.addr().to_string();

    // Pile up unread response bytes: a hog pipelines batch estimates it
    // never reads, so pending_out > 0 holds the drain window open. The
    // hog sends until its socket closes, so the backlog outgrows both the
    // slow-reader high-water mark and whatever the kernel socket buffers
    // absorb (loopback receive buffers can autotune to tens of MiB) — so
    // it must be written from its own thread: the server parks reads
    // from the hog, the send blocks, and the blocked writer keeps the
    // socket (and the drain window) alive until the drain deadline
    // force-closes it.
    let sent = Arc::new(AtomicU64::new(0));
    let hog = std::thread::spawn({
        let addr = addr.clone();
        let sent = Arc::clone(&sent);
        move || {
            let mut hog = Client::connect(&addr).expect("connect hog");
            let keys: Vec<u64> = (0..4096u64).collect();
            // Ends when the drain deadline closes the socket under us.
            while hog.send(&Request::EstimateBatch(keys.clone())).is_ok() {
                sent.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    // Let the server build the response backlog before the drain starts:
    // wait until the hog's sends stall, i.e. the server parked its reads.
    let stall_deadline = Instant::now() + Duration::from_secs(10);
    let mut last = u64::MAX;
    while Instant::now() < stall_deadline {
        std::thread::sleep(Duration::from_millis(100));
        let now = sent.load(Ordering::Relaxed);
        if now == last {
            break;
        }
        last = now;
    }

    let shutdown = std::thread::spawn(move || server.shutdown());

    // Race reconnects against the drain until a typed refusal arrives.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut saw_shutting_down = false;
    let mut hinted = false;
    while Instant::now() < deadline && !saw_shutting_down {
        let Ok(mut probe) = Client::connect(&addr) else {
            break; // listener gone: the drain finished before we won the race
        };
        probe
            .set_read_timeout(Some(Duration::from_millis(300)))
            .expect("set timeout");
        probe.send(&Request::Health).expect("send probe");
        let _ = probe.flush();
        match probe.recv() {
            Ok(Response::Error {
                code: ErrorCode::ShuttingDown,
                retry_after_ms,
                ..
            }) => {
                saw_shutting_down = true;
                hinted = retry_after_ms > 0;
            }
            _ => continue,
        }
    }
    assert!(
        saw_shutting_down,
        "no SHUTTING_DOWN refusal observed while the server drained"
    );
    assert!(hinted, "SHUTTING_DOWN refusal carried no retry hint");
    let (_kernels, _health, _gauge) = shutdown.join().expect("shutdown thread");
    let _ = hog.join(); // errored out when the drain closed its socket
}

/// Past `max_connections`, new connections get one typed `OVERLOADED`
/// frame (with a retry hint) and a clean close — wait-free for the
/// connections already being served.
#[test]
fn connection_cap_refuses_with_retry_hint() {
    let cfg = ServeConfig {
        reactors: 1,
        max_connections: 1,
        ..base_cfg()
    };
    let server = Server::spawn(cfg, runtime(2)).expect("spawn server");
    let addr = server.addr().to_string();

    let mut held = Client::connect(&addr).expect("first connection");
    assert!(held.estimate(7).is_ok(), "in-cap connection must serve");

    let mut refused = Client::connect(&addr).expect("tcp accept still happens");
    refused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    match refused.recv() {
        Ok(Response::Error {
            code,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(code, ErrorCode::Overloaded, "cap refusal must be typed");
            assert!(retry_after_ms > 0, "cap refusal carried no retry hint");
        }
        other => panic!("expected OVERLOADED refusal, got {other:?}"),
    }
    // The held connection is unaffected by the refusal next door.
    assert!(held.estimate(9).is_ok());
    server.shutdown();
}

/// The connection cap is the server's one source of `OVERLOADED`, and
/// the resilient client waits it out: while another connection holds
/// the only slot, its write is refused; once that connection closes, the
/// write lands exactly once.
#[test]
fn resilient_client_waits_out_the_connection_cap() {
    let cfg = ServeConfig {
        reactors: 1,
        max_connections: 1,
        ..base_cfg()
    };
    let server = Server::spawn(cfg, runtime(2)).expect("spawn server");
    let addr = server.addr().to_string();

    let mut held = Client::connect(&addr).expect("first connection");
    assert!(held.estimate(7).is_ok(), "in-cap connection must serve");
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        drop(held);
    });

    let mut client = ResilientClient::new(addr, 11, RetryPolicy::default());
    let keys: Vec<u64> = (0..256).map(|i| i % 64).collect();
    let ack = client
        .update_batch(&keys)
        .expect("the write lands once the held connection closes");
    release.join().expect("release thread");
    assert!(
        client.stats().sheds_retried >= 1,
        "the cap never refused the client: {:?}",
        client.stats()
    );
    assert_eq!(ack.applied as usize, keys.len());
    assert!(!ack.duplicate);

    client.sync().expect("barrier");
    let mut oracle = vec![0i64; 64];
    for &k in &keys {
        oracle[k as usize] += 1;
    }
    let all: Vec<u64> = (0..64).collect();
    let estimates = client.estimate_batch(&all).expect("estimates");
    assert_eq!(
        estimates, oracle,
        "the refused write landed other than once"
    );
    server.shutdown();
}

/// Idle connections past `idle_timeout_ms` are evicted by the reaper;
/// active connections with the same config keep serving.
#[cfg(target_os = "linux")]
#[test]
fn idle_connections_are_evicted() {
    let cfg = ServeConfig {
        reactors: 1,
        idle_timeout_ms: 150,
        ..base_cfg()
    };
    let server = Server::spawn(cfg, runtime(2)).expect("spawn server");
    let addr = server.addr().to_string();

    let mut idle = Client::connect(&addr).expect("connect idle");
    idle.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    // Busy neighbour: pings more often than the idle threshold.
    let mut busy = Client::connect(&addr).expect("connect busy");
    for _ in 0..8 {
        assert!(busy.estimate(3).is_ok(), "active connection must survive");
        std::thread::sleep(Duration::from_millis(60));
    }
    // The idle socket must now be closed server-side: a read sees EOF.
    match idle.recv() {
        Err(e) => assert!(
            e.kind() == std::io::ErrorKind::UnexpectedEof
                || e.kind() == std::io::ErrorKind::ConnectionReset,
            "idle eviction surfaced as {e:?}"
        ),
        Ok(r) => panic!("evicted connection produced a response: {r:?}"),
    }
    server.shutdown();
}

/// A connection holding a partial frame longer than
/// `partial_frame_timeout_ms` (slowloris) gets a typed `MALFORMED`
/// answer and a close.
#[cfg(target_os = "linux")]
#[test]
fn partial_frames_are_reaped() {
    use std::io::Write as _;
    let cfg = ServeConfig {
        reactors: 1,
        partial_frame_timeout_ms: 150,
        ..base_cfg()
    };
    let server = Server::spawn(cfg, runtime(2)).expect("spawn server");
    let addr = server.addr().to_string();

    let mut sock = std::net::TcpStream::connect(&addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    // Length prefix promising 100 bytes, then silence: a stuck frame.
    sock.write_all(&100u32.to_le_bytes()).expect("send prefix");
    sock.write_all(&[0u8; 10]).expect("send stub");
    sock.flush().expect("flush");
    // The reaper (100ms cadence) must answer with MALFORMED and close.
    let mut buf = Vec::new();
    std::io::Read::read_to_end(&mut sock, &mut buf).expect("drain until close");
    assert!(buf.len() >= 4, "no reaper answer before close: {buf:?}");
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let frame = &buf[4..4 + len];
    match asketch_serve::decode_response(frame).expect("decode reaper answer") {
        Response::Error { code, detail, .. } => {
            assert_eq!(code, ErrorCode::Malformed);
            assert!(detail.contains("partial frame"), "detail: {detail}");
        }
        other => panic!("expected MALFORMED, got {other:?}"),
    }
    server.shutdown();
}

/// End-to-end exactly-once through a fault-injecting proxy: every
/// connection is reset after a few KiB, the resilient client reconnects
/// and replays, and the final estimates equal the oracle exactly — no
/// lost acks, no duplicated retries.
/// A reconnect to a live server must not trim the replay window: its
/// `HELLO_ACK` floor counts writes that are applied but not yet fsynced,
/// which a later crash can still lose. The floor-covered batch is not
/// resent, but only a `SYNC` barrier retires it.
#[test]
fn reconnect_keeps_unsynced_writes_replayable() {
    let server = Server::spawn(base_cfg(), runtime(2)).expect("spawn server");
    let mut client = ResilientClient::new(server.addr().to_string(), 7, RetryPolicy::default());
    client.update_batch(&[1, 2, 3]).expect("first batch");
    client.disconnect();
    client
        .update_batch(&[4])
        .expect("second batch, after a reconnect");
    assert_eq!(client.stats().reconnects, 2, "one connect, one reconnect");
    assert_eq!(
        client.stats().replays,
        0,
        "the floor covers the first batch"
    );
    assert_eq!(
        client.window_len(),
        2,
        "an applied-but-unsynced batch must stay replayable until SYNC"
    );
    client.sync().expect("barrier");
    assert_eq!(client.window_len(), 0, "SYNC retires every acked batch");
    server.shutdown();
}

#[test]
fn resilient_client_is_exactly_once_through_chaos() {
    let cfg = ServeConfig {
        reactors: 1,
        ..base_cfg()
    };
    let server = Server::spawn(cfg, runtime(2)).expect("spawn server");
    let upstream = server.addr();

    let chaos = ChaosConfig {
        seed: 0xDEAD_2016,
        fault: FaultKind::Reset,
        fault_rate: 256, // every connection dies
        budget_max: 4 * 1024,
        stall: Duration::from_millis(200),
    };
    let proxy = ChaosProxy::start("127.0.0.1:0", upstream, chaos).expect("start proxy");

    let retry = RetryPolicy {
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        op_deadline: Duration::from_secs(30),
        read_timeout: Duration::from_millis(500),
        max_reconnects: 10_000,
        jitter_seed: 0xDEAD_2016,
    };
    let mut client = ResilientClient::new(proxy.addr().to_string(), 42, retry);

    let mut oracle = vec![0i64; 64];
    let mut i = 0u64;
    for _ in 0..40 {
        let keys: Vec<u64> = (0..32)
            .map(|_| {
                let k = i % 64;
                i += 1;
                k
            })
            .collect();
        client.update_batch(&keys).expect("acked batch");
        for &k in &keys {
            oracle[k as usize] += 1;
        }
    }
    client.sync().expect("barrier");
    let all: Vec<u64> = (0..64).collect();
    let estimates = client.estimate_batch(&all).expect("estimates");
    assert_eq!(estimates, oracle, "exactly-once violated under resets");
    let stats = client.stats();
    assert!(
        stats.reconnects > 0,
        "chaos never forced a reconnect — the fault path went unexercised"
    );
    assert!(
        proxy.stats().faulted.load(Ordering::Relaxed) > 0,
        "proxy injected no faults"
    );
    server.shutdown();
}

//! The serving front door: config, whole-server counters, the listener
//! thread, and the [`Server`] that runs the epoll reactor engine (the
//! private `reactor` module) over a single [`ConcurrentASketch`] runtime.
//!
//! N reactor threads own disjoint nonblocking connection sets, decode
//! frames in place, coalesce UPDATE_BATCH keys **across connections** into
//! per-shard staging buffers flushed straight into the runtime's shard
//! rings (one journal seq + one ring push per shard mega-batch), and
//! answer reads on the reactor thread from the wait-free [`QueryHandle`]
//! snapshots. Per-connection pipelining keeps response order equal to
//! request order; a full shard ring blocks the staging flush, and TCP
//! flow control pushes back on the writer. No write is ever shed; the
//! connection cap is the only refusal. Graceful shutdown drains every
//! accepted write. See DESIGN.md §14 (protocol/semantics) and §16
//! (reactor architecture).

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use asketch::{ASketch, Filter};
use asketch_parallel::{ConcurrentASketch, QueryHandle};
use eval_metrics::{ReactorGauge, ServerGauge, ShardedHealth};
use sketches::{SharedView, UpdateEstimate};

use crate::frame::{ErrorCode, HealthInfoWire, Response, ShardHealthWire};
use crate::reactor::{GaugeCells, ReactorEngine};

/// Serving-layer tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port (tests, CI smoke).
    pub addr: String,
    /// Reactor thread count. `0` = auto: half the available cores,
    /// clamped to `[1, 4]`.
    pub reactors: usize,
    /// Maximum simultaneously-served connections. New connections past
    /// the cap are answered with one `ERROR OVERLOADED` frame and
    /// closed. `0` = unlimited.
    pub max_connections: usize,
    /// Idle-session eviction: a connection with no traffic for this long
    /// is closed. `0` = disabled.
    pub idle_timeout_ms: u64,
    /// Slowloris reaper: a connection holding a *partial frame* (bytes
    /// buffered but no complete frame) for longer than this is answered
    /// with `ERROR MALFORMED` and closed. `0` = disabled; the default
    /// (10s) tolerates legitimately slow frame dribble.
    pub partial_frame_timeout_ms: u64,
    /// How long graceful shutdown keeps draining pending response bytes
    /// to connected peers.
    pub drain_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            reactors: 0,
            max_connections: 0,
            idle_timeout_ms: 0,
            partial_frame_timeout_ms: 10_000,
            drain_ms: 500,
        }
    }
}

impl ServeConfig {
    /// Resolved reactor-thread count.
    pub(crate) fn reactor_count(&self) -> usize {
        if self.reactors > 0 {
            return self.reactors;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        (cores / 2).clamp(1, 4)
    }
}

/// Live whole-server counters (atomics; [`ServerStats::gauge`] snapshots
/// them into the serializable [`ServerGauge`]). Each fact is counted
/// once: frames in and open connections live only in the per-reactor
/// cells, and the server totals are their sums.
pub struct ServerStats {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) frames_out: AtomicU64,
    pub(crate) updates_ingested: AtomicU64,
    pub(crate) estimates_served: AtomicU64,
    pub(crate) topk_served: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) reader_retries: AtomicU64,
    pub(crate) reader_blocked: AtomicU64,
    /// One cell set per reactor thread, indexed by reactor.
    pub(crate) reactors: Box<[GaugeCells]>,
}

impl ServerStats {
    fn new(reactors: usize) -> Self {
        Self {
            connections_accepted: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            updates_ingested: AtomicU64::new(0),
            estimates_served: AtomicU64::new(0),
            topk_served: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            reader_retries: AtomicU64::new(0),
            reader_blocked: AtomicU64::new(0),
            reactors: (0..reactors).map(|_| GaugeCells::default()).collect(),
        }
    }

    /// Snapshot every reactor's cells, indexed by reactor.
    pub(crate) fn reactor_gauges(&self) -> Vec<ReactorGauge> {
        self.reactors
            .iter()
            .enumerate()
            .map(|(i, cells)| cells.snapshot(i))
            .collect()
    }

    /// Connections open across all reactors.
    pub(crate) fn connections_open(&self) -> u64 {
        self.reactors
            .iter()
            .map(|cells| cells.connections.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot the live counters.
    pub fn gauge(&self) -> ServerGauge {
        ServerGauge {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_active: self.connections_open(),
            frames_in: self
                .reactors
                .iter()
                .map(|cells| cells.frames_in.load(Ordering::Relaxed))
                .sum(),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            updates_ingested: self.updates_ingested.load(Ordering::Relaxed),
            estimates_served: self.estimates_served.load(Ordering::Relaxed),
            topk_served: self.topk_served.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            reader_retries: self.reader_retries.load(Ordering::Relaxed),
            reader_blocked: self.reader_blocked.load(Ordering::Relaxed),
        }
    }
}

/// A running serving instance over one [`ConcurrentASketch`] runtime.
pub struct Server<F, S>
where
    F: Filter + Clone + Send + Sync + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + Sync + 'static,
{
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    handle: QueryHandle<S>,
    engine: ReactorEngine<F, S>,
}

impl<F, S> Server<F, S>
where
    F: Filter + Clone + Send + Sync + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + Sync + 'static,
{
    /// Bind `cfg.addr` and start serving `rt`. Returns once the listener
    /// is accepting (the bound address is [`Server::addr`]).
    ///
    /// # Errors
    /// Socket bind/configure failures, and epoll/eventfd creation
    /// failures.
    pub fn spawn(cfg: ServeConfig, rt: ConcurrentASketch<F, S>) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::new(cfg.reactor_count()));
        let handle = rt.query_handle();
        let engine = ReactorEngine::spawn(listener, cfg, rt, Arc::clone(&stats), handle.clone())?;
        Ok(Self {
            addr,
            stats,
            handle,
            engine,
        })
    }

    /// The bound listening address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters.
    pub fn stats(&self) -> ServerGauge {
        self.stats.gauge()
    }

    /// A wait-free query handle onto the served runtime (for in-process
    /// validation alongside network clients).
    pub fn query_handle(&self) -> QueryHandle<S> {
        self.handle.clone()
    }

    /// Graceful shutdown: stop accepting, drain every accepted write
    /// through the runtime, then finish it. Returns the finished
    /// kernels, the runtime's final health (with the per-reactor I/O
    /// gauges attached), and the server counters.
    pub fn shutdown(mut self) -> (Vec<ASketch<F, S>>, ShardedHealth, ServerGauge) {
        let (kernels, health) = self.engine.finish();
        (kernels, health, self.stats.gauge())
    }
}

/// Retry hint carried on refusal frames, in milliseconds. A small
/// constant: clients jitter their own backoff on top.
pub(crate) const RETRY_AFTER_MS: u32 = 25;

/// The canonical "engine is gone" error response.
pub(crate) fn shutting_down() -> Response {
    Response::Error {
        code: ErrorCode::ShuttingDown,
        detail: "server shutting down".to_string(),
        retry_after_ms: RETRY_AFTER_MS,
    }
}

/// The listener thread. It blocks in `accept` — no
/// timer, no polling — so it wakes only for a connection, and admits
/// each one (drain refusal, connection cap, `TCP_NODELAY`) before
/// handing it to the reactors.
///
/// Stopping sets a flag and wakes the blocked `accept` with one loopback
/// connection to the listener, which the thread drops on its way out.
pub(crate) struct Acceptor {
    draining: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    /// Where the stop wake connects: the bound address, with an
    /// unspecified IP replaced by loopback.
    wake_addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Start accepting on the blocking `listener`. `hand_off` receives
    /// every admitted socket, on the acceptor thread.
    pub(crate) fn spawn(
        listener: TcpListener,
        max_connections: usize,
        stats: Arc<ServerStats>,
        mut hand_off: impl FnMut(TcpStream) + Send + 'static,
    ) -> io::Result<Self> {
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let draining = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let draining = Arc::clone(&draining);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || loop {
                    let sock = match listener.accept() {
                        Ok((sock, _peer)) => sock,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    };
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    if draining.load(Ordering::Acquire) {
                        refuse(sock, &shutting_down());
                        continue;
                    }
                    if max_connections > 0 && stats.connections_open() >= max_connections as u64 {
                        let cap = Response::Error {
                            code: ErrorCode::Overloaded,
                            detail: "connection cap reached".to_string(),
                            retry_after_ms: RETRY_AFTER_MS,
                        };
                        refuse(sock, &cap);
                        continue;
                    }
                    let _ = sock.set_nodelay(true);
                    stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
                    hand_off(sock);
                })?
        };
        Ok(Self {
            draining,
            stop,
            wake_addr,
            handle: Some(handle),
        })
    }

    /// Enter the drain phase: from now on every new connection gets one
    /// `SHUTTING_DOWN` frame and is closed.
    pub(crate) fn drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Stop accepting and join the thread. If the loopback wake cannot
    /// connect and the thread is still blocked, it is left detached
    /// rather than joined forever.
    pub(crate) fn stop(&mut self) {
        let woke = self.signal_stop();
        if let Some(handle) = self.handle.take() {
            if woke || handle.is_finished() {
                let _ = handle.join();
            }
        }
    }

    /// Set the stop flag and wake the blocked `accept`; `false` when the
    /// wake connection failed.
    fn signal_stop(&self) -> bool {
        if self.stop.swap(true, Ordering::AcqRel) {
            return true;
        }
        TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1)).is_ok()
    }
}

impl Drop for Acceptor {
    /// Stop without joining: the thread exits once the wake lands.
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.signal_stop();
        }
    }
}

/// Encode `resp` and push it at a just-accepted socket best-effort, then
/// drop the socket (refusal path: drain cap and shutdown races). Failures
/// are ignored — the peer learns from the close either way.
fn refuse(sock: TcpStream, resp: &Response) {
    use std::io::Write;
    let mut buf = Vec::new();
    crate::frame::encode_response(resp, &mut buf);
    let _ = sock.set_write_timeout(Some(Duration::from_millis(100)));
    let mut sock = sock;
    let _ = sock.write_all(&buf);
    let _ = sock.flush();
    let _ = sock.shutdown(std::net::Shutdown::Both);
}

/// Project runtime health + server counters into the wire form. Per-shard
/// fault classes are carried individually — two shards degraded with
/// different classes both report their own — and the worst class is
/// ranked by severity, never by shard order. The live per-reactor I/O
/// gauges ride along.
pub(crate) fn health_wire(health: &ShardedHealth, stats: &ServerStats) -> HealthInfoWire {
    let worst = health.worst_durability_error();
    HealthInfoWire {
        total_routed: health.total_routed(),
        reader_retries: stats.reader_retries.load(Ordering::Relaxed),
        worst_fault_shard: worst.map(|(shard, _)| shard as u32),
        worst_fault_class: worst.map(|(_, f)| f.class.clone()).unwrap_or_default(),
        shards: health
            .shards
            .iter()
            .map(|g| ShardHealthWire {
                inline_degraded: g.degraded,
                durability_degraded: g.durability_degraded,
                fault_class: g
                    .last_durability_error
                    .as_ref()
                    .map(|f| f.class.clone())
                    .unwrap_or_default(),
            })
            .collect(),
        reactors: stats.reactor_gauges(),
    }
}

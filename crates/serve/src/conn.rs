//! One nonblocking reactor-owned connection: its socket, the in-place
//! frame reassembly buffer, the gathered response buffer, and the epoll
//! interest bookkeeping.
//!
//! The reactor drains a readable socket with **vectored reads** (two
//! 64 KiB segments per syscall) into [`Conn::buf`], decodes frames in
//! place without copying payloads out, and appends every encoded
//! response to [`Conn::out`] — which is flushed with a **single write
//! syscall per wakeup** in the reactor's write pass. Partial writes
//! simply advance `out_pos` and arm `EPOLLOUT`; nothing is re-encoded
//! or reordered. A peer that stops reading while we owe it data trips
//! the [`OUT_HIGH_WATER`] mark, which parks *reading* from that
//! connection (its kernel receive buffer then fills, backpressuring the
//! peer) without ever blocking the reactor thread or its neighbours.

use std::io::{self, IoSliceMut, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Per-segment vectored read size; each read syscall can move up to
/// twice this many bytes.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Pending-response bytes above which a connection's reads are parked
/// (slow-reader isolation).
pub(crate) const OUT_HIGH_WATER: usize = 4 * 1024 * 1024;

/// Pending-response bytes below which a parked connection resumes
/// reading.
pub(crate) const OUT_LOW_WATER: usize = 64 * 1024;

/// What one vectored read syscall produced.
pub(crate) enum ReadProgress {
    /// `n > 0` bytes landed in the buffer.
    Data(usize),
    /// Clean EOF: the peer finished sending.
    Eof,
    /// Socket not readable right now (`EAGAIN`).
    WouldBlock,
    /// Transport damage; the connection is unusable.
    Broken,
}

/// A reactor-owned connection.
pub(crate) struct Conn {
    sock: TcpStream,
    /// Unparsed input bytes; complete frames are decoded in place from
    /// this buffer and consumed from the front (compacted, not copied
    /// per frame).
    pub(crate) buf: Vec<u8>,
    /// Encoded-but-unwritten response bytes.
    pub(crate) out: Vec<u8>,
    /// How much of `out` has already reached the socket.
    pub(crate) out_pos: usize,
    /// The epoll event mask currently registered for this socket.
    pub(crate) interest: u32,
    /// Set when the stream cannot continue (oversized frame answered,
    /// or peer EOF): drain `out`, then close.
    pub(crate) closing: bool,
    /// Reads parked by the high-water mark.
    pub(crate) read_parked: bool,
    /// Queued for this wakeup's write pass.
    pub(crate) touched: bool,
    /// The ingest session this connection's sequenced writes belong to,
    /// registered by its HELLO handshake.
    pub(crate) session: Option<u64>,
    /// Last time bytes arrived from the peer; drives the idle-eviction
    /// and partial-frame (slowloris) reapers.
    pub(crate) last_activity: Instant,
}

impl Conn {
    pub(crate) fn new(sock: TcpStream) -> Self {
        Self {
            sock,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            interest: 0,
            closing: false,
            read_parked: false,
            touched: false,
            session: None,
            last_activity: Instant::now(),
        }
    }

    /// The underlying socket (for epoll registration and shutdown).
    pub(crate) fn sock(&self) -> &TcpStream {
        &self.sock
    }

    /// One vectored read syscall: up to [`READ_CHUNK`] bytes appended
    /// directly to `buf` plus up to [`READ_CHUNK`] more via `scratch`
    /// (appended only when the first segment filled).
    pub(crate) fn read_some(&mut self, scratch: &mut [u8; READ_CHUNK]) -> ReadProgress {
        debug_assert!(scratch.len() == READ_CHUNK);
        let old_len = self.buf.len();
        self.buf.resize(old_len + READ_CHUNK, 0);
        let (first, second) = (&mut self.buf[old_len..], &mut scratch[..]);
        let mut iov = [IoSliceMut::new(first), IoSliceMut::new(second)];
        match (&self.sock).read_vectored(&mut iov) {
            Ok(0) => {
                self.buf.truncate(old_len);
                ReadProgress::Eof
            }
            Ok(n) if n <= READ_CHUNK => {
                self.buf.truncate(old_len + n);
                ReadProgress::Data(n)
            }
            Ok(n) => {
                self.buf.extend_from_slice(&scratch[..n - READ_CHUNK]);
                ReadProgress::Data(n)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                self.buf.truncate(old_len);
                ReadProgress::WouldBlock
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                self.buf.truncate(old_len);
                ReadProgress::WouldBlock
            }
            Err(_) => {
                self.buf.truncate(old_len);
                ReadProgress::Broken
            }
        }
    }

    /// Drop `consumed` parsed bytes from the front of `buf` by
    /// compaction (one `copy_within`, no reallocation).
    pub(crate) fn consume(&mut self, consumed: usize) {
        if consumed == 0 {
            return;
        }
        let len = self.buf.len();
        debug_assert!(consumed <= len);
        self.buf.copy_within(consumed.., 0);
        self.buf.truncate(len - consumed);
    }

    /// Response bytes still owed to the peer.
    pub(crate) fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// One write syscall from the current `out` position. `Ok(n)` bytes
    /// made it out (the buffer resets once fully drained); `WouldBlock`
    /// maps to `Ok(0)` so the caller arms `EPOLLOUT` and retries on the
    /// next wakeup; any other error is fatal for the connection.
    pub(crate) fn flush_out(&mut self) -> io::Result<usize> {
        if self.pending_out() == 0 {
            return Ok(0);
        }
        match (&self.sock).write(&self.out[self.out_pos..]) {
            Ok(n) => {
                self.out_pos += n;
                if self.out_pos == self.out.len() {
                    self.out.clear();
                    self.out_pos = 0;
                }
                Ok(n)
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                Ok(0)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn vectored_read_appends_and_consume_compacts() {
        let (mut client, server) = pair();
        server.set_nonblocking(true).expect("nonblocking");
        let mut conn = Conn::new(server);
        let mut scratch = [0u8; READ_CHUNK];

        matches!(conn.read_some(&mut scratch), ReadProgress::WouldBlock)
            .then_some(())
            .expect("empty socket reads WouldBlock");
        assert!(conn.buf.is_empty(), "failed read leaves no garbage");

        client.write_all(b"hello frames").expect("send");
        client.flush().expect("flush");
        // Nonblocking read may need a moment for delivery on loopback.
        let mut got = 0;
        for _ in 0..100 {
            match conn.read_some(&mut scratch) {
                ReadProgress::Data(n) => {
                    got += n;
                    if got >= 12 {
                        break;
                    }
                }
                ReadProgress::WouldBlock => std::thread::sleep(std::time::Duration::from_millis(1)),
                _ => panic!("unexpected read outcome"),
            }
        }
        assert_eq!(&conn.buf, b"hello frames");
        conn.consume(6);
        assert_eq!(&conn.buf, b"frames");
        conn.consume(6);
        assert!(conn.buf.is_empty());
    }

    #[test]
    fn flush_out_tracks_partial_progress() {
        let (client, server) = pair();
        server.set_nonblocking(true).expect("nonblocking");
        let mut conn = Conn::new(server);
        conn.out.extend_from_slice(b"abcdef");
        assert_eq!(conn.pending_out(), 6);
        let n = conn.flush_out().expect("writable socket");
        assert!(n > 0);
        assert_eq!(conn.pending_out(), 6 - n);
        drop(client);
    }
}

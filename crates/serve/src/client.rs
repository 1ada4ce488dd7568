//! A small blocking client for the serve protocol.
//!
//! Used by the integration tests, the CI smoke, and the load generator;
//! it is deliberately minimal — pipelining is just "call [`Client::send`]
//! several times before draining with [`Client::recv`]", and the server's
//! per-connection ordering guarantee makes the pairing unambiguous.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::frame::{decode_response, encode_request, Request, Response, MAX_FRAME};

/// Default read timeout installed by [`Client::connect`]: conservative
/// enough for any healthy server (including one briefly blocked on
/// backpressure), but finite — a dead peer or blackholed path surfaces
/// as a [`std::io::ErrorKind::TimedOut`] error instead of hanging the
/// caller forever. Clear or change it with [`Client::set_read_timeout`].
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Blocking connection to a serve instance.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    scratch: Vec<u8>,
}

impl Client {
    /// Connect to `addr` with [`DEFAULT_READ_TIMEOUT`] on responses.
    ///
    /// # Errors
    /// Connection or socket-configure failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
            scratch: Vec::new(),
        })
    }

    /// Set (or clear) the read timeout on the response stream.
    ///
    /// # Errors
    /// Socket-configure failure.
    pub fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(dur)
    }

    /// Queue one request frame without flushing — the pipelining
    /// primitive. Follow with [`Client::flush`] (or [`Client::call`]).
    ///
    /// # Errors
    /// Transport write failure.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        self.scratch.clear();
        encode_request(req, &mut self.scratch);
        self.writer.write_all(&self.scratch)
    }

    /// Flush queued request frames to the socket.
    ///
    /// # Errors
    /// Transport write failure.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Read the next response frame (blocking, bounded by the read
    /// timeout). A socket-level timeout surfaces uniformly as
    /// [`io::ErrorKind::TimedOut`] (some platforms report `WouldBlock`).
    ///
    /// # Errors
    /// Transport failure, timeout, unexpected EOF, or an undecodable
    /// response.
    pub fn recv(&mut self) -> io::Result<Response> {
        self.recv_inner().map_err(|e| {
            if e.kind() == io::ErrorKind::WouldBlock {
                io::Error::new(io::ErrorKind::TimedOut, "read timed out")
            } else {
                e
            }
        })
    }

    fn recv_inner(&mut self) -> io::Result<Response> {
        let mut prefix = [0u8; 4];
        self.reader.read_exact(&mut prefix)?;
        let len = u32::from_le_bytes(prefix);
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response frame length {len} exceeds {MAX_FRAME}"),
            ));
        }
        let mut payload = vec![0u8; len as usize];
        self.reader.read_exact(&mut payload)?;
        decode_response(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.detail()))
    }

    /// One full round trip: send, flush, receive.
    ///
    /// # Errors
    /// Any transport or decode failure along the way.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        self.send(req)?;
        self.flush()?;
        self.recv()
    }

    /// Ingest a batch of keys; returns the accepted count.
    ///
    /// # Errors
    /// Transport failure or a non-`OK` reply (a server error frame
    /// surfaces carrying its code and detail).
    pub fn update_batch(&mut self, keys: &[u64]) -> io::Result<u32> {
        match self.call(&Request::UpdateBatch(keys.to_vec()))? {
            Response::Ok(n) => Ok(n),
            other => Err(unexpected(&other)),
        }
    }

    /// Point estimate for one key.
    ///
    /// # Errors
    /// Transport failure or a non-`VALUE` reply.
    pub fn estimate(&mut self, key: u64) -> io::Result<i64> {
        match self.call(&Request::Estimate(key))? {
            Response::Value(v) => Ok(v),
            other => Err(unexpected(&other)),
        }
    }

    /// Order-preserving batched estimates.
    ///
    /// # Errors
    /// Transport failure or a non-`VALUES` reply.
    pub fn estimate_batch(&mut self, keys: &[u64]) -> io::Result<Vec<i64>> {
        match self.call(&Request::EstimateBatch(keys.to_vec()))? {
            Response::Values(v) => Ok(v),
            other => Err(unexpected(&other)),
        }
    }

    /// Global top-k from the filter snapshots.
    ///
    /// # Errors
    /// Transport failure or a non-`TOPK_ITEMS` reply.
    pub fn top_k(&mut self, k: u32) -> io::Result<Vec<(u64, i64)>> {
        match self.call(&Request::TopK(k))? {
            Response::TopKItems(items) => Ok(items),
            other => Err(unexpected(&other)),
        }
    }

    /// Durability + visibility barrier; returns total keys routed.
    ///
    /// # Errors
    /// Transport failure or a non-`SYNCED` reply.
    pub fn sync(&mut self) -> io::Result<u64> {
        match self.call(&Request::Sync)? {
            Response::Synced(n) => Ok(n),
            other => Err(unexpected(&other)),
        }
    }

    /// Sequenced batch ingest (requires a prior `HELLO` on this
    /// connection); returns the server's `(applied, duplicate, degraded)`
    /// ack.
    ///
    /// # Errors
    /// Transport failure or a non-`OK_SEQ` reply (including a typed
    /// server error frame).
    pub fn update_batch_seq(&mut self, seq: u64, keys: &[u64]) -> io::Result<(u32, bool, bool)> {
        match self.call(&Request::UpdateBatchSeq {
            seq,
            keys: keys.to_vec(),
        })? {
            Response::OkSeq {
                seq: acked,
                applied,
                duplicate,
                degraded,
            } if acked == seq => Ok((applied, duplicate, degraded)),
            other => Err(unexpected(&other)),
        }
    }

    /// Raw access to the underlying stream (tests: half-close, torn
    /// writes).
    pub fn stream(&self) -> &TcpStream {
        self.reader.get_ref()
    }
}

fn unexpected(resp: &Response) -> io::Error {
    match resp {
        Response::Error { code, detail, .. } => {
            io::Error::other(format!("server error {code:?}: {detail}"))
        }
        other => io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected response: {other:?}"),
        ),
    }
}

//! Serving-layer gauges: per-reactor and whole-server counters for the
//! network front door (`asketch-serve`), in the same serializable gauge
//! style as [`crate::runtime`] so the load generator, CI gates, and
//! operator tooling consume one shape.
//!
//! The live counters themselves are atomics owned by the server; these
//! types are the point-in-time snapshot a HEALTH frame or artifact row
//! carries.

/// Point-in-time I/O counters for one reactor thread of the event-driven
/// serving data plane. The owning list is empty for a runtime that is
/// not behind a server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorGauge {
    /// Reactor index within the server.
    pub reactor: usize,
    /// Connections currently owned by this reactor.
    pub connections: u64,
    /// `epoll_wait` returns that reported at least one event.
    pub wakeups: u64,
    /// Request frames decoded by this reactor.
    pub frames_in: u64,
    /// Socket read syscalls issued (vectored reads count once).
    pub read_syscalls: u64,
    /// Socket write syscalls issued (one gathered write per connection
    /// per wakeup in steady state).
    pub write_syscalls: u64,
    /// Bytes read off sockets.
    pub bytes_read: u64,
    /// Bytes written to sockets.
    pub bytes_written: u64,
    /// Shard-affine mega-batches flushed straight into the runtime's
    /// shard rings (one journal seq + one ring push per shard each).
    pub mega_batches: u64,
    /// Keys carried by those mega-batches.
    pub mega_batch_keys: u64,
    /// Staging-buffer key bound: the fill-ratio denominator for
    /// [`ReactorGauge::fill_ratio`].
    pub staging_bound: u64,
}

impl ReactorGauge {
    /// Average request frames handled per epoll wakeup.
    pub fn frames_per_wakeup(&self) -> f64 {
        ratio(self.frames_in, self.wakeups)
    }

    /// Average bytes moved per socket syscall (reads + writes).
    pub fn bytes_per_syscall(&self) -> f64 {
        ratio(
            self.bytes_read + self.bytes_written,
            self.read_syscalls + self.write_syscalls,
        )
    }

    /// Average mega-batch fill ratio against the staging bound, in
    /// `[0, 1]` territory (can exceed 1 when a single oversized request
    /// blows past the bound and is flushed whole).
    pub fn fill_ratio(&self) -> f64 {
        if self.mega_batches == 0 || self.staging_bound == 0 {
            0.0
        } else {
            ratio(self.mega_batch_keys, self.mega_batches) / self.staging_bound as f64
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Point-in-time health of the whole serving layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerGauge {
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: u64,
    /// Connections currently open: the sum of the reactors'
    /// [`ReactorGauge::connections`].
    pub connections_active: u64,
    /// Request frames decoded across all connections: the sum of the
    /// reactors' [`ReactorGauge::frames_in`].
    pub frames_in: u64,
    /// Response frames written across all connections.
    pub frames_out: u64,
    /// Keys ingested through UPDATE_BATCH and UPDATE_BATCH_SEQ frames.
    pub updates_ingested: u64,
    /// Point estimates served (ESTIMATE plus ESTIMATE_BATCH elements).
    pub estimates_served: u64,
    /// TOPK requests served.
    pub topk_served: u64,
    /// Malformed or unknown frames answered with an error frame (the
    /// connection survives; only framing-level damage closes it).
    pub protocol_errors: u64,
    /// Seqlock reader retries observed across all read frames — the
    /// wait-free-read gauge. A reader retry is not a block (readers never
    /// wait on writers), but steady state measures 0 and the serving
    /// bench gate holds that line.
    pub reader_retries: u64,
    /// Read frames whose per-read seqlock retry delta exceeded the serve
    /// layer's retry bound — i.e. a read that was effectively made to
    /// wait on writer progress. The serving gate is `== 0` under live
    /// UPDATE traffic.
    pub reader_blocked: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reactor_gauge_derived_ratios() {
        let g = ReactorGauge::default();
        assert_eq!(g.frames_per_wakeup(), 0.0);
        assert_eq!(g.bytes_per_syscall(), 0.0);
        assert_eq!(g.fill_ratio(), 0.0, "zero denominators never divide");

        let g = ReactorGauge {
            reactor: 1,
            connections: 8,
            wakeups: 10,
            frames_in: 400,
            read_syscalls: 10,
            write_syscalls: 10,
            bytes_read: 1500,
            bytes_written: 500,
            mega_batches: 4,
            mega_batch_keys: 8192,
            staging_bound: 4096,
        };
        assert!((g.frames_per_wakeup() - 40.0).abs() < 1e-12);
        assert!((g.bytes_per_syscall() - 100.0).abs() < 1e-12);
        assert!((g.fill_ratio() - 0.5).abs() < 1e-12);
    }
}

//! # eval-metrics — measurement infrastructure for the reproduction
//!
//! The accuracy metrics of paper §7.1 ([`error`]), items-per-millisecond
//! throughput timing ([`throughput`]), and plain-text table rendering for
//! the experiment harness ([`table`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod runtime;
pub mod serving;
pub mod table;
pub mod throughput;

pub use error::{
    average_relative_error, find_misclassified, observed_error, observed_error_pct, precision_at_k,
    EstimatePair, Misclassification,
};
pub use runtime::{ShardGauge, ShardedHealth, StorageFault};
pub use serving::{ReactorGauge, ServerGauge};
pub use table::{fnum, Table};
pub use throughput::{Stopwatch, Throughput};

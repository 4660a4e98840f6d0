//! # oda-stream — the STREAM tier: a partitioned, replicated log broker
//!
//! A from-scratch analogue of the role Apache Kafka plays in the paper's
//! architecture (§V-B): *"FIFO buffers for in-flight data in distributed
//! multi-project pipelines"*. It provides:
//!
//! * **Topics** split into **partitions**, each an append-only log of
//!   [`record::Record`]s organized into size-bounded [`segment`]s.
//! * **Replication**: one [`Broker`] type runs N logical nodes with
//!   pinned replica placement, `acks=all` ISR replication, and
//!   deterministic leader failover; [`Broker::new`] is its one-node,
//!   replication-factor-1 case.
//! * **Producers** appending with optional keys (key-hash partitioning
//!   keeps per-component sensor streams ordered).
//! * **Consumer groups** with committed offsets, so independent projects
//!   replay the same stream at their own pace — the property the
//!   medallion pipelines rely on for recovery.
//! * **Retention** by age and size (the STREAM tier of Fig. 5 holds
//!   days, not years), enforced on every replica.
//!
//! The broker is thread-safe (`parking_lot` locks, one per partition) and
//! deterministic: offsets are dense and assignment is stable.

pub mod broker;
pub mod consumer;
pub mod error;
pub mod metrics;
pub mod partition;
pub mod record;
pub mod retention;
pub mod segment;
pub mod topic;

pub use broker::{Broker, LeaderElection, Producer};
pub use consumer::{Consumer, PartitionBatch};
pub use error::StreamError;
pub use metrics::StreamMetrics;
pub use record::Record;
pub use retention::RetentionPolicy;

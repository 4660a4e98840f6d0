//! # oda-pipeline — medallion structured-streaming engine
//!
//! The Spark-structured-streaming analogue of the paper (§V-B): typed
//! columnar [`frame::Frame`]s, relational operators ([`ops`]), tumbling
//! windows ([`window`]), one logical query plan whose builder is the
//! SQL-clause anatomy of Fig. 4-b ([`logical`]), and a checkpointed
//! micro-batch engine over the STREAM broker with exactly-once sinks
//! ([`streaming`]).
//!
//! The ODA-specific refinement stages — Bronze → Silver → Gold of the
//! "Medallion Architecture" the paper adapts — live in [`medallion`]:
//! long-format observations are window-aggregated, pivoted wide, and
//! joined with job allocations (Silver), then reduced to analysis-ready
//! artifacts (Gold).

pub mod checkpoint;
pub mod error;
pub mod executor;
pub mod expr;
pub mod frame;
pub mod frame_io;
pub mod kernels;
pub mod logical;
pub mod medallion;
pub mod metrics;
pub mod ops;
pub(crate) mod rowkey;
pub mod state;
pub mod streaming;
pub mod window;

pub use checkpoint::{Checkpoint, CheckpointStore};
pub use error::PipelineError;
pub use executor::{EpochMeta, EpochTimings};
pub use expr::Expr;
pub use frame::{Frame, StrColumn};
pub use logical::{ExecContext, ExecStats, LogicalPlan, Query, StageTiming};
pub use metrics::PipelineMetrics;
pub use streaming::{MemorySink, Sink, StreamingQuery, StreamingQueryBuilder};

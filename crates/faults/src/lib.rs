//! # oda-faults — deterministic fault injection
//!
//! The chaos substrate for the ODA stack. Every fault the paper's
//! production war stories describe — broker timeouts, fetch errors,
//! crashes in the sink/checkpoint window, lost checkpoints, failed tier
//! migrations, sensor dropout — is modeled as a typed [`FaultKind`]
//! fired from a seeded [`FaultPlan`] at a named [`FaultSite`].
//!
//! Determinism is the core contract: a plan's decisions are a pure
//! function of `(seed, site, context, invocation index)` via a
//! SplitMix64-style mixer — no wall clock, no global RNG. Replaying the
//! same workload under the same seed reproduces the exact same fault
//! schedule, which is what lets the chaos suite assert byte-identical
//! exactly-once output across recovery paths. Because each
//! `(site, context)` pair owns its own invocation counter, concurrent
//! callers at distinct contexts (e.g. parallel partition workers, where
//! the fetch context is the partition id) can interleave in any order
//! without perturbing each other's schedules.
//!
//! Components accept any [`FaultPoint`] implementation; production code
//! paths pay one `Option` check when no plan is armed.

pub mod metrics;
pub mod plan;
pub mod retry;

pub use metrics::{FaultMetrics, RetryMetrics};
pub use plan::{FaultPlan, FaultSpec, InjectedFault};
pub use retry::{Retry, RetryOutcome, Retryable};

use std::fmt;

/// A typed fault, carrying whatever context the injection site needs.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Broker produce call timed out (retryable; the record was NOT
    /// appended).
    ProduceTimeout,
    /// Broker fetch failed transiently (retryable; no records returned).
    FetchError,
    /// Process crash after the sink write of `epoch`, before its
    /// checkpoint commits — the exactly-once vulnerable window.
    CrashAfterSink {
        /// Epoch whose sink write completed before the crash.
        epoch: u64,
    },
    /// A checkpoint commit was lost before becoming durable. Surfaces as
    /// a failed commit (a visible crash), never as a silently-missing
    /// epoch, so checkpoint density is preserved.
    CheckpointLost,
    /// An OCEAN→GLACIER tier migration failed; the artifact stays put
    /// and is retried on the next lifecycle pass.
    TierMigrateFail,
    /// A fraction of sensor observations never arrived.
    SensorDropout {
        /// Per-observation drop probability in `[0, 1]`.
        rate: f64,
    },
    /// A broker node crashed. Its durable logs survive; leadership of
    /// the partitions it led fails over to in-sync followers (or the
    /// node restarts in place when no follower can take over). Fires at
    /// most once per node per plan, mirroring the one-shot crash-epoch
    /// semantics: a node that already crashed is not re-crashed, so
    /// recovery always converges.
    NodeCrash {
        /// Node that crashed (the check's `ctx`).
        node: u64,
    },
    /// A follower replica missed a replicated append and fell behind
    /// the leader. The cluster shrinks the in-sync replica set instead
    /// of failing the produce; the follower rejoins once caught up.
    ReplicaLag {
        /// Follower node that lagged (the check's `ctx`).
        node: u64,
    },
}

/// Whether a fault is worth retrying or must surface as a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Transient: bounded retries with backoff are appropriate.
    Retryable,
    /// Terminal for the current attempt: recovery goes through crash /
    /// checkpoint-restore, not a retry loop.
    Fatal,
    /// Not an error at all: the pipeline degrades gracefully (e.g. gap
    /// markers) instead of failing.
    Degraded,
}

impl FaultKind {
    /// Classify for retry policy decisions.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::ProduceTimeout | FaultKind::FetchError | FaultKind::TierMigrateFail => {
                FaultClass::Retryable
            }
            FaultKind::CrashAfterSink { .. }
            | FaultKind::CheckpointLost
            | FaultKind::NodeCrash { .. } => FaultClass::Fatal,
            FaultKind::SensorDropout { .. } | FaultKind::ReplicaLag { .. } => FaultClass::Degraded,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::ProduceTimeout => write!(f, "produce timeout"),
            FaultKind::FetchError => write!(f, "fetch error"),
            FaultKind::CrashAfterSink { epoch } => {
                write!(f, "crash after sink of epoch {epoch}")
            }
            FaultKind::CheckpointLost => write!(f, "checkpoint lost"),
            FaultKind::TierMigrateFail => write!(f, "tier migration failed"),
            FaultKind::SensorDropout { rate } => write!(f, "sensor dropout at rate {rate}"),
            FaultKind::NodeCrash { node } => write!(f, "node {node} crashed"),
            FaultKind::ReplicaLag { node } => write!(f, "replica on node {node} lagged"),
        }
    }
}

/// Where in the stack a fault can fire. Each `(site, ctx)` pair is an
/// independent deterministic stream: invocation counts at one site or
/// context never perturb draws at another, so concurrent workers at
/// distinct contexts are schedule-isolated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// `Broker::produce` / `Producer::send`, checked once per call
    /// before partition selection. `ctx` is 0.
    Produce,
    /// `Broker::fetch` (via `Consumer::poll` /
    /// `Consumer::fetch_partition`), checked after the leader's
    /// `NodeCrash` site. `ctx` is the partition id.
    Fetch,
    /// After `Sink::write(epoch, ..)`, before the checkpoint commit.
    /// `ctx` is the epoch.
    SinkWrite,
    /// `CheckpointStore` commit. `ctx` is the epoch.
    CheckpointCommit,
    /// OCEAN→GLACIER migration inside `TierManager::advance`.
    TierMigrate,
    /// Per-observation ingest. `ctx` is the observation index.
    SensorRead,
    /// Broker node liveness, checked on every `Broker::produce` /
    /// `Broker::fetch` against the partition's current leader — node 0
    /// on a single-node broker. `ctx` is the node id. Fires at most once
    /// per node (one-shot, like `SinkWrite` crash epochs).
    NodeCrash,
    /// Follower replication of a single append. `ctx` is the follower
    /// node id.
    ReplicaLag,
}

impl FaultSite {
    /// All sites, for iteration in reports.
    pub const ALL: [FaultSite; 8] = [
        FaultSite::Produce,
        FaultSite::Fetch,
        FaultSite::SinkWrite,
        FaultSite::CheckpointCommit,
        FaultSite::TierMigrate,
        FaultSite::SensorRead,
        FaultSite::NodeCrash,
        FaultSite::ReplicaLag,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::Produce => "produce",
            FaultSite::Fetch => "fetch",
            FaultSite::SinkWrite => "sink-write",
            FaultSite::CheckpointCommit => "checkpoint-commit",
            FaultSite::TierMigrate => "tier-migrate",
            FaultSite::SensorRead => "sensor-read",
            FaultSite::NodeCrash => "node-crash",
            FaultSite::ReplicaLag => "replica-lag",
        }
    }
}

/// A source of injected faults, threaded through the stack.
///
/// `check` is called once per *attempt* at a site; `ctx` carries
/// site-specific context (epoch for sink/checkpoint sites, observation
/// index for sensor reads, 0 elsewhere). Returning `None` means the
/// operation proceeds normally.
///
/// Implementations must be deterministic: the n-th call for a given
/// `(site, ctx)` history always returns the same answer for the same
/// plan state.
pub trait FaultPoint: Send + Sync + fmt::Debug {
    /// Does a fault fire for this invocation?
    fn check(&self, site: FaultSite, ctx: u64) -> Option<FaultKind>;
}

/// The no-op fault point: never fires. Useful as an explicit default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultPoint for NoFaults {
    fn check(&self, _site: FaultSite, _ctx: u64) -> Option<FaultKind> {
        None
    }
}

/// SplitMix64 mixer: the deterministic core every draw goes through.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a mixed u64 to `[0, 1)`.
pub(crate) fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_recovery_strategy() {
        assert_eq!(FaultKind::ProduceTimeout.class(), FaultClass::Retryable);
        assert_eq!(FaultKind::FetchError.class(), FaultClass::Retryable);
        assert_eq!(FaultKind::TierMigrateFail.class(), FaultClass::Retryable);
        assert_eq!(
            FaultKind::CrashAfterSink { epoch: 3 }.class(),
            FaultClass::Fatal
        );
        assert_eq!(FaultKind::CheckpointLost.class(), FaultClass::Fatal);
        assert_eq!(
            FaultKind::SensorDropout { rate: 0.1 }.class(),
            FaultClass::Degraded
        );
        assert_eq!(FaultKind::NodeCrash { node: 2 }.class(), FaultClass::Fatal);
        assert_eq!(
            FaultKind::ReplicaLag { node: 1 }.class(),
            FaultClass::Degraded
        );
    }

    #[test]
    fn no_faults_never_fires() {
        for site in FaultSite::ALL {
            for ctx in 0..100 {
                assert!(NoFaults.check(site, ctx).is_none());
            }
        }
    }

    #[test]
    fn mixer_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
        let mean: f64 = (0..10_000).map(|i| unit_f64(splitmix64(i))).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mixer biased: mean {mean}");
    }

    #[test]
    fn display_labels_cover_all_kinds() {
        for kind in [
            FaultKind::ProduceTimeout,
            FaultKind::FetchError,
            FaultKind::CrashAfterSink { epoch: 1 },
            FaultKind::CheckpointLost,
            FaultKind::TierMigrateFail,
            FaultKind::SensorDropout { rate: 0.5 },
            FaultKind::NodeCrash { node: 0 },
            FaultKind::ReplicaLag { node: 3 },
        ] {
            assert!(!kind.to_string().is_empty());
        }
        for site in FaultSite::ALL {
            assert!(!site.label().is_empty());
        }
    }
}

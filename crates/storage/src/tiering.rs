//! Tiered lifecycle management (Fig. 5).
//!
//! Each tier focuses on a class of data artifacts with a class-specific
//! retention time: STREAM holds in-flight data for days, LAKE holds
//! online data for weeks, OCEAN holds refined datasets for years, and
//! GLACIER keeps archives indefinitely. The [`TierManager`] tracks
//! registered artifacts and applies transitions as simulated time
//! advances — the accounting behind the tier-retention experiment.

use crate::metrics::TierMetrics;
use oda_faults::{FaultPoint, FaultSite};
use oda_obs::{LineageNode, Registry, TraceEventKind, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Medallion refinement class of an artifact (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataClass {
    /// Raw long-format observations.
    Bronze,
    /// Aggregated, pivoted, contextualized.
    Silver,
    /// Analysis-ready artifacts (reports, features, dashboards).
    Gold,
}

impl DataClass {
    /// All classes.
    pub const ALL: [DataClass; 3] = [DataClass::Bronze, DataClass::Silver, DataClass::Gold];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            DataClass::Bronze => "bronze",
            DataClass::Silver => "silver",
            DataClass::Gold => "gold",
        }
    }
}

/// Storage tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tier {
    /// Streaming broker (days).
    Stream,
    /// Online database (weeks).
    Lake,
    /// Object store (years).
    Ocean,
    /// Tape archive (indefinite).
    Glacier,
}

impl Tier {
    /// All tiers in hot-to-cold order.
    pub const ALL: [Tier; 4] = [Tier::Stream, Tier::Lake, Tier::Ocean, Tier::Glacier];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Stream => "STREAM",
            Tier::Lake => "LAKE",
            Tier::Ocean => "OCEAN",
            Tier::Glacier => "GLACIER",
        }
    }
}

/// What happened to an artifact during [`TierManager::advance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LifecycleAction {
    /// Dropped entirely (hot tiers expire; the durable copy lives
    /// elsewhere).
    Expired {
        /// Artifact name.
        name: String,
        /// Tier it expired from.
        tier: Tier,
        /// Bytes released.
        bytes: u64,
    },
    /// Moved from OCEAN to GLACIER (frozen).
    Archived {
        /// Artifact name.
        name: String,
        /// Bytes moved (after archive compression).
        bytes: u64,
    },
    /// An OCEAN→GLACIER migration failed (injected fault). The artifact
    /// stays in OCEAN untouched and is retried on the next `advance`.
    MigrateFailed {
        /// Artifact name.
        name: String,
        /// Bytes that stayed put.
        bytes: u64,
    },
}

/// Retention window per (tier, class), in milliseconds.
///
/// Mirrors Fig. 5: hotter tiers hold less, refined classes live longer
/// in hot tiers; Bronze barely lives anywhere hot (the paper keeps raw
/// data frozen until upstream pipelines exist).
pub fn retention_ms(tier: Tier, class: DataClass) -> Option<i64> {
    const DAY: i64 = 86_400_000;
    match (tier, class) {
        (Tier::Stream, DataClass::Bronze) => Some(2 * DAY),
        (Tier::Stream, DataClass::Silver) => Some(7 * DAY),
        (Tier::Stream, DataClass::Gold) => Some(7 * DAY),
        (Tier::Lake, DataClass::Bronze) => Some(3 * DAY),
        (Tier::Lake, DataClass::Silver) => Some(30 * DAY),
        (Tier::Lake, DataClass::Gold) => Some(90 * DAY),
        (Tier::Ocean, DataClass::Bronze) => Some(30 * DAY), // then frozen
        (Tier::Ocean, DataClass::Silver) => Some(2 * 365 * DAY),
        (Tier::Ocean, DataClass::Gold) => Some(5 * 365 * DAY),
        (Tier::Glacier, _) => None, // indefinite
    }
}

#[derive(Debug, Clone)]
struct ArtifactRecord {
    class: DataClass,
    tier: Tier,
    bytes: u64,
    created_ms: i64,
    /// Replica that fed this artifact, when it was materialized from a
    /// clustered STREAM fetch: (topic, partition, node).
    source: Option<(String, u32, u32)>,
}

/// Registry of artifacts and their lifecycle state.
#[derive(Debug, Default)]
pub struct TierManager {
    artifacts: BTreeMap<String, ArtifactRecord>,
    /// Compression factor applied when OCEAN artifacts freeze into
    /// GLACIER (tape-side compression).
    archive_ratio: f64,
    /// Armed fault plan, consulted on each OCEAN→GLACIER migration.
    faults: Option<Arc<dyn FaultPoint>>,
    /// Attached observer: occupancy gauges refreshed after `register`
    /// and `advance`, lifecycle counters fed from each pass's actions,
    /// and (when the registry carries a tracer) lifecycle trace events
    /// plus placement lineage.
    metrics: Option<TierMetrics>,
}

impl TierManager {
    /// Create an empty manager.
    pub fn new() -> TierManager {
        TierManager {
            artifacts: BTreeMap::new(),
            archive_ratio: 0.5,
            faults: None,
            metrics: None,
        }
    }

    /// Track tier occupancy and lifecycle activity in `registry`. When
    /// the registry carries a tracer, also record `lifecycle` trace
    /// events for every action `advance` takes and placement nodes/edges
    /// (artifact@tier, OCEAN→GLACIER archive hops) in its lineage graph.
    /// Observational only.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        let m = TierMetrics::new(registry);
        m.record_occupancy(self);
        self.metrics = Some(m);
    }

    /// Arm a fault plan: migrations in `advance` consult it. A failed
    /// migration leaves the artifact in place (retryable: the next
    /// lifecycle pass picks it up again).
    pub fn arm_faults(&mut self, faults: Arc<dyn FaultPoint>) {
        self.faults = Some(faults);
    }

    /// Register an artifact.
    pub fn register(&mut self, name: &str, class: DataClass, tier: Tier, bytes: u64, now_ms: i64) {
        self.register_inner(name, class, tier, bytes, now_ms, None);
    }

    /// Register an artifact that was materialized from a specific broker
    /// replica — `(topic, partition, node)` in an `oda_stream::Broker`
    /// — so placements record *which node's segment* fed each tier. The
    /// replica→placement edge lands in the lineage graph as `feeds`,
    /// and survives the OCEAN→GLACIER archive hop (see
    /// [`TierManager::advance`]).
    #[allow(clippy::too_many_arguments)]
    pub fn register_replica(
        &mut self,
        name: &str,
        class: DataClass,
        tier: Tier,
        bytes: u64,
        now_ms: i64,
        topic: &str,
        partition: u32,
        node: u32,
    ) {
        self.register_inner(
            name,
            class,
            tier,
            bytes,
            now_ms,
            Some((topic.to_string(), partition, node)),
        );
    }

    fn register_inner(
        &mut self,
        name: &str,
        class: DataClass,
        tier: Tier,
        bytes: u64,
        now_ms: i64,
        source: Option<(String, u32, u32)>,
    ) {
        self.artifacts.insert(
            name.to_string(),
            ArtifactRecord {
                class,
                tier,
                bytes,
                created_ms: now_ms,
                source: source.clone(),
            },
        );
        let Some(m) = &self.metrics else { return };
        m.record_occupancy(self);
        if let Some(tr) = &m.tracer {
            let placement = LineageNode::Placement {
                artifact: name.to_string(),
                tier: tier.label().to_string(),
            };
            match source {
                Some((topic, partition, node)) => tr.lineage().link(
                    LineageNode::Replica {
                        topic,
                        partition: u64::from(partition),
                        node: u64::from(node),
                    },
                    placement,
                    "feeds",
                ),
                None => tr.lineage().touch(placement),
            }
        }
    }

    /// The replica that fed `name`, if it was registered through
    /// [`TierManager::register_replica`].
    pub fn source_replica(&self, name: &str) -> Option<(String, u32, u32)> {
        self.artifacts.get(name)?.source.clone()
    }

    /// Number of live artifacts.
    pub fn len(&self) -> usize {
        self.artifacts.len()
    }

    /// True when no artifacts are tracked.
    pub fn is_empty(&self) -> bool {
        self.artifacts.is_empty()
    }

    /// Apply lifecycle transitions as of `now_ms`.
    pub fn advance(&mut self, now_ms: i64) -> Vec<LifecycleAction> {
        let mut actions = Vec::new();
        let names: Vec<String> = self.artifacts.keys().cloned().collect();
        for name in names {
            let rec = self.artifacts.get(&name).expect("exists").clone();
            let Some(window) = retention_ms(rec.tier, rec.class) else {
                continue; // GLACIER: indefinite
            };
            if now_ms - rec.created_ms <= window {
                continue;
            }
            match rec.tier {
                Tier::Stream | Tier::Lake => {
                    self.artifacts.remove(&name);
                    actions.push(LifecycleAction::Expired {
                        name,
                        tier: rec.tier,
                        bytes: rec.bytes,
                    });
                }
                Tier::Ocean => {
                    let injected = self
                        .faults
                        .as_ref()
                        .and_then(|f| f.check(FaultSite::TierMigrate, 0));
                    if injected.is_some() {
                        actions.push(LifecycleAction::MigrateFailed {
                            name,
                            bytes: rec.bytes,
                        });
                        continue;
                    }
                    let frozen = (rec.bytes as f64 * self.archive_ratio) as u64;
                    let entry = self.artifacts.get_mut(&name).expect("exists");
                    entry.tier = Tier::Glacier;
                    entry.bytes = frozen;
                    entry.created_ms = now_ms;
                    actions.push(LifecycleAction::Archived {
                        name,
                        bytes: frozen,
                    });
                }
                Tier::Glacier => unreachable!("glacier retention is None"),
            }
        }
        if let Some(m) = &self.metrics {
            m.record_actions(&actions);
            m.record_occupancy(self);
            if let Some(tr) = &m.tracer {
                self.trace_actions(tr, &actions);
            }
        }
        actions
    }

    /// Emit one `lifecycle` trace event per action, plus archive edges
    /// in the lineage graph. Iterates `actions` in the order `advance`
    /// produced them (artifact-name order, so deterministic).
    fn trace_actions(&self, tr: &Tracer, actions: &[LifecycleAction]) {
        for action in actions {
            let (name, verb, tier, bytes) = match action {
                LifecycleAction::Expired { name, tier, bytes } => {
                    (name, "expire", tier.label(), *bytes)
                }
                LifecycleAction::Archived { name, bytes } => {
                    (name, "archive", Tier::Glacier.label(), *bytes)
                }
                LifecycleAction::MigrateFailed { name, bytes } => {
                    (name, "migrate-failed", Tier::Ocean.label(), *bytes)
                }
            };
            let ctx = oda_obs::fnv1a(name.as_bytes());
            tr.service_event(
                "tiering",
                verb,
                ctx,
                ctx,
                TraceEventKind::Lifecycle {
                    artifact: name.clone(),
                    action: verb.to_string(),
                    tier: tier.to_string(),
                    bytes,
                },
            );
            if let LifecycleAction::Archived { name, .. } = action {
                let frozen = LineageNode::Placement {
                    artifact: name.clone(),
                    tier: Tier::Glacier.label().to_string(),
                };
                tr.lineage().link(
                    LineageNode::Placement {
                        artifact: name.clone(),
                        tier: Tier::Ocean.label().to_string(),
                    },
                    frozen.clone(),
                    "archive",
                );
                // A replica-fed artifact keeps its provenance across the
                // freeze: the archived placement still knows which
                // node's segment fed it.
                if let Some((topic, partition, node)) =
                    self.artifacts.get(name).and_then(|r| r.source.clone())
                {
                    tr.lineage().link(
                        LineageNode::Replica {
                            topic,
                            partition: u64::from(partition),
                            node: u64::from(node),
                        },
                        frozen,
                        "feeds",
                    );
                }
            }
        }
    }

    /// Bytes held per tier.
    pub fn bytes_by_tier(&self) -> BTreeMap<Tier, u64> {
        let mut out: BTreeMap<Tier, u64> = Tier::ALL.iter().map(|&t| (t, 0)).collect();
        for rec in self.artifacts.values() {
            *out.get_mut(&rec.tier).expect("all tiers present") += rec.bytes;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: i64 = 86_400_000;

    #[test]
    fn retention_is_hot_to_cold_monotonic() {
        for class in DataClass::ALL {
            let stream = retention_ms(Tier::Stream, class).unwrap();
            let ocean = retention_ms(Tier::Ocean, class).unwrap();
            assert!(stream < ocean, "{class:?}");
            assert!(retention_ms(Tier::Glacier, class).is_none());
        }
    }

    #[test]
    fn stream_bronze_expires_fast() {
        let mut m = TierManager::new();
        m.register("raw-day0", DataClass::Bronze, Tier::Stream, 1_000_000, 0);
        assert!(m.advance(DAY).is_empty());
        let actions = m.advance(3 * DAY);
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            &actions[0],
            LifecycleAction::Expired {
                tier: Tier::Stream,
                ..
            }
        ));
        assert!(m.is_empty());
    }

    #[test]
    fn ocean_bronze_freezes_into_glacier() {
        let mut m = TierManager::new();
        m.register("raw-day0", DataClass::Bronze, Tier::Ocean, 1_000_000, 0);
        let actions = m.advance(31 * DAY);
        assert!(matches!(
            &actions[0],
            LifecycleAction::Archived { bytes: 500_000, .. }
        ));
        let by_tier = m.bytes_by_tier();
        assert_eq!(by_tier[&Tier::Glacier], 500_000);
        assert_eq!(by_tier[&Tier::Ocean], 0);
        // Glacier never expires.
        assert!(m.advance(100 * 365 * DAY).is_empty());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn refined_classes_outlive_bronze_in_hot_tiers() {
        let mut m = TierManager::new();
        m.register("bronze", DataClass::Bronze, Tier::Lake, 100, 0);
        m.register("silver", DataClass::Silver, Tier::Lake, 100, 0);
        let actions = m.advance(5 * DAY);
        assert_eq!(actions.len(), 1, "only bronze should expire at day 5");
        assert_eq!(m.bytes_by_tier()[&Tier::Lake], 100, "silver stays");
    }

    #[test]
    fn exactly_at_retention_deadline_is_retained() {
        // The boundary is strict: an artifact exactly `window` old stays;
        // one millisecond older goes.
        let mut m = TierManager::new();
        m.register("edge", DataClass::Bronze, Tier::Stream, 100, 0);
        let window = retention_ms(Tier::Stream, DataClass::Bronze).unwrap();
        assert!(m.advance(window).is_empty(), "age == window must stay");
        assert_eq!(m.advance(window + 1).len(), 1, "age == window + 1 goes");
    }

    #[test]
    fn zero_byte_artifacts_cycle_through_lifecycle() {
        let mut m = TierManager::new();
        m.register("empty-hot", DataClass::Bronze, Tier::Stream, 0, 0);
        m.register("empty-cold", DataClass::Bronze, Tier::Ocean, 0, 0);
        let actions = m.advance(40 * DAY);
        assert_eq!(actions.len(), 2);
        assert!(actions
            .iter()
            .any(|a| matches!(a, LifecycleAction::Expired { bytes: 0, .. })));
        assert!(actions
            .iter()
            .any(|a| matches!(a, LifecycleAction::Archived { bytes: 0, .. })));
        assert_eq!(m.len(), 1, "zero-byte archive still tracked in GLACIER");
        assert_eq!(m.bytes_by_tier()[&Tier::Glacier], 0);
    }

    #[test]
    fn failed_migration_leaves_artifact_and_retries_next_pass() {
        use oda_faults::{FaultPlan, FaultSpec};
        let mut m = TierManager::new();
        m.register("frozen-1", DataClass::Bronze, Tier::Ocean, 1_000, 0);
        // Always-failing plan: artifact must stay in OCEAN, untouched.
        m.arm_faults(Arc::new(FaultPlan::new(
            3,
            FaultSpec {
                tier_migrate_fail: 1.0,
                ..FaultSpec::default()
            },
        )));
        let actions = m.advance(31 * DAY);
        assert_eq!(
            actions,
            vec![LifecycleAction::MigrateFailed {
                name: "frozen-1".into(),
                bytes: 1_000,
            }]
        );
        assert_eq!(m.bytes_by_tier()[&Tier::Ocean], 1_000);
        assert_eq!(m.bytes_by_tier()[&Tier::Glacier], 0);
        // Heal the fault: the next lifecycle pass completes the move
        // with the same byte accounting as an undisturbed migration.
        m.arm_faults(Arc::new(FaultPlan::new(3, FaultSpec::default())));
        let actions = m.advance(32 * DAY);
        assert!(matches!(
            &actions[0],
            LifecycleAction::Archived { bytes: 500, .. }
        ));
        assert_eq!(m.bytes_by_tier()[&Tier::Glacier], 500);
    }

    #[test]
    fn replica_fed_artifacts_remember_their_source() {
        let mut m = TierManager::new();
        m.register_replica(
            "gold-w1",
            DataClass::Gold,
            Tier::Ocean,
            900,
            0,
            "bronze",
            1,
            2,
        );
        m.register("gold-w2", DataClass::Gold, Tier::Ocean, 900, 0);
        assert_eq!(
            m.source_replica("gold-w1"),
            Some(("bronze".to_string(), 1, 2))
        );
        assert_eq!(m.source_replica("gold-w2"), None);
        assert_eq!(m.source_replica("missing"), None);
    }

    #[test]
    fn replica_provenance_survives_the_archive_hop() {
        use oda_obs::Tracer;
        let mut m = TierManager::new();
        let tracer = Tracer::new();
        m.attach_metrics(&Registry::new().with_tracer(&tracer));
        m.register_replica(
            "raw-d0",
            DataClass::Bronze,
            Tier::Ocean,
            1_000,
            0,
            "bronze",
            0,
            1,
        );
        let actions = m.advance(31 * DAY);
        assert!(matches!(&actions[0], LifecycleAction::Archived { .. }));
        assert_eq!(
            m.source_replica("raw-d0"),
            Some(("bronze".to_string(), 0, 1)),
            "the frozen record keeps its source"
        );
        if !oda_obs::enabled() {
            return;
        }
        let q = tracer.lineage().query();
        // The replica feeds both the OCEAN registration and the GLACIER
        // placement it froze into.
        let feeds: Vec<String> = q
            .edges()
            .iter()
            .filter(|(_, _, rel)| rel == "feeds")
            .map(|(from, to, _)| {
                format!(
                    "{} -> {}",
                    q.node(*from).unwrap().label(),
                    q.node(*to).unwrap().label()
                )
            })
            .collect();
        assert!(feeds.contains(&"replica:bronze/0@n1 -> placement:raw-d0@OCEAN".to_string()));
        assert!(feeds.contains(&"replica:bronze/0@n1 -> placement:raw-d0@GLACIER".to_string()));
    }

    #[test]
    fn accounting_sums_match() {
        let mut m = TierManager::new();
        m.register("a", DataClass::Silver, Tier::Ocean, 10, 0);
        m.register("b", DataClass::Gold, Tier::Ocean, 20, 0);
        m.register("c", DataClass::Silver, Tier::Lake, 5, 0);
        let by_tier = m.bytes_by_tier();
        assert_eq!(by_tier[&Tier::Ocean], 30);
        assert_eq!(by_tier[&Tier::Lake], 5);
        let total: u64 = by_tier.values().sum();
        assert_eq!(total, 35);
    }
}

//! Storage-tier metrics: tier occupancy, lifecycle/compaction activity,
//! and OCEAN read/write byte counters.

use std::sync::Arc;

use oda_obs::{Counter, Gauge, Registry, Tracer};

use crate::tiering::{LifecycleAction, Tier, TierManager};

/// Occupancy gauges and lifecycle counters for [`TierManager`].
#[derive(Debug, Clone)]
pub struct TierMetrics {
    tier_bytes: [Arc<Gauge>; Tier::ALL.len()],
    expired: Arc<Counter>,
    expired_bytes: Arc<Counter>,
    archived: Arc<Counter>,
    archived_bytes: Arc<Counter>,
    migrate_failed: Arc<Counter>,
    /// The tracer the registry carried, if any.
    pub(crate) tracer: Option<Tracer>,
}

impl TierMetrics {
    /// Register the tier metric families in `registry`.
    pub fn new(registry: &Registry) -> Self {
        let tier_bytes = Tier::ALL.map(|t| {
            registry.gauge(
                "storage_tier_bytes",
                "Bytes held per storage tier",
                &[("tier", t.label())],
            )
        });
        let action = |a: &str| {
            registry.counter(
                "storage_lifecycle_actions_total",
                "Lifecycle transitions applied, by action",
                &[("action", a)],
            )
        };
        let action_bytes = |a: &str| {
            registry.counter(
                "storage_lifecycle_bytes_total",
                "Bytes moved or released by lifecycle transitions, by action",
                &[("action", a)],
            )
        };
        Self {
            tier_bytes,
            expired: action("expired"),
            expired_bytes: action_bytes("expired"),
            archived: action("archived"),
            archived_bytes: action_bytes("archived"),
            migrate_failed: action("migrate-failed"),
            tracer: registry.tracer().cloned(),
        }
    }

    /// Refresh occupancy gauges from the manager's accounting.
    pub fn record_occupancy(&self, manager: &TierManager) {
        let by_tier = manager.bytes_by_tier();
        for (i, t) in Tier::ALL.iter().enumerate() {
            self.tier_bytes[i].set(by_tier[t] as i64);
        }
    }

    /// Fold one lifecycle pass's actions into the counters.
    pub fn record_actions(&self, actions: &[LifecycleAction]) {
        for a in actions {
            match a {
                LifecycleAction::Expired { bytes, .. } => {
                    self.expired.inc();
                    self.expired_bytes.add(*bytes);
                }
                LifecycleAction::Archived { bytes, .. } => {
                    self.archived.inc();
                    self.archived_bytes.add(*bytes);
                }
                LifecycleAction::MigrateFailed { .. } => {
                    self.migrate_failed.inc();
                }
            }
        }
    }
}

/// Zero-copy frame-buffer accounting: publishes the process-wide
/// [`crate::buffer`] copy/share counters into a registry.
///
/// Deliberately a separate, explicitly-attached family (not auto-wired
/// into pipeline metrics): the counters are process globals, and the
/// caller decides when a snapshot lands in which registry.
#[derive(Debug)]
pub struct BufferMetrics {
    bytes_copied: Arc<Counter>,
    buffers_shared: Arc<Counter>,
    last: std::sync::Mutex<(u64, u64)>,
}

impl BufferMetrics {
    /// Register the buffer metric families in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            bytes_copied: registry.counter(
                "frame_bytes_copied_total",
                "Bytes deep-copied when a shared frame buffer had to materialize",
                &[],
            ),
            buffers_shared: registry.counter(
                "frame_buffers_shared_total",
                "Frame buffers shared by refcount bump instead of copied",
                &[],
            ),
            last: std::sync::Mutex::new((0, 0)),
        }
    }

    /// Fold the process-wide buffer counters into the registry. Only
    /// the delta since this instance's previous publish is added, so
    /// repeated publishes never double-count.
    pub fn publish(&self) {
        let (copied, shared) = crate::buffer::buffer_stats();
        let mut last = self.last.lock().expect("buffer metrics poisoned");
        self.bytes_copied.add(copied.saturating_sub(last.0));
        self.buffers_shared.add(shared.saturating_sub(last.1));
        *last = (copied, shared);
    }
}

/// Object-store read/write accounting for [`crate::Ocean`].
#[derive(Debug, Clone)]
pub struct OceanMetrics {
    /// Objects written.
    pub put_objects: Arc<Counter>,
    /// Bytes written.
    pub put_bytes: Arc<Counter>,
    /// Objects read.
    pub get_objects: Arc<Counter>,
    /// Bytes read.
    pub get_bytes: Arc<Counter>,
    /// Objects currently stored.
    pub objects: Arc<Gauge>,
    /// The tracer the registry carried, if any.
    pub(crate) tracer: Option<Tracer>,
}

impl OceanMetrics {
    /// Register the OCEAN metric families in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            put_objects: registry.counter(
                "ocean_put_objects_total",
                "Objects written to the OCEAN store",
                &[],
            ),
            put_bytes: registry.counter(
                "ocean_put_bytes_total",
                "Bytes written to the OCEAN store",
                &[],
            ),
            get_objects: registry.counter(
                "ocean_get_objects_total",
                "Objects read from the OCEAN store",
                &[],
            ),
            get_bytes: registry.counter(
                "ocean_get_bytes_total",
                "Bytes read from the OCEAN store",
                &[],
            ),
            objects: registry.gauge(
                "ocean_objects",
                "Objects currently stored across all buckets",
                &[],
            ),
            tracer: registry.tracer().cloned(),
        }
    }
}

/// Point-count and compaction accounting for [`crate::Lake`].
#[derive(Debug, Clone)]
pub struct LakeMetrics {
    /// Points inserted.
    pub inserted: Arc<Counter>,
    /// Points dropped by segment retention (LAKE compaction).
    pub retention_dropped: Arc<Counter>,
    /// Points currently retained.
    pub points: Arc<Gauge>,
    /// The tracer the registry carried, if any.
    pub(crate) tracer: Option<Tracer>,
}

impl LakeMetrics {
    /// Register the LAKE metric families in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            inserted: registry.counter(
                "lake_inserted_points_total",
                "Points inserted into the LAKE store",
                &[],
            ),
            retention_dropped: registry.counter(
                "lake_retention_dropped_points_total",
                "Points dropped by LAKE segment retention",
                &[],
            ),
            points: registry.gauge(
                "lake_points",
                "Points currently retained in the LAKE store",
                &[],
            ),
            tracer: registry.tracer().cloned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiering::DataClass;

    #[test]
    fn buffer_metrics_publish_deltas_without_double_counting() {
        let reg = Registry::new();
        let m = BufferMetrics::new(&reg);
        // Share and copy through real buffers so the globals move.
        let b: crate::buffer::Buffer<i64> = vec![1, 2, 3, 4].into();
        let view = b.clone();
        let _ = view.slice(1, 2).into_vec();
        m.publish();
        m.publish();
        if oda_obs::enabled() {
            let shared = reg.counter_value("frame_buffers_shared_total", &[]);
            let copied = reg.counter_value("frame_bytes_copied_total", &[]);
            // Other tests share the process globals: assert floors only.
            assert!(shared >= 2, "clone + slice both share: {shared}");
            assert!(copied >= 16, "windowed into_vec copies 2x8 bytes: {copied}");
            // Publishing twice must not double-count: the registry can
            // never exceed the monotonic process-wide totals.
            let (g_copied, g_shared) = crate::buffer::buffer_stats();
            assert!(shared <= g_shared);
            assert!(copied <= g_copied);
        }
    }

    #[test]
    fn tier_metrics_track_occupancy_and_actions() {
        let reg = Registry::new();
        let m = TierMetrics::new(&reg);
        let mut mgr = TierManager::new();
        mgr.register("a", DataClass::Bronze, Tier::Ocean, 1_000_000, 0);
        m.record_occupancy(&mgr);
        if oda_obs::enabled() {
            assert_eq!(
                reg.gauge_value("storage_tier_bytes", &[("tier", "OCEAN")]),
                1_000_000
            );
        }
        let actions = mgr.advance(40 * 86_400_000);
        m.record_actions(&actions);
        m.record_occupancy(&mgr);
        if oda_obs::enabled() {
            assert_eq!(
                reg.counter_value("storage_lifecycle_actions_total", &[("action", "archived")]),
                1
            );
            assert_eq!(
                reg.counter_value("storage_lifecycle_bytes_total", &[("action", "archived")]),
                500_000
            );
            assert_eq!(
                reg.gauge_value("storage_tier_bytes", &[("tier", "OCEAN")]),
                0
            );
            assert_eq!(
                reg.gauge_value("storage_tier_bytes", &[("tier", "GLACIER")]),
                500_000
            );
        }
    }
}

//! Pipeline engine metrics: epoch/record throughput counters and
//! per-stage latency histograms. (The logical planner's counters are
//! recorded straight into the registry an
//! [`crate::logical::ExecContext`] carries.)
//!
//! Attached to a query with
//! [`crate::streaming::StreamingQueryBuilder::metrics`]; each committed
//! epoch bumps the counters and feeds its [`EpochTimings`] into the
//! `pipeline_stage_duration_ns{stage=...}` histograms. The tracer the
//! registry carries, if any, rides along in [`PipelineMetrics`].

use std::sync::Arc;

use oda_obs::{exponential_bounds, Counter, Histogram, Registry, Tracer};

use crate::executor::EpochTimings;

/// The pipeline stages a timing histogram exists for.
const STAGES: [&str; 5] = ["fetch", "decode", "transform", "sink", "checkpoint"];

/// Cached instruments for the streaming engine.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    /// Epochs committed (checkpoint durable).
    pub epochs: Arc<Counter>,
    /// Records processed across committed epochs.
    pub records: Arc<Counter>,
    /// Epochs that failed before their checkpoint committed.
    pub failed_epochs: Arc<Counter>,
    stage_ns: [Arc<Histogram>; STAGES.len()],
    /// The tracer the registry carried, if any.
    pub(crate) tracer: Option<Tracer>,
}

impl PipelineMetrics {
    /// Register the pipeline metric families in `registry`.
    pub fn new(registry: &Registry) -> Self {
        // 1 µs .. ~4.3 s in ×4 steps — spans a cheap decode of a few
        // records up to a pathological stateful transform.
        let bounds = exponential_bounds(1_000, 4, 12);
        let stage_ns = STAGES.map(|stage| {
            registry.histogram(
                "pipeline_stage_duration_ns",
                "Per-epoch stage latency, by stage",
                &[("stage", stage)],
                &bounds,
            )
        });
        Self {
            epochs: registry.counter("pipeline_epochs_total", "Micro-batch epochs committed", &[]),
            records: registry.counter(
                "pipeline_records_total",
                "Records processed in committed epochs",
                &[],
            ),
            failed_epochs: registry.counter(
                "pipeline_failed_epochs_total",
                "Epochs that errored before their checkpoint committed",
                &[],
            ),
            stage_ns,
            tracer: registry.tracer().cloned(),
        }
    }

    /// Record one committed epoch's record count and stage timings.
    pub fn record_epoch(&self, records: usize, timings: &EpochTimings) {
        self.epochs.inc();
        self.records.add(records as u64);
        for (h, ns) in self.stage_ns.iter().zip([
            timings.fetch_ns,
            timings.decode_ns,
            timings.transform_ns,
            timings.sink_ns,
            timings.checkpoint_ns,
        ]) {
            h.observe(ns);
        }
    }

    /// The latency histogram of one named stage (`fetch`, `decode`,
    /// `transform`, `sink`, or `checkpoint`).
    pub fn stage_histogram(&self, stage: &str) -> Option<&Arc<Histogram>> {
        STAGES
            .iter()
            .position(|&s| s == stage)
            .map(|i| &self.stage_ns[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_epoch_feeds_counters_and_histograms() {
        let reg = Registry::new();
        let m = PipelineMetrics::new(&reg);
        m.record_epoch(
            250,
            &EpochTimings {
                fetch_ns: 10_000,
                decode_ns: 20_000,
                transform_ns: 30_000,
                sink_ns: 5_000,
                checkpoint_ns: 2_000,
            },
        );
        m.record_epoch(50, &EpochTimings::default());
        if oda_obs::enabled() {
            assert_eq!(reg.counter_value("pipeline_epochs_total", &[]), 2);
            assert_eq!(reg.counter_value("pipeline_records_total", &[]), 300);
            let fetch = m.stage_histogram("fetch").unwrap().snapshot();
            assert_eq!(fetch.count(), 2);
            assert_eq!(fetch.sum, 10_000);
        }
        assert!(m.stage_histogram("nope").is_none());
    }
}

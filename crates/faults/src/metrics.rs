//! Fault-injection and retry counters.
//!
//! The chaos suite cross-checks these against [`FaultPlan::injected`]
//! logs: every scheduled injection must show up exactly once in the
//! `faults_injected_total` family, proving the observability layer
//! neither drops nor double-counts trips.
//!
//! [`FaultPlan::injected`]: crate::FaultPlan::injected

use std::sync::Arc;

use oda_obs::{Counter, Registry, Tracer};

use crate::{FaultSite, RetryOutcome};

/// Per-site fault-trip counters, one series per [`FaultSite`] label.
///
/// Built once at attach time; the hot path indexes a fixed array by
/// site discriminant — no registry lookups per trip.
#[derive(Debug, Clone)]
pub struct FaultMetrics {
    injected: [Arc<Counter>; FaultSite::ALL.len()],
    /// The tracer the registry carried, if any.
    pub(crate) tracer: Option<Tracer>,
}

impl FaultMetrics {
    /// Register the `faults_injected_total{site=...}` family.
    pub fn new(registry: &Registry) -> Self {
        let injected = FaultSite::ALL.map(|site| {
            registry.counter(
                "faults_injected_total",
                "Injected faults that actually fired, by site",
                &[("site", site.label())],
            )
        });
        Self {
            injected,
            tracer: registry.tracer().cloned(),
        }
    }

    /// Record one fired fault at `site`.
    #[inline]
    pub fn record(&self, site: FaultSite) {
        self.injected[site as usize].inc();
    }
}

/// Retry-loop counters for one named operation (`op` label).
///
/// Call sites run [`crate::Retry::run`] and feed the returned
/// [`RetryOutcome`] through [`RetryMetrics::observe`]; `Retry` itself
/// stays `Copy` and metric-free.
#[derive(Debug, Clone)]
pub struct RetryMetrics {
    retries: Arc<Counter>,
    backoff_ms: Arc<Counter>,
    exhausted: Arc<Counter>,
}

impl RetryMetrics {
    /// Register the retry counter family for operation `op`
    /// (e.g. `"produce"`, `"fetch"`).
    pub fn new(registry: &Registry, op: &str) -> Self {
        let labels = [("op", op)];
        Self {
            retries: registry.counter(
                "retry_attempts_retried_total",
                "Extra attempts beyond the first, by operation",
                &labels,
            ),
            backoff_ms: registry.counter(
                "retry_backoff_ms_total",
                "Simulated backoff imposed by retry schedules, in ms",
                &labels,
            ),
            exhausted: registry.counter(
                "retry_exhausted_total",
                "Operations that failed after exhausting their retry budget",
                &labels,
            ),
        }
    }

    /// Fold one finished retry loop into the counters.
    #[inline]
    pub fn observe(&self, outcome: &RetryOutcome, succeeded: bool) {
        self.retries
            .add(u64::from(outcome.attempts.saturating_sub(1)));
        self.backoff_ms.add(outcome.backoff_ms);
        if !succeeded {
            self.exhausted.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_metrics_count_by_site() {
        let reg = Registry::new();
        let m = FaultMetrics::new(&reg);
        m.record(FaultSite::Fetch);
        m.record(FaultSite::Fetch);
        m.record(FaultSite::TierMigrate);
        if oda_obs::enabled() {
            assert_eq!(
                reg.counter_value("faults_injected_total", &[("site", "fetch")]),
                2
            );
            assert_eq!(
                reg.counter_value("faults_injected_total", &[("site", "tier-migrate")]),
                1
            );
            assert_eq!(
                reg.counter_value("faults_injected_total", &[("site", "produce")]),
                0
            );
        }
    }

    #[test]
    fn retry_metrics_track_extra_attempts_and_exhaustion() {
        let reg = Registry::new();
        let m = RetryMetrics::new(&reg, "fetch");
        m.observe(
            &RetryOutcome {
                attempts: 1,
                backoff_ms: 0,
            },
            true,
        );
        m.observe(
            &RetryOutcome {
                attempts: 4,
                backoff_ms: 70,
            },
            true,
        );
        m.observe(
            &RetryOutcome {
                attempts: 5,
                backoff_ms: 150,
            },
            false,
        );
        if oda_obs::enabled() {
            assert_eq!(
                reg.counter_value("retry_attempts_retried_total", &[("op", "fetch")]),
                3 + 4
            );
            assert_eq!(
                reg.counter_value("retry_backoff_ms_total", &[("op", "fetch")]),
                220
            );
            assert_eq!(
                reg.counter_value("retry_exhausted_total", &[("op", "fetch")]),
                1
            );
        }
    }
}

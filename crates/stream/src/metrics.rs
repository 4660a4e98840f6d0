//! Broker and consumer metrics: append/fetch volume, retained bytes,
//! retention drops, and per-partition consumer lag.
//!
//! Attached once via [`crate::Broker::attach_metrics`]; the hot paths
//! then bump pre-resolved counters, and record trace events into the
//! tracer the registry carries, if any. Lag gauges are labeled
//! `{group, topic, partition}` and created on first touch, cached in a
//! small map so steady-state polls don't hit the registry.

use std::collections::HashMap;
use std::sync::Arc;

use oda_faults::{RetryMetrics, RetryOutcome};
use oda_obs::{Counter, Gauge, Registry, TraceEventKind, Tracer};
use parking_lot::Mutex;

/// Cached instruments for the STREAM tier.
#[derive(Debug)]
pub struct StreamMetrics {
    registry: Registry,
    /// Records appended via `Broker::produce`.
    pub produce_records: Arc<Counter>,
    /// Bytes appended (record framing + key + value).
    pub produce_bytes: Arc<Counter>,
    /// Records returned by `Broker::fetch`.
    pub fetch_records: Arc<Counter>,
    /// Bytes returned by `Broker::fetch`.
    pub fetch_bytes: Arc<Counter>,
    /// Records dropped by retention enforcement.
    pub retention_dropped: Arc<Counter>,
    /// Bytes currently retained across all topics.
    pub retained_bytes: Arc<Gauge>,
    /// Retry accounting for `Producer::send_retrying`.
    pub produce_retry: RetryMetrics,
    /// Retry accounting for `Consumer` fetches under a retry policy.
    pub fetch_retry: RetryMetrics,
    /// Leader elections performed by a replicated cluster.
    pub leader_elections: Arc<Counter>,
    /// Times a replica left a partition's in-sync set (ISR shrink).
    pub isr_shrinks: Arc<Counter>,
    lag: Mutex<HashMap<(String, String, u32), Arc<Gauge>>>,
    replica_lag: Mutex<HashMap<(String, u32, u32), Arc<Gauge>>>,
}

impl StreamMetrics {
    /// Register the broker metric families in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            produce_records: registry.counter(
                "stream_produce_records_total",
                "Records appended to the broker",
                &[],
            ),
            produce_bytes: registry.counter(
                "stream_produce_bytes_total",
                "Bytes appended to the broker (framing + key + value)",
                &[],
            ),
            fetch_records: registry.counter(
                "stream_fetch_records_total",
                "Records served by broker fetches",
                &[],
            ),
            fetch_bytes: registry.counter(
                "stream_fetch_bytes_total",
                "Bytes served by broker fetches",
                &[],
            ),
            retention_dropped: registry.counter(
                "stream_retention_dropped_records_total",
                "Records expired by retention enforcement",
                &[],
            ),
            retained_bytes: registry.gauge(
                "stream_retained_bytes",
                "Bytes currently retained across all topics",
                &[],
            ),
            produce_retry: RetryMetrics::new(registry, "produce"),
            fetch_retry: RetryMetrics::new(registry, "fetch"),
            leader_elections: registry.counter(
                "stream_leader_elections_total",
                "Partition leader elections after a node crash",
                &[],
            ),
            isr_shrinks: registry.counter(
                "stream_isr_shrinks_total",
                "Replicas dropped from a partition's in-sync set",
                &[],
            ),
            lag: Mutex::new(HashMap::new()),
            replica_lag: Mutex::new(HashMap::new()),
            registry: registry.clone(),
        }
    }

    /// The tracer the attached registry carries, if any.
    pub(crate) fn tracer(&self) -> Option<&Tracer> {
        self.registry.tracer()
    }

    /// Fold one finished retry loop of `op` (`produce`, `fetch`) on
    /// `topic` into `retry` and, when the loop retried or gave up,
    /// record a `Retry` trace event at span `{op}_retry`/`site`. The
    /// event's content is deterministic (fault schedules key on
    /// `(site, ctx, invocation)`), so worker threads may record it.
    pub(crate) fn record_retry(
        &self,
        retry: &RetryMetrics,
        topic: &str,
        op: &str,
        site: u64,
        outcome: &RetryOutcome,
        ok: bool,
    ) {
        if outcome.attempts == 1 && ok {
            return;
        }
        retry.observe(outcome, ok);
        if let Some(tr) = self.tracer() {
            let kind = TraceEventKind::Retry {
                op: op.to_string(),
                attempts: u64::from(outcome.attempts),
                gave_up: !ok,
            };
            tr.service_event(topic, &format!("{op}_retry"), site, site, kind);
        }
    }

    /// The lag gauge for `(group, topic, partition)`, creating and
    /// caching it on first use.
    pub fn lag_gauge(&self, group: &str, topic: &str, partition: u32) -> Arc<Gauge> {
        let key = (group.to_string(), topic.to_string(), partition);
        cached(&self.lag, key, || {
            let part = partition.to_string();
            self.registry.gauge(
                "stream_consumer_lag",
                "Records between a consumer's position and the log end",
                &[("group", group), ("topic", topic), ("partition", &part)],
            )
        })
    }

    /// The replica-lag gauge for `(topic, partition, node)`: records
    /// between a follower's log end and its leader's. Created and cached
    /// on first use, like [`StreamMetrics::lag_gauge`].
    pub fn replica_lag_gauge(&self, topic: &str, partition: u32, node: u32) -> Arc<Gauge> {
        cached(
            &self.replica_lag,
            (topic.to_string(), partition, node),
            || {
                let (part, node) = (partition.to_string(), node.to_string());
                self.registry.gauge(
                    "stream_replica_lag",
                    "Records between a follower replica's log end and its leader's",
                    &[("topic", topic), ("partition", &part), ("node", &node)],
                )
            },
        )
    }
}

/// The gauge cached under `key`, made on first use.
fn cached<K: std::hash::Hash + Eq>(
    cache: &Mutex<HashMap<K, Arc<Gauge>>>,
    key: K,
    make: impl FnOnce() -> Arc<Gauge>,
) -> Arc<Gauge> {
    Arc::clone(cache.lock().entry(key).or_insert_with(make))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_gauges_are_cached_per_series() {
        let reg = Registry::new();
        let m = StreamMetrics::new(&reg);
        let a = m.lag_gauge("g", "t", 0);
        let b = m.lag_gauge("g", "t", 0);
        a.set(7);
        if oda_obs::enabled() {
            assert_eq!(b.get(), 7);
            assert_eq!(
                reg.gauge_value(
                    "stream_consumer_lag",
                    &[("group", "g"), ("topic", "t"), ("partition", "0")]
                ),
                7
            );
        }
        let other = m.lag_gauge("g", "t", 1);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn replica_lag_gauges_are_cached_per_series() {
        let reg = Registry::new();
        let m = StreamMetrics::new(&reg);
        let a = m.replica_lag_gauge("t", 0, 2);
        let b = m.replica_lag_gauge("t", 0, 2);
        a.set(3);
        if oda_obs::enabled() {
            assert_eq!(b.get(), 3);
            assert_eq!(
                reg.gauge_value(
                    "stream_replica_lag",
                    &[("topic", "t"), ("partition", "0"), ("node", "2")]
                ),
                3
            );
            assert_eq!(reg.counter_value("stream_leader_elections_total", &[]), 0);
        }
        assert_eq!(m.replica_lag_gauge("t", 1, 2).get(), 0);
    }
}

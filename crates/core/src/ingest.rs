//! Telemetry publication into STREAM topics.
//!
//! One tick of a system becomes three streams, matching the paper's
//! source taxonomy: `"<system>.bronze"` (binary observation batches,
//! keyed by node shard so per-component order is preserved),
//! `"<system>.events"` (JSON syslog events), and `"<system>.jobs"`
//! (JSON resource-manager lifecycle records).

use bytes::Bytes;
use oda_stream::{Broker, StreamError};
use oda_telemetry::record::{Observation, OBS_WIRE_BYTES};
use oda_telemetry::TelemetryBatch;
use std::sync::OnceLock;

/// Number of node shards bronze observations are keyed into.
pub const BRONZE_SHARDS: u32 = 64;

/// Topic names of one system.
pub fn topics(system: &str) -> (String, String, String) {
    (
        format!("{system}.bronze"),
        format!("{system}.events"),
        format!("{system}.jobs"),
    )
}

/// The `shard-{i}` record keys, built once per process.
fn shard_keys() -> &'static [Bytes] {
    static KEYS: OnceLock<Vec<Bytes>> = OnceLock::new();
    KEYS.get_or_init(|| {
        (0..BRONZE_SHARDS)
            .map(|i| Bytes::from(format!("shard-{i}")))
            .collect()
    })
}

/// Publish one telemetry batch; returns (observations, events, job events).
///
/// Observations are sharded by node so each shard is one ordered
/// record. Each shard's payload is allocated once at its exact size
/// and the batch is encoded in one pass; the bytes equal
/// [`Observation::encode_batch`] of the shard's observations in batch
/// order.
pub fn publish_batch(
    broker: &Broker,
    system: &str,
    batch: &TelemetryBatch,
) -> Result<(usize, usize, usize), StreamError> {
    let (bronze, events, jobs) = topics(system);
    let shard_of = |obs: &Observation| (obs.component.node % BRONZE_SHARDS) as usize;
    let mut counts = [0u32; BRONZE_SHARDS as usize];
    for obs in &batch.observations {
        counts[shard_of(obs)] += 1;
    }
    let mut payloads: Vec<Vec<u8>> = counts
        .iter()
        .map(|&n| {
            if n == 0 {
                return Vec::new();
            }
            let mut payload = Vec::with_capacity(4 + n as usize * OBS_WIRE_BYTES);
            payload.extend_from_slice(&n.to_le_bytes());
            payload
        })
        .collect();
    for obs in &batch.observations {
        obs.encode_into(&mut payloads[shard_of(obs)]);
    }
    for ((payload, key), n) in payloads.into_iter().zip(shard_keys()).zip(counts) {
        if n == 0 {
            continue;
        }
        broker.produce(
            &bronze,
            batch.ts_ms,
            Some(key.clone()),
            Bytes::from(payload),
        )?;
    }
    for e in &batch.events {
        let body = serde_json::to_vec(e).expect("event serializes");
        broker.produce(&events, e.ts_ms, None, Bytes::from(body))?;
    }
    for j in &batch.job_events {
        let body = serde_json::to_vec(j).expect("job event serializes");
        broker.produce(&jobs, batch.ts_ms, None, Bytes::from(body))?;
    }
    Ok((
        batch.observations.len(),
        batch.events.len(),
        batch.job_events.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_stream::{Consumer, RetentionPolicy};
    use oda_telemetry::{SystemModel, TelemetryGenerator};

    #[test]
    fn publish_and_consume_roundtrip() {
        let broker = Broker::new();
        for t in ["tiny.bronze", "tiny.events", "tiny.jobs"] {
            broker
                .create_topic(t, 2, RetentionPolicy::unbounded())
                .unwrap();
        }
        let mut g = TelemetryGenerator::new(SystemModel::tiny(), 3);
        let mut published_obs = 0;
        for _ in 0..30 {
            let batch = g.next_batch();
            let (o, _, _) = publish_batch(&broker, "tiny", &batch).unwrap();
            published_obs += o;
        }
        // Consume everything back and count observations.
        let mut c = Consumer::subscribe(broker, "t", "tiny.bronze").unwrap();
        let mut consumed = 0;
        loop {
            let recs = c.poll(128).unwrap();
            if recs.is_empty() {
                break;
            }
            for r in recs {
                consumed += Observation::decode_batch(&r.value).unwrap().len();
            }
        }
        assert_eq!(consumed, published_obs);
        assert!(consumed > 0);
    }

    /// Every record `publish_batch` produces carries the key and the
    /// exact bytes of `encode_batch` over its shard's observations, in
    /// batch order, one record per non-empty shard in shard order.
    #[test]
    fn payloads_and_keys_equal_per_shard_encode_batch() {
        let broker = Broker::new();
        for t in ["tiny.bronze", "tiny.events", "tiny.jobs"] {
            broker
                .create_topic(t, 1, RetentionPolicy::unbounded())
                .unwrap();
        }
        let mut g = TelemetryGenerator::new(SystemModel::tiny(), 11);
        let mut want = Vec::new();
        for _ in 0..5 {
            let batch = g.next_batch();
            for shard in 0..BRONZE_SHARDS {
                let obs: Vec<Observation> = batch
                    .observations
                    .iter()
                    .filter(|o| o.component.node % BRONZE_SHARDS == shard)
                    .copied()
                    .collect();
                if !obs.is_empty() {
                    let key = Bytes::from(format!("shard-{shard}"));
                    want.push((key, Observation::encode_batch(&obs)));
                }
            }
            publish_batch(&broker, "tiny", &batch).unwrap();
        }
        assert!(want.len() > 5, "the tiny system spans several shards");
        let mut c = Consumer::subscribe(broker, "t", "tiny.bronze").unwrap();
        let got: Vec<(Bytes, Vec<u8>)> = c
            .poll(10_000)
            .unwrap()
            .into_iter()
            .map(|r| (r.key.expect("bronze records are keyed"), r.value.to_vec()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn same_node_keeps_order() {
        let broker = Broker::new();
        broker
            .create_topic("s.bronze", 4, RetentionPolicy::unbounded())
            .unwrap();
        broker
            .create_topic("s.events", 1, RetentionPolicy::unbounded())
            .unwrap();
        broker
            .create_topic("s.jobs", 1, RetentionPolicy::unbounded())
            .unwrap();
        let mut g = TelemetryGenerator::new(SystemModel::tiny(), 5);
        for _ in 0..20 {
            publish_batch(&broker, "s", &g.next_batch()).unwrap();
        }
        let mut c = Consumer::subscribe(broker, "t", "s.bronze").unwrap();
        // Per node, timestamps must be non-decreasing in consumption order
        // within a partition (keyed sharding guarantees it).
        let mut per_node_last: std::collections::HashMap<(u32, u32), i64> =
            std::collections::HashMap::new();
        loop {
            let recs = c.poll(64).unwrap();
            if recs.is_empty() {
                break;
            }
            for r in recs {
                // We poll partitions separately; track per (partition-ish
                // shard via node, node) pair using node only is enough
                // because a node maps to exactly one shard/partition.
                for obs in Observation::decode_batch(&r.value).unwrap() {
                    let key = (obs.component.node, 0u32);
                    let last = per_node_last.entry(key).or_insert(i64::MIN);
                    assert!(
                        obs.ts_ms >= *last,
                        "node {} went back in time",
                        obs.component.node
                    );
                    *last = obs.ts_ms;
                }
            }
        }
    }
}

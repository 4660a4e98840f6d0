//! Self-telemetry invariants: histogram merge algebra, exact counters
//! under the parallel executor, and a pinned Prometheus exposition.
//!
//! The golden test writes the actual render to
//! `target/obs-golden-actual.prom` on mismatch so CI can upload it as
//! an artifact for diffing against `tests/golden/obs_render.prom`.

mod common;

use bytes::Bytes;
use oda::faults::{FaultPlan, FaultPoint, FaultSite};
use oda::obs::{HistogramSnapshot, Registry};
use oda::pipeline::checkpoint::CheckpointStore;
use oda::pipeline::streaming::{Decoder, MemorySink, Transform};
use oda::pipeline::{Frame, PipelineError, StreamingQuery};
use oda::storage::colfile::ColumnData;
use oda::stream::{Broker, Consumer, RetentionPolicy};
use proptest::prelude::*;

/// Strictly-ascending bucket bounds from an arbitrary draw.
fn ascending_bounds(raw: Vec<u64>) -> Vec<u64> {
    let mut bounds = raw;
    bounds.sort_unstable();
    bounds.dedup();
    bounds
}

/// A snapshot built from arbitrary bounds and observations.
fn snapshot_strategy() -> impl Strategy<Value = HistogramSnapshot> {
    (
        proptest::collection::vec(1u64..10_000, 1..8),
        proptest::collection::vec(0u64..20_000, 0..50),
    )
        .prop_map(|(raw, values)| {
            let h = oda::obs::Histogram::new(&ascending_bounds(raw));
            for v in values {
                h.observe(v);
            }
            h.snapshot()
        })
}

/// Two snapshots sharing one set of bounds (mergeable by construction).
fn mergeable_pair(
) -> impl Strategy<Value = (HistogramSnapshot, HistogramSnapshot, HistogramSnapshot)> {
    (
        proptest::collection::vec(1u64..10_000, 1..8),
        proptest::collection::vec(0u64..20_000, 0..40),
        proptest::collection::vec(0u64..20_000, 0..40),
        proptest::collection::vec(0u64..20_000, 0..40),
    )
        .prop_map(|(raw, a, b, c)| {
            let bounds = ascending_bounds(raw);
            let build = |values: Vec<u64>| {
                let h = oda::obs::Histogram::new(&bounds);
                for v in values {
                    h.observe(v);
                }
                h.snapshot()
            };
            (build(a), build(b), build(c))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging preserves total count and sum (no observation lost).
    #[test]
    fn histogram_merge_preserves_mass((a, b, _c) in mergeable_pair()) {
        let m = a.merge(&b).expect("same bounds merge");
        prop_assert_eq!(m.count(), a.count().wrapping_add(b.count()));
        prop_assert_eq!(m.sum, a.sum.wrapping_add(b.sum));
    }

    /// Merge is commutative: a ⊕ b == b ⊕ a.
    #[test]
    fn histogram_merge_commutative((a, b, _c) in mergeable_pair()) {
        prop_assert_eq!(a.merge(&b).unwrap(), b.merge(&a).unwrap());
    }

    /// Merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn histogram_merge_associative((a, b, c) in mergeable_pair()) {
        let left = a.merge(&b).unwrap().merge(&c).unwrap();
        let right = a.merge(&b.merge(&c).unwrap()).unwrap();
        prop_assert_eq!(left, right);
    }

    /// Histograms with different bounds refuse to merge.
    #[test]
    fn histogram_merge_rejects_mismatched_bounds(
        a in snapshot_strategy(),
        b in snapshot_strategy(),
    ) {
        if a.bounds == b.bounds {
            prop_assert!(a.merge(&b).is_some());
        } else {
            prop_assert!(a.merge(&b).is_none());
        }
    }

    /// Counters are exact (not sampled) under the 8-worker executor,
    /// for any partition layout and record distribution.
    #[test]
    fn counters_exact_under_parallel_executor(
        partitions in 1u32..6,
        records in 1usize..60,
        max_records in 1usize..20,
    ) {
        let reg = Registry::new();
        let broker = Broker::new();
        broker.attach_metrics(&reg);
        broker
            .create_topic("vals", partitions, RetentionPolicy::unbounded())
            .unwrap();
        for i in 0..records {
            // Keyless: round-robin spreads the load over partitions.
            broker
                .produce("vals", i as i64, None, Bytes::from(format!("{i}.5")))
                .unwrap();
        }
        let consumer = Consumer::subscribe(broker.clone(), "p", "vals").unwrap();
        let mut q = StreamingQuery::builder()
            .source(consumer)
            .decoder(float_decoder())
            .transform(passthrough_transform())
            .checkpoints(CheckpointStore::new())
            .max_records(max_records)
            .workers(8)
            .metrics(&reg)
            .build()
            .unwrap();
        let mut sink = MemorySink::new();
        q.run_to_completion(&mut sink).unwrap();
        prop_assert_eq!(sink.total_rows(), records);
        if oda::obs::enabled() {
            prop_assert_eq!(
                reg.counter_value("pipeline_records_total", &[]),
                records as u64
            );
            prop_assert_eq!(
                reg.counter_value("stream_produce_records_total", &[]),
                records as u64
            );
            prop_assert_eq!(
                reg.counter_value("stream_fetch_records_total", &[]),
                records as u64,
                "every record fetched exactly once"
            );
            prop_assert_eq!(
                reg.counter_value("pipeline_epochs_total", &[]),
                sink.epochs() as u64
            );
        }
    }
}

/// A query-driven consumer publishes its lag. The streaming query
/// reads through `fetch_partition` and `seek`, never `poll`, so the
/// gauges are set on its commit: after each committed epoch the summed
/// lag is the records still unread, one series per partition.
#[test]
fn supervised_run_publishes_consumer_lag_per_partition() {
    if !oda::obs::enabled() {
        return;
    }
    let broker = Broker::new();
    common::seed_broker(&broker, 20);
    let reg = Registry::new();
    let lag_of = |p: &str| {
        reg.gauge_value(
            "stream_consumer_lag",
            &[("group", "lag"), ("topic", common::TOPIC), ("partition", p)],
        )
    };
    let per_epoch = std::cell::RefCell::new(Vec::new());
    let tick = || per_epoch.borrow_mut().push(lag_of("0") + lag_of("1"));
    let mut sink = MemorySink::new();
    common::supervise(&broker, None, 2, Some(&reg), "lag", &mut sink, Some(&tick));
    // 20 records, 3 per partition per epoch, all keyed to one partition.
    assert_eq!(per_epoch.into_inner(), [17, 14, 11, 8, 5, 2, 0]);
    let series = reg
        .snapshot()
        .gauges
        .into_keys()
        .filter(|(name, _)| name == "stream_consumer_lag")
        .count();
    assert_eq!(series, 2, "one lag series per partition");
}

fn float_decoder() -> Decoder {
    Box::new(|records: &[oda::stream::Record]| {
        let vals: Vec<f64> = records
            .iter()
            .map(|r| {
                std::str::from_utf8(&r.value)
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| PipelineError::Decode("bad float".into()))
            })
            .collect::<Result<_, _>>()?;
        Frame::new(vec![("v".into(), ColumnData::F64(vals.into()))])
    })
}

fn passthrough_transform() -> Transform {
    Box::new(|frame: Frame, _state| Ok(frame))
}

/// Fixed-seed end-to-end render, pinned byte-for-byte. Everything fed
/// into the registry here is integer-valued and deterministic (counts,
/// bytes, scheduled fault trips) — never wall-clock — so the exposition
/// must not drift across runs, platforms, or worker counts.
#[test]
fn render_prometheus_matches_golden() {
    if !oda::obs::enabled() {
        return; // compiled out: nothing to render
    }
    let reg = Registry::new();

    // STREAM traffic: 10 produces of fixed size, drained by one consumer.
    let broker = Broker::new();
    broker.attach_metrics(&reg);
    broker
        .create_topic("golden", 2, RetentionPolicy::unbounded())
        .unwrap();
    for i in 0..10i64 {
        broker
            .produce(
                "golden",
                i,
                Some(Bytes::from_static(b"key1")),
                Bytes::from(vec![0u8; 80]),
            )
            .unwrap();
    }
    let mut consumer = Consumer::subscribe(broker.clone(), "g", "golden").unwrap();
    let drained = consumer.poll(100).unwrap();
    assert_eq!(drained.len(), 10);
    consumer.poll(1).unwrap(); // refresh lag gauges at zero

    // Scheduled fault trips for seed 11, driven through the plan's
    // deterministic schedule at the tier-migrate site (25% rate in the
    // chaos preset, so a fixed ctx sweep trips a fixed count).
    let plan = FaultPlan::chaos(11);
    plan.attach_metrics(&reg);
    for ctx in 0..50 {
        let _ = plan.check(FaultSite::TierMigrate, ctx);
    }

    // A latency-style histogram fed with fixed values.
    let h = reg.histogram(
        "golden_duration_ns",
        "Deterministic latency-shaped series",
        &[("stage", "demo")],
        &[1_000, 10_000, 100_000],
    );
    for v in [500u64, 5_000, 50_000, 500_000] {
        h.observe(v);
    }

    common::assert_golden(
        "obs_render.prom",
        "obs-golden-actual.prom",
        &reg.render_prometheus(),
    );
}

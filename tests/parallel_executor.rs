//! Parallel partitioned executor: determinism and API-equivalence.
//!
//! The executor's contract is that worker count is invisible in the
//! output: the per-partition fetch/decode stage may run on any number
//! of threads, but the deterministic ordered merge (partition id, then
//! offset) hands every downstream stage one canonical epoch order.
//! This suite pins that contract end to end:
//!
//! * byte-identical Gold output for worker counts 1 / 2 / 8, fault-free
//!   AND under the chaos seeds 11 / 29 / 4242 with a crash/recovery
//!   supervisor loop;
//! * `EpochMeta` reaches the sink with correct epoch/partition/record
//!   counts and a replay-stable watermark.

mod common;

use bytes::Bytes;
use oda::faults::{FaultClass, FaultPlan, FaultPoint, Retry, Retryable};
use oda::pipeline::checkpoint::CheckpointStore;
use oda::pipeline::frame_io::frame_to_colfile;
use oda::pipeline::medallion::{
    observation_decoder, quality_filter_map, streaming_silver_transform,
};
use oda::pipeline::streaming::MemorySink;
use oda::pipeline::{PipelineError, StreamingQuery};
use oda::stream::{Broker, Consumer, RetentionPolicy};
use oda::telemetry::record::Observation;
use oda::telemetry::system::SystemModel;
use oda::telemetry::{SensorCatalog, TelemetryGenerator};
use std::sync::Arc;

const TOPIC: &str = "bronze";
const BATCHES: usize = 80;
const MAX_RECORDS: usize = 5;
const PARTITIONS: u32 = 4;

/// The same synthetic stream every run: 4 partitions, keyless produce
/// so records round-robin across all of them.
fn seeded_broker() -> (Arc<Broker>, SensorCatalog) {
    let mut generator = TelemetryGenerator::new(SystemModel::tiny(), 7);
    let broker = Broker::new();
    broker
        .create_topic(TOPIC, PARTITIONS, RetentionPolicy::unbounded())
        .unwrap();
    for _ in 0..BATCHES {
        let batch = generator.next_batch();
        let payload = Observation::encode_batch(&batch.observations);
        broker
            .produce(TOPIC, batch.ts_ms, None, Bytes::from(payload))
            .unwrap();
    }
    (broker, generator.catalog().clone())
}

struct RunReport {
    sink: MemorySink,
    restarts: usize,
}

/// Supervisor loop: drive to completion at `workers`, rebuilding from
/// the checkpoint store after every fatal fault.
fn run_with_workers(workers: usize, plan: Option<Arc<FaultPlan>>) -> RunReport {
    let (broker, catalog) = seeded_broker();
    let checkpoints = CheckpointStore::new();
    if let Some(p) = &plan {
        broker.arm_faults(p.clone() as Arc<dyn FaultPoint>);
        checkpoints.arm_faults(p.clone() as Arc<dyn FaultPoint>);
    }
    let mut sink = MemorySink::new();
    let mut restarts = 0;
    loop {
        let consumer = Consumer::subscribe(broker.clone(), "par", TOPIC)
            .unwrap()
            .with_retry(Retry::with_attempts(25));
        let mut builder = StreamingQuery::builder()
            .source(consumer)
            .decoder(observation_decoder(catalog.clone()))
            .map_partitions(quality_filter_map())
            .transform(streaming_silver_transform(15_000, 0))
            .checkpoints(checkpoints.clone())
            .max_records(MAX_RECORDS)
            .workers(workers);
        if let Some(p) = &plan {
            builder = builder.faults(p.clone() as Arc<dyn FaultPoint>);
        }
        let mut query = builder.build().unwrap();
        let outcome = loop {
            match query.run_once(&mut sink) {
                Ok(0) => break Ok(()),
                Ok(_) => {}
                Err(e) => break Err(e),
            }
        };
        match outcome {
            Ok(()) => break,
            Err(e) => {
                assert_eq!(
                    e.fault_class(),
                    FaultClass::Fatal,
                    "only fatal faults may escape the retry envelope: {e}"
                );
                restarts += 1;
                assert!(restarts <= 60, "crash/recovery failed to converge");
            }
        }
    }
    RunReport { sink, restarts }
}

fn assert_identical(a: &RunReport, b: &RunReport, label: &str) {
    assert_eq!(a.sink.epochs(), b.sink.epochs(), "{label}: epoch count");
    assert_eq!(
        a.sink.total_rows(),
        b.sink.total_rows(),
        "{label}: row count"
    );
    for (fa, fb) in a.sink.frames().iter().zip(b.sink.frames()) {
        assert_eq!(
            frame_to_colfile(fa).unwrap(),
            frame_to_colfile(fb).unwrap(),
            "{label}: epoch frame diverged"
        );
    }
    assert_eq!(
        frame_to_colfile(&common::gold_reduction(&a.sink)).unwrap(),
        frame_to_colfile(&common::gold_reduction(&b.sink)).unwrap(),
        "{label}: gold diverged"
    );
    // EpochMeta is part of the contract too: same watermark, same
    // partition/record counts per epoch, at any worker count.
    for (ma, mb) in a.sink.metas().iter().zip(b.sink.metas()) {
        assert_eq!(*ma, mb, "{label}: epoch meta diverged");
    }
}

#[test]
fn gold_is_byte_identical_across_worker_counts() {
    let base = run_with_workers(1, None);
    assert_eq!(base.restarts, 0);
    assert!(base.sink.epochs() >= 10, "need a multi-epoch run");
    for workers in [2, 8] {
        let run = run_with_workers(workers, None);
        assert_identical(&base, &run, &format!("workers={workers}"));
    }
}

#[test]
fn gold_is_byte_identical_across_worker_counts_under_chaos() {
    for seed in [11u64, 29, 4242] {
        let baseline = run_with_workers(1, Some(Arc::new(FaultPlan::chaos(seed))));
        assert!(
            baseline.restarts >= 2,
            "seed {seed}: both scheduled crashes must fire"
        );
        for workers in [2, 8] {
            let run = run_with_workers(workers, Some(Arc::new(FaultPlan::chaos(seed))));
            assert_identical(&baseline, &run, &format!("seed={seed} workers={workers}"));
            assert_eq!(
                run.restarts, baseline.restarts,
                "seed {seed}: fault schedule must not depend on workers"
            );
        }
        // And chaos output equals the fault-free run (exactly-once).
        let clean = run_with_workers(8, None);
        assert_identical(&baseline, &clean, &format!("seed={seed} vs clean"));
    }
}

#[test]
fn epoch_meta_reaches_the_sink_and_is_replay_stable() {
    let clean = run_with_workers(2, None);
    let crashed = run_with_workers(2, Some(Arc::new(FaultPlan::chaos(11))));
    let metas_a = clean.sink.metas();
    let metas_b = crashed.sink.metas();
    assert_eq!(metas_a.len(), metas_b.len());
    for (i, (a, b)) in metas_a.iter().zip(&metas_b).enumerate() {
        assert_eq!(a.epoch, i as u64, "epochs are dense");
        assert_eq!(a, b, "replayed epoch {i} must reproduce its meta");
        assert!(a.records > 0, "no empty epoch reaches the sink");
        assert!(a.partitions >= 1 && a.partitions <= PARTITIONS as usize);
        assert!(a.watermark_ms > 0, "watermark carries event time");
    }
    // Watermarks are monotone across epochs for an in-order stream.
    for w in metas_a.windows(2) {
        assert!(w[0].watermark_ms <= w[1].watermark_ms);
    }
}

#[test]
fn builder_rejects_incomplete_configuration() {
    let err = StreamingQuery::builder().build().unwrap_err();
    assert!(matches!(err, PipelineError::InvalidQuery(_)));
    assert_eq!(err.fault_class(), FaultClass::Fatal);

    let (broker, catalog) = seeded_broker();
    let err = StreamingQuery::builder()
        .source(Consumer::subscribe(broker, "v", TOPIC).unwrap())
        .decoder(observation_decoder(catalog))
        .transform(streaming_silver_transform(15_000, 0))
        .checkpoints(CheckpointStore::new())
        .workers(0)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("workers"));
}

//! Helpers shared by the integration tests (`mod common;`): the golden
//! comparison and the supervised-run harness. Each test binary uses a
//! subset of them.
#![allow(dead_code)]

use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;
use oda::faults::{FaultClass, FaultPlan, FaultPoint, Retry, Retryable};
use oda::obs::Registry;
use oda::pipeline::checkpoint::CheckpointStore;
use oda::pipeline::medallion::{observation_decoder, streaming_silver_transform};
use oda::pipeline::ops::{group_by, Agg, AggSpec};
use oda::pipeline::streaming::{MemorySink, Sink};
use oda::pipeline::{Frame, StreamingQuery};
use oda::stream::{Broker, Consumer, RetentionPolicy};
use oda::telemetry::record::Observation;
use oda::telemetry::system::SystemModel;
use oda::telemetry::TelemetryGenerator;

/// Topic the supervised-run harness seeds and consumes.
pub const TOPIC: &str = "bronze";
/// Record budget of one supervised micro-batch.
const MAX_RECORDS: usize = 5;
/// Crash recoveries a supervised run may need before it counts as
/// failing to converge.
const MAX_RESTARTS: usize = 60;

/// Compare `actual` byte for byte to `tests/golden/<fixture>`. On drift
/// the actual text is written to `target/<actual_name>` — the path CI
/// uploads as an artifact — and the test fails; `ODA_BLESS=1` rewrites
/// the fixture instead.
pub fn assert_golden(fixture: &str, actual_name: &str, actual: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = root.join("tests/golden").join(fixture);
    if std::env::var("ODA_BLESS").is_ok() {
        std::fs::write(&golden, actual).expect("bless writes fixture");
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|_| {
        panic!(
            "missing {}; run with ODA_BLESS=1 to create it",
            golden.display()
        )
    });
    if actual != expected {
        let out = root.join("target").join(actual_name);
        let _ = std::fs::write(&out, actual);
        panic!(
            "output drifted from tests/golden/{fixture}; actual written to {} \
             (ODA_BLESS=1 to re-bless)",
            out.display()
        );
    }
}

/// Create a two-partition [`TOPIC`] on `broker` and produce `batches`
/// batches of the tiny system's seed-7 telemetry into it, every record
/// keyed `"all"`.
pub fn seed_broker(broker: &Broker, batches: usize) {
    let mut generator = TelemetryGenerator::new(SystemModel::tiny(), 7);
    broker
        .create_topic(TOPIC, 2, RetentionPolicy::unbounded())
        .unwrap();
    for _ in 0..batches {
        let batch = generator.next_batch();
        let payload = Observation::encode_batch(&batch.observations);
        broker
            .produce(
                TOPIC,
                batch.ts_ms,
                Some(Bytes::from("all")),
                Bytes::from(payload),
            )
            .unwrap();
    }
}

/// Drive the Silver query over `broker`'s [`TOPIC`] to completion,
/// rebuilding it from the checkpoint store after every fatal fault —
/// the crash/recovery loop a supervisor would run. Returns the
/// checkpoint store and the number of restarts.
///
/// `plan` is armed on the broker, the checkpoint store and the query's
/// sink site. `registry`, the one observer handle, is attached to the
/// broker, the plan and the query; the observers must not change a
/// single output byte. `trace_name` names the consumer group and the
/// query's traces. `on_epoch` runs after every committed epoch (a
/// health tick, say). `workers` sizes the partition-stage pool; output
/// must not depend on it.
pub fn supervise<S: Sink>(
    broker: &Arc<Broker>,
    plan: Option<&Arc<FaultPlan>>,
    workers: usize,
    registry: Option<&Registry>,
    trace_name: &str,
    sink: &mut S,
    on_epoch: Option<&dyn Fn()>,
) -> (CheckpointStore, usize) {
    let catalog = TelemetryGenerator::new(SystemModel::tiny(), 7)
        .catalog()
        .clone();
    let checkpoints = CheckpointStore::new();
    if let Some(p) = plan {
        broker.arm_faults(p.clone() as Arc<dyn FaultPoint>);
        checkpoints.arm_faults(p.clone() as Arc<dyn FaultPoint>);
    }
    if let Some(reg) = registry {
        broker.attach_metrics(reg);
        if let Some(p) = plan {
            p.attach_metrics(reg);
        }
    }
    let mut restarts = 0;
    let mut last_recovered_epoch = 0u64;
    loop {
        let consumer = Consumer::subscribe(broker.clone(), trace_name, TOPIC)
            .unwrap()
            .with_retry(Retry::with_attempts(25));
        let mut builder = StreamingQuery::builder()
            .source(consumer)
            .decoder(observation_decoder(catalog.clone()))
            .transform(streaming_silver_transform(15_000, 0))
            .checkpoints(checkpoints.clone())
            .max_records(MAX_RECORDS)
            .workers(workers)
            .trace_name(trace_name);
        if let Some(reg) = registry {
            builder = builder.metrics(reg);
        }
        if let Some(p) = plan {
            builder = builder.faults(p.clone() as Arc<dyn FaultPoint>);
        }
        let mut query = builder.build().unwrap();
        assert!(
            query.epoch() >= last_recovered_epoch,
            "recovery must never move the epoch backwards: {} < {}",
            query.epoch(),
            last_recovered_epoch
        );
        last_recovered_epoch = query.epoch();
        loop {
            match query.run_once(sink) {
                Ok(0) => return (checkpoints, restarts),
                Ok(_) => {
                    if let Some(tick) = on_epoch {
                        tick();
                    }
                }
                Err(e) => {
                    assert_eq!(
                        e.fault_class(),
                        FaultClass::Fatal,
                        "only fatal faults may escape the retry envelope: {e}"
                    );
                    restarts += 1;
                    assert!(
                        restarts <= MAX_RESTARTS,
                        "crash/recovery loop failed to converge"
                    );
                    break; // rebuild from the checkpoint store
                }
            }
        }
    }
}

/// Deterministic Gold reduction over a supervised run's Silver stream:
/// the per-(node, sensor) day aggregate.
pub fn gold_reduction(sink: &MemorySink) -> Frame {
    let silver = sink.concat().unwrap();
    group_by(
        &silver,
        &["node", "sensor"],
        &[
            AggSpec::new("mean", Agg::Mean, "day_mean"),
            AggSpec::new("count", Agg::Sum, "samples"),
        ],
    )
    .unwrap()
}

/// The chaos seeds to run: `CHAOS_SEED` when set (CI runs a fixed-seed
/// matrix that way), else the default trio in one pass.
pub fn chaos_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => vec![11, 29, 4242],
    }
}

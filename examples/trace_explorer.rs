//! Trace explorer: structured tracing + end-to-end lineage of the
//! medallion flow.
//!
//! Runs the chaos-seeded STREAM → Bronze → Silver → Gold pipeline with
//! one [`oda::obs::Tracer`] attached to every subsystem (broker, fault
//! plan, query, OCEAN, LAKE, tier manager), then explores the journal:
//! an epoch's span tree with per-stage timings, the epoch's critical
//! path, and the full lineage chain of the Gold reduction — from its
//! content digest back through the Silver and Bronze frames to the
//! exact topic/partition/offset ranges that produced it, and forward
//! to its OCEAN object and tier placement.
//!
//! Run with: `cargo run --release --example trace_explorer`

use bytes::Bytes;
use oda::faults::{FaultClass, FaultPlan, FaultPoint, Retry, Retryable};
use oda::obs::{critical_path, render_span_tree, LineageNode, Registry, Tracer};
use oda::pipeline::checkpoint::CheckpointStore;
use oda::pipeline::frame_io::{append_frame, frame_digest};
use oda::pipeline::medallion::{observation_decoder, streaming_silver_transform};
use oda::pipeline::ops::{group_by, Agg, AggSpec};
use oda::pipeline::streaming::MemorySink;
use oda::pipeline::StreamingQuery;
use oda::storage::ocean::{Ocean, OceanDataset};
use oda::storage::tiering::{DataClass, Tier, TierManager};
use oda::stream::{Broker, Consumer, RetentionPolicy};
use oda::telemetry::record::Observation;
use oda::telemetry::system::SystemModel;
use oda::telemetry::TelemetryGenerator;
use std::sync::Arc;

const TOPIC: &str = "bronze";
const BATCHES: usize = 60;
const QUERY: &str = "medallion";

fn main() {
    let tracer = Tracer::new();
    let registry = Registry::new().with_tracer(&tracer);
    println!(
        "trace collection: {}",
        if oda::obs::enabled() {
            "on"
        } else {
            "compiled out (run with default features to explore)"
        }
    );

    // --- Telemetry → STREAM, traced, under a chaos fault plan. ---
    let mut generator = TelemetryGenerator::new(SystemModel::tiny(), 7);
    let broker = Broker::new();
    broker.attach_metrics(&registry);
    broker
        .create_topic(TOPIC, 2, RetentionPolicy::unbounded())
        .unwrap();
    for _ in 0..BATCHES {
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
    let catalog = generator.catalog().clone();
    let plan = Arc::new(FaultPlan::chaos(11));
    plan.attach_metrics(&registry);
    broker.arm_faults(plan.clone() as Arc<dyn FaultPoint>);

    // --- Checkpointed Silver pipeline, crash/recovery supervised. ---
    let checkpoints = CheckpointStore::new();
    checkpoints.arm_faults(plan.clone() as Arc<dyn FaultPoint>);
    let mut sink = MemorySink::new();
    let mut restarts = 0;
    'supervise: loop {
        let consumer = Consumer::subscribe(broker.clone(), "explorer", TOPIC)
            .unwrap()
            .with_retry(Retry::with_attempts(25));
        let mut query = StreamingQuery::builder()
            .source(consumer)
            .decoder(observation_decoder(catalog.clone()))
            .transform(streaming_silver_transform(15_000, 0))
            .checkpoints(checkpoints.clone())
            .max_records(5)
            .workers(2)
            .metrics(&registry)
            .trace_name(QUERY)
            .faults(plan.clone() as Arc<dyn FaultPoint>)
            .build()
            .unwrap();
        loop {
            match query.run_once(&mut sink) {
                Ok(0) => break 'supervise,
                Ok(_) => {}
                Err(e) => {
                    assert_eq!(e.fault_class(), FaultClass::Fatal, "unexpected: {e}");
                    restarts += 1;
                    continue 'supervise;
                }
            }
        }
    }
    println!(
        "stream drained: {} epochs, {} silver rows, {} crash recoveries, {} trace events",
        sink.epochs(),
        sink.total_rows(),
        restarts,
        tracer.journal().len(),
    );

    // --- Silver → Gold reduction, persisted to OCEAN, tiered. ---
    let silver = sink.concat().unwrap();
    let gold = group_by(
        &silver,
        &["node", "sensor"],
        &[
            AggSpec::new("mean", Agg::Mean, "day_mean"),
            AggSpec::new("count", Agg::Sum, "samples"),
        ],
    )
    .unwrap();
    let gold_digest = frame_digest(&gold).unwrap();
    let gold_node = LineageNode::Derived {
        name: "gold/day-aggregate".into(),
        digest: gold_digest,
        rows: gold.rows() as u64,
    };
    // The engine recorded offsets → bronze → silver per epoch; the app
    // closes the chain: every epoch's silver frame reduces into Gold.
    for (epoch, frame) in sink.frames().iter().enumerate() {
        tracer.link(
            LineageNode::Frame {
                stage: "silver".into(),
                epoch: epoch as u64,
                digest: frame_digest(frame).unwrap(),
                rows: frame.rows() as u64,
            },
            gold_node.clone(),
            "reduce",
        );
    }
    let ocean = Ocean::new();
    ocean.attach_metrics(&registry);
    let dataset = OceanDataset::create(ocean, "warm", "gold-day", gold.schema()).unwrap();
    let part = append_frame(&dataset, &gold).unwrap();
    tracer.link(
        gold_node.clone(),
        LineageNode::Object {
            bucket: "warm".into(),
            key: part.clone(),
        },
        "persist",
    );
    let mut tiers = TierManager::new();
    tiers.attach_metrics(&registry);
    tiers.register(
        "gold-day",
        DataClass::Gold,
        Tier::Ocean,
        dataset.byte_size() as u64,
        0,
    );
    tracer.link(
        LineageNode::Object {
            bucket: "warm".into(),
            key: part,
        },
        LineageNode::Placement {
            artifact: "gold-day".into(),
            tier: Tier::Ocean.label().to_string(),
        },
        "place",
    );
    // Gold lives 5 years in OCEAN; jump past it so the lifecycle pass
    // archives the object to GLACIER (traced, and linked in lineage).
    const DAY: i64 = 86_400_000;
    tiers.advance(6 * 365 * DAY);

    if !oda::obs::enabled() {
        println!("(tracing compiled out — nothing to explore)");
        return;
    }

    // --- One epoch, as a span tree. ---
    println!("\n=== span tree: {QUERY} epoch 0 ===");
    let tree = tracer.trace_tree(QUERY, 0);
    print!("{}", render_span_tree(&tree));

    // --- The epoch's critical path. ---
    println!("=== critical path: epoch 0 ===");
    if let Some(root) = tree.first() {
        let path = critical_path(root);
        let total = root.dur_ns().max(1);
        for e in &path {
            println!(
                "  {:<10} {:>9.3}ms  {:>5.1}%",
                e.name(),
                e.dur_ns as f64 / 1e6,
                e.dur_ns as f64 * 100.0 / total as f64
            );
        }
    }

    // --- Full lineage of the Gold reduction. ---
    println!("\n=== lineage: gold digest {gold_digest:016x} ===");
    let q = tracer.lineage().query();
    for (depth, _, node) in q.ancestors_of_digest(gold_digest) {
        println!("  {}{}", "  ".repeat(depth as usize), node.label());
    }
    println!("--- and forward, to storage ---");
    for (depth, _, node) in q.descendants_of(gold_node.id()) {
        if depth > 0 {
            println!("  {}{}", "  ".repeat(depth as usize), node.label());
        }
    }
    println!(
        "\ntier occupancy after lifecycle pass: {:?}",
        tiers.bytes_by_tier()
    );
}

//! Multi-node STREAM: replicated ingest, deterministic failover.
//!
//! A three-node [`Broker`] (replication factor 3) ingests a synthetic
//! telemetry stream while a seeded fault plan crashes nodes
//! ([`FaultSite::NodeCrash`], one-shot per node) and lags followers
//! ([`FaultSite::ReplicaLag`], shrinking the in-sync replica set until
//! catch-up). The demo prints the pinned placement table, the election
//! log, and the ISR after healing — then proves the property the chaos
//! suite rests on: the consumed stream is **byte-identical** to a
//! single-node `Broker::new()`'s, and the lineage graph confirms no
//! byte was served by a stale (non-ISR) replica.
//!
//! Run with: `cargo run --release --example cluster_failover`

use bytes::Bytes;
use oda::faults::{FaultPlan, FaultPoint, FaultSite, FaultSpec};
use oda::obs::{LineageNode, Registry, Tracer};
use oda::stream::{Broker, Consumer, RetentionPolicy};
use oda::telemetry::record::Observation;
use oda::telemetry::{SystemModel, TelemetryGenerator};
use std::sync::Arc;

const SEED: u64 = 29;
const TOPIC: &str = "bronze";
const PARTITIONS: u32 = 4;
const NODES: u32 = 3;
const BATCHES: usize = 120;

fn main() {
    println!("== replicated STREAM with deterministic failover, seed {SEED} ==\n");

    // --- Placement: a pure function, printed straight from it.
    println!("placement ({NODES} nodes, rf 3):");
    for p in 0..PARTITIONS {
        let set = Broker::placement(TOPIC, p, NODES, 3);
        println!(
            "  {TOPIC}/{p}: leader n{}  followers {:?}",
            set[0],
            &set[1..]
        );
    }

    // --- Two ingests of the same stream: a single-node broker, and a
    // replicated one under crash/lag faults. Keys route identically in both.
    let broker = Broker::new();
    broker
        .create_topic(TOPIC, PARTITIONS, RetentionPolicy::unbounded())
        .unwrap();
    let cluster = Broker::replicated(NODES, 3);
    cluster
        .create_topic(TOPIC, PARTITIONS, RetentionPolicy::unbounded())
        .unwrap();
    let tracer = Tracer::new();
    cluster.attach_metrics(&Registry::new().with_tracer(&tracer));
    let plan = Arc::new(FaultPlan::new(
        SEED,
        FaultSpec {
            node_crash: 0.02,
            replica_lag: 0.15,
            ..FaultSpec::default()
        },
    ));
    cluster.arm_faults(plan.clone() as Arc<dyn FaultPoint>);

    let mut generator = TelemetryGenerator::new(SystemModel::tiny(), 7);
    for i in 0..BATCHES {
        let batch = generator.next_batch();
        let payload = Observation::encode_batch(&batch.observations);
        // Shard by cabinet so every partition sees traffic.
        let key = Some(Bytes::from(format!("cab{}", i % 8)));
        broker
            .produce(
                TOPIC,
                batch.ts_ms,
                key.clone(),
                Bytes::from(payload.clone()),
            )
            .unwrap();
        cluster
            .produce(TOPIC, batch.ts_ms, key, Bytes::from(payload))
            .unwrap();
    }
    cluster.disarm_faults();

    // --- What the schedule did (sites in declaration order — the
    // by-site map itself iterates in hash order).
    println!("\nfaults injected while ingesting:");
    let by_site = plan.injected_by_site();
    for site in FaultSite::ALL {
        if let Some(n) = by_site.get(&site) {
            println!("  {:<12} {n}", site.label());
        }
    }
    println!("\nelection log (deterministic given the seed):");
    for e in cluster.elections() {
        println!(
            "  {}/{}: n{} -> n{}",
            e.topic, e.partition, e.from_node, e.to_node
        );
    }
    cluster.heal();
    for p in 0..PARTITIONS {
        println!(
            "  {TOPIC}/{p}: leader n{}  isr {:?}  hw {}",
            cluster.leader(TOPIC, p).unwrap(),
            cluster.isr(TOPIC, p).unwrap(),
            cluster.topic(TOPIC).unwrap().latest_offset(p).unwrap(),
        );
    }

    // --- Byte-identity: consume both ends and compare.
    let mut single = Consumer::subscribe(broker.clone(), "demo", TOPIC).unwrap();
    let mut replicated = Consumer::subscribe(cluster.clone(), "demo", TOPIC).unwrap();
    let mut records = 0usize;
    loop {
        let a = single.poll_partitioned(64).unwrap();
        let b = replicated.poll_partitioned(64).unwrap();
        let n: usize = a.iter().map(|x| x.records.len()).sum();
        let m: usize = b.iter().map(|x| x.records.len()).sum();
        assert_eq!(n, m, "batch sizes diverged");
        if n == 0 {
            break;
        }
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.partition, y.partition);
            assert_eq!(x.records, y.records, "replicated bytes diverged");
        }
        records += n;
        single.commit();
        replicated.commit();
    }
    println!("\nconsumed {records} records from both — byte-identical despite failover");

    // --- Provenance: every served byte came from an in-sync replica.
    if oda::obs::enabled() {
        let q = tracer.lineage().query();
        let stale = q
            .edges()
            .iter()
            .filter(|(_, _, rel)| rel == "serve-stale")
            .count();
        let isr = q
            .edges()
            .iter()
            .filter(|(_, _, rel)| rel == "serve-isr")
            .count();
        println!("lineage: {isr} serve-isr edges, {stale} serve-stale edges");
        assert_eq!(stale, 0, "no consumed byte may come from a non-ISR read");
        let replicas = q
            .nodes()
            .filter(|(_, n)| matches!(n, LineageNode::Replica { .. }))
            .count();
        println!("         {replicas} replica nodes served fetches");
    }
    println!("\nok");
}

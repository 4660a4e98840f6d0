//! End-to-end integration: facility → STREAM → Silver → applications.
//!
//! Exercises the full hourglass of the paper's §V in one process:
//! telemetry generation, broker transport, streaming refinement with a
//! crash in the middle, profile contextualization, and the LVA index —
//! asserting agreement between the streaming path and a batch re-run.

use oda::analytics::lva::LvaIndex;
use oda::analytics::profiles::extract_profiles;
use oda::core::config::FacilityConfig;
use oda::core::facility::Facility;
use oda::core::ingest::topics;
use oda::faults::FaultPlan;
use oda::pipeline::checkpoint::CheckpointStore;
use oda::pipeline::medallion::{
    bronze_frame, bronze_to_silver, job_context_frame, observation_decoder,
    streaming_silver_transform,
};
use oda::pipeline::ops::{group_by, Agg, AggSpec};
use oda::pipeline::streaming::{MemorySink, StreamingQuery};
use oda::pipeline::window::assign_window;
use oda::stream::Consumer;
use oda::telemetry::record::Observation;
use oda::telemetry::SensorCatalog;

fn collected_facility(seed: u64, ticks: usize) -> Facility {
    let mut config = FacilityConfig::tiny(seed);
    config.tick_ms = 15_000;
    config.workload.duration_scale = 0.25;
    config.workload.mean_interarrival_s = 300.0;
    let mut facility = Facility::build(config);
    facility.run(ticks);
    facility
}

fn run_silver(facility: &Facility, crash_at: Option<u64>) -> oda::pipeline::Frame {
    let system = facility.systems()[0].clone();
    let (bronze, _, _) = topics(&system.name);
    let catalog = SensorCatalog::for_system(&system);
    let checkpoints = CheckpointStore::new();
    let mut sink = MemorySink::new();
    {
        let consumer = Consumer::subscribe(facility.broker(), "e2e", &bronze).unwrap();
        let mut builder = StreamingQuery::builder()
            .source(consumer)
            .decoder(observation_decoder(catalog.clone()))
            .transform(streaming_silver_transform(15_000, 0))
            .checkpoints(checkpoints.clone())
            .max_records(50);
        if let Some(epoch) = crash_at {
            builder = builder.faults(std::sync::Arc::new(FaultPlan::crash_after_sink([epoch])));
        }
        let mut query = builder.build().unwrap();
        if crash_at.is_some() {
            // Run until the injected crash fires.
            loop {
                match query.run_once(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(_) => break, // crash
                }
            }
        } else {
            query.run_to_completion(&mut sink).unwrap();
        }
    }
    // Recover (a fresh query against the same checkpoints) and finish.
    let consumer = Consumer::subscribe(facility.broker(), "e2e", &bronze).unwrap();
    let mut query = StreamingQuery::builder()
        .source(consumer)
        .decoder(observation_decoder(catalog))
        .transform(streaming_silver_transform(15_000, 0))
        .checkpoints(checkpoints)
        .max_records(50)
        .build()
        .unwrap();
    query.run_to_completion(&mut sink).unwrap();
    sink.concat().unwrap()
}

#[test]
fn streaming_crash_recovery_is_exactly_once_end_to_end() {
    let facility_a = collected_facility(31, 480);
    let facility_b = collected_facility(31, 480);
    // Same facility seed: identical bronze. One pipeline crashes mid-run.
    let clean = run_silver(&facility_a, None);
    let crashed = run_silver(&facility_b, Some(3));
    assert!(clean.rows() > 0);
    // The crash-recovered silver must equal the clean run row-for-row
    // after sorting (epoch boundaries differ, content must not).
    let key = |f: &oda::pipeline::Frame| {
        let w = f.i64s("window").unwrap();
        let n = f.i64s("node").unwrap();
        let s = f.cat("sensor").unwrap();
        let m = f.f64s("mean").unwrap();
        let mut rows: Vec<(i64, i64, String, u64)> = (0..f.rows())
            .map(|i| (w[i], n[i], s.get(i).to_string(), m[i].to_bits()))
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(
        key(&clean),
        key(&crashed),
        "crash recovery changed the silver product"
    );
}

#[test]
fn streaming_and_batch_silver_agree() {
    let facility = collected_facility(37, 240);
    let system = facility.systems()[0].clone();
    let catalog = SensorCatalog::for_system(&system);
    // Streaming path.
    let streaming = run_silver(&facility, None);
    // Batch path: re-consume bronze into one big frame, run the batch plan.
    let (bronze_topic, _, _) = topics(&system.name);
    let mut consumer = Consumer::subscribe(facility.broker(), "batch", &bronze_topic).unwrap();
    let mut all = Vec::new();
    loop {
        let recs = consumer.poll(1_000).unwrap();
        if recs.is_empty() {
            break;
        }
        for r in recs {
            all.extend(Observation::decode_batch(&r.value).unwrap());
        }
    }
    let bronze = bronze_frame(&all, &catalog);
    let mask = oda::pipeline::Expr::col("quality")
        .eq_(oda::pipeline::Expr::LitI(0))
        .and(oda::pipeline::Expr::col("value").is_nan().not())
        .eval_mask(&bronze)
        .unwrap();
    let good = bronze.filter_mask(&mask);
    let windowed = assign_window(&good, "ts_ms", 15_000).unwrap();
    let batch = group_by(
        &windowed,
        &["window", "node", "sensor"],
        &[AggSpec::new("value", Agg::Mean, "mean")],
    )
    .unwrap();
    // Compare cells present in the streaming output (the batch run also
    // contains the final, unclosed windows the watermark held back).
    let mut batch_cells = std::collections::HashMap::new();
    let (bw, bn, bs, bm) = (
        batch.i64s("window").unwrap(),
        batch.i64s("node").unwrap(),
        batch.cat("sensor").unwrap(),
        batch.f64s("mean").unwrap(),
    );
    for i in 0..batch.rows() {
        batch_cells.insert((bw[i], bn[i], bs.get(i).to_string()), bm[i]);
    }
    let (sw, sn, ss, sm) = (
        streaming.i64s("window").unwrap(),
        streaming.i64s("node").unwrap(),
        streaming.cat("sensor").unwrap(),
        streaming.f64s("mean").unwrap(),
    );
    assert!(streaming.rows() > 100);
    for i in 0..streaming.rows() {
        let batch_mean = batch_cells
            .get(&(sw[i], sn[i], ss.get(i).to_string()))
            .unwrap_or_else(|| panic!("cell missing in batch: {} {} {}", sw[i], sn[i], ss.get(i)));
        assert!(
            (batch_mean - sm[i]).abs() < 1e-9,
            "cell ({}, {}, {}): batch {} vs streaming {}",
            sw[i],
            sn[i],
            ss.get(i),
            batch_mean,
            sm[i]
        );
    }
}

#[test]
fn profiles_flow_into_lva() {
    let facility = collected_facility(41, 960);
    let silver = run_silver(&facility, None);
    let jobs = facility.jobs(0).to_vec();
    let profiles = extract_profiles(&silver, &jobs, 15_000).unwrap();
    assert!(!profiles.is_empty(), "no profiles from {} jobs", jobs.len());
    let n = profiles.len();
    let idx = LvaIndex::build(profiles);
    assert_eq!(idx.len(), n);
    // Interactive range query returns plausible summaries.
    let rows = idx.query_range(0, facility.now_ms());
    assert_eq!(rows.len(), n);
    for r in &rows {
        assert!(
            r.mean_w > 300.0 && r.mean_w < 3_000.0,
            "job {} mean {}",
            r.job_id,
            r.mean_w
        );
        assert!(r.peak_w >= r.mean_w * 0.99);
        assert!(r.energy_kwh >= 0.0);
    }
    // The system power series covers the run.
    let series = idx.system_power_series(0, facility.now_ms(), 60_000);
    assert!(!series.is_empty());
}

#[test]
fn batch_plan_on_real_bronze_produces_wide_silver() {
    let facility = collected_facility(43, 120);
    let system = facility.systems()[0].clone();
    let catalog = SensorCatalog::for_system(&system);
    let (bronze_topic, _, _) = topics(&system.name);
    let mut consumer = Consumer::subscribe(facility.broker(), "plan", &bronze_topic).unwrap();
    let mut all = Vec::new();
    loop {
        let recs = consumer.poll(1_000).unwrap();
        if recs.is_empty() {
            break;
        }
        for r in recs {
            all.extend(Observation::decode_batch(&r.value).unwrap());
        }
    }
    let bronze = bronze_frame(&all, &catalog);
    let jobs = facility.jobs(0).to_vec();
    if jobs.is_empty() {
        return; // nothing scheduled in 30 min — the join would be empty
    }
    let silver = bronze_to_silver(bronze, 15_000, job_context_frame(&jobs))
        .execute()
        .unwrap();
    // Wide format: sensor names became columns; job context joined.
    assert!(silver.index_of("node_power_w").is_ok());
    assert!(silver.index_of("job").is_ok());
    assert!(silver.index_of("archetype").is_ok());
}

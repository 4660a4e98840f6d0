//! Scenario-pack suite: scripted facility disturbances through the full
//! STREAM → medallion → online-detector path, validated against golden
//! expected-alerts fixtures.
//!
//! Each [`ScenarioKind`] drives the simulator deterministically from a
//! fixed seed; the resulting Bronze stream runs through the gap-marked
//! Silver transform with an [`AlertingSink`] riding on the sink path.
//! The encoded alert stream must match `tests/golden/alerts_<name>.json`
//! byte for byte; on drift the actual stream is written to
//! `target/alerts-actual-<name>.json` so CI can upload it for diffing.
//! Re-bless with `ODA_BLESS=1 cargo test --test scenarios`.
//!
//! The suite also proves the alert stream is invariant to worker count
//! and chaos fault schedules (crash/recovery replays must not re-fire
//! detectors), and closes the loop once end-to-end: detector fires →
//! digital twin replays the disturbance window → a governance incident
//! is recorded, evidence attached, released through the advisory chain,
//! and resolved.

mod common;

use bytes::Bytes;
use oda::analytics::online::{alerts_jsonl, Alert, AlertingSink, OnlineAnalytics, OnlineConfig};
use oda::analytics::train_footprint_classifier;
use oda::faults::{FaultClass, FaultPlan, FaultPoint, Retry, Retryable};
use oda::govern::{DataRuc, IncidentLog, IncidentStatus, ReleaseRequest, RequestState};
use oda::pipeline::checkpoint::CheckpointStore;
use oda::pipeline::medallion::{observation_decoder, streaming_silver_transform_gap_marked};
use oda::pipeline::streaming::MemorySink;
use oda::pipeline::StreamingQuery;
use oda::stream::{Broker, Consumer, RetentionPolicy};
use oda::telemetry::record::{Observation, Quality};
use oda::telemetry::{Job, ScenarioKind, ScenarioPack, TelemetryBatch};
use std::sync::Arc;

const TOPIC: &str = "bronze";
const SEED: u64 = 2024;
const MAX_RECORDS: usize = 8;
const MAX_RESTARTS: usize = 60;

/// Detector knobs shared by every scenario: the goldens pin this exact
/// configuration, so change it only together with a re-bless.
fn scenario_config() -> OnlineConfig {
    OnlineConfig::default()
}

struct ScenarioOutcome {
    alerts: Vec<Alert>,
    silver: MemorySink,
    jobs: Vec<Job>,
    batches: Vec<TelemetryBatch>,
    restarts: usize,
}

/// Replay a scenario pack end to end: simulator → broker → streaming
/// Silver → online detectors, under an optional chaos fault plan with
/// the same crash/recovery supervisor loop as the chaos suite.
fn run_scenario(
    kind: ScenarioKind,
    plan: Option<Arc<FaultPlan>>,
    workers: usize,
) -> ScenarioOutcome {
    let pack = ScenarioPack::standard(kind);
    let mut run = pack.start(SEED).expect("standard packs validate");
    let batches = run.run_to_end().expect("scenario replays cleanly");
    let jobs = run.jobs();
    let catalog = run.generator().catalog().clone();

    let broker = Broker::new();
    broker
        .create_topic(TOPIC, 2, RetentionPolicy::unbounded())
        .unwrap();
    for batch in &batches {
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

    let checkpoints = CheckpointStore::new();
    if let Some(p) = &plan {
        broker.arm_faults(p.clone() as Arc<dyn FaultPoint>);
        checkpoints.arm_faults(p.clone() as Arc<dyn FaultPoint>);
    }

    let mut engine = OnlineAnalytics::new(scenario_config());
    if kind == ScenarioKind::JobStorm {
        // The storm's classifier validates the Fig. 10 loop online:
        // completed jobs get a footprint alert with a predicted label.
        let classifier = train_footprint_classifier(run.generator().system());
        engine = engine.with_jobs(jobs.clone(), Some(classifier));
    }
    let mut sink = AlertingSink::new(MemorySink::new(), engine);

    let mut restarts = 0;
    loop {
        let consumer = Consumer::subscribe(broker.clone(), "scenario", TOPIC)
            .unwrap()
            .with_retry(Retry::with_attempts(25));
        let mut builder = StreamingQuery::builder()
            .source(consumer)
            .decoder(observation_decoder(catalog.clone()))
            .transform(streaming_silver_transform_gap_marked(15_000, 0))
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
                assert!(restarts <= MAX_RESTARTS, "supervisor failed to converge");
            }
        }
    }

    let (silver, engine) = sink.into_parts();
    ScenarioOutcome {
        alerts: engine.alerts().to_vec(),
        silver,
        jobs,
        batches,
        restarts,
    }
}

/// Compare against the scenario's golden alert fixture.
fn check_golden(kind: ScenarioKind, alerts: &[Alert]) {
    let name = kind.name();
    common::assert_golden(
        &format!("alerts_{name}.json"),
        &format!("alerts-actual-{name}.json"),
        &alerts_jsonl(alerts),
    );
}

/// The scenario matrix honours `SCENARIO=<name>` so CI can shard one
/// scenario per job; locally all four run.
fn selected_kinds() -> Vec<ScenarioKind> {
    match std::env::var("SCENARIO") {
        Ok(name) => vec![ScenarioKind::from_name(&name).expect("SCENARIO must name a pack")],
        Err(_) => ScenarioKind::ALL.to_vec(),
    }
}

#[test]
fn scenario_alerts_match_goldens() {
    for kind in selected_kinds() {
        let outcome = run_scenario(kind, None, 1);
        assert_eq!(
            outcome.restarts,
            0,
            "{}: fault-free run restarted",
            kind.name()
        );
        assert!(
            !outcome.alerts.is_empty(),
            "{}: scripted disturbance raised no alerts",
            kind.name()
        );
        // The scripted disturbance itself is detected: at least one
        // alert lands inside its window. (Background job churn may
        // legitimately raise power anomalies outside it — the goldens
        // pin the complete stream either way.)
        let pack = ScenarioPack::standard(kind);
        let (start_tick, end_tick) = pack.disturbance_ticks();
        let (start_ms, end_ms) = (i64::from(start_tick) * 1_000, i64::from(end_tick) * 1_000);
        assert!(
            outcome.alerts.iter().any(|a| {
                // Footprint alerts stamp the job end, which may trail
                // the disturbance window by one job duration.
                let slack = if a.detector == "footprint" {
                    200_000
                } else {
                    15_000
                };
                a.window_ms + 15_000 > start_ms && a.window_ms < end_ms + slack
            }),
            "{}: no alert inside the disturbance window [{start_ms}, {end_ms}]: {:?}",
            kind.name(),
            outcome.alerts
        );
        // Each pack must trip its intended detector family.
        let detectors: Vec<&str> = outcome.alerts.iter().map(|a| a.detector.as_str()).collect();
        let expected: &[&str] = match kind {
            ScenarioKind::CoolingExcursion => &["zscore", "ewma"],
            ScenarioKind::PowerCapEvent => &["zscore", "ewma"],
            ScenarioKind::JobStorm => &["footprint"],
            ScenarioKind::SensorFirmwareSkew => &["health-skew"],
        };
        for want in expected {
            assert!(
                detectors.contains(want),
                "{}: expected a {want} alert, got {detectors:?}",
                kind.name()
            );
        }
        if kind == ScenarioKind::JobStorm {
            // The scripted DL burst completes within the pack, so at
            // least one footprint must carry the classifier's verdict.
            assert!(
                outcome
                    .alerts
                    .iter()
                    .any(|a| a.detector == "footprint" && a.message.contains("classified as")),
                "job storm footprints never reached the classifier"
            );
        }
        check_golden(kind, &outcome.alerts);
    }
}

#[test]
fn scenario_alerts_are_chaos_and_worker_invariant() {
    // The goldens must hold not just for the clean single-worker run
    // but under crash/recovery chaos and parallel partition stages:
    // AlertingSink's epoch dedupe makes replays invisible to detectors.
    let seeds: Vec<u64> = match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => vec![11],
    };
    for kind in selected_kinds() {
        let baseline = run_scenario(kind, None, 1);
        let baseline_bytes = alerts_jsonl(&baseline.alerts);
        for &seed in &seeds {
            for workers in [1usize, 8] {
                let plan = Arc::new(FaultPlan::chaos(seed));
                let outcome = run_scenario(kind, Some(plan), workers);
                assert_eq!(
                    alerts_jsonl(&outcome.alerts),
                    baseline_bytes,
                    "{}: alert stream diverged under chaos seed {seed}, {workers} workers",
                    kind.name()
                );
                assert_eq!(
                    outcome.silver.epochs(),
                    baseline.silver.epochs(),
                    "{}: silver epoch count diverged",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn cooling_excursion_closes_the_loop_through_twin_and_govern() {
    // The full paper loop for one scenario: detector fires → the
    // digital twin replays the measured window against the known job
    // schedule → an incident is recorded, evidence attached, the alert
    // data released through the advisory chain, and the incident
    // resolved with a disposition.
    let kind = ScenarioKind::CoolingExcursion;
    let outcome = run_scenario(kind, None, 1);
    let first = outcome
        .alerts
        .first()
        .expect("cooling excursion must alert");

    // Twin replay over the measured facility power of the whole run.
    let pack = ScenarioPack::standard(kind);
    let run = pack.start(SEED).unwrap();
    let catalog = run.generator().catalog().clone();
    let system = run.generator().system().clone();
    let substation = catalog.sensor_id("substation_power_w").unwrap();
    let measured: Vec<(i64, f64)> = outcome
        .batches
        .iter()
        .flat_map(|b| b.observations.iter())
        .filter(|o| o.sensor == substation && o.quality == Quality::Good)
        .map(|o| (o.ts_ms, o.value))
        .collect();
    assert!(!measured.is_empty(), "no substation readings in the run");
    let report = oda::twin::replay(&system, &outcome.jobs, &measured);
    assert!(report.samples > 0);
    assert!(
        report.power_mape < 0.15,
        "twin lost the plot during a cooling (not power) disturbance: MAPE {}",
        report.power_mape
    );

    // Governance: incident raised from the alert, twin evidence
    // attached, release approved, incident resolved.
    let mut incidents = IncidentLog::new();
    let mut ruc = DataRuc::new();
    let id = incidents.raise(
        kind.name(),
        &first.detector,
        first.severity.label(),
        first.window_ms,
        outcome.alerts.len(),
    );
    assert!(incidents.attach_evidence(
        id,
        &format!(
            "twin replay: {} samples, power MAPE {:.2}%, correlation {:.3}",
            report.samples,
            report.power_mape * 100.0,
            report.power_correlation
        ),
    ));
    let state = incidents
        .request_release(
            id,
            &mut ruc,
            ReleaseRequest::internal(
                "ops-oncall",
                &format!("alerts-{}", kind.name()),
                "facility incident review",
            ),
        )
        .unwrap();
    assert_eq!(state, RequestState::Approved);
    assert_eq!(ruc.audit_log().len(), 5, "full advisory chain on record");
    assert!(incidents.resolve(id, "CDU setpoint excursion; reverted at tick 450"));
    let incident = incidents.get(id).unwrap();
    assert!(matches!(incident.status, IncidentStatus::Resolved { .. }));
    assert_eq!(incident.release_request, Some(0));
    assert_eq!(incident.alert_count, outcome.alerts.len());
}

//! The paper's qualitative claims as assertions.
//!
//! Each test pins one "expected shape" from DESIGN.md's experiment
//! index using countable work proxies (bytes, rows, row groups) rather
//! than wall time, so CI enforces the shapes deterministically.

use bytes::Bytes;
use oda::analytics::lva::{scan_bronze_for_summaries, LvaIndex};
use oda::analytics::profiles::extract_profiles;
use oda::pipeline::checkpoint::CheckpointStore;
use oda::pipeline::logical::{ExecContext, Query};
use oda::pipeline::medallion::{
    bronze_frame, bronze_to_silver, job_context_frame, observation_decoder,
    streaming_silver_transform,
};
use oda::pipeline::ops::{group_by, Agg, AggSpec};
use oda::pipeline::streaming::{MemorySink, StreamingQuery};
use oda::pipeline::window::{assign_window, assign_window_as};
use oda::pipeline::{Expr, Frame};
use oda::storage::colfile::{ColumnData, ColumnType, TableFile, TableSchema};
use oda::stream::{Broker, Consumer, RetentionPolicy};
use oda::telemetry::jobs::WorkloadConfig;
use oda::telemetry::rates::{
    collection_overhead, facility_tb_per_day, total_tb_per_day, volume_by_source,
};
use oda::telemetry::record::Observation;
use oda::telemetry::sensors::DataSource;
use oda::telemetry::{SystemModel, TelemetryGenerator};

#[test]
fn f4a_volume_bands_hold() {
    // Facility-wide: the paper's 4.2-4.5 TB/day.
    let total = facility_tb_per_day();
    assert!((4.0..=4.7).contains(&total), "facility {total:.2} TB/day");
    // Frontier-class power/thermal ~0.5 TB/day.
    let pt = volume_by_source(&SystemModel::compass())
        .into_iter()
        .find(|v| v.source == DataSource::PowerTemp)
        .unwrap()
        .tb_per_day();
    assert!((0.3..=0.7).contains(&pt), "compass power/thermal {pt:.2}");
    // The newer system out-ingests the older.
    assert!(total_tb_per_day(&SystemModel::compass()) > total_tb_per_day(&SystemModel::mountain()));
}

#[test]
fn s4b_out_of_band_collection_is_cheap() {
    for system in [SystemModel::mountain(), SystemModel::compass()] {
        let r = collection_overhead(&system, 20.0);
        assert!(
            r.cpu_overhead_frac < 1e-3,
            "{}: {:.6}",
            system.name,
            r.cpu_overhead_frac
        );
    }
}

#[test]
fn f3_newer_generation_lags_in_maturity() {
    let (mountain, compass) = oda::govern::MaturityMatrix::paper_seed().mean_levels();
    assert!(mountain > compass, "{mountain:.2} vs {compass:.2}");
}

#[test]
fn f5_columnar_compression_factor() {
    // Telemetry columns must compress >=5x against row JSON, on a
    // synthetic sensor table and on generator output.
    let rows = 20_000usize;
    let schema = TableSchema::new(&[
        ("ts_ms", ColumnType::I64),
        ("sensor", ColumnType::Str),
        ("value", ColumnType::F64),
    ]);
    let mut w = TableFile::writer(schema);
    w.write_row_group(&[
        ColumnData::I64(
            (0..rows as i64)
                .map(|i| 1_700_000_000_000 + i * 1_000)
                .collect(),
        ),
        ColumnData::Str(
            (0..rows)
                .map(|i| format!("node_power_w_{}", i % 12))
                .collect(),
        ),
        ColumnData::F64((0..rows).map(|i| 550.0 + (i % 11) as f64).collect()),
    ])
    .unwrap();
    let colfile = w.finish().len();
    let json: usize = (0..rows)
        .map(|i| {
            format!(
                "{{\"ts\":{},\"sensor\":\"node_power_w_{}\",\"value\":{}}}",
                1_700_000_000_000i64 + i as i64 * 1_000,
                i % 12,
                550.0 + (i % 11) as f64
            )
            .len()
        })
        .sum();
    assert!(colfile * 5 < json, "colfile {colfile} vs json {json}");

    // The same bound on generator telemetry, one column per field.
    let mut generator = TelemetryGenerator::new(SystemModel::tiny(), 31);
    let obs: Vec<Observation> = (0..400)
        .flat_map(|_| generator.next_batch().observations)
        .collect();
    assert!(obs.len() >= 20_000, "{} observations", obs.len());
    let mut w = TableFile::writer(TableSchema::new(&[
        ("ts_ms", ColumnType::I64),
        ("node", ColumnType::I64),
        ("sensor", ColumnType::I64),
        ("value", ColumnType::F64),
    ]));
    w.write_row_group(&[
        ColumnData::I64(obs.iter().map(|o| o.ts_ms).collect()),
        ColumnData::I64(obs.iter().map(|o| i64::from(o.component.node)).collect()),
        ColumnData::I64(obs.iter().map(|o| i64::from(o.sensor)).collect()),
        ColumnData::F64(obs.iter().map(|o| o.value).collect()),
    ])
    .unwrap();
    let colfile = w.finish().len();
    let json: usize = obs
        .iter()
        .map(|o| {
            format!(
                "{{\"ts\":{},\"node\":{},\"sensor\":{},\"value\":{}}}",
                o.ts_ms, o.component.node, o.sensor, o.value
            )
            .len()
        })
        .sum();
    assert!(
        colfile * 5 < json,
        "telemetry colfile {colfile} vs json {json}"
    );
}

#[test]
fn f8_pushdown_reads_fraction_of_row_groups() {
    // The LVA-style narrow query touches O(slice) row groups, not O(file).
    let schema = TableSchema::new(&[("ts_ms", ColumnType::I64)]);
    let mut w = TableFile::writer(schema);
    let groups = 128usize;
    for g in 0..groups {
        let base = (g * 1_000) as i64;
        w.write_row_group(&[ColumnData::I64((0..1_000).map(|i| base + i).collect())])
            .unwrap();
    }
    let file = TableFile::open(w.finish()).unwrap();
    let hit = file.row_groups_in_range("ts_ms", 50_000.0, 52_500.0);
    assert!(
        hit.len() <= 4,
        "narrow slice touched {} of {groups} groups",
        hit.len()
    );
}

#[test]
fn s5_shared_refinement_eliminates_redundant_work() {
    // §V: one shared Silver refinement serves every project, so the
    // Bronze rows the planner scans stay R however many projects read
    // it; each project re-deriving Silver scans N·R.
    let mut generator = TelemetryGenerator::new(SystemModel::tiny(), 51);
    let obs: Vec<Observation> = (0..200)
        .flat_map(|_| generator.next_batch().observations)
        .collect();
    let bronze = bronze_frame(&obs, generator.catalog());
    let refine = || -> (Frame, u64) {
        let (silver, stats) = Query::scan(bronze.clone())
            .filter(
                Expr::col("quality")
                    .eq_(Expr::LitI(0))
                    .and(Expr::col("value").is_nan().not()),
            )
            .window("ts_ms", 15_000)
            .group_by(
                &["window", "node", "sensor"],
                &[AggSpec::new("value", Agg::Mean, "mean")],
            )
            .execute_with(&ExecContext::default())
            .unwrap();
        (silver, stats.rows_scanned)
    };
    let r = bronze.rows() as u64;
    for n in [1usize, 4, 16] {
        // Shared topology: refine once, every project reads the product.
        let (silver, scanned) = refine();
        assert_eq!(scanned, r, "{n} projects on the shared refinement");
        // Duplicated topology: every project re-derives Silver.
        let (duplicated, scans): (Vec<Frame>, Vec<u64>) = (0..n).map(|_| refine()).unzip();
        assert_eq!(scans.iter().sum::<u64>(), n as u64 * r);
        assert!(duplicated.iter().all(|s| *s == silver));
    }
}

#[test]
fn f11_twin_validation_can_fail() {
    // Shape: validation is discriminative — right schedule passes, wrong
    // schedule fails, on the same measured series.
    use oda::twin::replay::replay;
    use oda::twin::scenario::hpl_run;
    use oda::twin::PowerSim;
    let system = SystemModel::tiny();
    let jobs = vec![hpl_run(&system, 1.0, 1.0)];
    let sim = PowerSim::new(system.clone(), jobs.clone());
    let measured: Vec<(i64, f64)> = (0..60)
        .map(|i| (i * 60_000, sim.sample(i * 60_000).facility_w))
        .collect();
    let good = replay(&system, &jobs, &measured);
    let bad = replay(&system, &[], &measured);
    assert!(good.power_mape < 0.01, "exact replay {}", good.power_mape);
    assert!(bad.power_mape > 10.0 * good.power_mape.max(1e-6));
}

#[test]
fn t2_advisory_batch_settles_in_order() {
    // Table II: every request of a mixed batch settles, and its audit
    // trail runs Data Owner → Cyber Security → Legal → IRB → Management,
    // stopping at the stage that rejected it.
    use oda::govern::advisory::{
        AdvisoryStage as S, DataRuc, Decision, ReleaseRequest, RequestState,
    };
    let mut ruc = DataRuc::new();
    let (mut approved, mut rejected, mut holds) = (0, 0, 0);
    for i in 0..200 {
        let mut r = if i % 3 == 0 {
            ReleaseRequest::external("staff", &format!("ds-{i}"), "collaboration")
        } else {
            ReleaseRequest::internal("staff", &format!("ds-{i}"), "dashboards")
        };
        r.contains_pii = i % 3 == 0;
        r.export_controlled = i % 11 == 0;
        r.human_subjects = i % 7 == 0;
        r.irb_protocol = (i % 14 == 0).then(|| format!("IRB-{i}"));
        r.mission_aligned = i % 17 != 0;
        let id = ruc.submit(r);
        let mut state = ruc.review_to_completion(id).unwrap();
        if matches!(state, RequestState::UnderReview(_)) {
            ruc.mark_sanitized(id);
            holds += 1;
            state = ruc.review_to_completion(id).unwrap();
        }
        match state {
            RequestState::Approved => approved += 1,
            RequestState::Rejected { .. } => rejected += 1,
            RequestState::UnderReview(stage) => panic!("request {id} parked at {stage:?}"),
        }
    }
    assert_eq!((approved, rejected, holds), (159, 41, 67));

    let chain = [
        S::DataOwner,
        S::CyberSecurity,
        S::Legal,
        S::Irb,
        S::Management,
    ];
    for id in 0..200 {
        let last = match ruc.state(id).unwrap() {
            RequestState::Rejected { stage, .. } => *stage,
            _ => S::Management,
        };
        let stages: Vec<S> = ruc
            .audit_log()
            .iter()
            .filter(|a| a.request == id && a.decision != Decision::RequireSanitization)
            .map(|a| a.stage)
            .collect();
        let end = chain.iter().position(|&s| s == last).unwrap();
        assert_eq!(stages, chain[..=end], "request {id}");
    }
}

#[test]
fn f4b_grouping_block_carries_the_reduction() {
    // Fig. 4-b: WHERE keeps nearly every Bronze row; the GROUP BY and
    // PIVOT clauses make Silver compact. Row counts only: the time split
    // is reported by `odabench --trace 1`, not asserted.
    let mut generator = TelemetryGenerator::new(SystemModel::tiny(), 11);
    let mut obs = Vec::new();
    while obs.len() < 100_000 {
        obs.extend(generator.next_batch().observations);
    }
    obs.truncate(100_000);
    let scheduler = generator.scheduler();
    let jobs: Vec<_> = scheduler
        .completed()
        .iter()
        .chain(scheduler.running())
        .cloned()
        .collect();
    let bronze = bronze_frame(&obs, generator.catalog());
    let (_, timings) = bronze_to_silver(bronze, 15_000, job_context_frame(&jobs))
        .execute_timed()
        .unwrap();
    let rows_out = |clause: &str| timings.iter().find(|t| t.stage == clause).unwrap().rows_out;
    let (kept, grouped, pivoted) = (rows_out("WHERE"), rows_out("GROUP BY"), rows_out("PIVOT"));
    assert!(kept >= 99_000, "WHERE kept {kept}");
    assert!(grouped <= 20_000, "GROUP BY left {grouped}");
    assert!(pivoted <= 2_000, "PIVOT left {pivoted}");
}

#[test]
fn f4c_realtime_hourly_daily_input_ladder() {
    // Fig. 4-c: input rows behind one refined result. Real time folds one
    // micro-batch into warm state, the hourly roll-up re-reads an hour of
    // Silver, the daily batch re-scans Bronze; each tier ≥ 5× the last.
    let mut generator = TelemetryGenerator::new(SystemModel::tiny(), 21);
    let obs: Vec<Observation> = (0..3_600)
        .flat_map(|_| generator.next_batch().observations)
        .collect();
    let catalog = generator.catalog().clone();

    let broker = Broker::new();
    broker
        .create_topic("bronze", 4, RetentionPolicy::unbounded())
        .unwrap();
    for chunk in obs.chunks(200) {
        let ts = chunk.last().unwrap().ts_ms;
        let payload = Bytes::from(Observation::encode_batch(chunk));
        broker
            .produce("bronze", ts, Some(Bytes::from_static(b"k")), payload)
            .unwrap();
    }
    let mut query = StreamingQuery::builder()
        .source(Consumer::subscribe(broker, "rt", "bronze").unwrap())
        .decoder(observation_decoder(catalog.clone()))
        .transform(streaming_silver_transform(15_000, 0))
        .checkpoints(CheckpointStore::new())
        .max_records(8)
        .build()
        .unwrap();
    let mut sink = MemorySink::new();
    for _ in 0..100 {
        query.run_once(&mut sink).unwrap();
    }
    // Real time: micro-batches into the warm state until a window closes.
    let before = sink.total_rows();
    let mut realtime = 0;
    while sink.total_rows() == before {
        let records = query.run_once(&mut sink).unwrap();
        assert!(records > 0, "the stream drained before a window closed");
        realtime += records * 200;
    }

    let bronze = bronze_frame(&obs, &catalog);
    let silver = group_by(
        &assign_window(&bronze, "ts_ms", 15_000).unwrap(),
        &["window", "node", "sensor"],
        &[AggSpec::new("value", Agg::Mean, "mean")],
    )
    .unwrap();
    let hourly = group_by(
        &assign_window_as(&silver, "window", 3_600_000, "hour").unwrap(),
        &["hour", "node", "sensor"],
        &[AggSpec::new("mean", Agg::Mean, "mean")],
    )
    .unwrap();
    let daily = group_by(
        &assign_window(&bronze, "ts_ms", 3_600_000).unwrap(),
        &["window", "node", "sensor"],
        &[AggSpec::new("value", Agg::Mean, "mean")],
    )
    .unwrap();
    assert_eq!(
        hourly.rows(),
        daily.rows(),
        "tiers refine different results"
    );

    let (hour_in, day_in) = (silver.rows(), bronze.rows());
    assert!((1..=1_600).contains(&realtime), "real time read {realtime}");
    assert!(realtime * 5 <= hour_in, "{realtime} vs hourly {hour_in}");
    assert!(hour_in * 5 <= day_in, "hourly {hour_in} vs daily {day_in}");
}

#[test]
fn f8_index_work_is_independent_of_history() {
    // Fig. 8: the precomputed LVA index answers the same job fleet
    // identically over a history 4× longer, and agrees with the Bronze
    // re-scan, whose input grows with the history.
    let workload = WorkloadConfig {
        mean_interarrival_s: 60.0,
        duration_scale: 0.02,
        ..WorkloadConfig::default()
    };
    let mut generator = TelemetryGenerator::with_workload(SystemModel::tiny(), 41, workload);
    let mut obs: Vec<Observation> = (0..900)
        .flat_map(|_| generator.next_batch().observations)
        .collect();
    let short = bronze_frame(&obs, generator.catalog());
    let jobs = generator.scheduler().completed().to_vec();
    obs.extend((0..2_700).flat_map(|_| generator.next_batch().observations));
    let histories = [short, bronze_frame(&obs, generator.catalog())];
    let mut answers = Vec::new();
    for bronze in &histories {
        let silver = Query::scan(bronze.clone())
            .filter(
                Expr::col("quality")
                    .eq_(Expr::LitI(0))
                    .and(Expr::col("value").is_nan().not()),
            )
            .window("ts_ms", 15_000)
            .group_by(
                &["window", "node", "sensor"],
                &[AggSpec::new("value", Agg::Mean, "mean")],
            )
            .execute()
            .unwrap();
        let index = LvaIndex::build(extract_profiles(&silver, &jobs, 15_000).unwrap());
        let answer = index.query_range(0, i64::MAX);
        let scan = scan_bronze_for_summaries(bronze, &jobs, 15_000, 0, i64::MAX).unwrap();
        assert_eq!(answer, scan);
        answers.push((index.len(), answer));
    }
    assert!(answers[0].0 > 0);
    assert_eq!(answers[0], answers[1]);
    assert_eq!(histories[1].rows(), 4 * histories[0].rows());
}

//! Chaos suite: exactly-once semantics under seeded fault plans.
//!
//! Replays the same synthetic telemetry stream through the
//! STREAM → medallion pipeline under several deterministic
//! [`FaultPlan::chaos`] schedules (transient produce/fetch faults,
//! crashes in the sink→checkpoint window, lost checkpoint commits) and
//! asserts that the recovered output is *byte-identical* to a
//! fault-free run: no duplicated epoch, no lost epoch, identical row
//! counts, identical Gold reduction, monotone checkpoint recovery.

mod common;

use common::TOPIC;
use oda::faults::{FaultPlan, FaultPoint, FaultSite, FaultSpec};
use oda::obs::{Registry, Tracer};
use oda::pipeline::checkpoint::CheckpointStore;
use oda::pipeline::frame_io::frame_to_colfile;
use oda::pipeline::streaming::MemorySink;
use oda::storage::tiering::{DataClass, LifecycleAction, Tier, TierManager};
use oda::stream::Broker;
use std::sync::Arc;

const BATCHES: usize = 80;

/// Produce the same synthetic telemetry stream into a fresh broker of
/// `nodes` nodes replicating to `replication` of them (`(1, 1)` is
/// [`Broker::new`]). The seed-phase `plan` may crash nodes and lag
/// replicas *while the data is being written* — `acks=all` replication
/// must keep the acked stream byte-identical regardless.
fn seeded(
    nodes: u32,
    replication: u32,
    plan: Option<&Arc<FaultPlan>>,
    registry: Option<&Registry>,
) -> Arc<Broker> {
    let broker = Broker::replicated(nodes, replication);
    if let Some(p) = plan {
        broker.arm_faults(p.clone() as Arc<dyn FaultPoint>);
    }
    if let Some(reg) = registry {
        broker.attach_metrics(reg);
    }
    common::seed_broker(&broker, BATCHES);
    broker
}

struct RunReport {
    sink: MemorySink,
    checkpoints: CheckpointStore,
    restarts: usize,
}

/// Drive the query to completion under an optional fault plan through
/// the shared supervisor loop. `workers` sizes the partition-stage
/// pool; output must not depend on it. With `registry`, the whole path
/// is observed (broker, fault plan, query; traced too when the registry
/// carries a tracer) — which must not change a single output byte.
fn run_instrumented(
    plan: Option<Arc<FaultPlan>>,
    workers: usize,
    registry: Option<&Registry>,
) -> RunReport {
    let broker = seeded(1, 1, None, None);
    let mut sink = MemorySink::new();
    let (checkpoints, restarts) = common::supervise(
        &broker,
        plan.as_ref(),
        workers,
        registry,
        "chaos",
        &mut sink,
        None,
    );
    RunReport {
        sink,
        checkpoints,
        restarts,
    }
}

fn run_pipeline(plan: Option<Arc<FaultPlan>>) -> RunReport {
    run_instrumented(plan, 1, None)
}

#[test]
fn chaos_runs_are_byte_identical_to_fault_free_run() {
    let baseline = run_pipeline(None);
    assert_eq!(baseline.restarts, 0);
    let baseline_epochs = baseline.sink.epochs();
    assert!(
        baseline_epochs >= 13,
        "need enough epochs to hit both crash points"
    );
    let baseline_gold = common::gold_reduction(&baseline.sink);

    let seeds = common::chaos_seeds();
    let single_seed = seeds.len() == 1;
    let mut crashes_seen = 0;
    for seed in seeds {
        let plan = Arc::new(FaultPlan::chaos(seed));
        let report = run_pipeline(Some(plan.clone()));
        crashes_seen += report.restarts;

        // Exactly-once: same epochs, same rows, no duplicate or hole.
        assert_eq!(report.sink.epochs(), baseline_epochs, "seed {seed}");
        assert_eq!(
            report.sink.total_rows(),
            baseline.sink.total_rows(),
            "seed {seed}"
        );
        // Byte-identical per-epoch frames.
        for (ours, theirs) in report.sink.frames().iter().zip(baseline.sink.frames()) {
            assert_eq!(
                frame_to_colfile(ours).unwrap(),
                frame_to_colfile(theirs).unwrap(),
                "seed {seed}: epoch frame diverged"
            );
        }
        // Identical Gold reduction.
        assert_eq!(
            frame_to_colfile(&common::gold_reduction(&report.sink)).unwrap(),
            frame_to_colfile(&baseline_gold).unwrap(),
            "seed {seed}: gold diverged"
        );
        // Checkpoint log is dense and its head matches the sink.
        assert_eq!(report.checkpoints.len(), baseline_epochs);
        assert_eq!(
            report.checkpoints.latest().unwrap().epoch as usize,
            baseline_epochs - 1
        );
        // The schedule really fired: both derived crash epochs are within
        // the run, so at least two sink-site faults must appear in the log.
        let by_site = plan.injected_by_site();
        assert_eq!(
            by_site.get(&FaultSite::SinkWrite).copied().unwrap_or(0),
            2,
            "seed {seed}: both crash epochs must fire exactly once"
        );
    }
    let expected_crashes = if single_seed { 2 } else { 6 };
    assert!(
        crashes_seen >= expected_crashes,
        "chaos seeds must force at least their scheduled crashes ({crashes_seen} < {expected_crashes})"
    );
}

#[test]
fn metrics_do_not_perturb_chaos_byte_identity() {
    // The observability layer is a read-only tap: running the full
    // chaos crash/recovery loop with every subsystem instrumented must
    // leave Gold byte-identical to the uninstrumented fault-free run.
    let baseline = run_pipeline(None);
    let baseline_gold = frame_to_colfile(&common::gold_reduction(&baseline.sink)).unwrap();
    for seed in [11u64, 29, 4242] {
        let plan = Arc::new(FaultPlan::chaos(seed));
        let reg = Registry::new();
        let report = run_instrumented(Some(plan.clone()), 2, Some(&reg));
        assert_eq!(report.sink.epochs(), baseline.sink.epochs(), "seed {seed}");
        for (ours, theirs) in report.sink.frames().iter().zip(baseline.sink.frames()) {
            assert_eq!(
                frame_to_colfile(ours).unwrap(),
                frame_to_colfile(theirs).unwrap(),
                "seed {seed}: epoch frame diverged with metrics enabled"
            );
        }
        assert_eq!(
            frame_to_colfile(&common::gold_reduction(&report.sink)).unwrap(),
            baseline_gold,
            "seed {seed}: gold diverged with metrics enabled"
        );
        if oda::obs::enabled() {
            // The registry's fault-trip counters must agree with the
            // plan's own injection log, site for site.
            let by_site = plan.injected_by_site();
            assert!(!by_site.is_empty(), "seed {seed}: chaos plan never fired");
            for site in FaultSite::ALL {
                assert_eq!(
                    reg.counter_value("faults_injected_total", &[("site", site.label())]),
                    by_site.get(&site).copied().unwrap_or(0),
                    "seed {seed}: {} counter diverged from the injection log",
                    site.label()
                );
            }
            // The engine committed every broker record exactly once
            // despite crashes and retries.
            let consumed: usize = baseline.sink.metas().iter().map(|m| m.records).sum();
            assert_eq!(
                reg.counter_value("pipeline_records_total", &[]),
                consumed as u64,
                "seed {seed}"
            );
        }
    }
}

#[test]
fn traces_do_not_perturb_chaos_byte_identity() {
    // Tracing is the same kind of read-only tap as metrics: the full
    // chaos crash/recovery loop with the tracer attached everywhere
    // (broker, fault plan, query) must leave every epoch frame and the
    // Gold reduction byte-identical to the untraced fault-free run —
    // and the journal's fault events must agree with the plan's own
    // injection log, site for site.
    let baseline = run_pipeline(None);
    let baseline_gold = frame_to_colfile(&common::gold_reduction(&baseline.sink)).unwrap();
    for seed in [11u64, 29, 4242] {
        let plan = Arc::new(FaultPlan::chaos(seed));
        let tracer = Tracer::new();
        let registry = Registry::new().with_tracer(&tracer);
        let report = run_instrumented(Some(plan.clone()), 2, Some(&registry));
        assert_eq!(report.sink.epochs(), baseline.sink.epochs(), "seed {seed}");
        for (ours, theirs) in report.sink.frames().iter().zip(baseline.sink.frames()) {
            assert_eq!(
                frame_to_colfile(ours).unwrap(),
                frame_to_colfile(theirs).unwrap(),
                "seed {seed}: epoch frame diverged with tracing enabled"
            );
        }
        assert_eq!(
            frame_to_colfile(&common::gold_reduction(&report.sink)).unwrap(),
            baseline_gold,
            "seed {seed}: gold diverged with tracing enabled"
        );
        if oda::obs::enabled() {
            assert_eq!(
                tracer.journal().evicted(),
                0,
                "seed {seed}: journal must hold a whole chaos run"
            );
            // Journal fault events vs the plan's injection log.
            let mut by_label: std::collections::BTreeMap<String, u64> =
                std::collections::BTreeMap::new();
            for e in tracer.events() {
                if let oda::obs::TraceEventKind::FaultInjected { site, .. } = &e.kind {
                    *by_label.entry(site.clone()).or_insert(0) += 1;
                }
            }
            let by_site = plan.injected_by_site();
            assert!(!by_site.is_empty(), "seed {seed}: chaos plan never fired");
            for site in FaultSite::ALL {
                assert_eq!(
                    by_label.get(site.label()).copied().unwrap_or(0),
                    by_site.get(&site).copied().unwrap_or(0),
                    "seed {seed}: {} journal count diverged from the injection log",
                    site.label()
                );
            }
            // Every committed epoch left exactly one checkpoint span.
            let checkpoint_spans = tracer
                .events()
                .iter()
                .filter(|e| matches!(e.kind, oda::obs::TraceEventKind::Checkpoint { .. }))
                .count();
            assert_eq!(checkpoint_spans, baseline.sink.epochs(), "seed {seed}");
        } else {
            assert!(
                tracer.events().is_empty(),
                "compiled-out tracing must record nothing"
            );
        }
    }
}

#[test]
fn node_crash_failover_gold_byte_identity() {
    // The full replication matrix: every chaos seed × replication
    // factor {1,2,3} × worker pool {1,8}, each run seeded under
    // crash/lag faults and then driven through the crash/recovery loop
    // under [`FaultPlan::cluster_chaos`] (which adds `NodeCrash` and
    // `ReplicaLag` to the classic chaos sites). Gold must stay
    // byte-identical to the single-node fault-free baseline: failover
    // may change *which node serves*, never *which bytes flow*.
    let baseline = run_pipeline(None);
    let baseline_gold = frame_to_colfile(&common::gold_reduction(&baseline.sink)).unwrap();
    let seeds = common::chaos_seeds();
    let mut new_site_injections = 0u64;
    for &seed in &seeds {
        for replication in [1u32, 2, 3] {
            for workers in [1usize, 8] {
                let label = format!("seed {seed} rf {replication} workers {workers}");
                let tracer = Tracer::new();
                // Seed phase: only the replication sites are live, so
                // the acked record stream itself is never perturbed.
                let seed_plan = Arc::new(FaultPlan::new(
                    seed,
                    FaultSpec {
                        node_crash: 0.02,
                        replica_lag: 0.10,
                        ..FaultSpec::default()
                    },
                ));
                seed_plan.attach_metrics(&Registry::new().with_tracer(&tracer));
                let registry = Registry::new().with_tracer(&tracer);
                let cluster = seeded(3, replication, Some(&seed_plan), Some(&registry));
                // Run phase: the full chaos schedule plus replication
                // faults drives the supervisor loop.
                let run_plan = Arc::new(FaultPlan::cluster_chaos(seed));
                let mut sink = MemorySink::new();
                common::supervise(
                    &cluster,
                    Some(&run_plan),
                    workers,
                    Some(&registry),
                    "chaos",
                    &mut sink,
                    None,
                );
                // Byte identity against the single-node baseline.
                assert_eq!(sink.epochs(), baseline.sink.epochs(), "{label}");
                for (ours, theirs) in sink.frames().iter().zip(baseline.sink.frames()) {
                    assert_eq!(
                        frame_to_colfile(ours).unwrap(),
                        frame_to_colfile(theirs).unwrap(),
                        "{label}: epoch frame diverged from single-node baseline"
                    );
                }
                assert_eq!(
                    frame_to_colfile(&common::gold_reduction(&sink)).unwrap(),
                    baseline_gold,
                    "{label}: gold diverged from single-node baseline"
                );
                // Every election the cluster performed is on the record,
                // and the surviving leaders still serve the full log.
                for e in cluster.elections() {
                    assert_ne!(e.from_node, e.to_node, "{label}");
                }
                let mut acked_total = 0;
                for p in 0..2 {
                    let hw = cluster.topic(TOPIC).unwrap().latest_offset(p).unwrap();
                    acked_total += hw;
                    let leader = cluster.leader(TOPIC, p).unwrap();
                    assert_eq!(cluster.log_end(leader, TOPIC, p).unwrap(), hw, "{label}");
                }
                // Every batch keys on "all", so one partition carries
                // the whole stream — but none of it may be lost.
                assert_eq!(acked_total, BATCHES as u64, "{label}: acked records lost");
                // The journal's FaultInjected events for the replication
                // sites must agree with the two plans' own injection
                // logs, count for count.
                let plan_counts: u64 = [&seed_plan, &run_plan]
                    .iter()
                    .flat_map(|p| p.injected_by_site())
                    .filter(|(site, _)| {
                        matches!(site, FaultSite::NodeCrash | FaultSite::ReplicaLag)
                    })
                    .map(|(_, n)| n)
                    .sum();
                new_site_injections += plan_counts;
                if oda::obs::enabled() {
                    let journal_counts = tracer
                        .events()
                        .iter()
                        .filter(|e| {
                            matches!(
                                &e.kind,
                                oda::obs::TraceEventKind::FaultInjected { site, .. }
                                    if site == FaultSite::NodeCrash.label()
                                        || site == FaultSite::ReplicaLag.label()
                            )
                        })
                        .count() as u64;
                    assert_eq!(
                        journal_counts, plan_counts,
                        "{label}: journal disagrees with the injection logs"
                    );
                }
            }
        }
    }
    assert!(
        new_site_injections > 0,
        "the matrix never exercised NodeCrash/ReplicaLag — rates too low"
    );
}

/// Detector knobs tuned down so the short chaos stream (a few Silver
/// windows per series) arms and fires: the byte-identity claim is only
/// interesting when alerts actually exist.
fn chaos_alert_engine() -> oda::analytics::OnlineAnalytics {
    let config = oda::analytics::OnlineConfig {
        min_windows: 2,
        z_window: 4,
        z_threshold: 1.5,
        ewma_threshold: 2.0,
        ..oda::analytics::OnlineConfig::default()
    };
    oda::analytics::OnlineAnalytics::new(config)
}

/// Run the supervisor loop with the online detectors riding on the sink.
fn run_alerting(plan: Option<Arc<FaultPlan>>, workers: usize) -> (RunReport, Vec<u8>) {
    let broker = seeded(1, 1, None, None);
    let mut sink = oda::analytics::AlertingSink::new(MemorySink::new(), chaos_alert_engine());
    let (checkpoints, restarts) = common::supervise(
        &broker,
        plan.as_ref(),
        workers,
        None,
        "chaos",
        &mut sink,
        None,
    );
    let (inner, engine) = sink.into_parts();
    (
        RunReport {
            sink: inner,
            checkpoints,
            restarts,
        },
        engine.alerts_bytes(),
    )
}

#[test]
fn alerts_do_not_perturb_chaos_byte_identity() {
    // The online detectors are a tap on the sink path: wrapping the
    // sink in an AlertingSink must leave every Silver epoch frame and
    // the Gold reduction byte-identical to the plain run — and the
    // alert stream itself must be byte-identical across every chaos
    // seed and worker count, because the epoch-dedupe in AlertingSink
    // skips replayed (byte-identical) epochs instead of re-analyzing
    // them.
    let plain = run_pipeline(None);
    let plain_gold = frame_to_colfile(&common::gold_reduction(&plain.sink)).unwrap();
    let (baseline, baseline_alerts) = run_alerting(None, 1);
    assert_eq!(baseline.restarts, 0);
    assert!(
        !baseline_alerts.is_empty(),
        "detector knobs too tight: the chaos stream raised no alerts"
    );
    // The tap changed nothing downstream.
    assert_eq!(baseline.sink.epochs(), plain.sink.epochs());
    for (ours, theirs) in baseline.sink.frames().iter().zip(plain.sink.frames()) {
        assert_eq!(
            frame_to_colfile(ours).unwrap(),
            frame_to_colfile(theirs).unwrap(),
            "alerting sink perturbed a Silver epoch frame"
        );
    }
    assert_eq!(
        frame_to_colfile(&common::gold_reduction(&baseline.sink)).unwrap(),
        plain_gold,
        "alerting sink perturbed gold"
    );

    let seeds = common::chaos_seeds();
    for &seed in &seeds {
        for workers in [1usize, 8] {
            let plan = Arc::new(FaultPlan::chaos(seed));
            let (report, alerts) = run_alerting(Some(plan), workers);
            assert_eq!(
                report.sink.epochs(),
                baseline.sink.epochs(),
                "seed {seed} workers {workers}"
            );
            assert_eq!(
                frame_to_colfile(&common::gold_reduction(&report.sink)).unwrap(),
                plain_gold,
                "seed {seed} workers {workers}: gold diverged"
            );
            assert_eq!(
                alerts, baseline_alerts,
                "seed {seed} workers {workers}: alert stream diverged under chaos"
            );
        }
    }
}

#[test]
fn chaos_schedule_is_reproducible_across_runs() {
    // The same seed must produce the same fault log, fault for fault.
    let logs: Vec<_> = (0..2)
        .map(|_| {
            let plan = Arc::new(FaultPlan::chaos(99));
            run_pipeline(Some(plan.clone()));
            plan.injected()
        })
        .collect();
    assert_eq!(
        logs[0], logs[1],
        "fault schedule must be seed-deterministic"
    );
    assert!(!logs[0].is_empty());
}

#[test]
fn tier_migrations_retry_until_clean_under_chaos() {
    // TierManager under the chaos plan: failed OCEAN→GLACIER migrations
    // leave artifacts in place and eventually all freeze, with byte
    // accounting identical to a fault-free pass.
    const DAY: i64 = 86_400_000;
    let build = |faults: Option<Arc<FaultPlan>>| {
        let mut m = TierManager::new();
        for i in 0..10 {
            m.register(
                &format!("ds-{i}"),
                DataClass::Bronze,
                Tier::Ocean,
                1_000 + i,
                0,
            );
        }
        if let Some(f) = faults {
            m.arm_faults(f as Arc<dyn FaultPoint>);
        }
        m
    };
    let mut clean = build(None);
    clean.advance(31 * DAY);
    let clean_bytes = clean.bytes_by_tier()[&Tier::Glacier];

    let mut chaotic = build(Some(Arc::new(FaultPlan::chaos(17))));
    let mut passes = 0;
    loop {
        let actions = chaotic.advance(31 * DAY + passes);
        passes += 1;
        assert!(passes < 100, "migrations failed to converge");
        let failed = actions
            .iter()
            .any(|a| matches!(a, LifecycleAction::MigrateFailed { .. }));
        if !failed && chaotic.bytes_by_tier()[&Tier::Ocean] == 0 {
            break;
        }
    }
    assert_eq!(chaotic.bytes_by_tier()[&Tier::Glacier], clean_bytes);
    assert!(
        passes > 1,
        "chaos plan (25% fail rate) should force retries"
    );
}

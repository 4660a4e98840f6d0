//! Seed-driven fault plans.

use crate::metrics::FaultMetrics;
use crate::{splitmix64, unit_f64, FaultKind, FaultPoint, FaultSite};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Mutex, RwLock};

/// Static description of what a plan may inject: per-site probabilities
/// plus the explicit crash schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability a produce call times out.
    pub produce_timeout: f64,
    /// Probability a fetch call fails.
    pub fetch_error: f64,
    /// Epochs after whose sink write the process crashes (each fires at
    /// most once — a replayed epoch is not re-crashed, or recovery would
    /// never converge).
    pub crash_after_sink: Vec<u64>,
    /// Probability a checkpoint commit is lost (surfaces as a failed
    /// commit).
    pub checkpoint_lost: f64,
    /// Probability an OCEAN→GLACIER migration fails.
    pub tier_migrate_fail: f64,
    /// Per-observation sensor dropout probability.
    pub sensor_dropout: f64,
    /// Per-liveness-check probability a broker node crashes. One-shot
    /// per node: once a node has crashed under a plan it never crashes
    /// again, so cluster recovery always converges.
    pub node_crash: f64,
    /// Per-append probability a follower replica misses the record and
    /// drops out of the in-sync replica set.
    pub replica_lag: f64,
}

impl FaultSpec {
    /// Validate probabilities are in `[0, 1]`.
    fn validate(&self) {
        for (name, p) in [
            ("produce_timeout", self.produce_timeout),
            ("fetch_error", self.fetch_error),
            ("checkpoint_lost", self.checkpoint_lost),
            ("tier_migrate_fail", self.tier_migrate_fail),
            ("sensor_dropout", self.sensor_dropout),
            ("node_crash", self.node_crash),
            ("replica_lag", self.replica_lag),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} probability {p} outside [0, 1]"
            );
        }
    }
}

/// One fault that actually fired, for recovery timelines.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedFault {
    /// Where it fired.
    pub site: FaultSite,
    /// Which invocation of that site (0-based).
    pub invocation: u64,
    /// Site-specific context (epoch, observation index, ...).
    pub ctx: u64,
    /// What fired.
    pub kind: FaultKind,
}

/// Deterministic, seed-driven [`FaultPoint`].
///
/// Each `(site, ctx)` pair keeps its own invocation counter; the
/// decision for invocation `n` of context `c` at site `s` is a pure
/// function of `(seed, s, c, n)` — independent of every other site
/// *and* every other context. Adding an instrumented call site never
/// reshuffles the schedule elsewhere, and — the property the parallel
/// partitioned executor depends on — concurrent workers hammering the
/// same site at *different* contexts (partition ids, epochs,
/// observation indices) can interleave in any order without perturbing
/// each other's schedules. A plan is safe to share across threads via
/// `Arc<dyn FaultPoint>`.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
    inner: Mutex<PlanState>,
    metrics: RwLock<Option<FaultMetrics>>,
}

#[derive(Debug, Default)]
struct PlanState {
    invocations: HashMap<(FaultSite, u64), u64>,
    /// Crash epochs that already fired (one-shot semantics).
    crashed_epochs: BTreeSet<u64>,
    /// Nodes that already crashed (one-shot semantics).
    crashed_nodes: BTreeSet<u64>,
    log: Vec<InjectedFault>,
}

impl FaultPlan {
    /// Build a plan from a seed and an explicit spec.
    pub fn new(seed: u64, spec: FaultSpec) -> FaultPlan {
        spec.validate();
        FaultPlan {
            seed,
            spec,
            inner: Mutex::new(PlanState::default()),
            metrics: RwLock::new(None),
        }
    }

    /// Count fired faults in `registry` as
    /// `faults_injected_total{site=...}` and, when the registry carries
    /// a tracer, record each as a `fault_injected` trace event with its
    /// site and kind, so a trace shows *why* an epoch retried or
    /// crashed. Purely observational: the fault schedule is decided
    /// before the counter bumps or the event is recorded, so observers
    /// can never perturb it.
    pub fn attach_metrics(&self, registry: &oda_obs::Registry) {
        *self.metrics.write().expect("plan metrics lock") = Some(FaultMetrics::new(registry));
    }

    /// A plan that only crashes after the sink writes of the given
    /// epochs (the legacy `inject_crash_after_sink` behavior).
    pub fn crash_after_sink(epochs: impl IntoIterator<Item = u64>) -> FaultPlan {
        FaultPlan::new(
            0,
            FaultSpec {
                crash_after_sink: epochs.into_iter().collect(),
                ..FaultSpec::default()
            },
        )
    }

    /// The chaos-suite preset: moderate transient rates, two derived
    /// crash epochs, occasional checkpoint loss — all derived from
    /// `seed` alone so a seed fully names a fault schedule.
    pub fn chaos(seed: u64) -> FaultPlan {
        let a = splitmix64(seed ^ 0xc4a05) % 6; // crash epoch in 0..6
        let b = a + 1 + splitmix64(seed ^ 0xc4a06) % 6; // later crash epoch
        FaultPlan::new(
            seed,
            FaultSpec {
                produce_timeout: 0.10,
                fetch_error: 0.10,
                crash_after_sink: vec![a, b],
                checkpoint_lost: 0.05,
                tier_migrate_fail: 0.25,
                sensor_dropout: 0.0,
                // Dropout stays 0 here: the chaos suite asserts
                // byte-identical output vs the fault-free run, and
                // dropout (by design) changes the data.
                node_crash: 0.0,
                replica_lag: 0.0,
            },
        )
    }

    /// The cluster chaos preset: everything [`FaultPlan::chaos`] injects
    /// plus node crashes and replica lag, for multi-node failover runs.
    /// Node crashes are one-shot per node, so even an aggressive rate
    /// yields at most N crashes across a run.
    pub fn cluster_chaos(seed: u64) -> FaultPlan {
        let mut spec = FaultPlan::chaos(seed).spec.clone();
        spec.node_crash = 0.02;
        spec.replica_lag = 0.10;
        FaultPlan::new(seed, spec)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's spec.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Every fault that has fired so far, in firing order.
    pub fn injected(&self) -> Vec<InjectedFault> {
        self.inner.lock().expect("plan lock").log.clone()
    }

    /// Count of fired faults per site.
    pub fn injected_by_site(&self) -> HashMap<FaultSite, u64> {
        let mut out = HashMap::new();
        for f in self.injected() {
            *out.entry(f.site).or_insert(0) += 1;
        }
        out
    }

    /// Deterministic draw in `[0, 1)` for invocation `n` of context
    /// `ctx` at `site`.
    fn draw(&self, site: FaultSite, ctx: u64, n: u64) -> f64 {
        let site_tag = site as u64;
        unit_f64(splitmix64(
            self.seed
                ^ splitmix64(site_tag.wrapping_add(0x517e))
                ^ splitmix64(ctx.wrapping_add(0xc017e)).rotate_left(17)
                ^ splitmix64(n),
        ))
    }
}

impl FaultPoint for FaultPlan {
    fn check(&self, site: FaultSite, ctx: u64) -> Option<FaultKind> {
        let mut state = self.inner.lock().expect("plan lock");
        let n = *state
            .invocations
            .entry((site, ctx))
            .and_modify(|c| *c += 1)
            .or_insert(0);
        let kind = match site {
            FaultSite::Produce => (self.draw(site, ctx, n) < self.spec.produce_timeout)
                .then_some(FaultKind::ProduceTimeout),
            FaultSite::Fetch => {
                (self.draw(site, ctx, n) < self.spec.fetch_error).then_some(FaultKind::FetchError)
            }
            FaultSite::SinkWrite => {
                // ctx is the epoch; explicit schedule, one shot each.
                (self.spec.crash_after_sink.contains(&ctx) && state.crashed_epochs.insert(ctx))
                    .then_some(FaultKind::CrashAfterSink { epoch: ctx })
            }
            FaultSite::CheckpointCommit => (self.draw(site, ctx, n) < self.spec.checkpoint_lost)
                .then_some(FaultKind::CheckpointLost),
            FaultSite::TierMigrate => (self.draw(site, ctx, n) < self.spec.tier_migrate_fail)
                .then_some(FaultKind::TierMigrateFail),
            FaultSite::SensorRead => (self.draw(site, ctx, n) < self.spec.sensor_dropout)
                .then_some(FaultKind::SensorDropout {
                    rate: self.spec.sensor_dropout,
                }),
            FaultSite::NodeCrash => {
                // ctx is the node id; one shot per node, like crash
                // epochs — a node that already went down stays a
                // survivor of its own crash, so recovery converges.
                (self.draw(site, ctx, n) < self.spec.node_crash && state.crashed_nodes.insert(ctx))
                    .then_some(FaultKind::NodeCrash { node: ctx })
            }
            FaultSite::ReplicaLag => (self.draw(site, ctx, n) < self.spec.replica_lag)
                .then_some(FaultKind::ReplicaLag { node: ctx }),
        };
        if let Some(kind) = &kind {
            state.log.push(InjectedFault {
                site,
                invocation: n,
                ctx,
                kind: kind.clone(),
            });
            drop(state);
            if let Some(m) = self.metrics.read().expect("plan metrics lock").as_ref() {
                m.record(site);
                if let Some(tr) = &m.tracer {
                    // Content is replay-stable: (site, ctx) streams are
                    // schedule-isolated, so each span's event sequence is
                    // a pure function of the seed even under worker
                    // threads.
                    tr.service_event(
                        "faults",
                        site.label(),
                        ctx,
                        ctx,
                        oda_obs::TraceEventKind::FaultInjected {
                            site: site.label().to_string(),
                            kind: kind.to_string(),
                        },
                    );
                }
            }
        }
        kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire_sequence(plan: &FaultPlan, site: FaultSite, n: u64) -> Vec<bool> {
        (0..n).map(|i| plan.check(site, i).is_some()).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let spec = FaultSpec {
            fetch_error: 0.3,
            ..FaultSpec::default()
        };
        let a = FaultPlan::new(7, spec.clone());
        let b = FaultPlan::new(7, spec.clone());
        assert_eq!(
            fire_sequence(&a, FaultSite::Fetch, 200),
            fire_sequence(&b, FaultSite::Fetch, 200)
        );
        let c = FaultPlan::new(8, spec);
        assert_ne!(
            fire_sequence(&a, FaultSite::Fetch, 200),
            fire_sequence(&c, FaultSite::Fetch, 200),
            "different seeds should differ somewhere in 200 draws"
        );
    }

    #[test]
    fn sites_are_independent_streams() {
        let spec = FaultSpec {
            produce_timeout: 0.5,
            fetch_error: 0.5,
            ..FaultSpec::default()
        };
        // Interleaving calls at another site must not change a site's
        // own sequence.
        let a = FaultPlan::new(9, spec.clone());
        let solo = fire_sequence(&a, FaultSite::Produce, 100);
        let b = FaultPlan::new(9, spec);
        let mut interleaved = Vec::new();
        for i in 0..100 {
            b.check(FaultSite::Fetch, i);
            interleaved.push(b.check(FaultSite::Produce, i).is_some());
        }
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn contexts_are_independent_streams() {
        // A context's schedule is a pure function of (seed, site, ctx,
        // invocation) — calls at other contexts, in any interleaving,
        // must not perturb it. This is what lets parallel partition
        // workers share one plan.
        let spec = FaultSpec {
            fetch_error: 0.5,
            ..FaultSpec::default()
        };
        let solo = FaultPlan::new(21, spec.clone());
        let want: Vec<bool> = (0..100)
            .map(|_| solo.check(FaultSite::Fetch, 3).is_some())
            .collect();
        let noisy = FaultPlan::new(21, spec);
        let mut got = Vec::new();
        for i in 0..100u64 {
            noisy.check(FaultSite::Fetch, i % 3); // ctx 0/1/2 churn
            got.push(noisy.check(FaultSite::Fetch, 3).is_some());
        }
        assert_eq!(want, got);
    }

    #[test]
    fn concurrent_contexts_are_schedule_deterministic() {
        // Threads hammering the same site at distinct contexts may
        // interleave arbitrarily; each context must still see exactly
        // the schedule a serial run would give it.
        use std::sync::Arc;
        let spec = FaultSpec {
            fetch_error: 0.4,
            ..FaultSpec::default()
        };
        let serial = FaultPlan::new(33, spec.clone());
        let want: Vec<Vec<bool>> = (0..4u64)
            .map(|ctx| {
                (0..64)
                    .map(|_| serial.check(FaultSite::Fetch, ctx).is_some())
                    .collect()
            })
            .collect();
        for round in 0..8 {
            let plan = Arc::new(FaultPlan::new(33, spec.clone()));
            let got: Vec<Vec<bool>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4u64)
                    .map(|ctx| {
                        let plan = Arc::clone(&plan);
                        s.spawn(move || {
                            (0..64)
                                .map(|_| plan.check(FaultSite::Fetch, ctx).is_some())
                                .collect::<Vec<bool>>()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(want, got, "round {round}: schedule diverged under threads");
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan::new(
            11,
            FaultSpec {
                fetch_error: 0.2,
                ..FaultSpec::default()
            },
        );
        let fired = fire_sequence(&plan, FaultSite::Fetch, 5_000)
            .iter()
            .filter(|&&f| f)
            .count();
        let rate = fired as f64 / 5_000.0;
        assert!((rate - 0.2).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn crash_epochs_fire_exactly_once() {
        let plan = FaultPlan::crash_after_sink([3]);
        assert!(plan.check(FaultSite::SinkWrite, 2).is_none());
        assert_eq!(
            plan.check(FaultSite::SinkWrite, 3),
            Some(FaultKind::CrashAfterSink { epoch: 3 })
        );
        // The replay of epoch 3 must not crash again.
        assert!(plan.check(FaultSite::SinkWrite, 3).is_none());
        assert_eq!(plan.injected().len(), 1);
    }

    #[test]
    fn zero_spec_never_fires_and_full_rate_always_fires() {
        let silent = FaultPlan::new(1, FaultSpec::default());
        for site in FaultSite::ALL {
            for i in 0..50 {
                assert!(silent.check(site, i).is_none());
            }
        }
        let loud = FaultPlan::new(
            1,
            FaultSpec {
                sensor_dropout: 1.0,
                ..FaultSpec::default()
            },
        );
        for i in 0..50 {
            assert!(loud.check(FaultSite::SensorRead, i).is_some());
        }
    }

    #[test]
    fn log_records_context() {
        let plan = FaultPlan::new(
            2,
            FaultSpec {
                checkpoint_lost: 1.0,
                ..FaultSpec::default()
            },
        );
        plan.check(FaultSite::CheckpointCommit, 14);
        let log = plan.injected();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].site, FaultSite::CheckpointCommit);
        assert_eq!(log[0].ctx, 14);
        assert_eq!(log[0].kind, FaultKind::CheckpointLost);
        assert_eq!(plan.injected_by_site()[&FaultSite::CheckpointCommit], 1);
    }

    #[test]
    fn chaos_preset_is_seed_deterministic() {
        let a = FaultPlan::chaos(42);
        let b = FaultPlan::chaos(42);
        assert_eq!(a.spec(), b.spec());
        assert_eq!(a.spec().crash_after_sink.len(), 2);
        assert!(a.spec().crash_after_sink[0] < a.spec().crash_after_sink[1]);
        assert_eq!(a.spec().sensor_dropout, 0.0);
    }

    #[test]
    fn attached_metrics_match_injection_log() {
        let reg = oda_obs::Registry::new();
        let plan = FaultPlan::new(
            5,
            FaultSpec {
                fetch_error: 0.5,
                produce_timeout: 0.3,
                ..FaultSpec::default()
            },
        );
        plan.attach_metrics(&reg);
        for i in 0..200 {
            plan.check(FaultSite::Fetch, i % 4);
            plan.check(FaultSite::Produce, 0);
            let _ = i;
        }
        if oda_obs::enabled() {
            let by_site = plan.injected_by_site();
            for site in [FaultSite::Fetch, FaultSite::Produce] {
                assert_eq!(
                    reg.counter_value("faults_injected_total", &[("site", site.label())]),
                    by_site.get(&site).copied().unwrap_or(0),
                    "site {}",
                    site.label()
                );
            }
            assert!(by_site[&FaultSite::Fetch] > 0, "expected some fetch trips");
        }
    }

    #[test]
    fn node_crash_fires_at_most_once_per_node() {
        let plan = FaultPlan::new(
            3,
            FaultSpec {
                node_crash: 1.0,
                ..FaultSpec::default()
            },
        );
        assert_eq!(
            plan.check(FaultSite::NodeCrash, 2),
            Some(FaultKind::NodeCrash { node: 2 })
        );
        // Node 2 is down; its liveness checks never crash it again.
        for _ in 0..20 {
            assert!(plan.check(FaultSite::NodeCrash, 2).is_none());
        }
        // Other nodes keep their own one-shot budget.
        assert_eq!(
            plan.check(FaultSite::NodeCrash, 0),
            Some(FaultKind::NodeCrash { node: 0 })
        );
        assert_eq!(plan.injected().len(), 2);
    }

    #[test]
    fn replica_lag_is_per_follower_deterministic() {
        let spec = FaultSpec {
            replica_lag: 0.4,
            ..FaultSpec::default()
        };
        let a = FaultPlan::new(17, spec.clone());
        let b = FaultPlan::new(17, spec);
        for node in 0..3u64 {
            let sa: Vec<bool> = (0..100)
                .map(|_| a.check(FaultSite::ReplicaLag, node).is_some())
                .collect();
            let sb: Vec<bool> = (0..100)
                .map(|_| b.check(FaultSite::ReplicaLag, node).is_some())
                .collect();
            assert_eq!(sa, sb, "node {node} lag schedule diverged");
            assert!(sa.iter().any(|&f| f), "node {node} never lagged at 0.4");
            assert!(!sa.iter().all(|&f| f), "node {node} always lagged at 0.4");
        }
    }

    #[test]
    fn cluster_chaos_extends_chaos_preset() {
        let base = FaultPlan::chaos(11);
        let cluster = FaultPlan::cluster_chaos(11);
        assert_eq!(
            base.spec().crash_after_sink,
            cluster.spec().crash_after_sink
        );
        assert_eq!(base.spec().produce_timeout, cluster.spec().produce_timeout);
        assert_eq!(base.spec().node_crash, 0.0);
        assert!(cluster.spec().node_crash > 0.0);
        assert!(cluster.spec().replica_lag > 0.0);
        assert_eq!(cluster.spec().sensor_dropout, 0.0);
        let again = FaultPlan::cluster_chaos(11);
        assert_eq!(cluster.spec(), again.spec());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_probability_rejected() {
        FaultPlan::new(
            0,
            FaultSpec {
                fetch_error: 1.5,
                ..FaultSpec::default()
            },
        );
    }
}

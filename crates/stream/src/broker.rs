//! The broker: a sharded, replicated topic registry plus the
//! consumer-group offset store, with deterministic failover.
//!
//! A [`Broker`] models N logical broker nodes sharing one topic
//! namespace. Each topic partition is placed on a replica set chosen by
//! [`Broker::placement`] — a pure function of `(topic, partition,
//! nodes, replication)`, so assignment is pinned and golden-testable.
//! The first replica is the creation-time **leader**; the rest are
//! followers in ring order. [`Broker::new`] is the one-node,
//! replication-factor-1 case of the same protocol: every partition has
//! a leader and no followers.
//!
//! Replication is synchronous with `acks=all` semantics: a produce
//! appends to the leader log and, in the same call, to every follower
//! still in the **in-sync replica set (ISR)**. A follower that misses a
//! record (the [`FaultSite::ReplicaLag`] site fired for its node) is
//! removed from the ISR immediately and catches up on a later produce —
//! copying the records it missed from the leader before rejoining. The
//! high watermark therefore always equals the leader's log end, and
//! every ISR member holds a byte-identical prefix-complete copy.
//!
//! Failover is deterministic and wall-clock-free. When a node crashes
//! (the one-shot [`FaultSite::NodeCrash`] site, or an explicit
//! [`Broker::crash_node`] call), every partition it led elects the
//! **lowest-id remaining ISR member** as the new leader. Because ISR
//! membership guarantees a full copy of the acked log, no committed
//! offset is lost. A leader that is the *sole* ISR member restarts in
//! place with its durable log — no election, no loss. Crashed nodes are
//! dropped from the ISRs they shared and rejoin later via catch-up;
//! crashes are one-shot per node, so failover loops terminate.
//!
//! Partitioning and dense offsets are independent of who leads, so a
//! pipeline run against a replicated broker yields byte-identical output
//! to a single-node run, under any crash/lag schedule.

use crate::error::StreamError;
use crate::metrics::StreamMetrics;
use crate::record::Record;
use crate::retention::RetentionPolicy;
use crate::topic::{ReplicaSet, Topic};
use bytes::Bytes;
use oda_faults::{FaultKind, FaultPoint, FaultSite, Retry};
use oda_obs::{fnv1a, LineageNode, Registry, TraceEventKind};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// Committed offset key: (group, topic, partition).
type GroupKey = (String, String, u32);

/// One leadership handover, recorded in order of occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaderElection {
    /// Topic whose partition changed hands.
    pub topic: String,
    /// Partition that changed hands.
    pub partition: u32,
    /// The crashed node that lost leadership.
    pub from_node: u32,
    /// The lowest-id in-sync follower that won it.
    pub to_node: u32,
}

/// In-process message broker (the STREAM service of Fig. 5): one or more
/// logical nodes replicating every partition.
pub struct Broker {
    nodes: u32,
    replication: u32,
    topics: RwLock<HashMap<String, Arc<Topic>>>,
    offsets: RwLock<HashMap<GroupKey, u64>>,
    elections: Mutex<Vec<LeaderElection>>,
    faults: RwLock<Option<Arc<dyn FaultPoint>>>,
    metrics: RwLock<Option<Arc<StreamMetrics>>>,
}

impl Broker {
    /// Create an empty single-node broker: one node, replication factor 1.
    pub fn new() -> Arc<Broker> {
        Broker::replicated(1, 1)
    }

    /// Create a broker of `nodes` logical nodes replicating each
    /// partition to `replication` of them. Both are clamped to sane
    /// bounds: at least one node, and a replication factor between 1
    /// and the node count.
    pub fn replicated(nodes: u32, replication: u32) -> Arc<Broker> {
        let nodes = nodes.max(1);
        Arc::new(Broker {
            nodes,
            replication: replication.clamp(1, nodes),
            topics: RwLock::new(HashMap::new()),
            offsets: RwLock::new(HashMap::new()),
            elections: Mutex::new(Vec::new()),
            faults: RwLock::new(None),
            metrics: RwLock::new(None),
        })
    }

    /// Deterministic replica placement: the leader is
    /// `fnv1a("{topic}/{partition}") % nodes` and the followers are the
    /// next `replication - 1` node ids in ring order. Pure — the golden
    /// assignment fixture pins its output.
    pub fn placement(topic: &str, partition: u32, nodes: u32, replication: u32) -> Vec<u32> {
        let nodes = nodes.max(1);
        let rf = replication.clamp(1, nodes);
        let leader = (fnv1a(format!("{topic}/{partition}").as_bytes()) % u64::from(nodes)) as u32;
        (0..rf).map(|i| (leader + i) % nodes).collect()
    }

    /// Number of logical broker nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Configured replication factor (post-clamp).
    pub fn replication(&self) -> u32 {
        self.replication
    }

    /// Arm a fault plan: produce/fetch consult the `Produce`/`Fetch`
    /// sites, `NodeCrash` (leader liveness), and `ReplicaLag` (follower
    /// replication).
    pub fn arm_faults(&self, faults: Arc<dyn FaultPoint>) {
        *self.faults.write() = Some(faults);
    }

    /// Remove any armed fault plan.
    pub fn disarm_faults(&self) {
        *self.faults.write() = None;
    }

    /// Count produce/fetch volume, retention drops, consumer and replica
    /// lag, and leader elections in `registry`. When the registry
    /// carries a tracer, also record structured trace events (produce,
    /// replica fetches, retention sweeps, ISR churn, elections) and
    /// replica→offset-range lineage into it. Observational only —
    /// attached observers never change what the broker returns.
    pub fn attach_metrics(&self, registry: &Registry) {
        *self.metrics.write() = Some(Arc::new(StreamMetrics::new(registry)));
    }

    /// The attached observer, if any: consumers and producers record lag,
    /// retries and retry trace events through it.
    pub fn metrics(&self) -> Option<Arc<StreamMetrics>> {
        self.metrics.read().clone()
    }

    /// Create a topic, replicating each partition per
    /// [`Broker::placement`]. Errors if it already exists.
    pub fn create_topic(
        &self,
        name: &str,
        partitions: u32,
        policy: RetentionPolicy,
    ) -> Result<(), StreamError> {
        let mut topics = self.topics.write();
        if topics.contains_key(name) {
            return Err(StreamError::TopicExists(name.to_string()));
        }
        if partitions == 0 {
            return Err(StreamError::UnknownPartition {
                topic: name.to_string(),
                partition: 0,
            });
        }
        let topic = Topic::placed(name, partitions, policy, self.nodes, self.replication);
        topics.insert(name.to_string(), Arc::new(topic));
        Ok(())
    }

    /// Look up a topic.
    pub fn topic(&self, name: &str) -> Result<Arc<Topic>, StreamError> {
        self.topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StreamError::UnknownTopic(name.to_string()))
    }

    /// Names of all topics.
    pub fn topic_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.topics.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Every topic, in name order.
    fn sorted_topics(&self) -> Vec<Arc<Topic>> {
        let mut topics: Vec<Arc<Topic>> = self.topics.read().values().cloned().collect();
        topics.sort_by(|a, b| a.name().cmp(b.name()));
        topics
    }

    /// Give the armed fault plan a chance to crash the partition's
    /// current leader before we touch its log. Must run *without* the
    /// partition lock held: [`Broker::crash_node`] walks every
    /// partition, so checking under the lock would deadlock.
    ///
    /// Terminates because crashes are one-shot per node: each firing
    /// either hands leadership to a different node or (sole-ISR restart)
    /// leaves a leader whose crash site is now spent.
    fn check_leader_crash(
        &self,
        faults: &dyn FaultPoint,
        t: &Topic,
        partition: u32,
    ) -> Result<(), StreamError> {
        loop {
            let leader = t.part(partition)?.lock().leader().node;
            match faults.check(FaultSite::NodeCrash, u64::from(leader)) {
                Some(FaultKind::NodeCrash { .. }) => {
                    self.crash_node(leader)?;
                }
                _ => return Ok(()),
            }
        }
    }

    /// Produce one record. The `Produce` site is consulted at ctx 0
    /// before partition selection, then `acks=all` replication: the
    /// record lands on every in-sync follower and the leader before the
    /// call returns.
    pub fn produce(
        &self,
        topic: &str,
        ts_ms: i64,
        key: Option<Bytes>,
        value: Bytes,
    ) -> Result<(u32, u64), StreamError> {
        let t = self.topic(topic)?;
        let faults = self.faults.read().clone();
        if let Some(f) = &faults {
            if let Some(FaultKind::ProduceTimeout) = f.check(FaultSite::Produce, 0) {
                return Err(StreamError::ProduceTimeout {
                    topic: topic.to_string(),
                });
            }
        }
        let size = 16 + key.as_ref().map_or(0, |k| k.len()) + value.len();
        let partition = t.partition_for(key.as_deref());
        if let Some(f) = &faults {
            self.check_leader_crash(f.as_ref(), &t, partition)?;
        }
        let mut st = t.part(partition)?.lock();
        let leader = st.leader;
        let offset = st.leader().log.latest_offset();
        for i in 0..st.replicas.len() {
            if i == leader {
                continue;
            }
            let node = st.replicas[i].node;
            let in_sync = st.replicas[i].in_sync;
            // One ReplicaLag draw per follower per produce, whether it is
            // replicating or catching up — keeps the schedule stable.
            let lagged = faults.as_ref().is_some_and(|f| {
                matches!(
                    f.check(FaultSite::ReplicaLag, u64::from(node)),
                    Some(FaultKind::ReplicaLag { .. })
                )
            });
            if lagged {
                if in_sync {
                    // Missed the record: out of the ISR immediately.
                    st.replicas[i].in_sync = false;
                    self.note_isr_change(topic, partition, node, false);
                }
            } else {
                if !in_sync {
                    st.catch_up(i);
                }
                let r = &mut st.replicas[i];
                r.log.append(ts_ms, key.clone(), value.clone());
                if !in_sync {
                    r.in_sync = true;
                    self.note_isr_change(topic, partition, node, true);
                }
            }
            let lag = offset + 1 - st.replicas[i].log.latest_offset();
            self.set_replica_lag(topic, partition, node, lag);
        }
        st.replicas[leader].log.append(ts_ms, key, value);
        drop(st);
        if let Some(m) = self.metrics.read().as_ref() {
            m.produce_records.inc();
            m.produce_bytes.add(size as u64);
            m.retained_bytes.add(size as i64);
            if let Some(tr) = m.tracer() {
                tr.service_event(
                    topic,
                    "produce",
                    u64::from(partition),
                    u64::from(partition),
                    TraceEventKind::Produce {
                        topic: topic.to_string(),
                        partition: u64::from(partition),
                        offset,
                        bytes: size as u64,
                    },
                );
            }
        }
        Ok((partition, offset))
    }

    /// Fetch from the partition's current leader. Leader liveness is
    /// checked first (a `NodeCrash` firing fails over before the read),
    /// then the `Fetch` site at ctx = partition. Leader reads are ISR
    /// reads by construction.
    pub fn fetch(
        &self,
        topic: &str,
        partition: u32,
        from: u64,
        max: usize,
    ) -> Result<Vec<Record>, StreamError> {
        let t = self.topic(topic)?;
        let faults = self.faults.read().clone();
        if let Some(f) = faults {
            self.check_leader_crash(f.as_ref(), &t, partition)?;
            if let Some(FaultKind::FetchError) = f.check(FaultSite::Fetch, u64::from(partition)) {
                return Err(StreamError::FetchFailed {
                    topic: topic.to_string(),
                    partition,
                });
            }
        }
        let st = t.part(partition)?.lock();
        let leader = st.leader();
        let node = leader.node;
        let recs = leader.log.fetch(from, max)?;
        drop(st);
        self.observe_fetch(topic, partition, node, from, &recs, true);
        Ok(recs)
    }

    /// Fetch from an explicit node's replica — a diagnostic read that
    /// bypasses leadership. Serving from a non-ISR replica is recorded
    /// as a `serve-stale` lineage edge, which
    /// [`oda_obs::LineageQuery::served_only_by_isr`] flags.
    pub fn fetch_from(
        &self,
        node: u32,
        topic: &str,
        partition: u32,
        from: u64,
        max: usize,
    ) -> Result<Vec<Record>, StreamError> {
        let (recs, isr) = self.with_part(topic, partition, |st| {
            let r = st.replica(node)?;
            Ok((r.log.fetch(from, max)?, r.in_sync))
        })?;
        self.observe_fetch(topic, partition, node, from, &recs, isr);
        Ok(recs)
    }

    /// Crash `node`: it loses every ISR membership it shares with other
    /// in-sync replicas, and each partition it led elects the lowest-id
    /// remaining ISR member. A leader that is the *sole* ISR member
    /// restarts in place with its durable log (no election, no loss).
    /// Returns the elections fired, in (topic, partition) order.
    pub fn crash_node(&self, node: u32) -> Result<Vec<LeaderElection>, StreamError> {
        if node >= self.nodes {
            return Err(StreamError::UnknownNode { node });
        }
        let mut fired = Vec::new();
        for t in self.sorted_topics() {
            for (p, part) in t.parts().iter().enumerate() {
                let p = p as u32;
                let mut st = part.lock();
                let Some(i) = st.replicas.iter().position(|r| r.node == node) else {
                    continue;
                };
                if i == st.leader {
                    let successor = (0..st.replicas.len())
                        .filter(|&j| j != i && st.replicas[j].in_sync)
                        .min_by_key(|&j| st.replicas[j].node);
                    let Some(j) = successor else {
                        // Sole in-sync copy: restart in place.
                        continue;
                    };
                    st.replicas[i].in_sync = false;
                    st.leader = j;
                    let to_node = st.replicas[j].node;
                    drop(st);
                    self.note_isr_change(t.name(), p, node, false);
                    let e = LeaderElection {
                        topic: t.name().to_string(),
                        partition: p,
                        from_node: node,
                        to_node,
                    };
                    self.note_election(&e);
                    fired.push(e);
                } else if st.replicas[i].in_sync {
                    st.replicas[i].in_sync = false;
                    drop(st);
                    self.note_isr_change(t.name(), p, node, false);
                }
            }
        }
        self.elections.lock().extend(fired.iter().cloned());
        Ok(fired)
    }

    /// Catch every follower up to its leader and restore full ISRs —
    /// the quiescent replication protocol run to convergence. Property
    /// tests call this before asserting replica logs are identical.
    pub fn heal(&self) {
        for t in self.sorted_topics() {
            for (p, part) in t.parts().iter().enumerate() {
                let p = p as u32;
                let mut st = part.lock();
                let mut joined = Vec::new();
                for i in 0..st.replicas.len() {
                    if i == st.leader {
                        continue;
                    }
                    st.catch_up(i);
                    let r = &mut st.replicas[i];
                    if !r.in_sync {
                        r.in_sync = true;
                        joined.push(r.node);
                    }
                }
                drop(st);
                for n in joined {
                    self.note_isr_change(t.name(), p, n, true);
                    self.set_replica_lag(t.name(), p, n, 0);
                }
            }
        }
    }

    /// Run `f` on one partition's replica set under its lock.
    fn with_part<R>(
        &self,
        topic: &str,
        partition: u32,
        f: impl FnOnce(&ReplicaSet) -> Result<R, StreamError>,
    ) -> Result<R, StreamError> {
        let t = self.topic(topic)?;
        let st = t.part(partition)?.lock();
        f(&st)
    }

    /// Current leader of `topic`/`partition`.
    pub fn leader(&self, topic: &str, partition: u32) -> Result<u32, StreamError> {
        self.with_part(topic, partition, |st| Ok(st.leader().node))
    }

    /// In-sync replica set of `topic`/`partition`, ascending.
    pub fn isr(&self, topic: &str, partition: u32) -> Result<Vec<u32>, StreamError> {
        self.with_part(topic, partition, |st| {
            let mut isr: Vec<u32> = st
                .replicas
                .iter()
                .filter(|r| r.in_sync)
                .map(|r| r.node)
                .collect();
            isr.sort_unstable();
            Ok(isr)
        })
    }

    /// Full replica set of `topic`/`partition` in preferred (ring) order.
    pub fn replicas(&self, topic: &str, partition: u32) -> Result<Vec<u32>, StreamError> {
        self.with_part(topic, partition, |st| {
            Ok(st.replicas.iter().map(|r| r.node).collect())
        })
    }

    /// Log end offset of `node`'s replica of `topic`/`partition`.
    pub fn log_end(&self, node: u32, topic: &str, partition: u32) -> Result<u64, StreamError> {
        self.with_part(topic, partition, |st| {
            Ok(st.replica(node)?.log.latest_offset())
        })
    }

    /// Every record in `node`'s replica of `topic`/`partition`, for
    /// convergence checks. Bypasses faults, metrics, and tracing.
    pub fn replica_records(
        &self,
        node: u32,
        topic: &str,
        partition: u32,
    ) -> Result<Vec<Record>, StreamError> {
        self.with_part(topic, partition, |st| {
            let log = &st.replica(node)?.log;
            log.fetch(log.earliest_offset(), usize::MAX)
        })
    }

    /// All leader elections so far, in order of occurrence.
    pub fn elections(&self) -> Vec<LeaderElection> {
        self.elections.lock().clone()
    }

    /// Committed offset for a group (records below it are consumed).
    pub fn committed(&self, group: &str, topic: &str, partition: u32) -> u64 {
        *self
            .offsets
            .read()
            .get(&(group.to_string(), topic.to_string(), partition))
            .unwrap_or(&0)
    }

    /// Commit a group's offset (the next offset to read).
    pub fn commit(&self, group: &str, topic: &str, partition: u32, offset: u64) {
        self.offsets
            .write()
            .insert((group.to_string(), topic.to_string(), partition), offset);
    }

    /// Enforce retention on every replica across all topics; returns the
    /// records dropped, counted once per partition (leader copies).
    pub fn enforce_retention(&self, now_ms: i64) -> u64 {
        let per_topic: Vec<(String, u64)> = self
            .sorted_topics()
            .iter()
            .map(|t| (t.name().to_string(), t.enforce_retention(now_ms)))
            .collect();
        let dropped = per_topic.iter().map(|(_, d)| d).sum();
        if let Some(m) = self.metrics.read().as_ref() {
            m.retention_dropped.add(dropped);
            // Re-baseline from the source of truth: retention drops
            // whole segments, so the produce-side running gauge can't
            // track it incrementally.
            m.retained_bytes.set(self.bytes() as i64);
            if let Some(tr) = m.tracer() {
                for (topic, dropped) in &per_topic {
                    tr.service_event(
                        topic,
                        "retention",
                        0,
                        0,
                        TraceEventKind::RetentionSweep {
                            topic: topic.clone(),
                            dropped: *dropped,
                        },
                    );
                }
            }
        }
        dropped
    }

    /// Total retained bytes across all topics, counting each partition
    /// once (its leader's copy).
    pub fn bytes(&self) -> usize {
        let topics: Vec<Arc<Topic>> = self.topics.read().values().cloned().collect();
        topics.iter().map(|t| t.bytes()).sum()
    }

    fn note_election(&self, e: &LeaderElection) {
        if let Some(m) = self.metrics.read().as_ref() {
            m.leader_elections.inc();
            if let Some(tr) = m.tracer() {
                tr.service_event(
                    &e.topic,
                    "leader_elected",
                    u64::from(e.partition),
                    u64::from(e.partition),
                    TraceEventKind::LeaderElected {
                        topic: e.topic.clone(),
                        partition: u64::from(e.partition),
                        from_node: u64::from(e.from_node),
                        to_node: u64::from(e.to_node),
                    },
                );
            }
        }
    }

    fn note_isr_change(&self, topic: &str, partition: u32, node: u32, joined: bool) {
        let metrics = self.metrics.read();
        let Some(m) = metrics.as_ref() else {
            return;
        };
        if !joined {
            m.isr_shrinks.inc();
        }
        if let Some(tr) = m.tracer() {
            // Distinct span site per (partition, node) pair.
            let site = u64::from(partition) * u64::from(self.nodes) + u64::from(node);
            tr.service_event(
                topic,
                "isr_change",
                site,
                u64::from(partition),
                TraceEventKind::IsrChange {
                    topic: topic.to_string(),
                    partition: u64::from(partition),
                    node: u64::from(node),
                    joined,
                },
            );
        }
    }

    fn set_replica_lag(&self, topic: &str, partition: u32, node: u32, lag: u64) {
        if let Some(m) = self.metrics.read().as_ref() {
            m.replica_lag_gauge(topic, partition, node).set(lag as i64);
        }
    }

    fn observe_fetch(
        &self,
        topic: &str,
        partition: u32,
        node: u32,
        from: u64,
        recs: &[Record],
        isr: bool,
    ) {
        let metrics = self.metrics.read();
        let Some(m) = metrics.as_ref() else {
            return;
        };
        m.fetch_records.add(recs.len() as u64);
        m.fetch_bytes
            .add(recs.iter().map(|r| r.byte_size() as u64).sum());
        // Empty fetches ("caught up") carry no provenance — skip them.
        let (Some(tr), Some(last)) = (m.tracer(), recs.last()) else {
            return;
        };
        let to = last.offset + 1;
        tr.service_event(
            topic,
            "replica_fetch",
            u64::from(partition),
            u64::from(partition),
            TraceEventKind::ReplicaFetch {
                topic: topic.to_string(),
                partition: u64::from(partition),
                node: u64::from(node),
                from,
                to,
                records: recs.len() as u64,
                isr,
            },
        );
        tr.link(
            LineageNode::Replica {
                topic: topic.to_string(),
                partition: u64::from(partition),
                node: u64::from(node),
            },
            LineageNode::OffsetRange {
                topic: topic.to_string(),
                partition: u64::from(partition),
                start: from,
                end: to,
            },
            if isr { "serve-isr" } else { "serve-stale" },
        );
    }
}

/// Producer handle bound to one topic.
pub struct Producer {
    broker: Arc<Broker>,
    topic: String,
}

impl Producer {
    /// Create a producer for `topic` (which must exist).
    pub fn new(broker: Arc<Broker>, topic: &str) -> Result<Producer, StreamError> {
        broker.topic(topic)?;
        Ok(Producer {
            broker,
            topic: topic.to_string(),
        })
    }

    /// Send one record.
    pub fn send(
        &self,
        ts_ms: i64,
        key: Option<Bytes>,
        value: Bytes,
    ) -> Result<(u32, u64), StreamError> {
        self.broker.produce(&self.topic, ts_ms, key, value)
    }

    /// Send one record, retrying transient faults under `policy`.
    ///
    /// Non-retryable errors (unknown topic, etc.) surface immediately;
    /// `ProduceTimeout` is retried up to the policy's attempt budget.
    pub fn send_retrying(
        &self,
        policy: &Retry,
        ts_ms: i64,
        key: Option<Bytes>,
        value: Bytes,
    ) -> Result<(u32, u64), StreamError> {
        let (res, outcome) = policy.run(|_| {
            self.broker
                .produce(&self.topic, ts_ms, key.clone(), value.clone())
        });
        if let Some(m) = self.broker.metrics() {
            m.record_retry(
                &m.produce_retry,
                &self.topic,
                "produce",
                0,
                &outcome,
                res.is_ok(),
            );
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consumer::Consumer;
    use oda_faults::{FaultPlan, FaultSpec};
    use oda_obs::Tracer;
    use std::collections::BTreeSet;
    use std::thread;

    fn broker_with_topic(nodes: u32, rf: u32, partitions: u32) -> Arc<Broker> {
        let b = Broker::replicated(nodes, rf);
        b.create_topic("t", partitions, RetentionPolicy::unbounded())
            .unwrap();
        b
    }

    fn seed(b: &Broker, records: u64) {
        for i in 0..records {
            b.produce(
                "t",
                i as i64,
                Some(Bytes::from(format!("k{}", i % 7))),
                Bytes::from(format!("v{i}")),
            )
            .unwrap();
        }
    }

    fn certain_lag() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(
            1,
            FaultSpec {
                replica_lag: 1.0,
                ..FaultSpec::default()
            },
        ))
    }

    #[test]
    fn create_and_duplicate_topic() {
        let b = Broker::new();
        b.create_topic("a", 2, RetentionPolicy::unbounded())
            .unwrap();
        assert!(matches!(
            b.create_topic("a", 2, RetentionPolicy::unbounded()),
            Err(StreamError::TopicExists(_))
        ));
        assert!(matches!(
            b.topic("missing"),
            Err(StreamError::UnknownTopic(_))
        ));
    }

    #[test]
    fn zero_partition_topic_is_a_typed_error() {
        // Used to panic on `Topic::new`'s assert, or to succeed and then
        // panic with a remainder-by-zero on the first keyed produce.
        let b = Broker::new();
        assert_eq!(
            b.create_topic("a", 0, RetentionPolicy::unbounded()),
            Err(StreamError::UnknownPartition {
                topic: "a".into(),
                partition: 0
            })
        );
        assert!(b.topic_names().is_empty());
        assert!(matches!(
            b.produce("a", 0, Some(Bytes::from_static(b"k")), Bytes::new()),
            Err(StreamError::UnknownTopic(_))
        ));
    }

    #[test]
    fn commit_and_read_back_offsets() {
        let b = Broker::new();
        b.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        assert_eq!(b.committed("g1", "t", 0), 0);
        b.commit("g1", "t", 0, 42);
        assert_eq!(b.committed("g1", "t", 0), 42);
        // Groups are independent.
        assert_eq!(b.committed("g2", "t", 0), 0);
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let b = Broker::new();
        b.create_topic("t", 4, RetentionPolicy::unbounded())
            .unwrap();
        let threads: Vec<_> = (0..8)
            .map(|tid| {
                let b = b.clone();
                thread::spawn(move || {
                    let p = Producer::new(b, "t").unwrap();
                    for i in 0..1_000 {
                        p.send(
                            i,
                            Some(Bytes::from(format!("k{tid}-{i}"))),
                            Bytes::from_static(b"v"),
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let topic = b.topic("t").unwrap();
        assert_eq!(topic.len(), 8_000);
    }

    #[test]
    fn armed_produce_faults_fire_and_disarm_restores() {
        let b = Broker::new();
        b.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        b.arm_faults(Arc::new(FaultPlan::new(
            0,
            FaultSpec {
                produce_timeout: 1.0,
                ..FaultSpec::default()
            },
        )));
        let err = b
            .produce("t", 0, None, Bytes::from_static(b"v"))
            .unwrap_err();
        assert!(matches!(err, StreamError::ProduceTimeout { .. }));
        assert_eq!(b.topic("t").unwrap().len(), 0, "timed-out record not kept");
        b.disarm_faults();
        b.produce("t", 0, None, Bytes::from_static(b"v")).unwrap();
        assert_eq!(b.topic("t").unwrap().len(), 1);
    }

    #[test]
    fn send_retrying_rides_through_transient_timeouts() {
        let b = Broker::new();
        b.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        // Half the produce calls time out; a bounded retry budget still
        // lands every record exactly once.
        b.arm_faults(Arc::new(FaultPlan::new(
            21,
            FaultSpec {
                produce_timeout: 0.5,
                ..FaultSpec::default()
            },
        )));
        let p = Producer::new(b.clone(), "t").unwrap();
        let policy = Retry::with_attempts(12);
        for i in 0..100 {
            p.send_retrying(&policy, i, None, Bytes::from(format!("v{i}")))
                .unwrap();
        }
        assert_eq!(b.topic("t").unwrap().len(), 100);
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let b = Broker::new();
        b.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        // Point the producer at a topic that disappears conceptually:
        // build it against "t", then aim the send at a missing topic via
        // a raw broker call wrapped in the same policy the producer uses.
        let policy = Retry::default();
        let (res, outcome) =
            policy.run(|_| b.produce("missing", 0, None, Bytes::from_static(b"v")));
        assert!(matches!(res, Err(StreamError::UnknownTopic(_))));
        assert_eq!(outcome.attempts, 1, "fatal error must short-circuit");
    }

    #[test]
    fn attached_metrics_count_produce_fetch_and_retention() {
        let b = Broker::new();
        let reg = oda_obs::Registry::new();
        b.attach_metrics(&reg);
        b.create_topic("t", 1, RetentionPolicy::max_bytes(3_000))
            .unwrap();
        for i in 0..10 {
            b.produce(
                "t",
                i,
                Some(Bytes::from_static(b"key!")),
                Bytes::from(vec![0u8; 80]),
            )
            .unwrap();
        }
        let fetched = b.fetch("t", 0, 0, 4).unwrap();
        assert_eq!(fetched.len(), 4);
        if oda_obs::enabled() {
            assert_eq!(reg.counter_value("stream_produce_records_total", &[]), 10);
            assert_eq!(
                reg.counter_value("stream_produce_bytes_total", &[]),
                10 * (16 + 4 + 80)
            );
            assert_eq!(reg.counter_value("stream_fetch_records_total", &[]), 4);
            assert_eq!(
                reg.counter_value("stream_fetch_bytes_total", &[]),
                4 * (16 + 4 + 80)
            );
            assert_eq!(
                reg.gauge_value("stream_retained_bytes", &[]),
                b.bytes() as i64
            );
        }
        // Force retention to bite, then the gauge re-baselines exactly.
        for i in 0..100 {
            b.produce("t", i, None, Bytes::from(vec![0u8; 50_000]))
                .unwrap();
        }
        let dropped = b.enforce_retention(i64::MAX / 2);
        assert!(dropped > 0);
        if oda_obs::enabled() {
            assert_eq!(
                reg.counter_value("stream_retention_dropped_records_total", &[]),
                dropped
            );
            assert_eq!(
                reg.gauge_value("stream_retained_bytes", &[]),
                b.bytes() as i64
            );
        }
    }

    #[test]
    fn retry_metrics_count_produce_attempts() {
        let b = Broker::new();
        let reg = oda_obs::Registry::new();
        b.attach_metrics(&reg);
        b.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        let plan = Arc::new(FaultPlan::new(
            21,
            FaultSpec {
                produce_timeout: 0.5,
                ..FaultSpec::default()
            },
        ));
        b.arm_faults(plan.clone());
        let p = Producer::new(b.clone(), "t").unwrap();
        let policy = Retry::with_attempts(12);
        for i in 0..100 {
            p.send_retrying(&policy, i, None, Bytes::from(format!("v{i}")))
                .unwrap();
        }
        if oda_obs::enabled() {
            // Every injected timeout forced exactly one extra attempt.
            assert_eq!(
                reg.counter_value("retry_attempts_retried_total", &[("op", "produce")]),
                plan.injected().len() as u64
            );
            assert_eq!(
                reg.counter_value("retry_exhausted_total", &[("op", "produce")]),
                0
            );
        }
    }

    #[test]
    fn retention_applies_across_topics() {
        let b = Broker::new();
        b.create_topic("t1", 1, RetentionPolicy::max_age_ms(1_000))
            .unwrap();
        b.create_topic("t2", 1, RetentionPolicy::unbounded())
            .unwrap();
        for i in 0..100 {
            b.produce("t1", i * 100, None, Bytes::from(vec![0u8; 200_000]))
                .unwrap();
            b.produce("t2", i * 100, None, Bytes::from(vec![0u8; 1_000]))
                .unwrap();
        }
        let dropped = b.enforce_retention(1_000_000);
        assert!(dropped > 0);
        assert_eq!(
            b.topic("t2").unwrap().len(),
            100,
            "unbounded topic untouched"
        );
    }

    /// Six 1 MiB records: the 4 MiB default segment seals after four, so
    /// `max_bytes(1)` retention has a sealed segment to drop.
    fn produce_past_a_segment(b: &Broker, from: i64) {
        for i in from..from + 6 {
            b.produce("t", i, None, Bytes::from(vec![0u8; 1 << 20]))
                .unwrap();
        }
    }

    #[test]
    fn retention_trims_every_replica_and_counts_once() {
        let single = Broker::new();
        let b = Broker::replicated(3, 3);
        for broker in [&single, &b] {
            broker
                .create_topic("t", 1, RetentionPolicy::max_bytes(1))
                .unwrap();
            produce_past_a_segment(broker, 0);
        }
        let dropped = b.enforce_retention(0);
        assert!(dropped > 0);
        // Logical accounting: rf 3 drops and retains what one copy does.
        assert_eq!(dropped, single.enforce_retention(0));
        assert_eq!(b.bytes(), single.bytes());
        let leader = b.leader("t", 0).unwrap();
        let reference = b.replica_records(leader, "t", 0).unwrap();
        assert_eq!(reference.len() as u64, b.topic("t").unwrap().len());
        for n in 0..3 {
            assert_eq!(b.replica_records(n, "t", 0).unwrap(), reference);
        }
    }

    #[test]
    fn follower_below_leader_log_start_truncates_then_catches_up() {
        // Followers lag out of the ISR, then retention drops the
        // leader's log past their log end: catch-up must restart them at
        // the leader's log start instead of reading below it.
        let b = Broker::replicated(3, 3);
        b.create_topic("t", 1, RetentionPolicy::max_bytes(1))
            .unwrap();
        b.arm_faults(certain_lag());
        produce_past_a_segment(&b, 0);
        let leader = b.leader("t", 0).unwrap();
        assert_eq!(b.isr("t", 0).unwrap(), vec![leader]);
        assert!(b.enforce_retention(0) > 0);
        b.disarm_faults();
        b.produce("t", 6, None, Bytes::from_static(b"v")).unwrap();
        assert_eq!(b.isr("t", 0).unwrap(), vec![0, 1, 2]);
        let reference = b.replica_records(leader, "t", 0).unwrap();
        for n in 0..3 {
            assert_eq!(b.replica_records(n, "t", 0).unwrap(), reference);
        }
    }

    #[test]
    fn placement_is_pure_and_caps_replication() {
        for nodes in 1..=5u32 {
            for rf in 1..=7u32 {
                for p in 0..4u32 {
                    let set = Broker::placement("t", p, nodes, rf);
                    assert_eq!(set, Broker::placement("t", p, nodes, rf));
                    assert_eq!(set.len() as u32, rf.min(nodes));
                    let distinct: BTreeSet<u32> = set.iter().copied().collect();
                    assert_eq!(distinct.len(), set.len(), "replicas must be distinct");
                    assert!(set.iter().all(|&n| n < nodes));
                }
            }
        }
        // Followers are ring successors of the leader.
        let set = Broker::placement("t", 0, 5, 3);
        assert_eq!(set[1], (set[0] + 1) % 5);
        assert_eq!(set[2], (set[0] + 2) % 5);
    }

    #[test]
    fn create_topic_seeds_leader_and_full_isr_from_placement() {
        let c = broker_with_topic(3, 2, 4);
        for p in 0..4 {
            let want = Broker::placement("t", p, 3, 2);
            assert_eq!(c.replicas("t", p).unwrap(), want);
            assert_eq!(c.leader("t", p).unwrap(), want[0]);
            let mut sorted = want.clone();
            sorted.sort_unstable();
            assert_eq!(c.isr("t", p).unwrap(), sorted);
        }
    }

    #[test]
    fn acks_all_keeps_every_replica_byte_identical() {
        let c = broker_with_topic(5, 3, 2);
        seed(&c, 40);
        for p in 0..2 {
            let hw = c.topic("t").unwrap().latest_offset(p).unwrap();
            let leader = c.leader("t", p).unwrap();
            let reference = c.replica_records(leader, "t", p).unwrap();
            for n in c.replicas("t", p).unwrap() {
                assert_eq!(c.log_end(n, "t", p).unwrap(), hw);
                assert_eq!(c.replica_records(n, "t", p).unwrap(), reference);
            }
        }
    }

    #[test]
    fn crash_elects_lowest_id_remaining_isr_member() {
        let c = broker_with_topic(3, 3, 1);
        seed(&c, 10);
        let old = c.leader("t", 0).unwrap();
        let fired = c.crash_node(old).unwrap();
        let expect = (0..3).filter(|&n| n != old).min().unwrap();
        assert_eq!(c.leader("t", 0).unwrap(), expect);
        assert_eq!(
            fired,
            vec![LeaderElection {
                topic: "t".into(),
                partition: 0,
                from_node: old,
                to_node: expect,
            }]
        );
        assert_eq!(c.elections(), fired);
        assert!(!c.isr("t", 0).unwrap().contains(&old));
    }

    #[test]
    fn sole_isr_leader_restarts_in_place() {
        let c = broker_with_topic(3, 1, 1);
        seed(&c, 10);
        let leader = c.leader("t", 0).unwrap();
        let fired = c.crash_node(leader).unwrap();
        assert!(fired.is_empty(), "rf=1 has no follower to elect");
        assert_eq!(c.leader("t", 0).unwrap(), leader);
        assert_eq!(c.isr("t", 0).unwrap(), vec![leader]);
        assert_eq!(c.topic("t").unwrap().latest_offset(0).unwrap(), 10);
    }

    #[test]
    fn failover_loses_no_committed_offset() {
        let c = broker_with_topic(3, 3, 1);
        seed(&c, 25);
        let before = c.fetch("t", 0, 0, usize::MAX).unwrap();
        c.crash_node(c.leader("t", 0).unwrap()).unwrap();
        let after = c.fetch("t", 0, 0, usize::MAX).unwrap();
        assert_eq!(before, after, "failover must serve the identical log");
        // And the crashed ex-leader catches back up on the next produce.
        seed(&c, 1);
        c.heal();
        assert_eq!(c.isr("t", 0).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn replica_lag_shrinks_isr_and_catchup_rejoins() {
        let c = broker_with_topic(3, 3, 1);
        seed(&c, 5);
        c.arm_faults(certain_lag());
        seed(&c, 3);
        let leader = c.leader("t", 0).unwrap();
        assert_eq!(
            c.isr("t", 0).unwrap(),
            vec![leader],
            "all followers lag out under a certain-lag plan"
        );
        assert_eq!(c.topic("t").unwrap().latest_offset(0).unwrap(), 8);
        c.disarm_faults();
        seed(&c, 1);
        assert_eq!(c.isr("t", 0).unwrap(), vec![0, 1, 2], "followers rejoin");
        for n in 0..3 {
            assert_eq!(c.log_end(n, "t", 0).unwrap(), 9, "catch-up is complete");
        }
    }

    #[test]
    fn node_crash_site_fails_produce_over_transparently() {
        let c = broker_with_topic(3, 3, 1);
        seed(&c, 5);
        c.arm_faults(Arc::new(FaultPlan::new(
            7,
            FaultSpec {
                node_crash: 1.0,
                ..FaultSpec::default()
            },
        )));
        // Certain crashes: each produce's liveness check fells the
        // current leader until every node has spent its one-shot crash
        // and the last leader restarts in place.
        seed(&c, 5);
        assert_eq!(
            c.topic("t").unwrap().latest_offset(0).unwrap(),
            10,
            "no record lost"
        );
        assert_eq!(c.elections().len(), 2, "two handovers across three nodes");
        let survivors = c.fetch("t", 0, 0, usize::MAX).unwrap();
        assert_eq!(survivors.len(), 10);
    }

    #[test]
    fn unknown_node_and_partition_are_fatal_errors() {
        let c = broker_with_topic(3, 2, 1);
        assert!(matches!(
            c.crash_node(99),
            Err(StreamError::UnknownNode { node: 99 })
        ));
        let outside = (0..3)
            .find(|&n| !c.replicas("t", 0).unwrap().contains(&n))
            .unwrap();
        assert!(matches!(
            c.fetch_from(outside, "t", 0, 0, 10),
            Err(StreamError::UnknownNode { .. })
        ));
        assert!(matches!(
            c.fetch("t", 9, 0, 10),
            Err(StreamError::UnknownPartition { partition: 9, .. })
        ));
        assert!(matches!(
            c.fetch("missing", 0, 0, 10),
            Err(StreamError::UnknownTopic(_))
        ));
    }

    #[test]
    fn consumers_poll_a_replicated_broker() {
        let c = broker_with_topic(3, 2, 2);
        seed(&c, 30);
        let mut consumer = Consumer::subscribe(c.clone(), "g", "t").unwrap();
        let mut seen = 0;
        while let Ok(batches) = consumer.poll_partitioned(100) {
            let n: usize = batches.iter().map(|b| b.records.len()).sum();
            if n == 0 {
                break;
            }
            seen += n;
            consumer.commit();
        }
        assert_eq!(seen, 30);
        assert_eq!(consumer.lag().unwrap(), 0);
        // Offsets survive in the broker's group store.
        assert_eq!(c.committed("g", "t", 0) + c.committed("g", "t", 1), 30);
    }

    #[test]
    fn elections_and_replica_lag_are_exported_as_metrics() {
        let c = broker_with_topic(3, 3, 1);
        let reg = Registry::new();
        c.attach_metrics(&reg);
        seed(&c, 4);
        // Crash while the ISR is still full so an election actually fires,
        // then lag the remaining followers out to grow the lag gauge.
        c.crash_node(c.leader("t", 0).unwrap()).unwrap();
        c.arm_faults(certain_lag());
        seed(&c, 2);
        c.disarm_faults();
        if oda_obs::enabled() {
            assert_eq!(reg.counter_value("stream_leader_elections_total", &[]), 1);
            let leader = c.leader("t", 0).unwrap();
            let lagging: Vec<u32> = (0..3).filter(|&n| n != leader).collect();
            let any_lag = lagging.iter().any(|&n| {
                reg.gauge_value(
                    "stream_replica_lag",
                    &[("topic", "t"), ("partition", "0"), ("node", &n.to_string())],
                ) > 0
            });
            assert!(any_lag, "a lagged follower must export non-zero lag");
        }
    }

    fn replica_fetches(tracer: &Tracer) -> Vec<(u64, bool)> {
        tracer
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::ReplicaFetch { node, isr, .. } => Some((node, isr)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fetch_provenance_distinguishes_isr_from_stale_reads() {
        let c = broker_with_topic(3, 3, 1);
        let tracer = Tracer::new();
        c.attach_metrics(&Registry::new().with_tracer(&tracer));
        seed(&c, 4);
        c.arm_faults(certain_lag());
        seed(&c, 2);
        c.disarm_faults();
        let leader = c.leader("t", 0).unwrap();
        let stale = (0..3).find(|&n| n != leader).unwrap();
        c.fetch("t", 0, 0, 10).unwrap();
        c.fetch_from(stale, "t", 0, 0, 10).unwrap();
        if !oda_obs::enabled() {
            return;
        }
        let fetches = replica_fetches(&tracer);
        assert!(fetches.contains(&(u64::from(leader), true)));
        assert!(fetches.contains(&(u64::from(stale), false)));
        // The lineage graph records the stale serve as such.
        let q = tracer.lineage().query();
        assert!(
            q.edges().iter().any(|(_, _, rel)| rel == "serve-stale"),
            "stale read must leave a serve-stale edge"
        );
        // A single-node broker serves through the same path: exactly one
        // in-sync ReplicaFetch per non-empty fetch, none when caught up.
        let single = Broker::new();
        single
            .create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        let tracer = Tracer::new();
        single.attach_metrics(&Registry::new().with_tracer(&tracer));
        seed(&single, 4);
        single.fetch("t", 0, 0, 2).unwrap();
        single.fetch("t", 0, 2, 10).unwrap();
        assert!(single.fetch("t", 0, 4, 10).unwrap().is_empty());
        assert_eq!(replica_fetches(&tracer), vec![(0, true), (0, true)]);
    }

    #[test]
    fn clamps_are_sane() {
        let c = Broker::replicated(0, 0);
        assert_eq!(c.nodes(), 1);
        assert_eq!(c.replication(), 1);
        let c = Broker::replicated(3, 99);
        assert_eq!(c.replication(), 3);
        c.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        assert_eq!(c.replicas("t", 0).unwrap().len(), 3);
        assert!(matches!(
            c.create_topic("t", 1, RetentionPolicy::unbounded()),
            Err(StreamError::TopicExists(_))
        ));
    }
}

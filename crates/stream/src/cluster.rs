//! Multi-node STREAM: a sharded, replicated broker cluster with
//! deterministic failover.
//!
//! A [`Cluster`] models N logical broker nodes sharing one topic
//! namespace. Each topic partition is placed on a replica set chosen by
//! [`Cluster::placement`] — a pure function of `(topic, partition,
//! nodes, replication)`, so assignment is pinned and golden-testable.
//! The first replica is the creation-time **leader**; the rest are
//! followers in ring order.
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
//! [`Cluster::crash_node`] call), every partition it led elects the
//! **lowest-id remaining ISR member** as the new leader. Because ISR
//! membership guarantees a full copy of the acked log, no committed
//! offset is lost. A leader that is the *sole* ISR member restarts in
//! place with its durable log — no election, no loss. Crashed nodes are
//! dropped from the ISRs they shared and rejoin later via catch-up;
//! crashes are one-shot per node, so failover loops terminate.
//!
//! The cluster mirrors [`crate::Broker`]'s fault sites (`Produce` ctx 0
//! before partition selection, `Fetch` ctx = partition), its
//! partitioner, and its dense offsets — so a pipeline run against a
//! cluster yields byte-identical output to a single-node run, under any
//! crash/lag schedule. Consumers attach through [`MessageBus`].

use crate::bus::MessageBus;
use crate::error::StreamError;
use crate::metrics::StreamMetrics;
use crate::partition::Partition;
use crate::record::Record;
use crate::retention::RetentionPolicy;
use crate::topic::partition_for;
use bytes::Bytes;
use oda_faults::{FaultKind, FaultPoint, FaultSite};
use oda_obs::{
    fnv1a, trace_id, trace_span, LineageNode, Registry, TraceEventKind, Tracer, SERVICE_TRACE,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap};
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

/// Per-partition replication state: who holds a copy, who leads, who is
/// in sync, and each replica's log.
struct PartitionState {
    /// Replica set in preferred (ring) order; `replicas[0]` is the
    /// creation-time leader.
    replicas: Vec<u32>,
    /// Current leader. Always a member of `isr`.
    leader: u32,
    /// In-sync replica set: nodes whose log equals the leader's.
    isr: BTreeSet<u32>,
    /// One log per replica node.
    logs: BTreeMap<u32, Partition>,
}

/// A topic spread across the cluster: one replicated state per partition.
struct ClusterTopic {
    name: String,
    parts: Vec<Mutex<PartitionState>>,
    rr: Mutex<u32>,
}

/// A replicated, sharded broker cluster (the multi-node STREAM tier).
pub struct Cluster {
    nodes: u32,
    replication: u32,
    topics: RwLock<HashMap<String, Arc<ClusterTopic>>>,
    offsets: RwLock<HashMap<GroupKey, u64>>,
    elections: Mutex<Vec<LeaderElection>>,
    faults: RwLock<Option<Arc<dyn FaultPoint>>>,
    metrics: RwLock<Option<Arc<StreamMetrics>>>,
    tracer: RwLock<Option<Tracer>>,
}

impl Cluster {
    /// Create a cluster of `nodes` logical brokers replicating each
    /// partition to `replication` of them. Both are clamped to sane
    /// bounds: at least one node, and a replication factor between 1
    /// and the node count.
    pub fn new(nodes: u32, replication: u32) -> Arc<Cluster> {
        let nodes = nodes.max(1);
        Arc::new(Cluster {
            nodes,
            replication: replication.clamp(1, nodes),
            topics: RwLock::new(HashMap::new()),
            offsets: RwLock::new(HashMap::new()),
            elections: Mutex::new(Vec::new()),
            faults: RwLock::new(None),
            metrics: RwLock::new(None),
            tracer: RwLock::new(None),
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

    /// Arm a fault plan: produce/fetch consult `Produce`/`Fetch` like the
    /// single-node broker, plus `NodeCrash` (leader liveness) and
    /// `ReplicaLag` (follower replication) on the cluster paths.
    pub fn arm_faults(&self, faults: Arc<dyn FaultPoint>) {
        *self.faults.write() = Some(faults);
    }

    /// Remove any armed fault plan.
    pub fn disarm_faults(&self) {
        *self.faults.write() = None;
    }

    /// Count produce/fetch volume, replica lag, and leader elections in
    /// `registry`. Observational only.
    pub fn attach_metrics(&self, registry: &Registry) {
        *self.metrics.write() = Some(Arc::new(StreamMetrics::new(registry)));
    }

    /// The attached metrics, if any.
    pub fn metrics(&self) -> Option<Arc<StreamMetrics>> {
        self.metrics.read().clone()
    }

    /// Record replication trace events (replica fetches, ISR churn,
    /// elections) and replica→offset-range lineage into `tracer`.
    pub fn attach_tracer(&self, tracer: &Tracer) {
        *self.tracer.write() = Some(tracer.clone());
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<Tracer> {
        self.tracer.read().clone()
    }

    fn fault(&self, site: FaultSite, ctx: u64) -> Option<FaultKind> {
        self.faults.read().as_ref().and_then(|f| f.check(site, ctx))
    }

    /// Create a topic, replicating each partition per [`Cluster::placement`].
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
        let parts = (0..partitions)
            .map(|p| {
                let replicas = Cluster::placement(name, p, self.nodes, self.replication);
                let logs = replicas
                    .iter()
                    .map(|&n| (n, Partition::new(policy)))
                    .collect();
                Mutex::new(PartitionState {
                    leader: replicas[0],
                    isr: replicas.iter().copied().collect(),
                    logs,
                    replicas,
                })
            })
            .collect();
        topics.insert(
            name.to_string(),
            Arc::new(ClusterTopic {
                name: name.to_string(),
                parts,
                rr: Mutex::new(0),
            }),
        );
        Ok(())
    }

    fn cluster_topic(&self, name: &str) -> Result<Arc<ClusterTopic>, StreamError> {
        self.topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StreamError::UnknownTopic(name.to_string()))
    }

    fn part(t: &ClusterTopic, partition: u32) -> Result<&Mutex<PartitionState>, StreamError> {
        t.parts
            .get(partition as usize)
            .ok_or_else(|| StreamError::UnknownPartition {
                topic: t.name.clone(),
                partition,
            })
    }

    /// Names of all topics.
    pub fn topic_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.topics.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Partitions in `topic`.
    pub fn partition_count(&self, topic: &str) -> Result<u32, StreamError> {
        Ok(self.cluster_topic(topic)?.parts.len() as u32)
    }

    /// Give the armed fault plan a chance to crash the partition's
    /// current leader before we touch its log. Must run *without* the
    /// partition lock held: [`Cluster::crash_node`] walks every
    /// partition, so checking under the lock would deadlock.
    ///
    /// Terminates because crashes are one-shot per node: each firing
    /// either hands leadership to a different node or (sole-ISR restart)
    /// leaves a leader whose crash site is now spent.
    fn check_leader_crash(&self, t: &ClusterTopic, partition: u32) -> Result<(), StreamError> {
        loop {
            let leader = Cluster::part(t, partition)?.lock().leader;
            match self.fault(FaultSite::NodeCrash, u64::from(leader)) {
                Some(FaultKind::NodeCrash { .. }) => {
                    self.crash_node(leader)?;
                }
                _ => return Ok(()),
            }
        }
    }

    /// Produce one record. Fault parity with [`crate::Broker::produce`]
    /// (the `Produce` site is consulted at ctx 0 before partition
    /// selection), then `acks=all` replication: the record lands on the
    /// leader and every in-sync follower before the call returns.
    pub fn produce(
        &self,
        topic: &str,
        ts_ms: i64,
        key: Option<Bytes>,
        value: Bytes,
    ) -> Result<(u32, u64), StreamError> {
        let t = self.cluster_topic(topic)?;
        if let Some(FaultKind::ProduceTimeout) = self.fault(FaultSite::Produce, 0) {
            return Err(StreamError::ProduceTimeout {
                topic: topic.to_string(),
            });
        }
        let size = 16 + key.as_ref().map_or(0, |k| k.len()) + value.len();
        let partition = partition_for(key.as_deref(), t.parts.len() as u32, &t.rr);
        self.check_leader_crash(&t, partition)?;
        let mut st = Cluster::part(&t, partition)?.lock();
        let leader = st.leader;
        let offset = st
            .logs
            .get_mut(&leader)
            .expect("leader holds a log")
            .append(ts_ms, key.clone(), value.clone());
        let followers: Vec<u32> = st
            .replicas
            .iter()
            .copied()
            .filter(|&n| n != leader)
            .collect();
        for n in followers {
            let in_sync = st.isr.contains(&n);
            // One ReplicaLag draw per follower per produce, whether it is
            // replicating or catching up — keeps the schedule stable.
            let lagged = matches!(
                self.fault(FaultSite::ReplicaLag, u64::from(n)),
                Some(FaultKind::ReplicaLag { .. })
            );
            if in_sync {
                if lagged {
                    // Missed the record: out of the ISR immediately.
                    st.isr.remove(&n);
                    self.note_isr_change(&t.name, partition, n, false);
                } else {
                    st.logs.get_mut(&n).expect("follower holds a log").append(
                        ts_ms,
                        key.clone(),
                        value.clone(),
                    );
                }
            } else if !lagged {
                // Catch up: copy everything missed, then rejoin.
                let from = st.logs[&n].latest_offset();
                let missing = st.logs[&leader]
                    .fetch(from, usize::MAX)
                    .expect("leader log is contiguous");
                let log = st.logs.get_mut(&n).expect("follower holds a log");
                for r in missing {
                    log.append(r.ts_ms, r.key, r.value);
                }
                st.isr.insert(n);
                self.note_isr_change(&t.name, partition, n, true);
            }
            let lag = st.logs[&leader].latest_offset() - st.logs[&n].latest_offset();
            self.set_replica_lag(&t.name, partition, n, lag);
        }
        drop(st);
        if let Some(m) = self.metrics.read().as_ref() {
            m.produce_records.inc();
            m.produce_bytes.add(size as u64);
            m.retained_bytes.add(size as i64);
        }
        if let Some(tr) = self.tracer.read().as_ref() {
            let trace = trace_id(topic, SERVICE_TRACE);
            tr.record(
                trace,
                trace_span(trace, "produce", u64::from(partition)),
                None,
                0,
                u64::from(partition),
                0,
                TraceEventKind::Produce {
                    topic: topic.to_string(),
                    partition: u64::from(partition),
                    offset,
                    bytes: size as u64,
                },
            );
        }
        Ok((partition, offset))
    }

    /// Fetch from the partition's current leader. Leader liveness is
    /// checked first (a `NodeCrash` firing fails over before the read),
    /// then the `Fetch` site with broker parity. Leader reads are ISR
    /// reads by construction.
    pub fn fetch(
        &self,
        topic: &str,
        partition: u32,
        from: u64,
        max: usize,
    ) -> Result<Vec<Record>, StreamError> {
        let t = self.cluster_topic(topic)?;
        self.check_leader_crash(&t, partition)?;
        if let Some(FaultKind::FetchError) = self.fault(FaultSite::Fetch, u64::from(partition)) {
            return Err(StreamError::FetchFailed {
                topic: topic.to_string(),
                partition,
            });
        }
        let st = Cluster::part(&t, partition)?.lock();
        let leader = st.leader;
        let recs = st.logs[&leader].fetch(from, max)?;
        drop(st);
        self.observe_fetch(&t.name, partition, leader, from, &recs, true);
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
        let t = self.cluster_topic(topic)?;
        let st = Cluster::part(&t, partition)?.lock();
        let Some(log) = st.logs.get(&node) else {
            return Err(StreamError::UnknownNode { node });
        };
        let isr = st.isr.contains(&node);
        let recs = log.fetch(from, max)?;
        drop(st);
        self.observe_fetch(&t.name, partition, node, from, &recs, isr);
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
        let mut topics: Vec<Arc<ClusterTopic>> = self.topics.read().values().cloned().collect();
        topics.sort_by(|a, b| a.name.cmp(&b.name));
        let mut fired = Vec::new();
        for t in &topics {
            for (p, part) in t.parts.iter().enumerate() {
                let p = p as u32;
                let mut st = part.lock();
                if !st.replicas.contains(&node) {
                    continue;
                }
                if st.leader == node {
                    let successor = st.isr.iter().copied().filter(|&n| n != node).min();
                    let Some(to_node) = successor else {
                        // Sole in-sync copy: restart in place.
                        continue;
                    };
                    st.isr.remove(&node);
                    st.leader = to_node;
                    drop(st);
                    self.note_isr_change(&t.name, p, node, false);
                    let e = LeaderElection {
                        topic: t.name.clone(),
                        partition: p,
                        from_node: node,
                        to_node,
                    };
                    self.note_election(&e);
                    fired.push(e);
                } else if st.isr.remove(&node) {
                    drop(st);
                    self.note_isr_change(&t.name, p, node, false);
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
        let mut topics: Vec<Arc<ClusterTopic>> = self.topics.read().values().cloned().collect();
        topics.sort_by(|a, b| a.name.cmp(&b.name));
        for t in &topics {
            for (p, part) in t.parts.iter().enumerate() {
                let p = p as u32;
                let mut st = part.lock();
                let leader = st.leader;
                let followers: Vec<u32> = st
                    .replicas
                    .iter()
                    .copied()
                    .filter(|&n| n != leader)
                    .collect();
                let mut joined = Vec::new();
                for n in followers {
                    let from = st.logs[&n].latest_offset();
                    if from < st.logs[&leader].latest_offset() {
                        let missing = st.logs[&leader]
                            .fetch(from, usize::MAX)
                            .expect("leader log is contiguous");
                        let log = st.logs.get_mut(&n).expect("follower holds a log");
                        for r in missing {
                            log.append(r.ts_ms, r.key, r.value);
                        }
                    }
                    if st.isr.insert(n) {
                        joined.push(n);
                    }
                }
                drop(st);
                for n in joined {
                    self.note_isr_change(&t.name, p, n, true);
                    self.set_replica_lag(&t.name, p, n, 0);
                }
            }
        }
    }

    /// Current leader of `topic`/`partition`.
    pub fn leader(&self, topic: &str, partition: u32) -> Result<u32, StreamError> {
        let t = self.cluster_topic(topic)?;
        let leader = Cluster::part(&t, partition)?.lock().leader;
        Ok(leader)
    }

    /// In-sync replica set of `topic`/`partition`, ascending.
    pub fn isr(&self, topic: &str, partition: u32) -> Result<Vec<u32>, StreamError> {
        let t = self.cluster_topic(topic)?;
        let isr = Cluster::part(&t, partition)?
            .lock()
            .isr
            .iter()
            .copied()
            .collect();
        Ok(isr)
    }

    /// Full replica set of `topic`/`partition` in preferred (ring) order.
    pub fn replicas(&self, topic: &str, partition: u32) -> Result<Vec<u32>, StreamError> {
        let t = self.cluster_topic(topic)?;
        let replicas = Cluster::part(&t, partition)?.lock().replicas.clone();
        Ok(replicas)
    }

    /// High watermark: one past the last acked offset. With `acks=all`
    /// this is the leader's log end (every ISR member matches it).
    pub fn high_watermark(&self, topic: &str, partition: u32) -> Result<u64, StreamError> {
        let t = self.cluster_topic(topic)?;
        let st = Cluster::part(&t, partition)?.lock();
        let leader = st.leader;
        Ok(st.logs[&leader].latest_offset())
    }

    /// Log end offset of `node`'s replica of `topic`/`partition`.
    pub fn log_end(&self, node: u32, topic: &str, partition: u32) -> Result<u64, StreamError> {
        let t = self.cluster_topic(topic)?;
        let st = Cluster::part(&t, partition)?.lock();
        st.logs
            .get(&node)
            .map(Partition::latest_offset)
            .ok_or(StreamError::UnknownNode { node })
    }

    /// Every record in `node`'s replica of `topic`/`partition`, for
    /// convergence checks. Bypasses faults, metrics, and tracing.
    pub fn replica_records(
        &self,
        node: u32,
        topic: &str,
        partition: u32,
    ) -> Result<Vec<Record>, StreamError> {
        let t = self.cluster_topic(topic)?;
        let st = Cluster::part(&t, partition)?.lock();
        let log = st
            .logs
            .get(&node)
            .ok_or(StreamError::UnknownNode { node })?;
        log.fetch(log.earliest_offset(), usize::MAX)
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

    fn note_election(&self, e: &LeaderElection) {
        if let Some(m) = self.metrics.read().as_ref() {
            m.leader_elections.inc();
        }
        if let Some(tr) = self.tracer.read().as_ref() {
            let trace = trace_id(&e.topic, SERVICE_TRACE);
            tr.record(
                trace,
                trace_span(trace, "leader_elected", u64::from(e.partition)),
                None,
                0,
                u64::from(e.partition),
                0,
                TraceEventKind::LeaderElected {
                    topic: e.topic.clone(),
                    partition: u64::from(e.partition),
                    from_node: u64::from(e.from_node),
                    to_node: u64::from(e.to_node),
                },
            );
        }
    }

    fn note_isr_change(&self, topic: &str, partition: u32, node: u32, joined: bool) {
        if !joined {
            if let Some(m) = self.metrics.read().as_ref() {
                m.isr_shrinks.inc();
            }
        }
        if let Some(tr) = self.tracer.read().as_ref() {
            let trace = trace_id(topic, SERVICE_TRACE);
            // Distinct span site per (partition, node) pair.
            let site = u64::from(partition) * u64::from(self.nodes) + u64::from(node);
            tr.record(
                trace,
                trace_span(trace, "isr_change", site),
                None,
                0,
                u64::from(partition),
                0,
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
        if let Some(m) = self.metrics.read().as_ref() {
            m.fetch_records.add(recs.len() as u64);
            m.fetch_bytes
                .add(recs.iter().map(|r| r.byte_size() as u64).sum());
        }
        // Empty fetches ("caught up") carry no provenance — skip them.
        let Some(last) = recs.last() else { return };
        let to = last.offset + 1;
        if let Some(tr) = self.tracer.read().as_ref() {
            let trace = trace_id(topic, SERVICE_TRACE);
            tr.record(
                trace,
                trace_span(trace, "replica_fetch", u64::from(partition)),
                None,
                0,
                u64::from(partition),
                0,
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
}

impl MessageBus for Cluster {
    fn partition_count(&self, topic: &str) -> Result<u32, StreamError> {
        Cluster::partition_count(self, topic)
    }

    fn fetch(
        &self,
        topic: &str,
        partition: u32,
        from: u64,
        max: usize,
    ) -> Result<Vec<Record>, StreamError> {
        Cluster::fetch(self, topic, partition, from, max)
    }

    fn latest_offset(&self, topic: &str, partition: u32) -> Result<u64, StreamError> {
        self.high_watermark(topic, partition)
    }

    fn committed(&self, group: &str, topic: &str, partition: u32) -> u64 {
        Cluster::committed(self, group, topic, partition)
    }

    fn commit(&self, group: &str, topic: &str, partition: u32, offset: u64) {
        Cluster::commit(self, group, topic, partition, offset)
    }

    fn metrics(&self) -> Option<Arc<StreamMetrics>> {
        Cluster::metrics(self)
    }

    fn tracer(&self) -> Option<Tracer> {
        Cluster::tracer(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use crate::consumer::Consumer;
    use oda_faults::{FaultPlan, FaultSpec};

    fn cluster_with_topic(nodes: u32, rf: u32, partitions: u32) -> Arc<Cluster> {
        let c = Cluster::new(nodes, rf);
        c.create_topic("t", partitions, RetentionPolicy::unbounded())
            .unwrap();
        c
    }

    fn seed(c: &Cluster, records: u64) {
        for i in 0..records {
            c.produce(
                "t",
                i as i64,
                Some(Bytes::from(format!("k{}", i % 7))),
                Bytes::from(format!("v{i}")),
            )
            .unwrap();
        }
    }

    #[test]
    fn placement_is_pure_and_caps_replication() {
        for nodes in 1..=5u32 {
            for rf in 1..=7u32 {
                for p in 0..4u32 {
                    let set = Cluster::placement("t", p, nodes, rf);
                    assert_eq!(set, Cluster::placement("t", p, nodes, rf));
                    assert_eq!(set.len() as u32, rf.min(nodes));
                    let distinct: BTreeSet<u32> = set.iter().copied().collect();
                    assert_eq!(distinct.len(), set.len(), "replicas must be distinct");
                    assert!(set.iter().all(|&n| n < nodes));
                }
            }
        }
        // Followers are ring successors of the leader.
        let set = Cluster::placement("t", 0, 5, 3);
        assert_eq!(set[1], (set[0] + 1) % 5);
        assert_eq!(set[2], (set[0] + 2) % 5);
    }

    #[test]
    fn create_topic_seeds_leader_and_full_isr_from_placement() {
        let c = cluster_with_topic(3, 2, 4);
        for p in 0..4 {
            let want = Cluster::placement("t", p, 3, 2);
            assert_eq!(c.replicas("t", p).unwrap(), want);
            assert_eq!(c.leader("t", p).unwrap(), want[0]);
            let mut sorted = want.clone();
            sorted.sort_unstable();
            assert_eq!(c.isr("t", p).unwrap(), sorted);
        }
    }

    #[test]
    fn partitioning_matches_the_single_node_broker() {
        let b = Broker::new();
        b.create_topic("t", 4, RetentionPolicy::unbounded())
            .unwrap();
        let c = cluster_with_topic(3, 2, 4);
        for i in 0..50u64 {
            let key = (i % 3 != 0).then(|| Bytes::from(format!("k{}", i % 11)));
            let single = b
                .produce("t", i as i64, key.clone(), Bytes::from(format!("v{i}")))
                .unwrap();
            let clustered = c
                .produce("t", i as i64, key, Bytes::from(format!("v{i}")))
                .unwrap();
            assert_eq!(single, clustered, "record {i} landed differently");
        }
    }

    #[test]
    fn acks_all_keeps_every_replica_byte_identical() {
        let c = cluster_with_topic(5, 3, 2);
        seed(&c, 40);
        for p in 0..2 {
            let hw = c.high_watermark("t", p).unwrap();
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
        let c = cluster_with_topic(3, 3, 1);
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
        let c = cluster_with_topic(3, 1, 1);
        seed(&c, 10);
        let leader = c.leader("t", 0).unwrap();
        let fired = c.crash_node(leader).unwrap();
        assert!(fired.is_empty(), "rf=1 has no follower to elect");
        assert_eq!(c.leader("t", 0).unwrap(), leader);
        assert_eq!(c.isr("t", 0).unwrap(), vec![leader]);
        assert_eq!(c.high_watermark("t", 0).unwrap(), 10);
    }

    #[test]
    fn failover_loses_no_committed_offset() {
        let c = cluster_with_topic(3, 3, 1);
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
        let c = cluster_with_topic(3, 3, 1);
        seed(&c, 5);
        c.arm_faults(Arc::new(FaultPlan::new(
            1,
            FaultSpec {
                replica_lag: 1.0,
                ..FaultSpec::default()
            },
        )));
        seed(&c, 3);
        let leader = c.leader("t", 0).unwrap();
        assert_eq!(
            c.isr("t", 0).unwrap(),
            vec![leader],
            "all followers lag out under a certain-lag plan"
        );
        assert_eq!(c.high_watermark("t", 0).unwrap(), 8);
        c.disarm_faults();
        seed(&c, 1);
        assert_eq!(c.isr("t", 0).unwrap(), vec![0, 1, 2], "followers rejoin");
        for n in 0..3 {
            assert_eq!(c.log_end(n, "t", 0).unwrap(), 9, "catch-up is complete");
        }
    }

    #[test]
    fn node_crash_site_fails_produce_over_transparently() {
        let c = cluster_with_topic(3, 3, 1);
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
        assert_eq!(c.high_watermark("t", 0).unwrap(), 10, "no record lost");
        assert_eq!(c.elections().len(), 2, "two handovers across three nodes");
        let survivors = c.fetch("t", 0, 0, usize::MAX).unwrap();
        assert_eq!(survivors.len(), 10);
    }

    #[test]
    fn unknown_node_and_partition_are_fatal_errors() {
        let c = cluster_with_topic(3, 2, 1);
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
    fn consumers_poll_the_cluster_through_the_bus() {
        let c = cluster_with_topic(3, 2, 2);
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
        // Offsets survive in the cluster's group store.
        assert_eq!(c.committed("g", "t", 0) + c.committed("g", "t", 1), 30);
    }

    #[test]
    fn elections_and_replica_lag_are_exported_as_metrics() {
        let c = cluster_with_topic(3, 3, 1);
        let reg = Registry::new();
        c.attach_metrics(&reg);
        seed(&c, 4);
        // Crash while the ISR is still full so an election actually fires,
        // then lag the remaining followers out to grow the lag gauge.
        c.crash_node(c.leader("t", 0).unwrap()).unwrap();
        c.arm_faults(Arc::new(FaultPlan::new(
            1,
            FaultSpec {
                replica_lag: 1.0,
                ..FaultSpec::default()
            },
        )));
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

    #[test]
    fn fetch_provenance_distinguishes_isr_from_stale_reads() {
        let c = cluster_with_topic(3, 3, 1);
        let tracer = Tracer::new();
        c.attach_tracer(&tracer);
        seed(&c, 4);
        c.arm_faults(Arc::new(FaultPlan::new(
            1,
            FaultSpec {
                replica_lag: 1.0,
                ..FaultSpec::default()
            },
        )));
        seed(&c, 2);
        c.disarm_faults();
        let leader = c.leader("t", 0).unwrap();
        let stale = (0..3).find(|&n| n != leader).unwrap();
        c.fetch("t", 0, 0, 10).unwrap();
        c.fetch_from(stale, "t", 0, 0, 10).unwrap();
        if !oda_obs::enabled() {
            return;
        }
        let fetches: Vec<(u64, bool)> = tracer
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::ReplicaFetch { node, isr, .. } => Some((node, isr)),
                _ => None,
            })
            .collect();
        assert!(fetches.contains(&(u64::from(leader), true)));
        assert!(fetches.contains(&(u64::from(stale), false)));
        // The lineage graph records the stale serve as such.
        let q = tracer.lineage().query();
        assert!(
            q.edges().iter().any(|(_, _, rel)| rel == "serve-stale"),
            "stale read must leave a serve-stale edge"
        );
    }

    #[test]
    fn clamps_are_sane() {
        let c = Cluster::new(0, 0);
        assert_eq!(c.nodes(), 1);
        assert_eq!(c.replication(), 1);
        let c = Cluster::new(3, 99);
        assert_eq!(c.replication(), 3);
        c.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        assert_eq!(c.replicas("t", 0).unwrap().len(), 3);
        assert!(matches!(
            c.create_topic("t", 1, RetentionPolicy::unbounded()),
            Err(StreamError::TopicExists(_))
        ));
    }

    #[test]
    fn zero_partition_topic_is_a_typed_error() {
        // Used to succeed, then panic with a remainder-by-zero on the
        // first keyed produce.
        let c = Cluster::new(3, 2);
        assert_eq!(
            c.create_topic("t", 0, RetentionPolicy::unbounded()),
            Err(StreamError::UnknownPartition {
                topic: "t".into(),
                partition: 0
            })
        );
        assert!(matches!(
            c.produce("t", 0, Some(Bytes::from_static(b"k")), Bytes::new()),
            Err(StreamError::UnknownTopic(_))
        ));
    }
}

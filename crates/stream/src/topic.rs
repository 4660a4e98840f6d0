//! Topics: named sets of replicated partitions with a stable partitioner.

use crate::broker::Broker;
use crate::error::StreamError;
use crate::partition::Partition;
use crate::retention::RetentionPolicy;
use oda_obs::fnv1a;
use parking_lot::Mutex;

/// The stack's one partitioner: FNV-1a of the key modulo `partitions`;
/// keyless records take the round-robin cursor `rr`. Placement is part
/// of the stored format — per-key order, and any state sharded by
/// partition, depends on a key always landing where it did before.
fn partition_for(key: Option<&[u8]>, partitions: u32, rr: &Mutex<u32>) -> u32 {
    match key {
        Some(k) => (fnv1a(k) % u64::from(partitions)) as u32,
        None => {
            let mut rr = rr.lock();
            let p = *rr % partitions;
            *rr = rr.wrapping_add(1);
            p
        }
    }
}

/// One node's copy of a partition.
#[derive(Debug)]
pub(crate) struct Replica {
    pub(crate) node: u32,
    /// Member of the in-sync replica set (ISR): the log equals the
    /// leader's.
    pub(crate) in_sync: bool,
    pub(crate) log: Partition,
}

/// One partition's replica set in preferred (ring) order: `replicas[0]`
/// is the creation-time leader, the rest are followers.
#[derive(Debug)]
pub(crate) struct ReplicaSet {
    pub(crate) replicas: Vec<Replica>,
    /// Index of the current leader in `replicas`. Always in sync.
    pub(crate) leader: usize,
}

impl ReplicaSet {
    /// The current leader's replica.
    pub(crate) fn leader(&self) -> &Replica {
        &self.replicas[self.leader]
    }

    /// `node`'s replica, if it holds one.
    pub(crate) fn replica(&self, node: u32) -> Result<&Replica, StreamError> {
        self.replicas
            .iter()
            .find(|r| r.node == node)
            .ok_or(StreamError::UnknownNode { node })
    }

    /// Copy what the follower at index `i` is missing from the leader's
    /// log. A follower below the leader's log start — retention ran while
    /// it lagged — first truncates to an empty log at that start, as
    /// Kafka does, since the records in between no longer exist.
    pub(crate) fn catch_up(&mut self, i: usize) {
        let leader = &self.replicas[self.leader].log;
        let start = leader.earliest_offset();
        let end = self.replicas[i].log.latest_offset();
        let missing = leader
            .fetch(end.max(start), usize::MAX)
            .expect("the leader holds every offset from its log start");
        let log = &mut self.replicas[i].log;
        if end < start {
            log.reset(start);
        }
        for r in missing {
            log.append(r.ts_ms, r.key, r.value);
        }
    }
}

/// A named stream split into independently ordered, replicated
/// partitions.
#[derive(Debug)]
pub struct Topic {
    name: String,
    parts: Vec<Mutex<ReplicaSet>>,
    /// Round-robin cursor for keyless records.
    rr: Mutex<u32>,
}

impl Topic {
    /// Create a single-node topic (one replica per partition) with
    /// `partitions` partitions sharing `policy`.
    pub fn new(name: &str, partitions: u32, policy: RetentionPolicy) -> Self {
        Topic::placed(name, partitions, policy, 1, 1)
    }

    /// Create a topic whose partitions are replicated per
    /// [`Broker::placement`] over `nodes` nodes.
    pub(crate) fn placed(
        name: &str,
        partitions: u32,
        policy: RetentionPolicy,
        nodes: u32,
        replication: u32,
    ) -> Self {
        assert!(partitions > 0, "topic needs at least one partition");
        let parts = (0..partitions)
            .map(|p| {
                let replicas = Broker::placement(name, p, nodes, replication)
                    .into_iter()
                    .map(|node| Replica {
                        node,
                        in_sync: true,
                        log: Partition::new(policy),
                    })
                    .collect();
                Mutex::new(ReplicaSet {
                    replicas,
                    leader: 0,
                })
            })
            .collect();
        Topic {
            name: name.to_string(),
            parts,
            rr: Mutex::new(0),
        }
    }

    /// Topic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> u32 {
        self.parts.len() as u32
    }

    /// Stable FNV-1a key hash -> partition index; keyless records go
    /// round-robin.
    pub fn partition_for(&self, key: Option<&[u8]>) -> u32 {
        partition_for(key, self.partition_count(), &self.rr)
    }

    /// One partition's replica set.
    pub(crate) fn part(&self, partition: u32) -> Result<&Mutex<ReplicaSet>, StreamError> {
        self.parts
            .get(partition as usize)
            .ok_or_else(|| StreamError::UnknownPartition {
                topic: self.name.clone(),
                partition,
            })
    }

    /// Every partition's replica set, in partition order.
    pub(crate) fn parts(&self) -> &[Mutex<ReplicaSet>] {
        &self.parts
    }

    /// High watermark of one partition: one past the last acked offset.
    /// With `acks=all` this is the leader's log end, which every in-sync
    /// replica matches.
    pub fn latest_offset(&self, partition: u32) -> Result<u64, StreamError> {
        Ok(self.part(partition)?.lock().leader().log.latest_offset())
    }

    /// Earliest retained offset of one partition.
    pub fn earliest_offset(&self, partition: u32) -> Result<u64, StreamError> {
        Ok(self.part(partition)?.lock().leader().log.earliest_offset())
    }

    /// Total retained bytes across partitions, counting each partition
    /// once (its leader's copy), however many replicas hold it.
    pub fn bytes(&self) -> usize {
        self.parts
            .iter()
            .map(|p| p.lock().leader().log.bytes())
            .sum()
    }

    /// Total retained records across partitions (leader copies).
    pub fn len(&self) -> u64 {
        self.parts.iter().map(|p| p.lock().leader().log.len()).sum()
    }

    /// True when no records are retained in any partition.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enforce retention on every replica's log; returns the records the
    /// leaders dropped, so the count does not scale with replication.
    pub(crate) fn enforce_retention(&self, now_ms: i64) -> u64 {
        self.parts
            .iter()
            .map(|p| {
                let mut st = p.lock();
                let leader = st.leader;
                let mut dropped = 0;
                for (i, r) in st.replicas.iter_mut().enumerate() {
                    let d = r.log.enforce_retention(now_ms);
                    if i == leader {
                        dropped = d;
                    }
                }
                dropped
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::sync::Arc;

    fn broker_with(name: &str, partitions: u32) -> Arc<Broker> {
        let b = Broker::new();
        b.create_topic(name, partitions, RetentionPolicy::unbounded())
            .unwrap();
        b
    }

    #[test]
    fn keyed_records_stay_in_one_partition() {
        let b = broker_with("sensors", 8);
        let key = Bytes::from_static(b"node-42");
        let mut partitions = std::collections::HashSet::new();
        for i in 0..20 {
            let (p, _) = b
                .produce("sensors", i, Some(key.clone()), Bytes::from_static(b"v"))
                .unwrap();
            partitions.insert(p);
        }
        assert_eq!(partitions.len(), 1, "key must map to a stable partition");
    }

    #[test]
    fn key_placement_is_pinned() {
        // Literal values: a re-keyed or re-hashed topic must fail here,
        // not silently move keys between partitions.
        let table: [(&[u8], u32, u32); 11] = [
            (b"", 1, 0),
            (b"", 8, 5),
            (b"all", 2, 0),
            (b"k0", 2, 0),
            (b"k1", 2, 1),
            (b"node-42", 3, 2),
            (b"node-42", 8, 2),
            (b"shard-0", 8, 6),
            (b"shard-7", 8, 7),
            (&[0xff, 0x00, 0x80], 5, 0),
            ("é☃".as_bytes(), 16, 0),
        ];
        for (key, partitions, want) in table {
            let t = Topic::new("pinned", partitions, RetentionPolicy::unbounded());
            assert_eq!(
                t.partition_for(Some(key)),
                want,
                "key {key:?} over {partitions} partitions"
            );
        }
    }

    #[test]
    fn keyless_records_round_robin() {
        let b = broker_with("events", 4);
        let mut partitions = Vec::new();
        for i in 0..8 {
            let (p, _) = b
                .produce("events", i, None, Bytes::from_static(b"v"))
                .unwrap();
            partitions.push(p);
        }
        assert_eq!(partitions, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn per_partition_offsets_independent() {
        let b = broker_with("x", 2);
        // Force both partitions via distinct keys.
        let mut seen = std::collections::HashMap::new();
        for user in 0..100u32 {
            let key = Bytes::from(format!("k{user}"));
            let (p, o) = b
                .produce("x", 0, Some(key), Bytes::from_static(b"v"))
                .unwrap();
            let next = seen.entry(p).or_insert(0u64);
            assert_eq!(o, *next, "offsets must be dense per partition");
            *next += 1;
        }
        assert_eq!(seen.len(), 2, "hash should spread across both partitions");
    }

    #[test]
    fn fetch_unknown_partition_errors() {
        let b = broker_with("x", 1);
        assert!(matches!(
            b.fetch("x", 3, 0, 1),
            Err(StreamError::UnknownPartition { partition: 3, .. })
        ));
    }

    #[test]
    fn fifo_order_within_partition() {
        let b = broker_with("x", 1);
        for i in 0..10 {
            b.produce("x", i, None, Bytes::from(format!("m{i}")))
                .unwrap();
        }
        let recs = b.fetch("x", 0, 0, 100).unwrap();
        let values: Vec<_> = recs.iter().map(|r| r.value.clone()).collect();
        let expect: Vec<_> = (0..10).map(|i| Bytes::from(format!("m{i}"))).collect();
        assert_eq!(values, expect);
    }
}

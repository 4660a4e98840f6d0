//! Topics: named sets of partitions with a stable partitioner.

use crate::error::StreamError;
use crate::partition::Partition;
use crate::record::Record;
use crate::retention::RetentionPolicy;
use bytes::Bytes;
use oda_obs::fnv1a;
use parking_lot::Mutex;

/// The stack's one partitioner, shared by [`Topic`] and the cluster:
/// FNV-1a of the key modulo `partitions`; keyless records take the
/// round-robin cursor `rr`. Placement is part of the stored format —
/// per-key order, and any state sharded by partition, depends on a key
/// always landing where it did before.
pub(crate) fn partition_for(key: Option<&[u8]>, partitions: u32, rr: &Mutex<u32>) -> u32 {
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

/// A named stream split into independently ordered partitions.
#[derive(Debug)]
pub struct Topic {
    name: String,
    partitions: Vec<Mutex<Partition>>,
    /// Round-robin cursor for keyless records.
    rr: Mutex<u32>,
}

impl Topic {
    /// Create a topic with `partitions` partitions sharing `policy`.
    pub fn new(name: &str, partitions: u32, policy: RetentionPolicy) -> Self {
        assert!(partitions > 0, "topic needs at least one partition");
        Topic {
            name: name.to_string(),
            partitions: (0..partitions)
                .map(|_| Mutex::new(Partition::new(policy)))
                .collect(),
            rr: Mutex::new(0),
        }
    }

    /// Topic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// Stable FNV-1a key hash -> partition index; keyless records go
    /// round-robin.
    pub fn partition_for(&self, key: Option<&[u8]>) -> u32 {
        partition_for(key, self.partition_count(), &self.rr)
    }

    /// Append to the partition chosen by the key; returns (partition, offset).
    pub fn produce(&self, ts_ms: i64, key: Option<Bytes>, value: Bytes) -> (u32, u64) {
        let p = self.partition_for(key.as_deref());
        let offset = self.partitions[p as usize].lock().append(ts_ms, key, value);
        (p, offset)
    }

    /// Fetch from one partition.
    pub fn fetch(&self, partition: u32, from: u64, max: usize) -> Result<Vec<Record>, StreamError> {
        let part = self.partitions.get(partition as usize).ok_or_else(|| {
            StreamError::UnknownPartition {
                topic: self.name.clone(),
                partition,
            }
        })?;
        part.lock().fetch(from, max)
    }

    /// Log-end offset of one partition.
    pub fn latest_offset(&self, partition: u32) -> Result<u64, StreamError> {
        let part = self.partitions.get(partition as usize).ok_or_else(|| {
            StreamError::UnknownPartition {
                topic: self.name.clone(),
                partition,
            }
        })?;
        Ok(part.lock().latest_offset())
    }

    /// Earliest retained offset of one partition.
    pub fn earliest_offset(&self, partition: u32) -> Result<u64, StreamError> {
        let part = self.partitions.get(partition as usize).ok_or_else(|| {
            StreamError::UnknownPartition {
                topic: self.name.clone(),
                partition,
            }
        })?;
        Ok(part.lock().earliest_offset())
    }

    /// Total retained bytes across partitions.
    pub fn bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.lock().bytes()).sum()
    }

    /// Total retained records across partitions.
    pub fn len(&self) -> u64 {
        self.partitions.iter().map(|p| p.lock().len()).sum()
    }

    /// True when no records are retained in any partition.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enforce retention on all partitions; returns records dropped.
    pub fn enforce_retention(&self, now_ms: i64) -> u64 {
        self.partitions
            .iter()
            .map(|p| p.lock().enforce_retention(now_ms))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_records_stay_in_one_partition() {
        let t = Topic::new("sensors", 8, RetentionPolicy::unbounded());
        let key = Bytes::from_static(b"node-42");
        let mut partitions = std::collections::HashSet::new();
        for i in 0..20 {
            let (p, _) = t.produce(i, Some(key.clone()), Bytes::from_static(b"v"));
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
        let t = Topic::new("events", 4, RetentionPolicy::unbounded());
        let mut partitions = Vec::new();
        for i in 0..8 {
            let (p, _) = t.produce(i, None, Bytes::from_static(b"v"));
            partitions.push(p);
        }
        assert_eq!(partitions, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn per_partition_offsets_independent() {
        let t = Topic::new("x", 2, RetentionPolicy::unbounded());
        // Force both partitions via distinct keys.
        let mut seen = std::collections::HashMap::new();
        for user in 0..100u32 {
            let key = Bytes::from(format!("k{user}"));
            let (p, o) = t.produce(0, Some(key), Bytes::from_static(b"v"));
            let next = seen.entry(p).or_insert(0u64);
            assert_eq!(o, *next, "offsets must be dense per partition");
            *next += 1;
        }
        assert_eq!(seen.len(), 2, "hash should spread across both partitions");
    }

    #[test]
    fn fetch_unknown_partition_errors() {
        let t = Topic::new("x", 1, RetentionPolicy::unbounded());
        assert!(matches!(
            t.fetch(3, 0, 1),
            Err(StreamError::UnknownPartition { partition: 3, .. })
        ));
    }

    #[test]
    fn fifo_order_within_partition() {
        let t = Topic::new("x", 1, RetentionPolicy::unbounded());
        for i in 0..10 {
            t.produce(i, None, Bytes::from(format!("m{i}")));
        }
        let recs = t.fetch(0, 0, 100).unwrap();
        let values: Vec<_> = recs.iter().map(|r| r.value.clone()).collect();
        let expect: Vec<_> = (0..10).map(|i| Bytes::from(format!("m{i}"))).collect();
        assert_eq!(values, expect);
    }
}

//! Consumer groups: offset-tracked, replayable subscription.
//!
//! A [`Consumer`] reads a set of partitions of one topic on behalf of a
//! group. Offsets advance locally on `poll` and durably on `commit` —
//! the gap between the two is exactly what the pipeline engine's
//! checkpointing (exactly-once sinks) exploits: on crash, an uncommitted
//! poll is re-delivered.

use crate::broker::Broker;
use crate::error::StreamError;
use crate::record::Record;
use oda_faults::Retry;
use std::collections::HashMap;
use std::sync::Arc;

/// One partition's share of a partitioned poll: the records fetched
/// plus the position the consumer should advance to once the whole
/// poll is accepted.
///
/// Ordering is canonical — `poll_partitioned` returns batches sorted by
/// partition id, and records within a batch are offset-ordered — so a
/// concatenation of batches is the deterministic merge order the
/// parallel executor relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionBatch {
    /// The partition the records came from.
    pub partition: u32,
    /// Offset-ordered records.
    pub records: Vec<Record>,
    /// Next offset to read after this batch (accounts for retention
    /// skip-forward even when no records were returned).
    pub next_offset: u64,
}

/// A group member consuming one topic of a [`Broker`], single-node or
/// replicated alike.
pub struct Consumer {
    broker: Arc<Broker>,
    group: String,
    topic: String,
    /// Partitions this member owns, sorted ascending and deduplicated.
    assignment: Vec<u32>,
    /// Next offset to read per partition (position, not yet committed).
    position: HashMap<u32, u64>,
    /// Retry policy for transient fetch failures (None: fail fast).
    retry: Option<Retry>,
}

impl Consumer {
    /// Subscribe to every partition of `topic`.
    pub fn subscribe(
        broker: Arc<Broker>,
        group: &str,
        topic: &str,
    ) -> Result<Consumer, StreamError> {
        let n = broker.topic(topic)?.partition_count();
        Self::with_assignment(broker, group, topic, (0..n).collect())
    }

    /// Subscribe to an explicit partition subset (static group balancing:
    /// member *i* of *k* takes partitions where `p % k == i`).
    ///
    /// The assignment is sorted and deduplicated defensively: failover
    /// resume concatenates partition batches in assignment order, so the
    /// (partition id, offset) merge order must be canonical even when a
    /// re-subscribe passes partitions in discovery order.
    pub fn with_assignment(
        broker: Arc<Broker>,
        group: &str,
        topic: &str,
        mut assignment: Vec<u32>,
    ) -> Result<Consumer, StreamError> {
        let n = broker.topic(topic)?.partition_count();
        for &p in &assignment {
            if p >= n {
                return Err(StreamError::UnknownPartition {
                    topic: topic.to_string(),
                    partition: p,
                });
            }
        }
        assignment.sort_unstable();
        assignment.dedup();
        let position = assignment
            .iter()
            .map(|&p| (p, broker.committed(group, topic, p)))
            .collect();
        Ok(Consumer {
            broker,
            group: group.to_string(),
            topic: topic.to_string(),
            assignment,
            position,
            retry: None,
        })
    }

    /// Absorb transient fetch failures inside `poll` under `policy`.
    pub fn with_retry(mut self, policy: Retry) -> Consumer {
        self.retry = Some(policy);
        self
    }

    /// The partitions this member owns.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// The topic this member reads (lineage and trace records key on it).
    pub fn topic(&self) -> &str {
        &self.topic
    }

    fn fetch(&self, partition: u32, from: u64, max: usize) -> Result<Vec<Record>, StreamError> {
        match &self.retry {
            Some(policy) => {
                let (res, outcome) =
                    policy.run(|_| self.broker.fetch(&self.topic, partition, from, max));
                if let Some(m) = self.broker.metrics() {
                    let site = u64::from(partition);
                    m.record_retry(
                        &m.fetch_retry,
                        &self.topic,
                        "fetch",
                        site,
                        &outcome,
                        res.is_ok(),
                    );
                }
                res
            }
            None => self.broker.fetch(&self.topic, partition, from, max),
        }
    }

    /// The per-partition record budget a poll of `max` records uses:
    /// the budget is split evenly (rounding up) across the assignment,
    /// so the record set a poll returns is a pure function of `max` and
    /// the assignment — never of who fetches which partition when.
    pub fn per_partition_budget(&self, max: usize) -> usize {
        max.div_ceil(self.assignment.len().max(1))
    }

    /// Fetch up to `max` records from one owned partition starting at
    /// `from`, WITHOUT touching the consumer's position.
    ///
    /// Takes `&self`, so parallel workers can fetch distinct partitions
    /// of one consumer concurrently; the caller advances positions with
    /// [`Consumer::seek`] once every partition's fetch has succeeded.
    /// Applies the consumer's retry policy to transient faults and
    /// skips forward over retention gaps, exactly like [`Consumer::poll`].
    /// Returns the records plus the position to advance to.
    pub fn fetch_partition(
        &self,
        partition: u32,
        from: u64,
        max: usize,
    ) -> Result<(Vec<Record>, u64), StreamError> {
        if !self.assignment.contains(&partition) {
            return Err(StreamError::UnknownPartition {
                topic: self.topic.clone(),
                partition,
            });
        }
        let mut pos = from;
        let recs = match self.fetch(partition, pos, max) {
            Ok(r) => r,
            Err(StreamError::OffsetOutOfRange { earliest, .. }) => {
                // Data below our position was expired by retention;
                // skip forward (the consumer lost records, which the
                // caller can detect via `lag` jumps).
                pos = earliest;
                self.fetch(partition, pos, max)?
            }
            Err(e) => return Err(e),
        };
        if let Some(last) = recs.last() {
            pos = last.offset + 1;
        }
        Ok((recs, pos))
    }

    /// The current read position of one owned partition.
    pub fn position(&self, partition: u32) -> Option<u64> {
        self.position.get(&partition).copied()
    }

    /// Fetch up to `max` records across owned partitions, advancing the
    /// local position (but not the committed offsets).
    pub fn poll(&mut self, max: usize) -> Result<Vec<Record>, StreamError> {
        Ok(self
            .poll_partitioned(max)?
            .into_iter()
            .flat_map(|b| b.records)
            .collect())
    }

    /// Fetch up to `max` records across owned partitions, keeping each
    /// partition's records in its own [`PartitionBatch`] (sorted by
    /// partition id). Positions advance only after every partition's
    /// fetch succeeded, so a failed poll leaves the consumer where it
    /// was and a replay re-reads the identical record set.
    pub fn poll_partitioned(&mut self, max: usize) -> Result<Vec<PartitionBatch>, StreamError> {
        let per_part = self.per_partition_budget(max);
        let mut out = Vec::with_capacity(self.assignment.len());
        for &p in &self.assignment {
            let from = *self.position.get(&p).expect("assigned partition");
            let (records, next_offset) = self.fetch_partition(p, from, per_part)?;
            out.push(PartitionBatch {
                partition: p,
                records,
                next_offset,
            });
        }
        for b in &out {
            self.position.insert(b.partition, b.next_offset);
        }
        out.sort_by_key(|b| b.partition);
        self.record_lag();
        Ok(out)
    }

    /// Publish per-partition lag gauges if the broker carries metrics.
    fn record_lag(&self) {
        let Some(m) = self.broker.metrics() else {
            return;
        };
        let Ok(topic) = self.broker.topic(&self.topic) else {
            return;
        };
        for &p in &self.assignment {
            let pos = *self.position.get(&p).expect("assigned partition");
            if let Ok(latest) = topic.latest_offset(p) {
                m.lag_gauge(&self.group, &self.topic, p)
                    .set(latest.saturating_sub(pos) as i64);
            }
        }
    }

    /// Durably commit the current position of every owned partition,
    /// and publish the lag gauges: a streaming query advances through
    /// [`Consumer::fetch_partition`] and [`Consumer::seek`], never
    /// [`Consumer::poll`], so its commit is where lag is set.
    pub fn commit(&self) {
        for (&p, &pos) in &self.position {
            self.broker.commit(&self.group, &self.topic, p, pos);
        }
        self.record_lag();
    }

    /// Reset local positions to the last committed offsets (crash rewind).
    pub fn seek_to_committed(&mut self) {
        for &p in &self.assignment {
            let committed = self.broker.committed(&self.group, &self.topic, p);
            self.position.insert(p, committed);
        }
    }

    /// Current read positions per partition (next offset to read).
    pub fn positions(&self) -> std::collections::BTreeMap<u32, u64> {
        self.position.iter().map(|(&p, &o)| (p, o)).collect()
    }

    /// Set the read position of one owned partition (checkpoint-driven
    /// recovery seeks with offsets it stored itself).
    pub fn seek(&mut self, partition: u32, offset: u64) -> Result<(), StreamError> {
        if !self.assignment.contains(&partition) {
            return Err(StreamError::UnknownPartition {
                topic: self.topic.clone(),
                partition,
            });
        }
        self.position.insert(partition, offset);
        Ok(())
    }

    /// Records remaining between the position and the log end.
    pub fn lag(&self) -> Result<u64, StreamError> {
        let topic = self.broker.topic(&self.topic)?;
        let mut lag = 0;
        for &p in &self.assignment {
            let pos = *self.position.get(&p).expect("assigned partition");
            lag += topic.latest_offset(p)?.saturating_sub(pos);
        }
        Ok(lag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retention::RetentionPolicy;
    use bytes::Bytes;

    fn setup(partitions: u32, records: u64) -> Arc<Broker> {
        let b = Broker::new();
        b.create_topic("t", partitions, RetentionPolicy::unbounded())
            .unwrap();
        for i in 0..records {
            b.produce(
                "t",
                i as i64,
                Some(Bytes::from(format!("k{i}"))),
                Bytes::from(format!("v{i}")),
            )
            .unwrap();
        }
        b
    }

    #[test]
    fn consumes_everything_once() {
        let b = setup(4, 1_000);
        let mut c = Consumer::subscribe(b, "g", "t").unwrap();
        let mut seen = std::collections::HashSet::new();
        loop {
            let recs = c.poll(64).unwrap();
            if recs.is_empty() {
                break;
            }
            for r in recs {
                assert!(seen.insert(r.value.clone()), "duplicate {:?}", r.value);
            }
        }
        assert_eq!(seen.len(), 1_000);
        assert_eq!(c.lag().unwrap(), 0);
    }

    #[test]
    fn uncommitted_poll_is_redelivered() {
        let b = setup(1, 10);
        let mut c = Consumer::subscribe(b.clone(), "g", "t").unwrap();
        let first = c.poll(5).unwrap();
        assert_eq!(first.len(), 5);
        // Crash without commit: a new consumer re-reads from 0.
        let mut c2 = Consumer::subscribe(b, "g", "t").unwrap();
        let replay = c2.poll(5).unwrap();
        assert_eq!(replay, first);
    }

    #[test]
    fn committed_poll_is_not_redelivered() {
        let b = setup(1, 10);
        let mut c = Consumer::subscribe(b.clone(), "g", "t").unwrap();
        let first = c.poll(5).unwrap();
        c.commit();
        let mut c2 = Consumer::subscribe(b, "g", "t").unwrap();
        let next = c2.poll(5).unwrap();
        assert_ne!(next.first().unwrap().offset, first.first().unwrap().offset);
        assert_eq!(next.first().unwrap().offset, 5);
    }

    #[test]
    fn groups_are_independent() {
        let b = setup(1, 10);
        let mut a = Consumer::subscribe(b.clone(), "ga", "t").unwrap();
        a.poll(10).unwrap();
        a.commit();
        let mut other = Consumer::subscribe(b, "gb", "t").unwrap();
        assert_eq!(other.poll(10).unwrap().len(), 10);
    }

    #[test]
    fn split_assignment_partitions_work() {
        let b = setup(4, 100);
        let mut m0 = Consumer::with_assignment(b.clone(), "g", "t", vec![0, 2]).unwrap();
        let mut m1 = Consumer::with_assignment(b.clone(), "g", "t", vec![1, 3]).unwrap();
        let mut total = 0;
        loop {
            let r0 = m0.poll(32).unwrap();
            let r1 = m1.poll(32).unwrap();
            if r0.is_empty() && r1.is_empty() {
                break;
            }
            total += r0.len() + r1.len();
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn invalid_assignment_rejected() {
        let b = setup(2, 1);
        assert!(Consumer::with_assignment(b, "g", "t", vec![0, 5]).is_err());
    }

    #[test]
    fn unsorted_assignment_is_canonicalized() {
        // A re-subscribe may discover partitions in arbitrary order;
        // the merge order of (partition id, offset) pairs must not
        // depend on it, so the assignment is sorted and deduplicated.
        let b = setup(4, 200);
        let mut shuffled =
            Consumer::with_assignment(b.clone(), "g", "t", vec![3, 1, 2, 0, 1]).unwrap();
        assert_eq!(shuffled.assignment(), &[0, 1, 2, 3]);
        let mut sorted = Consumer::with_assignment(b, "g2", "t", vec![0, 1, 2, 3]).unwrap();
        loop {
            let a = shuffled.poll_partitioned(32).unwrap();
            let b = sorted.poll_partitioned(32).unwrap();
            assert_eq!(a, b, "poll order must be independent of insertion order");
            if a.iter().all(|batch| batch.records.is_empty()) {
                break;
            }
        }
        // Duplicate partitions must not double-deliver: exactly every
        // record arrived once per group.
        assert_eq!(shuffled.lag().unwrap(), 0);
    }

    #[test]
    fn seek_to_committed_rewinds() {
        let b = setup(1, 10);
        let mut c = Consumer::subscribe(b, "g", "t").unwrap();
        c.poll(4).unwrap();
        c.commit();
        c.poll(4).unwrap();
        c.seek_to_committed();
        let r = c.poll(4).unwrap();
        assert_eq!(r.first().unwrap().offset, 4);
    }

    #[test]
    fn poll_with_retry_absorbs_transient_fetch_faults() {
        use oda_faults::{FaultPlan, FaultSpec, Retry};
        let b = setup(2, 500);
        b.arm_faults(Arc::new(FaultPlan::new(
            13,
            FaultSpec {
                fetch_error: 0.4,
                ..FaultSpec::default()
            },
        )));
        // Without a retry policy, some poll eventually surfaces the fault.
        let mut bare = Consumer::subscribe(b.clone(), "g-bare", "t").unwrap();
        let mut saw_error = false;
        for _ in 0..50 {
            if bare.poll(16).is_err() {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error, "40% fetch faults must surface without retry");
        // With retries, the same fault schedule is ridden through and
        // every record still arrives exactly once.
        let mut c = Consumer::subscribe(b, "g", "t")
            .unwrap()
            .with_retry(Retry::with_attempts(20));
        let mut seen = std::collections::HashSet::new();
        loop {
            let recs = c.poll(64).unwrap();
            if recs.is_empty() {
                break;
            }
            for r in recs {
                assert!(seen.insert((r.offset, r.value.clone())));
            }
        }
        assert_eq!(seen.len(), 500);
    }

    #[test]
    fn poll_partitioned_matches_poll_and_orders_by_partition() {
        let b = setup(4, 200);
        let mut flat = Consumer::subscribe(b.clone(), "g-flat", "t").unwrap();
        let mut parts = Consumer::subscribe(b, "g-part", "t").unwrap();
        loop {
            let a = flat.poll(32).unwrap();
            let batches = parts.poll_partitioned(32).unwrap();
            let b: Vec<_> = batches.iter().flat_map(|p| p.records.clone()).collect();
            assert_eq!(a, b, "flattened partitioned poll must equal poll");
            let ids: Vec<u32> = batches.iter().map(|p| p.partition).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "batches must be partition-ordered");
            for batch in &batches {
                for w in batch.records.windows(2) {
                    assert!(w[0].offset < w[1].offset);
                }
            }
            if a.is_empty() {
                break;
            }
        }
    }

    #[test]
    fn fetch_partition_is_position_neutral() {
        let b = setup(2, 40);
        let c = Consumer::subscribe(b, "g", "t").unwrap();
        let (first, next) = c.fetch_partition(0, 0, 8).unwrap();
        assert_eq!(first.len(), 8);
        assert_eq!(next, first.last().unwrap().offset + 1);
        // No position moved: the same fetch replays identically.
        assert_eq!(c.position(0), Some(0));
        let (again, _) = c.fetch_partition(0, 0, 8).unwrap();
        assert_eq!(first, again);
        // Unowned partitions are rejected.
        assert!(matches!(
            c.fetch_partition(9, 0, 8),
            Err(StreamError::UnknownPartition { .. })
        ));
    }

    #[test]
    fn concurrent_fetch_partition_reads_are_exact() {
        // Workers fetching distinct partitions of ONE consumer through a
        // shared reference must each see exactly their partition's
        // records — the access pattern the parallel executor uses.
        let b = setup(4, 400);
        let c = Consumer::subscribe(b, "g", "t").unwrap();
        let serial: Vec<_> = (0..4u32)
            .map(|p| c.fetch_partition(p, 0, 1_000).unwrap())
            .collect();
        let threaded: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u32)
                .map(|p| {
                    let c = &c;
                    s.spawn(move || c.fetch_partition(p, 0, 1_000).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(serial, threaded);
        let total: usize = threaded.iter().map(|(r, _)| r.len()).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn failed_poll_leaves_positions_untouched() {
        use oda_faults::{FaultPlan, FaultSpec};
        let b = setup(2, 100);
        let mut c = Consumer::subscribe(b.clone(), "g", "t").unwrap();
        let before = c.positions();
        // Certain fetch failure, no retry policy: the poll must fail
        // without advancing ANY partition's position.
        b.arm_faults(Arc::new(FaultPlan::new(
            1,
            FaultSpec {
                fetch_error: 1.0,
                ..FaultSpec::default()
            },
        )));
        assert!(c.poll(16).is_err());
        assert_eq!(c.positions(), before);
    }

    #[test]
    fn lag_gauges_track_partition_positions() {
        let b = setup(2, 100);
        let reg = oda_obs::Registry::new();
        b.attach_metrics(&reg);
        let mut c = Consumer::subscribe(b.clone(), "g", "t").unwrap();
        c.poll(20).unwrap();
        if oda_obs::enabled() {
            let t = b.topic("t").unwrap();
            for p in 0..2u32 {
                let part = p.to_string();
                let want = t.latest_offset(p).unwrap() - c.position(p).unwrap();
                assert_eq!(
                    reg.gauge_value(
                        "stream_consumer_lag",
                        &[("group", "g"), ("topic", "t"), ("partition", &part)]
                    ),
                    want as i64
                );
            }
        }
        // Drain fully: lag gauges settle at zero.
        while !c.poll(64).unwrap().is_empty() {}
        if oda_obs::enabled() {
            for p in ["0", "1"] {
                assert_eq!(
                    reg.gauge_value(
                        "stream_consumer_lag",
                        &[("group", "g"), ("topic", "t"), ("partition", p)]
                    ),
                    0
                );
            }
        }
    }

    #[test]
    fn retention_gap_skips_forward() {
        let b = Broker::new();
        b.create_topic("t", 1, RetentionPolicy::max_bytes(3_000))
            .unwrap();
        // Small segments so retention can bite; default segment is 4 MiB,
        // so produce enough to roll segments: use big values.
        for i in 0..200 {
            b.produce("t", i, None, Bytes::from(vec![1u8; 50_000]))
                .unwrap();
        }
        b.enforce_retention(i64::MAX / 2);
        let mut c = Consumer::subscribe(b, "g", "t").unwrap();
        // Position 0 was expired; poll must skip to the horizon, not error.
        let recs = c.poll(10).unwrap();
        assert!(!recs.is_empty());
        assert!(recs[0].offset > 0);
    }
}

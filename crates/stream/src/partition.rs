//! A partition: an append-only chain of segments.

use crate::error::StreamError;
use crate::record::Record;
use crate::retention::RetentionPolicy;
use crate::segment::{Segment, DEFAULT_SEGMENT_BYTES};
use bytes::Bytes;

/// One partition's log.
#[derive(Debug)]
pub struct Partition {
    segments: Vec<Segment>,
    next_offset: u64,
    total_bytes: usize,
    segment_bytes: usize,
    policy: RetentionPolicy,
}

impl Partition {
    /// Create an empty partition with the given retention policy.
    pub fn new(policy: RetentionPolicy) -> Self {
        Self::with_segment_bytes(policy, DEFAULT_SEGMENT_BYTES)
    }

    /// Create with an explicit segment size (tests use small segments).
    pub fn with_segment_bytes(policy: RetentionPolicy, segment_bytes: usize) -> Self {
        Partition {
            segments: vec![Segment::new(0, segment_bytes)],
            next_offset: 0,
            total_bytes: 0,
            segment_bytes,
            policy,
        }
    }

    /// Append a record; returns its offset.
    pub fn append(&mut self, ts_ms: i64, key: Option<Bytes>, value: Bytes) -> u64 {
        let offset = self.next_offset;
        self.next_offset += 1;
        let record = Record {
            offset,
            ts_ms,
            key,
            value,
        };
        self.total_bytes += record.byte_size();
        let seal = self.segments.last().map(Segment::is_full).unwrap_or(true);
        if seal {
            self.segments.push(Segment::new(offset, self.segment_bytes));
        }
        self.segments
            .last_mut()
            .expect("segment exists")
            .push(record);
        offset
    }

    /// Drop every record and restart the log empty at `base_offset`.
    pub(crate) fn reset(&mut self, base_offset: u64) {
        self.segments = vec![Segment::new(base_offset, self.segment_bytes)];
        self.next_offset = base_offset;
        self.total_bytes = 0;
    }

    /// Earliest retained offset.
    pub fn earliest_offset(&self) -> u64 {
        self.segments
            .first()
            .map_or(self.next_offset, |s| s.base_offset)
    }

    /// One past the last appended offset (the "log end offset").
    pub fn latest_offset(&self) -> u64 {
        self.next_offset
    }

    /// Total retained payload bytes.
    pub fn bytes(&self) -> usize {
        self.total_bytes
    }

    /// Number of retained records.
    pub fn len(&self) -> u64 {
        self.next_offset - self.earliest_offset()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch up to `max` records starting at `from`.
    ///
    /// Reading below the retention horizon is an error (the consumer
    /// lost data and must reset); reading at or past the log end returns
    /// an empty batch (it simply means "caught up").
    pub fn fetch(&self, from: u64, max: usize) -> Result<Vec<Record>, StreamError> {
        let earliest = self.earliest_offset();
        if from < earliest {
            return Err(StreamError::OffsetOutOfRange {
                requested: from,
                earliest,
                latest: self.next_offset,
            });
        }
        let mut out = Vec::new();
        // Binary search for the first segment that can contain `from`.
        let idx = self.segments.partition_point(|s| s.end_offset() <= from);
        for seg in &self.segments[idx..] {
            if out.len() >= max {
                break;
            }
            seg.read_into(from.max(seg.base_offset), max - out.len(), &mut out);
        }
        Ok(out)
    }

    /// Enforce retention at wall-clock `now_ms`, returning dropped records.
    pub fn enforce_retention(&mut self, now_ms: i64) -> u64 {
        let mut dropped = 0;
        loop {
            // Never drop the active (last) segment.
            if self.segments.len() <= 1 {
                break;
            }
            let first = &self.segments[0];
            let too_old = match (self.policy.max_age_ms, first.last_ts_ms()) {
                (Some(max_age), Some(last_ts)) => now_ms - last_ts > max_age,
                _ => false,
            };
            let too_big = match self.policy.max_bytes {
                Some(max) => self.total_bytes > max,
                None => false,
            };
            if too_old || too_big {
                let seg = self.segments.remove(0);
                self.total_bytes -= seg.bytes();
                dropped += seg.len() as u64;
            } else {
                break;
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Bytes {
        Bytes::from(vec![7u8; n])
    }

    fn filled(policy: RetentionPolicy, records: u64) -> Partition {
        let mut p = Partition::with_segment_bytes(policy, 1_000);
        for i in 0..records {
            p.append(i as i64 * 1_000, None, payload(100));
        }
        p
    }

    #[test]
    fn offsets_dense_and_monotonic() {
        let mut p = Partition::new(RetentionPolicy::unbounded());
        for i in 0..100 {
            assert_eq!(p.append(0, None, payload(10)), i);
        }
        assert_eq!(p.latest_offset(), 100);
        assert_eq!(p.earliest_offset(), 0);
    }

    #[test]
    fn fetch_spans_segments() {
        let p = filled(RetentionPolicy::unbounded(), 50);
        let recs = p.fetch(0, 50).unwrap();
        assert_eq!(recs.len(), 50);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.offset, i as u64);
        }
        // Partial fetch across a segment boundary.
        let recs = p.fetch(7, 10).unwrap();
        assert_eq!(recs.first().unwrap().offset, 7);
        assert_eq!(recs.len(), 10);
    }

    #[test]
    fn fetch_at_log_end_is_empty() {
        let p = filled(RetentionPolicy::unbounded(), 10);
        assert!(p.fetch(10, 5).unwrap().is_empty());
        assert!(p.fetch(999, 5).unwrap().is_empty());
    }

    #[test]
    fn size_retention_drops_oldest() {
        let mut p = filled(RetentionPolicy::max_bytes(2_500), 100);
        let dropped = p.enforce_retention(0);
        assert!(dropped > 0);
        assert!(
            p.bytes() <= 2_500 + 1_000,
            "bytes {} exceed bound",
            p.bytes()
        );
        assert!(p.earliest_offset() > 0);
        // Dropped range now errors.
        let err = p.fetch(0, 1).unwrap_err();
        assert!(matches!(err, StreamError::OffsetOutOfRange { .. }));
        // Retained range still reads fine.
        let recs = p.fetch(p.earliest_offset(), 5).unwrap();
        assert_eq!(recs[0].offset, p.earliest_offset());
    }

    #[test]
    fn age_retention_drops_expired_segments() {
        let mut p = filled(RetentionPolicy::max_age_ms(10_000), 100);
        // now = 99s; records older than 89s expire, segment-granular.
        let dropped = p.enforce_retention(99_000);
        assert!(dropped > 0);
        assert!(p.earliest_offset() > 0);
    }

    #[test]
    fn active_segment_never_dropped() {
        let mut p = filled(RetentionPolicy::max_bytes(1), 5);
        p.enforce_retention(i64::MAX / 2);
        assert!(!p.is_empty(), "active segment must survive retention");
        assert_eq!(p.latest_offset(), 5);
    }

    #[test]
    fn bytes_accounting_consistent() {
        let mut p = Partition::with_segment_bytes(RetentionPolicy::unbounded(), 512);
        let mut expect = 0;
        for i in 0..20 {
            p.append(i, None, payload(64));
            expect += 16 + 64;
        }
        assert_eq!(p.bytes(), expect);
    }
}

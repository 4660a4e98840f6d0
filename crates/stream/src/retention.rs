//! Retention policies for the STREAM tier.
//!
//! Fig. 5 of the paper gives each tier a class-specific retention time;
//! the STREAM tier keeps in-flight data for days. Policies bound a
//! partition by age and/or bytes; enforcement drops whole sealed
//! segments from the front of the log.

/// Age/size bounds on one partition's log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionPolicy {
    /// Maximum record age in milliseconds (`None` = unbounded).
    pub max_age_ms: Option<i64>,
    /// Maximum retained bytes per partition (`None` = unbounded).
    pub max_bytes: Option<usize>,
}

impl RetentionPolicy {
    /// Keep everything forever (useful in tests and for audit topics).
    pub fn unbounded() -> Self {
        RetentionPolicy {
            max_age_ms: None,
            max_bytes: None,
        }
    }

    /// The paper's STREAM-tier default: 7 days, 1 GiB per partition.
    pub fn stream_default() -> Self {
        RetentionPolicy {
            max_age_ms: Some(7 * 86_400_000),
            max_bytes: Some(1024 * 1024 * 1024),
        }
    }

    /// Age-only policy.
    pub fn max_age_ms(ms: i64) -> Self {
        RetentionPolicy {
            max_age_ms: Some(ms),
            max_bytes: None,
        }
    }

    /// Size-only policy.
    pub fn max_bytes(bytes: usize) -> Self {
        RetentionPolicy {
            max_age_ms: None,
            max_bytes: Some(bytes),
        }
    }
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy::stream_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use crate::consumer::Consumer;
    use crate::partition::Partition;
    use bytes::Bytes;

    #[test]
    fn constructors() {
        assert_eq!(RetentionPolicy::unbounded().max_age_ms, None);
        assert_eq!(RetentionPolicy::max_age_ms(10).max_age_ms, Some(10));
        assert_eq!(RetentionPolicy::max_bytes(10).max_bytes, Some(10));
        let d = RetentionPolicy::default();
        assert_eq!(d.max_age_ms, Some(7 * 86_400_000));
    }

    /// One record per segment: segment_bytes=1 seals after every append.
    fn single_record_segments(policy: RetentionPolicy, timestamps: &[i64]) -> Partition {
        let mut p = Partition::with_segment_bytes(policy, 1);
        for &ts in timestamps {
            p.append(ts, None, Bytes::from_static(b"x"));
        }
        p
    }

    #[test]
    fn segment_exactly_at_age_cutoff_survives() {
        let mut p = single_record_segments(RetentionPolicy::max_age_ms(10_000), &[0, 1_000, 2_000]);
        // Age == max_age is NOT expired (the bound is strict): at
        // now=10_000 the ts=0 segment is exactly at the cutoff.
        assert_eq!(p.enforce_retention(10_000), 0);
        assert_eq!(p.earliest_offset(), 0);
        // One millisecond past the cutoff it goes — and only it.
        assert_eq!(p.enforce_retention(10_001), 1);
        assert_eq!(p.earliest_offset(), 1);
        assert_eq!(p.latest_offset(), 3);
    }

    #[test]
    fn size_exactly_at_cap_survives() {
        // 3 records of byte_size 17 each (16 header + 1 payload) = 51.
        let mut p = single_record_segments(RetentionPolicy::max_bytes(51), &[0, 0, 0]);
        assert_eq!(p.bytes(), 51);
        // total == max is NOT over the cap (the bound is strict).
        assert_eq!(p.enforce_retention(0), 0);
        // Lower the cap below the total via a fresh partition: drops
        // oldest segments until back under.
        let mut p = single_record_segments(RetentionPolicy::max_bytes(50), &[0, 0, 0]);
        assert_eq!(p.enforce_retention(0), 1);
        assert_eq!(p.bytes(), 34);
    }

    #[test]
    fn empty_topic_compaction_is_a_safe_noop() {
        let b = Broker::new();
        b.create_topic("empty", 4, RetentionPolicy::max_age_ms(1))
            .unwrap();
        assert_eq!(b.enforce_retention(i64::MAX / 2), 0);
        let t = b.topic("empty").unwrap();
        assert!(t.is_empty());
        assert_eq!(t.earliest_offset(0).unwrap(), 0);
        assert_eq!(t.latest_offset(0).unwrap(), 0);
        // Still writable and readable after the no-op compaction.
        b.produce("empty", 0, None, Bytes::from_static(b"v"))
            .unwrap();
        assert_eq!(b.fetch("empty", 0, 0, 10).unwrap().len(), 1);
    }

    #[test]
    fn reopen_after_truncation_resumes_at_horizon() {
        let mut p = single_record_segments(RetentionPolicy::max_age_ms(5_000), &[0; 10]);
        for (i, &ts) in [6_000i64, 7_000, 8_000].iter().enumerate() {
            let _ = i;
            p.append(ts, None, Bytes::from_static(b"x"));
        }
        assert!(p.enforce_retention(10_000) > 0);
        let earliest = p.earliest_offset();
        assert!(earliest > 0);
        // A reader parked below the horizon gets a reset error naming
        // the new earliest offset...
        let err = p.fetch(0, 10).unwrap_err();
        match err {
            crate::StreamError::OffsetOutOfRange {
                earliest: e,
                requested,
                ..
            } => {
                assert_eq!(e, earliest);
                assert_eq!(requested, 0);
            }
            other => panic!("expected OffsetOutOfRange, got {other:?}"),
        }
        // ...and reopening at the horizon reads the retained suffix.
        let recs = p.fetch(earliest, 100).unwrap();
        assert_eq!(recs.first().unwrap().offset, earliest);
        assert_eq!(recs.last().unwrap().offset, p.latest_offset() - 1);
    }

    #[test]
    fn consumer_skips_forward_over_truncated_range() {
        // Big payloads roll the broker's 4 MiB default segments so size
        // retention has sealed segments to drop.
        let b = Broker::new();
        b.create_topic("big", 1, RetentionPolicy::max_bytes(2 * 1024 * 1024))
            .unwrap();
        let mut c = Consumer::subscribe(b.clone(), "g", "big").unwrap();
        for i in 0..8 {
            b.produce("big", i, None, Bytes::from(vec![0u8; 1024 * 1024]))
                .unwrap();
        }
        assert!(b.enforce_retention(0) > 0, "size retention must trip");
        let t = b.topic("big").unwrap();
        let earliest = t.earliest_offset(0).unwrap();
        assert!(earliest > 0);
        // The consumer still sits at offset 0; its next poll transparently
        // resumes at the horizon instead of erroring out forever.
        let recs = c.poll(100).unwrap();
        assert_eq!(recs.first().unwrap().offset, earliest);
        assert_eq!(c.position(0), Some(t.latest_offset(0).unwrap()));
    }
}

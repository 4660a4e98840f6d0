//! LAKE — online time-partitioned store for real-time queries.
//!
//! The paper uses Apache Druid / ElasticSearch for "real-time diagnostics
//! and debugging" (§V-B): low-latency queries over recent time-series.
//! This implementation partitions points into fixed-width time segments
//! keyed by series name, so range queries touch only the covered
//! segments and retention drops whole segments.

use crate::metrics::LakeMetrics;
use oda_obs::{Registry, TraceEventKind};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};

/// One data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Timestamp (ms).
    pub ts_ms: i64,
    /// Value.
    pub value: f64,
}

#[derive(Default)]
struct SegmentData {
    /// series -> points in insertion order (sorted on query).
    series: HashMap<String, Vec<Point>>,
    points: usize,
}

/// Time-partitioned series store.
pub struct Lake {
    /// segment start ms -> segment.
    segments: RwLock<BTreeMap<i64, SegmentData>>,
    segment_ms: i64,
    retention_ms: i64,
    metrics: RwLock<Option<LakeMetrics>>,
}

impl Lake {
    /// Create with 1-hour segments and the paper's LAKE-class retention
    /// (weeks; 30 days here).
    pub fn new() -> Lake {
        Lake::with_layout(3_600_000, 30 * 86_400_000)
    }

    /// Create with explicit segment width and retention.
    pub fn with_layout(segment_ms: i64, retention_ms: i64) -> Lake {
        assert!(segment_ms > 0);
        Lake {
            segments: RwLock::new(BTreeMap::new()),
            segment_ms,
            retention_ms,
            metrics: RwLock::new(None),
        }
    }

    /// Count inserted/retained points and retention drops in `registry`
    /// and, when it carries a tracer, record `lake_insert` trace events
    /// (series, point count) into it. Observational only.
    pub fn attach_metrics(&self, registry: &Registry) {
        let m = LakeMetrics::new(registry);
        m.points.set(self.len() as i64);
        *self.metrics.write() = Some(m);
    }

    fn record_insert(&self, series: &str, points: u64) {
        if let Some(m) = self.metrics.read().as_ref() {
            m.inserted.add(points);
            m.points.add(points as i64);
            if let Some(tr) = &m.tracer {
                let ctx = oda_obs::fnv1a(series.as_bytes());
                tr.service_event(
                    "lake",
                    "insert",
                    ctx,
                    ctx,
                    TraceEventKind::LakeInsert {
                        series: series.to_string(),
                        points,
                    },
                );
            }
        }
    }

    fn segment_start(&self, ts_ms: i64) -> i64 {
        ts_ms.div_euclid(self.segment_ms) * self.segment_ms
    }

    /// Insert one point for `series`.
    pub fn insert(&self, series: &str, ts_ms: i64, value: f64) {
        let start = self.segment_start(ts_ms);
        let mut segs = self.segments.write();
        let seg = segs.entry(start).or_default();
        seg.series
            .entry(series.to_string())
            .or_default()
            .push(Point { ts_ms, value });
        seg.points += 1;
        drop(segs);
        self.record_insert(series, 1);
    }

    /// Insert many points for one series.
    pub fn insert_batch(&self, series: &str, points: &[Point]) {
        let mut segs = self.segments.write();
        for p in points {
            let start = self.segment_start(p.ts_ms);
            let seg = segs.entry(start).or_default();
            seg.series.entry(series.to_string()).or_default().push(*p);
            seg.points += 1;
        }
        drop(segs);
        self.record_insert(series, points.len() as u64);
    }

    /// Plan a read over `[t0, t1)` — the one query surface. Chain
    /// [`LakePlan::series`], optionally [`LakePlan::downsample`], then
    /// finish with [`LakePlan::points`] or [`LakePlan::aggregate`].
    pub fn plan(&self, t0: i64, t1: i64) -> LakePlan<'_> {
        LakePlan {
            lake: self,
            t0,
            t1,
            series: None,
            bucket_ms: None,
        }
    }

    /// Series names active in `[t0, t1)` with the given prefix.
    pub fn series_with_prefix(&self, prefix: &str, t0: i64, t1: i64) -> Vec<String> {
        let mut names = std::collections::BTreeSet::new();
        let first_seg = self.segment_start(t0);
        let segs = self.segments.read();
        for (_, seg) in segs.range(first_seg..t1) {
            for name in seg.series.keys() {
                if name.starts_with(prefix) {
                    names.insert(name.clone());
                }
            }
        }
        names.into_iter().collect()
    }

    /// Total retained points.
    pub fn len(&self) -> usize {
        self.segments.read().values().map(|s| s.points).sum()
    }

    /// True when no points are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop segments entirely older than the retention window; returns
    /// dropped points.
    pub fn enforce_retention(&self, now_ms: i64) -> usize {
        let horizon = self.segment_start(now_ms - self.retention_ms);
        let mut segs = self.segments.write();
        let expired: Vec<i64> = segs.range(..horizon).map(|(&k, _)| k).collect();
        let mut dropped = 0;
        for k in expired {
            if let Some(seg) = segs.remove(&k) {
                dropped += seg.points;
            }
        }
        drop(segs);
        if let Some(m) = self.metrics.read().as_ref() {
            m.retention_dropped.add(dropped as u64);
            m.points.sub(dropped as i64);
        }
        dropped
    }
}

impl Default for Lake {
    fn default() -> Self {
        Lake::new()
    }
}

/// A planned read over one time range — LAKE's analogue of the
/// pipeline's logical plan. Segment pruning is the pushdown: only
/// segments overlapping `[t0, t1)` are visited, never the whole store.
#[derive(Clone)]
pub struct LakePlan<'a> {
    lake: &'a Lake,
    t0: i64,
    t1: i64,
    series: Option<String>,
    bucket_ms: Option<i64>,
}

impl LakePlan<'_> {
    /// Select the series to read. Plans without a series yield nothing.
    pub fn series(mut self, name: &str) -> Self {
        self.series = Some(name.to_string());
        self
    }

    /// Downsample to one mean point per `bucket_ms` bucket (NaN points
    /// are skipped; empty buckets are absent).
    pub fn downsample(mut self, bucket_ms: i64) -> Self {
        assert!(bucket_ms > 0);
        self.bucket_ms = Some(bucket_ms);
        self
    }

    /// Raw points in range, sorted by time — segment-pruned scan.
    fn scan(&self) -> Vec<Point> {
        let Some(series) = &self.series else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let first_seg = self.lake.segment_start(self.t0);
        let segs = self.lake.segments.read();
        for (_, seg) in segs.range(first_seg..self.t1) {
            if let Some(points) = seg.series.get(series) {
                out.extend(
                    points
                        .iter()
                        .filter(|p| p.ts_ms >= self.t0 && p.ts_ms < self.t1)
                        .copied(),
                );
            }
        }
        out.sort_by_key(|p| p.ts_ms);
        out
    }

    /// Execute: the selected series' points, downsampled when
    /// [`LakePlan::downsample`] was set, ordered by time.
    pub fn points(&self) -> Vec<Point> {
        let pts = self.scan();
        let Some(bucket_ms) = self.bucket_ms else {
            return pts;
        };
        let mut acc: BTreeMap<i64, (f64, usize)> = BTreeMap::new();
        for p in pts {
            if p.value.is_nan() {
                continue;
            }
            let bucket = p.ts_ms.div_euclid(bucket_ms) * bucket_ms;
            let e = acc.entry(bucket).or_insert((0.0, 0));
            e.0 += p.value;
            e.1 += 1;
        }
        acc.into_iter()
            .map(|(ts_ms, (sum, n))| Point {
                ts_ms,
                value: sum / n as f64,
            })
            .collect()
    }

    /// Execute as an aggregate: (count, mean, min, max) over non-NaN
    /// points, `None` when nothing qualifies. Downsampling applies
    /// first when set.
    pub fn aggregate(&self) -> Option<(usize, f64, f64, f64)> {
        let pts = self.points();
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut n = 0usize;
        for p in &pts {
            if p.value.is_nan() {
                continue;
            }
            sum += p.value;
            min = min.min(p.value);
            max = max.max(p.value);
            n += 1;
        }
        if n == 0 {
            return None;
        }
        Some((n, sum / n as f64, min, max))
    }

    /// Deterministic one-line plan description: the range, the series,
    /// and how many retained segments the scan will visit.
    pub fn explain(&self) -> String {
        let segs = self.lake.segments.read();
        let first_seg = self.lake.segment_start(self.t0);
        let covered = segs.range(first_seg..self.t1).count();
        let total = segs.len();
        let series = match &self.series {
            Some(s) => format!("{s:?}"),
            None => "<none>".to_string(),
        };
        let down = match self.bucket_ms {
            Some(b) => format!(" downsample={b}"),
            None => String::new(),
        };
        format!(
            "LakeScan series={series} range=[{}, {}) segments={covered}/{total}{down}",
            self.t0, self.t1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_time_window() {
        let lake = Lake::with_layout(1_000, i64::MAX / 4);
        for i in 0..100 {
            lake.insert("s", i * 100, i as f64);
        }
        let pts = lake.plan(2_500, 5_000).series("s").points();
        assert_eq!(pts.first().unwrap().ts_ms, 2_500);
        assert_eq!(pts.last().unwrap().ts_ms, 4_900);
        assert!(pts.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
    }

    #[test]
    fn series_are_isolated() {
        let lake = Lake::new();
        lake.insert("a", 0, 1.0);
        lake.insert("b", 0, 2.0);
        assert_eq!(lake.plan(0, 10).series("a").points()[0].value, 1.0);
        assert_eq!(lake.plan(0, 10).series("b").points()[0].value, 2.0);
        assert!(lake.plan(0, 10).series("c").points().is_empty());
    }

    #[test]
    fn prefix_listing() {
        let lake = Lake::new();
        lake.insert("node42/power", 0, 1.0);
        lake.insert("node42/temp", 0, 1.0);
        lake.insert("node7/power", 0, 1.0);
        let names = lake.series_with_prefix("node42/", 0, 10);
        assert_eq!(
            names,
            vec!["node42/power".to_string(), "node42/temp".to_string()]
        );
    }

    #[test]
    fn aggregate_skips_nan() {
        let lake = Lake::new();
        lake.insert("s", 0, 1.0);
        lake.insert("s", 1, f64::NAN);
        lake.insert("s", 2, 3.0);
        let (n, mean, min, max) = lake.plan(0, 10).series("s").aggregate().unwrap();
        assert_eq!(n, 2);
        assert_eq!(mean, 2.0);
        assert_eq!(min, 1.0);
        assert_eq!(max, 3.0);
        assert!(lake.plan(100, 200).series("s").aggregate().is_none());
    }

    #[test]
    fn downsampling_buckets_means() {
        let lake = Lake::with_layout(10_000, i64::MAX / 4);
        for i in 0..100 {
            lake.insert("s", i * 100, i as f64);
        }
        let down = lake.plan(0, 10_000).series("s").downsample(1_000).points();
        assert_eq!(down.len(), 10);
        // Bucket 0 holds values 0..9 -> mean 4.5.
        assert_eq!(down[0].ts_ms, 0);
        assert!((down[0].value - 4.5).abs() < 1e-9);
        assert_eq!(down[9].ts_ms, 9_000);
        assert!((down[9].value - 94.5).abs() < 1e-9);
        // NaN points are skipped, empty buckets absent.
        lake.insert("t", 0, f64::NAN);
        lake.insert("t", 5_000, 2.0);
        let down = lake.plan(0, 10_000).series("t").downsample(1_000).points();
        assert_eq!(down.len(), 1);
        assert_eq!(down[0].ts_ms, 5_000);
    }

    #[test]
    fn retention_drops_old_segments() {
        let lake = Lake::with_layout(1_000, 5_000);
        for i in 0..20 {
            lake.insert("s", i * 1_000, 0.0);
        }
        let dropped = lake.enforce_retention(20_000);
        assert!(dropped > 0);
        assert!(lake.plan(0, 10_000).series("s").points().is_empty());
        assert!(!lake.plan(15_000, 20_000).series("s").points().is_empty());
    }

    #[test]
    fn attached_metrics_track_points_and_compaction() {
        let lake = Lake::with_layout(1_000, 5_000);
        lake.insert("pre", 0, 1.0);
        let reg = Registry::new();
        lake.attach_metrics(&reg); // baseline picks up the existing point
        for i in 0..10 {
            lake.insert("s", i * 1_000, 0.0);
        }
        lake.insert_batch(
            "s",
            &[
                Point {
                    ts_ms: 500,
                    value: 1.0,
                },
                Point {
                    ts_ms: 9_500,
                    value: 2.0,
                },
            ],
        );
        let dropped = lake.enforce_retention(12_000);
        assert!(dropped > 0);
        if oda_obs::enabled() {
            assert_eq!(reg.counter_value("lake_inserted_points_total", &[]), 12);
            assert_eq!(
                reg.counter_value("lake_retention_dropped_points_total", &[]),
                dropped as u64
            );
            assert_eq!(reg.gauge_value("lake_points", &[]), lake.len() as i64);
        }
    }

    #[test]
    fn plan_explains_and_reads_prune_segments() {
        let lake = Lake::with_layout(1_000, i64::MAX / 4);
        for i in 0..30 {
            lake.insert("s", i * 100, i as f64);
        }
        let plan = lake.plan(500, 2_500).series("s").downsample(1_000);
        assert_eq!(
            plan.explain(),
            "LakeScan series=\"s\" range=[500, 2500) segments=3/3 downsample=1000"
        );
        // A plan without a series reads nothing.
        assert!(lake.plan(0, 10_000).points().is_empty());
        assert!(lake.plan(0, 10_000).aggregate().is_none());
        // Downsampled buckets answer over the same pruned range:
        // ts 500..2400 step 100 lands in absolute buckets 0/1000/2000.
        let pts = plan.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].ts_ms, 0);
        assert_eq!(pts[1].value, 14.5); // mean of 10..=19
    }

    #[test]
    fn negative_timestamps_partition_correctly() {
        let lake = Lake::with_layout(1_000, i64::MAX / 4);
        lake.insert("s", -1_500, 1.0);
        lake.insert("s", -500, 2.0);
        let pts = lake.plan(-2_000, 0).series("s").points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].ts_ms, -1_500);
    }
}

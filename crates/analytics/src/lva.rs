//! Live Visual Analytics (Fig. 8): interactive queries over years of
//! power-profile history.
//!
//! The paper's claim: a "specialized data refinement pipeline that
//! delivers contextualized job power profiles ... vastly reduces the
//! amount of processing required in interactive queries". Reproduced as
//! two query paths over the same data:
//!
//! * [`LvaIndex`] — the precomputed Silver path: profiles indexed by
//!   time and attribute; interactive queries are lookups + reductions.
//! * [`scan_bronze_for_summaries`] — the baseline: re-derive the same
//!   answer from Bronze long rows at query time (window, aggregate,
//!   contextualize). The `lva_query` bench shows the gap.

use crate::profiles::{extract_profiles, JobPowerProfile};
use oda_pipeline::{Frame, PipelineError};
use oda_telemetry::jobs::Job;
use serde::Serialize;
use std::collections::BTreeMap;

/// Interactive query result row: one job's power summary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProfileSummary {
    /// Job id.
    pub job_id: u64,
    /// Archetype label.
    pub archetype: String,
    /// Nodes allocated.
    pub nodes: usize,
    /// Mean per-node power (W).
    pub mean_w: f64,
    /// Peak per-node power (W).
    pub peak_w: f64,
    /// Covered duration (s).
    pub duration_s: f64,
    /// Whole-job energy (kWh).
    pub energy_kwh: f64,
}

impl ProfileSummary {
    fn of(p: &JobPowerProfile) -> ProfileSummary {
        ProfileSummary {
            job_id: p.job_id,
            archetype: p.archetype.clone(),
            nodes: p.nodes,
            mean_w: p.mean_w(),
            peak_w: p.peak_w(),
            duration_s: p.duration_s(),
            energy_kwh: p.energy_kwh(),
        }
    }
}

/// Precomputed profile index: the Silver-backed interactive path.
#[derive(Debug, Default)]
pub struct LvaIndex {
    /// job id -> profile.
    profiles: BTreeMap<u64, JobPowerProfile>,
    /// start_ms -> job ids starting then.
    by_start: BTreeMap<i64, Vec<u64>>,
}

impl LvaIndex {
    /// Empty index.
    pub fn new() -> LvaIndex {
        LvaIndex::default()
    }

    /// Build from precomputed profiles.
    pub fn build(profiles: Vec<JobPowerProfile>) -> LvaIndex {
        let mut idx = LvaIndex::new();
        for p in profiles {
            idx.insert(p);
        }
        idx
    }

    /// Insert (or replace) one profile — the incremental path fed by the
    /// streaming pipeline.
    pub fn insert(&mut self, p: JobPowerProfile) {
        // Replacement must drop the old time-index entry or range
        // queries would return the job twice.
        if let Some(old) = self.profiles.get(&p.job_id) {
            if let Some(ids) = self.by_start.get_mut(&old.start_ms) {
                ids.retain(|&id| id != p.job_id);
                if ids.is_empty() {
                    self.by_start.remove(&old.start_ms);
                }
            }
        }
        self.by_start.entry(p.start_ms).or_default().push(p.job_id);
        self.profiles.insert(p.job_id, p);
    }

    /// Number of indexed profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when no profiles are indexed.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Profile of one job.
    pub fn profile(&self, job_id: u64) -> Option<&JobPowerProfile> {
        self.profiles.get(&job_id)
    }

    /// Summaries of jobs *starting* in `[t0, t1)` — the interactive
    /// "zoom into a time range" query of Fig. 8.
    pub fn query_range(&self, t0: i64, t1: i64) -> Vec<ProfileSummary> {
        let mut out = Vec::new();
        for (_, ids) in self.by_start.range(t0..t1) {
            for id in ids {
                out.push(ProfileSummary::of(&self.profiles[id]));
            }
        }
        out
    }

    /// Facility-level power line: total indexed job power per window
    /// over `[t0, t1)`, the "system view" panel of Fig. 8.
    pub fn system_power_series(&self, t0: i64, t1: i64, window_ms: i64) -> Vec<(i64, f64)> {
        let mut acc: BTreeMap<i64, f64> = BTreeMap::new();
        for p in self.profiles.values() {
            if p.end_ms() <= t0 || p.start_ms >= t1 {
                continue;
            }
            for (i, &s) in p.samples.iter().enumerate() {
                if s.is_nan() {
                    continue;
                }
                let w = p.start_ms + i as i64 * p.window_ms;
                if w < t0 || w >= t1 {
                    continue;
                }
                let bucket = w.div_euclid(window_ms) * window_ms;
                *acc.entry(bucket).or_insert(0.0) += s * p.nodes as f64;
            }
        }
        acc.into_iter().collect()
    }
}

/// Baseline: answer the same range query by re-deriving profiles from
/// Bronze at query time (the cost LVA's precomputation removes).
///
/// `bronze` is the raw long frame (`ts_ms`, `node`, `sensor`, `value`,
/// `quality`); the function windows, aggregates, contextualizes, and
/// summarizes — per query.
pub fn scan_bronze_for_summaries(
    bronze: &Frame,
    jobs: &[Job],
    window_ms: i64,
    t0: i64,
    t1: i64,
) -> Result<Vec<ProfileSummary>, PipelineError> {
    use oda_pipeline::logical::Query;
    use oda_pipeline::ops::{Agg, AggSpec};
    use oda_pipeline::Expr;

    // Quality filter + window + aggregate — the Bronze->Silver work,
    // phrased as one planned query (the quality predicate is pushed
    // into the scan).
    let silver = Query::scan(bronze.clone())
        .filter(
            Expr::col("quality")
                .eq_(Expr::LitI(0))
                .and(Expr::col("value").is_nan().not()),
        )
        .window("ts_ms", window_ms)
        .group_by(
            &["window", "node", "sensor"],
            &[AggSpec::new("value", Agg::Mean, "mean")],
        )
        .execute()?;
    let profiles = extract_profiles(&silver, jobs, window_ms)?;
    Ok(profiles
        .iter()
        .filter(|p| p.start_ms >= t0 && p.start_ms < t1)
        .map(ProfileSummary::of)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_storage::colfile::ColumnData;
    use oda_telemetry::jobs::ApplicationArchetype;

    fn profile(id: u64, start: i64, samples: Vec<f64>, archetype: &str) -> JobPowerProfile {
        JobPowerProfile {
            job_id: id,
            archetype: archetype.into(),
            program: 0,
            user: 0,
            nodes: 2,
            start_ms: start,
            window_ms: 15_000,
            samples,
        }
    }

    #[test]
    fn range_query_selects_by_start() {
        let idx = LvaIndex::build(vec![
            profile(1, 0, vec![100.0], "hpl"),
            profile(2, 50_000, vec![200.0], "md"),
            profile(3, 100_000, vec![300.0], "md"),
        ]);
        let rows = idx.query_range(40_000, 100_000);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].job_id, 2);
        assert_eq!(rows[0].mean_w, 200.0);
        assert_eq!(idx.query_range(0, 200_000).len(), 3);
    }

    #[test]
    fn reinsert_replaces_without_duplicates() {
        let mut idx = LvaIndex::new();
        idx.insert(profile(7, 0, vec![100.0], "hpl"));
        // The streaming pipeline refines the same job later with more
        // windows and a corrected start.
        idx.insert(profile(7, 15_000, vec![100.0, 110.0], "hpl"));
        assert_eq!(idx.len(), 1);
        let rows = idx.query_range(0, 100_000);
        assert_eq!(rows.len(), 1, "stale time-index entry leaked: {rows:?}");
        assert_eq!(rows[0].duration_s, 30.0);
    }

    #[test]
    fn system_power_sums_concurrent_jobs() {
        let idx = LvaIndex::build(vec![
            profile(1, 0, vec![100.0, 100.0], "hpl"), // 2 nodes x 100 W
            profile(2, 0, vec![50.0], "md"),          // 2 nodes x 50 W
        ]);
        let series = idx.system_power_series(0, 30_000, 15_000);
        assert_eq!(series[0], (0, 2.0 * 100.0 + 2.0 * 50.0));
        assert_eq!(series[1], (15_000, 200.0));
    }

    #[test]
    fn index_and_bronze_scan_agree() {
        // Build tiny bronze data covering one job, then compare paths.
        let jobs = vec![Job {
            id: 7,
            user: 0,
            project: "PRJ000".into(),
            program: 0,
            archetype: ApplicationArchetype::Hpl,
            nodes: vec![0],
            submit_ms: 0,
            start_ms: 0,
            end_ms: 30_000,
            phase: 0.0,
        }];
        let n = 30;
        let bronze = Frame::new(vec![
            (
                "ts_ms".into(),
                ColumnData::I64((0..n).map(|i| i * 1_000).collect()),
            ),
            ("node".into(), ColumnData::I64(vec![0; n as usize].into())),
            (
                "sensor".into(),
                ColumnData::Str(vec!["node_power_w".into(); n as usize].into()),
            ),
            (
                "value".into(),
                ColumnData::F64(vec![500.0; n as usize].into()),
            ),
            (
                "quality".into(),
                ColumnData::I64(vec![0; n as usize].into()),
            ),
        ])
        .unwrap();
        let scanned = scan_bronze_for_summaries(&bronze, &jobs, 15_000, 0, 60_000).unwrap();
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].mean_w, 500.0);
        // Index path over the same silver product.
        use oda_pipeline::ops::{group_by, Agg, AggSpec};
        use oda_pipeline::window::assign_window;
        let windowed = assign_window(&bronze, "ts_ms", 15_000).unwrap();
        let silver = group_by(
            &windowed,
            &["window", "node", "sensor"],
            &[AggSpec::new("value", Agg::Mean, "mean")],
        )
        .unwrap();
        let idx = LvaIndex::build(extract_profiles(&silver, &jobs, 15_000).unwrap());
        let indexed = idx.query_range(0, 60_000);
        assert_eq!(indexed, scanned);
    }

    /// The summary row's JSON, byte for byte.
    #[test]
    fn summary_bytes_are_pinned() {
        let s = ProfileSummary {
            job_id: 7,
            archetype: "hpl".to_string(),
            nodes: 4,
            mean_w: 350.5,
            peak_w: 512.0,
            duration_s: 3600.0,
            energy_kwh: 1.402,
        };
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            r#"{"job_id":7,"archetype":"hpl","nodes":4,"mean_w":350.5,"peak_w":512,"duration_s":3600,"energy_kwh":1.402}"#
        );
    }
}

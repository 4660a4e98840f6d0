//! Contextualized job power profiles.
//!
//! The paper's LVA is enabled by "a specialized data refinement pipeline
//! that delivers contextualized job power profiles" (§VII-B). This
//! module performs that contextualization: Silver long rows
//! (window, node, sensor, mean) are joined against job allocations in
//! time and space, then reduced to one power-vs-time series per job.

use oda_pipeline::Frame;
use oda_telemetry::jobs::Job;
use std::collections::{BTreeMap, HashMap};

/// One job's power-vs-time series.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPowerProfile {
    /// Job id.
    pub job_id: u64,
    /// Ground-truth archetype label (for classifier experiments).
    pub archetype: String,
    /// Allocation program index.
    pub program: u8,
    /// Owning user.
    pub user: u32,
    /// Nodes allocated.
    pub nodes: usize,
    /// First window start (ms).
    pub start_ms: i64,
    /// Aggregation window width (ms).
    pub window_ms: i64,
    /// Mean per-node power per window, in window order (gaps are NaN).
    pub samples: Vec<f64>,
}

impl JobPowerProfile {
    /// Mean of non-NaN samples.
    pub fn mean_w(&self) -> f64 {
        let (sum, n) = self
            .samples
            .iter()
            .filter(|v| !v.is_nan())
            .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }

    /// Peak non-NaN sample.
    pub fn peak_w(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(f64::NAN, f64::max)
    }

    /// Covered duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.samples.len() as f64 * self.window_ms as f64 / 1_000.0
    }

    /// Whole-job energy in kWh (mean node power x nodes x duration).
    pub fn energy_kwh(&self) -> f64 {
        let mean = self.mean_w();
        if mean.is_nan() {
            return 0.0;
        }
        mean * self.nodes as f64 * self.duration_s() / 3.6e6
    }

    /// End of the last window (ms).
    pub fn end_ms(&self) -> i64 {
        self.start_ms + self.samples.len() as i64 * self.window_ms
    }
}

/// Extract per-job power profiles from Silver long rows.
///
/// `silver` must have columns `window` (I64), `node` (I64), `sensor`
/// (Dict or Str — read through `Frame::cat`), `mean` (F64) — the output
/// of the streaming Bronze→Silver transform. Only `node_power_w` rows
/// participate.
pub fn extract_profiles(
    silver: &Frame,
    jobs: &[Job],
    window_ms: i64,
) -> Result<Vec<JobPowerProfile>, oda_pipeline::PipelineError> {
    let windows = silver.i64s("window")?;
    let nodes = silver.i64s("node")?;
    let sensors = silver.cat("sensor")?;
    let means = silver.f64s("mean")?;

    // node -> [(start, end, job index)], sorted by start.
    let mut node_jobs: HashMap<u32, Vec<(i64, i64, usize)>> = HashMap::new();
    for (ji, job) in jobs.iter().enumerate() {
        for &n in &job.nodes {
            node_jobs
                .entry(n)
                .or_default()
                .push((job.start_ms, job.end_ms, ji));
        }
    }
    for intervals in node_jobs.values_mut() {
        intervals.sort_unstable();
    }

    // (job index, window) -> (sum, count) of node means.
    let mut cells: HashMap<(usize, i64), (f64, u64)> = HashMap::new();
    for i in 0..silver.rows() {
        if sensors.get(i) != "node_power_w" || means[i].is_nan() {
            continue;
        }
        let node = nodes[i] as u32;
        let w = windows[i];
        let Some(intervals) = node_jobs.get(&node) else {
            continue;
        };
        // Window belongs to the job covering its start.
        let Some(&(_, _, ji)) = intervals.iter().find(|&&(s, e, _)| w >= s && w < e) else {
            continue;
        };
        let cell = cells.entry((ji, w)).or_insert((0.0, 0));
        cell.0 += means[i];
        cell.1 += 1;
    }

    // Per job: dense window series from first to last observed window.
    let mut per_job: HashMap<usize, BTreeMap<i64, f64>> = HashMap::new();
    for ((ji, w), (sum, n)) in cells {
        per_job.entry(ji).or_default().insert(w, sum / n as f64);
    }

    let mut out = Vec::with_capacity(per_job.len());
    for (ji, series) in per_job {
        let job = &jobs[ji];
        let (&first, _) = series.first_key_value().expect("non-empty series");
        let (&last, _) = series.last_key_value().expect("non-empty series");
        let len = ((last - first) / window_ms + 1) as usize;
        let mut samples = vec![f64::NAN; len];
        for (w, v) in series {
            samples[((w - first) / window_ms) as usize] = v;
        }
        out.push(JobPowerProfile {
            job_id: job.id,
            archetype: job.archetype.label().to_string(),
            program: job.program,
            user: job.user,
            nodes: job.nodes.len(),
            start_ms: first,
            window_ms,
            samples,
        });
    }
    out.sort_by_key(|p| p.job_id);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_storage::colfile::ColumnData;
    use oda_telemetry::jobs::ApplicationArchetype;

    fn job(id: u64, nodes: Vec<u32>, start: i64, end: i64) -> Job {
        Job {
            id,
            user: 1,
            project: "PRJ000".into(),
            program: 0,
            archetype: ApplicationArchetype::MolecularDynamics,
            nodes,
            submit_ms: start,
            start_ms: start,
            end_ms: end,
            phase: 0.0,
        }
    }

    fn silver(rows: &[(i64, i64, &str, f64)]) -> Frame {
        Frame::new(vec![
            (
                "window".into(),
                ColumnData::I64(rows.iter().map(|r| r.0).collect()),
            ),
            (
                "node".into(),
                ColumnData::I64(rows.iter().map(|r| r.1).collect()),
            ),
            (
                "sensor".into(),
                ColumnData::Str(rows.iter().map(|r| r.2.to_string()).collect()),
            ),
            (
                "mean".into(),
                ColumnData::F64(rows.iter().map(|r| r.3).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn profile_averages_over_job_nodes() {
        let jobs = vec![job(5, vec![0, 1], 0, 30_000)];
        let f = silver(&[
            (0, 0, "node_power_w", 100.0),
            (0, 1, "node_power_w", 200.0),
            (15_000, 0, "node_power_w", 110.0),
            (15_000, 1, "node_power_w", 210.0),
            (0, 0, "node_inlet_temp_c", 21.0), // ignored
        ]);
        let profiles = extract_profiles(&f, &jobs, 15_000).unwrap();
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.job_id, 5);
        assert_eq!(p.samples, vec![150.0, 160.0]);
        assert_eq!(p.nodes, 2);
        assert!((p.mean_w() - 155.0).abs() < 1e-9);
        assert_eq!(p.peak_w(), 160.0);
    }

    #[test]
    fn windows_outside_job_are_excluded() {
        let jobs = vec![job(1, vec![0], 15_000, 30_000)];
        let f = silver(&[
            (0, 0, "node_power_w", 999.0),      // before job
            (15_000, 0, "node_power_w", 100.0), // in job
            (30_000, 0, "node_power_w", 999.0), // after job
        ]);
        let profiles = extract_profiles(&f, &jobs, 15_000).unwrap();
        assert_eq!(profiles[0].samples, vec![100.0]);
    }

    #[test]
    fn gaps_become_nan() {
        let jobs = vec![job(1, vec![0], 0, 60_000)];
        let f = silver(&[
            (0, 0, "node_power_w", 100.0),
            (45_000, 0, "node_power_w", 130.0),
        ]);
        let profiles = extract_profiles(&f, &jobs, 15_000).unwrap();
        let p = &profiles[0];
        assert_eq!(p.samples.len(), 4);
        assert!(p.samples[1].is_nan() && p.samples[2].is_nan());
        assert!((p.mean_w() - 115.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_jobs_separated() {
        let jobs = vec![job(1, vec![0], 0, 30_000), job(2, vec![1], 0, 30_000)];
        let f = silver(&[(0, 0, "node_power_w", 100.0), (0, 1, "node_power_w", 500.0)]);
        let profiles = extract_profiles(&f, &jobs, 15_000).unwrap();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].samples, vec![100.0]);
        assert_eq!(profiles[1].samples, vec![500.0]);
    }

    #[test]
    fn sequential_jobs_on_same_node() {
        let jobs = vec![job(1, vec![0], 0, 15_000), job(2, vec![0], 15_000, 30_000)];
        let f = silver(&[
            (0, 0, "node_power_w", 100.0),
            (15_000, 0, "node_power_w", 200.0),
        ]);
        let profiles = extract_profiles(&f, &jobs, 15_000).unwrap();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].samples, vec![100.0]);
        assert_eq!(profiles[1].samples, vec![200.0]);
    }

    #[test]
    fn energy_accounting() {
        let p = JobPowerProfile {
            job_id: 1,
            archetype: "hpl".into(),
            program: 0,
            user: 0,
            nodes: 100,
            start_ms: 0,
            window_ms: 15_000,
            samples: vec![1_000.0; 240], // 1 kW x 1 hour
        };
        // 1kW x 100 nodes x 1h = 100 kWh.
        assert!((p.energy_kwh() - 100.0).abs() < 1e-6);
        assert_eq!(p.duration_s(), 3_600.0);
        assert_eq!(p.end_ms(), 3_600_000);
    }
}

//! Per-job I/O characterization (the Darshan role, §IV-B).
//!
//! The paper leverages "per-job instrumentation based on technologies
//! such as Darshan" for I/O data. Here the same artifact is derived
//! from the Silver stream: the filesystem client counters are monotonic
//! per node, so a job's I/O volume is the counter rise over its
//! allocation — max(counter) − min(counter) per node, summed over the
//! job's nodes, split by read/write.

use oda_pipeline::{Frame, PipelineError};
use oda_telemetry::jobs::Job;
use std::collections::HashMap;

/// One job's I/O summary.
#[derive(Debug, Clone, PartialEq)]
pub struct JobIoProfile {
    /// Job id.
    pub job_id: u64,
    /// Bytes read from the parallel filesystem.
    pub read_bytes: f64,
    /// Bytes written.
    pub write_bytes: f64,
    /// Nodes allocated.
    pub nodes: usize,
    /// Wall time in seconds.
    pub duration_s: f64,
}

impl JobIoProfile {
    /// Aggregate I/O bandwidth in MB/s across the job.
    pub fn bandwidth_mb_s(&self) -> f64 {
        if self.duration_s <= 0.0 {
            return 0.0;
        }
        (self.read_bytes + self.write_bytes) / 1e6 / self.duration_s
    }

    /// Write fraction of total traffic (NaN when no traffic).
    pub fn write_fraction(&self) -> f64 {
        let total = self.read_bytes + self.write_bytes;
        if total <= 0.0 {
            f64::NAN
        } else {
            self.write_bytes / total
        }
    }
}

/// Extract per-job I/O profiles from Silver long rows.
///
/// `silver` needs columns `window` (I64), `node` (I64), `sensor` (Dict
/// or Str — read through `Frame::cat`), `min` (F64), `max` (F64) — the
/// streaming Silver output, which keeps per-window counter extremes.
/// Counter sensors: `fs_read_bytes`, `fs_write_bytes`.
pub fn extract_io_profiles(
    silver: &Frame,
    jobs: &[Job],
) -> Result<Vec<JobIoProfile>, PipelineError> {
    let windows = silver.i64s("window")?;
    let nodes = silver.i64s("node")?;
    let sensors = silver.cat("sensor")?;
    let mins = silver.f64s("min")?;
    let maxs = silver.f64s("max")?;

    // node -> [(start, end, job idx)].
    let mut node_jobs: HashMap<u32, Vec<(i64, i64, usize)>> = HashMap::new();
    for (ji, job) in jobs.iter().enumerate() {
        for &n in &job.nodes {
            node_jobs
                .entry(n)
                .or_default()
                .push((job.start_ms, job.end_ms, ji));
        }
    }

    // (job, node, is_write) -> (first counter min, last counter max).
    #[derive(Clone, Copy)]
    struct Span {
        first_w: i64,
        first_min: f64,
        last_w: i64,
        last_max: f64,
    }
    let mut spans: HashMap<(usize, i64, bool), Span> = HashMap::new();
    for i in 0..silver.rows() {
        let is_write = match sensors.get(i) {
            "fs_read_bytes" => false,
            "fs_write_bytes" => true,
            _ => continue,
        };
        if mins[i].is_nan() || maxs[i].is_nan() {
            continue;
        }
        let node = nodes[i] as u32;
        let w = windows[i];
        let Some(intervals) = node_jobs.get(&node) else {
            continue;
        };
        let Some(&(_, _, ji)) = intervals.iter().find(|&&(s, e, _)| w >= s && w < e) else {
            continue;
        };
        let entry = spans.entry((ji, nodes[i], is_write)).or_insert(Span {
            first_w: w,
            first_min: mins[i],
            last_w: w,
            last_max: maxs[i],
        });
        if w < entry.first_w {
            entry.first_w = w;
            entry.first_min = mins[i];
        }
        if w >= entry.last_w {
            entry.last_w = w;
            entry.last_max = maxs[i];
        }
    }

    let mut per_job: HashMap<usize, (f64, f64)> = HashMap::new();
    for ((ji, _, is_write), span) in spans {
        let delta = (span.last_max - span.first_min).max(0.0);
        let acc = per_job.entry(ji).or_insert((0.0, 0.0));
        if is_write {
            acc.1 += delta;
        } else {
            acc.0 += delta;
        }
    }
    let mut out: Vec<JobIoProfile> = per_job
        .into_iter()
        .map(|(ji, (read, write))| {
            let job = &jobs[ji];
            JobIoProfile {
                job_id: job.id,
                read_bytes: read,
                write_bytes: write,
                nodes: job.nodes.len(),
                duration_s: job.duration_s(),
            }
        })
        .collect();
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
            user: 0,
            project: "PRJ000".into(),
            program: 0,
            archetype: ApplicationArchetype::DataAnalytics,
            nodes,
            submit_ms: start,
            start_ms: start,
            end_ms: end,
            phase: 0.0,
        }
    }

    /// rows: (window, node, sensor, min, max).
    fn silver(rows: &[(i64, i64, &str, f64, f64)]) -> Frame {
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
                "min".into(),
                ColumnData::F64(rows.iter().map(|r| r.3).collect()),
            ),
            (
                "max".into(),
                ColumnData::F64(rows.iter().map(|r| r.4).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn counter_rise_attributed_to_job() {
        let jobs = vec![job(1, vec![0], 0, 60_000)];
        let f = silver(&[
            (0, 0, "fs_read_bytes", 1_000.0, 2_000.0),
            (30_000, 0, "fs_read_bytes", 2_000.0, 9_000.0),
            (0, 0, "fs_write_bytes", 0.0, 500.0),
            (30_000, 0, "fs_write_bytes", 500.0, 1_500.0),
        ]);
        let profiles = extract_io_profiles(&f, &jobs).unwrap();
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].read_bytes, 8_000.0);
        assert_eq!(profiles[0].write_bytes, 1_500.0);
        assert!((profiles[0].write_fraction() - 1_500.0 / 9_500.0).abs() < 1e-12);
    }

    #[test]
    fn multi_node_jobs_sum_per_node_deltas() {
        let jobs = vec![job(1, vec![0, 1], 0, 60_000)];
        let f = silver(&[
            (0, 0, "fs_read_bytes", 0.0, 100.0),
            (0, 1, "fs_read_bytes", 1_000.0, 1_300.0),
        ]);
        let profiles = extract_io_profiles(&f, &jobs).unwrap();
        assert_eq!(profiles[0].read_bytes, 100.0 + 300.0);
        assert_eq!(profiles[0].nodes, 2);
    }

    #[test]
    fn counters_outside_job_window_ignored() {
        let jobs = vec![job(1, vec![0], 30_000, 60_000)];
        let f = silver(&[
            (0, 0, "fs_read_bytes", 0.0, 1_000_000.0), // before the job
            (30_000, 0, "fs_read_bytes", 1_000_000.0, 1_000_100.0),
        ]);
        let profiles = extract_io_profiles(&f, &jobs).unwrap();
        assert_eq!(profiles[0].read_bytes, 100.0);
    }

    #[test]
    fn non_counter_sensors_do_not_contribute() {
        let jobs = vec![job(1, vec![0], 0, 60_000)];
        let f = silver(&[
            (0, 0, "node_power_w", 500.0, 600.0),
            (0, 0, "fs_meta_ops", 0.0, 100.0),
        ]);
        let profiles = extract_io_profiles(&f, &jobs).unwrap();
        assert!(profiles.is_empty());
    }

    #[test]
    fn bandwidth_math() {
        let p = JobIoProfile {
            job_id: 1,
            read_bytes: 6e8,
            write_bytes: 4e8,
            nodes: 4,
            duration_s: 100.0,
        };
        assert!((p.bandwidth_mb_s() - 10.0).abs() < 1e-9);
        assert!((p.write_fraction() - 0.4).abs() < 1e-12);
    }
}

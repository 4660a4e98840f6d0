//! RATS-Report (Fig. 7): per-program resource usage and burn rates.
//!
//! "Comprehensive insights into usage data such as node-hours on compute
//! resources ... A key feature is its capability to track burn rates for
//! project allocations" (§VII-B).

use oda_pipeline::logical::Query;
use oda_pipeline::ops::{Agg, AggSpec};
use oda_pipeline::Frame;
use oda_storage::colfile::ColumnData;
use oda_telemetry::jobs::{Job, PROGRAMS};
use oda_telemetry::system::SystemModel;
use serde::Serialize;

/// One program's usage row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProgramUsage {
    /// Program name ("INCITE", ...).
    pub program: String,
    /// Completed jobs charged to the program.
    pub jobs: u64,
    /// Node-hours consumed.
    pub node_hours: f64,
    /// CPU core-hours (sockets x hours; the Fig. 7 CPU series).
    pub cpu_hours: f64,
    /// GPU-hours (the Fig. 7 GPU series).
    pub gpu_hours: f64,
    /// Yearly node-hour allocation.
    pub allocation_node_hours: f64,
    /// Fraction of the allocation consumed.
    pub burn_rate: f64,
}

/// The compiled report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RatsReport {
    /// Per-program rows, in [`PROGRAMS`] order.
    pub rows: Vec<ProgramUsage>,
    /// Total node-hours across programs.
    pub total_node_hours: f64,
}

impl RatsReport {
    /// Compile the report from a job history on `system`.
    ///
    /// `allocation_node_hours` is each program's yearly allocation (one
    /// entry per [`PROGRAMS`] element; missing entries default from the
    /// system's capacity share).
    pub fn compile(jobs: &[Job], system: &SystemModel, allocations: &[f64]) -> RatsReport {
        let mut rows: Vec<ProgramUsage> = PROGRAMS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                // Default allocation: equal share of 60% of yearly capacity.
                let default_alloc =
                    f64::from(system.node_count()) * 8_760.0 * 0.6 / PROGRAMS.len() as f64;
                ProgramUsage {
                    program: (*name).to_string(),
                    jobs: 0,
                    node_hours: 0.0,
                    cpu_hours: 0.0,
                    gpu_hours: 0.0,
                    allocation_node_hours: allocations.get(i).copied().unwrap_or(default_alloc),
                    burn_rate: 0.0,
                }
            })
            .collect();
        // Attribute usage with a planned aggregate over the job log —
        // the same query surface the rest of the stack uses. Programs
        // without jobs keep their zeroed default row.
        let usage = Frame::new(vec![
            (
                "program".into(),
                ColumnData::I64(
                    jobs.iter()
                        .map(|j| (usize::from(j.program) % PROGRAMS.len()) as i64)
                        .collect(),
                ),
            ),
            (
                "node_hours".into(),
                ColumnData::F64(jobs.iter().map(Job::node_hours).collect()),
            ),
        ])
        .expect("usage columns are aligned");
        let per_program = Query::scan(usage)
            .group_by(
                &["program"],
                &[
                    AggSpec::new("node_hours", Agg::Sum, "node_hours"),
                    AggSpec::new("node_hours", Agg::Count, "jobs"),
                ],
            )
            .execute()
            .expect("usage frame is well-typed");
        let programs = per_program.i64s("program").expect("key column");
        let node_hours = per_program.f64s("node_hours").expect("sum column");
        let job_counts = per_program.i64s("jobs").expect("count column");
        for ((&p, &nh), &n) in programs.iter().zip(node_hours).zip(job_counts) {
            let row = &mut rows[p as usize];
            row.jobs = n as u64;
            row.node_hours = nh;
            row.cpu_hours = nh * f64::from(system.cpus_per_node);
            row.gpu_hours = nh * f64::from(system.gpus_per_node);
        }
        for row in &mut rows {
            row.burn_rate = if row.allocation_node_hours > 0.0 {
                row.node_hours / row.allocation_node_hours
            } else {
                0.0
            };
        }
        let total_node_hours = rows.iter().map(|r| r.node_hours).sum();
        RatsReport {
            rows,
            total_node_hours,
        }
    }

    /// Render as an aligned text table (what the dashboard displays).
    pub fn to_table(&self) -> String {
        let mut out =
            String::from("program   jobs   node-hours     cpu-hours     gpu-hours   burn\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:<8} {:>5} {:>12.1} {:>13.1} {:>13.1} {:>5.1}%\n",
                r.program,
                r.jobs,
                r.node_hours,
                r.cpu_hours,
                r.gpu_hours,
                r.burn_rate * 100.0
            ));
        }
        out.push_str(&format!("total node-hours: {:.1}\n", self.total_node_hours));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_telemetry::jobs::ApplicationArchetype;

    fn job(program: u8, nodes: usize, hours: f64) -> Job {
        Job {
            id: 1,
            user: 0,
            project: "PRJ000".into(),
            program,
            archetype: ApplicationArchetype::MolecularDynamics,
            nodes: (0..nodes as u32).collect(),
            submit_ms: 0,
            start_ms: 0,
            end_ms: (hours * 3_600_000.0) as i64,
            phase: 0.0,
        }
    }

    #[test]
    fn usage_attributed_to_programs() {
        let sys = SystemModel::compass();
        let jobs = vec![job(0, 10, 2.0), job(0, 5, 1.0), job(3, 100, 10.0)];
        let r = RatsReport::compile(&jobs, &sys, &[]);
        assert_eq!(r.rows[0].jobs, 2);
        assert!((r.rows[0].node_hours - 25.0).abs() < 1e-9);
        assert_eq!(r.rows[3].jobs, 1);
        assert!((r.rows[3].node_hours - 1_000.0).abs() < 1e-9);
        assert!((r.total_node_hours - 1_025.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_gpu_split_uses_topology() {
        let sys = SystemModel::compass(); // 1 CPU, 8 GPUs per node
        let r = RatsReport::compile(&[job(0, 10, 1.0)], &sys, &[]);
        assert!((r.rows[0].cpu_hours - 10.0).abs() < 1e-9);
        assert!((r.rows[0].gpu_hours - 80.0).abs() < 1e-9);
        // GPU-hours dominate on a GPU-dense machine — the Fig. 7 shape.
        assert!(r.rows[0].gpu_hours > r.rows[0].cpu_hours);
    }

    #[test]
    fn burn_rate_against_allocation() {
        let sys = SystemModel::tiny();
        let mut allocs = vec![0.0; 8];
        allocs[0] = 100.0;
        let r = RatsReport::compile(&[job(0, 10, 5.0)], &sys, &allocs);
        assert!((r.rows[0].burn_rate - 0.5).abs() < 1e-9);
    }

    #[test]
    fn table_renders_every_program() {
        let sys = SystemModel::tiny();
        let table = RatsReport::compile(&[], &sys, &[]).to_table();
        for p in PROGRAMS {
            assert!(table.contains(p), "missing {p}");
        }
    }

    /// The report's JSON, byte for byte.
    #[test]
    fn report_bytes_are_pinned() {
        let report = RatsReport {
            rows: vec![ProgramUsage {
                program: "INCITE".to_string(),
                jobs: 3,
                node_hours: 12.5,
                cpu_hours: 25.0,
                gpu_hours: 100.0,
                allocation_node_hours: 1000.0,
                burn_rate: 0.0125,
            }],
            total_node_hours: 12.5,
        };
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            r#"{"rows":[{"program":"INCITE","jobs":3,"node_hours":12.5,"cpu_hours":25,"gpu_hours":100,"allocation_node_hours":1000,"burn_rate":0.0125}],"total_node_hours":12.5}"#
        );
    }
}

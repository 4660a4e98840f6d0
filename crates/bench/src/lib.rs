//! Shared workload builders for the benchmark harness.
//!
//! Every bench regenerates one of the paper's tables or figures (see
//! DESIGN.md's per-experiment index); the builders here produce the
//! deterministic workloads they share.

use oda_pipeline::frame::Frame;
use oda_pipeline::medallion::bronze_frame;
use oda_telemetry::jobs::{ApplicationArchetype, Job};
use oda_telemetry::record::Observation;
use oda_telemetry::sensors::SensorCatalog;
use oda_telemetry::system::SystemModel;
use oda_telemetry::TelemetryGenerator;

/// Generate `ticks` ticks of tiny-system telemetry as raw observations.
pub fn tiny_observations(seed: u64, ticks: usize) -> (SensorCatalog, Vec<Observation>) {
    let mut generator = TelemetryGenerator::new(SystemModel::tiny(), seed);
    let catalog = generator.catalog().clone();
    let mut all = Vec::new();
    for _ in 0..ticks {
        all.extend(generator.next_batch().observations);
    }
    (catalog, all)
}

/// A Bronze frame with exactly `rows` long-format rows.
pub fn bronze_with_rows(seed: u64, rows: usize) -> Frame {
    let (catalog, mut obs) = tiny_observations(seed, rows / 30 + 2);
    assert!(
        obs.len() >= rows,
        "generated {} < requested {rows}",
        obs.len()
    );
    obs.truncate(rows);
    bronze_frame(&obs, &catalog)
}

/// A synthetic job for workload builders.
pub fn job(id: u64, user: u32, nodes: Vec<u32>, start_ms: i64, end_ms: i64) -> Job {
    Job {
        id,
        user,
        project: format!("PRJ{:03}", user % 40),
        program: (user % 8) as u8,
        archetype: ApplicationArchetype::ALL[(id % 6) as usize],
        nodes,
        submit_ms: start_ms,
        start_ms,
        end_ms,
        phase: (id as f64 * 0.37) % 1.0,
    }
}

/// A fleet of `n` synthetic jobs over `span_ms`, cycling users/nodes.
pub fn job_fleet(n: usize, users: u32, node_pool: u32, span_ms: i64) -> Vec<Job> {
    (0..n as u64)
        .map(|i| {
            let start = (i as i64 * span_ms) / n as i64;
            let dur = span_ms / 20 + (i as i64 % 7) * 60_000;
            let width = 1 + (i % 4) as u32;
            let first = (i as u32 * 3) % node_pool;
            let nodes = (0..width).map(|k| (first + k) % node_pool).collect();
            job(i + 1, (i as u32) % users, nodes, start, start + dur)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_requested_sizes() {
        let f = bronze_with_rows(1, 10_000);
        assert_eq!(f.rows(), 10_000);
        let jobs = job_fleet(100, 20, 8, 86_400_000);
        assert_eq!(jobs.len(), 100);
        assert!(jobs
            .iter()
            .all(|j| !j.nodes.is_empty() && j.end_ms > j.start_ms));
    }
}

//! Facility configuration.

use oda_telemetry::jobs::WorkloadConfig;
use oda_telemetry::system::SystemModel;

/// Configuration of a facility build.
#[derive(Debug, Clone)]
pub struct FacilityConfig {
    /// Systems to instantiate.
    pub systems: Vec<SystemModel>,
    /// Master seed (each system derives its own).
    pub seed: u64,
    /// Telemetry tick (ms).
    pub tick_ms: i64,
    /// Broker partitions per bronze topic.
    pub bronze_partitions: u32,
    /// Workload knobs shared by the systems.
    pub workload: WorkloadConfig,
}

impl FacilityConfig {
    /// The paper's facility: Mountain + Compass.
    pub fn paper_facility(seed: u64) -> FacilityConfig {
        FacilityConfig {
            systems: vec![SystemModel::mountain(), SystemModel::compass()],
            seed,
            tick_ms: 1_000,
            bronze_partitions: 8,
            workload: WorkloadConfig::default(),
        }
    }

    /// A laptop-scale facility for tests and examples: one tiny system.
    pub fn tiny(seed: u64) -> FacilityConfig {
        FacilityConfig {
            systems: vec![SystemModel::tiny()],
            seed,
            tick_ms: 1_000,
            bronze_partitions: 2,
            workload: WorkloadConfig {
                mean_interarrival_s: 240.0,
                users: 24,
                projects: 8,
                duration_scale: 0.02,
                ..WorkloadConfig::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_facility_has_both_generations() {
        let c = FacilityConfig::paper_facility(1);
        let names: Vec<&str> = c.systems.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["mountain", "compass"]);
    }

    #[test]
    fn tiny_is_small() {
        let c = FacilityConfig::tiny(1);
        assert_eq!(c.systems[0].node_count(), 8);
        assert!(c.workload.users < 100);
    }
}

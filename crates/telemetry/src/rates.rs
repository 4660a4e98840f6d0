//! Analytic volume accounting — the basis of the Fig. 4-a experiment.
//!
//! The paper reports a raw ingest rate of **4.2–4.5 TB/day across the
//! HPC data center**, with the Frontier-class system's power/thermal
//! stream alone around **0.5 TB/day**. These functions compute, from the
//! sensor catalog plus models of the non-sensor sources (fabric
//! switches, storage servers, syslog, resource manager), the exact
//! bytes/day each source contributes. The `ingest_rate` bench validates
//! the analytic numbers against short measured generator runs.

use crate::jobs::WorkloadConfig;
use crate::record::OBS_RAW_BYTES;
use crate::sensors::{DataSource, SensorCatalog};
use crate::system::SystemModel;

/// Daily data volume of one source on one system.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceVolume {
    /// System name.
    pub system: String,
    /// Source family.
    pub source: DataSource,
    /// Long-format samples (or log lines) per day.
    pub samples_per_day: u64,
    /// Raw collection-format bytes per day.
    pub raw_bytes_per_day: u64,
}

impl SourceVolume {
    /// Terabytes (10^12 bytes) per day.
    pub fn tb_per_day(&self) -> f64 {
        self.raw_bytes_per_day as f64 / 1e12
    }
}

/// Models of sources that are not in the node sensor catalog.
///
/// Counts are sized to the facility the paper describes; they are the
/// calibration knobs that land the totals in the reported band.
#[derive(Debug, Clone)]
pub struct AuxSources {
    /// Interconnect fabric switches.
    pub switches: u64,
    /// Telemetry counters per switch.
    pub counters_per_switch: u64,
    /// Switch counter period in seconds.
    pub switch_period_s: u64,
    /// Storage-system servers (facility-wide; attributed to the newest
    /// system for accounting).
    pub storage_servers: u64,
    /// Counters per storage server.
    pub counters_per_server: u64,
    /// Storage counter period in seconds.
    pub storage_period_s: u64,
    /// Syslog lines per node per day.
    pub syslog_lines_per_node_day: u64,
    /// Bytes per syslog line.
    pub syslog_line_bytes: u64,
    /// Resource-manager log lines per job (submit/start/end/per-node
    /// allocation records, accounting).
    pub rm_lines_per_job: u64,
    /// Bytes per resource-manager line.
    pub rm_line_bytes: u64,
}

impl AuxSources {
    /// Aux-source scale for each reference system.
    pub fn for_system(system: &SystemModel) -> AuxSources {
        let frontier_class = system.name == "compass";
        AuxSources {
            switches: if frontier_class { 800 } else { 500 },
            counters_per_switch: 640, // 64 ports x 10 counters
            switch_period_s: if frontier_class { 10 } else { 20 },
            // The center-wide filesystem is attributed to the newest system.
            storage_servers: if frontier_class { 900 } else { 400 },
            counters_per_server: 180,
            storage_period_s: 1,
            syslog_lines_per_node_day: 20_000,
            syslog_line_bytes: 250,
            rm_lines_per_job: 40,
            rm_line_bytes: 300,
        }
    }
}

/// Compute per-source daily volumes for one system.
pub fn volume_by_source(system: &SystemModel) -> Vec<SourceVolume> {
    let catalog = SensorCatalog::for_system(system);
    let aux = AuxSources::for_system(system);
    let workload = WorkloadConfig::default();
    let mut out = Vec::new();
    for source in DataSource::ALL {
        let mut samples: u64 = catalog
            .by_source(source)
            .map(|spec| spec.samples_per_day(system))
            .sum();
        let mut raw = samples * OBS_RAW_BYTES as u64;
        match source {
            DataSource::Interconnect => {
                let s = aux.switches * aux.counters_per_switch * (86_400 / aux.switch_period_s);
                samples += s;
                raw += s * OBS_RAW_BYTES as u64;
            }
            DataSource::StorageSystem => {
                let s =
                    aux.storage_servers * aux.counters_per_server * (86_400 / aux.storage_period_s);
                samples += s;
                raw += s * OBS_RAW_BYTES as u64;
            }
            DataSource::SyslogEvents => {
                let lines = u64::from(system.node_count()) * aux.syslog_lines_per_node_day;
                samples += lines;
                raw += lines * aux.syslog_line_bytes;
            }
            DataSource::ResourceManager => {
                let jobs_per_day = (86_400.0 / workload.mean_interarrival_s) as u64;
                let lines = jobs_per_day * aux.rm_lines_per_job;
                samples += lines;
                raw += lines * aux.rm_line_bytes;
            }
            _ => {}
        }
        out.push(SourceVolume {
            system: system.name.clone(),
            source,
            samples_per_day: samples,
            raw_bytes_per_day: raw,
        });
    }
    out
}

/// In-band collection overhead report (§IV-A's trade-off between
/// "minimizing system overhead and ensuring the quality of signals").
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadReport {
    /// In-band samples taken per node per second.
    pub inband_samples_per_node_s: f64,
    /// Out-of-band samples per node per second (zero host cost).
    pub oob_samples_per_node_s: f64,
    /// Estimated host-CPU fraction consumed by the in-band agent,
    /// assuming `cpu_us_per_sample` microseconds of one core per sample.
    pub cpu_overhead_frac: f64,
}

/// Estimate the per-node collection overhead of a system's catalog.
pub fn collection_overhead(system: &SystemModel, cpu_us_per_sample: f64) -> OverheadReport {
    let catalog = SensorCatalog::for_system(system);
    let nodes = f64::from(system.node_count());
    let mut inband = 0.0;
    let mut oob = 0.0;
    for spec in catalog.specs() {
        // Facility-wide sensors don't touch compute nodes.
        if matches!(spec.source, DataSource::Facility) {
            continue;
        }
        let per_node_s = spec.samples_per_day(system) as f64 / nodes / 86_400.0;
        if spec.out_of_band {
            oob += per_node_s;
        } else {
            inband += per_node_s;
        }
    }
    // One node-core-second per second = 1.0; cores per node assumed 64
    // hardware threads for overhead normalization.
    let node_core_s = 64.0;
    OverheadReport {
        inband_samples_per_node_s: inband,
        oob_samples_per_node_s: oob,
        cpu_overhead_frac: inband * cpu_us_per_sample / 1e6 / node_core_s,
    }
}

/// Total daily raw terabytes for one system.
pub fn total_tb_per_day(system: &SystemModel) -> f64 {
    volume_by_source(system)
        .iter()
        .map(SourceVolume::tb_per_day)
        .sum()
}

/// Facility-wide (Mountain + Compass) daily raw terabytes, the headline
/// number of Fig. 4-a.
pub fn facility_tb_per_day() -> f64 {
    total_tb_per_day(&SystemModel::mountain()) + total_tb_per_day(&SystemModel::compass())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compass_power_thermal_near_half_tb() {
        let v = volume_by_source(&SystemModel::compass());
        let pt = v
            .iter()
            .find(|s| s.source == DataSource::PowerTemp)
            .unwrap();
        let tb = pt.tb_per_day();
        assert!(
            (0.3..=0.7).contains(&tb),
            "compass power/thermal {tb:.3} TB/day outside the paper's ~0.5 band"
        );
    }

    #[test]
    fn facility_total_in_paper_band() {
        let tb = facility_tb_per_day();
        assert!(
            (4.0..=4.7).contains(&tb),
            "facility total {tb:.2} TB/day outside the paper's 4.2-4.5 band"
        );
    }

    #[test]
    fn compass_exceeds_mountain() {
        assert!(
            total_tb_per_day(&SystemModel::compass()) > total_tb_per_day(&SystemModel::mountain())
        );
    }

    #[test]
    fn every_source_accounted() {
        let v = volume_by_source(&SystemModel::compass());
        assert_eq!(v.len(), DataSource::ALL.len());
        for s in &v {
            assert!(s.raw_bytes_per_day > 0, "{:?} has zero volume", s.source);
        }
    }

    #[test]
    fn oob_collection_keeps_host_overhead_negligible() {
        // The paper's design choice: the heaviest streams (power/thermal)
        // go out-of-band, so the in-band agent stays well under 0.1% of
        // host CPU even at 20 us per sample.
        for system in [SystemModel::mountain(), SystemModel::compass()] {
            let r = collection_overhead(&system, 20.0);
            assert!(
                r.cpu_overhead_frac < 1e-3,
                "{}: overhead {:.5}",
                system.name,
                r.cpu_overhead_frac
            );
            assert!(
                r.oob_samples_per_node_s > r.inband_samples_per_node_s,
                "power/thermal OOB volume should dominate"
            );
        }
    }

    #[test]
    fn samples_consistent_with_bytes() {
        for sv in volume_by_source(&SystemModel::mountain()) {
            // Raw bytes can exceed samples x OBS_RAW_BYTES only for
            // line-oriented sources with bigger lines.
            assert!(sv.raw_bytes_per_day >= sv.samples_per_day * 100);
        }
    }
}

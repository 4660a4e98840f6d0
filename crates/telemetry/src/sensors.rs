//! Sensor catalogs: what each system emits, how often, and how noisily.
//!
//! Each [`SensorSpec`] describes one *logical* sensor replicated across
//! the components it is attached to. The catalog is grouped by
//! [`DataSource`], matching the Y-axis of the paper's Fig. 3 matrix, so
//! that volume accounting (Fig. 4-a) and maturity tracking line up with
//! the paper's taxonomy.

use crate::error::TelemetryError;
use crate::system::SystemModel;

/// Physical quantity a sensor measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// Power in watts.
    Power,
    /// Temperature in degrees Celsius.
    Temperature,
    /// Utilization fraction in [0, 1].
    Utilization,
    /// Memory occupancy fraction in [0, 1].
    MemoryUse,
    /// Monotonic byte counter (network / storage client traffic).
    ByteCounter,
    /// Monotonic operation counter (metadata ops, packets).
    OpCounter,
    /// Coolant flow in liters per minute.
    Flow,
    /// Voltage in volts.
    Voltage,
    /// Hardware performance counter (instructions, cache misses, ...).
    PerfCounter,
}

/// Which element(s) of the topology a sensor is replicated over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attachment {
    /// One instance per node.
    PerNode,
    /// One instance per CPU socket.
    PerCpu,
    /// One instance per GPU device.
    PerGpu,
    /// One instance per cabinet cooling loop.
    PerCabinet,
    /// A single facility-level instance.
    FacilityWide,
}

/// Data-source family, mirroring Fig. 3's Y-axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataSource {
    /// Compute-node hardware performance counters.
    PerfCounters,
    /// Compute-node resource utilization (CPU/GPU/memory).
    ResourceUtil,
    /// Compute-node power and temperature (out-of-band).
    PowerTemp,
    /// Per-node parallel-filesystem client counters.
    StorageClient,
    /// Per-node interconnect client counters.
    InterconnectClient,
    /// Storage-system (server-side) telemetry.
    StorageSystem,
    /// Interconnect fabric (switch) telemetry.
    Interconnect,
    /// Syslog and event streams.
    SyslogEvents,
    /// Resource-manager (scheduler) logs.
    ResourceManager,
    /// Facility power & cooling plant telemetry.
    Facility,
}

impl DataSource {
    /// All sources, in Fig. 3 order.
    pub const ALL: [DataSource; 10] = [
        DataSource::PerfCounters,
        DataSource::ResourceUtil,
        DataSource::PowerTemp,
        DataSource::StorageClient,
        DataSource::InterconnectClient,
        DataSource::StorageSystem,
        DataSource::Interconnect,
        DataSource::SyslogEvents,
        DataSource::ResourceManager,
        DataSource::Facility,
    ];

    /// Display label used in printed matrices and reports.
    pub fn label(self) -> &'static str {
        match self {
            DataSource::PerfCounters => "perf-counters",
            DataSource::ResourceUtil => "resource-util",
            DataSource::PowerTemp => "power-temp",
            DataSource::StorageClient => "storage-client",
            DataSource::InterconnectClient => "interconnect-client",
            DataSource::StorageSystem => "storage-system",
            DataSource::Interconnect => "interconnect",
            DataSource::SyslogEvents => "syslog-events",
            DataSource::ResourceManager => "resource-manager",
            DataSource::Facility => "facility",
        }
    }
}

/// One logical sensor in the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSpec {
    /// Stable identifier; index into the catalog.
    pub id: u16,
    /// Short name ("node_power_w", "gpu0_temp_c", ...).
    pub name: String,
    /// What it measures.
    pub kind: SensorKind,
    /// Which data-source family it reports under.
    pub source: DataSource,
    /// Replication over the topology.
    pub attachment: Attachment,
    /// Sampling period in milliseconds.
    pub period_ms: u32,
    /// Relative Gaussian noise applied to the modeled value.
    pub noise_rel: f64,
    /// Probability that any individual sample is lost in collection.
    pub dropout: f64,
    /// Collected out-of-band (BMC / management network, §IV-B) rather
    /// than by an in-band agent that costs host CPU.
    pub out_of_band: bool,
}

impl SensorSpec {
    /// Number of physical instances of this sensor on `system`.
    pub fn instances(&self, system: &SystemModel) -> u64 {
        match self.attachment {
            Attachment::PerNode => u64::from(system.node_count()),
            Attachment::PerCpu => u64::from(system.node_count()) * u64::from(system.cpus_per_node),
            Attachment::PerGpu => system.gpu_count(),
            Attachment::PerCabinet => u64::from(system.cabinets),
            Attachment::FacilityWide => 1,
        }
    }

    /// Samples per day emitted by all instances on `system`.
    pub fn samples_per_day(&self, system: &SystemModel) -> u64 {
        let per_instance = 86_400_000 / u64::from(self.period_ms);
        self.instances(system) * per_instance
    }
}

/// The full sensor catalog of one system.
#[derive(Debug, Clone)]
pub struct SensorCatalog {
    specs: Vec<SensorSpec>,
}

impl SensorCatalog {
    /// Build the catalog appropriate for `system`.
    ///
    /// The per-source sample rates are calibrated so that analytic daily
    /// volumes (see [`crate::rates`]) land in the bands the paper
    /// reports: ~0.5 TB/day of power/thermal data for the Frontier-like
    /// system and 4.2-4.5 TB/day for the facility in total.
    pub fn for_system(system: &SystemModel) -> SensorCatalog {
        let mut b = CatalogBuilder::default();
        // Out-of-band collection runs at 1 Hz on both generations.
        let fast = 1_000;
        // Out-of-band power & temperature. Highest-value streams in the
        // paper (Fig. 3 shows L4-L5 use in facility management and R&D).
        b.push(
            "node_power_w",
            SensorKind::Power,
            DataSource::PowerTemp,
            Attachment::PerNode,
            fast,
            0.01,
            0.002,
        );
        b.push(
            "node_inlet_temp_c",
            SensorKind::Temperature,
            DataSource::PowerTemp,
            Attachment::PerNode,
            fast,
            0.005,
            0.002,
        );
        b.push(
            "node_outlet_temp_c",
            SensorKind::Temperature,
            DataSource::PowerTemp,
            Attachment::PerNode,
            fast,
            0.005,
            0.002,
        );
        b.push(
            "cpu_power_w",
            SensorKind::Power,
            DataSource::PowerTemp,
            Attachment::PerCpu,
            2_000,
            0.01,
            0.003,
        );
        b.push(
            "gpu_power_w",
            SensorKind::Power,
            DataSource::PowerTemp,
            Attachment::PerGpu,
            5_000,
            0.01,
            0.004,
        );
        b.push(
            "gpu_temp_c",
            SensorKind::Temperature,
            DataSource::PowerTemp,
            Attachment::PerGpu,
            10_000,
            0.005,
            0.004,
        );
        if system.liquid_cooled {
            b.push(
                "loop_flow_lpm",
                SensorKind::Flow,
                DataSource::PowerTemp,
                Attachment::PerCabinet,
                fast,
                0.01,
                0.001,
            );
            b.push(
                "loop_supply_temp_c",
                SensorKind::Temperature,
                DataSource::PowerTemp,
                Attachment::PerCabinet,
                fast,
                0.005,
                0.001,
            );
            b.push(
                "loop_return_temp_c",
                SensorKind::Temperature,
                DataSource::PowerTemp,
                Attachment::PerCabinet,
                fast,
                0.005,
                0.001,
            );
        }
        // Resource utilization (in-band agent, coarser).
        b.push(
            "cpu_util",
            SensorKind::Utilization,
            DataSource::ResourceUtil,
            Attachment::PerCpu,
            10_000,
            0.02,
            0.005,
        );
        b.push(
            "gpu_util",
            SensorKind::Utilization,
            DataSource::ResourceUtil,
            Attachment::PerGpu,
            10_000,
            0.02,
            0.005,
        );
        b.push(
            "mem_use",
            SensorKind::MemoryUse,
            DataSource::ResourceUtil,
            Attachment::PerNode,
            10_000,
            0.02,
            0.005,
        );
        b.push(
            "gpu_mem_use",
            SensorKind::MemoryUse,
            DataSource::ResourceUtil,
            Attachment::PerGpu,
            10_000,
            0.02,
            0.005,
        );
        // Hardware performance counters (highest rate, in-band, lowest
        // maturity in Fig. 3 - L0 everywhere).
        b.push(
            "instr_retired",
            SensorKind::PerfCounter,
            DataSource::PerfCounters,
            Attachment::PerCpu,
            30_000,
            0.0,
            0.01,
        );
        b.push(
            "llc_misses",
            SensorKind::PerfCounter,
            DataSource::PerfCounters,
            Attachment::PerCpu,
            30_000,
            0.0,
            0.01,
        );
        b.push(
            "gpu_occupancy",
            SensorKind::PerfCounter,
            DataSource::PerfCounters,
            Attachment::PerGpu,
            30_000,
            0.0,
            0.01,
        );
        // Parallel-filesystem client counters.
        b.push(
            "fs_read_bytes",
            SensorKind::ByteCounter,
            DataSource::StorageClient,
            Attachment::PerNode,
            60_000,
            0.0,
            0.005,
        );
        b.push(
            "fs_write_bytes",
            SensorKind::ByteCounter,
            DataSource::StorageClient,
            Attachment::PerNode,
            60_000,
            0.0,
            0.005,
        );
        b.push(
            "fs_meta_ops",
            SensorKind::OpCounter,
            DataSource::StorageClient,
            Attachment::PerNode,
            60_000,
            0.0,
            0.005,
        );
        // Interconnect client counters.
        b.push(
            "nic_tx_bytes",
            SensorKind::ByteCounter,
            DataSource::InterconnectClient,
            Attachment::PerNode,
            60_000,
            0.0,
            0.005,
        );
        b.push(
            "nic_rx_bytes",
            SensorKind::ByteCounter,
            DataSource::InterconnectClient,
            Attachment::PerNode,
            60_000,
            0.0,
            0.005,
        );
        // Facility plant.
        b.push(
            "plant_supply_temp_c",
            SensorKind::Temperature,
            DataSource::Facility,
            Attachment::FacilityWide,
            1_000,
            0.005,
            0.001,
        );
        b.push(
            "plant_return_temp_c",
            SensorKind::Temperature,
            DataSource::Facility,
            Attachment::FacilityWide,
            1_000,
            0.005,
            0.001,
        );
        b.push(
            "plant_flow_lpm",
            SensorKind::Flow,
            DataSource::Facility,
            Attachment::FacilityWide,
            1_000,
            0.01,
            0.001,
        );
        b.push(
            "substation_power_w",
            SensorKind::Power,
            DataSource::Facility,
            Attachment::FacilityWide,
            1_000,
            0.005,
            0.001,
        );
        b.push(
            "bus_voltage_v",
            SensorKind::Voltage,
            DataSource::Facility,
            Attachment::FacilityWide,
            1_000,
            0.002,
            0.001,
        );
        let _ = system;
        SensorCatalog { specs: b.specs }
    }

    /// All specs, ordered by id.
    pub fn specs(&self) -> &[SensorSpec] {
        &self.specs
    }

    /// Look up a spec by id.
    pub fn get(&self, id: u16) -> Option<&SensorSpec> {
        self.specs.get(usize::from(id))
    }

    /// Look up a spec by name.
    pub fn by_name(&self, name: &str) -> Option<&SensorSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// Look up a spec by name, failing with
    /// [`TelemetryError::UnknownSensor`] (naming the missing sensor)
    /// instead of forcing an `unwrap()` at the call site.
    pub fn require(&self, name: &str) -> Result<&SensorSpec, TelemetryError> {
        self.by_name(name)
            .ok_or_else(|| TelemetryError::UnknownSensor(name.to_string()))
    }

    /// The id of the named sensor, or [`TelemetryError::UnknownSensor`].
    pub fn sensor_id(&self, name: &str) -> Result<u16, TelemetryError> {
        self.require(name).map(|s| s.id)
    }

    /// Specs reporting under `source`.
    pub fn by_source(&self, source: DataSource) -> impl Iterator<Item = &SensorSpec> {
        self.specs.iter().filter(move |s| s.source == source)
    }

    /// Number of logical sensors.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the catalog is empty (never, for built-in systems).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

#[derive(Default)]
struct CatalogBuilder {
    specs: Vec<SensorSpec>,
}

impl CatalogBuilder {
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        name: &str,
        kind: SensorKind,
        source: DataSource,
        attachment: Attachment,
        period_ms: u32,
        noise_rel: f64,
        dropout: f64,
    ) {
        let id = self.specs.len() as u16;
        // Power/thermal and facility-plant streams arrive out-of-band via
        // the management network (§IV-B); everything else needs an
        // in-band agent on the host.
        let out_of_band = matches!(source, DataSource::PowerTemp | DataSource::Facility);
        self.specs.push(SensorSpec {
            id,
            name: name.to_string(),
            kind,
            source,
            attachment,
            period_ms,
            noise_rel,
            dropout,
            out_of_band,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_are_indices() {
        let cat = SensorCatalog::for_system(&SystemModel::compass());
        for (i, spec) in cat.specs().iter().enumerate() {
            assert_eq!(usize::from(spec.id), i);
        }
    }

    #[test]
    fn lookup_by_name() {
        let cat = SensorCatalog::for_system(&SystemModel::mountain());
        let spec = cat.by_name("node_power_w").unwrap();
        assert_eq!(spec.kind, SensorKind::Power);
        assert_eq!(spec.source, DataSource::PowerTemp);
        assert!(cat.by_name("nonexistent").is_none());
    }

    #[test]
    fn instance_counts_scale_with_topology() {
        let compass = SystemModel::compass();
        let cat = SensorCatalog::for_system(&compass);
        let node_power = cat.by_name("node_power_w").unwrap();
        assert_eq!(
            node_power.instances(&compass),
            u64::from(compass.node_count())
        );
        let gpu_power = cat.by_name("gpu_power_w").unwrap();
        assert_eq!(gpu_power.instances(&compass), compass.gpu_count());
    }

    #[test]
    fn samples_per_day_consistent() {
        let sys = SystemModel::tiny();
        let cat = SensorCatalog::for_system(&sys);
        let spec = cat.by_name("node_power_w").unwrap();
        // 8 nodes at 1 Hz for a day.
        assert_eq!(spec.samples_per_day(&sys), 8 * 86_400);
    }

    #[test]
    fn out_of_band_flags_follow_collection_path() {
        let cat = SensorCatalog::for_system(&SystemModel::compass());
        assert!(cat.by_name("node_power_w").unwrap().out_of_band);
        assert!(cat.by_name("plant_flow_lpm").unwrap().out_of_band);
        assert!(!cat.by_name("cpu_util").unwrap().out_of_band);
        assert!(!cat.by_name("fs_read_bytes").unwrap().out_of_band);
    }

    #[test]
    fn every_source_with_sensors_is_in_fig3_taxonomy() {
        let cat = SensorCatalog::for_system(&SystemModel::compass());
        for spec in cat.specs() {
            assert!(DataSource::ALL.contains(&spec.source), "{}", spec.name);
        }
    }
}

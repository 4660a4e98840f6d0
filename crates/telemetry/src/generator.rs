//! Deterministic assembly of all models into telemetry streams.
//!
//! A [`TelemetryGenerator`] advances a simulated clock in fixed ticks.
//! Each tick emits every sensor whose period divides the current
//! timestamp, the scheduler's job lifecycle events, and the syslog
//! events of the window — one [`TelemetryBatch`] per tick, suitable for
//! publishing to the STREAM broker.

use crate::error::TelemetryError;
use crate::events::{Event, EventGenerator, Incident};
use crate::jobs::{ApplicationArchetype, JobEvent, Scheduler, WorkloadConfig};
use crate::power::PowerModel;
use crate::record::{Component, Device, Observation, Quality};
use crate::sensors::{Attachment, SensorCatalog, SensorSpec};
use crate::system::SystemModel;
use crate::thermal::{NodeThermal, ThermalModel};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, StandardNormal};

/// Everything one tick of the facility emits.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryBatch {
    /// Tick timestamp (ms).
    pub ts_ms: i64,
    /// Long-format sensor observations.
    pub observations: Vec<Observation>,
    /// Syslog events of the window ending at `ts_ms`.
    pub events: Vec<Event>,
    /// Resource-manager lifecycle events.
    pub job_events: Vec<JobEvent>,
}

/// Seeded, tick-driven telemetry generator for one system.
pub struct TelemetryGenerator {
    system: SystemModel,
    catalog: SensorCatalog,
    scheduler: Scheduler,
    power: PowerModel,
    thermal: ThermalModel,
    node_thermal: Vec<NodeThermal>,
    events: EventGenerator,
    rng: StdRng,
    tick_ms: i64,
    now_ms: i64,
    /// Monotonic per-node counters: [node][counter_slot].
    counters: Vec<[f64; 5]>,
    /// Facility power cap applied to every node's draw (W), when set.
    power_cap_w: Option<f64>,
    /// Multiplicative per-sensor calibration biases (firmware skew).
    sensor_bias: Vec<SensorBias>,
}

/// A multiplicative calibration bias on one sensor over a node range —
/// the simulator's model of a bad firmware rollout skewing readings on
/// part of the fleet.
#[derive(Debug, Clone, PartialEq)]
struct SensorBias {
    sensor: u16,
    /// First biased node (inclusive).
    node_lo: u32,
    /// One past the last biased node (exclusive).
    node_hi: u32,
    scale: f64,
}

/// Index slots for the monotonic per-node counters.
const CTR_FS_READ: usize = 0;
const CTR_FS_WRITE: usize = 1;
const CTR_FS_META: usize = 2;
const CTR_NIC_TX: usize = 3;
const CTR_NIC_RX: usize = 4;

impl TelemetryGenerator {
    /// Build a generator with the default workload and a 1 s tick.
    pub fn new(system: SystemModel, seed: u64) -> Self {
        Self::with_workload(system, seed, WorkloadConfig::default())
    }

    /// Build a generator with explicit workload knobs.
    pub fn with_workload(system: SystemModel, seed: u64, workload: WorkloadConfig) -> Self {
        let catalog = SensorCatalog::for_system(&system);
        let thermal = ThermalModel::default();
        let n = system.node_count() as usize;
        let users = workload.users;
        TelemetryGenerator {
            catalog,
            scheduler: Scheduler::with_config(system.clone(), seed ^ 0x5eed_0001, workload),
            power: PowerModel::new(system.clone()),
            node_thermal: vec![NodeThermal::new(&thermal, system.node_idle_watts); n],
            thermal,
            events: EventGenerator::new(system.node_count(), users, seed ^ 0x5eed_0002),
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_0003),
            system,
            tick_ms: 1_000,
            now_ms: 0,
            counters: vec![[0.0; 5]; n],
            power_cap_w: None,
            sensor_bias: Vec::new(),
        }
    }

    /// Override the tick period (must divide all catalog periods for
    /// exact sample-rate accounting; 1000 ms is the default).
    pub fn with_tick_ms(mut self, tick_ms: i64) -> Self {
        assert!(tick_ms > 0, "tick must be positive");
        self.tick_ms = tick_ms;
        self
    }

    /// The modeled system.
    pub fn system(&self) -> &SystemModel {
        &self.system
    }

    /// The system's sensor catalog.
    pub fn catalog(&self) -> &SensorCatalog {
        &self.catalog
    }

    /// The scheduler (for allocation context joins).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Current simulated time (ms).
    pub fn now_ms(&self) -> i64 {
        self.now_ms
    }

    /// Schedule a security incident in the event stream.
    pub fn inject_incident(&mut self, incident: Incident) {
        self.events.inject_incident(incident);
    }

    /// Current coolant supply temperature (C).
    pub fn coolant_supply_c(&self) -> f64 {
        self.thermal.supply_c
    }

    /// Adjust the facility coolant supply set point — the actuator the
    /// operational feedback loop (paper Fig. 1) turns. Subsequent
    /// thermal telemetry reflects the change.
    pub fn set_coolant_supply_c(&mut self, c: f64) {
        self.thermal.supply_c = c;
    }

    /// Current facility power cap (W per node), if any.
    pub fn power_cap_w(&self) -> Option<f64> {
        self.power_cap_w
    }

    /// Set or clear a per-node power cap (the simulator's RAPL-style
    /// actuator for facility power-cap events). Subsequent power,
    /// cabinet, and plant telemetry reflect the clamp. RNG-free: the
    /// noise stream is untouched, so capped and uncapped runs stay
    /// sample-aligned.
    pub fn set_power_cap_w(&mut self, cap: Option<f64>) -> Result<(), TelemetryError> {
        if let Some(c) = cap {
            if !c.is_finite() || c <= 0.0 {
                return Err(TelemetryError::InvalidConfig(format!(
                    "power cap must be finite and > 0 W, got {c}"
                )));
            }
        }
        self.power_cap_w = cap;
        Ok(())
    }

    /// Apply a multiplicative calibration bias to `sensor` on nodes
    /// `node_lo..node_hi` — the firmware-skew fault scenario packs
    /// script. Replaces any earlier bias on the same sensor and range,
    /// so scripted ramps set absolute scales rather than compounding.
    pub fn set_sensor_scale(
        &mut self,
        sensor: &str,
        node_lo: u32,
        node_hi: u32,
        scale: f64,
    ) -> Result<(), TelemetryError> {
        let id = self.catalog.sensor_id(sensor)?;
        if node_lo >= node_hi || node_hi > self.system.node_count() {
            return Err(TelemetryError::InvalidConfig(format!(
                "bias node range {node_lo}..{node_hi} invalid for {} nodes",
                self.system.node_count()
            )));
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(TelemetryError::InvalidConfig(format!(
                "sensor scale must be finite and > 0, got {scale}"
            )));
        }
        if let Some(b) = self
            .sensor_bias
            .iter_mut()
            .find(|b| b.sensor == id && b.node_lo == node_lo && b.node_hi == node_hi)
        {
            b.scale = scale;
        } else {
            self.sensor_bias.push(SensorBias {
                sensor: id,
                node_lo,
                node_hi,
                scale,
            });
        }
        Ok(())
    }

    /// Queue a scripted job for the scheduler — deterministic, RNG-free
    /// (see [`Scheduler::submit`]); it starts on the next tick once
    /// nodes are free.
    pub fn submit_job(
        &mut self,
        nodes_req: usize,
        archetype: ApplicationArchetype,
        duration_ms: i64,
    ) -> Result<(), TelemetryError> {
        self.scheduler
            .submit(self.now_ms, nodes_req, archetype, duration_ms)
    }

    /// Change the background workload's mean interarrival seconds.
    pub fn set_mean_interarrival_s(&mut self, s: f64) -> Result<(), TelemetryError> {
        self.scheduler.set_mean_interarrival_s(s)
    }

    /// Product of calibration biases covering `(sensor, node)`; 1.0 when
    /// unbiased.
    fn bias_for(&self, sensor: u16, node: u32) -> f64 {
        self.sensor_bias
            .iter()
            .filter(|b| b.sensor == sensor && node >= b.node_lo && node < b.node_hi)
            .map(|b| b.scale)
            .product()
    }

    fn noisy(&mut self, value: f64, spec: &SensorSpec) -> (f64, Quality) {
        if self.rng.random::<f64>() < spec.dropout {
            return (f64::NAN, Quality::Missing);
        }
        let z: f64 = StandardNormal.sample(&mut self.rng);
        let v = value * (1.0 + spec.noise_rel * z);
        // Plausibility check mimicking a collection agent: absurd
        // excursions get flagged rather than silently passed on.
        if spec.noise_rel > 0.0 && z.abs() > 4.0 {
            (v, Quality::Suspect)
        } else {
            (v, Quality::Good)
        }
    }

    /// Advance one tick and return everything it emitted.
    pub fn next_batch(&mut self) -> TelemetryBatch {
        self.now_ms += self.tick_ms;
        let ts = self.now_ms;
        let job_events = self.scheduler.advance(ts);
        let events = self.events.tick(ts, self.tick_ms);
        let mut obs = Vec::new();

        // Resolve which specs are due once per tick.
        let due_specs: Vec<SensorSpec> = self
            .catalog
            .specs()
            .iter()
            .filter(|s| self.now_ms % i64::from(s.period_ms) == 0)
            .cloned()
            .collect();
        let any_node_due = due_specs
            .iter()
            .any(|s| !matches!(s.attachment, Attachment::FacilityWide));

        let mut cabinet_power = vec![0.0f64; self.system.cabinets as usize];
        let mut total_power = 0.0f64;
        let dt_s = self.tick_ms as f64 / 1_000.0;

        if any_node_due {
            for node in 0..self.system.node_count() {
                // Compute utilization/power once per node per tick.
                let (cpu_u, gpu_u, archetype) = {
                    let job = self.scheduler.job_on(node);
                    (
                        self.power.cpu_util(job, node, ts),
                        self.power.gpu_util(job, node, ts),
                        job.map(|j| j.archetype),
                    )
                };
                let mut node_w = self.power.node_power(cpu_u, gpu_u);
                if let Some(cap) = self.power_cap_w {
                    node_w = node_w.min(cap);
                }
                cabinet_power[self.system.cabinet_of(node) as usize] += node_w;
                total_power += node_w;
                let outlet = self.node_thermal[node as usize].step(&self.thermal, node_w, dt_s);

                self.update_counters(node, cpu_u, gpu_u, archetype, dt_s);

                for spec in &due_specs {
                    self.emit_node_sensor(&mut obs, spec, node, ts, cpu_u, gpu_u, node_w, outlet);
                }
            }
        } else {
            // Facility-only tick still needs total power for the plant
            // sensors; approximate from scheduler utilization to avoid a
            // full node sweep.
            let util = self.scheduler.utilization();
            let mut est_node_w = self.power.node_power(0.3 * util, 0.6 * util);
            if let Some(cap) = self.power_cap_w {
                est_node_w = est_node_w.min(cap);
            }
            total_power = f64::from(self.system.node_count()) * est_node_w;
        }

        // Cabinet cooling-loop sensors.
        for spec in &due_specs {
            if spec.attachment == Attachment::PerCabinet {
                for cab in 0..self.system.cabinets {
                    let first_node = cab * self.system.nodes_per_cabinet;
                    let cab_kw = cabinet_power[cab as usize] / 1_000.0;
                    // Q = m_dot * c_p * dT; flow sized for ~6 C rise at peak.
                    let flow_lpm = 60.0
                        * (self.system.nodes_per_cabinet as f64 * self.system.node_peak_watts
                            / 1_000.0)
                        / (4.186 * 6.0)
                        / 60.0;
                    let d_t = cab_kw / (4.186 * flow_lpm / 60.0).max(1e-9);
                    let value = match spec.name.as_str() {
                        "loop_flow_lpm" => flow_lpm,
                        "loop_supply_temp_c" => self.thermal.supply_c,
                        "loop_return_temp_c" => self.thermal.supply_c + d_t,
                        _ => continue,
                    };
                    let (v, q) = self.noisy(value, spec);
                    obs.push(Observation {
                        ts_ms: ts,
                        sensor: spec.id,
                        component: Component {
                            node: first_node,
                            device: Device::CoolingLoop(0),
                        },
                        value: v,
                        quality: q,
                    });
                }
            }
        }

        // Facility-level sensors.
        for spec in &due_specs {
            if spec.attachment == Attachment::FacilityWide {
                let value = match spec.name.as_str() {
                    // ~4% distribution/rectification overhead at the substation.
                    "substation_power_w" => total_power * 1.04,
                    "plant_supply_temp_c" => self.thermal.supply_c,
                    "plant_return_temp_c" => self.thermal.supply_c + total_power / 1_000.0 * 0.004,
                    "plant_flow_lpm" => 2_000.0 + total_power / 1_000.0 * 0.4,
                    "bus_voltage_v" => 480.0,
                    _ => continue,
                };
                let (v, q) = self.noisy(value, spec);
                obs.push(Observation {
                    ts_ms: ts,
                    sensor: spec.id,
                    component: Component {
                        node: 0,
                        device: Device::Facility,
                    },
                    value: v,
                    quality: q,
                });
            }
        }

        TelemetryBatch {
            ts_ms: ts,
            observations: obs,
            events,
            job_events,
        }
    }

    fn update_counters(
        &mut self,
        node: u32,
        cpu_u: f64,
        gpu_u: f64,
        archetype: Option<crate::jobs::ApplicationArchetype>,
        dt_s: f64,
    ) {
        use crate::jobs::ApplicationArchetype as A;
        let c = &mut self.counters[node as usize];
        // I/O intensity is highest when compute is *low* for bursty codes;
        // use a simple inverse coupling plus a floor.
        let io_rate = 5.0e6 + 2.0e8 * (1.0 - gpu_u).max(0.0) * cpu_u;
        // Read/write mix is an application trait: simulations write
        // checkpoints and output, analytics mostly reads inputs.
        let write_frac = match archetype {
            Some(A::ClimateSim) => 0.75,
            Some(A::DlTraining) => 0.6,
            Some(A::MolecularDynamics) => 0.5,
            Some(A::Hpl) => 0.3,
            Some(A::DataAnalytics) => 0.15,
            Some(A::Debug) | None => 0.4,
        };
        c[CTR_FS_READ] += io_rate * (1.0 - write_frac) * dt_s;
        c[CTR_FS_WRITE] += io_rate * write_frac * dt_s;
        c[CTR_FS_META] += (10.0 + 500.0 * cpu_u) * dt_s;
        let net_rate = 1.0e6 + 5.0e8 * gpu_u;
        c[CTR_NIC_TX] += net_rate * dt_s;
        c[CTR_NIC_RX] += net_rate * 0.95 * dt_s;
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_node_sensor(
        &mut self,
        obs: &mut Vec<Observation>,
        spec: &SensorSpec,
        node: u32,
        ts: i64,
        cpu_u: f64,
        gpu_u: f64,
        node_w: f64,
        outlet_c: f64,
    ) {
        let devices: &[Device] = match spec.attachment {
            Attachment::PerNode => &[Device::Node],
            Attachment::PerCpu => &CPU_DEVICES[..usize::from(self.system.cpus_per_node)],
            Attachment::PerGpu => &GPU_DEVICES[..usize::from(self.system.gpus_per_node)],
            _ => return,
        };
        for (i, &device) in devices.iter().enumerate() {
            // Small per-device phase decorrelates same-node devices.
            let jitter = 1.0 + 0.02 * ((i as f64) - 0.5);
            let value = match spec.name.as_str() {
                "node_power_w" => node_w,
                "node_inlet_temp_c" => self.thermal.supply_c,
                "node_outlet_temp_c" => outlet_c,
                "cpu_power_w" => self.power.cpu_power(cpu_u) * jitter,
                "gpu_power_w" => self.power.gpu_power(gpu_u) * jitter,
                "gpu_temp_c" => self.thermal.gpu_temp_c(outlet_c, gpu_u * jitter.min(1.0)),
                "cpu_util" => (cpu_u * jitter).min(1.0),
                "gpu_util" => (gpu_u * jitter).min(1.0),
                "mem_use" => (0.15 + 0.6 * gpu_u).min(0.98),
                "gpu_mem_use" => (0.1 + 0.8 * gpu_u).min(0.99),
                "instr_retired" => cpu_u * 3.0e9 * f64::from(spec.period_ms) / 1_000.0,
                "llc_misses" => cpu_u * 4.0e7 * f64::from(spec.period_ms) / 1_000.0,
                "gpu_occupancy" => gpu_u * 100.0,
                "fs_read_bytes" => self.counters[node as usize][CTR_FS_READ],
                "fs_write_bytes" => self.counters[node as usize][CTR_FS_WRITE],
                "fs_meta_ops" => self.counters[node as usize][CTR_FS_META],
                "nic_tx_bytes" => self.counters[node as usize][CTR_NIC_TX],
                "nic_rx_bytes" => self.counters[node as usize][CTR_NIC_RX],
                _ => continue,
            };
            let value = value * self.bias_for(spec.id, node);
            let (v, q) = self.noisy(value, spec);
            obs.push(Observation {
                ts_ms: ts,
                sensor: spec.id,
                component: Component { node, device },
                value: v,
                quality: q,
            });
        }
    }

    /// Run `ticks` ticks and collect the batches.
    pub fn run(&mut self, ticks: usize) -> Vec<TelemetryBatch> {
        (0..ticks).map(|_| self.next_batch()).collect()
    }
}

const CPU_DEVICES: [Device; 4] = [
    Device::Cpu(0),
    Device::Cpu(1),
    Device::Cpu(2),
    Device::Cpu(3),
];
const GPU_DEVICES: [Device; 8] = [
    Device::Gpu(0),
    Device::Gpu(1),
    Device::Gpu(2),
    Device::Gpu(3),
    Device::Gpu(4),
    Device::Gpu(5),
    Device::Gpu(6),
    Device::Gpu(7),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensors::DataSource;

    fn tiny_gen(seed: u64) -> TelemetryGenerator {
        TelemetryGenerator::new(SystemModel::tiny(), seed)
    }

    #[test]
    fn deterministic_batches() {
        let a: Vec<_> = tiny_gen(42).run(30);
        let b: Vec<_> = tiny_gen(42).run(30);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_differs() {
        let a: Vec<_> = tiny_gen(1).run(10);
        let b: Vec<_> = tiny_gen(2).run(10);
        assert_ne!(a, b);
    }

    #[test]
    fn per_second_sensors_fire_every_tick() -> Result<(), crate::TelemetryError> {
        let mut g = tiny_gen(7);
        let batch = g.next_batch();
        let node_power_id = g.catalog().sensor_id("node_power_w")?;
        let count = batch
            .observations
            .iter()
            .filter(|o| o.sensor == node_power_id)
            .count();
        assert_eq!(count, g.system().node_count() as usize);
        Ok(())
    }

    #[test]
    fn unknown_sensor_lookup_is_an_error_not_a_panic() {
        let g = tiny_gen(7);
        let err = g.catalog().require("node_powr_w").unwrap_err();
        assert_eq!(
            err,
            crate::TelemetryError::UnknownSensor("node_powr_w".into())
        );
        assert!(err.to_string().contains("node_powr_w"));
        assert!(g.catalog().sensor_id("nope").is_err());
    }

    #[test]
    fn slow_sensors_fire_at_their_period() -> Result<(), crate::TelemetryError> {
        let mut g = tiny_gen(7);
        let fs_id = g.catalog().sensor_id("fs_read_bytes")?;
        let mut firing_ticks = Vec::new();
        for tick in 1..=120 {
            let batch = g.next_batch();
            if batch.observations.iter().any(|o| o.sensor == fs_id) {
                firing_ticks.push(tick);
            }
        }
        assert_eq!(firing_ticks, vec![60, 120]);
        Ok(())
    }

    #[test]
    fn counters_monotonic() -> Result<(), crate::TelemetryError> {
        let mut g = tiny_gen(3);
        let fs_id = g.catalog().sensor_id("fs_write_bytes")?;
        let mut last: Option<f64> = None;
        for _ in 0..240 {
            let batch = g.next_batch();
            for o in batch.observations.iter().filter(|o| o.sensor == fs_id) {
                if o.component.node == 0 && o.quality == Quality::Good {
                    if let Some(prev) = last {
                        assert!(o.value >= prev, "counter went backwards");
                    }
                    last = Some(o.value);
                }
            }
        }
        assert!(last.is_some(), "no counter samples seen");
        Ok(())
    }

    #[test]
    fn dropout_produces_missing_quality() {
        // Crank a long run; with dropout ~0.2-0.5% we expect misses.
        let mut g = tiny_gen(11);
        let mut missing = 0usize;
        let mut total = 0usize;
        for _ in 0..300 {
            let b = g.next_batch();
            total += b.observations.len();
            missing += b
                .observations
                .iter()
                .filter(|o| o.quality == Quality::Missing)
                .count();
        }
        assert!(missing > 0, "no dropouts in {total} samples");
        assert!((missing as f64) < 0.05 * total as f64, "implausibly lossy");
        // Missing values must be NaN.
        let mut g = tiny_gen(11);
        for _ in 0..300 {
            for o in g.next_batch().observations {
                if o.quality == Quality::Missing {
                    assert!(o.value.is_nan());
                }
            }
        }
    }

    #[test]
    fn node_power_within_physical_bounds() -> Result<(), crate::TelemetryError> {
        let mut g = tiny_gen(5);
        let node_power_id = g.catalog().sensor_id("node_power_w")?;
        let sys = g.system().clone();
        for _ in 0..120 {
            for o in g.next_batch().observations {
                if o.sensor == node_power_id && o.quality == Quality::Good {
                    assert!(
                        o.value > sys.node_idle_watts * 0.8 && o.value < sys.node_peak_watts * 1.2,
                        "implausible node power {}",
                        o.value
                    );
                }
            }
        }
        Ok(())
    }

    #[test]
    fn facility_sensors_present() {
        let mut g = tiny_gen(5);
        let batch = g.next_batch();
        let facility_ids: Vec<u16> = g
            .catalog()
            .by_source(DataSource::Facility)
            .map(|s| s.id)
            .collect();
        for id in facility_ids {
            assert!(
                batch.observations.iter().any(|o| o.sensor == id),
                "facility sensor {id} missing"
            );
        }
    }

    #[test]
    fn power_cap_clamps_node_power() -> Result<(), crate::TelemetryError> {
        let mut g = tiny_gen(21);
        g.submit_job(8, ApplicationArchetype::Hpl, 600_000)?;
        let node_power_id = g.catalog().sensor_id("node_power_w")?;
        g.set_power_cap_w(Some(900.0))?;
        assert!(g.set_power_cap_w(Some(-5.0)).is_err());
        assert!(g.set_power_cap_w(Some(f64::NAN)).is_err());
        for _ in 0..300 {
            for o in g.next_batch().observations {
                if o.sensor == node_power_id && o.quality == Quality::Good {
                    // Noise rides on top of the capped true value.
                    assert!(o.value < 900.0 * 1.2, "cap not applied: {}", o.value);
                }
            }
        }
        Ok(())
    }

    #[test]
    fn sensor_bias_scales_only_targeted_nodes() -> Result<(), crate::TelemetryError> {
        let scaled = 1.5;
        let run = |bias: bool| -> Result<Vec<Observation>, crate::TelemetryError> {
            let mut g = tiny_gen(33);
            if bias {
                g.set_sensor_scale("node_outlet_temp_c", 0, 2, scaled)?;
            }
            Ok(g.run(10).into_iter().flat_map(|b| b.observations).collect())
        };
        let plain = run(false)?;
        let biased = run(true)?;
        let outlet = tiny_gen(33).catalog().sensor_id("node_outlet_temp_c")?;
        assert_eq!(plain.len(), biased.len(), "bias must not add/drop samples");
        for (p, b) in plain.iter().zip(&biased) {
            if p.sensor == outlet && p.component.node < 2 && p.quality == Quality::Good {
                assert!((b.value - p.value * scaled).abs() < 1e-9);
            } else if p.value.is_finite() {
                assert_eq!(p.value, b.value, "untargeted sample changed");
            }
        }
        // Replacing the same range overwrites instead of compounding.
        let mut g = tiny_gen(33);
        g.set_sensor_scale("node_outlet_temp_c", 0, 2, 1.2)?;
        g.set_sensor_scale("node_outlet_temp_c", 0, 2, 1.5)?;
        assert!((g.bias_for(outlet, 1) - 1.5).abs() < 1e-12);
        // Invalid knob values are errors, not panics.
        assert!(g.set_sensor_scale("nope", 0, 2, 1.1).is_err());
        assert!(g.set_sensor_scale("node_outlet_temp_c", 2, 2, 1.1).is_err());
        assert!(g
            .set_sensor_scale("node_outlet_temp_c", 0, 99, 1.1)
            .is_err());
        assert!(g.set_sensor_scale("node_outlet_temp_c", 0, 2, 0.0).is_err());
        Ok(())
    }

    #[test]
    fn job_events_eventually_emitted() {
        let mut g = tiny_gen(13).with_tick_ms(60_000);
        let mut starts = 0;
        for _ in 0..120 {
            starts += g
                .next_batch()
                .job_events
                .iter()
                .filter(|e| matches!(e, JobEvent::Start(_)))
                .count();
        }
        assert!(starts > 0, "no jobs started in 2 simulated hours");
    }
}

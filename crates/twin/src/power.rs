//! Resource allocator & power simulator with conversion losses.
//!
//! Node power comes from the same white-box utilization model the
//! telemetry substrate uses (`oda-telemetry::power::PowerModel`) — that
//! shared physics is what makes replay validation meaningful. On top,
//! the twin adds the facility-side electrical chain the paper calls
//! out: "predicts energy losses due to rectification and voltage
//! conversion".

use oda_telemetry::jobs::Job;
use oda_telemetry::power::PowerModel;
use oda_telemetry::system::SystemModel;

/// Electrical conversion-chain parameters.
#[derive(Debug, Clone, Copy)]
pub struct ElectricalParams {
    /// Rectifier peak efficiency (at optimum load fraction).
    pub rectifier_peak_eff: f64,
    /// Load fraction where rectifier efficiency peaks.
    pub rectifier_opt_load: f64,
    /// Efficiency droop per unit squared deviation from optimum load.
    pub rectifier_droop: f64,
    /// On-node DC-DC voltage conversion efficiency.
    pub conversion_eff: f64,
}

impl Default for ElectricalParams {
    fn default() -> Self {
        ElectricalParams {
            rectifier_peak_eff: 0.965,
            rectifier_opt_load: 0.7,
            rectifier_droop: 0.08,
            conversion_eff: 0.97,
        }
    }
}

impl ElectricalParams {
    /// Rectifier efficiency at a given load fraction (0..1].
    pub fn rectifier_eff(&self, load_frac: f64) -> f64 {
        let d = load_frac - self.rectifier_opt_load;
        (self.rectifier_peak_eff - self.rectifier_droop * d * d).clamp(0.5, 1.0)
    }
}

/// One time step's power decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Time (ms).
    pub ts_ms: i64,
    /// IT load delivered to silicon (W).
    pub it_w: f64,
    /// On-node voltage conversion loss (W).
    pub conversion_loss_w: f64,
    /// Rectification loss (W).
    pub rectifier_loss_w: f64,
    /// Power drawn from the grid (W).
    pub facility_w: f64,
    /// Fraction of nodes busy.
    pub utilization: f64,
}

impl PowerSample {
    /// Heat dissipated into the cooling system (everything but the
    /// upstream rectifier loss, which is air-cooled in the substation).
    pub fn heat_to_coolant_w(&self) -> f64 {
        self.it_w + self.conversion_loss_w
    }
}

/// The twin's power simulator.
pub struct PowerSim {
    system: SystemModel,
    model: PowerModel,
    electrical: ElectricalParams,
    /// Job schedule driving the simulation.
    jobs: Vec<Job>,
}

impl PowerSim {
    /// Build for a system and job schedule.
    pub fn new(system: SystemModel, jobs: Vec<Job>) -> PowerSim {
        PowerSim {
            model: PowerModel::new(system.clone()),
            system,
            electrical: ElectricalParams::default(),
            jobs,
        }
    }

    /// The simulated system.
    pub fn system(&self) -> &SystemModel {
        &self.system
    }

    /// Jobs running at `ts_ms`.
    fn running_at(&self, ts_ms: i64) -> impl Iterator<Item = &Job> {
        self.jobs
            .iter()
            .filter(move |j| j.start_ms <= ts_ms && ts_ms < j.end_ms)
    }

    /// Simulate one instant.
    pub fn sample(&self, ts_ms: i64) -> PowerSample {
        let total_nodes = f64::from(self.system.node_count());
        let mut busy_nodes = 0u64;
        let mut it_w = 0.0;
        for job in self.running_at(ts_ms) {
            for &node in &job.nodes {
                let cpu = self.model.cpu_util(Some(job), node, ts_ms);
                let gpu = self.model.gpu_util(Some(job), node, ts_ms);
                it_w += self.model.node_power(cpu, gpu);
                busy_nodes += 1;
            }
        }
        // Idle nodes draw the idle floor.
        let idle_nodes = total_nodes - busy_nodes as f64;
        it_w += idle_nodes * self.system.node_idle_watts;

        let conversion_loss_w =
            it_w * (1.0 - self.electrical.conversion_eff) / self.electrical.conversion_eff;
        let dc_w = it_w + conversion_loss_w;
        let load_frac = dc_w / (self.system.peak_mw * 1e6).max(1.0);
        let eff = self.electrical.rectifier_eff(load_frac.clamp(0.01, 1.0));
        let facility_w = dc_w / eff;
        PowerSample {
            ts_ms,
            it_w,
            conversion_loss_w,
            rectifier_loss_w: facility_w - dc_w,
            facility_w,
            utilization: busy_nodes as f64 / total_nodes,
        }
    }

    /// Simulate a series over `[t0, t1)` at `dt_ms` resolution.
    pub fn simulate(&self, t0: i64, t1: i64, dt_ms: i64) -> Vec<PowerSample> {
        assert!(dt_ms > 0);
        (t0..t1)
            .step_by(dt_ms as usize)
            .map(|t| self.sample(t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_telemetry::jobs::ApplicationArchetype;

    fn hpl_job(nodes: u32, start: i64, end: i64) -> Job {
        Job {
            id: 1,
            user: 0,
            project: "PRJ000".into(),
            program: 0,
            archetype: ApplicationArchetype::Hpl,
            nodes: (0..nodes).collect(),
            submit_ms: start,
            start_ms: start,
            end_ms: end,
            phase: 0.25,
        }
    }

    #[test]
    fn idle_system_draws_idle_floor_plus_losses() {
        let sys = SystemModel::tiny();
        let sim = PowerSim::new(sys.clone(), vec![]);
        let s = sim.sample(0);
        let idle = f64::from(sys.node_count()) * sys.node_idle_watts;
        assert!((s.it_w - idle).abs() < 1e-6);
        assert!(s.facility_w > s.it_w, "losses must add");
        assert_eq!(s.utilization, 0.0);
    }

    #[test]
    fn loaded_system_draws_more() {
        let sys = SystemModel::tiny();
        let idle = PowerSim::new(sys.clone(), vec![])
            .sample(600_000)
            .facility_w;
        let sim = PowerSim::new(sys.clone(), vec![hpl_job(sys.node_count(), 0, 3_600_000)]);
        let busy = sim.sample(600_000);
        assert!(
            busy.facility_w > idle * 1.5,
            "{} vs idle {idle}",
            busy.facility_w
        );
        assert_eq!(busy.utilization, 1.0);
    }

    #[test]
    fn losses_are_positive_and_bounded() {
        let sys = SystemModel::tiny();
        let sim = PowerSim::new(sys.clone(), vec![hpl_job(4, 0, 3_600_000)]);
        for s in sim.simulate(0, 3_600_000, 60_000) {
            assert!(s.rectifier_loss_w > 0.0);
            assert!(s.conversion_loss_w > 0.0);
            let overhead = (s.facility_w - s.it_w) / s.it_w;
            assert!(overhead < 0.15, "overhead {overhead} implausible");
            assert!(
                (s.facility_w - (s.it_w + s.conversion_loss_w + s.rectifier_loss_w)).abs() < 1e-6
            );
        }
    }

    #[test]
    fn rectifier_efficiency_peaks_at_optimum() {
        let e = ElectricalParams::default();
        let at_opt = e.rectifier_eff(e.rectifier_opt_load);
        assert!(at_opt > e.rectifier_eff(0.1));
        assert!(at_opt > e.rectifier_eff(1.0));
        assert_eq!(at_opt, e.rectifier_peak_eff);
    }

    #[test]
    fn hpl_profile_shows_ramp_and_sustain() {
        let sys = SystemModel::tiny();
        let job = hpl_job(sys.node_count(), 0, 2 * 3_600_000);
        let sim = PowerSim::new(sys, vec![job]);
        let series = sim.simulate(0, 2 * 3_600_000, 60_000);
        let early = series[0].it_w;
        let mid = series[series.len() / 2].it_w;
        assert!(mid > early, "HPL should ramp: {early} -> {mid}");
        // Sustained phase should be near flat.
        let s1 = series[series.len() / 3].it_w;
        let s2 = series[2 * series.len() / 3].it_w;
        assert!((s1 - s2).abs() / s1 < 0.1, "sustained {s1} vs {s2}");
    }

    #[test]
    fn heat_to_coolant_excludes_rectifier() {
        let sys = SystemModel::tiny();
        let sim = PowerSim::new(sys, vec![]);
        let s = sim.sample(0);
        assert!((s.heat_to_coolant_w() - (s.it_w + s.conversion_loss_w)).abs() < 1e-9);
        assert!(s.heat_to_coolant_w() < s.facility_w);
    }
}

//! Telemetry replay: verification & validation of the twin (Fig. 11).
//!
//! "The system replays various telemetry data from the HPC data center
//! for verification and validation of the power and thermo-fluidic
//! models." Here: drive the twin with the *job schedule* recorded in
//! telemetry, then compare its predicted facility power against the
//! *measured* substation power series — two independent paths from the
//! same ground truth (measured telemetry carries sensor noise and
//! dropout the twin never sees).

use crate::cooling::{CoolingParams, CoolingPlant};
use crate::power::PowerSim;
use crate::validate::{correlation, mape, rmse};
use oda_telemetry::jobs::Job;
use oda_telemetry::system::SystemModel;

/// Outcome of a replay validation run.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Samples compared.
    pub samples: usize,
    /// Mean absolute percentage error of facility power.
    pub power_mape: f64,
    /// RMSE of facility power (W).
    pub power_rmse_w: f64,
    /// Correlation between predicted and measured power.
    pub power_correlation: f64,
    /// Mean measured facility power (W).
    pub mean_measured_w: f64,
    /// Mean predicted facility power (W).
    pub mean_predicted_w: f64,
    /// Mean rectifier + conversion losses predicted (W).
    pub mean_losses_w: f64,
    /// Predicted secondary-loop return temperature series (C).
    pub cooling_return_c: Vec<f64>,
    /// Predicted power series (W), aligned with the measured input.
    pub predicted_w: Vec<f64>,
}

/// Replay a recorded job schedule against a measured facility-power
/// series `measured` of `(ts_ms, watts)` samples.
pub fn replay(system: &SystemModel, jobs: &[Job], measured: &[(i64, f64)]) -> ReplayReport {
    let sim = PowerSim::new(system.clone(), jobs.to_vec());
    let mut plant = CoolingPlant::new(CoolingParams::sized_for(system.peak_mw));
    let mut predicted = Vec::with_capacity(measured.len());
    let mut cooling_return = Vec::with_capacity(measured.len());
    let mut losses = 0.0;
    let mut last_ts = measured.first().map(|m| m.0).unwrap_or(0);
    for &(ts, _) in measured {
        let s = sim.sample(ts);
        predicted.push(s.facility_w);
        losses += s.rectifier_loss_w + s.conversion_loss_w;
        let dt_s = ((ts - last_ts) as f64 / 1_000.0).max(1.0);
        let state = plant.step(s.heat_to_coolant_w(), dt_s);
        cooling_return.push(state.t_secondary_return_c);
        last_ts = ts;
    }
    let actual: Vec<f64> = measured.iter().map(|m| m.1).collect();
    ReplayReport {
        samples: measured.len(),
        power_mape: mape(&predicted, &actual),
        power_rmse_w: rmse(&predicted, &actual),
        power_correlation: correlation(&predicted, &actual),
        mean_measured_w: actual.iter().sum::<f64>() / actual.len().max(1) as f64,
        mean_predicted_w: predicted.iter().sum::<f64>() / predicted.len().max(1) as f64,
        mean_losses_w: losses / measured.len().max(1) as f64,
        cooling_return_c: cooling_return,
        predicted_w: predicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_telemetry::jobs::ApplicationArchetype;

    fn schedule(system: &SystemModel) -> Vec<Job> {
        vec![Job {
            id: 1,
            user: 0,
            project: "PRJ000".into(),
            program: 0,
            archetype: ApplicationArchetype::Hpl,
            nodes: (0..system.node_count()).collect(),
            submit_ms: 0,
            start_ms: 0,
            end_ms: 2 * 3_600_000,
            phase: 0.1,
        }]
    }

    /// "Measured" series: the same physics plus multiplicative noise —
    /// a stand-in for real substation telemetry.
    fn noisy_measurement(system: &SystemModel, jobs: &[Job]) -> Vec<(i64, f64)> {
        let sim = PowerSim::new(system.clone(), jobs.to_vec());
        (0..120)
            .map(|i| {
                let ts = i * 60_000;
                let w = sim.sample(ts).facility_w;
                // Deterministic pseudo-noise ±2%.
                let noise = 1.0 + 0.02 * ((i as f64) * 0.7).sin();
                (ts, w * noise)
            })
            .collect()
    }

    #[test]
    fn replay_tracks_measured_power() {
        let sys = SystemModel::tiny();
        let jobs = schedule(&sys);
        let measured = noisy_measurement(&sys, &jobs);
        let report = replay(&sys, &jobs, &measured);
        assert_eq!(report.samples, 120);
        assert!(
            report.power_mape < 0.05,
            "MAPE {} too high",
            report.power_mape
        );
        assert!(
            report.power_correlation > 0.9,
            "corr {}",
            report.power_correlation
        );
        assert!(report.mean_losses_w > 0.0);
    }

    #[test]
    fn cooling_response_rises_through_hpl_run() {
        let sys = SystemModel::tiny();
        let jobs = schedule(&sys);
        let measured = noisy_measurement(&sys, &jobs);
        let report = replay(&sys, &jobs, &measured);
        let early = report.cooling_return_c[1];
        let late = report.cooling_return_c[report.cooling_return_c.len() - 1];
        assert!(
            late > early,
            "loop must heat through the run: {early} -> {late}"
        );
    }

    #[test]
    fn wrong_schedule_validates_poorly() {
        // Replaying an *empty* schedule against a loaded measurement
        // must produce large errors — the validation can actually fail.
        let sys = SystemModel::tiny();
        let jobs = schedule(&sys);
        let measured = noisy_measurement(&sys, &jobs);
        let report = replay(&sys, &[], &measured);
        assert!(
            report.power_mape > 0.3,
            "empty twin matched loaded telemetry?"
        );
    }

    #[test]
    fn empty_measurement_is_safe() {
        let sys = SystemModel::tiny();
        let report = replay(&sys, &[], &[]);
        assert_eq!(report.samples, 0);
        assert!(report.power_mape.is_nan());
    }
}

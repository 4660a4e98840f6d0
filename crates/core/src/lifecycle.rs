//! The Fig. 1 operational feedback control loop, closed end-to-end.
//!
//! "This life cycle centers around a manual operational feedback
//! control loop ... powered by batches of data generated from real-time
//! data streams." One iteration here: **collect** (facility ticks →
//! STREAM), **engineer** (streaming Bronze→Silver query), **analyze**
//! (reduce Silver to facility health indicators), **decide** (rule on
//! the indicators), **adjust** (turn a real actuator — the coolant
//! supply set point — so the *next* iteration's telemetry changes).

use crate::error::OdaError;
use crate::facility::Facility;
use crate::ingest::topics;
use oda_pipeline::checkpoint::CheckpointStore;
use oda_pipeline::medallion::{observation_decoder, streaming_silver_transform};
use oda_pipeline::streaming::{MemorySink, StreamingQuery};
use oda_stream::Consumer;

/// Decision produced by one loop iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Adjustment {
    /// Thermal headroom available: raise the coolant supply set point
    /// to save cooling energy (warm-water operation).
    RaiseSupply {
        /// New set point (C).
        to_c: f64,
    },
    /// Thermal margin exhausted: lower the set point.
    LowerSupply {
        /// New set point (C).
        to_c: f64,
    },
    /// Within band: no change.
    Hold,
}

/// Indicators and outcome of one iteration.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Silver rows analyzed this iteration.
    pub silver_rows: usize,
    /// Mean node outlet temperature (C).
    pub mean_outlet_c: f64,
    /// Peak node outlet temperature (C).
    pub peak_outlet_c: f64,
    /// Mean node power (W).
    pub mean_node_power_w: f64,
    /// Decision taken.
    pub adjustment: Adjustment,
}

/// The loop driver for one system of a facility.
pub struct OperationalLoop {
    query: StreamingQuery,
    system_index: usize,
    /// Outlet temperature the loop tries to sit just below (C).
    pub target_outlet_c: f64,
    /// Dead band around the target (C).
    pub dead_band_c: f64,
    /// Set-point step per adjustment (C).
    pub step_c: f64,
}

impl OperationalLoop {
    /// Attach a loop to `facility`'s system `system_index`.
    pub fn attach(
        facility: &Facility,
        system_index: usize,
        window_ms: i64,
    ) -> Result<OperationalLoop, OdaError> {
        let system = facility.systems()[system_index].clone();
        let (bronze, _, _) = topics(&system.name);
        let consumer = Consumer::subscribe(facility.broker(), "ops-loop", &bronze)?;
        let catalog = oda_telemetry::SensorCatalog::for_system(&system);
        let query = StreamingQuery::builder()
            .source(consumer)
            .decoder(observation_decoder(catalog))
            .transform(streaming_silver_transform(window_ms, 0))
            .checkpoints(CheckpointStore::new())
            .build()?;
        Ok(OperationalLoop {
            query,
            system_index,
            target_outlet_c: 32.0,
            dead_band_c: 2.0,
            step_c: 1.0,
        })
    }

    /// Run one full loop iteration: collect `ticks` facility ticks,
    /// engineer Silver, analyze, decide, and apply the adjustment.
    pub fn iterate(
        &mut self,
        facility: &mut Facility,
        ticks: usize,
    ) -> Result<LoopReport, OdaError> {
        // Collect.
        facility.run(ticks);
        // Engineer: drain the stream into Silver.
        let mut sink = MemorySink::new();
        self.query.run_to_completion(&mut sink)?;
        let silver = sink.concat()?;
        // Analyze: thermal + power indicators from Silver.
        let sensors = silver.cat("sensor")?;
        let means = silver.f64s("mean")?;
        let mut outlet_sum = 0.0;
        let mut outlet_n = 0usize;
        let mut outlet_peak = f64::NEG_INFINITY;
        let mut power_sum = 0.0;
        let mut power_n = 0usize;
        for (i, &mean) in means.iter().enumerate() {
            match sensors.get(i) {
                "node_outlet_temp_c" if mean.is_finite() => {
                    outlet_sum += mean;
                    outlet_n += 1;
                    outlet_peak = outlet_peak.max(mean);
                }
                "node_power_w" if mean.is_finite() => {
                    power_sum += mean;
                    power_n += 1;
                }
                _ => {}
            }
        }
        let mean_outlet = outlet_sum / outlet_n.max(1) as f64;
        let peak_outlet = if outlet_n == 0 { f64::NAN } else { outlet_peak };
        // Decide.
        let generator = facility.generator_mut(self.system_index);
        let current = generator.coolant_supply_c();
        let adjustment = if outlet_n == 0 {
            Adjustment::Hold
        } else if peak_outlet < self.target_outlet_c - self.dead_band_c {
            Adjustment::RaiseSupply {
                to_c: current + self.step_c,
            }
        } else if peak_outlet > self.target_outlet_c + self.dead_band_c {
            Adjustment::LowerSupply {
                to_c: current - self.step_c,
            }
        } else {
            Adjustment::Hold
        };
        // Adjust the actuator.
        match adjustment {
            Adjustment::RaiseSupply { to_c } | Adjustment::LowerSupply { to_c } => {
                generator.set_coolant_supply_c(to_c);
            }
            Adjustment::Hold => {}
        }
        Ok(LoopReport {
            silver_rows: silver.rows(),
            mean_outlet_c: mean_outlet,
            peak_outlet_c: peak_outlet,
            mean_node_power_w: power_sum / power_n.max(1) as f64,
            adjustment,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FacilityConfig;

    #[test]
    fn loop_closes_and_actuates() {
        let mut facility = Facility::build(FacilityConfig::tiny(7));
        let mut ops = OperationalLoop::attach(&facility, 0, 15_000).unwrap();
        let before = facility.generator_mut(0).coolant_supply_c();
        let mut raised = false;
        for _ in 0..4 {
            let report = ops.iterate(&mut facility, 45).unwrap();
            assert!(report.silver_rows > 0, "no silver rows flowed");
            assert!(report.mean_node_power_w > 0.0);
            if matches!(report.adjustment, Adjustment::RaiseSupply { .. }) {
                raised = true;
            }
        }
        let after = facility.generator_mut(0).coolant_supply_c();
        // The tiny system idles cool, so the loop should raise the set
        // point for energy efficiency — and the actuator must move.
        assert!(raised, "expected at least one raise decision");
        assert!(after > before, "set point {before} -> {after}");
    }

    #[test]
    fn adjustment_feeds_back_into_telemetry() {
        let mut facility = Facility::build(FacilityConfig::tiny(9));
        let mut ops = OperationalLoop::attach(&facility, 0, 15_000).unwrap();
        let r1 = ops.iterate(&mut facility, 45).unwrap();
        // Force a big raise and observe the next iteration's outlet temps.
        facility.generator_mut(0).set_coolant_supply_c(35.0);
        // Let thermal state settle across a couple of iterations.
        ops.iterate(&mut facility, 45).unwrap();
        let r2 = ops.iterate(&mut facility, 45).unwrap();
        assert!(
            r2.mean_outlet_c > r1.mean_outlet_c + 5.0,
            "outlet {} -> {} did not follow the actuator",
            r1.mean_outlet_c,
            r2.mean_outlet_c
        );
    }
}

//! Transient thermo-fluidic cooling model.
//!
//! A lumped-parameter network of the liquid-cooling chain:
//!
//! ```text
//!   IT heat ──> secondary loop (cold plates, CDU)          [C_sec]
//!                 │  counterflow heat exchanger (ε-NTU)
//!                 v
//!               primary loop (facility water)              [C_pri]
//!                 │  cooling tower (approach to wet bulb)
//!                 v
//!               ambient
//! ```
//!
//! Each lump is a thermal capacitance integrated by explicit Euler with
//! a step bounded for stability. The model is white-box on purpose —
//! the paper's stated reason for physics models is extrapolation to
//! states never seen in telemetry (e.g. what-if set-point studies).

/// Plant parameters.
#[derive(Debug, Clone, Copy)]
pub struct CoolingParams {
    /// Secondary (node-side) loop thermal capacitance (J/K).
    pub c_secondary_j_per_k: f64,
    /// Primary (facility) loop thermal capacitance (J/K).
    pub c_primary_j_per_k: f64,
    /// Secondary loop mass flow (kg/s).
    pub m_secondary_kg_s: f64,
    /// Primary loop mass flow (kg/s).
    pub m_primary_kg_s: f64,
    /// CDU heat-exchanger effectiveness (0..1).
    pub hx_effectiveness: f64,
    /// Cooling-tower conductance UA (W/K).
    pub tower_ua_w_per_k: f64,
    /// Ambient wet-bulb temperature (C).
    pub wet_bulb_c: f64,
    /// Secondary supply set point (C) targeted by the CDU control.
    pub supply_setpoint_c: f64,
}

impl CoolingParams {
    /// Parameters scaled to a plant absorbing `peak_mw` megawatts with
    /// a ~10 C design rise.
    pub fn sized_for(peak_mw: f64) -> CoolingParams {
        let q = peak_mw * 1e6;
        let c_p = 4186.0;
        // Design rise of 10 C on each loop.
        let m = q / (c_p * 10.0);
        CoolingParams {
            // Loop water volumes sized for ~60 s residence.
            c_secondary_j_per_k: m * 60.0 * c_p,
            c_primary_j_per_k: m * 120.0 * c_p,
            m_secondary_kg_s: m,
            m_primary_kg_s: m * 1.2,
            hx_effectiveness: 0.85,
            tower_ua_w_per_k: q / 8.0, // ~8 C tower approach at design load
            wet_bulb_c: 18.0,
            supply_setpoint_c: 21.0,
        }
    }
}

/// Instantaneous plant state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoolingState {
    /// Secondary loop return temperature (C) — water leaving the racks.
    pub t_secondary_return_c: f64,
    /// Secondary loop supply temperature (C) — water entering the racks.
    pub t_secondary_supply_c: f64,
    /// Primary loop temperature (C) — facility water lump.
    pub t_primary_c: f64,
    /// Heat rejected at the tower (W).
    pub q_rejected_w: f64,
}

/// The transient plant model.
#[derive(Debug, Clone)]
pub struct CoolingPlant {
    params: CoolingParams,
    state: CoolingState,
}

const C_P: f64 = 4186.0;

impl CoolingPlant {
    /// Start at equilibrium with zero IT load.
    pub fn new(params: CoolingParams) -> CoolingPlant {
        CoolingPlant {
            state: CoolingState {
                t_secondary_return_c: params.supply_setpoint_c,
                t_secondary_supply_c: params.supply_setpoint_c,
                t_primary_c: params.wet_bulb_c + 2.0,
                q_rejected_w: 0.0,
            },
            params,
        }
    }

    /// Current state.
    pub fn state(&self) -> CoolingState {
        self.state
    }

    /// Plant parameters.
    pub fn params(&self) -> &CoolingParams {
        &self.params
    }

    /// Mutable parameters (what-if studies: set points, wet bulb).
    pub fn params_mut(&mut self) -> &mut CoolingParams {
        &mut self.params
    }

    /// Advance the plant by `dt_s` seconds under `q_it_w` watts of IT
    /// heat. Internally sub-steps to keep explicit Euler stable.
    pub fn step(&mut self, q_it_w: f64, dt_s: f64) -> CoolingState {
        // Stability bound: the fastest time constant is C/(m*c_p).
        let tau_sec =
            self.params.c_secondary_j_per_k / (self.params.m_secondary_kg_s * C_P).max(1e-9);
        let tau_pri = self.params.c_primary_j_per_k / (self.params.m_primary_kg_s * C_P).max(1e-9);
        let max_step = (tau_sec.min(tau_pri) / 4.0).max(1e-3);
        let n = (dt_s / max_step).ceil().max(1.0) as usize;
        let h = dt_s / n as f64;
        for _ in 0..n {
            self.euler_step(q_it_w, h);
        }
        self.state
    }

    fn euler_step(&mut self, q_it_w: f64, h: f64) {
        let p = &self.params;
        let s = &mut self.state;
        let m_s_cp = p.m_secondary_kg_s * C_P;
        let m_p_cp = p.m_primary_kg_s * C_P;

        // CDU heat exchanger: effectiveness on the hot (secondary) side
        // bounds what the primary loop can absorb.
        let c_min = m_s_cp.min(m_p_cp);
        let q_hx_max =
            p.hx_effectiveness * c_min * (s.t_secondary_return_c - s.t_primary_c).max(0.0);
        // Mixing valve: never cool the supply below the set point, so
        // the heat actually extracted is also bounded by the flow times
        // the (return - set point) drop. This is the coupling that makes
        // warm-water set-point studies behave physically.
        let q_to_setpoint = m_s_cp * (s.t_secondary_return_c - p.supply_setpoint_c).max(0.0);
        let q_hx = q_hx_max.min(q_to_setpoint);
        s.t_secondary_supply_c = s.t_secondary_return_c - q_hx / m_s_cp;

        // Secondary loop lump: heated by IT, cooled by the HX.
        let d_sec = (q_it_w - q_hx) / p.c_secondary_j_per_k;
        s.t_secondary_return_c += h * d_sec;

        // Tower rejection from the primary lump to the wet bulb.
        let q_tower = p.tower_ua_w_per_k * (s.t_primary_c - p.wet_bulb_c).max(0.0);
        let d_pri = (q_hx - q_tower) / p.c_primary_j_per_k;
        s.t_primary_c += h * d_pri;
        s.q_rejected_w = q_tower;
    }

    /// Run until the state stops changing (steady state), returning it.
    pub fn run_to_steady(&mut self, q_it_w: f64) -> CoolingState {
        let mut last = self.state;
        for _ in 0..100_000 {
            let now = self.step(q_it_w, 10.0);
            if (now.t_secondary_return_c - last.t_secondary_return_c).abs() < 1e-6
                && (now.t_primary_c - last.t_primary_c).abs() < 1e-6
            {
                return now;
            }
            last = now;
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plant(mw: f64) -> CoolingPlant {
        CoolingPlant::new(CoolingParams::sized_for(mw))
    }

    #[test]
    fn steady_state_balances_energy() {
        let mut p = plant(10.0);
        let q = 8.0e6;
        let s = p.run_to_steady(q);
        // At steady state the tower rejects exactly the IT heat.
        assert!(
            (s.q_rejected_w - q).abs() / q < 0.01,
            "rejected {} vs input {q}",
            s.q_rejected_w
        );
    }

    #[test]
    fn hotter_load_means_hotter_loops() {
        let low = plant(10.0).run_to_steady(2.0e6);
        let high = plant(10.0).run_to_steady(9.0e6);
        assert!(high.t_secondary_return_c > low.t_secondary_return_c + 2.0);
        assert!(high.t_primary_c > low.t_primary_c);
    }

    #[test]
    fn transient_lags_step_input() {
        let mut p = plant(10.0);
        p.run_to_steady(2.0e6);
        let before = p.state().t_secondary_return_c;
        // Step the load; after one short step the loop is warmer but far
        // from the new equilibrium.
        p.step(9.0e6, 10.0);
        let after_10s = p.state().t_secondary_return_c;
        let steady = p.run_to_steady(9.0e6).t_secondary_return_c;
        assert!(after_10s > before, "must start heating");
        assert!(
            steady - after_10s > 0.5 * (steady - before),
            "10 s into a step the loop must still be far from steady"
        );
    }

    #[test]
    fn supply_respects_setpoint_under_light_load() {
        let mut p = plant(10.0);
        let s = p.run_to_steady(1.0e6);
        assert!(
            (s.t_secondary_supply_c - p.params().supply_setpoint_c).abs() < 0.5,
            "light-load supply {} should sit at set point",
            s.t_secondary_supply_c
        );
    }

    #[test]
    fn higher_wet_bulb_raises_everything() {
        let cool = plant(10.0).run_to_steady(8.0e6);
        let mut hot_plant = plant(10.0);
        hot_plant.params_mut().wet_bulb_c = 28.0;
        let hot = hot_plant.run_to_steady(8.0e6);
        assert!(hot.t_primary_c > cool.t_primary_c + 5.0);
        assert!(hot.t_secondary_return_c > cool.t_secondary_return_c);
    }

    #[test]
    fn stability_under_large_dt() {
        // A huge caller-side dt must not blow up thanks to sub-stepping.
        let mut p = plant(30.0);
        let s = p.step(25.0e6, 3_600.0);
        assert!(s.t_secondary_return_c.is_finite());
        assert!(
            s.t_secondary_return_c < 100.0,
            "no boiling: {}",
            s.t_secondary_return_c
        );
        assert!(s.t_secondary_return_c > 15.0);
    }
}

//! `odabench`: the sensor-to-insight benchmark of the oda workspace.
//!
//! Four workloads drive the stack through its public API only and report
//! absolute end-to-end numbers; a traced run of the same workload breaks
//! one pass down per layer. `README.md` beside this crate says what each
//! workload and metric is for; `BENCHMARK.json` at the repository root
//! is the contract the names, units and bounds are checked against.

pub mod gen;
pub mod ingest;
pub mod live;
pub mod query;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Length of the measured section when `--seconds` is not given; equal
/// to `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Operations attempted and failed in a run. An `Err`, a non-200, a shed
/// request and a failed output check all count as failed.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// Add another thread's count to this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.iter().take(room).cloned());
    }

    /// Count one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }
}

/// An error as the text the report carries.
pub(crate) fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// One named figure of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What the command line asks of one workload run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny sizes, for the name-drift test.
    pub smoke: bool,
}

/// Result of one workload run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub tally: Tally,
    /// Every end-to-end metric (untraced run) or every per-layer metric
    /// (traced run), in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Quartiles, sample counts, per-pass raw values, findings.
    pub detail: serde::Value,
}

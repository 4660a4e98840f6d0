//! Experiment tracking and model registry (the MLflow role in Fig. 9).
//!
//! Each training run records its parameters (including the feature-store
//! version pin and seed), metrics, and the resulting model's content
//! hash. The registry maps model names to versioned artifacts for
//! "downstream inference workloads".

use crate::store::content_hash;
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// One recorded training run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Dense run id.
    pub id: u64,
    /// Experiment name.
    pub experiment: String,
    /// String-typed parameters ("seed", "dataset_version", ...).
    pub params: BTreeMap<String, String>,
    /// Metrics ("test_accuracy", "loss", ...).
    pub metrics: BTreeMap<String, f64>,
    /// Content hash of the produced model, when one was registered.
    pub model_hash: Option<String>,
}

/// Tracker plus model registry.
#[derive(Default)]
pub struct ExperimentTracker {
    runs: RwLock<Vec<Run>>,
    /// model name -> version hash -> bytes.
    registry: RwLock<BTreeMap<String, BTreeMap<String, Vec<u8>>>>,
}

impl ExperimentTracker {
    /// Empty tracker.
    pub fn new() -> ExperimentTracker {
        ExperimentTracker::default()
    }

    /// Record a run; returns its id.
    pub fn log_run(
        &self,
        experiment: &str,
        params: BTreeMap<String, String>,
        metrics: BTreeMap<String, f64>,
        model_bytes: Option<&[u8]>,
    ) -> u64 {
        let model_hash = model_bytes.map(content_hash);
        if let (Some(bytes), Some(hash)) = (model_bytes, &model_hash) {
            self.registry
                .write()
                .entry(experiment.to_string())
                .or_default()
                .insert(hash.clone(), bytes.to_vec());
        }
        let mut runs = self.runs.write();
        let id = runs.len() as u64;
        runs.push(Run {
            id,
            experiment: experiment.to_string(),
            params,
            metrics,
            model_hash,
        });
        id
    }

    /// All runs of an experiment.
    pub fn runs(&self, experiment: &str) -> Vec<Run> {
        self.runs
            .read()
            .iter()
            .filter(|r| r.experiment == experiment)
            .cloned()
            .collect()
    }

    /// The run with the best (max) value of `metric`.
    pub fn best_run(&self, experiment: &str, metric: &str) -> Option<Run> {
        self.runs(experiment)
            .into_iter()
            .filter(|r| r.metrics.contains_key(metric))
            .max_by(|a, b| {
                a.metrics[metric]
                    .partial_cmp(&b.metrics[metric])
                    .expect("finite metrics")
            })
    }

    /// Fetch a registered model's bytes by hash.
    pub fn model(&self, experiment: &str, hash: &str) -> Option<Vec<u8>> {
        self.registry.read().get(experiment)?.get(hash).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(seed: u64) -> BTreeMap<String, String> {
        [("seed".to_string(), seed.to_string())]
            .into_iter()
            .collect()
    }

    fn metrics(acc: f64) -> BTreeMap<String, f64> {
        [("test_accuracy".to_string(), acc)].into_iter().collect()
    }

    #[test]
    fn runs_recorded_in_order() {
        let t = ExperimentTracker::new();
        let a = t.log_run("clf", params(1), metrics(0.8), None);
        let b = t.log_run("clf", params(2), metrics(0.9), None);
        assert_eq!((a, b), (0, 1));
        assert_eq!(t.runs("clf").len(), 2);
        assert!(t.runs("other").is_empty());
    }

    #[test]
    fn best_run_by_metric() {
        let t = ExperimentTracker::new();
        t.log_run("clf", params(1), metrics(0.8), None);
        t.log_run("clf", params(2), metrics(0.95), None);
        t.log_run("clf", params(3), metrics(0.7), None);
        let best = t.best_run("clf", "test_accuracy").unwrap();
        assert_eq!(best.params["seed"], "2");
        assert!(t.best_run("clf", "unknown_metric").is_none());
    }

    #[test]
    fn model_registry_roundtrip() {
        let t = ExperimentTracker::new();
        let bytes = b"model-bytes";
        let id = t.log_run("clf", params(1), metrics(0.9), Some(bytes));
        let run = &t.runs("clf")[id as usize];
        let hash = run.model_hash.clone().unwrap();
        assert_eq!(t.model("clf", &hash).unwrap(), bytes);
        assert!(t.model("clf", "deadbeef").is_none());
    }

    #[test]
    fn identical_models_share_hash() {
        let t = ExperimentTracker::new();
        t.log_run("clf", params(1), metrics(0.9), Some(b"same"));
        t.log_run("clf", params(2), metrics(0.9), Some(b"same"));
        let runs = t.runs("clf");
        assert_eq!(runs[0].model_hash, runs[1].model_hash);
    }
}

//! The Fig. 10 job power-profile classifier.
//!
//! "A novel real-time job classification pipeline enhances analysis by
//! clustering job power profiles based on their similarity in
//! consumption patterns using a neural network" (§VIII-C). Profiles are
//! featurized, split train/test deterministically, and classified into
//! application archetypes by the [`Mlp`].

use crate::features::{featurize, FEATURE_DIM};
use crate::metrics::{accuracy, confusion_matrix};
use crate::nn::Mlp;
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f64,
    /// RNG seed (init, shuffling, split).
    pub seed: u64,
    /// Fraction of data held out for evaluation.
    pub test_fraction: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            hidden: 32,
            epochs: 200,
            batch_size: 16,
            lr: 0.1,
            seed: 42,
            test_fraction: 0.25,
        }
    }
}

/// Evaluation artifacts of one training run.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Held-out accuracy.
    pub test_accuracy: f64,
    /// Training-set accuracy.
    pub train_accuracy: f64,
    /// Held-out confusion matrix `[true][pred]`.
    pub confusion: Vec<Vec<u64>>,
    /// Final training loss.
    pub final_loss: f64,
}

/// A trained profile classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileClassifier {
    model: Mlp,
    /// Class labels in index order.
    pub classes: Vec<String>,
}

impl ProfileClassifier {
    /// Train on labeled profiles: `(samples, class label)` pairs.
    /// Returns the classifier and its evaluation.
    pub fn train(
        profiles: &[(Vec<f64>, String)],
        config: &TrainConfig,
    ) -> (ProfileClassifier, Evaluation) {
        assert!(!profiles.is_empty(), "no training data");
        // Stable class index from sorted distinct labels.
        let mut classes: Vec<String> = profiles.iter().map(|(_, l)| l.clone()).collect();
        classes.sort();
        classes.dedup();
        let class_of = |label: &str| classes.iter().position(|c| c == label).expect("known");

        let features: Vec<Vec<f64>> = profiles.iter().map(|(s, _)| featurize(s)).collect();
        let labels: Vec<usize> = profiles.iter().map(|(_, l)| class_of(l)).collect();

        // Deterministic shuffled split.
        let mut order: Vec<usize> = (0..profiles.len()).collect();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5117);
        order.shuffle(&mut rng);
        let n_test =
            ((profiles.len() as f64 * config.test_fraction) as usize).clamp(1, profiles.len() - 1);
        let (test_idx, train_idx) = order.split_at(n_test);

        let to_matrix = |idx: &[usize]| {
            let mut m = Matrix::zeros(idx.len(), FEATURE_DIM);
            for (r, &i) in idx.iter().enumerate() {
                m.data[r * FEATURE_DIM..(r + 1) * FEATURE_DIM].copy_from_slice(&features[i]);
            }
            m
        };
        let x_train = to_matrix(train_idx);
        let y_train: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
        let x_test = to_matrix(test_idx);
        let y_test: Vec<usize> = test_idx.iter().map(|&i| labels[i]).collect();

        let mut model = Mlp::new(&[FEATURE_DIM, config.hidden, classes.len()], config.seed);
        let final_loss = model.fit(
            &x_train,
            &y_train,
            config.epochs,
            config.batch_size,
            config.lr,
            config.seed,
        );

        let train_pred = model.predict(&x_train);
        let test_pred = model.predict(&x_test);
        let eval = Evaluation {
            test_accuracy: accuracy(&test_pred, &y_test),
            train_accuracy: accuracy(&train_pred, &y_train),
            confusion: confusion_matrix(&test_pred, &y_test, classes.len()),
            final_loss,
        };
        (ProfileClassifier { model, classes }, eval)
    }

    /// Classify one raw profile; returns the class label.
    pub fn classify(&self, samples: &[f64]) -> &str {
        let f = featurize(samples);
        let x = Matrix::from_vec(1, f.len(), f);
        let idx = self.model.predict(&x)[0];
        &self.classes[idx]
    }

    /// Class probabilities for one profile, in `classes` order.
    pub fn proba(&self, samples: &[f64]) -> Vec<f64> {
        let f = featurize(samples);
        let x = Matrix::from_vec(1, f.len(), f);
        self.model.predict_proba(&x).row(0).to_vec()
    }

    /// Canonical serialized form (bit-stable across identical runs).
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("classifier serializes")
    }

    /// Deserialize.
    pub fn from_bytes(bytes: &[u8]) -> Option<ProfileClassifier> {
        serde_json::from_slice(bytes).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_telemetry_shapes::synthetic_profiles;

    /// Local generator of archetype-shaped synthetic profiles, kept in a
    /// tiny inline module so the crate stays independent of
    /// oda-telemetry (the integration tests exercise the real path).
    mod oda_telemetry_shapes {
        pub fn synthetic_profiles(per_class: usize, seed: u64) -> Vec<(Vec<f64>, String)> {
            use rand::rngs::StdRng;
            use rand::{RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::new();
            for k in 0..per_class {
                let phase: f64 = rng.random::<f64>() * std::f64::consts::TAU;
                let n = 120 + (k % 40);
                let mk =
                    |f: &dyn Fn(f64) -> f64| -> Vec<f64> { (0..n).map(|i| f(i as f64)).collect() };
                out.push((
                    mk(&|t| (t / 10.0).min(1.0) * 0.9 + 0.02 * (t * 0.3 + phase).sin()),
                    "hpl".into(),
                ));
                out.push((
                    mk(&|t| {
                        if ((t + phase * 10.0) % 40.0) < 30.0 {
                            0.8
                        } else {
                            0.2
                        }
                    }),
                    "climate".into(),
                ));
                out.push((mk(&|t| 0.6 + 0.05 * (t * 0.1 + phase).sin()), "md".into()));
                out.push((
                    mk(&|t| {
                        let pos = ((t + phase * 5.0) % 12.0) / 12.0;
                        if pos < 0.9 {
                            0.6 + 0.3 * pos
                        } else {
                            0.25
                        }
                    }),
                    "dl-train".into(),
                ));
                out.push((
                    mk(&|t| {
                        if ((t * 0.11 + phase).sin() * (t * 0.07).sin()) > 0.5 {
                            0.6
                        } else {
                            0.12
                        }
                    }),
                    "analytics".into(),
                ));
                out.push((
                    mk(&|t| 0.08 + 0.04 * (t * 0.5 + phase).sin().abs()),
                    "debug".into(),
                ));
            }
            out
        }
    }

    #[test]
    fn learns_archetype_shapes() {
        let data = synthetic_profiles(40, 1);
        let (clf, eval) = ProfileClassifier::train(&data, &TrainConfig::default());
        assert_eq!(clf.classes.len(), 6);
        assert!(
            eval.test_accuracy > 0.9,
            "test accuracy {} not >> chance (0.167)",
            eval.test_accuracy
        );
        // Confusion matrix rows sum to per-class test counts.
        let total: u64 = eval.confusion.iter().flatten().sum();
        assert_eq!(total as usize, (240.0 * 0.25) as usize);
    }

    #[test]
    fn training_is_bit_reproducible() {
        let data = synthetic_profiles(10, 2);
        let cfg = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        let (a, ea) = ProfileClassifier::train(&data, &cfg);
        let (b, eb) = ProfileClassifier::train(&data, &cfg);
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(ea.test_accuracy, eb.test_accuracy);
    }

    #[test]
    fn classify_roundtrip_after_serialization() {
        let data = synthetic_profiles(20, 3);
        let (clf, _) = ProfileClassifier::train(&data, &TrainConfig::default());
        let bytes = clf.to_bytes();
        let back = ProfileClassifier::from_bytes(&bytes).unwrap();
        let steady: Vec<f64> = (0..100)
            .map(|i| 0.6 + 0.05 * (i as f64 * 0.1).sin())
            .collect();
        assert_eq!(clf.classify(&steady), back.classify(&steady));
        let p = back.proba(&steady);
        assert_eq!(p.len(), 6);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn handles_profiles_with_gaps() {
        let mut data = synthetic_profiles(20, 4);
        // Punch holes in every 7th sample of every profile.
        for (samples, _) in &mut data {
            for i in (0..samples.len()).step_by(7) {
                samples[i] = f64::NAN;
            }
        }
        let (_, eval) = ProfileClassifier::train(&data, &TrainConfig::default());
        assert!(
            eval.test_accuracy > 0.8,
            "gappy accuracy {}",
            eval.test_accuracy
        );
    }

    /// The model artifact, byte for byte: the classifier wraps the MLP,
    /// its dense layers and their matrices, so this pins all four.
    #[test]
    fn model_bytes_are_pinned() {
        let json = r#"{"model":{"layers":[{"w":{"rows":2,"cols":1,"data":[0.5,-1.25]},"b":[0.125]}]},"classes":["hpl","md"]}"#;
        let clf = ProfileClassifier::from_bytes(json.as_bytes()).unwrap();
        assert_eq!(clf.classes, ["hpl", "md"]);
        assert_eq!(std::str::from_utf8(&clf.to_bytes()).unwrap(), json);
    }
}

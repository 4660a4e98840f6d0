//! # oda-ml — ML engineering for operational data (§VIII)
//!
//! The paper's advanced-data-usage layer, from scratch:
//!
//! * [`tensor`] — dense matrices with the operations a small network
//!   needs.
//! * [`nn`] — a multilayer perceptron trained by mini-batch SGD with
//!   softmax cross-entropy, deterministic under a seed.
//! * [`features`] — power-profile featurization (fixed-length resample
//!   plus normalization), tolerant of the "streamed, skewed, and lossy"
//!   gaps that §VIII-A describes.
//! * [`classifier`] — the Fig. 10 job power-profile classifier.
//! * [`som`] — a self-organizing map producing Fig. 10's population
//!   grid (cells = profile shapes, color = observed population).
//! * [`store`] — a content-hashed, versioned feature store (the DVC
//!   role in Fig. 9's pipeline).
//! * [`tracking`] — experiment runs, params, metrics, and a model
//!   registry (the MLflow role).
//! * [`metrics`] — accuracy and confusion matrices.
//!
//! Determinism is load-bearing: identical feature-store versions and
//! seeds reproduce models bit-for-bit (the Fig. 9 reproducibility
//! property, asserted by the `ml_repro` integration test).

pub mod classifier;
pub mod features;
pub mod metrics;
pub mod nn;
pub mod som;
pub mod store;
pub mod tensor;
pub mod tracking;

pub use classifier::ProfileClassifier;
pub use nn::Mlp;
pub use som::SelfOrganizingMap;
pub use store::FeatureStore;
pub use tensor::Matrix;
pub use tracking::ExperimentTracker;

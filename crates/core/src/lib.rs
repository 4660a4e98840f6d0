//! # oda-core — the end-to-end ODA framework facade
//!
//! Wires every subsystem into the "hourglass" architecture of §V: the
//! instrumented systems feed the STREAM broker; pipelines refine
//! Bronze → Silver → Gold; tiered services hold the artifacts; packaged
//! applications, ML, and the digital twin consume them; governance
//! gates distribution.
//!
//! * [`config`] — facility configuration.
//! * [`facility`] — assembly: systems + broker + tiers + governance.
//! * [`ingest`] — telemetry publication into STREAM topics.
//! * [`lifecycle`] — the Fig. 1 manual operational feedback control
//!   loop, closed end-to-end: collect → engineer → analyze → decide →
//!   adjust (the adjustment actually changes subsequent telemetry).
//! * [`campaign`] — the §VI data-exploration campaign driver: build the
//!   dictionary, stand up the Silver pipeline, promote maturity.
//! * [`error`] — [`OdaError`], the workspace-level error every facade
//!   entry point returns.

pub mod campaign;
pub mod config;
pub mod error;
pub mod facility;
pub mod ingest;
pub mod lifecycle;

pub use config::FacilityConfig;
pub use error::OdaError;
pub use facility::Facility;
pub use lifecycle::{Adjustment, LoopReport, OperationalLoop};

/// Commonly used types across the workspace.
pub mod prelude {
    pub use crate::campaign::{run_campaign, CampaignReport};
    pub use crate::config::FacilityConfig;
    pub use crate::error::OdaError;
    pub use crate::facility::Facility;
    pub use crate::lifecycle::{Adjustment, LoopReport, OperationalLoop};
    pub use oda_analytics::{Copacetic, LvaIndex, RatsReport, UaDashboard};
    pub use oda_govern::{DataRuc, MaturityMatrix, ReleaseRequest, Sanitizer};
    pub use oda_ml::{FeatureStore, ProfileClassifier, SelfOrganizingMap};
    pub use oda_pipeline::{Frame, Query};
    pub use oda_storage::{DataClass, Glacier, Lake, Ocean};
    pub use oda_stream::{Broker, Consumer, RetentionPolicy};
    pub use oda_telemetry::{SystemModel, TelemetryGenerator};
    pub use oda_twin::{replay, CoolingPlant, PowerSim};
}

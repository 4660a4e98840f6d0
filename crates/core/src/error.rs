//! Workspace-level error type.
//!
//! Cross-crate drivers (examples, integration tests, the facade
//! modules here) juggle errors from the STREAM tier, the pipeline
//! engine, and the storage tiers. [`OdaError`] unifies them behind one
//! type with `From` impls in every direction that matters, so callers
//! write `?` instead of string-matching variants, and
//! [`oda_faults::Retryable`] carries through so supervisor loops can
//! still classify what escaped.

use oda_faults::{FaultClass, Retryable};
use oda_pipeline::PipelineError;
use oda_storage::StorageError;
use oda_stream::StreamError;
use std::fmt;

/// Any error the ODA stack can surface to a driver.
#[derive(Debug, Clone, PartialEq)]
pub enum OdaError {
    /// STREAM tier (broker, producer, consumer).
    Stream(StreamError),
    /// Pipeline engine (frames, plans, streaming queries).
    Pipeline(PipelineError),
    /// Storage tiers (LAKE / OCEAN / GLACIER).
    Storage(StorageError),
}

impl fmt::Display for OdaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OdaError::Stream(e) => write!(f, "stream: {e}"),
            OdaError::Pipeline(e) => write!(f, "pipeline: {e}"),
            OdaError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for OdaError {}

impl Retryable for OdaError {
    fn fault_class(&self) -> FaultClass {
        match self {
            OdaError::Stream(e) => e.fault_class(),
            OdaError::Pipeline(e) => e.fault_class(),
            // Storage errors carry no retry classification of their
            // own: corrupt/missing artifacts don't heal on retry.
            OdaError::Storage(_) => FaultClass::Fatal,
        }
    }
}

impl From<StreamError> for OdaError {
    fn from(e: StreamError) -> Self {
        OdaError::Stream(e)
    }
}

impl From<PipelineError> for OdaError {
    fn from(e: PipelineError) -> Self {
        OdaError::Pipeline(e)
    }
}

impl From<StorageError> for OdaError {
    fn from(e: StorageError) -> Self {
        OdaError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_display_and_classification() {
        let e: OdaError = StreamError::UnknownTopic("t".into()).into();
        assert!(e.to_string().contains("stream"));
        assert_eq!(e.fault_class(), FaultClass::Fatal);

        let e: OdaError = PipelineError::InvalidQuery("no source".into()).into();
        assert!(e.to_string().contains("invalid query"));
        assert_eq!(e.fault_class(), FaultClass::Fatal);

        let e: OdaError = StorageError::NotFound("x".into()).into();
        assert!(e.to_string().contains("storage"));
        assert_eq!(e.fault_class(), FaultClass::Fatal);

        // Retryability carries through from the inner classification.
        let e: OdaError = StreamError::FetchFailed {
            topic: "t".into(),
            partition: 0,
        }
        .into();
        assert_eq!(e.fault_class(), FaultClass::Retryable);
    }
}

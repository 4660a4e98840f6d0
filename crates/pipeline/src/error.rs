//! Error type for pipeline operations.

use oda_faults::{FaultClass, FaultKind, Retryable};
use oda_storage::StorageError;
use oda_stream::StreamError;
use std::fmt;

/// Errors from frame operations, plans, and streaming queries.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A referenced column does not exist.
    ColumnNotFound(String),
    /// A column had an unexpected type for the operation.
    TypeMismatch {
        /// Column name.
        column: String,
        /// What the operation needed.
        expected: String,
    },
    /// Frame construction with ragged column lengths.
    RaggedColumns,
    /// Underlying broker error.
    Stream(StreamError),
    /// Underlying storage error.
    Storage(StorageError),
    /// Malformed payload on the stream.
    Decode(String),
    /// An armed fault plan fired (crash after sink, lost checkpoint, ...).
    Injected(FaultKind),
    /// A checkpoint commit would break epoch density.
    CheckpointGap {
        /// The epoch the store expected next.
        expected: u64,
        /// The epoch that was offered.
        got: u64,
    },
    /// A query was malformed: a plan argument out of range (a
    /// non-positive window width, or a width that leaves a timestamp
    /// without an `i64` window start) or a configuration
    /// `StreamingQueryBuilder::build` rejected.
    InvalidQuery(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::ColumnNotFound(c) => write!(f, "column {c:?} not found"),
            PipelineError::TypeMismatch { column, expected } => {
                write!(f, "column {column:?} is not {expected}")
            }
            PipelineError::RaggedColumns => write!(f, "columns have differing lengths"),
            PipelineError::Stream(e) => write!(f, "stream: {e}"),
            PipelineError::Storage(e) => write!(f, "storage: {e}"),
            PipelineError::Decode(m) => write!(f, "decode: {m}"),
            PipelineError::Injected(k) => write!(f, "injected fault: {k}"),
            PipelineError::CheckpointGap { expected, got } => write!(
                f,
                "checkpoint epochs must be dense: expected {expected}, got {got}"
            ),
            PipelineError::InvalidQuery(m) => write!(f, "invalid query: {m}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl Retryable for PipelineError {
    fn fault_class(&self) -> FaultClass {
        match self {
            PipelineError::Stream(e) => e.fault_class(),
            PipelineError::Injected(k) => k.class(),
            // Structural errors: a retry re-runs the same failing logic.
            PipelineError::ColumnNotFound(_)
            | PipelineError::TypeMismatch { .. }
            | PipelineError::RaggedColumns
            | PipelineError::Storage(_)
            | PipelineError::Decode(_)
            | PipelineError::CheckpointGap { .. }
            | PipelineError::InvalidQuery(_) => FaultClass::Fatal,
        }
    }
}

impl From<StreamError> for PipelineError {
    fn from(e: StreamError) -> Self {
        PipelineError::Stream(e)
    }
}

impl From<StorageError> for PipelineError {
    fn from(e: StorageError) -> Self {
        PipelineError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: PipelineError = StreamError::UnknownTopic("t".into()).into();
        assert!(e.to_string().contains("stream"));
        let e: PipelineError = StorageError::NotFound("x".into()).into();
        assert!(e.to_string().contains("storage"));
        assert!(PipelineError::ColumnNotFound("c".into())
            .to_string()
            .contains("c"));
    }
}

//! Ingestion errors.

use crowdweb_crowd::PipelineError;
use crowdweb_dataset::DatasetError;
use std::error::Error;
use std::fmt;
use std::io;

/// Error from any part of the ingestion subsystem.
#[derive(Debug)]
pub enum IngestError {
    /// The bounded queue cannot absorb the batch; retry after an epoch
    /// drains it.
    Backpressure {
        /// Records currently queued.
        queued: usize,
        /// The queue's configured capacity.
        capacity: usize,
        /// Size of the rejected batch.
        rejected: usize,
    },
    /// Write-ahead-log I/O failed.
    Wal(io::Error),
    /// A WAL file held an unreadable record outside the recoverable
    /// torn-tail case (e.g. a corrupt checkpoint).
    Corrupt(String),
    /// Merging the batch into the dataset failed.
    Dataset(DatasetError),
    /// Rebuilding the snapshot pipeline failed.
    Pipeline(PipelineError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Backpressure {
                queued,
                capacity,
                rejected,
            } => write!(
                f,
                "ingest queue full ({queued}/{capacity} queued, batch of {rejected} rejected)"
            ),
            IngestError::Wal(e) => write!(f, "write-ahead log I/O failed: {e}"),
            IngestError::Corrupt(msg) => write!(f, "write-ahead log corrupt: {msg}"),
            IngestError::Dataset(e) => write!(f, "merging ingested records failed: {e}"),
            IngestError::Pipeline(e) => write!(f, "snapshot pipeline failed: {e}"),
        }
    }
}

impl Error for IngestError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IngestError::Wal(e) => Some(e),
            IngestError::Dataset(e) => Some(e),
            IngestError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Wal(e)
    }
}

impl From<DatasetError> for IngestError {
    fn from(e: DatasetError) -> Self {
        IngestError::Dataset(e)
    }
}

impl From<PipelineError> for IngestError {
    fn from(e: PipelineError) -> Self {
        IngestError::Pipeline(e)
    }
}

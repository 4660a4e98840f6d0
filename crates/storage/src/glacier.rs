//! GLACIER — sealed compressed archives with modeled recall latency.
//!
//! The paper's GLACIER tier is a tape archive: terabyte-scale Bronze
//! datasets are "stored in cold storage in a frozen state" (§VI-B) until
//! upstream pipelines exist to refine them. Archives here are sealed
//! (immutable), compressed at ingest, and recalls report a simulated
//! latency proportional to archive size — enough for the tiering
//! experiments to show the cost asymmetry between tiers.

use crate::compress::{compress, decompress};
use crate::error::StorageError;
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// Recall latency model: fixed tape-mount cost plus streaming rate.
#[derive(Debug, Clone, Copy)]
pub struct RecallModel {
    /// Fixed seconds per recall (mount + seek).
    pub mount_s: f64,
    /// Streaming rate in bytes/second.
    pub bytes_per_s: f64,
}

impl Default for RecallModel {
    fn default() -> Self {
        // 90 s mount/seek, 300 MB/s streaming.
        RecallModel {
            mount_s: 90.0,
            bytes_per_s: 300.0e6,
        }
    }
}

struct Archive {
    compressed: Vec<u8>,
    original_bytes: usize,
}

/// The archive tier.
pub struct Glacier {
    archives: RwLock<BTreeMap<String, Archive>>,
    model: RecallModel,
}

impl Glacier {
    /// Create with the default recall model.
    pub fn new() -> Glacier {
        Glacier::with_model(RecallModel::default())
    }

    /// Create with an explicit recall model.
    pub fn with_model(model: RecallModel) -> Glacier {
        Glacier {
            archives: RwLock::new(BTreeMap::new()),
            model,
        }
    }

    /// Seal `data` under `name`. Errors if the name is taken (archives
    /// are immutable).
    pub fn archive(&self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut archives = self.archives.write();
        if archives.contains_key(name) {
            return Err(StorageError::InvalidState(format!(
                "archive {name:?} is sealed"
            )));
        }
        archives.insert(
            name.to_string(),
            Archive {
                compressed: compress(data),
                original_bytes: data.len(),
            },
        );
        Ok(())
    }

    /// Recall an archive: returns (data, simulated latency in seconds).
    pub fn recall(&self, name: &str) -> Result<(Vec<u8>, f64), StorageError> {
        let archives = self.archives.read();
        let a = archives
            .get(name)
            .ok_or_else(|| StorageError::NotFound(format!("archive {name}")))?;
        let data = decompress(&a.compressed)?;
        let latency = self.model.mount_s + a.original_bytes as f64 / self.model.bytes_per_s;
        Ok((data, latency))
    }

    /// Stored (compressed) bytes.
    pub fn stored_bytes(&self) -> usize {
        self.archives
            .read()
            .values()
            .map(|a| a.compressed.len())
            .sum()
    }

    /// Original (uncompressed) bytes represented.
    pub fn original_bytes(&self) -> usize {
        self.archives
            .read()
            .values()
            .map(|a| a.original_bytes)
            .sum()
    }

    /// Archive names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.archives.read().keys().cloned().collect()
    }
}

impl Default for Glacier {
    fn default() -> Self {
        Glacier::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archive_recall_roundtrip() {
        let g = Glacier::new();
        let data: Vec<u8> = b"bronze telemetry "
            .iter()
            .cycle()
            .take(100_000)
            .copied()
            .collect();
        g.archive("day-001", &data).unwrap();
        let (back, latency) = g.recall("day-001").unwrap();
        assert_eq!(back, data);
        assert!(latency >= 90.0, "mount cost missing: {latency}");
    }

    #[test]
    fn archives_are_immutable() {
        let g = Glacier::new();
        g.archive("x", b"1").unwrap();
        assert!(matches!(
            g.archive("x", b"2"),
            Err(StorageError::InvalidState(_))
        ));
    }

    #[test]
    fn compression_accounted() {
        let g = Glacier::new();
        let data: Vec<u8> = vec![0u8; 1_000_000];
        g.archive("zeros", &data).unwrap();
        assert!(g.stored_bytes() < data.len() / 100);
        assert_eq!(g.original_bytes(), data.len());
    }

    #[test]
    fn recall_latency_scales_with_size() {
        let g = Glacier::new();
        g.archive("small", &vec![1u8; 1_000]).unwrap();
        g.archive("big", &vec![1u8; 30_000_000]).unwrap();
        let (_, small_lat) = g.recall("small").unwrap();
        let (_, big_lat) = g.recall("big").unwrap();
        assert!(big_lat > small_lat);
    }

    #[test]
    fn missing_archive_errors() {
        let g = Glacier::new();
        assert!(g.recall("nope").is_err());
    }
}

//! OCEAN — object store with ever-appended columnar datasets.
//!
//! The paper's OCEAN service is "ever-appended parquet-based highly
//! compressed tabular data" on an S3 object store (§V-B). Here: an
//! in-memory bucket/object store plus [`OceanDataset`], a named sequence
//! of [`TableFile`] part objects sharing one schema. Appends create new
//! parts; scans use footer statistics to skip parts and row groups.

use crate::colfile::{ColumnData, TableFile, TableSchema};
use crate::error::StorageError;
use crate::metrics::OceanMetrics;
use bytes::Bytes;
use oda_obs::{Registry, TraceEventKind};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// In-memory object store (MinIO/S3 analogue).
#[derive(Default)]
pub struct Ocean {
    buckets: RwLock<BTreeMap<String, BTreeMap<String, Bytes>>>,
    metrics: RwLock<Option<OceanMetrics>>,
}

impl Ocean {
    /// Create an empty store.
    pub fn new() -> Arc<Ocean> {
        Arc::new(Ocean::default())
    }

    /// Count object read/write volume in `registry` and, when it carries
    /// a tracer, record `ocean_put`/`ocean_get` trace events (bucket,
    /// key, bytes) into it. Observational only.
    pub fn attach_metrics(&self, registry: &Registry) {
        let m = OceanMetrics::new(registry);
        m.objects.set(
            self.buckets
                .read()
                .values()
                .map(|objs| objs.len() as i64)
                .sum(),
        );
        *self.metrics.write() = Some(m);
    }

    fn record_io(m: &OceanMetrics, op: &str, bucket: &str, key: &str, bytes: u64) {
        let Some(tr) = &m.tracer else { return };
        let ctx = oda_obs::fnv1a(format!("{bucket}/{key}").as_bytes());
        let (bucket, key) = (bucket.to_string(), key.to_string());
        let kind = if op == "put" {
            TraceEventKind::OceanPut { bucket, key, bytes }
        } else {
            TraceEventKind::OceanGet { bucket, key, bytes }
        };
        tr.service_event("ocean", op, ctx, ctx, kind);
    }

    /// Create a bucket (idempotent).
    pub fn create_bucket(&self, bucket: &str) {
        self.buckets.write().entry(bucket.to_string()).or_default();
    }

    /// Store an object.
    pub fn put(&self, bucket: &str, key: &str, value: Bytes) -> Result<(), StorageError> {
        let size = value.len() as u64;
        let mut b = self.buckets.write();
        let objs = b
            .get_mut(bucket)
            .ok_or_else(|| StorageError::NotFound(format!("bucket {bucket}")))?;
        let fresh = objs.insert(key.to_string(), value).is_none();
        drop(b);
        if let Some(m) = self.metrics.read().as_ref() {
            m.put_objects.inc();
            m.put_bytes.add(size);
            if fresh {
                m.objects.add(1);
            }
            Self::record_io(m, "put", bucket, key, size);
        }
        Ok(())
    }

    /// Fetch an object.
    pub fn get(&self, bucket: &str, key: &str) -> Result<Bytes, StorageError> {
        let out = self
            .buckets
            .read()
            .get(bucket)
            .and_then(|objs| objs.get(key).cloned())
            .ok_or_else(|| StorageError::NotFound(format!("{bucket}/{key}")))?;
        if let Some(m) = self.metrics.read().as_ref() {
            m.get_objects.inc();
            m.get_bytes.add(out.len() as u64);
            Self::record_io(m, "get", bucket, key, out.len() as u64);
        }
        Ok(out)
    }

    /// Delete an object; returns whether it existed.
    pub fn delete(&self, bucket: &str, key: &str) -> bool {
        let existed = self
            .buckets
            .write()
            .get_mut(bucket)
            .map(|objs| objs.remove(key).is_some())
            .unwrap_or(false);
        if existed {
            if let Some(m) = self.metrics.read().as_ref() {
                m.objects.sub(1);
            }
        }
        existed
    }

    /// Keys under a prefix, sorted.
    pub fn list(&self, bucket: &str, prefix: &str) -> Vec<String> {
        self.buckets
            .read()
            .get(bucket)
            .map(|objs| {
                objs.keys()
                    .filter(|k| k.starts_with(prefix))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Total stored bytes in one bucket.
    pub fn bucket_bytes(&self, bucket: &str) -> usize {
        self.buckets
            .read()
            .get(bucket)
            .map(|objs| objs.values().map(Bytes::len).sum())
            .unwrap_or(0)
    }

    /// Total stored bytes across buckets.
    pub fn total_bytes(&self) -> usize {
        self.buckets
            .read()
            .values()
            .map(|objs| objs.values().map(Bytes::len).sum::<usize>())
            .sum()
    }
}

/// An appendable, schema-stable columnar dataset in OCEAN.
pub struct OceanDataset {
    ocean: Arc<Ocean>,
    bucket: String,
    name: String,
    schema: TableSchema,
}

impl OceanDataset {
    /// Create (or validate and open) a dataset.
    pub fn create(
        ocean: Arc<Ocean>,
        bucket: &str,
        name: &str,
        schema: TableSchema,
    ) -> Result<OceanDataset, StorageError> {
        ocean.create_bucket(bucket);
        let schema_key = format!("datasets/{name}/_schema.json");
        match ocean.get(bucket, &schema_key) {
            Ok(existing) => {
                let existing: TableSchema = serde_json::from_slice(&existing)
                    .map_err(|e| StorageError::Corrupt(format!("schema object: {e}")))?;
                if existing != schema {
                    return Err(StorageError::SchemaMismatch {
                        expected: format!("{existing:?}"),
                        got: format!("{schema:?}"),
                    });
                }
            }
            Err(_) => {
                let body = serde_json::to_vec(&schema).expect("schema serializes");
                ocean.put(bucket, &schema_key, Bytes::from(body))?;
            }
        }
        Ok(OceanDataset {
            ocean,
            bucket: bucket.to_string(),
            name: name.to_string(),
            schema,
        })
    }

    /// The dataset's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Append columns as a new part object; returns the part key.
    pub fn append(&self, columns: &[ColumnData]) -> Result<String, StorageError> {
        let mut w = TableFile::writer(self.schema.clone());
        w.write_row_group(columns)?;
        let bytes = w.finish();
        let part_idx = self.parts().len();
        let key = format!("datasets/{}/part-{part_idx:06}.ocf", self.name);
        self.ocean.put(&self.bucket, &key, Bytes::from(bytes))?;
        Ok(key)
    }

    /// Sorted part keys.
    pub fn parts(&self) -> Vec<String> {
        self.ocean
            .list(&self.bucket, &format!("datasets/{}/part-", self.name))
    }

    /// Open one part.
    pub fn open_part(&self, key: &str) -> Result<TableFile, StorageError> {
        let bytes = self.ocean.get(&self.bucket, key)?;
        TableFile::open(bytes.to_vec())
    }

    /// Total rows across parts (reads footers only).
    pub fn num_rows(&self) -> Result<usize, StorageError> {
        let mut rows = 0;
        for key in self.parts() {
            rows += self.open_part(&key)?.num_rows();
        }
        Ok(rows)
    }

    /// Stored bytes across parts.
    pub fn byte_size(&self) -> usize {
        self.parts()
            .iter()
            .map(|k| {
                self.ocean
                    .get(&self.bucket, k)
                    .map(|b| b.len())
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Scan all row groups (across parts) whose `column` stats intersect
    /// `[lo, hi]`. Returns the matching row groups' columns.
    pub fn scan_range(
        &self,
        column: &str,
        lo: f64,
        hi: f64,
    ) -> Result<Vec<Vec<ColumnData>>, StorageError> {
        let mut out = Vec::new();
        for key in self.parts() {
            let file = self.open_part(&key)?;
            for g in file.row_groups_in_range(column, lo, hi) {
                out.push(file.read_row_group(g)?);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colfile::ColumnType;

    fn schema() -> TableSchema {
        TableSchema::new(&[("ts_ms", ColumnType::I64), ("v", ColumnType::F64)])
    }

    fn cols(base: i64, n: usize) -> Vec<ColumnData> {
        vec![
            ColumnData::I64((0..n as i64).map(|i| base + i).collect()),
            ColumnData::F64(vec![1.0; n].into()),
        ]
    }

    #[test]
    fn object_crud() {
        let o = Ocean::new();
        o.create_bucket("b");
        o.put("b", "k1", Bytes::from_static(b"v1")).unwrap();
        assert_eq!(o.get("b", "k1").unwrap(), Bytes::from_static(b"v1"));
        assert!(o.get("b", "k2").is_err());
        assert!(o.put("nope", "k", Bytes::new()).is_err());
        assert!(o.delete("b", "k1"));
        assert!(!o.delete("b", "k1"));
    }

    #[test]
    fn attached_metrics_count_object_traffic() {
        let o = Ocean::new();
        let reg = Registry::new();
        o.create_bucket("b");
        o.put("b", "pre-existing", Bytes::from_static(b"xyz"))
            .unwrap();
        o.attach_metrics(&reg);
        o.put("b", "k1", Bytes::from_static(b"hello")).unwrap();
        o.put("b", "k1", Bytes::from_static(b"hello2")).unwrap(); // overwrite
        let got = o.get("b", "k1").unwrap();
        assert_eq!(got.len(), 6);
        o.delete("b", "k1");
        if oda_obs::enabled() {
            assert_eq!(reg.counter_value("ocean_put_objects_total", &[]), 2);
            assert_eq!(reg.counter_value("ocean_put_bytes_total", &[]), 5 + 6);
            assert_eq!(reg.counter_value("ocean_get_objects_total", &[]), 1);
            assert_eq!(reg.counter_value("ocean_get_bytes_total", &[]), 6);
            // Baseline object seen at attach time; overwrite and delete
            // net out to the surviving count.
            assert_eq!(reg.gauge_value("ocean_objects", &[]), 1);
        }
    }

    #[test]
    fn list_respects_prefix_and_sorts() {
        let o = Ocean::new();
        o.create_bucket("b");
        for k in ["a/2", "a/1", "b/1"] {
            o.put("b", k, Bytes::new()).unwrap();
        }
        assert_eq!(
            o.list("b", "a/"),
            vec!["a/1".to_string(), "a/2".to_string()]
        );
    }

    #[test]
    fn dataset_appends_accumulate() {
        let o = Ocean::new();
        let ds = OceanDataset::create(o, "lake", "telemetry", schema()).unwrap();
        ds.append(&cols(0, 100)).unwrap();
        ds.append(&cols(100, 100)).unwrap();
        assert_eq!(ds.parts().len(), 2);
        assert_eq!(ds.num_rows().unwrap(), 200);
        assert!(ds.byte_size() > 0);
    }

    #[test]
    fn dataset_schema_enforced_across_opens() {
        let o = Ocean::new();
        let _ds = OceanDataset::create(o.clone(), "b", "d", schema()).unwrap();
        let other = TableSchema::new(&[("x", ColumnType::Str)]);
        assert!(matches!(
            OceanDataset::create(o, "b", "d", other),
            Err(StorageError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn scan_range_prunes_parts() {
        let o = Ocean::new();
        let ds = OceanDataset::create(o, "b", "d", schema()).unwrap();
        for p in 0..10 {
            ds.append(&cols(p * 1_000, 100)).unwrap();
        }
        let hits = ds.scan_range("ts_ms", 2_000.0, 2_050.0).unwrap();
        assert_eq!(hits.len(), 1);
        match &hits[0][0] {
            ColumnData::I64(ts) => assert_eq!(ts[0], 2_000),
            _ => panic!("wrong column"),
        }
        // Full-range scan sees everything.
        assert_eq!(ds.scan_range("ts_ms", 0.0, 1e12).unwrap().len(), 10);
    }

    /// The dataset's schema object, byte for byte.
    #[test]
    fn schema_object_bytes_are_pinned() {
        let o = Ocean::new();
        OceanDataset::create(o.clone(), "b", "d", schema()).unwrap();
        let body = o.get("b", "datasets/d/_schema.json").unwrap();
        assert_eq!(
            std::str::from_utf8(&body).unwrap(),
            r#"{"columns":[["ts_ms","I64"],["v","F64"]]}"#
        );
    }
}

//! Content-hashed versioned feature store (the DVC role in Fig. 9).
//!
//! Featurized datasets are stored under a name; every `put` computes a
//! content hash that becomes the version id. Training against a version
//! pin makes runs reproducible: same version + same seed = same model.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A stored featurized dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSet {
    /// Feature vectors.
    pub features: Vec<Vec<f64>>,
    /// Labels aligned with `features`.
    pub labels: Vec<String>,
}

impl FeatureSet {
    /// Canonical bytes for hashing.
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (f, l) in self.features.iter().zip(&self.labels) {
            for v in f {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            out.extend_from_slice(l.as_bytes());
            out.push(0);
        }
        out
    }
}

/// FNV-1a based content hash rendered as 16 hex chars.
pub fn content_hash(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Versioned feature store.
#[derive(Default)]
pub struct FeatureStore {
    /// name -> version -> data.
    sets: RwLock<BTreeMap<String, BTreeMap<String, Arc<FeatureSet>>>>,
    /// name -> latest version.
    latest: RwLock<BTreeMap<String, String>>,
}

impl FeatureStore {
    /// Empty store.
    pub fn new() -> FeatureStore {
        FeatureStore::default()
    }

    /// Store a dataset; returns its content-hash version id. Storing
    /// identical content returns the same version (dedup).
    pub fn put(&self, name: &str, set: FeatureSet) -> String {
        assert_eq!(set.features.len(), set.labels.len(), "ragged feature set");
        let version = content_hash(&set.canonical_bytes());
        self.sets
            .write()
            .entry(name.to_string())
            .or_default()
            .entry(version.clone())
            .or_insert_with(|| Arc::new(set));
        self.latest
            .write()
            .insert(name.to_string(), version.clone());
        version
    }

    /// Fetch a pinned version.
    pub fn get(&self, name: &str, version: &str) -> Option<Arc<FeatureSet>> {
        self.sets.read().get(name)?.get(version).cloned()
    }

    /// Latest version id of a dataset.
    pub fn latest_version(&self, name: &str) -> Option<String> {
        self.latest.read().get(name).cloned()
    }

    /// All versions of a dataset, sorted.
    pub fn versions(&self, name: &str) -> Vec<String> {
        self.sets
            .read()
            .get(name)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Dataset names.
    pub fn names(&self) -> Vec<String> {
        self.sets.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: f64) -> FeatureSet {
        FeatureSet {
            features: vec![vec![v, v + 1.0]],
            labels: vec!["x".into()],
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let store = FeatureStore::new();
        let v = store.put("profiles", set(1.0));
        let got = store.get("profiles", &v).unwrap();
        assert_eq!(*got, set(1.0));
        assert!(store.get("profiles", "nope").is_none());
        assert!(store.get("other", &v).is_none());
    }

    #[test]
    fn identical_content_same_version() {
        let store = FeatureStore::new();
        let v1 = store.put("d", set(1.0));
        let v2 = store.put("d", set(1.0));
        assert_eq!(v1, v2);
        assert_eq!(store.versions("d").len(), 1);
    }

    #[test]
    fn different_content_different_version() {
        let store = FeatureStore::new();
        let v1 = store.put("d", set(1.0));
        let v2 = store.put("d", set(2.0));
        assert_ne!(v1, v2);
        assert_eq!(store.versions("d").len(), 2);
        assert_eq!(store.latest_version("d"), Some(v2.clone()));
        // Old version still retrievable (pinning).
        assert_eq!(*store.get("d", &v1).unwrap(), set(1.0));
    }

    #[test]
    fn hash_sensitive_to_labels() {
        let a = FeatureSet {
            features: vec![vec![1.0]],
            labels: vec!["a".into()],
        };
        let b = FeatureSet {
            features: vec![vec![1.0]],
            labels: vec!["b".into()],
        };
        assert_ne!(
            content_hash(&a.canonical_bytes()),
            content_hash(&b.canonical_bytes())
        );
    }

    #[test]
    fn nan_features_hash_stably() {
        let a = FeatureSet {
            features: vec![vec![f64::NAN]],
            labels: vec!["a".into()],
        };
        let b = FeatureSet {
            features: vec![vec![f64::NAN]],
            labels: vec!["a".into()],
        };
        assert_eq!(
            content_hash(&a.canonical_bytes()),
            content_hash(&b.canonical_bytes())
        );
    }
}

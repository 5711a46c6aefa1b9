//! The in-database model store.
//!
//! The paper's pitch: models stored in the RDBMS inherit the guarantees of
//! operational data — transactional updates, versioning, auditability
//! (§1–§2). This store provides exactly those:
//!
//! * models are stored **serialized** (the bytes a `varbinary(max)` column
//!   would hold) and deserialized on load, so storage is honest. Only the
//!   latest version also keeps its deserialized pipeline; an older version
//!   is deserialized from its bytes when asked for;
//! * every store/update appends a new **version** atomically; readers
//!   always see a consistent latest version;
//! * every mutation is recorded in an **audit log**.

use parking_lot::RwLock;
use raven_ml::{serialize, Pipeline};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Store errors.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    NotFound(String),
    VersionNotFound { model: String, version: u32 },
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound(m) => write!(f, "model not found: {m}"),
            StoreError::VersionNotFound { model, version } => {
                write!(f, "model {model} has no version {version}")
            }
            StoreError::Corrupt(m) => write!(f, "stored model is corrupt: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One audit-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Monotone sequence number.
    pub seq: u64,
    /// `store` / `update` / `delete`.
    pub action: String,
    pub model: String,
    pub version: u32,
}

/// Every version of one model.
struct StoredModel {
    /// Serialized bytes of every version, oldest first.
    versions: Vec<Arc<Vec<u8>>>,
    /// The latest version, deserialized (what a warm model cache holds).
    latest: Arc<Pipeline>,
}

#[derive(Default)]
struct Inner {
    models: HashMap<String, StoredModel>,
    audit: Vec<AuditEntry>,
    seq: u64,
}

/// Thread-safe, versioned, audited model storage.
#[derive(Default)]
pub struct ModelStore {
    inner: RwLock<Inner>,
}

impl ModelStore {
    pub fn new() -> Self {
        ModelStore::default()
    }

    /// Store a pipeline under `name`; returns the new version number
    /// (1-based). Storing an existing name appends a version — the
    /// transactional model update of the paper's §2.
    pub fn store(&self, name: &str, pipeline: Pipeline) -> u32 {
        let bytes = Arc::new(serialize::to_bytes(&pipeline));
        let pipeline = Arc::new(pipeline);
        let mut inner = self.inner.write();
        let (version, replaced) = match inner.models.get_mut(name) {
            Some(model) => {
                model.versions.push(bytes);
                let replaced = std::mem::replace(&mut model.latest, pipeline);
                (model.versions.len() as u32, Some(replaced))
            }
            None => {
                let model = StoredModel {
                    versions: vec![bytes],
                    latest: pipeline,
                };
                inner.models.insert(name.to_string(), model);
                (1, None)
            }
        };
        let action = if version == 1 { "store" } else { "update" };
        inner.seq += 1;
        let seq = inner.seq;
        inner.audit.push(AuditEntry {
            seq,
            action: action.to_string(),
            model: name.to_string(),
            version,
        });
        // Free the replaced pipeline (when this held its last reference)
        // after the lock, not under it.
        drop(inner);
        drop(replaced);
        version
    }

    /// Latest version of a model.
    pub fn get(&self, name: &str) -> Result<Arc<Pipeline>, StoreError> {
        let inner = self.inner.read();
        inner
            .models
            .get(name)
            .map(|m| m.latest.clone())
            .ok_or_else(|| StoreError::NotFound(name.to_string()))
    }

    /// A specific version (1-based). The latest is served from memory; an
    /// older one is deserialized from its stored bytes.
    pub fn get_version(&self, name: &str, version: u32) -> Result<Arc<Pipeline>, StoreError> {
        let bytes = {
            let inner = self.inner.read();
            let model = inner
                .models
                .get(name)
                .ok_or_else(|| StoreError::NotFound(name.to_string()))?;
            if version as usize == model.versions.len() {
                return Ok(model.latest.clone());
            }
            version
                .checked_sub(1)
                .and_then(|i| model.versions.get(i as usize))
                .cloned()
                .ok_or(StoreError::VersionNotFound {
                    model: name.to_string(),
                    version,
                })?
        };
        serialize::from_bytes(&bytes)
            .map(Arc::new)
            .map_err(|e| StoreError::Corrupt(e.to_string()))
    }

    /// The stored bytes of the latest version (what `SELECT model FROM
    /// scoring_models` would return).
    pub fn get_bytes(&self, name: &str) -> Result<Arc<Vec<u8>>, StoreError> {
        let inner = self.inner.read();
        inner
            .models
            .get(name)
            .and_then(|m| m.versions.last())
            .cloned()
            .ok_or_else(|| StoreError::NotFound(name.to_string()))
    }

    /// Reload the latest version from its stored bytes (exercises the
    /// serialization path — used to model cold model loads).
    pub fn load_from_bytes(&self, name: &str) -> Result<Pipeline, StoreError> {
        let bytes = self.get_bytes(name)?;
        serialize::from_bytes(&bytes).map_err(|e| StoreError::Corrupt(e.to_string()))
    }

    /// Delete a model entirely.
    pub fn delete(&self, name: &str) -> Result<(), StoreError> {
        let mut inner = self.inner.write();
        let model = inner
            .models
            .remove(name)
            .ok_or_else(|| StoreError::NotFound(name.to_string()))?;
        inner.seq += 1;
        let seq = inner.seq;
        inner.audit.push(AuditEntry {
            seq,
            action: "delete".to_string(),
            model: name.to_string(),
            version: model.versions.len() as u32,
        });
        drop(inner);
        drop(model);
        Ok(())
    }

    /// Latest version number of a model (0 if absent).
    pub fn latest_version(&self, name: &str) -> u32 {
        self.inner
            .read()
            .models
            .get(name)
            .map(|m| m.versions.len() as u32)
            .unwrap_or(0)
    }

    /// All model names, sorted.
    pub fn model_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.read().models.keys().cloned().collect();
        names.sort();
        names
    }

    /// The audit log (clone).
    pub fn audit_log(&self) -> Vec<AuditEntry> {
        self.inner.read().audit.clone()
    }
}

impl raven_sql::ModelResolver for ModelStore {
    fn resolve(&self, name: &str) -> Option<Arc<Pipeline>> {
        self.get(name).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_ml::featurize::Transform;
    use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel};

    fn pipeline(w: f64) -> Pipeline {
        Pipeline::new(
            vec![FeatureStep::new("x", Transform::Identity)],
            Estimator::Linear(LinearModel::new(vec![w], 0.0, LinearKind::Regression).unwrap()),
        )
        .unwrap()
    }

    #[test]
    fn store_get_roundtrip() {
        let store = ModelStore::new();
        assert_eq!(store.store("m", pipeline(1.0)), 1);
        let p = store.get("m").unwrap();
        assert_eq!(p.predict_raw(&[2.0], 1).unwrap(), vec![2.0]);
        assert!(store.get("ghost").is_err());
    }

    #[test]
    fn versioning_and_transactional_update() {
        let store = ModelStore::new();
        store.store("m", pipeline(1.0));
        assert_eq!(store.store("m", pipeline(2.0)), 2);
        // Latest is v2; v1 still retrievable.
        assert_eq!(
            store.get("m").unwrap().predict_raw(&[1.0], 1).unwrap(),
            vec![2.0]
        );
        assert_eq!(
            store
                .get_version("m", 1)
                .unwrap()
                .predict_raw(&[1.0], 1)
                .unwrap(),
            vec![1.0]
        );
        assert!(store.get_version("m", 3).is_err());
        assert!(store.get_version("m", 0).is_err());
        assert_eq!(store.latest_version("m"), 2);
    }

    #[test]
    fn every_version_scores_like_the_pipeline_stored() {
        // Only the latest version stays deserialized; older ones come back
        // from their bytes and must score bit for bit like the original.
        let store = ModelStore::new();
        let stored: Vec<Pipeline> = [0.1, -1.0 / 3.0, 2.0f64.sqrt()]
            .into_iter()
            .map(pipeline)
            .collect();
        for (k, p) in stored.iter().enumerate() {
            assert_eq!(store.store("m", p.clone()), k as u32 + 1);
        }
        let inputs = [0.7, -3.25, 1e-9, 12345.678];
        for (k, p) in stored.iter().enumerate() {
            let want = p.predict_raw(&inputs, inputs.len()).unwrap();
            let got = store
                .get_version("m", k as u32 + 1)
                .unwrap()
                .predict_raw(&inputs, inputs.len())
                .unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "version {}", k + 1);
        }
        assert!(Arc::ptr_eq(
            &store.get("m").unwrap(),
            &store.get_version("m", 3).unwrap()
        ));
        assert_eq!(store.latest_version("m"), 3);
    }

    #[test]
    fn bytes_are_real_serialization() {
        let store = ModelStore::new();
        store.store("m", pipeline(3.0));
        let loaded = store.load_from_bytes("m").unwrap();
        assert_eq!(loaded.predict_raw(&[2.0], 1).unwrap(), vec![6.0]);
        assert!(!store.get_bytes("m").unwrap().is_empty());
    }

    #[test]
    fn audit_log_records_mutations() {
        let store = ModelStore::new();
        store.store("a", pipeline(1.0));
        store.store("a", pipeline(2.0));
        store.store("b", pipeline(3.0));
        store.delete("a").unwrap();
        let log = store.audit_log();
        let actions: Vec<&str> = log.iter().map(|e| e.action.as_str()).collect();
        assert_eq!(actions, vec!["store", "update", "store", "delete"]);
        // Sequence numbers are monotone.
        assert!(log.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(store.model_names(), vec!["b"]);
        assert!(store.delete("a").is_err());
    }

    #[test]
    fn resolver_interface() {
        use raven_sql::ModelResolver;
        let store = ModelStore::new();
        store.store("m", pipeline(1.0));
        assert!(store.resolve("m").is_some());
        assert!(store.resolve("nope").is_none());
    }

    #[test]
    fn concurrent_access() {
        let store = Arc::new(ModelStore::new());
        store.store("m", pipeline(1.0));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let s = store.clone();
                std::thread::spawn(move || {
                    s.store("m", pipeline(i as f64));
                    s.get("m").unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.latest_version("m"), 5);
    }
}

//! Content-addressed result cache.
//!
//! Entries are keyed by the [`crate::checksum::content_address`] of a
//! *canonical key text* the caller supplies (for the bench harness:
//! the canonical `ScenarioConfig` JSON + policy label + schema
//! version). Each entry is a [`crate::envelope`] file that stores both
//! the full key text and the cached payload, so a hash collision is
//! detected by comparison and degrades to a miss — the cache can return
//! a wrong answer only if two different key texts are byte-identical.

use std::fs;
use std::path::{Path, PathBuf};

use fedl_json::{obj, Value};

use crate::envelope::{read_envelope, write_envelope};
use crate::error::StoreError;

/// Envelope kind tag for cache entries.
const ENTRY_KIND: &str = "cache-entry";

/// A directory of content-addressed cached results.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, &e))?;
        Ok(Self { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content address a key text maps to (the entry's file stem).
    pub fn address(key_text: &str) -> String {
        crate::checksum::content_address(key_text.as_bytes())
    }

    fn entry_path(&self, key_text: &str) -> PathBuf {
        self.dir.join(format!("{}.fedlstore", Self::address(key_text)))
    }

    /// Looks up `key_text`. Returns the cached payload, or `None` when
    /// the entry is absent or belongs to a colliding key. Corrupt,
    /// truncated, or incompatible entries are typed errors so the
    /// caller can report them and fall back to a fresh run.
    pub fn get(&self, key_text: &str) -> Result<Option<Value>, StoreError> {
        let path = self.entry_path(key_text);
        let envelope = match read_envelope(&path, ENTRY_KIND) {
            Ok(v) => v,
            Err(StoreError::Io { .. }) if !path.exists() => return Ok(None),
            Err(e) => return Err(e),
        };
        let stored_key = envelope.get("key").and_then(Value::as_str);
        if stored_key != Some(key_text) {
            // Either a 128-bit collision or an entry written under a
            // different canonicalization: both are misses.
            return Ok(None);
        }
        match envelope.get("payload") {
            Some(payload) => Ok(Some(payload.clone())),
            None => Err(StoreError::Schema {
                path: path.display().to_string(),
                reason: "cache entry has no payload field".into(),
            }),
        }
    }

    /// Stores `payload` under `key_text`, atomically replacing any
    /// previous entry (including a corrupt one).
    pub fn put(&self, key_text: &str, payload: &Value) -> Result<(), StoreError> {
        let entry = obj(vec![("key", Value::from(key_text)), ("payload", payload.clone())]);
        write_envelope(&self.entry_path(key_text), ENTRY_KIND, &entry)
    }

    /// Number of entries currently on disk (diagnostic; counts files
    /// with the store extension).
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|ext| ext == "fedlstore"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// `true` when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(name: &str) -> ResultCache {
        let dir = std::env::temp_dir().join("fedl_store_cache_tests").join(name);
        fs::remove_dir_all(&dir).ok();
        ResultCache::open(dir).unwrap()
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let c = cache("roundtrip");
        assert!(c.get("key-a").unwrap().is_none());
        assert!(c.is_empty());
        let payload = obj(vec![("accuracy", Value::Float(0.75))]);
        c.put("key-a", &payload).unwrap();
        let hit = c.get("key-a").unwrap().expect("entry just written");
        assert_eq!(hit.get("accuracy").unwrap().as_f64(), Some(0.75));
        assert_eq!(c.len(), 1);
        // A different key text misses even though the cache is warm.
        assert!(c.get("key-b").unwrap().is_none());
    }

    #[test]
    fn overwrite_replaces_entry() {
        let c = cache("overwrite");
        c.put("k", &Value::Int(1)).unwrap();
        c.put("k", &Value::Int(2)).unwrap();
        assert_eq!(c.get("k").unwrap().unwrap().as_i64(), Some(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn corrupt_entry_is_a_typed_error_and_put_repairs_it() {
        let c = cache("corrupt");
        c.put("k", &Value::Int(5)).unwrap();
        let path = c.entry_path("k");
        // Truncate to the header: typed error, not a panic.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.find('\n').unwrap() + 1]).unwrap();
        assert!(matches!(c.get("k"), Err(StoreError::Truncated { .. })));
        // Re-putting atomically replaces the damaged file.
        c.put("k", &Value::Int(6)).unwrap();
        assert_eq!(c.get("k").unwrap().unwrap().as_i64(), Some(6));
    }

    #[test]
    fn a_v1_entry_is_a_version_error_and_put_repairs_it() {
        let c = cache("v1-entry");
        c.put("k", &Value::Int(5)).unwrap();
        // Re-seal the same entry the way a v1 build wrote it.
        let path = c.entry_path("k");
        let text = fs::read_to_string(&path).unwrap();
        let body = text.split_once('\n').unwrap().1;
        let crc = crate::checksum::fnv1a64(body.as_bytes());
        fs::write(&path, format!("fedl-store v1 kind={ENTRY_KIND} crc={crc:016x}\n{body}"))
            .unwrap();
        assert!(matches!(c.get("k"), Err(StoreError::Version { found: 1, supported: 2, .. })));
        c.put("k", &Value::Int(6)).unwrap();
        assert_eq!(c.get("k").unwrap().unwrap().as_i64(), Some(6));
    }

    #[test]
    fn colliding_address_with_different_key_is_a_miss() {
        let c = cache("collision");
        c.put("k-one", &Value::Int(1)).unwrap();
        // Force a same-address entry for a different key text by
        // writing the envelope directly at k-two's would-be path with
        // k-one's... simpler: overwrite k-one's file with an entry
        // whose stored key differs from what we will ask for.
        let entry = obj(vec![("key", Value::from("something-else")), ("payload", Value::Int(9))]);
        write_envelope(&c.entry_path("k-one"), ENTRY_KIND, &entry).unwrap();
        assert!(c.get("k-one").unwrap().is_none(), "key mismatch must read as a miss");
    }

    #[test]
    fn addresses_are_hex_and_key_sensitive() {
        let a = ResultCache::address("alpha");
        let b = ResultCache::address("beta");
        assert_ne!(a, b);
        assert_eq!(a.len(), 32);
    }
}

//! The stamp every checkpoint payload opens with — the layout that wrote
//! it (`schema_version`) and the deployment it belongs to
//! (`fingerprint`) — written and checked in one place, so a ledger never
//! continues under a scenario that did not charge it.

use std::fmt::Display;
use std::path::Path;

use fedl_json::{read_field, FromJson, Value};

use crate::envelope::{read_envelope, write_envelope};
use crate::error::StoreError;

/// A payload whose envelope and stamp [`read_checkpoint`] accepted.
#[derive(Debug)]
pub struct Checkpoint {
    /// The file it came from, named by every error.
    path: String,
    /// The whole payload, stamp included.
    pub payload: Value,
}

impl Checkpoint {
    /// Top-level field `key`; missing or mistyped is [`StoreError::Schema`].
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, StoreError> {
        read_field(&self.payload, key).map_err(|e| self.schema(e))
    }

    /// A [`StoreError::Schema`] naming this checkpoint's file.
    pub fn schema(&self, reason: impl Display) -> StoreError {
        StoreError::Schema { path: self.path.clone(), reason: reason.to_string() }
    }
}

/// Writes `fields` atomically to `path` as a `kind` envelope whose
/// payload opens with the stamp: `schema_version`, then `fingerprint`.
pub fn write_checkpoint(
    path: &Path,
    kind: &str,
    schema_version: u32,
    fingerprint: &str,
    fields: impl IntoIterator<Item = (&'static str, Value)>,
) -> Result<(), StoreError> {
    let version = Value::from(schema_version as usize);
    let stamp = [("schema_version", version), ("fingerprint", Value::from(fingerprint))];
    write_envelope(path, kind, &Value::obj(stamp.into_iter().chain(fields)))
}

/// Reads a [`write_checkpoint`] file of `kind`, refusing another
/// `schema_version` ([`StoreError::SchemaVersion`]) and, unless
/// `fingerprint` is `None` — a reader that learns its deployment from
/// the file — another fingerprint ([`StoreError::Fingerprint`]).
pub fn read_checkpoint(
    path: &Path,
    kind: &str,
    schema_version: u32,
    fingerprint: Option<&str>,
) -> Result<Checkpoint, StoreError> {
    let ckpt = Checkpoint { path: path.display().to_string(), payload: read_envelope(path, kind)? };
    let (found, supported) = (ckpt.field("schema_version")?, schema_version as usize);
    if found != supported {
        return Err(StoreError::SchemaVersion { path: ckpt.path, found, supported });
    }
    let found: String = ckpt.field("fingerprint")?;
    match fingerprint {
        Some(expected) if expected != found => {
            Err(StoreError::Fingerprint { path: ckpt.path, expected: expected.into(), found })
        }
        _ => Ok(ckpt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fedl_store_checkpoint_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn the_stamp_heads_the_payload_and_round_trips() {
        let path = tmp("stamped.fedlstore");
        write_checkpoint(&path, "test-checkpoint", 3, "abc", [("epoch", Value::from(7usize))])
            .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.ends_with(r#"{"schema_version":3,"fingerprint":"abc","epoch":7}"#), "{body}");
        let ckpt = read_checkpoint(&path, "test-checkpoint", 3, Some("abc")).unwrap();
        assert_eq!(ckpt.field::<usize>("epoch"), Ok(7));
        let learned = read_checkpoint(&path, "test-checkpoint", 3, None).unwrap();
        assert_eq!(learned.field::<String>("fingerprint"), Ok("abc".to_string()));
    }

    #[test]
    fn a_foreign_stamp_is_one_typed_refusal_naming_the_file() {
        let path = tmp("foreign.fedlstore");
        let name = path.display().to_string();
        write_checkpoint(&path, "test-checkpoint", 3, "abc", []).unwrap();
        assert_eq!(
            read_checkpoint(&path, "test-checkpoint", 4, Some("abc")).unwrap_err(),
            StoreError::SchemaVersion { path: name.clone(), found: 3, supported: 4 }
        );
        // The version is checked first: a reader that learns the
        // fingerprint from the file still refuses another layout.
        assert!(matches!(
            read_checkpoint(&path, "test-checkpoint", 4, None),
            Err(StoreError::SchemaVersion { .. })
        ));
        let err = read_checkpoint(&path, "test-checkpoint", 3, Some("xyz")).unwrap_err();
        assert_eq!(
            err,
            StoreError::Fingerprint {
                path: name.clone(),
                expected: "xyz".into(),
                found: "abc".into()
            }
        );
        assert!(err.to_string().contains(&name), "{err}");
        // Another envelope kind is the envelope's refusal, not the stamp's.
        assert!(matches!(
            read_checkpoint(&path, "other-checkpoint", 3, Some("abc")),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_missing_or_mistyped_stamp_is_a_schema_error() {
        let path = tmp("unstamped.fedlstore");
        for payload in [
            Value::obj([("fingerprint", Value::from("abc"))]),
            Value::obj([("schema_version", Value::from("3")), ("fingerprint", Value::from("abc"))]),
            Value::obj([("schema_version", Value::Int(-3)), ("fingerprint", Value::from("abc"))]),
            Value::obj([("schema_version", Value::from(3usize))]),
            Value::obj([("schema_version", Value::from(3usize)), ("fingerprint", Value::Null)]),
            Value::Null,
        ] {
            write_envelope(&path, "test-checkpoint", &payload).unwrap();
            match read_checkpoint(&path, "test-checkpoint", 3, Some("abc")) {
                Err(StoreError::Schema { path: p, .. }) => {
                    assert_eq!(p, path.display().to_string())
                }
                other => panic!("{payload:?}: expected a schema error, got {other:?}"),
            }
        }
    }
}

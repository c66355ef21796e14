//! The versioned, checksummed file envelope every store artifact uses.
//!
//! Layout (text, two sections):
//!
//! ```text
//! fedl-store v2 kind=<kind> crc=<16 hex digits>\n
//! <payload: one compact JSON document>
//! ```
//!
//! The first line is the header; everything after the first newline is
//! the payload. The checksum is [`envelope_checksum`] over the raw
//! payload bytes as stored, so verification never depends on JSON
//! canonicalization. An envelope of another version — v1, checksummed
//! with FNV-1a/64, included — is refused by its header with
//! [`StoreError::Version`]; there is no reader for it.
//! Writes go through a temp file + rename so a crash mid-write leaves
//! either the old file or no file — never a half-written envelope.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use fedl_json::Value;

use crate::checksum::envelope_checksum;
use crate::error::StoreError;

/// The envelope format version this build reads and writes. Bump on any
/// incompatible header, checksum or payload-layout change; readers reject
/// foreign versions with [`StoreError::Version`]. v2 replaced the FNV-1a
/// body checksum with [`envelope_checksum`].
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: &str = "fedl-store";

/// The one envelope writer: the header with a placeholder checksum,
/// the body `write_body` renders straight behind it in the same buffer,
/// then the 16 checksum digits patched in place. The buffer is the one
/// the caller receives, reserved up front for `body_len` bytes (a lower
/// bound will do), so a megabyte body is not rendered through a chain of
/// doublings. The body must be UTF-8 JSON; a wire frame's packed columns
/// are written into it as base64 (`fedl-serve`), which is ASCII.
pub fn encode_envelope_with(
    kind: &str,
    body_len: usize,
    write_body: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    assert!(
        !kind.is_empty() && kind.chars().all(|c| c.is_ascii_graphic() && c != '='),
        "envelope kind must be non-empty printable ASCII without '=': {kind:?}"
    );
    // The header is 41 bytes around the kind.
    let mut text = Vec::with_capacity(48 + kind.len() + body_len);
    writeln!(text, "{MAGIC} v{FORMAT_VERSION} kind={kind} crc={:016x}", 0)
        .expect("write to a Vec cannot fail");
    let body_start = text.len();
    write_body(&mut text);
    let crc = envelope_checksum(&text[body_start..]);
    text[body_start - 17..body_start - 1].copy_from_slice(format!("{crc:016x}").as_bytes());
    text
}

/// Serializes `payload` into the envelope text — header line plus
/// compact JSON body — without touching the filesystem: the bytes
/// [`write_envelope`] lands atomically in a file.
pub fn encode_envelope(kind: &str, payload: &Value) -> Vec<u8> {
    encode_envelope_with(kind, payload.json_len_hint(), |out| payload.write_json(out))
}

/// Verifies and parses envelope text produced by [`encode_envelope`].
/// `source` labels the origin in error values — a file path for stored
/// envelopes, a peer address or `"frame"` for wire frames. The header's
/// magic, version, `kind`, and checksum are all checked before the
/// payload is parsed; every failure is a typed [`StoreError`], never a
/// panic.
pub fn decode_envelope(text: &str, kind: &str, source: &str) -> Result<Value, StoreError> {
    // The label is built only on a refusal: a verified frame or
    // checkpoint allocates nothing for it.
    let corrupt = |reason: String| StoreError::Corrupt { path: source.to_string(), reason };
    let Some((header, body)) = text.split_once('\n') else {
        // No newline: either an empty/partial envelope or something that
        // was never an envelope.
        if text.starts_with(MAGIC) || text.is_empty() || MAGIC.starts_with(text) {
            return Err(StoreError::Truncated { path: source.to_string() });
        }
        return Err(corrupt("missing envelope header".into()));
    };
    let mut words = header.split(' ');
    let (version_field, kind_field, crc_field) =
        match (words.next(), words.next(), words.next(), words.next(), words.next()) {
            (Some(MAGIC), Some(v), Some(k), Some(c), None) => (v, k, c),
            _ => return Err(corrupt(format!("bad header {header:?}"))),
        };
    let version: u32 = version_field
        .strip_prefix('v')
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| corrupt(format!("bad version field {version_field:?}")))?;
    if version != FORMAT_VERSION {
        return Err(StoreError::Version {
            path: source.to_string(),
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let found_kind = kind_field
        .strip_prefix("kind=")
        .ok_or_else(|| corrupt(format!("bad kind field {kind_field:?}")))?;
    if found_kind != kind {
        return Err(corrupt(format!("expected kind {kind:?}, found {found_kind:?}")));
    }
    let expected = crc_field
        .strip_prefix("crc=")
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| corrupt(format!("bad checksum field {crc_field:?}")))?;
    if body.is_empty() {
        return Err(StoreError::Truncated { path: source.to_string() });
    }
    let actual = envelope_checksum(body.as_bytes());
    if actual != expected {
        return Err(StoreError::ChecksumMismatch { path: source.to_string(), expected, actual });
    }
    Value::parse(body)
        .map_err(|e| StoreError::Schema { path: source.to_string(), reason: e.to_string() })
}

/// Writes `text` to `path` atomically: parent directories are created,
/// the bytes land in a sibling temp file, and a `rename` publishes them.
/// A crash mid-write leaves either the old file or no file — readers can
/// never observe a partially written `path`. This is the primitive under
/// [`write_envelope`], exported for small non-envelope artifacts that
/// need the same guarantee (e.g. `experiments serve --port-file`).
pub fn write_atomic(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), StoreError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, &e))?;
        }
    }
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, contents).map_err(|e| StoreError::io(&tmp, &e))?;
    fs::rename(&tmp, path).map_err(|e| StoreError::io(path, &e))
}

/// Serializes `payload` under a `kind`-tagged, checksummed header and
/// writes it atomically (temp file + rename) to `path`.
pub fn write_envelope(path: &Path, kind: &str, payload: &Value) -> Result<(), StoreError> {
    write_atomic(path, encode_envelope(kind, payload))
}

/// Reads, verifies, and parses an envelope written by
/// [`write_envelope`]. The header's magic, version, `kind`, and
/// checksum are all checked before the payload is parsed.
pub fn read_envelope(path: &Path, kind: &str) -> Result<Value, StoreError> {
    let text = fs::read_to_string(path).map_err(|e| StoreError::io(path, &e))?;
    decode_envelope(&text, kind, &path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedl_json::obj;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fedl_store_envelope_tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn payload() -> Value {
        obj(vec![
            ("epoch", Value::Int(7)),
            ("spent", Value::Float(12.5)),
            ("name", Value::from("snapshot")),
        ])
    }

    #[test]
    fn write_atomic_replaces_contents_and_leaves_no_temp() {
        let path = tmp("atomic.txt");
        write_atomic(&path, "first\n").unwrap();
        write_atomic(&path, "second\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second\n");
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn encoded_text_is_header_checksum_newline_body() {
        let body = payload().to_json();
        let crc = envelope_checksum(body.as_bytes());
        let want = format!("fedl-store v2 kind=test crc={crc:016x}\n{body}");
        assert_eq!(encode_envelope("test", &payload()), want.into_bytes());
    }

    #[test]
    fn reserved_body_is_byte_equal_to_header_plus_to_json() {
        // The body is rendered behind a reservation taken from a lower
        // bound: strings that outgrow it (escapes at the first byte, the
        // last byte, and on both sides of the writer's 64-byte scan
        // blocks) must still come out as `header + to_json()`.
        for len in [0usize, 1, 63, 64, 65, 200] {
            let mut strings = vec!["x".repeat(len), "\"".repeat(len)];
            for at in [0, 62, 63, 64, len.saturating_sub(1)] {
                if at < len {
                    let mut s = "x".repeat(len);
                    s.replace_range(at..at + 1, "\n");
                    strings.push(s);
                }
            }
            for s in strings {
                let payload = obj(vec![("column", Value::from(s.as_str())), ("n", Value::Int(3))]);
                let body = payload.to_json();
                let crc = envelope_checksum(body.as_bytes());
                let want = format!("fedl-store v2 kind=test crc={crc:016x}\n{body}");
                assert_eq!(encode_envelope("test", &payload), want.as_bytes(), "{s:?}");
                assert_eq!(decode_envelope(&want, "test", "test").unwrap(), payload);
            }
        }
    }

    #[test]
    fn round_trips_payload() {
        let path = tmp("roundtrip.fedlstore");
        write_envelope(&path, "test", &payload()).unwrap();
        let back = read_envelope(&path, "test").unwrap();
        assert_eq!(back.get("epoch").unwrap().as_i64(), Some(7));
        assert_eq!(back.get("spent").unwrap().as_f64(), Some(12.5));
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let path = tmp("truncated.fedlstore");
        write_envelope(&path, "test", &payload()).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let header_only = &text[..text.find('\n').unwrap() + 1];
        fs::write(&path, header_only).unwrap();
        match read_envelope(&path, "test") {
            Err(StoreError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        // A file cut inside the header (no newline at all) is also
        // truncation, not garbage.
        fs::write(&path, "fedl-store v2").unwrap();
        assert!(matches!(read_envelope(&path, "test"), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let path = tmp("bitflip.fedlstore");
        write_envelope(&path, "test", &payload()).unwrap();
        let mut text = fs::read_to_string(&path).unwrap();
        // Corrupt the payload (change 7 -> 8) without touching the header.
        let body_start = text.find('\n').unwrap() + 1;
        let idx = body_start + text[body_start..].find('7').unwrap();
        text.replace_range(idx..idx + 1, "8");
        fs::write(&path, text).unwrap();
        match read_envelope(&path, "test") {
            Err(StoreError::ChecksumMismatch { expected, actual, .. }) => {
                assert_ne!(expected, actual)
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn foreign_version_and_kind_rejected() {
        let path = tmp("version.fedlstore");
        write_envelope(&path, "test", &payload()).unwrap();
        let text = fs::read_to_string(&path).unwrap().replacen("v2", "v99", 1);
        fs::write(&path, text).unwrap();
        match read_envelope(&path, "test") {
            Err(StoreError::Version { found: 99, supported: FORMAT_VERSION, .. }) => {}
            other => panic!("expected Version, got {other:?}"),
        }
        write_envelope(&path, "test", &payload()).unwrap();
        assert!(matches!(read_envelope(&path, "other-kind"), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn a_v1_envelope_is_refused_by_its_version() {
        // What a v1 build wrote: the same header shape with an FNV-1a
        // checksum. Its checksum is right for v1, and it is still refused
        // by the version field before any checksum is computed.
        let body = payload().to_json();
        let crc = crate::checksum::fnv1a64(body.as_bytes());
        let v1 = format!("fedl-store v1 kind=test crc={crc:016x}\n{body}");
        let err = decode_envelope(&v1, "test", "old.fedlstore").unwrap_err();
        assert_eq!(
            err,
            StoreError::Version { path: "old.fedlstore".into(), found: 1, supported: 2 }
        );
        let message = err.to_string();
        assert!(message.contains("v1") && message.contains("v2"), "{message}");
    }

    #[test]
    fn non_envelope_file_is_corrupt_and_missing_file_is_io() {
        let path = tmp("garbage.fedlstore");
        fs::write(&path, "{\"just\":\"json\"}\nmore").unwrap();
        assert!(matches!(read_envelope(&path, "test"), Err(StoreError::Corrupt { .. })));
        let missing = tmp("never-written.fedlstore");
        fs::remove_file(&missing).ok();
        assert!(matches!(read_envelope(&missing, "test"), Err(StoreError::Io { .. })));
    }
}

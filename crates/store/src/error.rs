//! Typed failures of the on-disk store, following the
//! `SimError`/`ScenarioError` convention: every config- or
//! disk-reachable failure is a value the caller can match on, and the
//! message alone identifies the file and the problem.

use std::fmt;

/// Why a snapshot or cache entry could not be read or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// File the operation targeted.
        path: String,
        /// The `std::io` error message.
        message: String,
    },
    /// The file ends before the payload (e.g. a crash mid-write or a
    /// partial copy).
    Truncated {
        /// File that was cut short.
        path: String,
    },
    /// The file is not a well-formed store envelope (wrong magic,
    /// mangled header, or unparseable payload).
    Corrupt {
        /// File that failed to parse.
        path: String,
        /// What exactly was wrong.
        reason: String,
    },
    /// The payload bytes do not hash to the checksum in the header.
    ChecksumMismatch {
        /// File whose payload was altered.
        path: String,
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload as found on disk.
        actual: u64,
    },
    /// The envelope was written by an incompatible format version.
    Version {
        /// File with the foreign version.
        path: String,
        /// Version found in the header.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The envelope parsed but its payload does not match the expected
    /// schema (missing or mistyped fields).
    Schema {
        /// File with the schema problem.
        path: String,
        /// The decode error.
        reason: String,
    },
    /// A checkpoint's stamp names a payload layout this build does not
    /// read (the payload's `schema_version`, not the envelope's).
    SchemaVersion {
        /// File with the foreign layout.
        path: String,
        /// Version found in the stamp.
        found: usize,
        /// Version this build reads and writes.
        supported: usize,
    },
    /// A checkpoint's stamp belongs to another deployment.
    Fingerprint {
        /// File with the foreign stamp.
        path: String,
        /// Fingerprint of the deployment being resumed.
        expected: String,
        /// Fingerprint found in the stamp.
        found: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "store I/O error on {path}: {message}"),
            StoreError::Truncated { path } => {
                write!(f, "store file {path} is truncated (header without payload)")
            }
            StoreError::Corrupt { path, reason } => {
                write!(f, "store file {path} is corrupt: {reason}")
            }
            StoreError::ChecksumMismatch { path, expected, actual } => write!(
                f,
                "store file {path} failed its checksum: header says {expected:016x}, \
                 payload hashes to {actual:016x}"
            ),
            StoreError::Version { path, found, supported } => write!(
                f,
                "store file {path} uses format v{found}; this build supports v{supported}"
            ),
            StoreError::Schema { path, reason } => {
                write!(f, "store file {path} does not match the expected schema: {reason}")
            }
            StoreError::SchemaVersion { path, found, supported } => write!(
                f,
                "checkpoint {path} has payload schema v{found}; this build reads v{supported}"
            ),
            StoreError::Fingerprint { path, expected, found } => {
                write!(f, "checkpoint {path} belongs to deployment {found}, not {expected}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// Wraps an I/O failure with the file it targeted.
    pub fn io(path: &std::path::Path, err: &std::io::Error) -> Self {
        StoreError::Io { path: path.display().to_string(), message: err.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_identify_file_and_cause() {
        let e = StoreError::ChecksumMismatch {
            path: "x/snap.fedlstore".into(),
            expected: 0xABCD,
            actual: 0x1234,
        };
        let msg = e.to_string();
        assert!(msg.contains("x/snap.fedlstore"));
        assert!(msg.contains("000000000000abcd"));
        assert!(msg.contains("0000000000001234"));
        let t = StoreError::Truncated { path: "y".into() }.to_string();
        assert!(t.contains("truncated"));
        let v = StoreError::Version { path: "z".into(), found: 9, supported: 1 }.to_string();
        assert!(v.contains("v9") && v.contains("v1"));
    }
}

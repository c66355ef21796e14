//! Reader/writer for the CIFAR-10 binary batch format.
//!
//! Each record is `1 + 3072` bytes: a label byte followed by a 32×32×3
//! image (channel-planar, red plane first). A distribution batch file
//! holds 10 000 records; this parser accepts any whole number of records.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use fedl_linalg::Matrix;

use crate::Dataset;

/// Bytes per image payload (32 * 32 * 3).
pub const IMAGE_BYTES: usize = 3072;
/// Bytes per record (label + image).
pub const RECORD_BYTES: usize = 1 + IMAGE_BYTES;
/// CIFAR-10 class count.
pub const NUM_CLASSES: usize = 10;

/// Errors from CIFAR binary parsing.
#[derive(Debug)]
pub enum CifarError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The byte stream is not a whole number of valid records.
    Malformed(String),
}

impl fmt::Display for CifarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CifarError::Io(e) => write!(f, "cifar io error: {e}"),
            CifarError::Malformed(m) => write!(f, "malformed cifar data: {m}"),
        }
    }
}

impl std::error::Error for CifarError {}

impl From<io::Error> for CifarError {
    fn from(e: io::Error) -> Self {
        CifarError::Io(e)
    }
}

/// Parses a CIFAR-10 binary batch into a [`Dataset`] with pixels
/// normalized into `[0, 1]`.
pub fn parse(bytes: &[u8]) -> Result<Dataset, CifarError> {
    if bytes.is_empty() {
        return Err(CifarError::Malformed("empty batch".into()));
    }
    if !bytes.len().is_multiple_of(RECORD_BYTES) {
        return Err(CifarError::Malformed(format!(
            "length {} is not a multiple of the {RECORD_BYTES}-byte record size",
            bytes.len()
        )));
    }
    let n = bytes.len() / RECORD_BYTES;
    let mut labels = Vec::with_capacity(n);
    let mut feats = Vec::with_capacity(n * IMAGE_BYTES);
    for rec in bytes.chunks_exact(RECORD_BYTES) {
        let label = rec[0] as usize;
        if label >= NUM_CLASSES {
            return Err(CifarError::Malformed(format!("label {label} out of range")));
        }
        labels.push(label);
        feats.extend(rec[1..].iter().map(|&b| b as f32 / 255.0));
    }
    Ok(Dataset::new(Matrix::from_vec(n, IMAGE_BYTES, feats), labels, NUM_CLASSES))
}

/// Serializes `(label, image)` records into the binary batch format — the
/// inverse of [`parse`] up to the `u8` quantization.
pub fn serialize(records: &[(u8, Vec<u8>)]) -> Result<Vec<u8>, CifarError> {
    let mut out = Vec::with_capacity(records.len() * RECORD_BYTES);
    for (label, image) in records {
        if *label as usize >= NUM_CLASSES {
            return Err(CifarError::Malformed(format!("label {label} out of range")));
        }
        if image.len() != IMAGE_BYTES {
            return Err(CifarError::Malformed(format!(
                "image has {} bytes, expected {IMAGE_BYTES}",
                image.len()
            )));
        }
        out.push(*label);
        out.extend_from_slice(image);
    }
    Ok(out)
}

/// Reads one binary batch file.
pub fn read_file(path: &Path) -> Result<Dataset, CifarError> {
    parse(&fs::read(path)?)
}

/// Loads and concatenates the five training batches
/// (`data_batch_1.bin` … `data_batch_5.bin`) from `dir`.
pub fn load_train_batches(dir: &Path) -> Result<Dataset, CifarError> {
    let mut features: Vec<Matrix> = Vec::new();
    let mut labels = Vec::new();
    for i in 1..=5 {
        let ds = read_file(&dir.join(format!("data_batch_{i}.bin")))?;
        labels.extend_from_slice(&ds.labels);
        features.push(ds.features);
    }
    let refs: Vec<&Matrix> = features.iter().collect();
    Ok(Dataset::new(Matrix::vstack(&refs), labels, NUM_CLASSES))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: u8, fill: u8) -> (u8, Vec<u8>) {
        (label, vec![fill; IMAGE_BYTES])
    }

    #[test]
    fn round_trip() {
        let recs = vec![record(0, 10), record(9, 200), record(4, 128)];
        let bytes = serialize(&recs).unwrap();
        assert_eq!(bytes.len(), 3 * RECORD_BYTES);
        let ds = parse(&bytes).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.labels, vec![0, 9, 4]);
        assert!((ds.features.get(1, 0) - 200.0 / 255.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_partial_record() {
        let mut bytes = serialize(&[record(1, 1)]).unwrap();
        bytes.pop();
        assert!(matches!(parse(&bytes), Err(CifarError::Malformed(_))));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(parse(&[]), Err(CifarError::Malformed(_))));
    }

    #[test]
    fn rejects_bad_label_on_parse() {
        let mut bytes = serialize(&[record(1, 1)]).unwrap();
        bytes[0] = 12;
        assert!(matches!(parse(&bytes), Err(CifarError::Malformed(_))));
    }

    #[test]
    fn rejects_bad_label_on_serialize() {
        assert!(serialize(&[record(10, 0)]).is_err());
    }

    #[test]
    fn rejects_short_image() {
        assert!(serialize(&[(0u8, vec![0u8; 5])]).is_err());
    }

    #[test]
    fn train_batches_concatenate() {
        let dir = crate::scratch_dir("cifar");
        for i in 1..=5 {
            let bytes = serialize(&[record(i as u8 - 1, i as u8)]).unwrap();
            std::fs::write(dir.join(format!("data_batch_{i}.bin")), bytes).unwrap();
        }
        let ds = load_train_batches(&dir).unwrap();
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.labels, vec![0, 1, 2, 3, 4]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

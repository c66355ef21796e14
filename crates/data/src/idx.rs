//! Reader/writer for the IDX binary format used by MNIST-family datasets
//! (including Fashion-MNIST).
//!
//! Layout: a 4-byte magic (`0x00 0x00 <dtype> <ndims>`), `ndims` big-endian
//! `u32` dimension sizes, then the raw data in row-major order. Only the
//! `u8` dtype (`0x08`) is supported — that is what the distributed
//! FMNIST/MNIST files use.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use fedl_linalg::Matrix;

use crate::Dataset;

/// Errors from IDX parsing.
#[derive(Debug)]
pub enum IdxError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The byte stream is not a valid `u8` IDX payload.
    Malformed(String),
}

impl fmt::Display for IdxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdxError::Io(e) => write!(f, "idx io error: {e}"),
            IdxError::Malformed(m) => write!(f, "malformed idx data: {m}"),
        }
    }
}

impl std::error::Error for IdxError {}

impl From<io::Error> for IdxError {
    fn from(e: io::Error) -> Self {
        IdxError::Io(e)
    }
}

/// A decoded IDX tensor of `u8` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdxTensor {
    /// Dimension sizes, outermost first.
    pub dims: Vec<u32>,
    /// Row-major payload; length is the product of `dims`.
    pub data: Vec<u8>,
}

impl IdxTensor {
    /// Number of outermost items (e.g. images or labels).
    pub fn items(&self) -> usize {
        self.dims.first().copied().unwrap_or(0) as usize
    }

    /// Elements per item (product of the inner dimensions).
    pub fn item_len(&self) -> usize {
        self.dims.iter().skip(1).map(|&d| d as usize).product::<usize>().max(1)
    }
}

const U8_DTYPE: u8 = 0x08;

/// Parses an IDX payload from bytes.
pub fn parse(buf: &[u8]) -> Result<IdxTensor, IdxError> {
    if buf.len() < 4 {
        return Err(IdxError::Malformed("shorter than magic".into()));
    }
    let (zero0, zero1, dtype, ndims) = (buf[0], buf[1], buf[2], buf[3] as usize);
    let mut buf = &buf[4..];
    if zero0 != 0 || zero1 != 0 {
        return Err(IdxError::Malformed("magic must start with two zero bytes".into()));
    }
    if dtype != U8_DTYPE {
        return Err(IdxError::Malformed(format!("unsupported dtype 0x{dtype:02x}")));
    }
    if ndims == 0 {
        return Err(IdxError::Malformed("zero-dimensional tensor".into()));
    }
    if buf.len() < 4 * ndims {
        return Err(IdxError::Malformed("truncated dimension header".into()));
    }
    let mut dims = Vec::with_capacity(ndims);
    let mut total: usize = 1;
    for _ in 0..ndims {
        let d = u32::from_be_bytes(buf[..4].try_into().expect("length checked above"));
        buf = &buf[4..];
        total = total
            .checked_mul(d as usize)
            .ok_or_else(|| IdxError::Malformed("dimension product overflow".into()))?;
        dims.push(d);
    }
    if buf.len() != total {
        return Err(IdxError::Malformed(format!(
            "payload length {} does not match dims {:?} (expect {total})",
            buf.len(),
            dims
        )));
    }
    Ok(IdxTensor { dims, data: buf.to_vec() })
}

/// Serializes a tensor back into IDX bytes (inverse of [`parse`]).
pub fn serialize(t: &IdxTensor) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 * t.dims.len() + t.data.len());
    out.extend_from_slice(&[0, 0, U8_DTYPE, t.dims.len() as u8]);
    for &d in &t.dims {
        out.extend_from_slice(&d.to_be_bytes());
    }
    out.extend_from_slice(&t.data);
    out
}

/// Reads an IDX file from disk.
pub fn read_file(path: &Path) -> Result<IdxTensor, IdxError> {
    parse(&fs::read(path)?)
}

/// Writes an IDX file to disk.
pub fn write_file(path: &Path, t: &IdxTensor) -> Result<(), IdxError> {
    fs::write(path, serialize(t))?;
    Ok(())
}

/// Combines an image tensor and a label tensor into a [`Dataset`], pixel
/// values normalized into `[0, 1]`.
pub fn to_dataset(
    images: &IdxTensor,
    labels: &IdxTensor,
    num_classes: usize,
) -> Result<Dataset, IdxError> {
    if images.items() != labels.items() {
        return Err(IdxError::Malformed(format!(
            "{} images but {} labels",
            images.items(),
            labels.items()
        )));
    }
    if labels.item_len() != 1 {
        return Err(IdxError::Malformed("labels must be one value per item".into()));
    }
    let n = images.items();
    let dim = images.item_len();
    let feats: Vec<f32> = images.data.iter().map(|&b| b as f32 / 255.0).collect();
    let labels: Vec<usize> = labels.data.iter().map(|&b| b as usize).collect();
    if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
        return Err(IdxError::Malformed(format!("label {bad} >= {num_classes}")));
    }
    Ok(Dataset::new(Matrix::from_vec(n, dim, feats), labels, num_classes))
}

/// Loads the standard FMNIST/MNIST file pair
/// (`<stem>-images-idx3-ubyte`, `<stem>-labels-idx1-ubyte`) from `dir`.
pub fn load_pair(dir: &Path, stem: &str) -> Result<Dataset, IdxError> {
    let images = read_file(&dir.join(format!("{stem}-images-idx3-ubyte")))?;
    let labels = read_file(&dir.join(format!("{stem}-labels-idx1-ubyte")))?;
    to_dataset(&images, &labels, 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tensor() -> IdxTensor {
        IdxTensor { dims: vec![2, 2, 3], data: (0..12).collect() }
    }

    #[test]
    fn round_trip() {
        let t = sample_tensor();
        let bytes = serialize(&t);
        let back = parse(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn items_and_item_len() {
        let t = sample_tensor();
        assert_eq!(t.items(), 2);
        assert_eq!(t.item_len(), 6);
    }

    #[test]
    fn rejects_truncated_magic() {
        assert!(matches!(parse(&[0, 0]), Err(IdxError::Malformed(_))));
    }

    #[test]
    fn rejects_bad_magic_prefix() {
        let mut bytes = serialize(&sample_tensor());
        bytes[0] = 1;
        assert!(matches!(parse(&bytes), Err(IdxError::Malformed(_))));
    }

    #[test]
    fn rejects_wrong_dtype() {
        let mut bytes = serialize(&sample_tensor());
        bytes[2] = 0x0D; // float dtype
        assert!(matches!(parse(&bytes), Err(IdxError::Malformed(_))));
    }

    #[test]
    fn rejects_length_mismatch() {
        let mut bytes = serialize(&sample_tensor());
        bytes.pop();
        assert!(matches!(parse(&bytes), Err(IdxError::Malformed(_))));
    }

    #[test]
    fn dataset_conversion_normalizes() {
        let images = IdxTensor { dims: vec![2, 2, 2], data: vec![0, 255, 128, 64, 10, 20, 30, 40] };
        let labels = IdxTensor { dims: vec![2], data: vec![3, 9] };
        let ds = to_dataset(&images, &labels, 10).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.dim(), 4);
        assert_eq!(ds.labels, vec![3, 9]);
        assert_eq!(ds.features.get(0, 1), 1.0);
        assert!((ds.features.get(0, 2) - 128.0 / 255.0).abs() < 1e-6);
    }

    #[test]
    fn dataset_conversion_rejects_mismatch() {
        let images = IdxTensor { dims: vec![2, 1], data: vec![0, 1] };
        let labels = IdxTensor { dims: vec![3], data: vec![0, 1, 2] };
        assert!(to_dataset(&images, &labels, 10).is_err());
    }

    #[test]
    fn dataset_conversion_rejects_big_label() {
        let images = IdxTensor { dims: vec![1, 1], data: vec![0] };
        let labels = IdxTensor { dims: vec![1], data: vec![11] };
        assert!(to_dataset(&images, &labels, 10).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = crate::scratch_dir("idx_file");
        let path = dir.join("tensor.idx");
        let t = sample_tensor();
        write_file(&path, &t).unwrap();
        assert_eq!(read_file(&path).unwrap(), t);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_pair_round_trip() {
        let dir = crate::scratch_dir("idx_pair");
        let images = IdxTensor { dims: vec![3, 2, 2], data: (0..12).map(|v| v * 20).collect() };
        let labels = IdxTensor { dims: vec![3], data: vec![1, 0, 9] };
        write_file(&dir.join("t10k-images-idx3-ubyte"), &images).unwrap();
        write_file(&dir.join("t10k-labels-idx1-ubyte"), &labels).unwrap();
        let ds = load_pair(&dir, "t10k").unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.labels, vec![1, 0, 9]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

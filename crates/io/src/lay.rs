//! The binary `.lay` layout format.
//!
//! Layout files let the quality pipeline (sampled path stress, rendering)
//! run decoupled from layout computation, exactly as the paper's artifact
//! does with its pre-generated `layouts_cpu/` and `layouts_gpu/`
//! directories.
//!
//! Format (little-endian):
//!
//! ```text
//! magic   8 B   "PGLAY\x01\0\0"
//! nodes   8 B   u64 node count N
//! xs      16N B f64 × 2N (start,end interleaved)
//! ys      16N B f64 × 2N
//! ```

use pangraph::layout2d::Layout2D;
use std::fmt;

const MAGIC: &[u8; 8] = b"PGLAY\x01\0\0";

/// Errors from `.lay` decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayError {
    /// The magic prefix did not match.
    BadMagic,
    /// The buffer is shorter than the header + payload demand.
    Truncated {
        /// Bytes expected.
        expected: usize,
        /// Bytes present.
        actual: usize,
    },
    /// Node count is implausible for the buffer size.
    BadCount(u64),
}

impl fmt::Display for LayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayError::BadMagic => write!(f, "not a PGLAY file (bad magic)"),
            LayError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated lay file: need {expected} bytes, have {actual}"
                )
            }
            LayError::BadCount(n) => write!(f, "implausible node count {n}"),
        }
    }
}

impl std::error::Error for LayError {}

/// Serialize a layout.
pub fn write_lay(layout: &Layout2D) -> Vec<u8> {
    let n = layout.node_count();
    let mut buf = Vec::with_capacity(16 + 32 * n);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    for &v in layout.xs().iter().chain(layout.ys()) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}

/// Deserialize a layout.
pub fn read_lay(data: &[u8]) -> Result<Layout2D, LayError> {
    let Some((header, body)) = data.split_first_chunk::<16>() else {
        return Err(LayError::Truncated {
            expected: 16,
            actual: data.len(),
        });
    };
    let (magic, count) = header.split_at(8);
    if magic != MAGIC {
        return Err(LayError::BadMagic);
    }
    let n = u64::from_le_bytes(count.try_into().expect("8-byte count"));
    let payload = (n as usize).checked_mul(32).ok_or(LayError::BadCount(n))?;
    if body.len() < payload {
        return Err(LayError::Truncated {
            expected: 16 + payload,
            actual: data.len(),
        });
    }
    let (xs, ys) = body[..payload].split_at(payload / 2);
    let floats = |bytes: &[u8]| -> Vec<f64> {
        bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect()
    };
    Ok(Layout2D::from_flat(floats(xs), floats(ys)))
}

/// Write a layout to a file path.
pub fn save_lay(layout: &Layout2D, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, write_lay(layout))
}

/// Read a layout from a file path.
pub fn load_lay(path: &std::path::Path) -> std::io::Result<Layout2D> {
    let data = std::fs::read(path)?;
    read_lay(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_layout() -> Layout2D {
        let mut l = Layout2D::zeros(5);
        for n in 0..5u32 {
            l.set(n, false, n as f64 * 1.5, -(n as f64));
            l.set(n, true, n as f64 * 1.5 + 0.25, n as f64 * 0.5);
        }
        l
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let l = sample_layout();
        let bytes = write_lay(&l);
        let back = read_lay(&bytes).unwrap();
        assert_eq!(back, l);
    }

    #[test]
    fn empty_layout_round_trips() {
        let l = Layout2D::zeros(0);
        assert_eq!(read_lay(&write_lay(&l)).unwrap().node_count(), 0);
    }

    #[test]
    fn special_floats_survive() {
        let mut l = Layout2D::zeros(1);
        l.set(0, false, f64::MAX, f64::MIN_POSITIVE);
        l.set(0, true, -0.0, 1e-300);
        let back = read_lay(&write_lay(&l)).unwrap();
        assert_eq!(back, l);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = write_lay(&sample_layout()).to_vec();
        bytes[0] = b'X';
        assert_eq!(read_lay(&bytes), Err(LayError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let bytes = write_lay(&sample_layout());
        let cut = &bytes[..bytes.len() - 7];
        match read_lay(cut) {
            Err(LayError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        assert!(matches!(
            read_lay(&bytes[..4]),
            Err(LayError::Truncated { .. })
        ));
    }

    #[test]
    fn absurd_count_rejected() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        match read_lay(&buf) {
            Err(LayError::BadCount(_)) | Err(LayError::Truncated { .. }) => {}
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pgio_lay_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.lay");
        let l = sample_layout();
        save_lay(&l, &path).unwrap();
        assert_eq!(load_lay(&path).unwrap(), l);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(LayError::BadMagic.to_string().contains("magic"));
        assert!(LayError::Truncated {
            expected: 10,
            actual: 5
        }
        .to_string()
        .contains("10"));
    }
}

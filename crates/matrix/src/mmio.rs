//! Minimal Matrix Market (`.mtx`) reader and writer.
//!
//! Supports the `matrix coordinate real/integer/pattern general/symmetric`
//! subset, which covers the University of Florida (SuiteSparse) collection
//! dumps the paper evaluates on. Pattern matrices read as value `1.0`;
//! symmetric matrices are expanded to general storage on read.
//!
//! # Example
//!
//! ```
//! use spacea_matrix::mmio;
//!
//! # fn main() -> Result<(), spacea_matrix::MatrixError> {
//! let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.5\n2 2 -1\n";
//! let csr = mmio::read_str(text)?;
//! assert_eq!(csr.nnz(), 2);
//! let round = mmio::write_string(&csr);
//! assert_eq!(mmio::read_str(&round)?, csr);
//! # Ok(())
//! # }
//! ```

use crate::{Coo, Csr, MatrixError};
use std::fmt::Write as _;
use std::fs;
use std::io::Read;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueKind {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

/// The largest row or column count a Matrix Market header may declare:
/// 2^22 = 4,194,304, over four times the largest Table I matrix at scale 1
/// (webbase-1M, 1,000,005 rows). The check runs before anything is sized
/// from the header, so a lying header cannot make the reader allocate for
/// it.
pub const MAX_MTX_DIM: usize = 1 << 22;

/// Reads a Matrix Market matrix from a string.
///
/// # Errors
///
/// Returns [`MatrixError::Parse`] on malformed input (bad header, wrong entry
/// count, out-of-range coordinates, or dimensions above [`MAX_MTX_DIM`]).
pub fn read_str(text: &str) -> Result<Csr, MatrixError> {
    let mut lines = text.lines().enumerate();

    let (_, header) = lines.next().ok_or_else(|| parse_err(1, "empty input"))?;
    let header = header.to_ascii_lowercase();
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(parse_err(1, "expected '%%MatrixMarket matrix ...' header"));
    }
    if fields[2] != "coordinate" {
        return Err(parse_err(1, "only coordinate format is supported"));
    }
    let kind = match fields[3] {
        "real" => ValueKind::Real,
        "integer" => ValueKind::Integer,
        "pattern" => ValueKind::Pattern,
        other => return Err(parse_err(1, &format!("unsupported value type '{other}'"))),
    };
    let symmetry = match fields[4] {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => return Err(parse_err(1, &format!("unsupported symmetry '{other}'"))),
    };

    // Skip comments to the size line.
    let (size_line_no, size_line) = lines
        .by_ref()
        .find(|(_, l)| !l.trim_start().starts_with('%') && !l.trim().is_empty())
        .ok_or_else(|| parse_err(1, "missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| parse_err(size_line_no + 1, &format!("bad size line: {e}")))?;
    if dims.len() != 3 {
        return Err(parse_err(size_line_no + 1, "size line must be 'rows cols nnz'"));
    }
    let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);
    if rows > MAX_MTX_DIM || cols > MAX_MTX_DIM {
        return Err(parse_err(
            size_line_no + 1,
            &format!("declared size {rows}x{cols} exceeds the {MAX_MTX_DIM} dimension cap"),
        ));
    }
    let per_line = if symmetry == Symmetry::Symmetric { 2 } else { 1 };
    let declared = nnz
        .checked_mul(per_line)
        .ok_or_else(|| parse_err(size_line_no + 1, "declared entry count overflows"))?;

    let mut coo = Coo::new(rows, cols);
    // An entry line takes at least 4 bytes ("r c\n"), so the text itself
    // bounds the reservation, whatever the header claims.
    coo.reserve(declared.min(text.len() / 4 * per_line));
    let mut seen = 0usize;
    for (idx, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let r: usize = parse_tok(&mut it, idx + 1, "row")?;
        let c: usize = parse_tok(&mut it, idx + 1, "col")?;
        let v = match kind {
            ValueKind::Pattern => 1.0,
            _ => {
                let t = it.next().ok_or_else(|| parse_err(idx + 1, "missing value field"))?;
                t.parse::<f64>().map_err(|e| parse_err(idx + 1, &format!("bad value: {e}")))?
            }
        };
        if r == 0 || c == 0 {
            return Err(parse_err(idx + 1, "matrix market coordinates are 1-based"));
        }
        coo.push(r - 1, c - 1, v).map_err(|e| parse_err(idx + 1, &e.to_string()))?;
        if symmetry == Symmetry::Symmetric && r != c {
            coo.push(c - 1, r - 1, v).map_err(|e| parse_err(idx + 1, &e.to_string()))?;
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(0, &format!("header declared {nnz} entries but stream held {seen}")));
    }
    Ok(coo.to_csr())
}

/// Reads a Matrix Market matrix from a reader.
///
/// A `&mut R` can be passed for any `R: Read`.
///
/// # Errors
///
/// Returns [`MatrixError::Io`] on read failure or [`MatrixError::Parse`] on
/// malformed content.
pub fn read<R: Read>(mut reader: R) -> Result<Csr, MatrixError> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    read_str(&text)
}

/// Reads a Matrix Market file from disk.
///
/// # Errors
///
/// Returns [`MatrixError::Io`] if the file cannot be read, or a parse error.
pub fn read_file<P: AsRef<Path>>(path: P) -> Result<Csr, MatrixError> {
    read_str(&fs::read_to_string(path)?)
}

/// Serializes a CSR matrix as `matrix coordinate real general` text.
pub fn write_string(csr: &Csr) -> String {
    let mut out = String::new();
    out.push_str("%%MatrixMarket matrix coordinate real general\n");
    out.push_str("% written by spacea-matrix\n");
    let _ = writeln!(out, "{} {} {}", csr.rows(), csr.cols(), csr.nnz());
    for i in 0..csr.rows() {
        for (c, v) in csr.row(i) {
            let _ = writeln!(out, "{} {} {}", i + 1, c + 1, v);
        }
    }
    out
}

fn parse_err(line: usize, message: &str) -> MatrixError {
    MatrixError::Parse { line, message: message.to_string() }
}

fn parse_tok<'a, I: Iterator<Item = &'a str>>(
    it: &mut I,
    line: usize,
    what: &str,
) -> Result<usize, MatrixError> {
    it.next()
        .ok_or_else(|| parse_err(line, &format!("missing {what} field")))?
        .parse::<usize>()
        .map_err(|e| parse_err(line, &format!("bad {what}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_real_general() {
        let text =
            "%%MatrixMarket matrix coordinate real general\n% comment\n2 3 2\n1 1 1.5\n2 3 2.5\n";
        let csr = read_str(text).unwrap();
        assert_eq!(csr.rows(), 2);
        assert_eq!(csr.cols(), 3);
        assert_eq!(csr.spmv(&[1.0, 0.0, 1.0]), vec![1.5, 2.5]);
    }

    #[test]
    fn reads_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 1\n";
        let csr = read_str(text).unwrap();
        assert_eq!(csr.vals(), &[1.0]);
    }

    #[test]
    fn reads_symmetric_expands() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 5\n2 1 7\n";
        let csr = read_str(text).unwrap();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.spmv(&[0.0, 1.0]), vec![7.0, 0.0]);
    }

    #[test]
    fn symmetric_diagonal_not_duplicated() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 2 4\n";
        let csr = read_str(text).unwrap();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.vals(), &[4.0]);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_str("%%NotMM\n1 1 0\n").is_err());
        assert!(read_str("%%MatrixMarket matrix array real general\n").is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n";
        assert!(matches!(read_str(text), Err(MatrixError::Parse { .. })));
    }

    #[test]
    fn rejects_lying_headers_before_allocating() {
        let header = "%%MatrixMarket matrix coordinate real general\n";
        let huge = MAX_MTX_DIM + 1;
        for size in [format!("{huge} 2 1"), format!("2 {huge} 1"), format!("{} 1 1", usize::MAX)] {
            let e = read_str(&format!("{header}{size}\n1 1 1\n")).unwrap_err();
            assert!(e.to_string().contains("dimension cap"), "{size}: {e}");
        }
        let sym = "%%MatrixMarket matrix coordinate real symmetric\n";
        let e = read_str(&format!("{sym}2 2 {}\n1 1 1\n", usize::MAX)).unwrap_err();
        assert!(e.to_string().contains("overflows"), "{e}");
        // A declared count far past what the text holds reserves only what
        // the text can carry, then fails on the count check.
        let e = read_str(&format!("{header}2 2 {}\n1 1 1\n", usize::MAX / 2)).unwrap_err();
        assert!(e.to_string().contains("declared"), "{e}");
        // The cap itself is accepted.
        let csr = read_str(&format!("{header}{MAX_MTX_DIM} 1 1\n1 1 1\n")).unwrap();
        assert_eq!(csr.rows(), MAX_MTX_DIM);
    }

    #[test]
    fn rejects_zero_based_coords() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n";
        assert!(read_str(text).is_err());
    }

    #[test]
    fn roundtrip() {
        let text = "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 1\n2 3 2\n3 1 3\n";
        let csr = read_str(text).unwrap();
        assert_eq!(read_str(&write_string(&csr)).unwrap(), csr);
    }

    #[test]
    fn read_from_reader() {
        let bytes = b"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 9\n";
        let csr = read(&bytes[..]).unwrap();
        assert_eq!(csr.vals(), &[9.0]);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("spacea_mmio_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.mtx");
        let csr =
            read_str("%%MatrixMarket matrix coordinate real general\n1 2 1\n1 2 4\n").unwrap();
        std::fs::write(&path, write_string(&csr)).unwrap();
        assert_eq!(read_file(&path).unwrap(), csr);
    }
}

//! Matrix Market exchange format I/O (pattern matrices).
//!
//! The paper's experiments read matrices from the UFL (SuiteSparse)
//! collection, which ships in Matrix Market format. Our harness generates
//! surrogate instances instead (see `dsmatch-gen`), but the reader/writer
//! lets downstream users run every binary on real collection files, and the
//! workspace's integration tests round-trip through it.
//!
//! Supported header: `%%MatrixMarket matrix coordinate <field> <symmetry>`
//! with `field ∈ {pattern, real, integer}` (values are discarded — the
//! algorithms are defined on the nonzero pattern) and
//! `symmetry ∈ {general, symmetric}`.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::csr::Csr;
use crate::triplet::TripletMatrix;

/// Errors produced by the Matrix Market reader.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file contents.
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(msg) => write!(f, "Matrix Market parse error: {msg}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

/// Read a pattern matrix from a Matrix Market stream.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Csr, MmError> {
    let mut lines = BufReader::new(reader).lines();

    let header = lines.next().ok_or_else(|| parse_err("empty file"))??;
    let tokens: Vec<&str> = header.split_whitespace().collect();
    if tokens.len() < 5 || !tokens[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(parse_err(format!("bad header line: {header:?}")));
    }
    if !tokens[1].eq_ignore_ascii_case("matrix") || !tokens[2].eq_ignore_ascii_case("coordinate") {
        return Err(parse_err("only `matrix coordinate` objects are supported"));
    }
    let field = tokens[3].to_ascii_lowercase();
    let has_values = match field.as_str() {
        "pattern" => false,
        "real" | "integer" => true,
        other => return Err(parse_err(format!("unsupported field {other:?}"))),
    };
    let symmetry = tokens[4].to_ascii_lowercase();
    let symmetric = match symmetry.as_str() {
        "general" => false,
        "symmetric" => true,
        other => return Err(parse_err(format!("unsupported symmetry {other:?}"))),
    };

    // Skip comments, find the size line.
    let size_line = loop {
        let line = lines.next().ok_or_else(|| parse_err("missing size line"))??;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        break line;
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>().map_err(|_| parse_err(format!("bad size token {t:?}"))))
        .collect::<Result<_, _>>()?;
    let [nrows, ncols, nnz] = dims[..] else {
        return Err(parse_err(format!("size line must have 3 fields: {size_line:?}")));
    };
    if nrows.max(ncols) >= u32::MAX as usize {
        let max = u32::MAX - 1;
        return Err(parse_err(format!("size {nrows}×{ncols} exceeds the largest supported {max}")));
    }

    // The entry count is checked against the entries actually read, not
    // trusted up front: the buffer grows as they arrive.
    let mut t = TripletMatrix::new(nrows, ncols);
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let i: usize = it
            .next()
            .ok_or_else(|| parse_err("missing row index"))?
            .parse()
            .map_err(|_| parse_err(format!("bad row index in {trimmed:?}")))?;
        let j: usize = it
            .next()
            .ok_or_else(|| parse_err("missing col index"))?
            .parse()
            .map_err(|_| parse_err(format!("bad col index in {trimmed:?}")))?;
        if has_values && it.next().is_none() {
            return Err(parse_err(format!("missing value in {trimmed:?}")));
        }
        if i == 0 || j == 0 || i > nrows || j > ncols {
            return Err(parse_err(format!("entry ({i}, {j}) out of 1-based bounds")));
        }
        t.push(i - 1, j - 1);
        if symmetric && i != j {
            t.push(j - 1, i - 1);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(format!("size line promised {nnz} entries, found {seen}")));
    }
    Ok(t.into_csr())
}

/// Read a pattern matrix from a Matrix Market file on disk.
pub fn read_matrix_market_file(path: impl AsRef<Path>) -> Result<Csr, MmError> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Write a pattern matrix in `coordinate pattern general` format.
pub fn write_matrix_market<W: Write>(mut w: W, a: &Csr) -> std::io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate pattern general")?;
    writeln!(w, "% written by dsmatch")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for (i, j) in a.iter_entries() {
        writeln!(w, "{} {}", i + 1, j + 1)?;
    }
    Ok(())
}

/// Write a pattern matrix to a file.
pub fn write_matrix_market_file(path: impl AsRef<Path>, a: &Csr) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_matrix_market(std::io::BufWriter::new(f), a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_general_pattern() {
        let a = Csr::from_dense(&[&[1, 0, 1], &[0, 1, 0]]);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &a).unwrap();
        let b = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reads_real_values_as_pattern() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % comment\n\
                    2 2 3\n\
                    1 1 3.5\n\
                    2 1 -1e3\n\
                    2 2 0.25\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 3);
        assert!(a.contains(0, 0));
        assert!(a.contains(1, 0));
        assert!(a.contains(1, 1));
    }

    #[test]
    fn expands_symmetric_storage() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    3 3 2\n\
                    2 1\n\
                    3 3\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert!(a.contains(1, 0));
        assert!(a.contains(0, 1)); // mirrored
        assert!(a.contains(2, 2)); // diagonal not duplicated
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn rejects_truncated_file() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(matches!(err, MmError::Parse(_)), "{err}");
    }

    #[test]
    fn rejects_dimensions_beyond_u32_vertex_ids() {
        for size in ["4294967295 3 0", "3 4294967295 0", "5000000000 3 1"] {
            let text = format!("%%MatrixMarket matrix coordinate pattern general\n{size}\n");
            let err = read_matrix_market(text.as_bytes()).unwrap_err();
            assert!(matches!(err, MmError::Parse(_)), "{size}: {err}");
        }
    }

    #[test]
    fn rejects_out_of_bounds_entry() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_bad_header() {
        let text = "%%NotMatrixMarket nope\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let a = Csr::from_dense(&[&[0, 1], &[1, 1]]);
        let dir = std::env::temp_dir().join("dsmatch_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.mtx");
        write_matrix_market_file(&path, &a).unwrap();
        let b = read_matrix_market_file(&path).unwrap();
        assert_eq!(a, b);
    }
}

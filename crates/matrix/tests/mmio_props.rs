//! Property tests for the Matrix Market reader: it returns an error, never
//! a panic, on arbitrary text and on every prefix of a valid file, and the
//! writer's output reads back as exactly the matrix written.

use proptest::prelude::*;
use spacea_matrix::mmio::{read_str, write_string};
use spacea_matrix::{Coo, Csr};

/// Square matrices up to 48×48 with up to 200 entries (duplicates summed).
fn sparse_square() -> impl Strategy<Value = Csr> {
    (2usize..48).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 0.1f64..5.0), 0..200).prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            for (r, c, v) in entries {
                coo.push(r, c, v).expect("in range");
            }
            coo.to_csr()
        })
    })
}

/// Header lines: the three supported kinds, unsupported ones, odd case,
/// a truncated header and none at all.
const HEADERS: &[&str] = &[
    "%%MatrixMarket matrix coordinate real general",
    "%%MatrixMarket matrix coordinate pattern symmetric",
    "%%MatrixMarket matrix coordinate integer general",
    "%%matrixmarket MATRIX Coordinate REAL Symmetric",
    "%%MatrixMarket matrix coordinate complex general",
    "%%MatrixMarket matrix array real general",
    "%%MatrixMarket matrix",
    "",
];

/// Fields of size and entry lines: small coordinates (often), zero,
/// negative, fractional, non-finite, at and past the dimension cap, past
/// `u64`, non-ASCII, and a comment marker.
const FIELDS: &[&str] = &[
    "1",
    "1",
    "2",
    "2",
    "3",
    "0",
    "-1",
    "2.5",
    "1e3",
    "nan",
    "-inf",
    "4194304",
    "4194305",
    "18446744073709551615",
    "99999999999999999999999",
    "é",
    "%",
];

/// A line of up to `max` fields, separated by a space or a tab.
fn fields_line(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..FIELDS.len(), any::<bool>()), 0..max).prop_map(|fields| {
        let mut line = String::new();
        for (i, (field, tab)) in fields.into_iter().enumerate() {
            if i > 0 {
                line.push(if tab { '\t' } else { ' ' });
            }
            line.push_str(FIELDS[field]);
        }
        line
    })
}

/// Declared dimensions: small, and at the cap.
const DIMS: &[&str] = &["1", "2", "3", "1", "2", "3", "4194304"];

/// Declared entry counts: small, past anything the text can hold, and
/// `u64::MAX`.
const COUNTS: &[&str] = &["0", "1", "2", "3", "5", "4194305", "18446744073709551615"];

/// Text shaped like a Matrix Market file, so the reader gets past its
/// header: a header line, a size line (three well-formed counts three
/// times in four), then entry lines, blank lines and comments.
fn mtx_text() -> impl Strategy<Value = String> {
    (
        0usize..HEADERS.len(),
        (0u8..4, 0usize..DIMS.len(), 0usize..DIMS.len(), 0usize..COUNTS.len(), fields_line(5)),
        proptest::collection::vec(fields_line(5), 0..10),
    )
        .prop_map(|(header, (pick, rows, cols, nnz, odd_size), entries)| {
            let mut text = format!("{}\n", HEADERS[header]);
            match pick {
                0 => text.push_str(&odd_size),
                _ => text.push_str(&format!("{} {} {}", DIMS[rows], DIMS[cols], COUNTS[nnz])),
            }
            for entry in entries {
                text.push('\n');
                text.push_str(&entry);
            }
            text
        })
}

/// Arbitrary characters: ASCII half the time, any scalar value otherwise.
fn any_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((any::<bool>(), any::<u32>()), 0..200).prop_map(|chars| {
        chars
            .into_iter()
            .map(|(ascii, raw)| {
                let code = if ascii { raw % 0x80 } else { raw % 0x11_0000 };
                char::from_u32(code).unwrap_or('\u{fffd}')
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_text_never_panics(text in any_text()) {
        let _ = read_str(&text);
    }

    #[test]
    fn mtx_like_text_never_panics(text in mtx_text()) {
        let _ = read_str(&text);
    }

    #[test]
    fn write_then_read_round_trips_exactly(a in sparse_square()) {
        let back = read_str(&write_string(&a)).expect("the writer's output parses");
        prop_assert_eq!(back, a);
    }
}

proptest! {
    // Each case parses every prefix of its file: a few thousand parses.
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn every_prefix_of_a_valid_file_never_panics(a in sparse_square()) {
        let text = write_string(&a);
        for end in 0..=text.len() {
            if let Ok(back) = read_str(&text[..end]) {
                // Only the whole file parses, or a cut inside the last
                // value's digits.
                prop_assert_eq!((back.rows(), back.cols(), back.nnz()), (a.rows(), a.cols(), a.nnz()));
            }
        }
    }
}

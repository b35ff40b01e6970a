//! Property tests of `spacea_obs::json`: exact round trips, a parser that
//! never panics, and no valid-looking prefix.
//!
//! The vendored proptest subset has no recursive strategies, so trees are
//! built from a vector of random words: each word picks a node kind and
//! the next one its payload.

use proptest::collection::vec;
use proptest::prelude::*;
use spacea_obs::json::{parse, Json};
use std::slice::Iter;

/// Characters strings are drawn from: quotes, escapes, control characters
/// and non-ASCII text alongside plain letters.
const CHARS: [char; 20] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '中',
    '🦀', '\u{2028}', '{', ':', ',',
];

/// JSON-shaped bytes the fuzz input mixes with raw ones, so inputs get past
/// the first byte often enough to reach every parser branch.
const JSONISH: &[u8] = b"[]{}\",:\\/0123456789-+.eEtrufalsnbu \t\n\r\x01\xc3\xa9";

fn text(p: u64) -> String {
    (0..p % 8).map(|i| CHARS[(p >> (i * 5 + 3)) as usize % CHARS.len()]).collect()
}

/// A finite `f64` that stays a `Num` through a round trip: `fmt_num` writes
/// non-negative integral values as bare digits, which parse back as `U64`
/// by design.
fn num(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    if !x.is_finite() {
        0.25
    } else if x >= 0.0 && x.fract() == 0.0 {
        -x - 0.5
    } else {
        x
    }
}

fn tree(words: &mut Iter<'_, u64>, depth: usize) -> Json {
    let Some(&w) = words.next() else { return Json::Null };
    let p = words.next().copied().unwrap_or(u64::MAX);
    let width = (w >> 8) % 4;
    match w % if depth < 5 { 8 } else { 6 } {
        0 => Json::Null,
        1 => Json::Bool(p & 1 == 1),
        2 => Json::U64([u64::MAX, 0, p, p >> (p % 64)][width as usize]),
        3 => Json::f64_bits(f64::from_bits(p)),
        4 => Json::Num(num(p)),
        5 => Json::Str(text(p)),
        6 => Json::Arr((0..width).map(|_| tree(words, depth + 1)).collect()),
        _ => Json::Obj((0..width).map(|i| (text(p >> i), tree(words, depth + 1))).collect()),
    }
}

/// An arbitrary document whose top level is an array, as every document
/// the workspace writes is a container.
fn document() -> impl Strategy<Value = Json> {
    vec(any::<u64>(), 1..64).prop_map(|words| {
        let mut it = words.iter();
        let mut items = Vec::new();
        while it.len() > 0 {
            items.push(tree(&mut it, 1));
        }
        Json::Arr(items)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn trees_round_trip_exactly(doc in document()) {
        let text = doc.to_text();
        prop_assert_eq!(parse(&text), Ok(doc.clone()), "{}", text);
        prop_assert_eq!(parse(&text).unwrap().to_text(), text);
    }

    #[test]
    fn arbitrary_bytes_parse_or_err_without_panicking(raw in vec(any::<u16>(), 0..96)) {
        let bytes: Vec<u8> = raw
            .iter()
            .map(|&w| if w & 0x100 != 0 { JSONISH[w as usize % JSONISH.len()] } else { w as u8 })
            .collect();
        let input = String::from_utf8_lossy(&bytes);
        if let Ok(v) = parse(&input) {
            prop_assert!(parse(&v.to_text()).is_ok(), "{:?}", input);
        }
    }

    #[test]
    fn corrupted_documents_parse_or_err_without_panicking(
        doc in document(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = doc.to_text().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn every_prefix_of_a_document_is_rejected(doc in document()) {
        let text = doc.to_text();
        for (at, _) in text.char_indices() {
            prop_assert!(parse(&text[..at]).is_err(), "prefix {:?} of {:?}", &text[..at], text);
        }
    }
}

//! Property tests for the wire request parser: `Request::parse` returns an
//! error, never a panic, on arbitrary text, on any prefix of a request line
//! and on a request line with a field value out of range or of the wrong
//! type, and reads back every request kind `Request::to_line` prints.

use proptest::prelude::*;
use spacea_serve::protocol::Request;

/// Arbitrary characters: ASCII half the time, any scalar value otherwise.
fn any_text(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec((any::<bool>(), any::<u32>()), 0..max).prop_map(|chars| {
        chars
            .into_iter()
            .map(|(ascii, raw)| {
                let code = if ascii { raw % 0x80 } else { raw % 0x11_0000 };
                char::from_u32(code).unwrap_or('\u{fffd}')
            })
            .collect()
    })
}

/// Every request kind, with arbitrary field values (text bodies with
/// quotes, backslashes, control and non-ASCII characters).
fn request() -> impl Strategy<Value = Request> {
    (0u8..7, any::<u64>(), any::<u64>(), (any::<bool>(), any::<u64>()), any_text(64)).prop_map(
        |(kind, a, b, (has_deadline, deadline), text)| match kind {
            0 => Request::Ping,
            1 => Request::Register { id: a as u8, scale: b as usize },
            2 => Request::Submit {
                matrix: a,
                seed: b,
                deadline_ms: has_deadline.then_some(deadline),
            },
            3 => Request::RegisterMtx { text },
            4 => Request::Compact { retain: a as usize },
            5 => Request::Stat,
            _ => Request::Shutdown,
        },
    )
}

/// Pieces of request lines and near misses: keys, commands, nesting,
/// escapes, and numbers beyond `u64`, signed or fractional.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\"cmd\"",
    "\"submit\"",
    "\"register\"",
    "\"register-mtx\"",
    "\"compact\"",
    "\"ping\"",
    "\"matrix\"",
    "\"seed\"",
    "\"id\"",
    "\"scale\"",
    "\"text\"",
    "\"retain\"",
    "\"deadline_ms\"",
    "0",
    "1",
    "-1",
    "256",
    "1.5",
    "1e400",
    "18446744073709551615",
    "18446744073709551616",
    "true",
    "null",
    "\\u00e9",
    "\\ud800",
    "\\",
    " ",
];

/// Text built from request tokens, with an arbitrary character in place of
/// a token one time in four.
fn json_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u8..4, 0usize..TOKENS.len(), any::<u32>()), 0..40).prop_map(
        |parts| {
            let mut text = String::new();
            for (pick, token, raw) in parts {
                match pick {
                    0 => text.push(char::from_u32(raw % 0x11_0000).unwrap_or('\u{fffd}')),
                    _ => text.push_str(TOKENS[token]),
                }
            }
            text
        },
    )
}

/// Values that do not fit a field: past `u8` and `u64`, negative,
/// fractional, and of the wrong JSON type.
const EDGE_VALUES: &[&str] =
    &["256", "18446744073709551616", "-1", "1.5", "1e400", "\"7\"", "null", "[]", "{}"];

/// `line` with its `pick`-th run of digits replaced by `value`.
fn with_field_value(line: &str, pick: usize, value: &str) -> String {
    let mut runs = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            runs.push(start..i);
        } else {
            i += 1;
        }
    }
    match runs.get(pick % runs.len().max(1)) {
        Some(run) => format!("{}{value}{}", &line[..run.start], &line[run.end..]),
        None => line.to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn out_of_range_field_values_never_panic(
        req in request(),
        pick in 0usize..8,
        value in 0usize..EDGE_VALUES.len(),
    ) {
        let _ = Request::parse(&with_field_value(&req.to_line(), pick, EDGE_VALUES[value]));
    }

    #[test]
    fn every_request_prints_and_parses_back(req in request()) {
        let line = req.to_line();
        prop_assert_eq!(Request::parse(&line), Ok(req), "{}", line);
    }

    #[test]
    fn arbitrary_text_never_panics(text in any_text(200)) {
        let _ = Request::parse(&text);
    }

    #[test]
    fn json_like_text_never_panics(text in json_text()) {
        let _ = Request::parse(&text);
    }

    #[test]
    fn every_prefix_of_a_request_line_never_panics(req in request()) {
        let line = req.to_line();
        for end in (0..=line.len()).filter(|&end| line.is_char_boundary(end)) {
            let _ = Request::parse(&line[..end]);
        }
    }
}

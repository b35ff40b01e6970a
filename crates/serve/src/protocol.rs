//! The line/JSON wire protocol between the `serve` CLI and the daemon.
//!
//! Each request is one line of `spacea_obs::json` text with a `"cmd"`
//! discriminator; each response is one line with an `"ok"` boolean.
//! Floats — the response vectors — travel as IEEE-754 bit patterns, so
//! the protocol preserves the simulator's bitwise guarantees end to end:
//! what the client decodes is exactly what the machine produced, including
//! negative zeros and NaN payloads. A reply's `"y"` is one string of 16
//! lowercase hex digits per element ([`y_bits`]), which both ends copy
//! whole rather than handling a JSON value per element. Clients that
//! expect the older array of decimal bit patterns cannot decode it. A
//! request line longer than
//! [`MAX_LINE_BYTES`] gets a `bad-request` and the connection closes; JSON
//! nested deeper than [`spacea_obs::json::MAX_DEPTH`] is a `bad-request`.

use crate::{splitmix64, GOLDEN_GAMMA};
use spacea_obs::json::Json;

/// Name of the file (under the daemon's cache directory) that holds the
/// bound TCP port, written once the listener is up. Doubles as the
/// "daemon is ready" signal for scripts.
pub const PORT_FILE: &str = "serve.port";

/// The longest request line the daemon reads (newline excluded): room for
/// a `register-mtx` body.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Register a Table I suite matrix by id and down-scale factor.
    Register {
        /// Suite matrix id (Table I numbering).
        id: u8,
        /// Down-scale factor handed to the generator.
        scale: usize,
    },
    /// Run SpMV of a deterministic seeded vector against a registered
    /// matrix. The daemon derives the vector from the seed so a dense
    /// vector never crosses the wire on the request path.
    Submit {
        /// Content key returned by `Register`.
        matrix: u64,
        /// Seed of the input vector (see [`seeded_vector`]).
        seed: u64,
        /// Per-request deadline override in milliseconds; `None` uses
        /// [`crate::service::DEFAULT_DEADLINE`]. A request not answered in
        /// time is rejected with the `deadline-exceeded` code.
        deadline_ms: Option<u64>,
    },
    /// Register a matrix from MatrixMarket text (the file body travels
    /// on the wire with newlines JSON-escaped), so serving is not
    /// suite-only.
    RegisterMtx {
        /// The MatrixMarket file contents.
        text: String,
    },
    /// Compact the acknowledgment journal down to the newest `retain`
    /// batches (an atomic rewrite; see
    /// [`crate::journal::AckJournal::compact`]).
    Compact {
        /// How many batches to keep.
        retain: usize,
    },
    /// Fetch engine counters.
    Stat,
    /// Stop the daemon (it flushes its manifest and telemetry first).
    Shutdown,
}

impl Request {
    /// Encodes the request as a JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj(vec![("cmd", Json::Str("ping".into()))]),
            Request::Register { id, scale } => Json::obj(vec![
                ("cmd", Json::Str("register".into())),
                ("id", Json::U64(u64::from(*id))),
                ("scale", Json::U64(*scale as u64)),
            ]),
            Request::Submit { matrix, seed, deadline_ms } => {
                let mut fields = vec![
                    ("cmd", Json::Str("submit".into())),
                    ("matrix", Json::U64(*matrix)),
                    ("seed", Json::U64(*seed)),
                ];
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms", Json::U64(*ms)));
                }
                Json::obj(fields)
            }
            Request::RegisterMtx { text } => Json::obj(vec![
                ("cmd", Json::Str("register-mtx".into())),
                ("text", Json::Str(text.clone())),
            ]),
            Request::Compact { retain } => Json::obj(vec![
                ("cmd", Json::Str("compact".into())),
                ("retain", Json::U64(*retain as u64)),
            ]),
            Request::Stat => Json::obj(vec![("cmd", Json::Str("stat".into()))]),
            Request::Shutdown => Json::obj(vec![("cmd", Json::Str("shutdown".into()))]),
        }
    }

    /// Encodes the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_text()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, an unknown `cmd`, or missing
    /// fields.
    pub fn parse(text: &str) -> Result<Request, String> {
        let v = spacea_obs::json::parse(text)?;
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| "request has no \"cmd\" field".to_string())?
            .to_string();
        let need_u64 = |field: &str| {
            v.get(field)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("\"{cmd}\" needs a numeric \"{field}\" field"))
        };
        match cmd.as_str() {
            "ping" => Ok(Request::Ping),
            "register" => {
                let id = need_u64("id")?;
                let id = u8::try_from(id).map_err(|_| format!("suite id {id} out of range"))?;
                Ok(Request::Register { id, scale: need_u64("scale")? as usize })
            }
            "submit" => Ok(Request::Submit {
                matrix: need_u64("matrix")?,
                seed: need_u64("seed")?,
                deadline_ms: v.get("deadline_ms").and_then(Json::as_u64),
            }),
            "register-mtx" => {
                let text = v
                    .get("text")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "\"register-mtx\" needs a string \"text\" field".to_string())?;
                Ok(Request::RegisterMtx { text: text.to_string() })
            }
            "compact" => Ok(Request::Compact { retain: need_u64("retain")? as usize }),
            "stat" => Ok(Request::Stat),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown command {other:?}")),
        }
    }
}

/// A success response carrying `fields`, with `"ok": true` prepended.
pub fn ok(fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    Json::obj(all)
}

/// An error response: `{"ok": false, "error": msg}` with the generic
/// `internal` code. Prefer [`err_code`] when a more specific code exists.
pub fn err(msg: &str) -> Json {
    err_code("internal", msg)
}

/// An error response carrying a stable machine-readable code alongside the
/// human-readable message: `{"ok": false, "code": code, "error": msg}`.
/// The codes are [`crate::error::ServeError::code`] values; clients branch
/// on the code (retry `overloaded`, surface `deadline-exceeded`), never on
/// the message text.
pub fn err_code(code: &str, msg: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("code", Json::Str(code.into())),
        ("error", Json::Str(msg.into())),
    ])
}

/// Whether a response reports success.
pub fn is_ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

/// The error message of a failed response, if present.
pub fn error_of(v: &Json) -> Option<&str> {
    v.get("error").and_then(Json::as_str)
}

/// The machine-readable error code of a failed response. Responses from
/// daemons predating the code field decode as `"internal"`.
pub fn code_of(v: &Json) -> &str {
    v.get("code").and_then(Json::as_str).unwrap_or("internal")
}

/// The lowercase hex digits, by value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Digits per encoded element: one per nibble of the bit pattern.
const HEX_PER_F64: usize = 16;

/// Marks a byte that is no lowercase hex digit: a bit no digit value has.
const NOT_HEX: u8 = 0x10;

/// The value of each lowercase hex digit by byte, and [`NOT_HEX`] for every
/// other byte.
static HEX_VALUE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut d = 0;
    while d < HEX_DIGITS.len() {
        table[HEX_DIGITS[d] as usize] = d as u8;
        d += 1;
    }
    table
};

/// Encodes an output vector as one string of IEEE-754 bit patterns, 16
/// lowercase hex digits each, most significant digit first.
pub fn y_bits(y: &[f64]) -> Json {
    let mut digits = Vec::with_capacity(y.len() * HEX_PER_F64);
    for v in y {
        let bits = v.to_bits();
        let mut hex = [0; HEX_PER_F64];
        for (i, d) in hex.iter_mut().enumerate() {
            *d = HEX_DIGITS[(bits >> (60 - 4 * i)) as usize & 0xf];
        }
        digits.extend_from_slice(&hex);
    }
    // lint:allow(R1) every byte is one of HEX_DIGITS, all ASCII
    Json::Str(String::from_utf8(digits).expect("hex digits are ASCII"))
}

/// Decodes a [`y_bits`] string back into floats; `None` for anything else:
/// a length that is not a multiple of 16, a byte that is not a lowercase
/// hex digit, or a value that is not a string (such as the array of
/// decimal bit patterns daemons sent before).
pub fn y_from_bits(v: &Json) -> Option<Vec<f64>> {
    let digits = v.as_str()?.as_bytes();
    if digits.len() % HEX_PER_F64 != 0 {
        return None;
    }
    // Every digit's table entry is or-ed into `seen`, so one check after
    // the loop finds any invalid byte without a branch per digit.
    let mut seen = 0;
    let y = digits
        .chunks_exact(HEX_PER_F64)
        .map(|chunk| {
            let bits = chunk.iter().fold(0u64, |bits, &d| {
                let value = HEX_VALUE[usize::from(d)];
                seen |= value;
                bits << 4 | u64::from(value & 0xf)
            });
            f64::from_bits(bits)
        })
        .collect();
    (seen & NOT_HEX == 0).then_some(y)
}

/// The deterministic request vector for `seed`: `n` values in `[-1, 1)`
/// from a splitmix64 stream. Client and daemon derive it independently,
/// so only the 8-byte seed crosses the wire.
pub fn seeded_vector(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let z = splitmix64(seed ^ (i as u64).wrapping_mul(GOLDEN_GAMMA));
            ((z >> 11) as f64) * (1.0 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        let all = [
            Request::Ping,
            Request::Register { id: 3, scale: 256 },
            Request::Submit { matrix: 0xDEAD_BEEF_0123_4567, seed: 42, deadline_ms: None },
            Request::Submit { matrix: 7, seed: 0, deadline_ms: Some(250) },
            Request::RegisterMtx {
                text: "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n".into(),
            },
            Request::Compact { retain: 4 },
            Request::Stat,
            Request::Shutdown,
        ];
        for req in all {
            let line = req.to_line();
            assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn bad_requests_are_rejected_with_messages() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"cmd\":\"warp\"}").is_err());
        assert!(Request::parse("{\"cmd\":\"submit\",\"matrix\":1}").is_err(), "missing seed");
        assert!(Request::parse("{\"cmd\":\"register\",\"id\":999,\"scale\":1}").is_err());
        assert!(Request::parse("{\"id\":1}").is_err(), "missing cmd");
        assert!(Request::parse("{\"cmd\":\"register-mtx\"}").is_err(), "missing text");
        assert!(Request::parse("{\"cmd\":\"compact\"}").is_err(), "missing retain");
    }

    #[test]
    fn vectors_round_trip_bitwise_including_negative_zero() {
        let y = vec![1.5, -0.0, f64::MIN_POSITIVE, -123.456];
        let back = y_from_bits(&y_bits(&y)).unwrap();
        let got: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
        assert!(y_from_bits(&Json::Str("nope".into())).is_none());
        assert_eq!(y_from_bits(&y_bits(&[])), Some(vec![]), "an empty vector is an empty string");
    }

    /// Bit patterns a float codec can get wrong: ±0, the smallest and
    /// largest subnormals, ±inf, quiet and signalling NaNs with payloads.
    const EDGE_BITS: [u64; 10] = [
        0,
        1 << 63,
        1,
        0x000f_ffff_ffff_ffff,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x7ff8_0000_0000_0000,
        0x7ff0_0000_0000_0001,
        0xfff8_dead_beef_0001,
        u64::MAX,
    ];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
        #[test]
        fn arbitrary_bit_patterns_round_trip_bitwise(
            picks in proptest::collection::vec((0..EDGE_BITS.len() + 1, any::<u64>()), 0..40),
        ) {
            let bits: Vec<u64> =
                picks.iter().map(|&(i, any)| EDGE_BITS.get(i).copied().unwrap_or(any)).collect();
            let y: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let wire = y_bits(&y);
            prop_assert_eq!(wire.as_str().map(str::len), Some(16 * y.len()));
            let back: Vec<u64> = y_from_bits(&wire).unwrap().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(back, bits);
        }
    }

    #[test]
    fn the_decoder_rejects_anything_but_lowercase_hex_in_whole_elements() {
        let one = "3ff0000000000000";
        assert_eq!(y_from_bits(&Json::Str(one.into())), Some(vec![1.0]));
        let bad = [
            "3ff000000000000".to_string(),    // 15 digits
            format!("{one}0"),                // 17 digits
            "3FF0000000000000".to_string(),   // uppercase
            "3ff000000000000g".to_string(),   // not a hex digit
            "3ff00000000000 0".to_string(),   // a space
            "é00000000000000".to_string(),    // 16 bytes, two of them one character
            format!("{one}-ff0000000000000"), // a sign in the second element
        ];
        for text in bad {
            assert_eq!(y_from_bits(&Json::Str(text.clone())), None, "{text:?}");
        }
        let old_array = Json::Arr(vec![Json::U64(1.0f64.to_bits())]);
        assert_eq!(y_from_bits(&old_array), None, "the older array form");
        for other in [Json::U64(1), Json::Null, Json::Bool(true), Json::Obj(vec![])] {
            assert_eq!(y_from_bits(&other), None, "{other:?}");
        }
    }

    #[test]
    fn reply_vectors_have_a_fixed_wire_text() {
        // Clients decode what daemons encode: the text is a wire contract.
        let want = "\"3fd3acf513ea39383fdeeb991317f5b43fe658e6801b216abfd01679681a0848\"";
        assert_eq!(y_bits(&seeded_vector(4, 42)).to_text(), want);
    }

    #[test]
    fn seeded_vectors_are_deterministic_and_bounded() {
        let a = seeded_vector(1024, 7);
        let b = seeded_vector(1024, 7);
        assert_eq!(a, b);
        assert_ne!(a, seeded_vector(1024, 8));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        // Clients and daemons derive vectors independently: the bits are a
        // wire contract.
        let bits: Vec<u64> = seeded_vector(8, 42).iter().map(|v| v.to_bits()).collect();
        let want = [
            4_599_209_813_076_490_552,
            4_602_374_911_902_086_580,
            4_604_465_416_047_894_890,
            13_821_571_967_093_442_632,
            13_822_657_277_820_721_808,
            13_826_457_795_357_666_918,
            4_604_052_805_907_465_358,
            13_823_281_623_158_100_268,
        ];
        assert_eq!(bits, want);
    }

    #[test]
    fn responses_carry_ok_and_error() {
        let good = ok(vec![("cycles", Json::U64(9))]);
        assert!(is_ok(&good));
        assert_eq!(good.get("cycles").and_then(Json::as_u64), Some(9));
        let bad = err("nope");
        assert!(!is_ok(&bad));
        assert_eq!(error_of(&bad), Some("nope"));
        assert_eq!(code_of(&bad), "internal");
    }

    #[test]
    fn coded_errors_round_trip_their_code() {
        let v = err_code("overloaded", "queue full");
        assert!(!is_ok(&v));
        assert_eq!(code_of(&v), "overloaded");
        assert_eq!(error_of(&v), Some("queue full"));
        // A code-less legacy error decodes as the generic internal code.
        let legacy = Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::Str("x".into()))]);
        assert_eq!(code_of(&legacy), "internal");
    }
}

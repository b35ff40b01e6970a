//! The line/JSON wire protocol between the `serve` CLI and the daemon.
//!
//! Each request is one line of `spacea_obs::json` text with a `"cmd"`
//! discriminator; each response is one line with an `"ok"` boolean.
//! Floats — the response vectors — travel as IEEE-754 bit patterns
//! (`u64`), so the protocol preserves the simulator's bitwise guarantees
//! end to end: what the client decodes is exactly what the machine
//! produced, including negative zeros. A request line longer than
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
    /// files (crash-safe watermark + unlink; see
    /// [`crate::journal::AckJournal::compact`]).
    Compact {
        /// How many journal files to keep.
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

/// Encodes an output vector as an array of IEEE-754 bit patterns.
pub fn y_bits(y: &[f64]) -> Json {
    Json::Arr(y.iter().map(|v| Json::U64(v.to_bits())).collect())
}

/// Decodes a [`y_bits`] array back into floats; `None` if the value is
/// not an all-numeric array.
pub fn y_from_bits(v: &Json) -> Option<Vec<f64>> {
    v.as_arr()?.iter().map(|e| e.as_u64().map(f64::from_bits)).collect()
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

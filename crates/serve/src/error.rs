//! Structured service errors with stable wire codes.
//!
//! Every way a request can fail maps to exactly one [`ServeError`], and
//! every `ServeError` carries a machine-readable [`ServeError::code`] that
//! travels in the wire response's `"code"` field. The chaos soak harness
//! (`serve_chaos`) enforces the lifecycle contract on top of these codes:
//! a request is either acknowledged with a bitwise-correct result or
//! rejected with an explicit coded error — never silently dropped.
//!
//! A batch runs once, as the sweep harness runs each job once: every error
//! a pass can return follows from its inputs (the matrix key, the vectors,
//! the machine) and would recur on the same inputs, so each member of a
//! failed batch is answered with the error of that one pass.

use spacea_arch::SimError;
use std::fmt;

/// Why a service request failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The matrix key was never registered with this daemon.
    UnknownMatrix(u64),
    /// The request itself is malformed (bad suite id, bad field, ...).
    BadRequest(String),
    /// The admission queue was at or above its high-water mark; the
    /// request was shed instead of queued. Retry later, with backoff.
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
    },
    /// The request's deadline elapsed before its batch produced a result.
    /// The submitter has been cancelled; the batch may still complete, in
    /// which case its acknowledgment journal entry proves the answer.
    DeadlineExceeded {
        /// How long the request waited, in milliseconds.
        waited_ms: u64,
    },
    /// The service has been stopped (daemon shutting down).
    Stopped,
    /// The simulator refused or failed the pass: a preflight error (code
    /// `bad-request`), or a validation, invariant or hang failure (code
    /// `internal`).
    Sim(SimError),
    /// A chaos-plan fault injected at the service layer (testing only).
    Injected {
        /// Which directive fired.
        what: String,
    },
    /// The pass answering the request panicked; its worker goes on to the
    /// next batch. This is the one code that should never be seen in a
    /// healthy daemon: the lifecycle guarantee is that every admitted
    /// request gets a reply.
    Lost,
}

impl ServeError {
    /// The stable machine-readable code carried in wire responses.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::UnknownMatrix(_) => "unknown-matrix",
            ServeError::BadRequest(_) => "bad-request",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::DeadlineExceeded { .. } => "deadline-exceeded",
            ServeError::Stopped => "stopped",
            ServeError::Sim(e) => match e {
                SimError::DimensionMismatch { .. }
                | SimError::EmptyBatch
                | SimError::BadConfig(_)
                | SimError::MappingMismatch(_) => "bad-request",
                _ => "internal",
            },
            ServeError::Injected { .. } => "internal",
            ServeError::Lost => "internal",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownMatrix(key) => write!(f, "unknown matrix {key:016x}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Overloaded { depth } => {
                write!(f, "admission queue overloaded ({depth} requests waiting); retry later")
            }
            ServeError::DeadlineExceeded { waited_ms } => {
                write!(f, "deadline exceeded after {waited_ms}ms in the service")
            }
            ServeError::Stopped => write!(f, "service is stopped"),
            ServeError::Sim(e) => write!(f, "simulation failed: {e}"),
            ServeError::Injected { what } => write!(f, "chaos-injected wedge fault: {what}"),
            ServeError::Lost => write!(f, "request lost (the pass answering it panicked)"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_cover_the_lifecycle() {
        assert_eq!(ServeError::UnknownMatrix(7).code(), "unknown-matrix");
        assert_eq!(ServeError::Overloaded { depth: 9 }.code(), "overloaded");
        assert_eq!(ServeError::DeadlineExceeded { waited_ms: 5 }.code(), "deadline-exceeded");
        assert_eq!(ServeError::Stopped.code(), "stopped");
        assert_eq!(ServeError::Lost.code(), "internal");
        assert_eq!(ServeError::BadRequest("x".into()).code(), "bad-request");
        assert_eq!(
            ServeError::Sim(SimError::DimensionMismatch { expected: 4, actual: 3 }).code(),
            "bad-request"
        );
        assert_eq!(ServeError::Sim(SimError::CounterInvariant("x".into())).code(), "internal");
    }

    #[test]
    fn display_names_the_cause() {
        let e = ServeError::Overloaded { depth: 64 };
        assert!(e.to_string().contains("64"), "{e}");
        let e = ServeError::Injected { what: "wedge-batch=2".into() };
        assert_eq!(e.to_string(), "chaos-injected wedge fault: wedge-batch=2");
    }
}

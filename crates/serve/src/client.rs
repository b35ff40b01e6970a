//! A blocking client for the daemon's line/JSON protocol.
//!
//! Failures carry the daemon's stable error code ([`CallError::code`]):
//! transport problems use the synthetic `transport` code, daemon-side
//! rejections carry whatever `code` field the response held (see
//! [`crate::error::ServeError::code`]). Connecting via the cache
//! directory retries with backoff: publishing the port file races the
//! daemon's startup, and losing that race is a reason to wait, not fail.

use crate::protocol::{self, Request, PORT_FILE};
use spacea_obs::json::Json;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Why a client call failed: the daemon's stable error code plus the
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallError {
    /// Stable machine-readable code: a [`crate::error::ServeError::code`]
    /// value from the daemon, or `"transport"` for connection-level
    /// failures that never produced a response.
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl CallError {
    fn transport(message: impl Into<String>) -> CallError {
        CallError { code: "transport".into(), message: message.into() }
    }

    /// True for connection-level failures (as opposed to daemon-side
    /// coded rejections) — the class a caller may blindly retry against a
    /// fresh connection.
    pub fn is_transport(&self) -> bool {
        self.code == "transport"
    }
}

impl fmt::Display for CallError {
    // Shows the message and the code, so `unwrap_err` output in scripts
    // and tests names both without extra plumbing.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.message, self.code)
    }
}

impl std::error::Error for CallError {}

/// What a successful `register` call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterReply {
    /// Content key of the registered matrix.
    pub matrix: u64,
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
}

/// What a successful `compact` call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReply {
    /// Batch lines removed by the pass.
    pub dropped_batches: u64,
    /// Acknowledgment records inside the removed batches.
    pub dropped_records: u64,
    /// Batch lines still in the journal after the pass.
    pub retained_batches: u64,
}

/// What a successful `submit` call returned.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitOutcome {
    /// The output vector, decoded bitwise from the wire.
    pub y: Vec<f64>,
    /// Fused batch width of the pass that answered this request.
    pub batch: usize,
    /// Simulated cycles of that pass.
    pub cycles: u64,
    /// Microseconds the request waited in the admission queue.
    pub queue_wait_us: u64,
}

/// Reads the daemon's bound port from `<cache_dir>/serve.port`.
///
/// # Errors
///
/// Returns a `transport`-coded error if the file is absent (daemon not
/// up yet) or malformed.
pub fn read_port(cache_dir: &Path) -> Result<u16, CallError> {
    let path = cache_dir.join(PORT_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| CallError::transport(format!("no daemon port at {}: {e}", path.display())))?;
    text.trim()
        .parse()
        .map_err(|e| CallError::transport(format!("bad port file {}: {e}", path.display())))
}

/// One connection to a running daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon on `127.0.0.1:port`.
    ///
    /// # Errors
    ///
    /// Returns a `transport`-coded error if the connection cannot be
    /// established.
    pub fn connect(port: u16) -> Result<Client, CallError> {
        let stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| {
            CallError::transport(format!("cannot reach daemon on port {port}: {e}"))
        })?;
        // Each request is one write of a whole line; without this, Nagle's
        // algorithm would hold it back waiting on the daemon's delayed ACK.
        stream
            .set_nodelay(true)
            .map_err(|e| CallError::transport(format!("cannot set TCP_NODELAY: {e}")))?;
        let writer = stream
            .try_clone()
            .map_err(|e| CallError::transport(format!("cannot clone stream: {e}")))?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Connects via the port file a daemon published under `cache_dir`,
    /// retrying for up to five seconds — scripts routinely start the
    /// daemon and connect in the same breath, and the port file appears a
    /// beat after the process does.
    ///
    /// # Errors
    ///
    /// Returns the last attempt's error once patience runs out.
    pub fn connect_dir(cache_dir: &Path) -> Result<Client, CallError> {
        Client::connect_dir_within(cache_dir, Duration::from_secs(5))
    }

    /// [`Client::connect_dir`] with an explicit patience budget. Retries
    /// both the port-file race (file not yet published) and connection
    /// refusal (stale port file from a previous life while the new daemon
    /// binds) with doubling backoff, starting at 2 ms and capped at
    /// 200 ms per wait.
    ///
    /// # Errors
    ///
    /// Returns the last attempt's `transport`-coded error once `patience`
    /// is spent. `Duration::ZERO` makes exactly one attempt.
    pub fn connect_dir_within(cache_dir: &Path, patience: Duration) -> Result<Client, CallError> {
        let start = Instant::now();
        let mut backoff = Duration::from_millis(2);
        loop {
            let attempt = read_port(cache_dir).and_then(Client::connect);
            let err = match attempt {
                Ok(client) => return Ok(client),
                Err(e) => e,
            };
            let left = patience.saturating_sub(start.elapsed());
            if left.is_zero() {
                return Err(err);
            }
            std::thread::sleep(backoff.min(left));
            backoff = (backoff * 2).min(Duration::from_millis(200));
        }
    }

    /// Sends one request and decodes the matching response line.
    ///
    /// # Errors
    ///
    /// Returns a `transport`-coded error for connection failures, or the
    /// daemon's coded error when the response reports `ok: false`.
    pub fn call(&mut self, req: &Request) -> Result<Json, CallError> {
        let mut request = req.to_line();
        request.push('\n');
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| CallError::transport(format!("send failed: {e}")))?;
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| CallError::transport(format!("recv failed: {e}")))?;
        if n == 0 {
            return Err(CallError::transport("daemon hung up"));
        }
        let v = spacea_obs::json::parse(line.trim()).map_err(CallError::transport)?;
        if protocol::is_ok(&v) {
            Ok(v)
        } else {
            Err(CallError {
                code: protocol::code_of(&v).to_string(),
                message: protocol::error_of(&v)
                    .unwrap_or("daemon reported an unspecified error")
                    .to_string(),
            })
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn ping(&mut self) -> Result<(), CallError> {
        self.call(&Request::Ping).map(|_| ())
    }

    /// Registers a suite matrix and returns its content key and shape.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and daemon-side rejections.
    pub fn register(&mut self, id: u8, scale: usize) -> Result<RegisterReply, CallError> {
        let v = self.call(&Request::Register { id, scale })?;
        register_reply(&v)
    }

    /// Registers a matrix from MatrixMarket text and returns its content
    /// key and shape — the same handle space `register` uses, so `submit`
    /// works identically against it.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and daemon-side rejections
    /// (`bad-request` for unparseable MatrixMarket text).
    pub fn register_mtx(&mut self, text: &str) -> Result<RegisterReply, CallError> {
        let v = self.call(&Request::RegisterMtx { text: text.to_string() })?;
        register_reply(&v)
    }

    /// Compacts the daemon's acknowledgment journal down to the newest
    /// `retain` batches.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and daemon-side rejections.
    pub fn compact(&mut self, retain: usize) -> Result<CompactReply, CallError> {
        let v = self.call(&Request::Compact { retain })?;
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| CallError::transport(format!("response lacks {name:?}")))
        };
        Ok(CompactReply {
            dropped_batches: field("dropped_batches")?,
            dropped_records: field("dropped_records")?,
            retained_batches: field("retained_batches")?,
        })
    }

    /// Submits a seeded request vector against a registered matrix and
    /// blocks for the (possibly fused) result, under the daemon's default
    /// deadline.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and daemon-side rejections
    /// (including `overloaded` and `deadline-exceeded`).
    pub fn submit(&mut self, matrix: u64, seed: u64) -> Result<SubmitOutcome, CallError> {
        self.submit_req(&Request::Submit { matrix, seed, deadline_ms: None })
    }

    /// [`Client::submit`] with an explicit per-request deadline.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`]; `deadline-exceeded` once `deadline_ms`
    /// elapses without an answer.
    pub fn submit_within(
        &mut self,
        matrix: u64,
        seed: u64,
        deadline_ms: u64,
    ) -> Result<SubmitOutcome, CallError> {
        self.submit_req(&Request::Submit { matrix, seed, deadline_ms: Some(deadline_ms) })
    }

    fn submit_req(&mut self, req: &Request) -> Result<SubmitOutcome, CallError> {
        let v = self.call(req)?;
        let y = v
            .get("y")
            .and_then(protocol::y_from_bits)
            .ok_or_else(|| CallError::transport("response lacks a decodable \"y\""))?;
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| CallError::transport(format!("response lacks {name:?}")))
        };
        Ok(SubmitOutcome {
            y,
            batch: field("batch")? as usize,
            cycles: field("cycles")?,
            queue_wait_us: field("queue_wait_us")?,
        })
    }

    /// Fetches the daemon's counters as raw JSON.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn stat(&mut self) -> Result<Json, CallError> {
        self.call(&Request::Stat)
    }

    /// Asks the daemon to stop (it flushes artifacts before exiting).
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn shutdown(&mut self) -> Result<(), CallError> {
        self.call(&Request::Shutdown).map(|_| ())
    }
}

/// Decodes the response shape `register` and `register-mtx` share.
fn register_reply(v: &Json) -> Result<RegisterReply, CallError> {
    let field = |name: &str| {
        v.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| CallError::transport(format!("response lacks {name:?}")))
    };
    Ok(RegisterReply {
        matrix: field("matrix")?,
        rows: field("rows")? as usize,
        cols: field("cols")? as usize,
        nnz: field("nnz")? as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_dir_retries_across_the_port_file_race() {
        let dir =
            std::env::temp_dir().join(format!("spacea-serve-portrace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Nothing listening and no port file: a zero-patience attempt
        // fails once, immediately.
        let start = Instant::now();
        let e = Client::connect_dir_within(&dir, Duration::ZERO).unwrap_err();
        assert!(e.is_transport(), "{e}");
        assert!(start.elapsed() < Duration::from_millis(500));
        // Publish the port file mid-retry; the client must pick it up.
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let publisher = {
            let dir = dir.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                std::fs::write(dir.join(PORT_FILE), format!("{port}\n")).unwrap();
            })
        };
        let client = Client::connect_dir_within(&dir, Duration::from_secs(5));
        publisher.join().unwrap();
        assert!(client.is_ok(), "{:?}", client.err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reply_in_the_older_array_form_is_a_transport_error_never_a_vector() {
        // A daemon from before the hex wire form answers `y` as an array of
        // decimal bit patterns; this client cannot read it and says so.
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let daemon = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(&stream).read_line(&mut request).unwrap();
            let old = format!(
                "{{\"ok\":true,\"y\":[{}],\"batch\":1,\"cycles\":9,\"queue_wait_us\":0}}\n",
                1.0f64.to_bits()
            );
            (&stream).write_all(old.as_bytes()).unwrap();
            request
        });
        let e = Client::connect(port).unwrap().submit(7, 1).unwrap_err();
        assert!(daemon.join().unwrap().contains("\"submit\""));
        assert!(e.is_transport(), "{e}");
        assert_eq!(e.message, "response lacks a decodable \"y\"");
    }

    #[test]
    fn call_error_displays_message_and_code() {
        let e = CallError { code: "overloaded".into(), message: "queue full".into() };
        assert_eq!(e.to_string(), "queue full [overloaded]");
        assert!(!e.is_transport());
        assert!(CallError::transport("x").is_transport());
    }
}

//! The daemon: a localhost TCP listener dispatching the line/JSON
//! protocol onto a [`Service`].
//!
//! Startup order is the readiness contract: the engine comes up, the
//! listener binds, the manifest is written, and only then is the bound
//! port published to `<cache_dir>/serve.port` — a script that sees the
//! port file can connect immediately. The manifest is written only then
//! and at shutdown: while the daemon runs, the `stat` verb answers its
//! live counters. On shutdown the daemon writes its manifest and telemetry
//! timeline, then removes the port file.
//!
//! When a [`crate::chaos::ChaosPlan`] is configured, its startup faults
//! (mapping-artifact corruption) are applied before the first register
//! warms the cache, and its connection faults (drop/delay by accept
//! ordinal) are applied here at the listener — so the client's connect
//! retry and the mapping store's healing path are exercised against real
//! damage, deterministically.

use crate::chaos::ConnFault;
use crate::engine::{RegisterInfo, ServeConfig, ServeEngine};
use crate::error::ServeError;
use crate::journal::AckJournal;
use crate::protocol::{self, Request, MAX_LINE_BYTES, PORT_FILE};
use crate::service::{Service, DEFAULT_DEADLINE};
use spacea_harness::write_atomic;
use spacea_obs::json::Json;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Runs the daemon until a `shutdown` request arrives. `port` 0 binds an
/// ephemeral port; either way the bound port is published to the port
/// file once the listener accepts connections.
///
/// # Errors
///
/// Propagates listener-setup and cache-directory I/O failures. Per-
/// connection errors are logged and never take the daemon down.
pub fn run_daemon(cfg: ServeConfig, port: u16) -> std::io::Result<()> {
    let mappings_dir = cfg.cache_dir.join("mappings");
    let engine = Arc::new(ServeEngine::new(cfg));
    // Chaos startup faults bite before anything warms from disk, so the
    // register path below sees (and heals) the damage.
    engine.chaos().apply_map_corruption(&mappings_dir);
    let service = Service::over(Arc::clone(&engine));
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?.port();
    engine.write_manifest()?;
    let port_path = engine.config().cache_dir.join(PORT_FILE);
    write_atomic(&port_path, &format!("{bound}\n"))?;
    eprintln!(
        "serve: listening on 127.0.0.1:{bound} (cache {})",
        engine.config().cache_dir.display()
    );
    if !engine.chaos().plan().is_empty() {
        eprintln!("serve: chaos plan armed: {}", engine.chaos().plan());
    }

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let fault = engine.chaos().on_connection();
                    if fault == Some(ConnFault::Drop) {
                        // Close before reading a byte: the client sees a
                        // hangup on a connection that acknowledged nothing.
                        drop(stream);
                        continue;
                    }
                    let service = &service;
                    let stop = &stop;
                    scope.spawn(move || {
                        if let Some(ConnFault::Delay(d)) = fault {
                            std::thread::sleep(d);
                        }
                        handle_connection(stream, service, stop);
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    eprintln!("serve: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    });

    service.stop();
    engine.write_manifest()?;
    engine.write_timeline()?;
    let _ = std::fs::remove_file(&port_path);
    eprintln!("serve: stopped");
    Ok(())
}

/// Serves one connection: a loop of request lines, one response line
/// each, until EOF, a protocol-level hangup, an over-long line, or daemon
/// shutdown.
fn handle_connection(stream: TcpStream, service: &Service, stop: &AtomicBool) {
    // Replies go out as one write of a whole line each; TCP_NODELAY then
    // sends it at once instead of holding it for the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else { return };
    // A finite read timeout lets handler threads notice daemon shutdown
    // instead of pinning the scope join on an idle client.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        // Bytes read before a timeout stay in `line`: a request split by a
        // pause is completed by the next read, and the cap counts the
        // whole line.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Ok(0) if line.is_empty() => return, // client hung up
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let body = line.strip_suffix(b"\n").unwrap_or(&line);
        if body.len() > MAX_LINE_BYTES {
            // No newline within the cap: the rest of the stream cannot be
            // resynchronised to a line boundary, so reply and close.
            let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
            let _ = send_line(&mut writer, &protocol::err_code("bad-request", &msg));
            return;
        }
        let text = std::str::from_utf8(body).map_err(|e| format!("request is not UTF-8: {e}"));
        if text.as_ref().is_ok_and(|t| t.trim().is_empty()) {
            line.clear();
            continue;
        }
        let response = match text.and_then(|t| Request::parse(t.trim())) {
            Ok(req) => dispatch(req, service, stop),
            Err(e) => protocol::err_code("bad-request", &e),
        };
        line.clear();
        if send_line(&mut writer, &response).is_err() {
            return;
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Writes `response` and its newline as one line in a single write.
fn send_line(writer: &mut TcpStream, response: &Json) -> std::io::Result<()> {
    let mut line = response.to_text();
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// A wire error response from a [`ServeError`]: stable code plus message.
fn err_of(e: &ServeError) -> Json {
    protocol::err_code(e.code(), &e.to_string())
}

/// The response to a registration: the matrix handle and its shape.
fn registered(info: RegisterInfo) -> Json {
    protocol::ok(vec![
        ("matrix", Json::U64(info.key)),
        ("rows", Json::U64(info.rows as u64)),
        ("cols", Json::U64(info.cols as u64)),
        ("nnz", Json::U64(info.nnz as u64)),
    ])
}

/// Executes one request against the service and builds the response.
fn dispatch(req: Request, service: &Service, stop: &AtomicBool) -> Json {
    let engine = service.engine();
    match req {
        Request::Ping => protocol::ok(vec![]),
        Request::Register { id, scale } => match engine.register_suite(id, scale) {
            Ok(info) => registered(info),
            Err(e) => err_of(&e),
        },
        Request::Submit { matrix, seed, deadline_ms } => {
            let Some(a) = engine.matrix(matrix) else {
                return err_of(&ServeError::UnknownMatrix(matrix));
            };
            let x = protocol::seeded_vector(a.cols(), seed);
            let deadline = deadline_ms.map_or(DEFAULT_DEADLINE, Duration::from_millis);
            match service.submit_within(matrix, x, deadline) {
                Ok(reply) => protocol::ok(vec![
                    ("y", protocol::y_bits(&reply.y)),
                    ("batch", Json::U64(reply.batch as u64)),
                    ("cycles", Json::U64(reply.cycles)),
                    ("queue_wait_us", Json::U64(reply.queue_wait_us)),
                ]),
                Err(e) => err_of(&e),
            }
        }
        Request::RegisterMtx { text } => match spacea_matrix::Csr::from_mtx(&text) {
            Ok(a) => registered(engine.register(a)),
            Err(e) => protocol::err_code("bad-request", &format!("mtx: {e}")),
        },
        Request::Compact { retain } => match engine.journal().compact(retain) {
            Ok(c) => protocol::ok(vec![
                ("dropped_batches", Json::U64(c.dropped_batches as u64)),
                ("dropped_records", Json::U64(c.dropped_records as u64)),
                ("retained_batches", Json::U64(c.retained_batches as u64)),
            ]),
            Err(e) => protocol::err(&format!("journal compaction failed: {e}")),
        },
        Request::Stat => {
            let s = engine.stats();
            let journal = AckJournal::load(engine.journal().dir());
            protocol::ok(vec![
                ("registered", Json::U64(s.registered)),
                ("requests", Json::U64(s.requests)),
                ("batches", Json::U64(s.batches)),
                ("fused_max", Json::U64(s.fused_max)),
                ("shed", Json::U64(s.shed)),
                ("deadline_miss", Json::U64(s.deadline_miss)),
                ("retries", Json::U64(s.retries)),
                ("acked", Json::U64(s.acked)),
                ("queue_depth", Json::U64(service.depth() as u64)),
                ("queue_hwm", Json::U64(s.queue_hwm)),
                ("mappings_computed", Json::U64(s.mappings.computed)),
                ("mappings_disk_hits", Json::U64(s.mappings.disk_hits)),
                ("mappings_healed", Json::U64(s.mappings.healed)),
                ("simulations_run", Json::U64(s.simulations.run)),
                ("simulations_reused", Json::U64(s.simulations.reused)),
                ("journal_records", Json::U64(journal.records.len() as u64)),
                ("journal_batches", Json::U64(journal.batches as u64)),
            ])
        }
        Request::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            protocol::ok(vec![("stopping", Json::Bool(true))])
        }
    }
}

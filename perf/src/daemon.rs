//! Driving a `serve start` daemon: spawn and register, closed-loop client
//! load, and a bounded shutdown.

use spacea_serve::client::{RegisterReply, SubmitOutcome};
use spacea_serve::{CallError, Client};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon gets to exit after `shutdown` before it is killed.
const SHUTDOWN_PATIENCE: Duration = Duration::from_secs(10);

/// A suite matrix registered with the daemon.
#[derive(Debug)]
pub struct Registered {
    /// Table I id.
    pub id: u8,
    /// Down-scale factor.
    pub scale: usize,
    /// What the daemon answered.
    pub reply: RegisterReply,
}

/// A running daemon over its own cache directory. Dropping it kills the
/// process if [`Daemon::shutdown`] did not stop it first.
pub struct Daemon {
    child: Option<Child>,
    dir: PathBuf,
    /// The matrices registered at start, in registration order.
    pub registered: Vec<Registered>,
}

impl Daemon {
    /// Spawns `serve start --quick` over a fresh `dir`, waits for its port
    /// file, and registers `matrices` through one client connection.
    ///
    /// # Errors
    ///
    /// Spawn, connect and registration failures.
    pub fn start(serve_bin: &Path, dir: &Path, matrices: &[(u8, usize)]) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let log = File::create(dir.with_extension("log"))
            .map_err(|e| format!("cannot create the daemon log: {e}"))?;
        let child = Command::new(serve_bin)
            .args(["start", "--quick", "--cache-dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", serve_bin.display()))?;
        let mut daemon =
            Daemon { child: Some(child), dir: dir.to_path_buf(), registered: Vec::new() };
        let mut admin =
            Client::connect_dir(dir).map_err(|e| format!("daemon not reachable: {e}"))?;
        for &(id, scale) in matrices {
            let reply =
                admin.register(id, scale).map_err(|e| format!("register m{id}/{scale}: {e}"))?;
            daemon.registered.push(Registered { id, scale, reply });
        }
        Ok(daemon)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// The port the daemon published.
    ///
    /// # Errors
    ///
    /// A missing or malformed port file.
    pub fn port(&self) -> Result<u16, String> {
        spacea_serve::client::read_port(&self.dir).map_err(|e| e.to_string())
    }

    /// Asks the daemon to stop and waits for it to exit; kills it if it
    /// does not within [`SHUTDOWN_PATIENCE`].
    ///
    /// # Errors
    ///
    /// The shutdown call failed, or the daemon exited unsuccessfully or
    /// had to be killed.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect_dir(&self.dir).and_then(|mut c| c.shutdown());
        let mut child = self.child.take().expect("a daemon is shut down once");
        let deadline = Instant::now() + SHUTDOWN_PATIENCE;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("daemon did not stop after shutdown ({asked:?}); killed"));
                }
            }
        }
        asked.map_err(|e| format!("shutdown call failed: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One request a client will send: which registered matrix, which vector
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Index into [`Daemon::registered`].
    pub matrix: usize,
    /// Seed of the request vector.
    pub seed: u64,
}

/// The `i`-th request of client `client`: round-robin over `n_matrices`,
/// offset per client so concurrent clients start on different matrices,
/// with a vector seed mixed from the run seed.
pub fn planned(run_seed: u64, client: usize, i: usize, n_matrices: usize) -> Planned {
    let z = run_seed ^ ((client as u64) << 40) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    Planned { matrix: (client + i) % n_matrices, seed: splitmix64(z) }
}

/// The splitmix64 finalizer: a well-mixed 64-bit value from any input.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// When a closed-loop client stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Send no new request after this instant.
    At(Instant),
    /// Send exactly this many requests.
    Count(usize),
}

/// One completed request.
#[derive(Debug)]
pub struct Reply {
    /// Which client sent it (0-based).
    pub client: usize,
    /// What was asked.
    pub planned: Planned,
    /// When the request was sent.
    pub start: Instant,
    /// When its reply (or failure) arrived.
    pub end: Instant,
    /// The decoded reply or the coded failure.
    pub outcome: Result<SubmitOutcome, CallError>,
}

impl Reply {
    /// Round-trip time in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Runs `clients` closed-loop clients, one connection each, against the
/// daemon on `port`: each sends its next request only after the previous
/// reply arrived (the protocol allows one outstanding request per
/// connection). Returns every request in send order per client.
pub fn closed_loop(
    port: u16,
    registered: &[Registered],
    clients: usize,
    run_seed: u64,
    stop: Stop,
) -> Vec<Reply> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || client_loop(port, registered, c, run_seed, stop)))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client threads do not panic")).collect()
    })
}

fn client_loop(
    port: u16,
    registered: &[Registered],
    client: usize,
    run_seed: u64,
    stop: Stop,
) -> Vec<Reply> {
    let mut replies = Vec::new();
    let mut conn = Client::connect(port);
    for i in 0.. {
        let done = match stop {
            Stop::At(t) => Instant::now() >= t,
            Stop::Count(n) => i >= n,
        };
        if done {
            break;
        }
        let planned = planned(run_seed, client, i, registered.len());
        let start = Instant::now();
        let outcome = match conn.as_mut() {
            Ok(c) => c.submit(registered[planned.matrix].reply.matrix, planned.seed),
            Err(e) => Err(e.clone()),
        };
        let end = Instant::now();
        let transport = matches!(&outcome, Err(e) if e.is_transport());
        replies.push(Reply { client, planned, start, end, outcome });
        if transport {
            // A broken connection answers nothing more; the failure is
            // recorded and this client stops rather than spinning.
            break;
        }
    }
    replies
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_requests_are_seeded_and_round_robin() {
        assert_eq!(planned(7, 0, 3, 4), planned(7, 0, 3, 4));
        assert_ne!(planned(7, 0, 3, 4).seed, planned(8, 0, 3, 4).seed);
        assert_ne!(planned(7, 0, 3, 4).seed, planned(7, 1, 3, 4).seed);
        let matrices: Vec<usize> = (0..5).map(|i| planned(1, 1, i, 4).matrix).collect();
        assert_eq!(matrices, vec![1, 2, 3, 0, 1]);
    }
}

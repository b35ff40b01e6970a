//! Transport regression tests against a real daemon over localhost TCP:
//! a request or reply line leaves as one segment, so sequential round
//! trips on one connection never stall on Nagle's algorithm against the
//! peer's delayed ACK, and a request split across reads is still answered.

use spacea_serve::{protocol, run_daemon, Client, Request, ServeConfig, PORT_FILE};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spacea-serve-roundtrip-{tag}-{}", std::process::id()))
}

/// Starts a daemon thread over `dir` and waits for its port file.
fn start_daemon(dir: &Path) -> std::thread::JoinHandle<()> {
    let cfg = ServeConfig::quick(dir);
    let handle = std::thread::spawn(move || run_daemon(cfg, 0).expect("daemon runs"));
    let port_path = dir.join(PORT_FILE);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !port_path.exists() {
        assert!(Instant::now() < deadline, "daemon never published its port");
        assert!(!handle.is_finished(), "daemon died before publishing its port");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle
}

#[test]
fn sequential_round_trips_do_not_wait_on_delayed_acks() {
    let dir = tmp_dir("pings");
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = start_daemon(&dir);
    let mut client = Client::connect_dir(&dir).unwrap();
    client.ping().unwrap();

    // A line written as two segments (text, then its newline) stalls each
    // round trip on the peer's delayed ACK, about 40 ms: 50 pings would
    // take 2 s or more. One segment per line answers them in milliseconds.
    let start = Instant::now();
    for _ in 0..50 {
        client.ping().unwrap();
    }
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "50 sequential pings took {took:?}");

    // A request split by a pause longer than the daemon's 200 ms read
    // timeout is still completed by the next read and answered.
    let port: u16 = std::fs::read_to_string(dir.join(PORT_FILE)).unwrap().trim().parse().unwrap();
    let mut conn = BufReader::new(TcpStream::connect(("127.0.0.1", port)).unwrap());
    let line = Request::Ping.to_line() + "\n";
    let (head, tail) = line.split_at(line.len() / 2);
    conn.get_mut().write_all(head.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    conn.get_mut().write_all(tail.as_bytes()).unwrap();
    let mut reply = String::new();
    conn.read_line(&mut reply).unwrap();
    let v = spacea_obs::json::parse(reply.trim()).unwrap();
    assert!(protocol::is_ok(&v), "split request got {reply:?}");

    client.shutdown().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

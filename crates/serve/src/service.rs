//! The batching service: a bounded admission queue in front of a
//! persistent pool of batch workers, each of which, while free, gathers
//! concurrent same-matrix requests into one SpMM pass and runs it.
//!
//! Fusing is correctness-free by construction: the engine guarantees each
//! fused output vector is bitwise what a solo SpMV run of that vector
//! returns (see the `spmm_equivalence` property tests in `spacea-arch`),
//! so gathering is pure scheduling — it only decides *latency*, never
//! *values*.
//!
//! # Concurrency
//!
//! The pool holds one worker per available core
//! ([`std::thread::available_parallelism`]), spawned once. The workers
//! share the admission queue behind one mutex, and a free worker locks it,
//! gathers the next batch, unlocks it and runs that batch itself: only a
//! free worker gathers, and only one at a time, so while every worker is
//! busy new requests wait in the admission queue and fuse into the next
//! batch exactly as they would behind a single batcher. Batches
//! for different matrices then run concurrently, and a pass whose
//! (matrix, width) has no stored run yet simulates concurrently with the
//! others ([`spacea_arch::Machine::run`] takes `&self`); a second pass of
//! a (matrix, width) whose run is in flight waits for it (see
//! [`ServeEngine::run_batch`]). Each worker journals its
//! own batch before replying, so the journal-first order holds per batch;
//! batch lines follow completion order, not admission order. Only the
//! workers hold the queue: once the last of them is gone, queued requests
//! are answered [`ServeError::Lost`] and later submits
//! [`ServeError::Stopped`].
//!
//! # Request lifecycle guarantees
//!
//! Every request admitted by [`Service::submit`] terminates in exactly one
//! of three ways, all explicit:
//!
//! 1. **Acknowledged** — its batch executed and the reply carries the
//!    output vector. The acknowledgment was journaled (see
//!    [`crate::journal`]) *before* the reply was sent.
//! 2. **Rejected with a coded error** — [`ServeError::Overloaded`] at
//!    admission when the queue depth crosses the shed mark,
//!    [`ServeError::DeadlineExceeded`] when the per-request deadline
//!    elapses first, or a simulator/injection error after the bounded
//!    retry budget (transient faults retried with splitmix-jittered
//!    exponential backoff; hang-class never retried).
//! 3. **[`ServeError::Lost`]** — the worker running its batch died, or
//!    every worker did while it was queued. This code existing is what
//!    makes "silently lost" impossible: a request that cannot be answered
//!    still gets a reply naming that fact.

use crate::engine::ServeEngine;
use crate::error::ServeError;
use crate::journal::{vec_hash, AckRecord};
use crate::{lock, splitmix64, GOLDEN_GAMMA};
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The deadline of a request submitted without one ([`Service::submit`], or
/// a wire `Submit` with no `deadline_ms`): a request not answered within it
/// is cancelled with an explicit `deadline-exceeded` error.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

/// Retries of a batch after a transient failure (hang-class failures are
/// never retried).
const MAX_RETRIES: u32 = 2;

/// Largest number of requests fused into one SpMM pass.
pub const MAX_BATCH: usize = 16;

/// What one completed request returns to its submitter.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitReply {
    /// The output vector — bitwise identical to a solo SpMV of the input.
    pub y: Vec<f64>,
    /// How many requests were fused into the pass that answered this one.
    pub batch: usize,
    /// Simulated cycles of that fused pass.
    pub cycles: u64,
    /// Wall-clock microseconds between admission and execution start.
    pub queue_wait_us: u64,
}

/// One queued request.
struct Pending {
    matrix: u64,
    x: Vec<f64>,
    /// Admission ordinal (0-based), the address chaos `stall-req` uses.
    ordinal: u64,
    enqueued: Instant,
    deadline: Instant,
    reply: mpsc::Sender<Result<SubmitReply, ServeError>>,
}

/// One fused batch, gathered by the worker that runs it.
struct Batch {
    matrix: u64,
    members: Vec<Pending>,
    /// Requests still queued behind this batch when it was gathered.
    queued_behind: usize,
}

/// The admission queue the batch workers share: the receiving end of the
/// admission channel, and the requests an earlier gather left unfused.
struct Queue {
    rx: Receiver<Pending>,
    pending: VecDeque<Pending>,
}

/// A running batching service over a [`ServeEngine`].
///
/// [`Service::submit`] blocks the calling thread until its request has
/// been executed (possibly fused with others) and returns the reply. Two
/// mechanisms bound that wait: the admission queue sheds load with an
/// explicit [`ServeError::Overloaded`] once `shed_mark` requests are in
/// flight, and every admitted request carries a deadline after which the
/// submitter is released with [`ServeError::DeadlineExceeded`].
pub struct Service {
    engine: Arc<ServeEngine>,
    tx: Mutex<Option<SyncSender<Pending>>>,
    /// The batch workers; joined by `stop`.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Requests admitted but not yet finished (replied or cancelled).
    depth: Arc<AtomicUsize>,
    /// Admission ordinal counter for chaos stall addressing.
    admitted: AtomicU64,
}

impl Service {
    /// Starts one batch worker per available core over an existing engine.
    pub fn over(engine: Arc<ServeEngine>) -> Self {
        let (tx, rx) = mpsc::sync_channel::<Pending>(engine.config().shed_mark.max(1));
        let depth = Arc::new(AtomicUsize::new(0));
        // Only the workers hold the queue, so the receiver drops with the
        // last of them: queued requests then answer `Lost`, later submits
        // `Stopped`.
        let queue = Arc::new(Mutex::new(Queue { rx, pending: VecDeque::new() }));
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let mut threads = Vec::with_capacity(workers);
        for i in 0..workers {
            let (engine, depth, queue) =
                (Arc::clone(&engine), Arc::clone(&depth), Arc::clone(&queue));
            let spawned = std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&engine, &depth, &queue));
            match spawned {
                Ok(handle) => threads.push(handle),
                Err(e) => eprintln!("serve: failed to spawn batch worker {i}: {e}"),
            }
        }
        // Without a worker the service is stopped from birth: every submit
        // fails cleanly.
        let tx = (!threads.is_empty()).then_some(tx);
        Service {
            engine,
            tx: Mutex::new(tx),
            threads: Mutex::new(threads),
            depth,
            admitted: AtomicU64::new(0),
        }
    }

    /// The engine this service executes on.
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.engine
    }

    /// Requests currently admitted and not yet finished.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Submits one request under [`DEFAULT_DEADLINE`].
    ///
    /// # Errors
    ///
    /// Every failure is a coded [`ServeError`]; see the module docs for
    /// the lifecycle contract.
    pub fn submit(&self, matrix: u64, x: Vec<f64>) -> Result<SubmitReply, ServeError> {
        self.submit_within(matrix, x, DEFAULT_DEADLINE)
    }

    /// Submits one request and blocks until it is answered, rejected, or
    /// `deadline` elapses.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when shed at admission,
    /// [`ServeError::DeadlineExceeded`] when the deadline elapses first,
    /// [`ServeError::Stopped`] after [`Service::stop`],
    /// [`ServeError::Lost`] if the worker running it died, and the
    /// engine's own errors for unknown matrices or simulator failures.
    pub fn submit_within(
        &self,
        matrix: u64,
        x: Vec<f64>,
        deadline: Duration,
    ) -> Result<SubmitReply, ServeError> {
        let tx = lock(&self.tx).clone().ok_or(ServeError::Stopped)?;
        let waiting = self.depth.load(Ordering::Relaxed);
        if waiting >= self.engine.config().shed_mark.max(1) {
            self.engine.note_shed(waiting);
            return Err(ServeError::Overloaded { depth: waiting });
        }
        let now = Instant::now();
        let (reply_tx, reply_rx) = mpsc::channel();
        let pending = Pending {
            matrix,
            x,
            ordinal: self.admitted.fetch_add(1, Ordering::Relaxed),
            enqueued: now,
            deadline: now + deadline,
            reply: reply_tx,
        };
        // Admitted requests own one unit of depth until the service
        // finishes them (reply or cancellation); rejected sends give the
        // unit straight back.
        let depth_now = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.engine.note_depth(depth_now);
        match tx.try_send(pending) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                self.engine.note_shed(depth_now);
                return Err(ServeError::Overloaded { depth: depth_now });
            }
            Err(TrySendError::Disconnected(_)) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                return Err(ServeError::Stopped);
            }
        }
        drop(tx);
        match reply_rx.recv_timeout(deadline) {
            Ok(result) => result,
            // The service still owns the request and will cancel (or
            // late-answer into this closed channel and journal) it; either
            // way the submitter leaves with an explicit coded error now.
            Err(RecvTimeoutError::Timeout) => {
                Err(ServeError::DeadlineExceeded { waited_ms: now.elapsed().as_millis() as u64 })
            }
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::Lost),
        }
    }

    /// Stops the service: hangs up the admission queue, lets the workers
    /// drain what is already enqueued and finish every batch, and joins
    /// them. Idempotent.
    pub fn stop(&self) {
        *lock(&self.tx) = None;
        let threads = std::mem::take(&mut *lock(&self.threads));
        for handle in threads {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A batch worker: while free, gathers the next batch from the shared
/// queue, then runs it; returns once the admission queue is hung up and
/// drained.
fn worker_loop(engine: &ServeEngine, depth: &AtomicUsize, queue: &Mutex<Queue>) {
    loop {
        // The guard drops at the end of this statement, so the batch runs
        // with the queue unlocked and the next free worker gathers
        // meanwhile. Gathering only while free keeps fusion under
        // saturation what it is with a single batcher: requests that arrive
        // while every worker is busy fuse into the next batch instead of
        // waiting behind one already formed.
        let batch = next_batch(engine, &mut lock(queue), depth);
        let Some(batch) = batch else { return };
        execute_batch(engine, depth, batch);
    }
}

/// Waits for a request, gathers concurrent ones for a short window, and
/// fuses the same-matrix prefix-by-arrival into the next batch. `None`
/// once the admission queue is hung up and fully drained.
fn next_batch(engine: &ServeEngine, queue: &mut Queue, depth: &AtomicUsize) -> Option<Batch> {
    let Queue { rx, pending } = queue;
    let cfg = engine.config();
    loop {
        if pending.is_empty() {
            pending.push_back(rx.recv().ok()?);
            // Drain whatever already queued up behind it without waiting.
            while pending.len() < MAX_BATCH {
                match rx.try_recv() {
                    Ok(p) => pending.push_back(p),
                    Err(_) => break,
                }
            }
        }
        // Adaptive gather window: when the request arrived to an idle
        // queue there is nothing in flight to fuse with, so waiting the
        // full window would only add latency — use the short idle window.
        // A busy queue keeps the full window to maximize fusion.
        let gather = if pending.len() > 1 { cfg.gather_window } else { cfg.gather_idle };
        let gather_deadline = Instant::now() + gather;
        while pending.len() < MAX_BATCH {
            let left = gather_deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match rx.recv_timeout(left) {
                Ok(p) => pending.push_back(p),
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
            }
        }
        // Fuse: the oldest live request plus every same-matrix request
        // behind it, in arrival order, up to the batch cap. Requests whose
        // deadline already elapsed are cancelled here — explicitly, never
        // silently — and other matrices keep their order for the next pass.
        let now = Instant::now();
        let Some(first) = pending.pop_front() else { continue };
        if first.deadline <= now {
            cancel(engine, depth, first);
            continue;
        }
        let matrix = first.matrix;
        let mut members = vec![first];
        let mut rest = VecDeque::with_capacity(pending.len());
        for p in pending.drain(..) {
            if p.deadline <= now {
                cancel(engine, depth, p);
            } else if p.matrix == matrix && members.len() < MAX_BATCH {
                members.push(p);
            } else {
                rest.push_back(p);
            }
        }
        *pending = rest;
        return Some(Batch { matrix, members, queued_behind: pending.len() });
    }
}

/// Cancels one expired request with an explicit coded reply.
fn cancel(engine: &ServeEngine, depth: &AtomicUsize, p: Pending) {
    depth.fetch_sub(1, Ordering::Relaxed);
    let waited_ms = p.enqueued.elapsed().as_millis() as u64;
    engine.note_deadline_miss(waited_ms);
    let _ = p.reply.send(Err(ServeError::DeadlineExceeded { waited_ms }));
}

/// Executes one fused batch — through the chaos hooks and the bounded
/// retry policy — journals the acknowledgments, and distributes replies.
fn execute_batch(
    engine: &ServeEngine,
    depth: &AtomicUsize,
    Batch { matrix: key, members: mut batch, queued_behind }: Batch,
) {
    // Chaos stall: the longest stall armed for any member delays the whole
    // batch (it is one fused pass). A stall can push members past their
    // deadline; those are cancelled before execution, so a stalled-out
    // request is never answered *and* never silently dropped.
    let stall = batch.iter().filter_map(|p| engine.chaos().request_stall(p.ordinal)).max();
    if let Some(d) = stall {
        std::thread::sleep(d);
        let now = Instant::now();
        let (live, expired): (Vec<_>, Vec<_>) = batch.into_iter().partition(|p| p.deadline > now);
        for p in expired {
            cancel(engine, depth, p);
        }
        batch = live;
        if batch.is_empty() {
            return;
        }
    }
    let k = batch.len();
    let xs: Vec<Vec<f64>> = batch.iter_mut().map(|p| std::mem::take(&mut p.x)).collect();
    let cfg = engine.config();
    // Execution starts here, so every member's queue wait ends now: it
    // holds no pass, retry sleep or journal append.
    let started = Instant::now();
    let waited_us = |p: &Pending| started.duration_since(p.enqueued).as_micros() as u64;
    let mut attempt: u32 = 0;
    let outcome = loop {
        let result = match engine.chaos().on_batch_attempt() {
            Some(injected) => Err(injected),
            None => engine.run_batch(key, &xs),
        };
        match result {
            Ok(rep) => break Ok(rep),
            // Transient failures get a bounded, deterministically-jittered
            // exponential backoff; hang-class failures are never retryable
            // (ServeError::retryable), so they fall straight through.
            Err(e) if e.retryable() && attempt < MAX_RETRIES => {
                attempt += 1;
                engine.note_retry(attempt);
                let base = cfg.retry_backoff.saturating_mul(1u32 << (attempt - 1).min(16));
                std::thread::sleep(base.mul_f64(jitter_factor(key, attempt)));
            }
            Err(e) => break Err(e),
        }
    };
    match outcome {
        Ok(rep) => {
            let cycles = rep.report.cycles;
            // Journal first, acknowledge second: the on-disk journal is
            // always a superset of what submitters saw succeed, so a
            // crashed daemon can prove which requests were answered.
            let records: Vec<AckRecord> = xs
                .iter()
                .zip(&rep.outputs)
                .map(|(x, y)| AckRecord {
                    matrix: key,
                    x_hash: vec_hash(x),
                    y_hash: vec_hash(y),
                    batch: k,
                    cycles,
                })
                .collect();
            if let Err(e) = engine.journal().append(&records) {
                // Journal durability is best-effort against I/O failure
                // (disk full); the answer itself is still correct, so the
                // submitter is acknowledged rather than failed over
                // bookkeeping.
                eprintln!("serve: acknowledgment journal append failed: {e}");
            } else {
                engine.note_acked_batch();
            }
            let waits: Vec<u64> = batch.iter().map(waited_us).collect();
            for ((p, y), &queue_wait_us) in batch.into_iter().zip(rep.outputs).zip(&waits) {
                depth.fetch_sub(1, Ordering::Relaxed);
                let _ = p.reply.send(Ok(SubmitReply { y, batch: k, cycles, queue_wait_us }));
            }
            // After the replies, so a timeline write delays none of them.
            engine.note_requests(&waits, cycles, queued_behind);
        }
        Err(e) => {
            for p in batch {
                depth.fetch_sub(1, Ordering::Relaxed);
                let _ = p.reply.send(Err(e.clone()));
            }
        }
    }
}

/// Deterministic backoff jitter in `[0.5, 1.5)`, derived from the matrix
/// key and the attempt number (splitmix64-style bit mixing — no wall-clock
/// randomness, so a given batch retries on the same schedule in every
/// process). Batches of different matrices that fail together back off on
/// different phases instead of retrying in lockstep.
fn jitter_factor(key: u64, attempt: u32) -> f64 {
    let z = splitmix64(key ^ u64::from(attempt).wrapping_mul(GOLDEN_GAMMA));
    // Top 53 bits give a uniform f64 in [0, 1).
    0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPlan;
    use crate::engine::ServeConfig;
    use crate::journal::AckJournal;
    use crate::protocol::seeded_vector;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("spacea-serve-service-{tag}-{}", std::process::id()))
    }

    #[test]
    fn concurrent_mixed_submits_all_match_the_reference() {
        let dir = tmp_dir("mixed");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Arc::new(ServeEngine::new(ServeConfig::quick(&dir)));
        let m1 = engine.register_suite(1, 256).unwrap();
        let m2 = engine.register_suite(2, 256).unwrap();
        let service = Arc::new(Service::over(Arc::clone(&engine)));

        let mut handles = Vec::new();
        for t in 0..8u64 {
            let service = Arc::clone(&service);
            let engine = Arc::clone(&engine);
            let info = if t % 2 == 0 { m1 } else { m2 };
            handles.push(std::thread::spawn(move || {
                let x = seeded_vector(info.cols, t);
                let reply = service.submit(info.key, x.clone()).unwrap();
                let expect = engine.matrix(info.key).unwrap().spmv(&x);
                let got: Vec<u64> = reply.y.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "thread {t}: batched reply must be bitwise the solo SpMV");
                assert!(reply.batch >= 1 && reply.cycles > 0);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, 8);
        assert!(stats.batches <= 8, "fusion never multiplies passes");
        service.stop();
        assert_eq!(service.depth(), 0, "every admitted request was finished");
        // Every acknowledgment was journaled before it was sent.
        let load = AckJournal::load(engine.journal().dir());
        assert_eq!(load.records.len(), 8);
        assert_eq!(load.corrupt_lines, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_after_stop_fails_cleanly() {
        let dir = tmp_dir("stopped");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Arc::new(ServeEngine::new(ServeConfig::quick(&dir)));
        let info = engine.register_suite(1, 256).unwrap();
        let service = Service::over(Arc::clone(&engine));
        service.stop();
        service.stop(); // idempotent
        let e = service.submit(info.key, seeded_vector(info.cols, 0)).unwrap_err();
        assert_eq!(e, ServeError::Stopped);
        assert_eq!(e.code(), "stopped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_reach_the_submitter() {
        let dir = tmp_dir("err");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Arc::new(ServeEngine::new(ServeConfig::quick(&dir)));
        let service = Service::over(Arc::clone(&engine));
        let e = service.submit(42, vec![1.0]).unwrap_err();
        assert_eq!(e.code(), "unknown-matrix");
        service.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overload_sheds_with_an_explicit_coded_error() {
        let dir = tmp_dir("shed");
        let _ = std::fs::remove_dir_all(&dir);
        // Shed mark of 1 and a long stall on the first admitted request:
        // while it is in flight, any further submit must be rejected, not
        // queued behind it.
        let cfg = ServeConfig {
            shed_mark: 1,
            chaos: ChaosPlan::parse("stall-req=0@400").unwrap(),
            ..ServeConfig::quick(&dir)
        };
        let engine = Arc::new(ServeEngine::new(cfg));
        let info = engine.register_suite(1, 256).unwrap();
        let service = Arc::new(Service::over(Arc::clone(&engine)));
        let bg = {
            let service = Arc::clone(&service);
            let x = seeded_vector(info.cols, 0);
            std::thread::spawn(move || service.submit(info.key, x))
        };
        // Wait for the first request to be admitted.
        while service.depth() == 0 {
            std::thread::yield_now();
        }
        let e = service.submit(info.key, seeded_vector(info.cols, 1)).unwrap_err();
        assert_eq!(e.code(), "overloaded", "{e}");
        bg.join().unwrap().unwrap();
        service.stop();
        let s = engine.stats();
        assert!(s.shed >= 1, "{s:?}");
        assert!(s.queue_hwm >= 1, "{s:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_exceeded_is_explicit_and_counted() {
        let dir = tmp_dir("deadline");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            chaos: ChaosPlan::parse("stall-req=0@300").unwrap(),
            ..ServeConfig::quick(&dir)
        };
        let engine = Arc::new(ServeEngine::new(cfg));
        let info = engine.register_suite(1, 256).unwrap();
        let service = Service::over(Arc::clone(&engine));
        let x = seeded_vector(info.cols, 0);
        let start = Instant::now();
        let e = service.submit_within(info.key, x, Duration::from_millis(40)).unwrap_err();
        assert_eq!(e.code(), "deadline-exceeded", "{e}");
        assert!(start.elapsed() < Duration::from_millis(280), "released before the stall ended");
        service.stop(); // joins the pool, so the cancellation is counted
        let s = engine.stats();
        assert_eq!(s.deadline_miss, 1, "{s:?}");
        assert_eq!(s.requests, 0, "a cancelled request never executed");
        // Nothing was acknowledged, so nothing may be journaled.
        assert!(AckJournal::load(engine.journal().dir()).records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_batch_kill_is_retried_and_still_bitwise_correct() {
        let dir = tmp_dir("retry");
        let _ = std::fs::remove_dir_all(&dir);
        // The retry sleeps at least half the 400 ms backoff, after the
        // request's queue wait has ended.
        let cfg = ServeConfig {
            chaos: ChaosPlan::parse("kill-batch=0").unwrap(),
            retry_backoff: Duration::from_millis(400),
            ..ServeConfig::quick(&dir)
        };
        let engine = Arc::new(ServeEngine::new(cfg));
        let info = engine.register_suite(1, 256).unwrap();
        let service = Service::over(Arc::clone(&engine));
        let x = seeded_vector(info.cols, 7);
        let reply = service.submit(info.key, x.clone()).unwrap();
        let expect = engine.matrix(info.key).unwrap().spmv(&x);
        assert_eq!(reply.y, expect, "the retried batch answers bitwise correctly");
        assert!(reply.queue_wait_us < 200_000, "queue wait {} µs", reply.queue_wait_us);
        service.stop();
        let s = engine.stats();
        assert_eq!(s.retries, 1, "{s:?}");
        assert_eq!(AckJournal::load(engine.journal().dir()).records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wedge_class_faults_are_never_retried() {
        let dir = tmp_dir("wedge");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            chaos: ChaosPlan::parse("wedge-batch=0").unwrap(),
            ..ServeConfig::quick(&dir)
        };
        let engine = Arc::new(ServeEngine::new(cfg));
        let info = engine.register_suite(1, 256).unwrap();
        let service = Service::over(Arc::clone(&engine));
        let e = service.submit(info.key, seeded_vector(info.cols, 0)).unwrap_err();
        assert!(matches!(e, ServeError::Injected { transient: false, .. }), "{e}");
        service.stop();
        let s = engine.stats();
        assert_eq!(s.retries, 0, "wedges must not burn the retry budget");
        assert!(
            AckJournal::load(engine.journal().dir()).records.is_empty(),
            "a failed batch must never be journaled as acknowledged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_workers_answer_lost_and_an_empty_pool_answers_stopped() {
        let dir = tmp_dir("lost");
        let _ = std::fs::remove_dir_all(&dir);
        // Every simulated pass panics the worker running it, so each
        // sequential submit kills one worker until none is left.
        let mut cfg = ServeConfig::quick(&dir);
        cfg.hw.faults = spacea_arch::FaultPlan::parse("panic").unwrap();
        let engine = Arc::new(ServeEngine::new(cfg));
        let info = engine.register_suite(1, 256).unwrap();
        let service = Service::over(Arc::clone(&engine));
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let start = Instant::now();
        let outcomes: Vec<ServeError> = (0..workers as u64 + 2)
            .map(|seed| {
                let x = seeded_vector(info.cols, seed);
                service.submit_within(info.key, x, Duration::from_secs(20)).unwrap_err()
            })
            .collect();
        assert!(start.elapsed() < Duration::from_secs(10), "took {:?}", start.elapsed());
        for e in &outcomes {
            assert!(matches!(e, ServeError::Lost | ServeError::Stopped), "{e}");
        }
        assert_eq!(outcomes.first(), Some(&ServeError::Lost), "a live pool took the first");
        assert_eq!(outcomes.last(), Some(&ServeError::Stopped), "no worker was left for the last");
        service.stop();
        assert!(AckJournal::load(engine.journal().dir()).records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn idle_queue_uses_the_short_gather_window() {
        let dir = tmp_dir("idle");
        let _ = std::fs::remove_dir_all(&dir);
        // A pathological full window: if the worker waited it out for a
        // lone request, this test would take > 2 s. The adaptive window
        // must answer an idle-queue submit in a fraction of that.
        let cfg = ServeConfig {
            gather_window: Duration::from_secs(2),
            gather_idle: Duration::from_millis(1),
            ..ServeConfig::quick(&dir)
        };
        let engine = Arc::new(ServeEngine::new(cfg));
        let info = engine.register_suite(1, 256).unwrap();
        let service = Service::over(Arc::clone(&engine));
        let start = Instant::now();
        service.submit(info.key, seeded_vector(info.cols, 0)).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "idle submit took {:?}; the adaptive window did not kick in",
            start.elapsed()
        );
        service.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stalled_batch_does_not_block_another_matrix() {
        if std::thread::available_parallelism().map_or(1, NonZeroUsize::get) < 2 {
            eprintln!("skipped: needs two cores for two batch workers");
            return;
        }
        let dir = tmp_dir("concurrent");
        let _ = std::fs::remove_dir_all(&dir);
        // Request 0 (matrix A) stalls its worker for 400 ms. A gather
        // window wide enough for threads to meet in makes fusion of the
        // matrix-B submits deterministic.
        let cfg = ServeConfig {
            gather_idle: Duration::from_millis(50),
            gather_window: Duration::from_millis(50),
            chaos: ChaosPlan::parse("stall-req=0@400").unwrap(),
            ..ServeConfig::quick(&dir)
        };
        let engine = Arc::new(ServeEngine::new(cfg));
        let a = engine.register_suite(1, 256).unwrap();
        let b = engine.register_suite(2, 256).unwrap();
        let service = Arc::new(Service::over(Arc::clone(&engine)));
        let start = Instant::now();
        let stalled = {
            let service = Arc::clone(&service);
            let x = seeded_vector(a.cols, 0);
            std::thread::spawn(move || service.submit(a.key, x))
        };
        while service.depth() == 0 {
            std::thread::yield_now();
        }
        let replies: Vec<(Vec<f64>, SubmitReply)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..=4u64)
                .map(|seed| {
                    let service = &service;
                    scope.spawn(move || {
                        let x = seeded_vector(b.cols, seed);
                        (x.clone(), service.submit(b.key, x).unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let b_done = start.elapsed();
        assert!(!stalled.is_finished(), "matrix A must still be stalled");
        assert!(b_done < Duration::from_millis(400), "matrix B waited {b_done:?} behind the stall");
        let matrix_b = engine.matrix(b.key).unwrap();
        for (x, reply) in &replies {
            let got: Vec<u64> = reply.y.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = matrix_b.spmv(x).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "a concurrent batch must answer bitwise the solo SpMV");
        }
        assert!(replies.iter().any(|(_, r)| r.batch > 1), "same-matrix submits must still fuse");
        let reply = stalled.join().unwrap().unwrap();
        assert_eq!(reply.y, engine.matrix(a.key).unwrap().spmv(&seeded_vector(a.cols, 0)));
        service.stop();
        assert_eq!(AckJournal::load(engine.journal().dir()).records.len(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_spread() {
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            for attempt in 1..=5u32 {
                let a = jitter_factor(key, attempt);
                let b = jitter_factor(key, attempt);
                assert_eq!(a, b, "same (key, attempt) must jitter identically");
                assert!((0.5..1.5).contains(&a), "factor {a} out of range");
            }
        }
        // Distinct keys and distinct attempts should not all collapse onto
        // one factor — that would defeat the point of jitter.
        let across_keys: Vec<f64> = (0..8).map(|k| jitter_factor(k, 1)).collect();
        assert!(across_keys.windows(2).any(|w| w[0] != w[1]));
        let across_attempts: Vec<f64> = (1..=8).map(|a| jitter_factor(42, a)).collect();
        assert!(across_attempts.windows(2).any(|w| w[0] != w[1]));
        // A batch retries on the same schedule in every build.
        let bits: Vec<u64> = (1..=3).map(|a| jitter_factor(0xDEAD_BEEF, a).to_bits()).collect();
        assert_eq!(
            bits,
            [4_604_826_351_339_337_158, 4_607_501_203_896_368_068, 4_609_267_137_416_669_909]
        );
    }
}

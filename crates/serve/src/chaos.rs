//! Deterministic, seed-replayable fault injection for the service layer.
//!
//! [`ChaosPlan`] extends the PR 3 simulator fault-injection philosophy
//! ([`spacea_arch::FaultPlan`]) one layer up: instead of dropping NoC
//! packets inside the machine, a chaos plan drops connections at the
//! listener, kills or wedges a batch worker mid-batch, stalls individual
//! admitted requests, and corrupts persisted mapping artifacts at daemon
//! startup. Like `FaultPlan`, every fault is addressed by an ordinal
//! counter, never a probability, so a plan replays exactly: the Nth
//! accepted connection, the Nth batch attempt, the Nth admitted request.
//!
//! Plans exist to *prove* the request-lifecycle guarantees, and the
//! invariant they must never be able to break is the serving analogue of
//! PR 3's "single fault is never wrong-but-successful": an acknowledged
//! request's output is bitwise the offline [`spacea_matrix::Csr::spmv`],
//! and an accepted request is never silently lost — chaos may slow,
//! reject, or error a request, but never corrupt or swallow one.

use crate::{splitmix64, GOLDEN_GAMMA};
use spacea_arch::fault::{parse_at, parse_directives, parse_u64, write_directives};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One splitmix64 step, so seed-derived plans are stable across platforms
/// and processes.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    splitmix64(*state)
}

/// A deterministic service-layer fault plan. The default (empty) plan
/// injects nothing and costs a few atomic loads per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    /// Close the Nth accepted connection (0-based) before reading a byte.
    /// The client sees a hangup on a connection that never acknowledged
    /// anything — its connect/call retry absorbs it.
    pub drop_conn: Option<u64>,
    /// Delay handling of the Nth accepted connection by this many
    /// milliseconds before the first read (a slow-start client).
    pub delay_conn: Option<(u64, u64)>,
    /// Fail the Nth batch execution attempt (0-based) with a *transient*
    /// fault before the simulator runs — the worker's bounded retry must
    /// absorb it and still answer every member correctly.
    pub kill_batch: Option<u64>,
    /// Fail the Nth batch execution attempt with a *hang-class* fault.
    /// Hangs are never retried, so every member receives an explicit
    /// coded error instead.
    pub wedge_batch: Option<u64>,
    /// Stall the batch containing the Nth admitted request (0-based) by
    /// this many milliseconds before execution. Long stalls push members
    /// past their deadline, exercising cancellation.
    pub stall_req: Option<(u64, u64)>,
    /// At daemon startup, overwrite the Nth persisted mapping artifact
    /// (sorted order) with garbage. The mapping store must heal it by
    /// recomputing.
    pub corrupt_map: Option<u64>,
    /// At daemon startup, truncate the Nth persisted mapping artifact to
    /// half its length (a torn write from a crashed peer). Must also heal.
    pub truncate_map: Option<u64>,
}

impl ChaosPlan {
    /// True when the plan injects nothing (the default).
    pub fn is_empty(&self) -> bool {
        *self == ChaosPlan::default()
    }

    /// Parses a comma-separated list of chaos directives:
    ///
    /// * `drop-conn=N` — close the Nth accepted connection immediately
    /// * `delay-conn=N@MS` — delay connection N's handling by MS ms
    /// * `kill-batch=N` — transient fault on the Nth batch attempt
    /// * `wedge-batch=N` — hang-class fault on the Nth batch attempt
    /// * `stall-req=N@MS` — stall request N's batch by MS ms
    /// * `corrupt-map=N` — garbage the Nth persisted mapping at startup
    /// * `truncate-map=N` — truncate the Nth persisted mapping at startup
    ///
    /// The grammar is the simulator fault plan's
    /// ([`spacea_arch::fault::parse_directives`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending directive when one is
    /// unknown, malformed or repeated.
    pub fn parse(s: &str) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan::default();
        let expected = "drop-conn=N, delay-conn=N@MS, kill-batch=N, wedge-batch=N, \
                        stall-req=N@MS, corrupt-map=N, or truncate-map=N";
        parse_directives(s, "chaos", expected, |name, value| {
            let Some(v) = value else { return Ok(false) };
            match name {
                "drop-conn" => plan.drop_conn = Some(parse_u64(name, v)?),
                "delay-conn" => plan.delay_conn = Some(parse_at(name, v)?),
                "kill-batch" => plan.kill_batch = Some(parse_u64(name, v)?),
                "wedge-batch" => plan.wedge_batch = Some(parse_u64(name, v)?),
                "stall-req" => plan.stall_req = Some(parse_at(name, v)?),
                "corrupt-map" => plan.corrupt_map = Some(parse_u64(name, v)?),
                "truncate-map" => plan.truncate_map = Some(parse_u64(name, v)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(plan)
    }

    /// A pseudo-random plan derived deterministically from `seed`: the
    /// same seed always yields the same plan (the chaos soak's replay
    /// guarantee). Every seed injects at least one fault, and ordinals are
    /// kept small so short request streams actually hit them.
    pub fn from_seed(seed: u64) -> ChaosPlan {
        let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x5103_87D8_A380_17E5;
        let mut plan = ChaosPlan::default();
        // Draw until non-empty so no seed degenerates to a fault-free run.
        while plan.is_empty() {
            let picks = splitmix(&mut s);
            if picks & 0x01 != 0 {
                plan.drop_conn = Some(splitmix(&mut s) % 4);
            }
            if picks & 0x02 != 0 {
                plan.delay_conn = Some((splitmix(&mut s) % 4, 5 + splitmix(&mut s) % 40));
            }
            if picks & 0x04 != 0 {
                plan.kill_batch = Some(splitmix(&mut s) % 3);
            }
            if picks & 0x08 != 0 {
                plan.wedge_batch = Some(2 + splitmix(&mut s) % 3);
            }
            if picks & 0x10 != 0 {
                plan.stall_req = Some((splitmix(&mut s) % 6, 10 + splitmix(&mut s) % 60));
            }
            if picks & 0x20 != 0 {
                plan.corrupt_map = Some(splitmix(&mut s) % 2);
            }
            if picks & 0x40 != 0 {
                plan.truncate_map = Some(splitmix(&mut s) % 2);
            }
        }
        // A plan that both kills and wedges the same attempt ordinal would
        // be ambiguous; wedge wins at runtime, so keep them distinct for
        // readability when both were drawn.
        if let (Some(k), Some(w)) = (plan.kill_batch, plan.wedge_batch) {
            if k == w {
                plan.kill_batch = Some(k + 1);
            }
        }
        plan
    }
}

impl std::fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_directives(
            f,
            [
                self.drop_conn.map(|n| format!("drop-conn={n}")),
                self.delay_conn.map(|(n, ms)| format!("delay-conn={n}@{ms}")),
                self.kill_batch.map(|n| format!("kill-batch={n}")),
                self.wedge_batch.map(|n| format!("wedge-batch={n}")),
                self.stall_req.map(|(n, ms)| format!("stall-req={n}@{ms}")),
                self.corrupt_map.map(|n| format!("corrupt-map={n}")),
                self.truncate_map.map(|n| format!("truncate-map={n}")),
            ],
        )
    }
}

/// What a chaos plan does to one accepted connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// Close the connection before reading anything.
    Drop,
    /// Sleep this long before handling the connection.
    Delay(Duration),
}

/// Runtime state of a chaos plan: the plan plus the ordinal counters the
/// faults are addressed against. Counters only advance when the matching
/// directive is armed, so an empty plan never allocates or contends.
#[derive(Debug, Default)]
pub struct ChaosState {
    plan: ChaosPlan,
    conns: AtomicU64,
    attempts: AtomicU64,
}

impl ChaosState {
    /// Runtime state over `plan`.
    pub fn new(plan: ChaosPlan) -> Self {
        ChaosState { plan, conns: AtomicU64::new(0), attempts: AtomicU64::new(0) }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Called once per accepted connection; returns the fault to apply to
    /// it, if any.
    pub fn on_connection(&self) -> Option<ConnFault> {
        if self.plan.drop_conn.is_none() && self.plan.delay_conn.is_none() {
            return None;
        }
        let ordinal = self.conns.fetch_add(1, Ordering::Relaxed);
        if self.plan.drop_conn == Some(ordinal) {
            return Some(ConnFault::Drop);
        }
        if let Some((n, ms)) = self.plan.delay_conn {
            if n == ordinal {
                return Some(ConnFault::Delay(Duration::from_millis(ms)));
            }
        }
        None
    }

    /// Called once per batch execution *attempt* (retries count); returns
    /// the injected failure, if any. A transient kill on attempt N leaves
    /// attempt N+1 (the retry) healthy, which is exactly what makes the
    /// bounded-retry path provable.
    pub fn on_batch_attempt(&self) -> Option<crate::error::ServeError> {
        if self.plan.kill_batch.is_none() && self.plan.wedge_batch.is_none() {
            return None;
        }
        let ordinal = self.attempts.fetch_add(1, Ordering::Relaxed);
        if self.plan.wedge_batch == Some(ordinal) {
            return Some(crate::error::ServeError::Injected {
                transient: false,
                what: format!("wedge-batch={ordinal}"),
            });
        }
        if self.plan.kill_batch == Some(ordinal) {
            return Some(crate::error::ServeError::Injected {
                transient: true,
                what: format!("kill-batch={ordinal}"),
            });
        }
        None
    }

    /// The stall to apply to the batch containing admit-ordinal `req`.
    pub fn request_stall(&self, req: u64) -> Option<Duration> {
        match self.plan.stall_req {
            Some((n, ms)) if n == req => Some(Duration::from_millis(ms)),
            _ => None,
        }
    }

    /// Applies the startup mapping-store corruptions to `mappings_dir`:
    /// the Nth artifact in sorted filename order is overwritten with
    /// garbage (`corrupt-map`) or cut to the first half of its bytes
    /// (`truncate-map`).
    /// Missing directories and out-of-range ordinals are no-ops — the
    /// plan is a standing order, not a precondition.
    pub fn apply_map_corruption(&self, mappings_dir: &Path) {
        if self.plan.corrupt_map.is_none() && self.plan.truncate_map.is_none() {
            return;
        }
        let Ok(entries) = std::fs::read_dir(mappings_dir) else { return };
        let mut files: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        if let Some(n) = self.plan.corrupt_map {
            if let Some(path) = files.get(n as usize) {
                if let Err(e) = std::fs::write(path, "{ chaos: corrupted") {
                    eprintln!("serve: chaos corrupt-map failed on {}: {e}", path.display());
                }
            }
        }
        if let Some(n) = self.plan.truncate_map {
            if let Some(path) = files.get(n as usize) {
                let cut = std::fs::read(path)
                    .and_then(|bytes| std::fs::write(path, &bytes[..bytes.len() / 2]));
                if let Err(e) = cut {
                    eprintln!("serve: chaos truncate-map failed on {}: {e}", path.display());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServeError;

    #[test]
    fn empty_plan_parses_and_is_empty() {
        let plan = ChaosPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.to_string(), "none");
        assert_eq!(ChaosPlan::parse("none"), Ok(plan), "the printed empty plan parses back");
        let state = ChaosState::new(plan);
        assert_eq!(state.on_connection(), None);
        assert!(state.on_batch_attempt().is_none());
        assert_eq!(state.request_stall(0), None);
    }

    #[test]
    fn directives_parse_into_the_right_fields() {
        let plan = ChaosPlan::parse(
            "drop-conn=1, delay-conn=2@30, kill-batch=0, wedge-batch=3, stall-req=4@250, \
             corrupt-map=0, truncate-map=1",
        )
        .unwrap();
        assert_eq!(plan.drop_conn, Some(1));
        assert_eq!(plan.delay_conn, Some((2, 30)));
        assert_eq!(plan.kill_batch, Some(0));
        assert_eq!(plan.wedge_batch, Some(3));
        assert_eq!(plan.stall_req, Some((4, 250)));
        assert_eq!(plan.corrupt_map, Some(0));
        assert_eq!(plan.truncate_map, Some(1));
        assert!(!plan.is_empty());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for spec in ["kill-batch=2,corrupt-map=0", "drop-conn=0,stall-req=3@100", "wedge-batch=1"] {
            let plan = ChaosPlan::parse(spec).unwrap();
            assert_eq!(ChaosPlan::parse(&plan.to_string()).unwrap(), plan, "{spec}");
        }
    }

    #[test]
    fn malformed_directives_are_named_in_the_error() {
        for bad in [
            "drop-conn=x",
            "stall-req=5",
            "warp-core-breach",
            "kill-batch",
            "kill-batch=0,kill-batch=3",
        ] {
            let err = ChaosPlan::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "no message for '{bad}'");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_nonempty_and_varied() {
        for seed in 0..64u64 {
            let a = ChaosPlan::from_seed(seed);
            let b = ChaosPlan::from_seed(seed);
            assert_eq!(a, b, "seed {seed} must replay identically");
            assert!(!a.is_empty(), "seed {seed} must inject something");
            // Seeded plans must survive their own grammar (the CLI replay
            // path goes through Display + parse).
            assert_eq!(ChaosPlan::parse(&a.to_string()).unwrap(), a, "seed {seed}");
            if let (Some(k), Some(w)) = (a.kill_batch, a.wedge_batch) {
                assert_ne!(k, w, "seed {seed}: kill and wedge on the same attempt");
            }
        }
        let distinct: std::collections::BTreeSet<String> =
            (0..64u64).map(|s| ChaosPlan::from_seed(s).to_string()).collect();
        assert!(distinct.len() > 16, "seeds should spread over many plans: {}", distinct.len());
        // `serve_chaos --seed K` replays K's plan in any later build, so the
        // plans themselves are pinned.
        let plans: Vec<String> = (0..8u64).map(|s| ChaosPlan::from_seed(s).to_string()).collect();
        let want = [
            "drop-conn=3,delay-conn=1@32,corrupt-map=0",
            "wedge-batch=3,truncate-map=0",
            "kill-batch=2,wedge-batch=3,truncate-map=1",
            "drop-conn=2,kill-batch=1",
            "kill-batch=1,wedge-batch=3,stall-req=1@32,corrupt-map=0",
            "delay-conn=3@13,truncate-map=0",
            "drop-conn=0,stall-req=1@51,corrupt-map=0,truncate-map=1",
            "kill-batch=2,stall-req=0@18",
        ];
        assert_eq!(plans, want);
    }

    #[test]
    fn connection_faults_hit_their_ordinal_only() {
        let state = ChaosState::new(ChaosPlan::parse("drop-conn=1,delay-conn=2@15").unwrap());
        assert_eq!(state.on_connection(), None, "conn 0 healthy");
        assert_eq!(state.on_connection(), Some(ConnFault::Drop), "conn 1 dropped");
        assert_eq!(
            state.on_connection(),
            Some(ConnFault::Delay(Duration::from_millis(15))),
            "conn 2 delayed"
        );
        assert_eq!(state.on_connection(), None, "conn 3 healthy");
    }

    #[test]
    fn batch_faults_classify_transient_vs_wedge() {
        let state = ChaosState::new(ChaosPlan::parse("kill-batch=0,wedge-batch=1").unwrap());
        let kill = state.on_batch_attempt().unwrap();
        assert!(kill.retryable(), "{kill}");
        assert!(matches!(kill, ServeError::Injected { transient: true, .. }));
        let wedge = state.on_batch_attempt().unwrap();
        assert!(!wedge.retryable(), "{wedge}");
        assert!(state.on_batch_attempt().is_none(), "attempt 2 healthy");
    }

    #[test]
    fn map_corruption_targets_the_sorted_nth_artifact() {
        let dir = std::env::temp_dir().join(format!("spacea-chaos-map-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("aaaa.json"), "{\"a\":1}").unwrap();
        std::fs::write(dir.join("bbbb.json"), "{\"b\":22222222}").unwrap();
        let state = ChaosState::new(ChaosPlan::parse("corrupt-map=0,truncate-map=1").unwrap());
        state.apply_map_corruption(&dir);
        let a = std::fs::read_to_string(dir.join("aaaa.json")).unwrap();
        assert!(a.contains("chaos"), "{a}");
        let b = std::fs::read_to_string(dir.join("bbbb.json")).unwrap();
        assert_eq!(b.len(), "{\"b\":22222222}".len() / 2, "{b}");
        // A non-ASCII artifact is cut at half its bytes, even where that
        // splits a character (byte 7 of 14 falls inside the first `é`).
        let accented = "{\"c\":\"ééé\"}".as_bytes();
        std::fs::write(dir.join("cccc.json"), accented).unwrap();
        ChaosState::new(ChaosPlan::parse("truncate-map=2").unwrap()).apply_map_corruption(&dir);
        assert_eq!(std::fs::read(dir.join("cccc.json")).unwrap(), &accented[..7]);
        // A missing directory is a no-op, not an error.
        state.apply_map_corruption(&dir.join("nope"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

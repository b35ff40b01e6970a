//! Deterministic, seed-replayable fault injection for the service layer.
//!
//! [`ChaosPlan`] extends the PR 3 simulator fault-injection philosophy
//! ([`spacea_arch::FaultPlan`]) one layer up: instead of dropping NoC
//! packets inside the machine, a chaos plan wedges a batch or stalls the
//! batch holding one admitted request. Those are the faults only the batch
//! path can inject; damaged mapping artifacts and slow clients are made
//! from outside the daemon by the `serve_chaos` soak. Like `FaultPlan`,
//! every fault is addressed by an ordinal counter, never a probability, so
//! a plan replays exactly: the Nth batch, the Nth admitted request.
//!
//! Plans exist to *prove* the request-lifecycle guarantees, and the
//! invariant they must never be able to break is the serving analogue of
//! PR 3's "single fault is never wrong-but-successful": an acknowledged
//! request's output is bitwise the offline [`spacea_matrix::Csr::spmv`],
//! and an accepted request is never silently lost — chaos may slow,
//! reject, or error a request, but never corrupt or swallow one.

use crate::error::ServeError;
use crate::{splitmix64, GOLDEN_GAMMA};
use spacea_arch::fault::{parse_at, parse_directives, parse_u64, write_directives};
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
    /// Fail the Nth batch (0-based) with a wedge fault before the
    /// simulator runs: every member receives an explicit coded error
    /// (`internal`), nothing is journaled, and the next batch runs clean.
    pub wedge_batch: Option<u64>,
    /// Stall the batch containing the Nth admitted request (0-based) by
    /// this many milliseconds before execution. Long stalls push members
    /// past their deadline, exercising cancellation.
    pub stall_req: Option<(u64, u64)>,
}

impl ChaosPlan {
    /// True when the plan injects nothing (the default).
    pub fn is_empty(&self) -> bool {
        *self == ChaosPlan::default()
    }

    /// Parses a comma-separated list of chaos directives:
    ///
    /// * `wedge-batch=N` — fail the Nth batch with a coded error
    /// * `stall-req=N@MS` — stall request N's batch by MS ms
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
        parse_directives(s, "chaos", "wedge-batch=N or stall-req=N@MS", |name, value| {
            let Some(v) = value else { return Ok(false) };
            match name {
                "wedge-batch" => plan.wedge_batch = Some(parse_u64(name, v)?),
                "stall-req" => plan.stall_req = Some(parse_at(name, v)?),
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
                plan.wedge_batch = Some(2 + splitmix(&mut s) % 3);
            }
            if picks & 0x02 != 0 {
                plan.stall_req = Some((splitmix(&mut s) % 6, 10 + splitmix(&mut s) % 60));
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
                self.wedge_batch.map(|n| format!("wedge-batch={n}")),
                self.stall_req.map(|(n, ms)| format!("stall-req={n}@{ms}")),
            ],
        )
    }
}

/// Runtime state of a chaos plan: the plan plus the batch counter the
/// wedge fault is addressed against. The counter only advances when that
/// directive is armed, so an empty plan never contends.
#[derive(Debug, Default)]
pub struct ChaosState {
    plan: ChaosPlan,
    batches: AtomicU64,
}

impl ChaosState {
    /// Runtime state over `plan`.
    pub fn new(plan: ChaosPlan) -> Self {
        ChaosState { plan, batches: AtomicU64::new(0) }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Called once per batch, just before it runs; returns the injected
    /// failure, if any.
    pub fn on_batch(&self) -> Option<ServeError> {
        let wedge = self.plan.wedge_batch?;
        let ordinal = self.batches.fetch_add(1, Ordering::Relaxed);
        (ordinal == wedge).then(|| ServeError::Injected { what: format!("wedge-batch={ordinal}") })
    }

    /// The stall to apply to the batch containing admit-ordinal `req`.
    pub fn request_stall(&self, req: u64) -> Option<Duration> {
        match self.plan.stall_req {
            Some((n, ms)) if n == req => Some(Duration::from_millis(ms)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_parses_and_is_empty() {
        let plan = ChaosPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.to_string(), "none");
        assert_eq!(ChaosPlan::parse("none"), Ok(plan), "the printed empty plan parses back");
        let state = ChaosState::new(plan);
        assert!(state.on_batch().is_none());
        assert_eq!(state.request_stall(0), None);
    }

    #[test]
    fn directives_parse_into_the_right_fields() {
        let plan = ChaosPlan::parse("wedge-batch=3, stall-req=4@250").unwrap();
        assert_eq!(plan.wedge_batch, Some(3));
        assert_eq!(plan.stall_req, Some((4, 250)));
        assert!(!plan.is_empty());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for spec in ["stall-req=3@100", "wedge-batch=1", "wedge-batch=0,stall-req=2@10"] {
            let plan = ChaosPlan::parse(spec).unwrap();
            assert_eq!(ChaosPlan::parse(&plan.to_string()).unwrap(), plan, "{spec}");
        }
    }

    #[test]
    fn malformed_directives_are_named_in_the_error() {
        for bad in [
            "stall-req=5",
            "warp-core-breach",
            "wedge-batch",
            "wedge-batch=0,wedge-batch=3",
            "kill-batch=0",
            "drop-conn=0",
            "delay-conn=0@5",
            "corrupt-map=0",
            "truncate-map=1",
        ] {
            let err = ChaosPlan::parse(bad).unwrap_err();
            let name = bad.split(['=', ',']).next().unwrap();
            assert!(err.contains(name), "'{bad}' not named in: {err}");
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
        }
        let distinct: std::collections::BTreeSet<String> =
            (0..64u64).map(|s| ChaosPlan::from_seed(s).to_string()).collect();
        assert!(distinct.len() > 16, "seeds should spread over many plans: {}", distinct.len());
        // `serve_chaos --seed K` replays K's plan in any later build, so the
        // plans themselves are pinned.
        let plans: Vec<String> = (0..8u64).map(|s| ChaosPlan::from_seed(s).to_string()).collect();
        let want = [
            "wedge-batch=2,stall-req=5@17",
            "stall-req=0@14",
            "stall-req=1@46",
            "wedge-batch=4",
            "wedge-batch=3,stall-req=1@32",
            "stall-req=1@38",
            "wedge-batch=3",
            "stall-req=5@41",
        ];
        assert_eq!(plans, want);
    }

    #[test]
    fn the_batch_fault_hits_its_ordinal_only() {
        let state = ChaosState::new(ChaosPlan::parse("wedge-batch=1").unwrap());
        assert!(state.on_batch().is_none(), "batch 0 runs clean");
        let wedge = state.on_batch().unwrap();
        assert_eq!(wedge, ServeError::Injected { what: "wedge-batch=1".into() });
        assert_eq!(wedge.code(), "internal");
        assert!(state.on_batch().is_none(), "batch 2 runs clean");
    }
}

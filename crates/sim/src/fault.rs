//! Deterministic fault injection and forward-progress supervision.
//!
//! A [`FaultPlan`] describes a single deliberate defect — a dropped or
//! delayed NoC packet, a wedged vault controller, a corrupted accumulator
//! update, or an outright panic — that the machine injects at an exact,
//! counter-addressed point in the run. Plans exist to *prove* the
//! robustness layer: every fault must surface as a structured failure
//! (deadlock, livelock, validation error), never as a silently wrong
//! result.
//!
//! A [`WatchdogConfig`] bounds the run loop: a total cycle budget and a
//! stall window (maximum cycles between two retirements). When either
//! trips, the machine aborts with a [`StallDiagnosis`] naming the most
//! loaded vault and its queue occupancy.

use crate::Cycle;
use std::fmt;

/// A deterministic single-fault injection plan, threaded through the
/// hardware configuration. The default (empty) plan injects nothing and
/// is free at runtime.
///
/// Faults are addressed by event ordinals, not probabilities, so a plan
/// reproduces exactly: the Nth routed NoC packet, the Nth accumulator
/// update, a named vault from a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FaultPlan {
    /// Drop the Nth cross-vault NoC packet (0-based). The lost message
    /// strands its waiters, so the run ends in a diagnosed deadlock.
    pub drop_noc_packet: Option<u64>,
    /// Delay every cross-vault NoC packet from ordinal N onward by D
    /// cycles. The run stays correct, just slower.
    pub delay_noc: Option<(u64, Cycle)>,
    /// Wedge vault V's controller from cycle T: events addressed to it are
    /// bounced forward instead of handled, so the run livelocks until the
    /// stall-window watchdog fires.
    pub stall_vault: Option<(usize, Cycle)>,
    /// Corrupt the Nth accumulator update by +1.0. The output oracle must
    /// catch it as a validation failure.
    pub flip_accum_update: Option<u64>,
    /// Panic at the start of the run loop (exercises the harness's
    /// `catch_unwind` supervision).
    pub panic_on_run: bool,
}

impl FaultPlan {
    /// True when the plan injects nothing (the default).
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Parses a comma-separated list of fault directives:
    ///
    /// * `drop-noc=N` — drop the Nth routed NoC packet
    /// * `delay-noc=N@D` — delay packets from ordinal N by D cycles
    /// * `stall-vault=V@T` — wedge vault V from cycle T
    /// * `flip-accum=N` — corrupt the Nth accumulator update
    /// * `panic` — panic at run start
    ///
    /// The grammar is [`parse_directives`]'s, shared with the service
    /// layer's chaos plans.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending directive when one is
    /// unknown, malformed or repeated.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let expected = "drop-noc=N, delay-noc=N@D, stall-vault=V@T, flip-accum=N, or panic";
        parse_directives(s, "fault", expected, |name, value| {
            match (name, value) {
                ("panic", None) => plan.panic_on_run = true,
                ("drop-noc", Some(n)) => plan.drop_noc_packet = Some(parse_u64(name, n)?),
                ("delay-noc", Some(v)) => plan.delay_noc = Some(parse_at(name, v)?),
                ("stall-vault", Some(v)) => {
                    let (vault, from) = parse_at(name, v)?;
                    plan.stall_vault = Some((vault as usize, from));
                }
                ("flip-accum", Some(n)) => plan.flip_accum_update = Some(parse_u64(name, n)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_directives(
            f,
            [
                self.drop_noc_packet.map(|n| format!("drop-noc={n}")),
                self.delay_noc.map(|(n, d)| format!("delay-noc={n}@{d}")),
                self.stall_vault.map(|(v, t)| format!("stall-vault={v}@{t}")),
                self.flip_accum_update.map(|n| format!("flip-accum={n}")),
                self.panic_on_run.then(|| "panic".to_string()),
            ],
        )
    }
}

/// Parses a directive's `N` value.
pub fn parse_u64(what: &str, v: &str) -> Result<u64, String> {
    v.trim().parse().map_err(|_| format!("{what} needs an unsigned integer, got '{v}'"))
}

/// Parses a directive's `N@M` value.
pub fn parse_at(what: &str, v: &str) -> Result<(u64, u64), String> {
    let (a, b) =
        v.split_once('@').ok_or_else(|| format!("{what} needs the form N@M, got '{v}'"))?;
    Ok((parse_u64(what, a)?, parse_u64(what, b)?))
}

/// Parses a fault spec: comma-separated directives of the form `name`,
/// `name=N` or `name=N@M`, surrounding whitespace and empty entries
/// ignored. `none` alone is the empty spec, so every plan's [`fmt::Display`]
/// (see [`write_directives`]) parses back. Directives never contain `:`, so
/// callers can prefix a plan with an index (`3:stall-vault=0@100`)
/// unambiguously.
///
/// `apply(name, value)` sets one directive's field and returns `Ok(false)`
/// for a name it does not know, which becomes an "unknown `kind` directive"
/// error listing `expected`. A name given twice is an error.
pub fn parse_directives<'a>(
    s: &'a str,
    kind: &str,
    expected: &str,
    mut apply: impl FnMut(&'a str, Option<&'a str>) -> Result<bool, String>,
) -> Result<(), String> {
    if s.trim() == "none" {
        return Ok(());
    }
    let mut seen: Vec<&str> = Vec::new();
    for directive in s.split(',').map(str::trim).filter(|d| !d.is_empty()) {
        let (name, value) = match directive.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (directive, None),
        };
        if seen.contains(&name) {
            return Err(format!("{kind} directive '{name}' given more than once"));
        }
        seen.push(name);
        if !apply(name, value)? {
            return Err(format!("unknown {kind} directive '{directive}' (expected {expected})"));
        }
    }
    Ok(())
}

/// Writes the present directives joined by `,`, or `none` if there are none.
pub fn write_directives(
    f: &mut fmt::Formatter<'_>,
    directives: impl IntoIterator<Item = Option<String>>,
) -> fmt::Result {
    let present: Vec<String> = directives.into_iter().flatten().collect();
    if present.is_empty() {
        return f.write_str("none");
    }
    f.write_str(&present.join(","))
}

/// Forward-progress budgets for the machine run loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WatchdogConfig {
    /// Abort when simulated time passes this cycle count. `None` (the
    /// default) leaves total time unbounded — the stall window alone
    /// catches hangs without penalizing large healthy runs.
    pub max_cycles: Option<Cycle>,
    /// Abort when no retirement (matrix entry consumed or Y element
    /// written back) happens for this many cycles while work is still
    /// outstanding. Healthy runs retire continuously, so the generous
    /// default never fires on them.
    pub stall_window: Option<Cycle>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig { max_cycles: None, stall_window: Some(1_000_000) }
    }
}

/// Outstanding work in one vault at the moment a watchdog fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VaultOccupancy {
    /// Global vault id.
    pub vault: usize,
    /// In-flight distinct block requests across the vault's L1 load queues.
    pub l1_ldq: usize,
    /// In-flight distinct block requests in the vault's L2 load queue.
    pub l2_ldq: usize,
    /// Outstanding row-load requests from the vault's PEs.
    pub pe_pending: usize,
}

impl VaultOccupancy {
    /// Total outstanding requests parked on this vault.
    pub fn total(&self) -> usize {
        self.l1_ldq + self.l2_ldq + self.pe_pending
    }
}

/// One point of a vault's occupancy time series, recorded by the machine's
/// always-on history ring while a stall window is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OccupancySample {
    /// Simulated cycle the sample was taken at.
    pub cycle: Cycle,
    /// In-flight distinct block requests across the vault's L1 load queues.
    pub l1_ldq: usize,
    /// In-flight distinct block requests in the vault's L2 load queue.
    pub l2_ldq: usize,
    /// Outstanding row-load requests from the vault's PEs.
    pub pe_pending: usize,
}

impl OccupancySample {
    /// Total outstanding requests at this sample.
    pub fn total(&self) -> usize {
        self.l1_ldq + self.l2_ldq + self.pe_pending
    }
}

/// The last K occupancy samples of one vault, oldest first — how the vault
/// *got* to the state the watchdog caught it in, not just where it ended.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OccupancyHistory {
    /// Global vault id.
    pub vault: usize,
    /// Samples in cycle order, the final one taken at the abort cycle.
    pub samples: Vec<OccupancySample>,
}

impl OccupancyHistory {
    /// Largest total occupancy seen across the window.
    pub fn peak(&self) -> usize {
        self.samples.iter().map(OccupancySample::total).max().unwrap_or(0)
    }
}

/// A snapshot of machine state taken when a watchdog aborted the run:
/// what was left to do, where it was parked, and which vault looks
/// responsible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallDiagnosis {
    /// Simulated cycle at abort.
    pub cycle: Cycle,
    /// Matrix entries not yet consumed.
    pub entries_left: u64,
    /// Y elements not yet written back.
    pub y_left: u64,
    /// Events still pending in the queue.
    pub pending_events: usize,
    /// The most loaded vault (ties broken toward the lowest id), if any
    /// vault holds outstanding work.
    pub suspect_vault: Option<usize>,
    /// Per-vault occupancy, vaults with no outstanding work elided.
    pub vaults: Vec<VaultOccupancy>,
    /// Recent occupancy time series per vault (same elision as `vaults`):
    /// the machine's history ring plus a final sample at the abort cycle.
    pub history: Vec<OccupancyHistory>,
}

impl fmt::Display for StallDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: {} entries + {} Y partials outstanding, {} events pending",
            self.cycle, self.entries_left, self.y_left, self.pending_events
        )?;
        match self.suspect_vault.and_then(|v| self.vaults.iter().find(|o| o.vault == v)) {
            Some(o) => write!(
                f,
                "; suspect vault {} (L1-LDQ {}, L2-LDQ {}, PE in-flight {})",
                o.vault, o.l1_ldq, o.l2_ldq, o.pe_pending
            )?,
            None => return write!(f, "; no vault holds outstanding requests"),
        }
        if let Some(h) = self.suspect_vault.and_then(|v| self.history.iter().find(|h| h.vault == v))
        {
            if !h.samples.is_empty() {
                write!(
                    f,
                    "; occupancy history over {} samples: peak {}, latest {}",
                    h.samples.len(),
                    h.peak(),
                    h.samples.last().map(OccupancySample::total).unwrap_or(0)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_parses_and_is_empty() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.to_string(), "none");
        assert_eq!(FaultPlan::parse(" none "), Ok(plan), "the printed empty plan parses back");
    }

    #[test]
    fn directives_parse_into_the_right_fields() {
        let plan =
            FaultPlan::parse("drop-noc=7, delay-noc=3@50, stall-vault=2@100, flip-accum=9, panic")
                .unwrap();
        assert_eq!(plan.drop_noc_packet, Some(7));
        assert_eq!(plan.delay_noc, Some((3, 50)));
        assert_eq!(plan.stall_vault, Some((2, 100)));
        assert_eq!(plan.flip_accum_update, Some(9));
        assert!(plan.panic_on_run);
        assert!(!plan.is_empty());
    }

    #[test]
    fn display_round_trips_through_parse() {
        let plan = FaultPlan::parse("stall-vault=0@100,flip-accum=4").unwrap();
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn malformed_directives_are_named_in_the_error() {
        for bad in [
            "drop-noc=x",
            "delay-noc=5",
            "stall-vault=1",
            "warp-core-breach",
            "panic=1",
            "drop-noc=1,drop-noc=5",
            "panic,panic",
            "none,panic",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "no message for '{bad}'");
        }
    }

    #[test]
    fn diagnosis_names_the_suspect_vault() {
        let d = StallDiagnosis {
            cycle: 1234,
            entries_left: 10,
            y_left: 2,
            pending_events: 3,
            suspect_vault: Some(0),
            vaults: vec![VaultOccupancy { vault: 0, l1_ldq: 4, l2_ldq: 1, pe_pending: 2 }],
            history: vec![],
        };
        let text = d.to_string();
        assert!(text.contains("suspect vault 0"), "{text}");
        assert!(text.contains("10 entries"), "{text}");
        assert_eq!(d.vaults[0].total(), 7);
        assert!(!text.contains("occupancy history"), "no history recorded: {text}");
    }

    #[test]
    fn diagnosis_summarizes_the_suspects_history() {
        let d = StallDiagnosis {
            cycle: 9000,
            entries_left: 5,
            y_left: 0,
            pending_events: 1,
            suspect_vault: Some(2),
            vaults: vec![VaultOccupancy { vault: 2, l1_ldq: 3, l2_ldq: 0, pe_pending: 0 }],
            history: vec![OccupancyHistory {
                vault: 2,
                samples: vec![
                    OccupancySample { cycle: 1000, l1_ldq: 1, l2_ldq: 0, pe_pending: 0 },
                    OccupancySample { cycle: 5000, l1_ldq: 4, l2_ldq: 2, pe_pending: 1 },
                    OccupancySample { cycle: 9000, l1_ldq: 3, l2_ldq: 0, pe_pending: 0 },
                ],
            }],
        };
        assert_eq!(d.history[0].peak(), 7);
        let text = d.to_string();
        assert!(text.contains("occupancy history over 3 samples: peak 7, latest 3"), "{text}");
    }
}

//! Property tests of the fault-spec grammar both plans share: the
//! simulator's `FaultPlan` and the service layer's `ChaosPlan`.
//!
//! * Every plan, whatever its field values (ordinals 0 and `u64::MAX`
//!   included), prints and parses back equal.
//! * Arbitrary text over the grammar's alphabet, mixed with raw bytes,
//!   returns `Ok` or `Err` and never panics; whatever parses also
//!   round-trips.
//! * Repeating any directive of a printed non-empty plan is an error.

use proptest::prelude::*;
use spacea_arch::FaultPlan;
use spacea_serve::ChaosPlan;

/// An ordinal biased towards the edges: 0, `u64::MAX`, small, or any.
fn ordinal() -> impl Strategy<Value = u64> {
    (0u8..4, any::<u64>()).prop_map(|(pick, r)| match pick {
        0 => 0,
        1 => u64::MAX,
        2 => r % 16,
        _ => r,
    })
}

fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(some, v)| some.then_some(v))
}

fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        opt(ordinal()),
        opt((ordinal(), ordinal())),
        opt((ordinal(), ordinal())),
        opt(ordinal()),
        any::<bool>(),
    )
        .prop_map(|(drop, delay, stall, flip, panic)| FaultPlan {
            drop_noc_packet: drop,
            delay_noc: delay,
            stall_vault: stall.map(|(v, t)| (v as usize, t)),
            flip_accum_update: flip,
            panic_on_run: panic,
        })
}

fn chaos_plan() -> impl Strategy<Value = ChaosPlan> {
    (
        (opt(ordinal()), opt((ordinal(), ordinal())), opt(ordinal()), opt(ordinal())),
        (opt((ordinal(), ordinal())), opt(ordinal()), opt(ordinal())),
    )
        .prop_map(|((drop, delay, kill, wedge), (stall, corrupt, truncate))| ChaosPlan {
            drop_conn: drop,
            delay_conn: delay,
            kill_batch: kill,
            wedge_batch: wedge,
            stall_req: stall,
            corrupt_map: corrupt,
            truncate_map: truncate,
        })
}

/// The grammar's alphabet: every directive name of both plans, its
/// punctuation, digits and edge ordinals.
const TOKENS: &[&str] = &[
    "drop-noc",
    "delay-noc",
    "stall-vault",
    "flip-accum",
    "panic",
    "drop-conn",
    "delay-conn",
    "kill-batch",
    "wedge-batch",
    "stall-req",
    "corrupt-map",
    "truncate-map",
    "none",
    "=",
    "@",
    ",",
    ":",
    " ",
    "-",
    "0",
    "7",
    "18446744073709551615",
    "18446744073709551616",
];

/// Text built from grammar tokens, with a raw byte in place of a token one
/// time in four (decoded lossily, so any byte sequence can appear).
fn spec_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u8..4, 0usize..TOKENS.len(), any::<u8>()), 0..12).prop_map(
        |parts| {
            let mut bytes = Vec::new();
            for (pick, token, raw) in parts {
                match pick {
                    0 => bytes.push(raw),
                    _ => bytes.extend_from_slice(TOKENS[token].as_bytes()),
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        },
    )
}

/// `printed` with its `pick`-th directive appended once more.
fn with_repeat(printed: &str, pick: usize) -> String {
    let directives: Vec<&str> = printed.split(',').collect();
    format!("{printed},{}", directives[pick % directives.len()])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn every_plan_prints_and_parses_back(fault in fault_plan(), chaos in chaos_plan()) {
        prop_assert_eq!(FaultPlan::parse(&fault.to_string()), Ok(fault), "{}", fault);
        prop_assert_eq!(ChaosPlan::parse(&chaos.to_string()), Ok(chaos), "{}", chaos);
    }

    #[test]
    fn arbitrary_text_never_panics(text in spec_text()) {
        if let Ok(plan) = FaultPlan::parse(&text) {
            prop_assert_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan), "{:?}", text);
        }
        if let Ok(plan) = ChaosPlan::parse(&text) {
            prop_assert_eq!(ChaosPlan::parse(&plan.to_string()), Ok(plan), "{:?}", text);
        }
    }

    #[test]
    fn a_repeated_directive_is_rejected(
        fault in fault_plan(),
        chaos in chaos_plan(),
        pick in any::<usize>(),
    ) {
        if !fault.is_empty() {
            let text = with_repeat(&fault.to_string(), pick);
            prop_assert!(FaultPlan::parse(&text).is_err(), "{text} parsed");
        }
        if !chaos.is_empty() {
            let text = with_repeat(&chaos.to_string(), pick);
            prop_assert!(ChaosPlan::parse(&text).is_err(), "{text} parsed");
        }
    }
}

//! Property tests for `lint:allow` suppression: a directive must suppress
//! exactly the rules it names, on exactly the lines it covers.

use proptest::prelude::*;
use spacea_lint::check_source;
use spacea_lint::rules::{FileKind, FileMeta, RuleId};
use std::collections::BTreeSet;

/// A `sim` library file: the one place every rule applies at once.
fn meta() -> FileMeta {
    FileMeta { rel: "crates/sim/src/x.rs".into(), krate: "sim".into(), kind: FileKind::Lib }
}

/// The rules with a per-site (token-level) trigger. D5 is graph-level —
/// it only fires from `lint_scans`/`check_taint`, never `check_source` —
/// so it is out of scope for these properties.
const PER_SITE: [RuleId; 5] = [RuleId::D1, RuleId::D2, RuleId::D3, RuleId::D4, RuleId::R1];

/// One violating statement per rule.
fn violation_line(rule: RuleId) -> &'static str {
    match rule {
        RuleId::D1 => "    let m: HashMap<u32, u32> = Default::default();",
        RuleId::D2 => "    let t = Instant::now();",
        RuleId::D3 => "    let c = RefCell::new(0u32);",
        RuleId::D4 => "    let s = xs.iter().sum::<f64>();",
        RuleId::D5 => unreachable!("D5 has no per-site trigger"),
        RuleId::R1 => "    let v = m.get(&0).unwrap();",
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every violation line sits under a directive naming an arbitrary rule
    /// subset: exactly the named rules go quiet, every other rule still
    /// fires through the directive.
    #[test]
    fn allow_suppresses_exactly_the_named_rules(
        allowed in proptest::collection::vec(any::<bool>(), 5..=5),
        reason_ix in 0usize..3,
    ) {
        let reason = ["", "why not", "see DESIGN.md"][reason_ix];
        let names: Vec<&str> = PER_SITE
            .iter()
            .zip(&allowed)
            .filter(|(_, &on)| on)
            .map(|(r, _)| r.name())
            .collect();
        let mut src = String::from("fn f() {\n");
        for rule in PER_SITE {
            if !names.is_empty() {
                src.push_str(&format!("    // lint:allow({}) {}\n", names.join(", "), reason));
            }
            src.push_str(violation_line(rule));
            src.push('\n');
        }
        src.push_str("}\n");

        let fired: BTreeSet<&str> =
            check_source(&meta(), &src).iter().map(|v| v.rule.name()).collect();
        for rule in PER_SITE {
            let expected = !names.contains(&rule.name());
            prop_assert_eq!(
                fired.contains(rule.name()),
                expected,
                "rule {} (allowed: {:?})",
                rule.name(),
                names
            );
        }
    }

    /// A directive reaches its own line and the immediately following line —
    /// never further. Any blank line in between re-arms the rule.
    #[test]
    fn allow_reaches_only_the_next_line(gap in 0usize..4) {
        let mut src = String::from("fn f() {\n    // lint:allow(R1) scoped\n");
        for _ in 0..gap {
            src.push('\n');
        }
        src.push_str("    let v = m.get(&0).unwrap();\n}\n");
        let fired = check_source(&meta(), &src);
        prop_assert_eq!(fired.is_empty(), gap == 0, "gap {}: {:?}", gap, &fired);
    }

    /// Directives never suppress across files or leak into unrelated code:
    /// a file whose only content is allow directives plus clean lines
    /// reports nothing, whatever the directives name.
    #[test]
    fn allow_on_clean_code_is_inert(
        allowed in proptest::collection::vec(any::<bool>(), 5..=5),
    ) {
        let mut names: Vec<&str> = PER_SITE
            .iter()
            .zip(&allowed)
            .filter(|(_, &on)| on)
            .map(|(r, _)| r.name())
            .collect();
        if names.is_empty() {
            names.push("R1");
        }
        let src = format!(
            "// lint:allow({}) nothing to suppress here\nfn f() -> u32 {{\n    41 + 1\n}}\n",
            names.join(", ")
        );
        let fired = check_source(&meta(), &src);
        prop_assert!(fired.is_empty(), "{:?}", &fired);
    }
}

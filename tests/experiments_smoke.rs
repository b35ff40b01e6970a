//! Smoke test: every experiment module runs end-to-end on the quick
//! configuration and produces structurally sound output.

use spacea::core::experiments::{self, ExpConfig, SuiteCache};

#[test]
fn all_experiments_produce_output() {
    let mut cache = SuiteCache::new(ExpConfig::quick());

    let outputs = vec![
        experiments::table1::run(&mut cache),
        experiments::fig2::run(&mut cache),
        experiments::fig5::run(&mut cache),
        experiments::table2::run(),
        experiments::fig6::run(&mut cache),
        experiments::fig7::run_with(&mut cache, &experiments::fig7::Fig7Sweep::quick()),
        experiments::fig8::run(&mut cache),
        experiments::fig9::run(&mut cache),
        experiments::fig10::run(&mut cache),
        experiments::table3::run(&mut cache),
    ];

    let expected_ids =
        ["table1", "fig2", "fig5", "table2", "fig6", "fig7", "fig8", "fig9", "fig10", "table3"];
    assert_eq!(outputs.len(), expected_ids.len());
    for (out, id) in outputs.iter().zip(expected_ids) {
        assert_eq!(out.id, id);
        assert!(!out.table.rows.is_empty(), "{id} main table has rows");
        assert!(!out.headline.is_empty() || id == "table1", "{id} reports headline numbers");
        // Rendering must not panic and must contain the title.
        let text = out.table.to_text();
        assert!(text.starts_with("## "), "{id} renders a titled table");
        let csv = out.table.to_csv();
        assert_eq!(
            csv.lines().count(),
            out.table.rows.len() + 1,
            "{id} CSV has header + one line per row"
        );
    }

    // Measured headline values must be finite; positive wherever positivity
    // is structural (fig8's savings are differences and may go negative at
    // the miniature quick() scale).
    for out in &outputs {
        for (name, paper, measured) in &out.headline {
            assert!(measured.is_finite(), "{}: {name} measured non-finite", out.id);
            if *paper > 0.0 && out.id != "fig8" {
                assert!(*measured > 0.0, "{}: {name} measured non-positive", out.id);
            }
        }
    }
}

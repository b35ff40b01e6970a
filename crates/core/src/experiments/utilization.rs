//! Component-utilization study: where do the cycles go?
//!
//! The paper's Figure 8 discussion observes that for the poorly-behaved
//! matrices "DRAM banks and PEs are idle in most of the cycles" while
//! interconnect traffic dominates. This study reports the busy fractions
//! of the Product-PEs, the matrix banks and the vector banks per Table I
//! matrix, confirming that claim quantitatively.

use super::context::{ExpConfig, ExpOutput, MapKind, SuiteCache};
use crate::table::{pct, Table};
use spacea_harness::JobSpec;
use spacea_matrix::suite;

/// Each Table I matrix simulated with the proposed mapping.
pub fn jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    suite::entries().iter().map(|e| cfg.sim_job(e.id, MapKind::Proposed)).collect()
}

/// Renders the per-matrix busy fractions.
pub fn run(cache: &mut SuiteCache) -> ExpOutput {
    let mut table = Table::new(
        "Component busy fractions (proposed mapping)",
        &["ID", "Matrix", "PE busy", "Matrix banks busy", "Vector banks busy", "L1 hit"],
    );
    let mut idle_heavy: Vec<String> = Vec::new();
    for entry in suite::entries() {
        let r = cache.sim(entry.id, MapKind::Proposed);
        table.push_row(vec![
            entry.id.to_string(),
            entry.name.to_string(),
            pct(r.pe_busy_fraction),
            pct(r.matrix_bank_busy_fraction),
            pct(r.vector_bank_busy_fraction),
            pct(r.l1_hit_rate),
        ]);
        if r.pe_busy_fraction < 0.25 && r.matrix_bank_busy_fraction < 0.25 {
            idle_heavy.push(entry.name.to_string());
        }
    }
    table.push_note(format!(
        "matrices where both PEs and matrix banks idle >75% of cycles: {} \
         (the paper singles out matrices 7, 12, 13 in its Figure 8 discussion)",
        if idle_heavy.is_empty() { "none".to_string() } else { idle_heavy.join(", ") }
    ));
    ExpOutput { id: "utilization", table, ..Default::default() }
}

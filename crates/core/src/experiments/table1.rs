//! Table I: the evaluation matrix suite — published statistics vs the scaled
//! synthetic stand-ins actually simulated.

use super::context::{ExpOutput, SuiteCache};
use crate::table::{fmt, Table};
use spacea_matrix::suite;

/// Regenerates Table I.
pub fn run(cache: &mut SuiteCache) -> ExpOutput {
    let mut table = Table::new(
        "Table I: sparse matrix suite (published vs scaled synthetic)",
        &[
            "ID",
            "Matrix",
            "Domain",
            "n (paper)",
            "nnz (paper)",
            "mu (paper)",
            "sigma (paper)",
            "n (gen)",
            "nnz (gen)",
            "mu (gen)",
            "sigma (gen)",
        ],
    );
    let mut headline = Vec::new();
    for entry in suite::entries() {
        let a = cache.matrix(entry.id);
        let s = a.stats();
        table.push_row(vec![
            entry.id.to_string(),
            entry.name.to_string(),
            entry.domain.to_string(),
            entry.published.n.to_string(),
            entry.published.nnz.to_string(),
            fmt(entry.published.mean, 2),
            fmt(entry.published.stddev, 2),
            s.rows.to_string(),
            s.nnz.to_string(),
            fmt(s.mean_row_nnz, 2),
            fmt(s.stddev_row_nnz, 2),
        ]);
        headline.push((format!("{} mu", entry.name), entry.published.mean, s.mean_row_nnz));
    }
    table.push_note(format!(
        "matrices scaled 1/{} in rows and nnz; mu and the sigma/mu shape are preserved (DESIGN.md section 4)",
        cache.cfg.scale
    ));
    ExpOutput { id: "table1", table, extra_tables: vec![], headline }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::context::ExpConfig;

    #[test]
    fn fifteen_rows() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        let out = run(&mut cache);
        assert_eq!(out.table.rows.len(), 15);
        assert_eq!(out.id, "table1");
    }

    #[test]
    fn generated_mu_tracks_published_for_structural() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        let out = run(&mut cache);
        // Structural rows (not 12-14) should track mu within 40% whenever the
        // scaled matrix is big enough for the band not to clip at the edges.
        for (row, (name, paper, measured)) in out.table.rows.iter().zip(&out.headline) {
            if name.contains("soc-sign") || name.contains("Stanford") || name.contains("webbase") {
                continue;
            }
            let gen_rows: usize = row[7].parse().expect("generated n column");
            if gen_rows < 4 * *paper as usize {
                continue; // band clipped by the matrix edge at this scale
            }
            let rel = (measured - paper).abs() / paper;
            assert!(rel < 0.4, "{name}: paper {paper} vs measured {measured}");
        }
    }
}

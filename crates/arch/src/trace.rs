//! The machine's events, and the trace records an observed run keeps.

use crate::packet::Requester;
use spacea_obs::Slice;
use spacea_sim::Cycle;
use std::collections::BTreeMap;
use std::fmt;

/// One traced machine event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Cycle the event fired.
    pub cycle: Cycle,
    /// What happened.
    pub event: TraceEvent,
}

/// The machine's events: the event loop schedules and handles these, and
/// an observed run traces them as they fire. Every event carries its
/// destination component id.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A Product-PE control-unit scan step.
    PeStep {
        /// Linear PE slot.
        pe: u32,
    },
    /// A DRAM row arrived in a PE queue.
    RowLoaded {
        /// Linear PE slot.
        pe: u32,
        /// Per-PE DRAM row sequence id.
        row_id: u32,
    },
    /// Type I: an X request reached a vault controller.
    XRequestAtVault {
        /// Global vault id.
        vault: u32,
        /// Input-vector block index.
        block: u64,
        /// Who the response is routed back to.
        from: Requester,
    },
    /// Type II: an X response reached a vault controller, which fills its
    /// L2 CAM and answers the requests waiting on the block.
    XResponseAtVault {
        /// Global vault id.
        vault: u32,
        /// Input-vector block index.
        block: u64,
    },
    /// An X request reached its owning vector bank.
    XRequestAtBank {
        /// Vector bank id.
        bank: u32,
        /// Input-vector block index.
        block: u64,
    },
    /// An X response filled a product bank group's L1 CAM, waking the PE
    /// entries waiting on the block.
    L1Fill {
        /// Global product bank-group id.
        bg: u32,
        /// Input-vector block index.
        block: u64,
    },
    /// Type III: a Y partial reached the vault owning its output element.
    /// The per-vector partial values travel out of band, so events stay
    /// `Copy`.
    YAtVault {
        /// Global vault id.
        vault: u32,
        /// Output row index.
        row: u32,
    },
    /// A Y partial reached its Accumulation-PE.
    YAtBank {
        /// Vector bank id.
        bank: u32,
        /// Output row index.
        row: u32,
    },
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>10}] ", self.cycle)?;
        match self.event {
            TraceEvent::PeStep { pe } => write!(f, "pe {pe}: scan step"),
            TraceEvent::RowLoaded { pe, row_id } => {
                write!(f, "pe {pe}: DRAM row {row_id} loaded into PE queue")
            }
            TraceEvent::XRequestAtVault { vault, block, .. } => {
                write!(f, "vault {vault}: X request for block {block} (type I)")
            }
            TraceEvent::XResponseAtVault { vault, block } => {
                write!(f, "vault {vault}: X response for block {block} (type II)")
            }
            TraceEvent::XRequestAtBank { bank, block } => {
                write!(f, "vector bank {bank}: serving X block {block}")
            }
            TraceEvent::L1Fill { bg, block } => {
                write!(f, "bank group {bg}: L1 CAM filled with block {block}")
            }
            TraceEvent::YAtVault { vault, row } => {
                write!(f, "vault {vault}: Y partial for row {row} (type III)")
            }
            TraceEvent::YAtBank { bank, row } => {
                write!(f, "vector bank {bank}: accumulating Y[{row}]")
            }
        }
    }
}

/// Pairs request/response trace records into timeline duration slices:
/// an X request at a vault opens a slice that its X response closes, and a
/// Y partial's vault arrival opens one that its bank arrival closes. Slices
/// land on the track of the vault that saw the request, sorted by start.
///
/// Unmatched opens (responses past the bounded trace prefix) are dropped —
/// a slice with no known end would render as running forever.
pub(crate) fn timeline_slices(records: &[TraceRecord]) -> Vec<Slice> {
    let mut open_x: BTreeMap<(u32, u64), Cycle> = BTreeMap::new();
    let mut open_y: BTreeMap<u32, (u32, Cycle)> = BTreeMap::new();
    let mut slices = Vec::new();
    for r in records {
        match r.event {
            TraceEvent::XRequestAtVault { vault, block, .. } => {
                open_x.entry((vault, block)).or_insert(r.cycle);
            }
            TraceEvent::XResponseAtVault { vault, block } => {
                if let Some(start) = open_x.remove(&(vault, block)) {
                    slices.push(Slice {
                        vault: Some(vault),
                        name: format!("X block {block}"),
                        start,
                        end: r.cycle,
                    });
                }
            }
            TraceEvent::YAtVault { vault, row } => {
                open_y.entry(row).or_insert((vault, r.cycle));
            }
            TraceEvent::YAtBank { row, .. } => {
                if let Some((vault, start)) = open_y.remove(&row) {
                    slices.push(Slice {
                        vault: Some(vault),
                        name: format!("Y row {row}"),
                        start,
                        end: r.cycle,
                    });
                }
            }
            _ => {}
        }
    }
    slices.sort_by_key(|s| (s.start, s.vault));
    slices
}

#[cfg(test)]
mod tests {
    use super::*;

    const BG: Requester = Requester::BankGroup(0);

    #[test]
    fn request_response_pairs_become_slices() {
        let records = [
            TraceRecord {
                cycle: 10,
                event: TraceEvent::XRequestAtVault { vault: 1, block: 4, from: BG },
            },
            TraceRecord { cycle: 12, event: TraceEvent::YAtVault { vault: 0, row: 9 } },
            TraceRecord { cycle: 30, event: TraceEvent::XResponseAtVault { vault: 1, block: 4 } },
            TraceRecord { cycle: 35, event: TraceEvent::YAtBank { bank: 2, row: 9 } },
            // Unmatched request: no response in the bounded prefix.
            TraceRecord {
                cycle: 40,
                event: TraceEvent::XRequestAtVault { vault: 2, block: 7, from: BG },
            },
        ];
        let slices = timeline_slices(&records);
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].name, "X block 4");
        assert_eq!((slices[0].start, slices[0].end), (10, 30));
        assert_eq!(slices[0].vault, Some(1));
        assert_eq!(slices[1].name, "Y row 9");
        assert_eq!((slices[1].start, slices[1].end), (12, 35));
        assert_eq!(slices[1].vault, Some(0));
    }

    #[test]
    fn display_is_nonempty_for_all_kinds() {
        let kinds = [
            TraceEvent::PeStep { pe: 1 },
            TraceEvent::RowLoaded { pe: 1, row_id: 2 },
            TraceEvent::XRequestAtVault { vault: 3, block: 4, from: Requester::Vault(0) },
            TraceEvent::XResponseAtVault { vault: 3, block: 4 },
            TraceEvent::XRequestAtBank { bank: 5, block: 4 },
            TraceEvent::L1Fill { bg: 6, block: 4 },
            TraceEvent::YAtVault { vault: 3, row: 7 },
            TraceEvent::YAtBank { bank: 5, row: 7 },
        ];
        for event in kinds {
            let r = TraceRecord { cycle: 42, event };
            let s = r.to_string();
            assert!(s.contains("42"), "{s}");
            assert!(s.len() > 15, "{s}");
        }
    }
}

//! Bandwidth-limited shared links (TSV bundles, SerDes lanes).
//!
//! Section II-C: 1024 TSVs at 2 Gbps give 256 GB/s per cube — 16 B/cycle for
//! each vault's TSV slice at 1 GHz. A link is a serial resource: a transfer
//! occupies it for `ceil(bytes / bytes_per_cycle)` cycles after a fixed
//! per-transfer latency, and later transfers queue behind earlier ones.

use crate::Cycle;

/// A shared, bandwidth-limited, serial link.
///
/// # Example
///
/// ```
/// use spacea_sim::link::Link;
///
/// // A vault TSV slice: 2-cycle latency, 16 bytes/cycle.
/// let mut tsv = Link::new(2, 16);
/// let done = tsv.transfer(0, 32);
/// assert_eq!(done, 2 + 2); // latency + 2 cycles of serialization
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    latency: Cycle,
    bytes_per_cycle: usize,
    pipelined: bool,
    busy_until: Cycle,
    bytes_total: u64,
}

impl Link {
    /// Creates an idle *pipelined* link: the fixed latency is wire flight
    /// time, so back-to-back transfers are spaced only by serialization
    /// (wormhole-style NoC links, SerDes lanes).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is zero.
    pub fn new(latency: Cycle, bytes_per_cycle: usize) -> Self {
        assert!(bytes_per_cycle > 0, "link bandwidth must be positive");
        Link { latency, bytes_per_cycle, pipelined: true, busy_until: 0, bytes_total: 0 }
    }

    /// Creates an idle *bus-style* link: a transfer occupies the link for
    /// its serialization time plus half its transfer latency (a segmented
    /// bus: the tail segment frees while the head is still in flight). This
    /// models the TSV column bus a bank group arbitrates for — the reason
    /// the paper's Figure 9 sees real slowdowns as TSV latency grows.
    pub fn new_bus(latency: Cycle, bytes_per_cycle: usize) -> Self {
        assert!(bytes_per_cycle > 0, "link bandwidth must be positive");
        Link { latency, bytes_per_cycle, pipelined: false, busy_until: 0, bytes_total: 0 }
    }

    /// Total bytes moved across the link so far (the paper's TSV traffic
    /// metric).
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }

    /// Occupies the link for a `bytes`-byte transfer starting no earlier than
    /// `earliest`; returns the cycle the last byte arrives.
    pub fn transfer(&mut self, earliest: Cycle, bytes: usize) -> Cycle {
        let start = earliest.max(self.busy_until);
        let ser = (bytes.div_ceil(self.bytes_per_cycle)) as Cycle;
        let done = start + self.latency + ser;
        // A pipelined link is occupied only for the serialization time; a
        // bus-style link is additionally held for half the flight latency.
        self.busy_until =
            if self.pipelined { start + ser } else { start + ser + self.latency.div_ceil(2) };
        self.bytes_total += bytes as u64;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transfer_latency() {
        let mut l = Link::new(3, 16);
        assert_eq!(l.transfer(10, 16), 10 + 3 + 1);
        assert_eq!(l.bytes_total(), 16);
    }

    #[test]
    fn transfers_queue_for_bandwidth() {
        let mut l = Link::new(1, 8);
        let d1 = l.transfer(0, 32); // occupies cycles 0..4
        assert_eq!(d1, 1 + 4);
        let d2 = l.transfer(0, 8); // must wait for cycle 4
        assert_eq!(d2, 4 + 1 + 1);
    }

    #[test]
    fn latency_is_pipelined() {
        // Two back-to-back 1-cycle transfers with big latency should finish
        // one cycle apart, not latency apart.
        let mut l = Link::new(10, 8);
        let d1 = l.transfer(0, 8);
        let d2 = l.transfer(0, 8);
        assert_eq!(d2 - d1, 1);
    }

    #[test]
    fn partial_word_rounds_up() {
        let mut l = Link::new(0, 16);
        assert_eq!(l.transfer(0, 1), 1);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        Link::new(1, 0);
    }

    #[test]
    fn bus_link_holds_for_half_latency() {
        let mut l = Link::new_bus(10, 8);
        let d1 = l.transfer(0, 8);
        let d2 = l.transfer(0, 8);
        assert_eq!(d1, 11);
        // Occupied for ser (1) + latency/2 (5) = 6 cycles per transfer.
        assert_eq!(d2, 6 + 11, "bus transfers serialize with half the flight latency");
    }
}

//! Packet formats (paper Section III-C).
//!
//! The vault controller processes three packet types: input-vector requests
//! (Type I), input-vector responses (Type II), and output partial results
//! (Type III).

/// Who is waiting for an input-vector response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Requester {
    /// A product bank group (global bank-group id) under some vault.
    BankGroup(usize),
    /// Another vault controller (global vault id).
    Vault(usize),
}

/// Byte sizes of the packets on TSVs and the NoC.
///
/// Request and matrix-data packets are independent of the batch width; the
/// data-carrying X-response and Y-partial packets scale with the number of
/// vectors `k` in a fused SpMM pass (one block / one partial per vector
/// behind a shared header), which is what amortizes row activations and
/// header overhead across the batch. At `k = 1` the scaled sizes equal the
/// single-vector constants, so SpMV timing is unchanged.
pub mod size {
    use crate::config::{BLOCK_BYTES, DRAM_TIMING};

    /// Type I: X request — block id + source routing info.
    pub const X_REQUEST: usize = 16;
    /// A whole DRAM row moved between a bank and its PE queue or update
    /// buffer (local, no packet header).
    pub const DRAM_ROW: usize = DRAM_TIMING.row_bytes;

    /// Type II size for a `k`-vector batch: one 32-byte block per vector
    /// plus the shared 8-byte header. `k = 1` is the paper's 40-byte
    /// single-vector response.
    pub const fn x_response_bytes(k: usize) -> usize {
        8 + BLOCK_BYTES * k
    }

    /// Type III size for a `k`-vector batch: one `f64` partial per vector
    /// plus the shared row-index header. `k = 1` is the paper's 16-byte
    /// single-vector partial.
    pub const fn y_partial_bytes(k: usize) -> usize {
        8 + 8 * k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_carries_a_block() {
        // 4 × f64 = 32 data bytes plus an 8-byte header.
        assert_eq!(size::x_response_bytes(1), 32 + 8);
    }

    #[test]
    fn batched_sizes_reduce_to_the_paper_constants_at_k1() {
        assert_eq!(size::x_response_bytes(1), 40);
        assert_eq!(size::y_partial_bytes(1), 16);
        // A 4-vector batch ships 4 blocks behind one header: cheaper than
        // four single-vector responses.
        assert!(size::x_response_bytes(4) < 4 * size::x_response_bytes(1));
        assert!(size::y_partial_bytes(4) < 4 * size::y_partial_bytes(1));
    }

    #[test]
    fn requester_is_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Requester::BankGroup(3));
        s.insert(Requester::Vault(3));
        assert_eq!(s.len(), 2);
    }
}

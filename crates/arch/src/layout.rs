//! Data layout: where matrix rows, input-vector blocks and output elements
//! live in the machine (paper Section III-A).
//!
//! * The sparse matrix is distributed by the mapping: each Product-PE's rows
//!   are packed into its bank's DRAM rows, each DRAM row holding one 4-byte
//!   row-index header plus `(col, value)` pairs of a single matrix row.
//! * The input and output vectors are partitioned block-cyclically (32-byte
//!   blocks = 4 elements) over the vector banks on the bottom DRAM layer,
//!   with `X_j` and `Y_j` co-located so iterative SpMV needs no inter-run
//!   data movement.

use crate::config::{HwConfig, BLOCK_BYTES, DRAM_TIMING};

/// Vector elements (`f64`) per block.
const ELEMS_PER_BLOCK: usize = BLOCK_BYTES / 8;

/// Blocks per vector-bank DRAM row.
const BLOCKS_PER_ROW: u64 = (DRAM_TIMING.row_bytes / BLOCK_BYTES) as u64;

/// Physical coordinates of a Product-PE slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId {
    /// Cube index.
    pub cube: usize,
    /// Vault index within the cube.
    pub vault: usize,
    /// Matrix layer (bank group within the vault), `0..product_bgs_per_vault`.
    pub layer: usize,
    /// Bank within the bank group.
    pub bank: usize,
}

impl SlotId {
    /// Global vault id (`cube * vaults_per_cube + vault`).
    pub fn global_vault(&self, cfg: &HwConfig) -> usize {
        self.cube * cfg.shape.vaults_per_cube + self.vault
    }

    /// Global product bank-group id.
    pub fn global_bank_group(&self, cfg: &HwConfig) -> usize {
        self.global_vault(cfg) * cfg.shape.product_bgs_per_vault + self.layer
    }
}

/// Address helpers mapping linear ids to machine coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct DataLayout {
    vaults_per_cube: usize,
    product_bgs_per_vault: usize,
    banks_per_bg: usize,
    vector_banks: usize,
}

impl DataLayout {
    /// Builds the layout for a configuration.
    pub fn new(cfg: &HwConfig) -> Self {
        DataLayout {
            vaults_per_cube: cfg.shape.vaults_per_cube,
            product_bgs_per_vault: cfg.shape.product_bgs_per_vault,
            banks_per_bg: cfg.shape.banks_per_bg,
            vector_banks: cfg.vector_banks(),
        }
    }

    /// The block index holding vector element `j`.
    pub fn block_of_element(&self, j: usize) -> u64 {
        (j / ELEMS_PER_BLOCK) as u64
    }

    /// The vector bank holding `block` (block-cyclic distribution).
    pub fn home_bank_of_block(&self, block: u64) -> usize {
        (block % self.vector_banks as u64) as usize
    }

    /// The global vault that owns vector bank `bank`.
    ///
    /// Vector banks are enumerated `global_vault * banks_per_bg + bank_in_bg`.
    pub fn vault_of_vector_bank(&self, bank: usize) -> usize {
        bank / self.banks_per_bg
    }

    /// The global vault holding vector `block`.
    pub fn home_vault_of_block(&self, block: u64) -> usize {
        self.vault_of_vector_bank(self.home_bank_of_block(block))
    }

    /// The cube of a global vault id.
    pub fn cube_of_vault(&self, global_vault: usize) -> usize {
        global_vault / self.vaults_per_cube
    }

    /// The local vault index (within its cube) of a global vault id.
    pub fn local_vault(&self, global_vault: usize) -> usize {
        global_vault % self.vaults_per_cube
    }

    /// Decomposes a linear product-PE slot index into coordinates.
    ///
    /// Slots are linearized as
    /// `((cube · V + vault) · L + layer) · B + bank`, matching
    /// `spacea_mapping::Placement`.
    pub fn slot_from_linear(&self, slot: usize) -> SlotId {
        let bank = slot % self.banks_per_bg;
        let rest = slot / self.banks_per_bg;
        let layer = rest % self.product_bgs_per_vault;
        let rest = rest / self.product_bgs_per_vault;
        let vault = rest % self.vaults_per_cube;
        let cube = rest / self.vaults_per_cube;
        SlotId { cube, vault, layer, bank }
    }

    /// The DRAM row (within its vector bank) holding vector `block`.
    pub fn dram_row_of_block(&self, block: u64) -> u64 {
        // Consecutive blocks resident in the same bank pack into rows.
        (block / self.vector_banks as u64) / BLOCKS_PER_ROW
    }

    /// The DRAM row (within its vector bank) holding output element `i`.
    pub fn dram_row_of_y(&self, i: usize) -> u64 {
        self.dram_row_of_block(self.block_of_element(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> DataLayout {
        DataLayout::new(&HwConfig::tiny())
    }

    #[test]
    fn block_of_element_groups_by_four() {
        let l = layout();
        assert_eq!(l.block_of_element(0), 0);
        assert_eq!(l.block_of_element(3), 0);
        assert_eq!(l.block_of_element(4), 1);
    }

    #[test]
    fn blocks_cycle_over_banks() {
        let l = layout();
        // tiny: 8 vector banks.
        assert_eq!(l.home_bank_of_block(0), 0);
        assert_eq!(l.home_bank_of_block(7), 7);
        assert_eq!(l.home_bank_of_block(8), 0);
    }

    #[test]
    fn vector_bank_to_vault() {
        let l = layout();
        // 2 banks per bank group → banks 0,1 in vault 0; banks 6,7 in vault 3.
        assert_eq!(l.vault_of_vector_bank(0), 0);
        assert_eq!(l.vault_of_vector_bank(1), 0);
        assert_eq!(l.vault_of_vector_bank(7), 3);
        assert_eq!(l.home_vault_of_block(7), 3);
    }

    #[test]
    fn slot_linearization_roundtrip() {
        let cfg = HwConfig::tiny();
        let l = DataLayout::new(&cfg);
        let shape = cfg.shape;
        let mut linear = 0usize;
        for cube in 0..shape.cubes {
            for vault in 0..shape.vaults_per_cube {
                for layer in 0..shape.product_bgs_per_vault {
                    for bank in 0..shape.banks_per_bg {
                        let slot = l.slot_from_linear(linear);
                        assert_eq!(slot, SlotId { cube, vault, layer, bank });
                        linear += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn global_ids() {
        let cfg = HwConfig::tiny();
        let slot = SlotId { cube: 0, vault: 2, layer: 1, bank: 0 };
        assert_eq!(slot.global_vault(&cfg), 2);
        assert_eq!(slot.global_bank_group(&cfg), 5);
    }

    #[test]
    fn cube_decomposition() {
        let cfg = HwConfig::with_shape(spacea_mapping::MachineShape {
            cubes: 2,
            vaults_per_cube: 4,
            product_bgs_per_vault: 2,
            banks_per_bg: 2,
        });
        let l = DataLayout::new(&cfg);
        assert_eq!(l.cube_of_vault(5), 1);
        assert_eq!(l.local_vault(5), 1);
    }

    #[test]
    fn y_rows_pack_consecutive_resident_blocks() {
        let l = layout();
        // 256 B row / 32 B block = 8 resident blocks per row.
        // Blocks 0, 8, 16… live in bank 0; the first 8 of them share row 0.
        assert_eq!(l.dram_row_of_block(0), 0);
        assert_eq!(l.dram_row_of_block(8), 0);
        assert_eq!(l.dram_row_of_block(8 * 8), 1);
        assert_eq!(l.dram_row_of_y(0), 0);
    }
}

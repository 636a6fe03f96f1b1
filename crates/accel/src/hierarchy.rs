//! Hierarchical organization and resource accounting (§II-B2).
//!
//! ISAAC-class accelerators arrange crossbars in a hierarchy — arrays
//! inside in-situ multiply-accumulate units (IMAs), IMAs inside tiles,
//! tiles on a chip — with ADCs, DACs and the shift-and-add network
//! shared at each level, and (with this paper's scheme) one error
//! correction unit per IMA whose correction table is time-multiplexed
//! across the operands of a group (§VI). This module plans a network's
//! placement onto that hierarchy and accounts for the resources and
//! per-inference energy, including the check-bit overhead the code adds.
//!
//! Absolute energy numbers are *relative accounting*, calibrated to
//! ISAAC-era constants (32 nm); what the experiments compare is the
//! overhead between protection schemes, which depends only on the
//! ratios.

use neural::QuantizedNetwork;

use crate::{AccelConfig, ProtectionScheme};

/// Geometry of the accelerator hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// Rows per crossbar array.
    pub array_rows: usize,
    /// Columns per crossbar array.
    pub array_cols: usize,
    /// Crossbar arrays per IMA (8 in ISAAC).
    pub arrays_per_ima: usize,
    /// IMAs per tile (12 in ISAAC).
    pub imas_per_tile: usize,
    /// Energy per ADC conversion (pJ).
    pub adc_energy_pj: f64,
    /// Energy per driven cell per cycle (pJ) — array read energy.
    pub cell_energy_pj: f64,
    /// Energy per ECU decode (residue, table lookup, correction,
    /// detection) (pJ).
    pub ecu_energy_pj: f64,
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig {
            array_rows: 128,
            array_cols: 128,
            arrays_per_ima: 8,
            imas_per_tile: 12,
            adc_energy_pj: 2.0,
            cell_energy_pj: 0.02,
            ecu_energy_pj: 1.5,
        }
    }
}

/// Resource and energy plan for one network on the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourcePlan {
    /// Physical crossbar rows storing data bits.
    pub data_rows: usize,
    /// Physical rows added by check bits.
    pub check_rows: usize,
    /// 128×128 arrays occupied.
    pub arrays: usize,
    /// IMAs occupied.
    pub imas: usize,
    /// Tiles occupied.
    pub tiles: usize,
    /// Fraction of physical rows that are check-bit overhead.
    pub storage_overhead: f64,
    /// ADC conversions per inference.
    pub adc_conversions: u64,
    /// ECU decodes per inference.
    pub ecu_decodes: u64,
    /// Estimated array + ADC + ECU energy per inference (nJ).
    pub energy_nj: f64,
    /// Pipeline cycles per inference (bit-serial input streaming; the
    /// ECU adds pipeline *stages*, not cycles — §VIII-B3).
    pub cycles: u64,
}

/// Plans a quantized network onto the hierarchy under a protection
/// scheme.
///
/// Row counts follow the same packing the engine uses: per-row coding
/// for `None`/`Static16`, 8-operand 128-bit groups for the grouped
/// schemes, `ceil(width / cell_bits)` physical rows per coded word,
/// column chunks of at most `array_cols`.
pub fn plan_network(
    qnet: &QuantizedNetwork,
    accel: &AccelConfig,
    hierarchy: &HierarchyConfig,
) -> ResourcePlan {
    let cell_bits = accel.device.bits_per_cell;
    let input_bits = accel.input_bits as u64;
    let mut data_rows = 0usize;
    let mut total_rows = 0usize;
    let mut adc_conversions = 0u64;
    let mut ecu_decodes = 0u64;
    let mut energy_pj = 0.0f64;
    let mut cycles = 0u64;

    for matrix in qnet.mvm_matrices() {
        let (out, inp) = (matrix.out_dim(), matrix.in_dim());
        let chunks = inp.div_ceil(hierarchy.array_cols);
        let cols_per_chunk = inp.div_ceil(chunks);

        let (stacks_per_chunk, word_bits, coded_bits, decodes_per_stack) = match &accel.scheme {
            ProtectionScheme::None => (out, 16u32, 16u32, 0u64),
            ProtectionScheme::Static16 => {
                let code = crate::scheme::static16_code(cell_bits);
                (out, 16, 16 + code.check_bits(), input_bits)
            }
            ProtectionScheme::Static128 => {
                let code = crate::scheme::static128_code(cell_bits);
                (out.div_ceil(8), 128, 128 + code.check_bits(), input_bits)
            }
            ProtectionScheme::DataAware { check_bits, .. } => {
                (out.div_ceil(8), 128, 128 + check_bits, input_bits)
            }
        };

        let rows_per_stack = coded_bits.div_ceil(cell_bits) as usize;
        let data_rows_per_stack = word_bits.div_ceil(cell_bits) as usize;
        let matrix_rows = chunks * stacks_per_chunk * rows_per_stack;
        total_rows += matrix_rows;
        data_rows += chunks * stacks_per_chunk * data_rows_per_stack;

        // Per inference: every physical row converts once per input bit.
        let conversions = matrix_rows as u64 * input_bits;
        adc_conversions += conversions;
        ecu_decodes += chunks as u64 * stacks_per_chunk as u64 * decodes_per_stack;

        energy_pj += conversions as f64 * hierarchy.adc_energy_pj;
        energy_pj += matrix_rows as f64
            * cols_per_chunk as f64
            * input_bits as f64
            * 0.5 // average input-bit density
            * hierarchy.cell_energy_pj;

        // Layers execute sequentially; within a layer the hierarchy
        // pipelines rows, so a layer costs one bit-serial pass.
        cycles += input_bits;
    }
    energy_pj += ecu_decodes as f64 * hierarchy.ecu_energy_pj;

    let arrays = total_rows.div_ceil(hierarchy.array_rows);
    let imas = arrays.div_ceil(hierarchy.arrays_per_ima);
    let tiles = imas.div_ceil(hierarchy.imas_per_tile);

    ResourcePlan {
        data_rows,
        check_rows: total_rows - data_rows,
        arrays,
        imas,
        tiles,
        storage_overhead: (total_rows - data_rows) as f64 / total_rows.max(1) as f64,
        adc_conversions,
        ecu_decodes,
        energy_nj: energy_pj / 1000.0,
        cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::{models, QuantizedNetwork};
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn qnet() -> QuantizedNetwork {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        QuantizedNetwork::from_network(&models::mlp2(&mut rng))
    }

    #[test]
    fn unprotected_has_no_check_rows() {
        let plan = plan_network(
            &qnet(),
            &AccelConfig::new(ProtectionScheme::None),
            &HierarchyConfig::default(),
        );
        assert_eq!(plan.check_rows, 0);
        assert_eq!(plan.storage_overhead, 0.0);
        assert_eq!(plan.ecu_decodes, 0);
        assert!(plan.arrays > 0 && plan.imas > 0 && plan.tiles > 0);
    }

    #[test]
    fn mlp2_row_accounting() {
        // MLP2: 784×800 + 800×10 at 2 bits/cell, unprotected:
        // 8 rows/word; layer 1: 7 chunks × 800 stacks × 8 rows.
        let plan = plan_network(
            &qnet(),
            &AccelConfig::new(ProtectionScheme::None),
            &HierarchyConfig::default(),
        );
        let expected_l1 = 7 * 800 * 8;
        let expected_l2 = 7 * 10 * 8;
        assert_eq!(plan.data_rows, expected_l1 + expected_l2);
    }

    #[test]
    fn data_aware_overhead_matches_check_bits() {
        // ABN-9 over 128-bit groups: 9 / (128 + 9) ≈ 6.6 % of rows at
        // 1 bit/cell (exact because every bit is one row).
        let config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_cell_bits(1);
        let plan = plan_network(&qnet(), &config, &HierarchyConfig::default());
        assert!(
            (plan.storage_overhead - 9.0 / 137.0).abs() < 0.01,
            "overhead {}",
            plan.storage_overhead
        );
    }

    #[test]
    fn static16_costs_more_storage_than_data_aware() {
        let s16 = plan_network(
            &qnet(),
            &AccelConfig::new(ProtectionScheme::Static16),
            &HierarchyConfig::default(),
        );
        let abn = plan_network(
            &qnet(),
            &AccelConfig::new(ProtectionScheme::data_aware(9)),
            &HierarchyConfig::default(),
        );
        assert!(s16.storage_overhead > abn.storage_overhead);
        assert!(s16.check_rows > abn.check_rows);
    }

    #[test]
    fn energy_grows_with_protection() {
        let none = plan_network(
            &qnet(),
            &AccelConfig::new(ProtectionScheme::None),
            &HierarchyConfig::default(),
        );
        let abn = plan_network(
            &qnet(),
            &AccelConfig::new(ProtectionScheme::data_aware(9)),
            &HierarchyConfig::default(),
        );
        assert!(abn.energy_nj > none.energy_nj);
        // But the overhead is moderate (the paper's ~6 % ballpark at the
        // storage level; ADC dominance keeps the total modest).
        assert!(abn.energy_nj < none.energy_nj * 1.25);
    }

    #[test]
    fn fewer_bits_per_cell_needs_more_arrays() {
        let at1 = plan_network(
            &qnet(),
            &AccelConfig::new(ProtectionScheme::data_aware(9)).with_cell_bits(1),
            &HierarchyConfig::default(),
        );
        let at4 = plan_network(
            &qnet(),
            &AccelConfig::new(ProtectionScheme::data_aware(9)).with_cell_bits(4),
            &HierarchyConfig::default(),
        );
        assert!(at1.arrays > 3 * at4.arrays);
        // The paper's §VIII-A example: 4-bit coded groups use 35 slices
        // vs 64 unprotected 2-bit slices per 8 operands.
        let unprotected_2b = plan_network(
            &qnet(),
            &AccelConfig::new(ProtectionScheme::None).with_cell_bits(2),
            &HierarchyConfig::default(),
        );
        let coded_4b = plan_network(
            &qnet(),
            &AccelConfig::new(ProtectionScheme::data_aware(9)).with_cell_bits(4),
            &HierarchyConfig::default(),
        );
        assert!(
            coded_4b.data_rows + coded_4b.check_rows
                < unprotected_2b.data_rows + unprotected_2b.check_rows
        );
    }

    #[test]
    fn cycles_count_layers() {
        let plan = plan_network(
            &qnet(),
            &AccelConfig::new(ProtectionScheme::None),
            &HierarchyConfig::default(),
        );
        // Two MVM layers × 16 input bits.
        assert_eq!(plan.cycles, 32);
    }
}

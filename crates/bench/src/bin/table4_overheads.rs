//! Regenerates Table IV and the §VIII-B overhead percentages: ECU and
//! correction-table area/power, tile- and chip-level overheads for the
//! 7–10 check-bit configurations.
//!
//! Usage: `cargo run --release -p bench --bin table4_overheads`

use accel::cost;
use serde::Serialize;

#[derive(Serialize)]
struct OverheadRow {
    check_bits: u32,
    ecu_area_mm2: f64,
    ecu_power_mw: f64,
    table_area_mm2: f64,
    table_power_mw: f64,
    ecu_tile_area_pct: f64,
    tile_area_pct: f64,
    chip_area_pct: f64,
    ecu_tile_power_pct: f64,
    chip_power_pct: f64,
}

fn main() {
    println!("=== Table IV: 9-bit error correction hardware ===");
    let ecu = cost::ecu_cost(9);
    let table = cost::table_cost(9);
    println!(
        "Error Correction Unit (ECU): {:.4} mm²  {:.2} mW   (paper: 0.0031 mm², 1.42 mW)",
        ecu.area_mm2, ecu.power_mw
    );
    println!(
        "Error Correction Table:      {:.4} mm²  {:.2} mW   (paper: 0.0012 mm², 0.51 mW)",
        table.area_mm2, table.power_mw
    );

    println!("\n=== §VIII-B: overhead percentages by check-bit budget ===");
    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "bits", "ECU/tile", "tile", "chip", "ECU power", "chip power"
    );
    let mut rows = Vec::new();
    for bits in 7..=10 {
        let r = cost::overheads(bits);
        println!(
            "{:>5} {:>8.2}% {:>8.2}% {:>8.2}% {:>9.2}% {:>9.2}%",
            bits,
            r.ecu_tile_area_fraction * 100.0,
            r.tile_area_fraction * 100.0,
            r.chip_area_fraction * 100.0,
            r.ecu_tile_power_fraction * 100.0,
            r.chip_power_fraction * 100.0
        );
        rows.push(OverheadRow {
            check_bits: bits,
            ecu_area_mm2: cost::ecu_cost(bits).area_mm2,
            ecu_power_mw: cost::ecu_cost(bits).power_mw,
            table_area_mm2: cost::table_cost(bits).area_mm2,
            table_power_mw: cost::table_cost(bits).power_mw,
            ecu_tile_area_pct: r.ecu_tile_area_fraction * 100.0,
            tile_area_pct: r.tile_area_fraction * 100.0,
            chip_area_pct: r.chip_area_fraction * 100.0,
            ecu_tile_power_pct: r.ecu_tile_power_fraction * 100.0,
            chip_power_pct: r.chip_power_fraction * 100.0,
        });
    }
    println!(
        "\npaper @9 bits: ECU/tile 3.4%, tile 6.3%, chip 5.3%, ECU power 2.1%, chip power 5.8%"
    );
    println!("headline claim: <4.5% area and <4.7% energy at the 7-bit point");
    bench::write_json("table4_overheads", &rows);
}

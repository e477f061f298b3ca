//! Array demo: a 4×4 TFET SRAM macro exercised like a memory.
//!
//! Builds a 16-cell array netlist of the paper's proposed cell — shared
//! wordlines and bitlines with wordline drivers, precharge and a column
//! write mux, compiled once — writes a text pattern through it (every
//! operation is a full array transient, half-select effects included),
//! reads it back through the bitline sense path, and reports the disturb
//! ledger.
//!
//! Run with: `cargo run --release --example sram_array`

use tfet_sram::prelude::*;

const ROWS: usize = 4;
const COLS: usize = 4;

/// Wordline-enable pulse of every write: ~3.5× the proposed cell's
/// 430 ps `WL_crit` at 0.8 V.
const WRITE_PULSE: f64 = 1.5e-9;

fn show(array: &ArrayNetlist) {
    for r in 0..ROWS {
        let row: String = (0..COLS)
            .map(|c| match array.bit(r, c) {
                Some(true) => '1',
                Some(false) => '0',
                None => '?',
            })
            .collect();
        println!("  row {r}: {row}");
    }
}

fn main() -> Result<(), SramError> {
    let mut cell = CellParams::tfet6t(AccessConfig::InwardP)
        .with_beta(0.6)
        .with_vdd(0.8);
    cell.sim.dt = 4e-12; // 16 cells per transient: keep the demo snappy
    let mut array = ArrayNetlist::build(ArraySpec::new(ROWS, COLS, cell))?;

    // The pattern to store: a diagonal plus one corner.
    let pattern: [[bool; COLS]; ROWS] = [
        [true, false, false, true],
        [false, true, false, false],
        [false, false, true, false],
        [true, false, false, true],
    ];

    // Preload the complement (clean rails, no simulation), so every write
    // below has to flip its cell — both 0→1 and 1→0 writes are exercised.
    for (r, row) in pattern.iter().enumerate() {
        for (c, &bit) in row.iter().enumerate() {
            array.set_bit(r, c, !bit);
        }
    }

    println!("writing pattern ({} full-array transients)...", ROWS * COLS);
    let mut disturbs = 0;
    for (r, row) in pattern.iter().enumerate() {
        for (c, &bit) in row.iter().enumerate() {
            let write = array.write_transient(r, c, bit, WRITE_PULSE)?;
            assert!(write.success, "write ({r},{c}) failed");
            disturbs += write.disturbed.len();
            array.commit(&write.finals);
        }
    }
    println!("stored state (decoded from storage-node voltages):");
    show(&array);
    println!("half-select/disturb victims during writes: {disturbs}");
    assert_eq!(disturbs, 0, "no half-selected cell may flip");

    println!("\nreading back through the bitline sense path...");
    let mut errors = 0;
    let mut worst_margin = f64::INFINITY;
    for (r, row) in pattern.iter().enumerate() {
        for (c, &expect) in row.iter().enumerate() {
            let read = array.read_transient(r, c)?;
            if read.value != expect {
                errors += 1;
            }
            assert!(!read.destructive, "destructive read at ({r},{c})");
            worst_margin = worst_margin.min(read.sense_margin);
            array.commit(&read.finals);
        }
    }
    println!(
        "read-back errors: {errors}/{}; worst sense margin {:.0} mV",
        ROWS * COLS,
        worst_margin * 1e3
    );
    assert_eq!(errors, 0, "the macro must read back its pattern");
    Ok(())
}

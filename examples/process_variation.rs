//! Process-variation study of the final design (paper §4.3).
//!
//! Monte-Carlo over ±5 % per-transistor gate-oxide-thickness variation for
//! the proposed cell (β = 0.6, GND-lowering RA): DRNM and WL_crit
//! distributions, printed as text histograms like the paper's Figs. 9–10.
//!
//! Run with: `cargo run --release --example process_variation`

use tfet_numerics::{Histogram, Summary};
use tfet_sram::metrics::SENSE_DV;
use tfet_sram::montecarlo::{mc_drnm_with, mc_wl_crit_with, McConfig};
use tfet_sram::prelude::*;

const SAMPLES: usize = 60;
const SEED: u64 = 2011;

fn main() -> Result<(), SramError> {
    let mut params = CellParams::tfet6t(AccessConfig::InwardP)
        .with_beta(0.6)
        .with_vdd(0.8);
    // Monte-Carlo is transient-heavy; a 2 ps step keeps this example quick
    // while staying well inside the metric's convergence regime.
    params.sim.dt = 2e-12;
    params.sim.pulse_tol = 8e-12;

    println!("Monte-Carlo, {SAMPLES} samples, ±5 % t_ox per transistor (seed {SEED})\n");

    // --- DRNM under the selected read assist -------------------------------
    let drnm = mc_drnm_with(
        &params,
        Some(ReadAssist::GndLowering),
        SAMPLES,
        McConfig::new(SEED),
    )?;
    let s = Summary::of(&drnm.values);
    println!("DRNM with GND-lowering RA: {s}");
    println!("{}", Histogram::from_data(&drnm.values, 10));
    assert!(s.min > SENSE_DV, "every sample must read non-destructively");

    // --- WL_crit of the write-sized cell ------------------------------------
    let wl = mc_wl_crit_with(&params, None, SAMPLES, McConfig::new(SEED))?;
    println!(
        "WL_crit: {} finite samples, {} write failures ({:.1} % failure rate)",
        wl.values.len(),
        wl.failures,
        wl.failure_rate() * 100.0
    );
    let ws = Summary::of(&wl.values);
    println!("WL_crit summary: {ws}");
    println!("{}", Histogram::from_data(&wl.values, 10));

    println!(
        "spread: DRNM cv = {:.1} %, WL_crit cv = {:.1} % — the paper's\n\
         conclusion: sized-for-write + GND-lowering RA is variation-robust.",
        s.cv() * 100.0,
        ws.cv() * 100.0
    );
    Ok(())
}

//! Run the standard cell experiments on a SPICE-deck-defined topology.
//!
//! Imports a `.subckt` cell definition from a deck file, classifies its
//! devices into roles by connectivity, attaches the topology to the cell
//! parameters (`CellParams::with_topology`), and drives the same compiled
//! write/read/WL_crit experiments the built-in cells use — no Rust
//! topology code required for new cell variants. One compiled write
//! experiment serves both the WL_crit search and the verifying write.
//!
//! Run with:
//!   `cargo run --release --example run_deck -- [DECK] [--cell NAME]`
//!
//! `DECK` defaults to `examples/decks/cell_6t.sp` (the exported DATE'11
//! proposed cell, which reproduces the built-in 6T bit-for-bit). Try the
//! hand-written variants `cell_7t.sp` and `cell_9t.sp` in the same
//! directory.

use tfet_circuit::Deck;
use tfet_devices::standard_models;
use tfet_sram::metrics::{read_metrics, wl_crit_compiled, WlCrit};
use tfet_sram::prelude::*;

fn main() -> Result<(), SramError> {
    let mut path = String::from("examples/decks/cell_6t.sp");
    let mut cell: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cell" => {
                cell = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--cell needs a subcircuit name");
                    std::process::exit(2);
                }));
            }
            other => path = other.to_string(),
        }
    }

    let text = std::fs::read_to_string(&path)
        .map_err(|e| SramError::InvalidParameter(format!("reading {path}: {e}")))?;
    let models = standard_models();
    let deck = Deck::parse(&text, &models)
        .map_err(|e| SramError::InvalidParameter(format!("parsing {path}: {e}")))?;
    let sub = match &cell {
        Some(name) => deck.find_subckt(name).ok_or_else(|| {
            SramError::InvalidParameter(format!("{path} has no .subckt `{name}`"))
        })?,
        None => deck
            .subckts
            .first()
            .ok_or_else(|| SramError::InvalidParameter(format!("{path} defines no .subckt")))?,
    };
    let topo = CellTopology::from_subckt(sub, &deck.subckts, &models)?;

    // Parameterize at the paper's proposed operating point: β = 0.6,
    // V_DD = 0.8 V, 2 ps step / 8 ps pulse tolerance. The technology
    // family follows the deck's device models; everything else about the
    // cell (orientation, read port, auxiliaries) comes from the topology.
    let is_tfet = sub
        .flatten(&deck.subckts)
        .map_err(|e| SramError::InvalidParameter(format!("flattening `{}`: {e}", sub.name)))?
        .devices
        .iter()
        .any(|d| d.model.to_ascii_lowercase().contains("tfet"));
    let mut params = if is_tfet {
        CellParams::tfet6t(topo.access())
    } else {
        CellParams::cmos6t()
    }
    .with_beta(0.6);
    params.sim.dt = 2e-12;
    params.sim.pulse_tol = 8e-12;

    println!("== {} ({}) ==", topo.name(), path);
    println!(
        "technology        : {}",
        if is_tfet { "TFET" } else { "CMOS" }
    );
    println!("access devices    : {:?}", topo.access());
    println!(
        "read port         : {}",
        if topo.has_read_port() {
            "decoupled (rbl/rwl)"
        } else {
            "none"
        }
    );
    println!("device slots      :");
    for slot in topo.slots() {
        println!(
            "  [{}] {:12} {:14} {}",
            slot.index,
            slot.name,
            format!("{:?}", slot.role),
            if slot.n_type { "n-type" } else { "p-type" }
        );
    }

    let params = params.with_topology(topo);
    let read = read_metrics(&params, None)?;
    println!("DRNM              : {:10.1} mV", read.drnm * 1e3);
    match read.read_delay {
        Some(d) => println!("read delay (50 mV): {:10.1} ps", d * 1e12),
        None => println!("read delay        : sense signal did not develop"),
    }

    let mut exp = WriteExperiment::compile(&params, None)?;
    match wl_crit_compiled(&mut exp, None)?.value {
        WlCrit::Finite(w) => {
            println!("WL_crit           : {:10.1} ps", w * 1e12);
            let run = exp.run(2.0 * w)?;
            match (run.flipped(), run.write_delay()) {
                (true, Some(d)) => {
                    println!("write delay       : {:10.1} ps (at 2x WL_crit)", d * 1e12)
                }
                (true, None) => println!("write             : flips at 2x WL_crit"),
                (false, _) => println!("write             : did not flip at 2x WL_crit"),
            }
        }
        WlCrit::Infinite => println!("WL_crit           : write fails"),
        WlCrit::Unbracketable => println!("WL_crit           : search did not converge"),
    }
    Ok(())
}

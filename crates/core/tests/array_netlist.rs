//! Integration tests for the fast-SPICE array engine: functional
//! write/read through real peripherals, the ≥5× device-evaluation saving
//! of the latency tier, the netlist-vs-analytic `WL_crit` regression, and
//! functional patterns (checkerboard, overwrites, a CMOS array).

use tfet_sram::array_netlist::{ArrayNetlist, ArraySpec};
use tfet_sram::prelude::*;

fn proposed_cell() -> CellParams {
    let mut cell = CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6);
    cell.sim.dt = 4e-12;
    cell
}

#[test]
fn write_and_read_through_peripherals_roundtrip() {
    let mut a = ArrayNetlist::build(ArraySpec::new(4, 4, proposed_cell())).unwrap();
    let w = a.write_transient(1, 2, true, 1.5e-9).unwrap();
    assert!(w.success, "write through driver chain and mux must land");
    assert!(
        w.disturbed.is_empty(),
        "no bystander may flip: {:?}",
        w.disturbed
    );
    a.commit(&w.finals);
    assert_eq!(a.bit(1, 2), Some(true));
    assert_eq!(a.bit(1, 1), Some(false), "half-selected neighbour retains");
    assert_eq!(a.bit(0, 2), Some(false), "unselected row retains");

    let r = a.read_transient(1, 2).unwrap();
    assert!(r.value, "read back the written 1");
    assert!(!r.destructive, "read must not corrupt the array");
    assert!(
        r.sense_margin > 0.02,
        "sense margin {:.3} V",
        r.sense_margin
    );
    a.commit(&r.finals);

    let r0 = a.read_transient(1, 1).unwrap();
    assert!(!r0.value, "neighbour still reads 0");
}

#[test]
fn latency_tier_saves_five_fold_and_preserves_the_outcome() {
    let spec = ArraySpec::new(16, 16, proposed_cell());
    let mut on = ArrayNetlist::build(spec.clone()).unwrap();
    let mut off = ArrayNetlist::build(spec.with_latency(DeviceLatency::Off)).unwrap();

    let w_on = on.write_transient(3, 7, true, 1.5e-9).unwrap();
    let w_off = off.write_transient(3, 7, true, 1.5e-9).unwrap();
    assert!(w_on.success && w_off.success);
    assert!(w_on.disturbed.is_empty() && w_off.disturbed.is_empty());

    // The tier's whole point: the quiescent bulk of the array stops being
    // evaluated. ≥5× is the acceptance floor; a 16×16 write already clears
    // it comfortably.
    let ratio = w_off.stats.device_evals as f64 / w_on.stats.device_evals as f64;
    assert!(
        ratio >= 5.0,
        "expected >=5x fewer device evals with the latency tier, got {ratio:.2}x \
         ({} vs {})",
        w_off.stats.device_evals,
        w_on.stats.device_evals
    );
    assert!(w_on.stats.devices_dormant > 0);
    assert_eq!(w_off.stats.devices_dormant, 0);

    // And the physics must not drift: every cell's final state agrees to
    // well under a millivolt.
    for (k, (&(q1, qb1), &(q0, qb0))) in w_on.finals.iter().zip(&w_off.finals).enumerate() {
        assert!(
            (q1 - q0).abs() < 1e-3 && (qb1 - qb0).abs() < 1e-3,
            "cell {k}: latency-on ({q1:.6}, {qb1:.6}) vs off ({q0:.6}, {qb0:.6})"
        );
    }
}

#[test]
fn netlist_wl_crit_tracks_the_analytic_model() {
    // The full-array WL_crit sees driver slew, mux discharge and
    // half-select loading that the single-cell model idealizes away. The
    // driver chain's turn-on delay (~0.25 ns at this geometry) plus the
    // reduced access overdrive (the held bitline sits tens of millivolts
    // below the rail) stretch the critical pulse to roughly 2-2.5x the
    // analytic value; 3x is the regression ceiling the `array` validation
    // figure visualizes.
    let mut cell = proposed_cell();
    cell.sim.pulse_tol = 8e-12;
    let mut a = ArrayNetlist::build(ArraySpec::new(4, 4, cell)).unwrap();
    let netlist = match a.wl_crit(0, 0).unwrap() {
        WlCrit::Finite(w) => w,
        other => panic!("array WL_crit must be finite, got {other:?}"),
    };
    let analytic = match a.analytic_wl_crit().unwrap() {
        WlCrit::Finite(w) => w,
        other => panic!("analytic WL_crit must be finite, got {other:?}"),
    };
    let rel = (netlist - analytic).abs() / analytic;
    assert!(
        netlist > analytic,
        "driver slew can only lengthen the critical pulse: \
         netlist {netlist:.3e} s vs analytic {analytic:.3e} s"
    );
    assert!(
        rel < 2.0,
        "netlist WL_crit {netlist:.3e} s vs analytic {analytic:.3e} s \
         (discrepancy {:.0} %)",
        100.0 * rel
    );
}

#[test]
fn spec_validation_rejects_bad_shapes() {
    assert!(ArrayNetlist::build(ArraySpec::new(0, 4, proposed_cell())).is_err());
    assert!(ArrayNetlist::build(ArraySpec::new(65, 4, proposed_cell())).is_err());
    let seven = CellParams::new(CellKind::Tfet7T);
    assert!(ArrayNetlist::build(ArraySpec::new(2, 2, seven)).is_err());
}

#[test]
fn bitline_load_scales_with_rows() {
    let cell = proposed_cell();
    let c64 = ArraySpec::new(64, 4, cell.clone()).c_bitline();
    let c8 = ArraySpec::new(8, 4, cell.clone()).c_bitline();
    assert!(
        (c64 - cell.c_bitline).abs() < 1e-24,
        "64 rows = full budget"
    );
    assert!((c8 - cell.c_bitline / 8.0).abs() < 1e-24, "8 rows = 1/8");
}

#[test]
fn array_initializes_to_zeros() {
    let a = ArrayNetlist::build(ArraySpec::new(2, 2, proposed_cell())).unwrap();
    for r in 0..2 {
        for c in 0..2 {
            assert_eq!(a.bit(r, c), Some(false), "cell ({r},{c})");
        }
    }
}

#[test]
#[should_panic(expected = "address out of range")]
fn out_of_range_address_panics() {
    let a = ArrayNetlist::build(ArraySpec::new(2, 2, proposed_cell())).unwrap();
    a.bit(2, 0);
}

#[test]
fn checkerboard_pattern_survives() {
    let mut a = ArrayNetlist::build(ArraySpec::new(2, 2, proposed_cell())).unwrap();
    for r in 0..2 {
        for c in 0..2 {
            let bit = (r + c) % 2 == 0;
            let w = a.write_transient(r, c, bit, 1.5e-9).unwrap();
            assert!(w.success, "write ({r},{c})={bit}");
            assert!(
                w.disturbed.is_empty(),
                "disturbs at ({r},{c}): {:?}",
                w.disturbed
            );
            a.commit(&w.finals);
        }
    }
    for r in 0..2 {
        for c in 0..2 {
            let expect = (r + c) % 2 == 0;
            assert_eq!(a.bit(r, c), Some(expect), "cell ({r},{c})");
            let read = a.read_transient(r, c).unwrap();
            assert_eq!(read.value, expect, "read ({r},{c})");
            assert!(!read.destructive);
            a.commit(&read.finals);
        }
    }
}

#[test]
fn overwrite_both_directions() {
    let mut a = ArrayNetlist::build(ArraySpec::new(1, 1, proposed_cell())).unwrap();
    for &bit in &[true, false, true, true, false] {
        let w = a.write_transient(0, 0, bit, 1.5e-9).unwrap();
        assert!(w.success, "write {bit}");
        a.commit(&w.finals);
        assert_eq!(a.bit(0, 0), Some(bit));
    }
}

#[test]
fn cmos_array_works_too() {
    let mut cell = CellParams::cmos6t().with_beta(1.5);
    cell.sim.dt = 4e-12;
    let mut a = ArrayNetlist::build(ArraySpec::new(2, 1, cell)).unwrap();
    let w = a.write_transient(1, 0, true, 1.5e-9).unwrap();
    assert!(w.success);
    a.commit(&w.finals);
    let r = a.read_transient(1, 0).unwrap();
    assert!(r.value && !r.destructive);
}

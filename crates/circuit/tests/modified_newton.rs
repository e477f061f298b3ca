//! Fault-injection coverage for the sparse modified-Newton escalation
//! ladder (PR-6).
//!
//! The sparse strategy layers three defenses over plain Newton, in order of
//! increasing cost:
//!
//! 1. **Stall guard / consistency check** — a reused factorization that
//!    stops contracting the update, or that no longer solves the freshly
//!    assembled Jacobian, is replaced by a full refactorization at the
//!    current iterate;
//! 2. **Fresh-Jacobian Newton** — the refactorized loop is exactly the
//!    dense algorithm, just factored sparsely;
//! 3. **PR-5 rescue ladder** — step subdivision and anchored g_min
//!    continuation, unchanged, as the last resort.
//!
//! These tests inject a device with a deliberately wrong Jacobian to prove
//! the escalation happens (and terminates at the right rung), and run a
//! healthy circuit to prove the expensive rungs are never touched when the
//! cheap ones suffice.

use std::sync::Arc;

use tfet_circuit::transient::InitialState;
use tfet_circuit::{Circuit, NewtonWorkspace, SolverStrategy, TransientSpec, Waveform};
use tfet_devices::model::{Caps, DeviceKind, DeviceModel, Polarity};
use tfet_devices::tfet::{NTfet, PTfet};

/// A linear 1 mS "transistor" that reports its drain/source conductances
/// with the wrong sign — plain Newton diverges on any circuit where its
/// stamp dominates, no matter how the linear system is factored.
#[derive(Debug)]
struct WrongJacobianDev {
    g: f64,
}

impl DeviceModel for WrongJacobianDev {
    fn name(&self) -> &str {
        "wrong-jacobian"
    }
    fn polarity(&self) -> Polarity {
        Polarity::N
    }
    fn kind(&self) -> DeviceKind {
        DeviceKind::Mosfet
    }
    fn ids_per_um(&self, _vg: f64, vd: f64, vs: f64) -> f64 {
        self.g * (vd - vs)
    }
    fn caps_per_um(&self, _vg: f64, _vd: f64, _vs: f64) -> Caps {
        Caps::default()
    }
    fn conductances_per_um(&self, _vg: f64, _vd: f64, _vs: f64) -> (f64, f64, f64) {
        (0.0, -self.g, self.g)
    }
}

/// 1 pF discharging through the wrong-Jacobian device: τ = 1 ns.
fn sabotaged_rc() -> (Circuit, tfet_circuit::NodeId) {
    let mut c = Circuit::new();
    let a = c.node("a");
    c.capacitor(a, Circuit::GND, 1e-12);
    c.transistor(
        "M",
        Arc::new(WrongJacobianDev { g: 1e-3 }),
        a,
        Circuit::GND,
        Circuit::GND,
        1.0,
    );
    (c, a)
}

/// Under the sparse strategy the wrong-Jacobian sabotage must climb the
/// whole ladder: reuse stalls (refactorizations far outnumber Newton
/// solves), the refactorized loop still diverges on the rungs the dense
/// analysis predicts, and the PR-5 rescue ladder ultimately salvages the
/// run — the result is still the physical RC discharge.
#[test]
fn sabotage_escalates_through_refactorization_to_rescue_ladder() {
    let (c, a) = sabotaged_rc();
    // Trace the sabotaged run: the rescue ladder is the one span site a
    // healthy gate run never reaches, so this is where the timeline trace
    // proves it instruments the last rung too.
    tfet_obs::reset();
    tfet_obs::enable();
    tfet_obs::trace::start();
    let res = c
        .transient(
            &TransientSpec::fixed(4e-9, 0.8e-9).with_solver(SolverStrategy::Sparse),
            &InitialState::Uic(vec![(a, 1.0)]),
        )
        .unwrap();
    tfet_obs::trace::stop();
    tfet_obs::disable();
    let trace = tfet_obs::trace::export_value();
    let names: Vec<&str> = trace
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("trace has traceEvents")
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for required in ["transient", "newton", "rescue"] {
        assert!(
            names.contains(&required),
            "span `{required}` missing from sabotage trace: {names:?}"
        );
    }
    let s = &res.stats;
    assert_eq!(s.accepted_steps, 5, "{s:?}");
    // Rung 1: the stall guard fired — far more refactorizations than
    // Newton solves, i.e. reuse was tried and abandoned inside iterations.
    assert!(
        s.jac_refactored > s.newton_solves,
        "stall guard never fired: {s:?}"
    );
    // Rung 3: the rescue ladder was reached and salvaged at least one step.
    assert!(s.rescue_attempts >= 1, "rescue ladder untouched: {s:?}");
    assert!(s.rescued_steps >= 1, "no step was rescued: {s:?}");
    // The rescued run is still the physical RC discharge (τ = 1 ns).
    assert!(res.voltage_at(a, 0.0) > 0.99);
    assert!(res.final_voltage(a) < 0.1, "v = {}", res.final_voltage(a));
    let v_tau = res.voltage_at(a, 1e-9);
    assert!((v_tau - (-1.0f64).exp()).abs() < 0.08, "v(τ) = {v_tau}");
}

/// An unrescuable sabotage must surface `NoConvergence` under the sparse
/// strategy too — escalation terminates, it does not loop.
#[test]
fn sparse_unrescuable_failure_still_errors() {
    let (c, a) = sabotaged_rc();
    let err = c
        .transient(
            &TransientSpec::fixed(8e-9, 4e-9).with_solver(SolverStrategy::Sparse),
            &InitialState::Uic(vec![(a, 1.0)]),
        )
        .unwrap_err();
    assert!(
        matches!(err, tfet_circuit::SimError::NoConvergence { .. }),
        "unexpected error: {err:?}"
    );
}

/// A healthy TFET inverter run never touches the expensive rungs: the
/// rescue ladder stays idle, the factorization is reused for most
/// iterations, and settled devices are served from the bypass cache.
#[test]
fn healthy_run_reuses_factors_and_bypasses_devices_without_escalating() {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let out = c.node("out");
    c.vsource(
        "VIN",
        vin,
        Circuit::GND,
        Waveform::step(0.0, 0.8, 0.5e-9, 1e-12),
    );
    c.resistor(vin, out, 1e6);
    c.capacitor(out, Circuit::GND, 1e-15);
    c.transistor(
        "MN",
        Arc::new(NTfet::nominal()),
        out,
        vin,
        Circuit::GND,
        0.1,
    );
    let res = c
        .transient(
            &TransientSpec::fixed(5e-9, 10e-12).with_solver(SolverStrategy::Sparse),
            &InitialState::DcOp(vec![]),
        )
        .unwrap();
    let s = &res.stats;
    assert_eq!(s.rescue_attempts, 0, "healthy run escalated: {s:?}");
    assert_eq!(s.rescued_steps, 0, "healthy run escalated: {s:?}");
    // Modified Newton pays off: most iterations reuse the factorization…
    assert!(s.jac_reused > 0, "no factor reuse: {s:?}");
    assert!(
        s.jac_refactored * 2 < s.newton_iters,
        "refactorized more than half the iterations: {s:?}"
    );
    // …and the settled tail of the run is served from the bypass cache.
    assert!(s.devices_bypassed > 0, "no device bypass: {s:?}");
    // The physics is the ordinary inverter response: output pulled well
    // below the rail once the input steps high.
    assert!(
        res.final_voltage(out) < 0.4,
        "v = {}",
        res.final_voltage(out)
    );
}

/// The dense backend is the same Newton loop with reuse and bypass never
/// engaged: on a TFET-inverter transient it refactorizes on every
/// iteration, evaluates every device, builds no sparse state, and lands on
/// the sparse backend's answer.
#[test]
fn dense_backend_refactorizes_every_iteration_and_matches_sparse() {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("in");
    let out = c.node("out");
    c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(0.8));
    c.vsource(
        "VIN",
        vin,
        Circuit::GND,
        Waveform::step(0.0, 0.8, 0.5e-9, 20e-12),
    );
    c.capacitor(out, Circuit::GND, 1e-15);
    c.transistor("MP", Arc::new(PTfet::nominal()), out, vin, vdd, 0.1);
    c.transistor(
        "MN",
        Arc::new(NTfet::nominal()),
        out,
        vin,
        Circuit::GND,
        0.1,
    );
    let run = |solver: SolverStrategy| {
        let mut ws = NewtonWorkspace::new();
        let res = c
            .transient_with(
                &TransientSpec::fixed(2e-9, 10e-12).with_solver(solver),
                &InitialState::DcOp(vec![(out, 0.8)]),
                &[],
                &mut ws,
            )
            .unwrap();
        (res, format!("{ws:?}"))
    };
    let (dense, dense_ws) = run(SolverStrategy::Dense);
    let (sparse, sparse_ws) = run(SolverStrategy::Sparse);

    let s = &dense.stats;
    assert_eq!(s.jac_reused, 0, "{s:?}");
    assert_eq!(s.jac_refactored, s.newton_iters, "{s:?}");
    assert_eq!(s.devices_bypassed, 0, "{s:?}");
    assert_eq!(s.device_evals, 2 * s.newton_iters, "{s:?}");
    assert!(
        dense_ws.contains("sparse: None"),
        "dense run built sparse state"
    );
    // The probe discriminates: the sparse run does build it, and reuses.
    assert!(sparse_ws.contains("sparse: Some("));
    assert!(sparse.stats.jac_reused > 0, "{:?}", sparse.stats);

    for node in [out, vin, vdd] {
        let (d, sp) = (dense.final_voltage(node), sparse.final_voltage(node));
        assert!(
            (d - sp).abs() < 1e-6,
            "final v = {d} (dense) vs {sp} (sparse)"
        );
    }
    assert!(
        dense.final_voltage(out) < 0.1,
        "inverter output did not fall"
    );
}

//! Determinism regression tests for the parallel Monte-Carlo engine.
//!
//! The contract: a study's numbers are a function of `(params, seed, n)`
//! only — never of the worker-thread count or of scheduling. Every
//! comparison here is exact (`Vec<f64>` equality), not approximate.

use tfet_sram::metrics::{wl_crit, wl_crit_compiled, WlCrit};
use tfet_sram::montecarlo::{mc_drnm_with, mc_wl_crit_with, McConfig};
use tfet_sram::ops::run_write;
use tfet_sram::prelude::*;

/// The experiments' fast-simulation settings (2 ps step, 8 ps tolerance).
fn fast(params: CellParams) -> CellParams {
    let mut p = params;
    p.sim.dt = 2e-12;
    p.sim.pulse_tol = 8e-12;
    p
}

const N: usize = 8;
const SEED: u64 = 42;

/// A hand-rolled serial reference: the same per-sample RNG streams and the
/// same nominal-cell bisection hint as the engine, run in a plain loop with
/// no parallel machinery at all.
fn serial_reference_wl_crit(base: &CellParams) -> (Vec<f64>, usize) {
    let cfg = McConfig::new(SEED);
    let hint = wl_crit(base, None).ok().and_then(|w| w.as_finite());
    let mut values = Vec::new();
    let mut failures = 0;
    for i in 0..N {
        let process = VariationModel::paper().sample(&cfg, i, base.vdd).unwrap();
        let params = base.clone().with_process(process);
        let mut exp = WriteExperiment::compile(&params, None).unwrap();
        match wl_crit_compiled(&mut exp, hint).unwrap().value {
            WlCrit::Finite(w) => values.push(w),
            WlCrit::Infinite => failures += 1,
            WlCrit::Unbracketable => panic!("healthy reference cell must bracket"),
        }
    }
    (values, failures)
}

#[test]
fn mc_wl_crit_identical_across_thread_counts_and_serial_reference() {
    let base = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
    let (ref_values, ref_failures) = serial_reference_wl_crit(&base);

    let one = mc_wl_crit_with(&base, None, N, McConfig::new(SEED).with_threads(1)).unwrap();
    let eight = mc_wl_crit_with(&base, None, N, McConfig::new(SEED).with_threads(8)).unwrap();

    // Exact equality — bit-identical floats, same order, same failure count.
    assert_eq!(one.values, ref_values, "1 thread vs serial reference");
    assert_eq!(one.failures, ref_failures);
    assert_eq!(eight.values, ref_values, "8 threads vs serial reference");
    assert_eq!(eight.failures, ref_failures);
}

#[test]
fn mc_drnm_identical_across_thread_counts() {
    let base = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
    let one = mc_drnm_with(&base, None, N, McConfig::new(SEED).with_threads(1)).unwrap();
    let eight = mc_drnm_with(&base, None, N, McConfig::new(SEED).with_threads(8)).unwrap();
    let three = mc_drnm_with(&base, None, N, McConfig::new(SEED).with_threads(3)).unwrap();
    assert_eq!(one, eight);
    assert_eq!(one, three);
}

#[test]
fn cached_lut_studies_are_also_thread_count_invariant() {
    // The LUT corner cache is shared mutable state across workers; sharing
    // must not leak scheduling into the numbers.
    let base = fast(
        CellParams::tfet6t(AccessConfig::InwardP)
            .with_beta(0.6)
            .with_lut_devices(),
    );
    let one = mc_drnm_with(&base, None, N, McConfig::new(SEED).with_threads(1)).unwrap();
    let eight = mc_drnm_with(&base, None, N, McConfig::new(SEED).with_threads(8)).unwrap();
    assert_eq!(one, eight);
}

#[test]
fn compiled_experiment_reuse_is_bit_identical_to_fresh_builds() {
    // One compiled write experiment, retargeted across a rotation of
    // (β, pulse width, variation sample) — including a repeat of the first
    // point — must reproduce a from-scratch build exactly, sample by sample.
    let base = fast(CellParams::tfet6t(AccessConfig::InwardP));
    let cfg = McConfig::new(SEED);
    let rotation: [(f64, f64, Option<usize>); 4] = [
        (0.6, 2e-9, None),
        (0.9, 0.4e-9, Some(0)),
        (0.6, 1e-9, Some(3)),
        (0.6, 2e-9, None), // exact repeat of the first point
    ];

    let mut exp: Option<WriteExperiment> = None;
    for &(beta, width, sample) in &rotation {
        let mut params = base.clone().with_beta(beta);
        if let Some(i) = sample {
            let process = VariationModel::paper().sample(&cfg, i, params.vdd).unwrap();
            params = params.with_process(process);
        }
        let reused = match exp.as_mut() {
            Some(e) => {
                e.bind_cell(&params).unwrap();
                e.run(width).unwrap()
            }
            None => {
                let mut e = WriteExperiment::compile(&params, None).unwrap();
                let run = e.run(width).unwrap();
                exp = Some(e);
                run
            }
        };
        let fresh = run_write(&params, None, width).unwrap();
        let label = format!("beta={beta}, width={width:e}, sample={sample:?}");
        assert_eq!(
            reused.result.times(),
            fresh.result.times(),
            "times: {label}"
        );
        assert_eq!(
            reused.result.trace(reused.nodes.q),
            fresh.result.trace(fresh.nodes.q),
            "V(q): {label}"
        );
        assert_eq!(
            reused.result.trace(reused.nodes.qb),
            fresh.result.trace(fresh.nodes.qb),
            "V(qb): {label}"
        );
    }
}

#[test]
fn seeded_wl_crit_matches_unseeded_across_beta_grid() {
    // Seeding the bisection with the previous grid point's answer changes
    // the search path, not the answer: both searches must land within the
    // bisection tolerance of each other at every β, and agree exactly on
    // whether WL_crit is finite.
    let base = fast(CellParams::tfet6t(AccessConfig::InwardP));
    let tol = base.sim.pulse_tol;
    let mut hint: Option<f64> = None;
    for beta in [0.4, 0.6, 0.8, 1.0] {
        let params = base.clone().with_beta(beta);
        let cold = wl_crit(&params, None).unwrap();
        let mut exp = WriteExperiment::compile(&params, None).unwrap();
        let seeded = wl_crit_compiled(&mut exp, hint).unwrap().value;
        match (cold, seeded) {
            (WlCrit::Finite(a), WlCrit::Finite(b)) => {
                assert!(
                    (a - b).abs() <= 2.0 * tol,
                    "beta={beta}: cold {a:e} vs seeded {b:e} beyond 2x pulse_tol"
                );
                hint = Some(a);
            }
            (a, b) => assert_eq!(a, b, "beta={beta}: finiteness must agree"),
        }
    }
}

#[test]
fn beta_sweep_is_deterministic_under_parallel_fanout() {
    let base = fast(CellParams::tfet6t(AccessConfig::InwardP));
    let betas = [0.5, 0.8, 1.0, 1.5];
    let a = tfet_sram::explore::beta_sweep(&base, &betas).unwrap();
    let b = tfet_sram::explore::beta_sweep(&base, &betas).unwrap();
    assert_eq!(a, b, "repeated sweeps must agree exactly");
    let got: Vec<f64> = a.iter().map(|p| p.beta).collect();
    assert_eq!(got, betas, "points must come back in grid order");
}

//! Prefix reuse is invisible in the numbers: a write experiment that
//! resumes each run from a checkpoint of an earlier run returns, bit for
//! bit, what a freshly compiled experiment returns for the same width.
//!
//! Every case runs one `WL_crit` bisection on a resuming experiment and the
//! same bisection with a fresh compile per probe, then compares every probe
//! (width, time axis, storage-node traces, verdict) and the result.

use tfet_numerics::roots::{critical_threshold_seeded_checked, Threshold};
use tfet_sram::metrics::wl_crit_compiled;
use tfet_sram::ops::WriteRun;
use tfet_sram::prelude::*;
use tfet_sram::rare_event::VariationModel;

/// The coarser quick-mode timing (2 ps seed step, 8 ps search tolerance).
fn quick(p: CellParams) -> CellParams {
    let mut p = p;
    p.sim.dt = 2e-12;
    p.sim.pulse_tol = 8e-12;
    p
}

fn proposed() -> CellParams {
    CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6)
}

/// The `WL_crit` search of `metrics::wl_crit_compiled`, over an oracle
/// that returns the whole run: the endpoint probe, then the seeded
/// bisection. Returns the threshold and every probe in order.
fn search(
    sim: &SimOptions,
    hint: Option<f64>,
    mut run: impl FnMut(f64) -> WriteRun,
) -> (Threshold, Vec<(f64, WriteRun)>) {
    let mut probes = Vec::new();
    let top = run(sim.max_pulse);
    let flips = top.flipped();
    probes.push((sim.max_pulse, top));
    if !flips {
        return (Threshold::NeverTrue, probes);
    }
    let th =
        critical_threshold_seeded_checked(5.0 * sim.dt, sim.max_pulse, sim.pulse_tol, hint, |w| {
            let r = run(w);
            let flips = r.flipped();
            probes.push((w, r));
            Some(flips)
        });
    (th, probes)
}

fn assert_same_run(label: &str, w: f64, a: &WriteRun, b: &WriteRun) {
    let at = format!("{label}, w = {w:e}");
    assert_eq!(a.result.times(), b.result.times(), "{at}: time axis");
    for node in [a.nodes.q, a.nodes.qb] {
        let (ta, tb) = (a.result.trace(node), b.result.trace(node));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ta), bits(&tb), "{at}: storage-node trace");
    }
    assert_eq!(a.flipped(), b.flipped(), "{at}: verdict");
    assert_eq!(a.result.stats.early_exit, b.result.stats.early_exit, "{at}");
}

/// Searches on `exp` (already bound to `params`) and, probe by probe, on
/// fresh compiles of `params`; asserts both agree bit for bit and that
/// every probe after the first resumed.
///
/// Pulses narrower than `4·t_edge` are the exception: they get edges of
/// their own, which also moves the first point of the stimulus, so its
/// hold level can round differently from the first solve on. Such a probe,
/// and the probe after it, resume only where the rounding happens to
/// agree.
fn check_search(
    label: &str,
    exp: &mut WriteExperiment,
    params: &CellParams,
    assist: Option<WriteAssist>,
    hint: Option<f64>,
) -> Threshold {
    let sim = *exp.sim();
    let (th, probes) = search(&sim, hint, |w| exp.run(w).expect("resumed write runs"));
    let (th_fresh, fresh) = search(&sim, hint, |w| {
        WriteExperiment::compile(params, assist)
            .and_then(|mut e| e.run(w))
            .expect("fresh write runs")
    });
    assert_eq!(probes.len(), fresh.len(), "{label}: probe count");
    let narrow = |k: usize| probes[k].0 < 4.0 * sim.t_edge;
    for (k, ((w, a), (wf, b))) in probes.iter().zip(&fresh).enumerate() {
        assert_eq!(w.to_bits(), wf.to_bits(), "{label}: probe {k} width");
        assert_same_run(label, *w, a, b);
        assert_eq!(
            b.result.stats.resumed_steps, 0,
            "a fresh compile never resumes"
        );
        if k == 0 {
            assert_eq!(
                a.result.stats.resumed_steps, 0,
                "{label}: the first run after a compile or bind_cell starts at t = 0"
            );
        } else if !narrow(k) && !narrow(k - 1) {
            assert!(
                a.result.stats.resumed_steps > 0,
                "{label}: probe {k} (w = {w:e}) did not resume"
            );
        }
    }
    match (th, th_fresh) {
        (Threshold::Critical(a), Threshold::Critical(b)) => {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: WL_crit")
        }
        (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{label}: outcome"),
    }
    th
}

#[test]
fn proposed_cell_at_nominal_matches_fresh_runs() {
    let p = quick(proposed());
    let mut exp = WriteExperiment::compile(&p, None).unwrap();
    let th = check_search("nominal", &mut exp, &p, None, None);
    let Threshold::Critical(w) = th else {
        panic!("the proposed cell writes: {th:?}")
    };
    assert_eq!(format!("{:.1}", w * 1e12), "430.8");
    // The library search on a resuming experiment lands on the same bits.
    let mut again = WriteExperiment::compile(&p, None).unwrap();
    let run = wl_crit_compiled(&mut again, None).unwrap();
    assert_eq!(run.value.as_finite().map(f64::to_bits), Some(w.to_bits()));
    assert!(run.effort.resumed_steps > 0);
}

#[test]
fn monte_carlo_samples_with_bind_cell_match_fresh_runs() {
    let base = quick(proposed());
    let mut exp = WriteExperiment::compile(&base, None).unwrap();
    let hint = wl_crit_compiled(&mut exp, None).unwrap().value.as_finite();
    let config = McConfig::new(14);
    for i in 0..8 {
        let process = VariationModel::paper()
            .sample(&config, i, base.vdd)
            .expect("paper variations stay in range");
        let params = base.clone().with_process(process);
        exp.bind_cell(&params).unwrap();
        check_search(&format!("MC sample {i}"), &mut exp, &params, None, hint);
    }
}

#[test]
fn write_assists_match_fresh_runs() {
    let p = quick(proposed());
    for assist in WriteAssist::ALL {
        let mut exp = WriteExperiment::compile(&p, Some(assist)).unwrap();
        check_search(&format!("{assist:?}"), &mut exp, &p, Some(assist), None);
    }
}

#[test]
fn cmos_cell_matches_fresh_runs() {
    let p = quick(CellParams::cmos6t().with_beta(1.5));
    let mut exp = WriteExperiment::compile(&p, None).unwrap();
    check_search("CMOS 6T", &mut exp, &p, None, None);
}

#[test]
fn ascending_then_descending_widths_match_fresh_runs() {
    // Narrow pulses (below 4·t_edge) get edges of their own, so their
    // stimulus parts from the others before the wordline opens.
    let p = quick(proposed());
    let mut exp = WriteExperiment::compile(&p, None).unwrap();
    let widths = [
        30e-12, 120e-12, 400e-12, 900e-12, 600e-12, 410e-12, 200e-12, 30e-12, 405e-12,
    ];
    for (k, &w) in widths.iter().enumerate() {
        let a = exp.run(w).unwrap();
        let b = WriteExperiment::compile(&p, None).unwrap().run(w).unwrap();
        assert_same_run("sequence", w, &a, &b);
        if k > 0 {
            assert!(a.result.stats.resumed_steps > 0, "w = {w:e} did not resume");
        }
    }
}

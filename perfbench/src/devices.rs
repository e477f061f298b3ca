//! Device-model evaluation timed from outside: the public `DeviceModel`
//! calls the MNA stamp makes per transistor, over the bias box a cell at
//! V_DD = 0.8 V visits. Single-cell assembly has no `eval` span, so this is
//! the only per-evaluation device cost the traced run can report there.

use std::hint::black_box;
use std::time::Instant;
use tfet_devices::{DeviceModel, NTfet, Nmos, PTfet, Pmos};

/// Terminal-voltage grid points per axis over `[0, V_DD]`.
const GRID: usize = 9;
const VDD: f64 = 0.8;
/// Sweeps of the full grid per timing, and timings per model (the median
/// is reported).
const SWEEPS: usize = 10;
const REPEATS: usize = 7;

/// Median nanoseconds per call of `ids_per_um` and of
/// `conductances_per_um` for one model.
fn time_model(model: &dyn DeviceModel) -> (f64, f64) {
    let step = VDD / (GRID - 1) as f64;
    let points: Vec<(f64, f64, f64)> = (0..GRID * GRID * GRID)
        .map(|k| {
            let v = |i: usize| (i % GRID) as f64 * step;
            (v(k), v(k / GRID), v(k / (GRID * GRID)))
        })
        .collect();
    let calls = (SWEEPS * points.len()) as f64;
    let time = |f: &dyn Fn(f64, f64, f64) -> f64| {
        let mut ns: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let t = Instant::now();
                let mut acc = 0.0;
                for _ in 0..SWEEPS {
                    for &(vg, vd, vs) in &points {
                        acc += f(black_box(vg), black_box(vd), black_box(vs));
                    }
                }
                black_box(acc);
                t.elapsed().as_nanos() as f64 / calls
            })
            .collect();
        crate::workloads::median(&mut ns)
    };
    let ids = time(&|vg, vd, vs| model.ids_per_um(vg, vd, vs));
    let cond = time(&|vg, vd, vs| {
        let (gm, gds, gs) = model.conductances_per_um(vg, vd, vs);
        gm + gds + gs
    });
    (ids, cond)
}

/// Per-evaluation device cost: `(ids_ns, cond_ns)` averaged over the n-
/// and p-TFET (the proposed cell's devices), plus the CMOS average of
/// `ids + conductances` for reference in the printed table.
pub fn eval_costs() -> (f64, f64) {
    let tfets: [&dyn DeviceModel; 2] = [&NTfet::nominal(), &PTfet::nominal()];
    let mos: [&dyn DeviceModel; 2] = [&Nmos::nominal(), &Pmos::nominal()];
    let mean = |models: &[&dyn DeviceModel]| {
        let t: Vec<(f64, f64)> = models.iter().map(|m| time_model(*m)).collect();
        let n = t.len() as f64;
        (
            t.iter().map(|x| x.0).sum::<f64>() / n,
            t.iter().map(|x| x.1).sum::<f64>() / n,
        )
    };
    let (ids, cond) = mean(&tfets);
    let (mos_ids, mos_cond) = mean(&mos);
    eprintln!(
        "device eval (ns/call, median of {REPEATS}): TFET ids {ids:.1} + conductances {cond:.1}; \
         MOSFET ids {mos_ids:.1} + conductances {mos_cond:.1}"
    );
    (ids, cond)
}

//! Design-space exploration sweeps (the engines behind Figs. 4, 6, 7, 8).
//!
//! Each function returns plain data series so the bench harness and the
//! figure binaries can print them in the paper's own coordinates. All five
//! sweeps are views of one β-sweep engine that measures a read side, a
//! write side, or both (each with its own assist) at every β. Sweep points
//! are independent simulations, so the engine fans out over worker threads
//! ([`tfet_numerics::parallel::par_try_map_with`]) while returning points
//! in grid order — identical output at any thread count. Each worker
//! compiles its experiment circuits once and retargets them per β through
//! device binds ([`WriteExperiment::bind_cell`] and friends); the compiled
//! circuit is a cache, so values never depend on which worker evaluated a
//! point. The cell's wiring comes from the base parameters
//! ([`CellParams::with_topology`]), so a deck-imported cell sweeps exactly
//! like a built-in one.

use crate::assist::{ReadAssist, WriteAssist};
use crate::error::SramError;
use crate::metrics::{read_metrics_compiled, wl_crit_compiled, WlCrit};
use crate::ops::{ReadExperiment, WriteExperiment};
use crate::tech::CellParams;
use tfet_numerics::parallel::par_try_map_with;

/// What one β point measured: the DRNM when the sweep has a read side, the
/// `WL_crit` when it has a write side.
#[derive(Debug, Clone, Copy)]
struct Measured {
    beta: f64,
    drnm: Option<f64>,
    wl_crit: Option<WlCrit>,
}

/// A worker's experiments: compiled at its first point, rebound to every
/// later one.
#[derive(Default)]
struct Experiments {
    read: Option<ReadExperiment>,
    write: Option<WriteExperiment>,
}

impl Experiments {
    /// Retargets (or first compiles) each side the sweep runs at `beta`,
    /// then runs the read and the seeded `WL_crit` search.
    fn measure(
        &mut self,
        base: &CellParams,
        beta: f64,
        read: Option<Option<ReadAssist>>,
        write: Option<Option<WriteAssist>>,
        hint: Option<f64>,
    ) -> Result<Measured, SramError> {
        let params = base.clone().with_beta(beta);
        if let Some(assist) = read {
            match &mut self.read {
                Some(exp) => exp.bind_cell(&params)?,
                None => self.read = Some(ReadExperiment::compile(&params, assist)?),
            }
        }
        if let Some(assist) = write {
            match &mut self.write {
                Some(exp) => exp.bind_cell(&params)?,
                None => self.write = Some(WriteExperiment::compile(&params, assist)?),
            }
        }
        let drnm = match &mut self.read {
            Some(exp) => Some(read_metrics_compiled(exp)?.drnm),
            None => None,
        };
        let wl_crit = match &mut self.write {
            Some(exp) => Some(wl_crit_compiled(exp, hint)?.value),
            None => None,
        };
        Ok(Measured {
            beta,
            drnm,
            wl_crit,
        })
    }
}

/// The one β-sweep engine. `read` and `write` each select a side to
/// measure at every β (`None` skips it) and that side's assist.
///
/// With a write side, the first point runs serially on fresh experiments
/// with a cold search, and its finite `WL_crit` seeds the search of every
/// later point. `WL_crit` varies smoothly (and monotonically) in β, so the
/// first answer lands each later search inside a narrow bracket. The hint
/// is computed once and shared, never chained point to point, so the
/// fanned-out points stay independent and the sweep output is identical at
/// any thread count. A read-only sweep has nothing to seed and fans out
/// from its first point.
fn sweep(
    base: &CellParams,
    betas: &[f64],
    read: Option<Option<ReadAssist>>,
    write: Option<Option<WriteAssist>>,
) -> Result<Vec<Measured>, SramError> {
    let mut points = Vec::with_capacity(betas.len());
    let mut rest = betas;
    let mut hint = None;
    if write.is_some() {
        if let Some((&beta0, tail)) = betas.split_first() {
            let first = Experiments::default().measure(base, beta0, read, write, None)?;
            hint = first.wl_crit.and_then(WlCrit::as_finite);
            points.push(first);
            rest = tail;
        }
    }
    let tail = par_try_map_with(rest.len(), None, Experiments::default, |exps, i| {
        exps.measure(base, rest[i], read, write, hint)
    })?;
    points.extend(tail);
    Ok(points)
}

/// One point of a β sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaPoint {
    /// Cell ratio β.
    pub beta: f64,
    /// DRNM at this β, V.
    pub drnm: f64,
    /// `WL_crit` at this β.
    pub wl_crit: WlCrit,
}

/// Sweeps β for a cell (no assists): the Fig. 4 study.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn beta_sweep(base: &CellParams, betas: &[f64]) -> Result<Vec<BetaPoint>, SramError> {
    Ok(sweep(base, betas, Some(None), Some(None))?
        .into_iter()
        .map(|m| BetaPoint {
            beta: m.beta,
            drnm: m.drnm.expect("read side runs"),
            wl_crit: m.wl_crit.expect("write side runs"),
        })
        .collect())
}

/// One point of a write-assist sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaPoint {
    /// Cell ratio β.
    pub beta: f64,
    /// `WL_crit` with the assist in force.
    pub wl_crit: WlCrit,
}

/// Sweeps β for one write-assist technique (Fig. 6(e)). WA techniques are
/// deployed at β > 1 (the cell is sized for reliable *read*, the assist
/// recovers the write).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn write_assist_sweep(
    base: &CellParams,
    assist: WriteAssist,
    betas: &[f64],
) -> Result<Vec<WaPoint>, SramError> {
    Ok(sweep(base, betas, None, Some(Some(assist)))?
        .into_iter()
        .map(|m| WaPoint {
            beta: m.beta,
            wl_crit: m.wl_crit.expect("write side runs"),
        })
        .collect())
}

/// One point of a read-assist sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaPoint {
    /// Cell ratio β.
    pub beta: f64,
    /// DRNM with the assist in force, V.
    pub drnm: f64,
}

/// Sweeps β for one read-assist technique (Fig. 7(e)). RA techniques are
/// deployed at β < 1 (the cell is sized for reliable *write*, the assist
/// recovers the read).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn read_assist_sweep(
    base: &CellParams,
    assist: ReadAssist,
    betas: &[f64],
) -> Result<Vec<RaPoint>, SramError> {
    Ok(sweep(base, betas, Some(Some(assist)), None)?
        .into_iter()
        .map(|m| RaPoint {
            beta: m.beta,
            drnm: m.drnm.expect("read side runs"),
        })
        .collect())
}

/// A technique's operating curve in the (DRNM, `WL_crit`) plane — one point
/// per β (Fig. 8). For WA techniques the *read* runs unassisted and the
/// *write* assisted; for RA techniques vice versa. The paper seeks the
/// curve closest to the lower-right corner (large DRNM, small `WL_crit`).
#[derive(Debug, Clone)]
pub struct TradeoffCurve {
    /// Technique label (paper legend).
    pub label: String,
    /// `(drnm, wl_crit)` pairs; write-failing points are omitted.
    pub points: Vec<(f64, f64)>,
}

/// The (DRNM, `WL_crit`) pairs of a two-sided sweep. Points whose write
/// fails are omitted, and so are unbracketable ones: their search's
/// decisive transient failed to converge, which makes the point
/// unmeasurable but does not kill the curve.
fn tradeoff(
    base: &CellParams,
    betas: &[f64],
    read: Option<ReadAssist>,
    write: Option<WriteAssist>,
) -> Result<Vec<(f64, f64)>, SramError> {
    Ok(sweep(base, betas, Some(read), Some(write))?
        .into_iter()
        .filter_map(|m| {
            let w = m.wl_crit.expect("write side runs").as_finite()?;
            Some((m.drnm.expect("read side runs"), w))
        })
        .collect())
}

/// Builds the Fig. 8 tradeoff curve for one write-assist technique.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn wa_tradeoff(
    base: &CellParams,
    assist: WriteAssist,
    betas: &[f64],
) -> Result<TradeoffCurve, SramError> {
    Ok(TradeoffCurve {
        label: format!("{} WA", assist.label()),
        points: tradeoff(base, betas, None, Some(assist))?,
    })
}

/// Builds the Fig. 8 tradeoff curve for one read-assist technique.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn ra_tradeoff(
    base: &CellParams,
    assist: ReadAssist,
    betas: &[f64],
) -> Result<TradeoffCurve, SramError> {
    Ok(TradeoffCurve {
        label: format!("{} RA", assist.label()),
        points: tradeoff(base, betas, Some(assist), None)?,
    })
}

/// Scores a tradeoff curve by its best proximity to the "lower-right
/// corner": for each point, `WL_crit` (s) is traded against DRNM (V); lower
/// is better. The score is the minimum over the curve of
/// `wl_crit / wl_scale − drnm / drnm_scale`.
pub fn corner_score(curve: &TradeoffCurve, wl_scale: f64, drnm_scale: f64) -> Option<f64> {
    curve
        .points
        .iter()
        .map(|&(drnm, wl)| wl / wl_scale - drnm / drnm_scale)
        .min_by(|a, b| a.partial_cmp(b).expect("finite scores"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::AccessConfig;

    fn fast(params: CellParams) -> CellParams {
        let mut p = params;
        p.sim.dt = 2e-12;
        p.sim.pulse_tol = 8e-12;
        p
    }

    #[test]
    fn beta_sweep_reproduces_fig4_shape() {
        let base = fast(CellParams::tfet6t(AccessConfig::InwardP));
        let pts = beta_sweep(&base, &[0.5, 1.0, 2.0]).unwrap();
        assert_eq!(pts.len(), 3);
        // DRNM grows with β…
        assert!(pts[2].drnm > pts[0].drnm);
        // …writes succeed at small β and fail at large β.
        assert!(!pts[0].wl_crit.is_infinite());
        assert!(pts[2].wl_crit.is_infinite());
    }

    #[test]
    fn gnd_raising_keeps_working_at_high_beta() {
        // Fig. 6(e): rail-based assist keeps enabling writes as β grows.
        let base = fast(CellParams::tfet6t(AccessConfig::InwardP));
        let pts = write_assist_sweep(&base, WriteAssist::GndRaising, &[1.5, 2.5, 3.5]).unwrap();
        assert!(
            pts.iter().all(|p| !p.wl_crit.is_infinite()),
            "GND raising must enable writes: {pts:?}"
        );
    }

    #[test]
    fn access_assists_beat_rail_assists_at_low_beta() {
        // Fig. 6(e): at low β, strengthening the access transistor
        // (wordline lowering / bitline raising) yields a much smaller
        // WL_crit than weakening the inverters (GND raising).
        let base = fast(CellParams::tfet6t(AccessConfig::InwardP));
        let beta = [1.2];
        let wll = write_assist_sweep(&base, WriteAssist::WordlineLowering, &beta).unwrap()[0]
            .wl_crit
            .as_finite()
            .expect("WLL writes at low β");
        let gndr = write_assist_sweep(&base, WriteAssist::GndRaising, &beta).unwrap()[0]
            .wl_crit
            .as_finite()
            .expect("GNDR writes at low β");
        assert!(wll < 0.5 * gndr, "WLL {wll:e} must beat GNDR {gndr:e}");
    }

    #[test]
    fn read_assist_sweep_improves_on_unassisted() {
        let base = fast(CellParams::tfet6t(AccessConfig::InwardP));
        let betas = [0.6];
        let plain = beta_sweep(&base, &betas).unwrap()[0].drnm;
        let assisted = read_assist_sweep(&base, ReadAssist::GndLowering, &betas).unwrap()[0].drnm;
        assert!(assisted > plain);
    }

    #[test]
    fn tradeoff_curves_have_labels_and_points() {
        let base = fast(CellParams::tfet6t(AccessConfig::InwardP));
        let curve = ra_tradeoff(&base, ReadAssist::GndLowering, &[0.6]).unwrap();
        assert_eq!(curve.label, "GND lowering RA");
        assert_eq!(curve.points.len(), 1);
        assert!(corner_score(&curve, 1e-9, 0.1).is_some());
    }

    #[test]
    fn corner_score_of_empty_curve_is_none() {
        let curve = TradeoffCurve {
            label: "x".into(),
            points: vec![],
        };
        assert_eq!(corner_score(&curve, 1e-9, 0.1), None);
    }
}

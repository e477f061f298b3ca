//! Monte-Carlo process-variation analysis (paper §4.3).
//!
//! The paper restricts variation to the gate-insulator thickness,
//! "controlled to within 5 %", and runs Monte-Carlo over the cell to obtain
//! `WL_crit` and DRNM distributions. That study is the brute-force case of
//! the rare-event yield sampler: every sample draws its per-transistor
//! process point through [`VariationModel::paper`] (an independent
//! truncated-Gaussian thickness deviation per transistor, every other
//! factor off) at `sigma_scale == 1`, so [`mc_wl_crit_with`] /
//! [`mc_drnm_with`] and a paper-model [`crate::rare_event`] study sample
//! one and the same process space.
//!
//! [`VariationModel::paper`]: crate::rare_event::VariationModel::paper
//!
//! All four studies — the two Monte-Carlo distributions here and the two
//! yield estimates of [`crate::rare_event`] — run through one per-sample
//! loop: a per-worker experiment compiled once and retargeted per sample,
//! index-order outcomes, replayed quarantine. Only the folds differ: this
//! module keeps survivor values and write failures, the yield layer keeps
//! weighted estimates.
//!
//! # Parallelism and determinism
//!
//! Samples are independent, so the study fans out over worker threads
//! ([`McConfig::threads`]). Each sample owns a *counter-based RNG stream* —
//! `StdRng` seeded from a mix of the study seed and the sample index — so
//! sample `i` draws the same variations no matter which worker runs it or
//! how many workers exist. Results are collected in sample order: a study is
//! bit-identical at any thread count, including the serial path.
//!
//! # Graceful degradation
//!
//! A sample whose simulation fails no longer aborts the study. It is
//! *quarantined*: excluded from the survivor statistics and recorded — with
//! its index, the exact factor draws it took, and the structured error —
//! in [`McWlCrit::quarantined`] / [`McDrnm::quarantined`], in the run
//! report's `quarantined` section, and (when tracing is on) as a
//! `mc_quarantine` forensics bundle. The quarantine set is deterministic:
//! outcomes are folded in sample order on the caller's thread, so it is
//! bit-identical at any worker count and the RNG streams of surviving
//! samples are untouched. [`McConfig::min_yield`] converts excessive
//! quarantine into a typed [`SramError::LowYield`] error.

use crate::assist::{ReadAssist, WriteAssist};
use crate::error::SramError;
use crate::metrics::{read_metrics_compiled, wl_crit_compiled, WlCrit, WlCritRun};
use crate::ops::{ReadExperiment, WriteExperiment};
use crate::rare_event::YieldConfig;
use crate::tech::CellParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tfet_numerics::parallel::par_map_with;

/// The paper's fabrication-control bound: ±5 % gate-oxide thickness.
pub const TOX_BOUND: f64 = 0.05;

/// Standard deviation of the thickness draw before truncation. With
/// σ = 2.5 % and truncation at ±5 % (2σ), most mass is Gaussian with the
/// fabrication bound enforced — the natural reading of "controlled to
/// within 5 %".
pub const TOX_SIGMA: f64 = 0.025;

/// Retry budget of the accept-reject stage in [`draw_truncated_normal`].
/// At the default σ = 2.5 % / bound = 5 % (2σ truncation) a single draw is
/// rejected with probability ≈ 0.0455, so exhausting 64 retries has
/// probability ≈ 1e-86 — the analytic fallback is unreachable in practice
/// and exists to make the worst case bounded, not to change the
/// distribution.
pub const DRAW_RETRIES: usize = 64;

/// Draws from a centered Gaussian with standard deviation `sigma`,
/// truncated to `[-bound, bound]`.
///
/// The fast path is bounded accept-reject (Box–Muller from two uniforms,
/// avoiding a `rand_distr` dependency); after [`DRAW_RETRIES`] rejections it
/// falls back to exact inverse-CDF sampling through the analytic truncated
/// mass — every call consumes a bounded number of RNG words and the sampled
/// law is the truncated normal either way. The truncation constant the
/// importance-sampling layer must carry in its likelihood ratios is
/// [`tfet_numerics::gaussian_mass_within`]`(sigma, bound)`.
pub fn draw_truncated_normal(rng: &mut StdRng, sigma: f64, bound: f64) -> f64 {
    for _ in 0..DRAW_RETRIES {
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let dev = z * sigma;
        if dev.abs() <= bound {
            return dev;
        }
    }
    // Exact fallback: map one uniform through the truncated CDF
    // F⁻¹(Φ(−b/σ) + u·Z). The clamp only guards the last-ulp rounding of
    // the inverse CDF at the interval ends.
    let u: f64 = rng.random::<f64>();
    let mass = tfet_numerics::gaussian_mass_within(sigma, bound);
    let lo = tfet_numerics::norm_cdf(-bound / sigma);
    (sigma * tfet_numerics::inv_norm_cdf(lo + u * mass)).clamp(-bound, bound)
}

/// Execution controls for a Monte-Carlo study.
///
/// ```
/// use tfet_sram::montecarlo::McConfig;
///
/// let cfg = McConfig::new(42).with_threads(4).with_min_yield(0.9);
/// assert_eq!(cfg.seed, 42);
/// assert_eq!(cfg.threads, Some(4));
/// assert_eq!(cfg.min_yield, 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// Worker-thread count; `None` uses the machine default (respecting the
    /// `RAYON_NUM_THREADS` environment variable). Results are identical for
    /// every setting.
    pub threads: Option<usize>,
    /// Study seed. Sample `i` derives its private RNG stream from
    /// `(seed, i)`, so the seed pins the entire study.
    pub seed: u64,
    /// Minimum acceptable survivor fraction. A study whose yield (samples
    /// that produced a result, over samples attempted) falls strictly below
    /// this returns [`SramError::LowYield`] instead of silently summarizing
    /// a biased remnant. The default `0.0` never rejects.
    pub min_yield: f64,
}

impl McConfig {
    /// A configuration with the given seed and default threading.
    pub fn new(seed: u64) -> Self {
        McConfig {
            threads: None,
            seed,
            min_yield: 0.0,
        }
    }

    /// Sets an explicit worker-thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the minimum acceptable survivor fraction (builder style).
    pub fn with_min_yield(mut self, min_yield: f64) -> Self {
        self.min_yield = min_yield;
        self
    }

    /// The RNG for one sample: an independent stream derived from the study
    /// seed and the sample index with a SplitMix64-style mix, so adjacent
    /// indices land far apart in state space.
    pub fn sample_rng(&self, index: usize) -> StdRng {
        let mut z = self
            .seed
            .wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        StdRng::seed_from_u64(z ^ (z >> 31))
    }
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig::new(0)
    }
}

/// One quarantined sample of a Monte-Carlo or yield study: a sample that
/// produced no verdict and was excluded from the statistics instead of
/// aborting the study.
///
/// The `(study seed, index)` pair replays the sample's private RNG stream,
/// so `params` are the *exact* factor draws the failing sample took —
/// enough to re-run it in isolation.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedSample {
    /// Sample index within the study.
    pub index: usize,
    /// Labeled factor draws in draw order, active factors only:
    /// `global.<factor>` for chip-global terms, `<role>.<factor>` per
    /// transistor (`pull_up_left.tox`, …).
    pub params: Vec<(String, f64)>,
    /// Why the sample was excluded: an out-of-validity-range draw or a
    /// failed simulation.
    pub error: SramError,
}

/// Outcome counts of a Monte-Carlo `WL_crit` study.
#[derive(Debug, Clone, PartialEq)]
pub struct McWlCrit {
    /// Finite critical pulse widths, s (one per non-failing sample).
    pub values: Vec<f64>,
    /// Samples whose write failed outright (infinite `WL_crit`) — the
    /// paper's verdict against wordline-lowering WA under variation.
    pub failures: usize,
    /// Samples that produced no verdict at all: their simulation failed
    /// (see the module docs on graceful degradation). An infinite `WL_crit`
    /// is a *verdict*, counted in `failures`, not here.
    pub quarantined: Vec<QuarantinedSample>,
}

impl McWlCrit {
    /// Fraction of failing samples among those that produced a verdict.
    pub fn failure_rate(&self) -> f64 {
        let n = self.values.len() + self.failures;
        if n == 0 {
            0.0
        } else {
            self.failures as f64 / n as f64
        }
    }

    /// Fraction of samples that produced a verdict (finite or infinite
    /// `WL_crit`); `1.0` for an empty study.
    pub fn yield_fraction(&self) -> f64 {
        yield_fraction(
            self.values.len() + self.failures,
            self.values.len() + self.failures + self.quarantined.len(),
        )
    }
}

/// Outcome of a Monte-Carlo DRNM study: survivor margins plus the
/// quarantined samples (see the module docs on graceful degradation).
#[derive(Debug, Clone, PartialEq)]
pub struct McDrnm {
    /// DRNM of each surviving sample, V.
    pub values: Vec<f64>,
    /// Samples whose simulation failed.
    pub quarantined: Vec<QuarantinedSample>,
}

impl McDrnm {
    /// Fraction of samples that produced a margin; `1.0` for an empty study.
    pub fn yield_fraction(&self) -> f64 {
        yield_fraction(
            self.values.len(),
            self.values.len() + self.quarantined.len(),
        )
    }
}

fn yield_fraction(survivors: usize, total: usize) -> f64 {
    if total == 0 {
        1.0
    } else {
        survivors as f64 / total as f64
    }
}

/// The sampling plan of a Monte-Carlo study: `n` brute-force samples of the
/// paper's t_ox-only model under the study's execution controls.
fn paper_plan(n: usize, config: McConfig) -> YieldConfig {
    YieldConfig {
        mc: config,
        ..YieldConfig::new(n, config.seed)
    }
}

/// Splits per-sample outcomes (already in index order) into weighted
/// survivors and quarantined samples. A failed sample's draws are replayed
/// from its RNG stream — cheaper than shipping them back from the worker,
/// and identical because the stream depends only on `(seed, index)`.
fn split_outcomes<T>(
    plan: &YieldConfig,
    outcomes: Vec<Result<(T, f64), SramError>>,
) -> (Vec<(T, f64)>, Vec<QuarantinedSample>) {
    let mut survivors = Vec::with_capacity(outcomes.len());
    let mut quarantined = Vec::new();
    for (index, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(v) => survivors.push(v),
            Err(error) => quarantined.push(QuarantinedSample {
                index,
                params: plan.replay_params(index),
                error,
            }),
        }
    }
    (survivors, quarantined)
}

/// The one per-sample study loop behind every Monte-Carlo and yield study.
///
/// Sample `i` draws its process point from `plan.model` on its private
/// `(seed, i)` stream at `plan.sigma_scale`. Each worker compiles its
/// experiment once on its first sample (`compile`) and retargets it per
/// sample (`bind`) — the compiled circuit is a pure cache (waveforms and
/// initial conditions depend only on the shared supply/timing, never on
/// the process point), so values stay bit-identical to a build-per-sample
/// loop at any thread count. `measure` runs the metric on the bound
/// experiment. Survivors come back in index order with their importance
/// weights; failed samples are quarantined.
pub(crate) fn run_samples<E, T: Send>(
    base: &CellParams,
    plan: &YieldConfig,
    span: &'static str,
    compile: impl Fn(&CellParams) -> Result<E, SramError> + Sync,
    bind: impl Fn(&mut E, &CellParams) -> Result<(), SramError> + Sync,
    measure: impl Fn(&mut E) -> Result<T, SramError> + Sync,
) -> (Vec<(T, f64)>, Vec<QuarantinedSample>) {
    let outcomes = par_map_with(
        plan.n,
        plan.mc.threads,
        || None,
        |slot: &mut Option<E>, i| {
            // A *root* span: at one worker the sample runs inline on the
            // caller's thread (under the study's span), at many it runs on
            // a fresh thread — pinning the path keeps the span tree
            // thread-count invariant.
            let _span = tfet_obs::root_span(span);
            let result = (|| {
                let mut rng = plan.mc.sample_rng(i);
                let (process, weight) = plan.model.draw(&mut rng, plan.sigma_scale, base.vdd)?;
                let params = base.clone().with_process(process);
                let exp = match slot {
                    Some(exp) => {
                        bind(exp, &params)?;
                        exp
                    }
                    None => slot.insert(compile(&params)?),
                };
                Ok((measure(exp)?, weight))
            })();
            if result.is_err() {
                // A failed sample must not poison the worker's compiled
                // cache: later samples have to behave exactly as they would
                // on a fresh worker, whatever the scheduling.
                *slot = None;
            }
            result
        },
    );
    split_outcomes(plan, outcomes)
}

/// The nominal cell's `WL_crit`, used to seed every sample's bisection:
/// process variation perturbs `WL_crit` by a few percent, so the nominal
/// value lands each sample's search in a narrow bracket. Computed once,
/// before the fan-out, and shared by all samples — never chained sample to
/// sample — so results stay bit-identical at any thread count. A failing
/// or unbracketable nominal cell yields no hint and samples fall back to
/// the cold search.
pub(crate) fn nominal_hint(base: &CellParams, assist: Option<WriteAssist>) -> Option<f64> {
    WriteExperiment::compile(base, assist)
        .ok()
        .and_then(|mut exp| wl_crit_compiled(&mut exp, None).ok())
        .and_then(|run| run.value.as_finite())
}

/// A sample's `WL_crit` verdict. An unbracketable search is a failed
/// sample, not a verdict: it surfaces its recorded cause for quarantine, so
/// an `Ok` verdict is always finite or infinite.
pub(crate) fn wl_crit_verdict(run: WlCritRun) -> Result<WlCrit, SramError> {
    match run.value {
        WlCrit::Unbracketable => Err(run.failure.unwrap_or_else(|| SramError::Undefined {
            metric: "WL_crit",
            reason: "unbracketable search with no recorded cause".into(),
        })),
        value => Ok(value),
    }
}

/// Publishes one run-report quarantine record per sample — from the
/// caller's thread in index order, so traces are bit-identical at any
/// worker count.
pub(crate) fn publish_quarantine_records(
    study: &'static str,
    seed: u64,
    quarantined: &[QuarantinedSample],
) {
    for q in quarantined {
        tfet_obs::quarantine(tfet_obs::QuarantineRecord {
            study,
            index: q.index as u64,
            seed,
            params: q.params.clone(),
            error: q.error.to_string(),
        });
    }
}

/// Publishes a Monte-Carlo study's quarantine: the `mc.quarantined`
/// counter, the run-report records, and one `mc_quarantine` forensics
/// bundle per sample.
fn publish_quarantine(study: &'static str, config: &McConfig, quarantined: &[QuarantinedSample]) {
    if quarantined.is_empty() || !tfet_obs::enabled() {
        return;
    }
    tfet_obs::counter("mc.quarantined", quarantined.len() as u64);
    publish_quarantine_records(study, config.seed, quarantined);
    for q in quarantined {
        tfet_obs::forensics::submit(
            &tfet_obs::forensics::Bundle::new("mc_quarantine")
                .text("study", study)
                .int("sample_index", q.index as u64)
                .int("seed", config.seed)
                .text("error", q.error.to_string())
                .named_nums("params", &q.params),
        );
    }
}

/// Converts excessive quarantine into a typed error: with `min_yield > 0`,
/// a survivor fraction strictly below it aborts the study.
pub(crate) fn check_yield(
    survivors: usize,
    total: usize,
    config: &McConfig,
) -> Result<(), SramError> {
    if total > 0 && (survivors as f64) < config.min_yield * total as f64 {
        return Err(SramError::LowYield {
            survivors,
            total,
            min_yield: config.min_yield,
        });
    }
    Ok(())
}

/// Runs an `n`-sample Monte-Carlo of `WL_crit` under explicit execution
/// controls. Samples fan out over [`McConfig::threads`] workers; the result
/// is bit-identical at any thread count (see the module docs). Variations
/// bind to devices by [`Role`](crate::tech::Role), so a deck-imported cell
/// ([`CellParams::with_topology`]) sees exactly the process space a
/// generated one does.
///
/// # Errors
///
/// Per-sample simulation failures are quarantined, not propagated (an
/// *infinite* `WL_crit` is a data point, not an error, and not a quarantine
/// either). Returns [`SramError::LowYield`] when the fraction of samples
/// producing a verdict falls below [`McConfig::min_yield`].
pub fn mc_wl_crit_with(
    base: &CellParams,
    assist: Option<WriteAssist>,
    n: usize,
    config: McConfig,
) -> Result<McWlCrit, SramError> {
    let _span = tfet_obs::span("mc_wl_crit");
    let hint = nominal_hint(base, assist);
    let (verdicts, quarantined) = run_samples(
        base,
        &paper_plan(n, config),
        "mc_sample_wl_crit",
        |params| WriteExperiment::compile(params, assist),
        WriteExperiment::bind_cell,
        |exp| {
            let run = wl_crit_compiled(exp, hint)?;
            // Per-sample solve cost: how much Newton effort one MC sample
            // charges, as a histogram so outlier samples stand out.
            tfet_obs::record_u64("mc.sample_newton_solves", run.effort.newton_solves);
            tfet_obs::record_u64("mc.sample_newton_iters", run.effort.newton_iters);
            wl_crit_verdict(run)
        },
    );
    let mut values = Vec::with_capacity(verdicts.len());
    let mut failures = 0;
    for (verdict, _) in verdicts {
        match verdict {
            WlCrit::Finite(w) => values.push(w),
            WlCrit::Infinite => failures += 1,
            WlCrit::Unbracketable => unreachable!("quarantined by wl_crit_verdict"),
        }
    }
    publish_quarantine("mc_wl_crit", &config, &quarantined);
    check_yield(values.len() + failures, n, &config)?;
    Ok(McWlCrit {
        values,
        failures,
        quarantined,
    })
}

/// Runs an `n`-sample Monte-Carlo of the DRNM under explicit execution
/// controls. Bit-identical at any thread count.
///
/// # Errors
///
/// Per-sample simulation failures are quarantined, not propagated. Returns
/// [`SramError::LowYield`] when the survivor fraction falls below
/// [`McConfig::min_yield`].
pub fn mc_drnm_with(
    base: &CellParams,
    assist: Option<ReadAssist>,
    n: usize,
    config: McConfig,
) -> Result<McDrnm, SramError> {
    let _span = tfet_obs::span("mc_drnm");
    let (survivors, quarantined) = run_samples(
        base,
        &paper_plan(n, config),
        "mc_sample_drnm",
        |params| ReadExperiment::compile(params, assist),
        ReadExperiment::bind_cell,
        |exp| read_metrics_compiled(exp).map(|m| m.drnm),
    );
    let values: Vec<f64> = survivors.into_iter().map(|(v, _)| v).collect();
    publish_quarantine("mc_drnm", &config, &quarantined);
    check_yield(values.len(), n, &config)?;
    Ok(McDrnm {
        values,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rare_event::VariationModel;
    use crate::tech::{AccessConfig, CellKind, CellProcess, Role};
    use tfet_devices::ProcessPoint;
    use tfet_numerics::Summary;

    fn fast(params: CellParams) -> CellParams {
        let mut p = params;
        p.sim.dt = 2e-12;
        p.sim.pulse_tol = 8e-12;
        p
    }

    /// Rebuilds the per-role process point from a paper-model quarantine
    /// record's draws — one `<role>.tox` deviation per transistor.
    fn replayed_process(q: &QuarantinedSample) -> CellProcess {
        assert_eq!(q.params.len(), Role::ALL.len());
        Role::ALL.into_iter().zip(&q.params).fold(
            CellProcess::nominal(),
            |process, (role, (label, dev))| {
                assert_eq!(label, &format!("{}.tox", role.label()));
                process.with(role, ProcessPoint::try_new(*dev, 0.0, 0.0).unwrap())
            },
        )
    }

    #[test]
    fn deviations_respect_bound() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2000 {
            let d = draw_truncated_normal(&mut rng, TOX_SIGMA, TOX_BOUND);
            assert!(d.abs() <= TOX_BOUND);
        }
    }

    #[test]
    fn deviations_have_expected_spread() {
        let mut rng = StdRng::seed_from_u64(11);
        let draws: Vec<f64> = (0..4000)
            .map(|_| draw_truncated_normal(&mut rng, TOX_SIGMA, TOX_BOUND))
            .collect();
        let s = Summary::of(&draws);
        assert!(s.mean.abs() < 0.003, "mean = {}", s.mean);
        assert!((s.std_dev - TOX_SIGMA).abs() < 0.005, "std = {}", s.std_dev);
    }

    #[test]
    fn truncated_sampler_fallback_respects_bound() {
        // sigma >> bound starves the accept-reject phase (acceptance
        // ~ 0.2 % per try), forcing the inverse-CDF fallback on most
        // draws; every draw must still land inside the bound.
        let mut rng = StdRng::seed_from_u64(5);
        let draws: Vec<f64> = (0..500)
            .map(|_| draw_truncated_normal(&mut rng, 5.0, 0.01))
            .collect();
        assert!(draws.iter().all(|d| d.abs() <= 0.01));
        // A heavily truncated Gaussian is near-uniform on the bound: the
        // spread must reflect the truncation, not the nominal sigma.
        let s = Summary::of(&draws);
        assert!(s.std_dev < 0.01, "std = {}", s.std_dev);
        assert!(s.std_dev > 0.004, "std = {}", s.std_dev);
    }

    #[test]
    fn truncated_sampler_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(21);
        let mut b = StdRng::seed_from_u64(21);
        for _ in 0..200 {
            // Both the Box-Muller accept path and (with the wide sigma)
            // the fallback path must replay bit-identically.
            assert_eq!(
                draw_truncated_normal(&mut a, TOX_SIGMA, TOX_BOUND),
                draw_truncated_normal(&mut b, TOX_SIGMA, TOX_BOUND)
            );
            assert_eq!(
                draw_truncated_normal(&mut a, 2.0, 0.05),
                draw_truncated_normal(&mut b, 2.0, 0.05)
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = VariationModel::paper();
        let va = model.sample(&McConfig::new(42), 0, 0.8).unwrap();
        let vb = model.sample(&McConfig::new(42), 0, 0.8).unwrap();
        for role in Role::ALL {
            assert_eq!(va.of(role), vb.of(role));
        }
    }

    #[test]
    fn samples_differ_across_roles() {
        let v = VariationModel::paper()
            .sample(&McConfig::new(1), 0, 0.8)
            .unwrap();
        let devs: Vec<f64> = Role::ALL.iter().map(|&r| v.of(r).tox.deviation()).collect();
        let distinct = devs
            .iter()
            .filter(|&&d| (d - devs[0]).abs() > 1e-12)
            .count();
        assert!(distinct > 0, "per-transistor draws must be independent");
    }

    #[test]
    fn sample_rng_streams_are_independent_and_stable() {
        let cfg = McConfig::new(123);
        // Same (seed, index) → same stream.
        let a: f64 = cfg.sample_rng(5).random();
        let b: f64 = cfg.sample_rng(5).random();
        assert_eq!(a, b);
        // Adjacent indices and different seeds → different streams.
        let c: f64 = cfg.sample_rng(6).random();
        let d: f64 = McConfig::new(124).sample_rng(5).random();
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn mc_wl_crit_is_thread_count_invariant() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let serial = mc_wl_crit_with(&p, None, 4, McConfig::new(9).with_threads(1)).unwrap();
        let parallel = mc_wl_crit_with(&p, None, 4, McConfig::new(9).with_threads(8)).unwrap();
        assert_eq!(serial, parallel, "results must not depend on scheduling");
    }

    #[test]
    fn mc_drnm_spreads_but_stays_positive() {
        // Paper Fig. 10: DRNM under RA sizing is minimally impacted.
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let mc = mc_drnm_with(&p, Some(ReadAssist::GndLowering), 12, McConfig::new(3)).unwrap();
        assert_eq!(mc.values.len(), 12);
        assert!(
            mc.quarantined.is_empty(),
            "healthy cells quarantine nothing"
        );
        assert_eq!(mc.yield_fraction(), 1.0);
        let s = Summary::of(&mc.values);
        assert!(s.min > 0.0, "all samples must read safely");
        assert!(
            s.cv() < 0.3,
            "DRNM spread under RA must be modest: cv = {}",
            s.cv()
        );
    }

    #[test]
    fn mc_wl_crit_produces_finite_values_for_writable_cell() {
        let p = fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6));
        let mc = mc_wl_crit_with(&p, None, 8, McConfig::new(5)).unwrap();
        assert_eq!(mc.values.len() + mc.failures, 8);
        assert_eq!(mc.failures, 0, "β=0.6 writes must survive ±5% t_ox");
        assert!(mc.failure_rate() == 0.0);
        assert!(
            mc.quarantined.is_empty(),
            "healthy cells quarantine nothing"
        );
        assert_eq!(mc.yield_fraction(), 1.0);
    }

    #[test]
    fn mc_quarantines_samples_that_cannot_be_measured() {
        // The asymmetric cell rejects WL_crit per sample, and its failing
        // nominal cell also yields no bisection hint — the study must
        // degrade to a complete, structured quarantine instead of aborting
        // (it used to return the first sample's error).
        let p = fast(CellParams::new(CellKind::TfetAsym6T));
        let mc = mc_wl_crit_with(&p, None, 3, McConfig::new(5)).unwrap();
        assert!(mc.values.is_empty());
        assert_eq!(mc.failures, 0);
        assert_eq!(mc.quarantined.len(), 3);
        assert_eq!(mc.yield_fraction(), 0.0);
        for (i, q) in mc.quarantined.iter().enumerate() {
            assert_eq!(q.index, i, "quarantine is in sample order");
            assert!(
                matches!(
                    q.error,
                    SramError::Undefined {
                        metric: "WL_crit",
                        ..
                    }
                ),
                "structured cause, got {:?}",
                q.error
            );
            // The recorded draws replay the sample's RNG stream.
            let drawn = VariationModel::paper().sample(&McConfig::new(5), i, p.vdd);
            assert_eq!(replayed_process(q), drawn.unwrap());
        }
        // Survivor statistics degrade cleanly to "no data", not a panic.
        assert!(Summary::try_of(&mc.values).is_none());
    }

    #[test]
    fn mc_quarantine_is_thread_count_invariant() {
        let p = fast(CellParams::new(CellKind::TfetAsym6T));
        let serial = mc_wl_crit_with(&p, None, 4, McConfig::new(9).with_threads(1)).unwrap();
        let parallel = mc_wl_crit_with(&p, None, 4, McConfig::new(9).with_threads(8)).unwrap();
        assert_eq!(
            serial, parallel,
            "quarantine sets must not depend on scheduling"
        );
    }

    #[test]
    fn min_yield_converts_excessive_quarantine_into_a_typed_error() {
        let p = fast(CellParams::new(CellKind::TfetAsym6T));
        let err = mc_wl_crit_with(&p, None, 3, McConfig::new(5).with_min_yield(0.5)).unwrap_err();
        assert_eq!(
            err,
            SramError::LowYield {
                survivors: 0,
                total: 3,
                min_yield: 0.5
            }
        );
        assert!(err.to_string().contains("yield too low"), "{err}");
    }

    #[test]
    fn mixed_outcomes_split_into_survivors_and_quarantine() {
        // The fold itself, on synthetic outcomes: survivors keep their order,
        // failures quarantine at their own index with their own draw.
        let config = McConfig::new(7);
        let outcomes: Vec<Result<(f64, f64), SramError>> = vec![
            Ok((1.0, 1.0)),
            Err(SramError::InvalidParameter("boom".into())),
            Ok((2.0, 1.0)),
        ];
        let (survivors, quarantined) = split_outcomes(&paper_plan(3, config), outcomes);
        assert_eq!(survivors, vec![(1.0, 1.0), (2.0, 1.0)]);
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].index, 1);
        let drawn = VariationModel::paper().sample(&config, 1, 0.8);
        assert_eq!(replayed_process(&quarantined[0]), drawn.unwrap());
        assert!(check_yield(2, 3, &config).is_ok());
        assert!(check_yield(2, 3, &config.with_min_yield(2.0 / 3.0)).is_ok());
        assert!(check_yield(2, 3, &config.with_min_yield(0.9)).is_err());
    }
}

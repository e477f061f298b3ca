//! Time-dependent source stimuli.
//!
//! Every assist technique in the paper is, electrically, a reshaped source
//! waveform (a lowered supply during the write window, a raised ground
//! during the read window, …), so the waveform layer is where the §4 study
//! is ultimately expressed.

use tfet_numerics::Lut1d;

/// A source stimulus: value as a function of time.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Piecewise-linear interpolation through `(time, value)` breakpoints;
    /// clamps to the first/last value outside the range.
    Pwl(Lut1d),
}

impl Waveform {
    /// A constant source.
    pub fn dc(value: f64) -> Self {
        Waveform::Dc(value)
    }

    /// A piecewise-linear source through the given breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given or times are not strictly
    /// increasing.
    pub fn pwl(points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "PWL needs at least two breakpoints");
        let times: Vec<f64> = points.iter().map(|p| p.0).collect();
        let values: Vec<f64> = points.iter().map(|p| p.1).collect();
        let lut = Lut1d::new(times, values).expect("PWL breakpoints must increase in time");
        Waveform::Pwl(lut)
    }

    /// A single pulse from `base` to `level`:
    ///
    /// ```text
    /// base ----+        +---- base
    ///          /¯¯¯¯¯¯¯¯\
    ///      t_start     t_start + width
    /// ```
    ///
    /// with linear edges of `t_edge` on each side. The pulse is *inside*
    /// `[t_start, t_start + width]`; edges eat into the plateau, matching
    /// how a wordline pulse of width `w` is normally specified.
    ///
    /// # Panics
    ///
    /// Panics if `width <= 2 * t_edge`, or any duration is non-positive.
    pub fn pulse(base: f64, level: f64, t_start: f64, width: f64, t_edge: f64) -> Self {
        assert!(t_edge > 0.0, "edge time must be positive");
        assert!(
            width > 2.0 * t_edge,
            "pulse width {width} must exceed both edges (2×{t_edge})"
        );
        assert!(t_start >= 0.0, "pulse must start at t >= 0");
        let eps = t_edge * 1e-6;
        Waveform::pwl(&[
            (0.0 - eps, base),
            (t_start.max(eps), base),
            (t_start + t_edge, level),
            (t_start + width - t_edge, level),
            (t_start + width, base),
        ])
    }

    /// A single linear step from `from` to `to` starting at `t_start`,
    /// lasting `t_edge`, and holding afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `t_edge <= 0`.
    pub fn step(from: f64, to: f64, t_start: f64, t_edge: f64) -> Self {
        assert!(t_edge > 0.0, "edge time must be positive");
        let eps = t_edge * 1e-6;
        Waveform::pwl(&[
            (0.0 - eps, from),
            (t_start.max(eps), from),
            (t_start + t_edge, to),
        ])
    }

    /// Whether this stimulus is constant in time. Compiled experiments use
    /// this to skip rebinding sources whose waveform cannot depend on the
    /// swept parameter (an unassisted rail stays DC at every pulse width).
    pub fn is_dc(&self) -> bool {
        matches!(self, Waveform::Dc(_))
    }

    /// The stimulus value at time `t` (seconds).
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pwl(lut) => lut.eval(t),
        }
    }

    /// The value at `t = 0`, used as the DC level for initial operating
    /// points.
    pub fn initial(&self) -> f64 {
        self.value(0.0)
    }

    /// Breakpoint times (empty for DC) — the transient engine refines its
    /// step grid so edges land on steps exactly.
    pub fn breakpoints(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.breakpoints_into(&mut out);
        out
    }

    /// Appends this waveform's breakpoint times to `out` without allocating
    /// a fresh vector — the adaptive transient engine harvests every
    /// source's edges into one reusable schedule buffer per run.
    pub fn breakpoints_into(&self, out: &mut Vec<f64>) {
        if let Waveform::Pwl(lut) = self {
            out.extend_from_slice(lut.axis());
        }
    }

    /// The time `s` up to which `self` and `other` describe the same
    /// stimulus: on `[0, s)` they are the same piecewise-linear function,
    /// and their breakpoints in `(0, s)` coincide, so the adaptive step
    /// schedule cannot tell them apart either. A flat plateau of equal
    /// level counts as shared up to its shorter end. Returns `+∞` for equal
    /// stimuli and `0` for stimuli that differ from the start.
    ///
    /// Every shared ramp and clamped end evaluates to the same bits in
    /// both. A shared plateau need not: where its ends differ it
    /// interpolates with a different `t`, and the blend can round one ulp
    /// apart (see [`Lut1d::eval`]). Callers that need bit-identity check
    /// the times they evaluate, as compiled circuits do. Does not allocate.
    pub fn shared_until(&self, other: &Waveform) -> f64 {
        let (mut i, mut j) = (0, 0);
        let mut from = f64::NEG_INFINITY;
        loop {
            if self.piece(i) != other.piece(j) {
                return from.max(0.0);
            }
            let (end_a, end_b) = (self.piece_end(i), other.piece_end(j));
            let to = end_a.min(end_b);
            if to == f64::INFINITY {
                return f64::INFINITY;
            }
            if end_a != end_b && to > 0.0 {
                // A breakpoint only one stimulus has.
                return to;
            }
            i += usize::from(end_a == to);
            j += usize::from(end_b == to);
            from = to;
        }
    }

    /// Piece `k` of the stimulus, where the pieces of a PWL through
    /// `x_0 < … < x_{n−1}` are `(−∞, x_0)`, the segments `[x_{k−1}, x_k)`
    /// and `[x_{n−1}, ∞)`.
    fn piece(&self, k: usize) -> Piece {
        match self {
            Waveform::Dc(v) => Piece::Level(v.to_bits()),
            Waveform::Pwl(lut) => {
                let (x, v) = (lut.axis(), lut.values());
                let level = match k {
                    0 => Some(v[0]),
                    k if k == x.len() => Some(v[k - 1]),
                    k if v[k - 1] == v[k] => Some(v[k]),
                    _ => None,
                };
                match level {
                    Some(l) => Piece::Level(l.to_bits()),
                    None => Piece::Ramp([x[k - 1], x[k], v[k - 1], v[k]].map(f64::to_bits)),
                }
            }
        }
    }

    /// Where piece `k` ends (`+∞` for the last one).
    fn piece_end(&self, k: usize) -> f64 {
        match self {
            Waveform::Dc(_) => f64::INFINITY,
            Waveform::Pwl(lut) => lut.axis().get(k).copied().unwrap_or(f64::INFINITY),
        }
    }
}

/// One piece of a waveform: a level (clamped end or flat segment) or a
/// linear ramp through its two end points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Piece {
    Level(u64),
    Ramp([u64; 4]),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::dc(0.8);
        assert_eq!(w.value(0.0), 0.8);
        assert_eq!(w.value(1.0), 0.8);
        assert_eq!(w.initial(), 0.8);
        assert!(w.breakpoints().is_empty());
        assert!(w.is_dc());
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::pwl(&[(0.0, 0.0), (1e-9, 1.0)]);
        assert!(!w.is_dc());
        assert_eq!(w.value(-1.0), 0.0);
        assert!((w.value(0.5e-9) - 0.5).abs() < 1e-12);
        assert_eq!(w.value(2e-9), 1.0);
    }

    #[test]
    fn pulse_shape() {
        let w = Waveform::pulse(0.8, 0.0, 100e-12, 200e-12, 10e-12);
        assert_eq!(w.value(0.0), 0.8); // before
        assert_eq!(w.value(50e-12), 0.8); // before start
        assert!((w.value(110e-12) - 0.0).abs() < 1e-9); // after leading edge
        assert!((w.value(200e-12) - 0.0).abs() < 1e-9); // plateau
        assert!((w.value(285e-12) - 0.0).abs() < 1e-9); // before trailing edge
        assert_eq!(w.value(400e-12), 0.8); // after
                                           // Mid leading edge.
        assert!((w.value(105e-12) - 0.4).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "must exceed")]
    fn pulse_narrower_than_edges_rejected() {
        Waveform::pulse(0.0, 1.0, 0.0, 10e-12, 10e-12);
    }

    #[test]
    fn step_shape() {
        let w = Waveform::step(0.8, 0.56, 1e-9, 50e-12);
        assert_eq!(w.value(0.0), 0.8);
        assert!((w.value(1.025e-9) - 0.68).abs() < 1e-9);
        assert_eq!(w.value(2e-9), 0.56);
    }

    #[test]
    fn pulse_starting_at_zero_is_legal() {
        let w = Waveform::pulse(0.8, 0.0, 0.0, 100e-12, 10e-12);
        // Starts at base and immediately ramps.
        assert!(w.value(0.0) > 0.7);
        assert!((w.value(50e-12) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn pulses_of_different_widths_share_up_to_the_shorter_plateau_end() {
        let (t0, e) = (250e-12, 10e-12);
        let short = Waveform::pulse(0.8, 0.0, t0, 300e-12, e);
        let long = Waveform::pulse(0.8, 0.0, t0, 700e-12, e);
        let s = short.shared_until(&long);
        assert_eq!(s, t0 + 300e-12 - e);
        assert_eq!(s, long.shared_until(&short), "symmetric");
        // The plateau sits at 0 V, where the blend is exact, so here the
        // whole shared span is bit-identical.
        for k in 0..1000 {
            let t = s * k as f64 / 1000.0;
            assert_eq!(
                short.value(t).to_bits(),
                long.value(t).to_bits(),
                "t = {t:e}"
            );
        }
        assert_ne!(short.value(s + 5e-12), long.value(s + 5e-12));
    }

    #[test]
    fn narrow_pulses_with_their_own_edge_stop_sharing_at_the_start() {
        // Below 4·t_edge a write pulse gets edges of width/4: the rising
        // edges differ, so nothing after the pulse start is shared.
        let t0 = 250e-12;
        let w1 = 30e-12;
        let w2 = 400e-12;
        let narrow = Waveform::pulse(0.8, 0.0, t0, w1, w1 / 4.0);
        let wide = Waveform::pulse(0.8, 0.0, t0, w2, 10e-12);
        assert_eq!(narrow.shared_until(&wide), t0);
        let narrower = Waveform::pulse(0.8, 0.0, t0, 20e-12, 5e-12);
        assert_eq!(narrow.shared_until(&narrower), t0);
    }

    #[test]
    fn dc_sharing() {
        let a = Waveform::dc(0.8);
        assert_eq!(a.shared_until(&Waveform::dc(0.8)), f64::INFINITY);
        assert_eq!(a.shared_until(&Waveform::dc(0.7)), 0.0);
        // A step that rests at the DC level shares up to its edge.
        let step = Waveform::step(0.8, 0.0, 200e-12, 10e-12);
        assert_eq!(a.shared_until(&step), 200e-12);
        assert_eq!(step.shared_until(&step.clone()), f64::INFINITY);
    }

    #[test]
    fn breakpoints_reported() {
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 100e-12, 10e-12);
        let bp = w.breakpoints();
        assert_eq!(bp.len(), 5);
        assert!(bp.windows(2).all(|w| w[0] < w[1]));
    }
}

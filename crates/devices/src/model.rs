//! The [`DeviceModel`] trait — the contract between device physics and the
//! circuit simulator.
//!
//! A model answers two questions at a terminal-voltage operating point:
//! what current flows into the drain ([`DeviceModel::ids_per_um`]), and what
//! small-signal capacitances load the terminals
//! ([`DeviceModel::caps_per_um`]). Everything is expressed per micrometre of
//! gate width; the circuit layer multiplies by the transistor's width.

use std::fmt::Debug;
use std::sync::Arc;

/// Channel polarity of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// n-channel: conducts (drain current positive) for positive gate drive.
    N,
    /// p-channel: conducts for negative gate drive.
    P,
}

impl Polarity {
    /// The opposite polarity.
    pub fn flipped(self) -> Polarity {
        match self {
            Polarity::N => Polarity::P,
            Polarity::P => Polarity::N,
        }
    }
}

/// Broad technology class of a device, used for reporting and area models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Tunneling FET (unidirectional conduction).
    Tfet,
    /// Conventional MOSFET (bidirectional conduction).
    Mosfet,
}

/// Small-signal terminal capacitances at an operating point, F per µm width.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Caps {
    /// Gate–source capacitance.
    pub cgs: f64,
    /// Gate–drain capacitance (the TFET's dominant, Miller-amplified term).
    pub cgd: f64,
    /// Drain–bulk/ground junction capacitance.
    pub cdb: f64,
    /// Source–bulk/ground junction capacitance.
    pub csb: f64,
}

impl Caps {
    /// Total capacitance seen from the gate terminal.
    pub fn gate_total(&self) -> f64 {
        self.cgs + self.cgd
    }
}

/// A compact transistor model evaluated at raw terminal voltages.
///
/// Implementations must be:
///
/// * **finite everywhere** — Newton iterates can visit absurd voltages, and
///   a NaN or infinity kills the solve (see `consts::lim_exp`);
/// * **continuous** in all arguments, ideally C¹, for Newton convergence;
/// * **per-µm normalized** — the circuit layer owns widths.
///
/// The trait is object-safe; the circuit crate stores `Arc<dyn DeviceModel>`.
pub trait DeviceModel: Debug + Send + Sync {
    /// Short human-readable model name (e.g. `"ntfet"`).
    fn name(&self) -> &str;

    /// Channel polarity.
    fn polarity(&self) -> Polarity;

    /// Technology class.
    fn kind(&self) -> DeviceKind;

    /// Conventional current flowing into the drain terminal, A per µm of
    /// width, at gate/drain/source potentials `vg`, `vd`, `vs` (volts,
    /// absolute node potentials).
    fn ids_per_um(&self, vg: f64, vd: f64, vs: f64) -> f64;

    /// Small-signal terminal capacitances at the operating point, F/µm.
    fn caps_per_um(&self, vg: f64, vd: f64, vs: f64) -> Caps;

    /// The three small-signal conductances `(gm, gds, gs)` = ∂I_D/∂(V_G,
    /// V_D, V_S), S/µm — the quantity the Newton stamp needs. Every model
    /// supplies them in closed form; the simulator's inner loop calls this
    /// once per device evaluation.
    fn conductances_per_um(&self, vg: f64, vd: f64, vs: f64) -> (f64, f64, f64);
}

/// Finite-difference voltage step for checking analytic derivatives against
/// central differences of the current.
///
/// 0.5 mV: small against the ~26 mV thermal voltage that sets the sharpest
/// model curvature, large enough to stay clear of floating-point noise on
/// currents down to 1e-18 A.
#[inline]
pub fn derivative_step() -> f64 {
    5e-4
}

/// Blanket implementation so `Arc<dyn DeviceModel>` (and `&M`, `Box<M>`)
/// can be used wherever a model is expected.
impl<M: DeviceModel + ?Sized> DeviceModel for Arc<M> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn polarity(&self) -> Polarity {
        (**self).polarity()
    }
    fn kind(&self) -> DeviceKind {
        (**self).kind()
    }
    fn ids_per_um(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        (**self).ids_per_um(vg, vd, vs)
    }
    fn caps_per_um(&self, vg: f64, vd: f64, vs: f64) -> Caps {
        (**self).caps_per_um(vg, vd, vs)
    }
    fn conductances_per_um(&self, vg: f64, vd: f64, vs: f64) -> (f64, f64, f64) {
        (**self).conductances_per_um(vg, vd, vs)
    }
}

/// The p-type dual of an n-type model: every terminal voltage is negated and
/// the current mirrored. Physically exact for a symmetric technology and the
/// standard way to derive `PTfet`/`Pmos` from their n-type parameter sets.
#[derive(Debug, Clone)]
pub struct DualOf<M> {
    inner: M,
    name: String,
}

impl<M: DeviceModel> DualOf<M> {
    /// Wraps `inner`, exposing it as the opposite-polarity device under
    /// `name`.
    pub fn new(inner: M, name: impl Into<String>) -> Self {
        DualOf {
            inner,
            name: name.into(),
        }
    }

    /// The wrapped n-type model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: DeviceModel> DeviceModel for DualOf<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn polarity(&self) -> Polarity {
        self.inner.polarity().flipped()
    }

    fn kind(&self) -> DeviceKind {
        self.inner.kind()
    }

    fn ids_per_um(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        -self.inner.ids_per_um(-vg, -vd, -vs)
    }

    fn caps_per_um(&self, vg: f64, vd: f64, vs: f64) -> Caps {
        // Capacitances are magnitudes; evaluate the mirror point.
        self.inner.caps_per_um(-vg, -vd, -vs)
    }

    fn conductances_per_um(&self, vg: f64, vd: f64, vs: f64) -> (f64, f64, f64) {
        // ids = −inner(−vg, −vd, −vs): the two sign flips cancel, so the
        // conductances are the inner model's at the mirrored point.
        self.inner.conductances_per_um(-vg, -vd, -vs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake linear device for exercising trait plumbing:
    /// I = g·(vd − vs) + gm·vg.
    #[derive(Debug, Clone)]
    struct LinearDev {
        g: f64,
        gm: f64,
    }

    impl DeviceModel for LinearDev {
        fn name(&self) -> &str {
            "linear"
        }
        fn polarity(&self) -> Polarity {
            Polarity::N
        }
        fn kind(&self) -> DeviceKind {
            DeviceKind::Mosfet
        }
        fn ids_per_um(&self, vg: f64, vd: f64, vs: f64) -> f64 {
            self.g * (vd - vs) + self.gm * vg
        }
        fn caps_per_um(&self, _: f64, _: f64, _: f64) -> Caps {
            Caps {
                cgs: 1e-15,
                cgd: 2e-15,
                ..Caps::default()
            }
        }
        fn conductances_per_um(&self, _: f64, _: f64, _: f64) -> (f64, f64, f64) {
            (self.gm, self.g, -self.g)
        }
    }

    #[test]
    fn dual_negates_current_and_flips_polarity() {
        let n = LinearDev { g: 1e-3, gm: 0.0 };
        let p = DualOf::new(n.clone(), "linear-p");
        assert_eq!(p.polarity(), Polarity::P);
        // n at (0, +1, 0) conducts +1 mA; p at mirrored bias conducts −1 mA.
        let i_n = n.ids_per_um(0.0, 1.0, 0.0);
        let i_p = p.ids_per_um(0.0, -1.0, 0.0);
        assert!((i_n + i_p).abs() < 1e-18);
        assert_eq!(p.name(), "linear-p");
    }

    #[test]
    fn arc_dyn_model_forwards() {
        let d: Arc<dyn DeviceModel> = Arc::new(LinearDev { g: 1e-3, gm: 0.0 });
        assert_eq!(d.name(), "linear");
        assert!((d.ids_per_um(0.0, 1.0, 0.0) - 1e-3).abs() < 1e-18);
        assert!(d.caps_per_um(0.0, 0.0, 0.0).gate_total() > 0.0);
    }

    #[test]
    fn polarity_flip_is_involutive() {
        assert_eq!(Polarity::N.flipped().flipped(), Polarity::N);
        assert_eq!(Polarity::P.flipped(), Polarity::N);
    }
}

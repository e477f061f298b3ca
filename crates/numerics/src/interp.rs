//! Lookup tables with linear and bilinear interpolation.
//!
//! The reproduced paper models TFETs for circuit simulation by storing
//! TCAD-extracted I-V and C-V surfaces in two-dimensional lookup tables read
//! by a Verilog-A wrapper. [`Lut2d`] is the Rust equivalent: a rectilinear
//! grid of samples with bilinear interpolation and analytic partial
//! derivatives (needed for Newton-Raphson device stamps). [`Lut1d`] is the
//! one-dimensional counterpart used for waveform sampling and C-V slices.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error raised when constructing a lookup table from invalid data.
#[derive(Debug, Clone, PartialEq)]
pub enum LutError {
    /// An axis has fewer than two points.
    AxisTooShort {
        /// Name of the offending axis (`"x"` or `"y"`).
        axis: &'static str,
        /// Number of points supplied.
        len: usize,
    },
    /// An axis is not strictly increasing at the reported index.
    AxisNotIncreasing {
        /// Name of the offending axis.
        axis: &'static str,
        /// Index `i` such that `axis[i] >= axis[i+1]`.
        index: usize,
    },
    /// The value grid size does not equal `x.len() * y.len()` (or `x.len()`
    /// for a 1-D table).
    ValueShapeMismatch {
        /// Expected number of values.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// A value is NaN or infinite.
    NonFiniteValue {
        /// Flat index of the first non-finite value.
        index: usize,
    },
}

impl fmt::Display for LutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LutError::AxisTooShort { axis, len } => {
                write!(f, "axis {axis} has {len} points, need at least 2")
            }
            LutError::AxisNotIncreasing { axis, index } => {
                write!(f, "axis {axis} is not strictly increasing at index {index}")
            }
            LutError::ValueShapeMismatch { expected, got } => {
                write!(f, "value grid has {got} entries, expected {expected}")
            }
            LutError::NonFiniteValue { index } => {
                write!(f, "non-finite value at flat index {index}")
            }
        }
    }
}

impl std::error::Error for LutError {}

fn check_axis(axis: &'static str, pts: &[f64]) -> Result<(), LutError> {
    if pts.len() < 2 {
        return Err(LutError::AxisTooShort {
            axis,
            len: pts.len(),
        });
    }
    for i in 0..pts.len() - 1 {
        if pts[i] >= pts[i + 1] {
            return Err(LutError::AxisNotIncreasing { axis, index: i });
        }
    }
    Ok(())
}

/// Locates the interval `[pts[i], pts[i+1]]` containing `v` (clamped), and
/// the normalized coordinate `t ∈ [0, 1]` within it.
///
/// Out-of-range inputs clamp to the end intervals, i.e. the table
/// extrapolates by continuing the edge segment's linear trend truncated at
/// `t ∈ [0,1]` — flat extrapolation of the *interval*, matching the usual
/// simulator behaviour of clamping table inputs.
fn locate(pts: &[f64], v: f64) -> (usize, f64) {
    let n = pts.len();
    if v <= pts[0] {
        return (0, 0.0);
    }
    if v >= pts[n - 1] {
        return (n - 2, 1.0);
    }
    // Binary search for the containing interval.
    let mut lo = 0;
    let mut hi = n - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if pts[mid] <= v {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t = (v - pts[lo]) / (pts[lo + 1] - pts[lo]);
    (lo, t)
}

/// A one-dimensional lookup table with linear interpolation.
///
/// # Examples
///
/// ```
/// use tfet_numerics::Lut1d;
///
/// let lut = Lut1d::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 40.0])?;
/// assert_eq!(lut.eval(0.5), 5.0);
/// assert_eq!(lut.eval(1.5), 25.0);
/// # Ok::<(), tfet_numerics::interp::LutError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lut1d {
    x: Vec<f64>,
    v: Vec<f64>,
}

impl Lut1d {
    /// Creates a table from a strictly increasing axis and matching values.
    ///
    /// # Errors
    ///
    /// Returns a [`LutError`] if the axis is too short or not strictly
    /// increasing, if the value count differs from the axis length, or if a
    /// value is non-finite.
    pub fn new(x: Vec<f64>, v: Vec<f64>) -> Result<Self, LutError> {
        check_axis("x", &x)?;
        if v.len() != x.len() {
            return Err(LutError::ValueShapeMismatch {
                expected: x.len(),
                got: v.len(),
            });
        }
        if let Some(index) = v.iter().position(|val| !val.is_finite()) {
            return Err(LutError::NonFiniteValue { index });
        }
        Ok(Lut1d { x, v })
    }

    /// Builds a table by sampling `f` at `n` evenly spaced points on
    /// `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `lo >= hi` or `f` returns a non-finite value.
    pub fn tabulate(lo: f64, hi: f64, n: usize, f: impl Fn(f64) -> f64) -> Self {
        let x = crate::sweep::linspace(lo, hi, n);
        let v: Vec<f64> = x.iter().map(|&xi| f(xi)).collect();
        Lut1d::new(x, v).expect("tabulate produced an invalid table")
    }

    /// The axis sample points.
    pub fn axis(&self) -> &[f64] {
        &self.x
    }

    /// The stored values.
    pub fn values(&self) -> &[f64] {
        &self.v
    }

    /// Linearly interpolated value at `x` (clamped to the table range).
    pub fn eval(&self, x: f64) -> f64 {
        let (i, t) = locate(&self.x, x);
        self.v[i] * (1.0 - t) + self.v[i + 1] * t
    }

    /// Slope of the containing segment at `x` (piecewise constant).
    pub fn derivative(&self, x: f64) -> f64 {
        let (i, _) = locate(&self.x, x);
        (self.v[i + 1] - self.v[i]) / (self.x[i + 1] - self.x[i])
    }
}

/// A two-dimensional rectilinear lookup table with bilinear interpolation.
///
/// Values are stored row-major: `value(ix, iy) = values[ix * ny + iy]`.
/// In device-model use, `x` is the gate-source voltage axis and `y` the
/// drain-source voltage axis.
///
/// # Examples
///
/// ```
/// use tfet_numerics::Lut2d;
///
/// // f(x, y) = x + 2 y, sampled on a 2×2 grid, is reproduced exactly.
/// let lut = Lut2d::new(
///     vec![0.0, 1.0],
///     vec![0.0, 1.0],
///     vec![0.0, 2.0, 1.0, 3.0],
/// )?;
/// assert!((lut.eval(0.25, 0.75) - 1.75).abs() < 1e-15);
/// # Ok::<(), tfet_numerics::interp::LutError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lut2d {
    x: Vec<f64>,
    y: Vec<f64>,
    /// Row-major values, `x.len() * y.len()` entries.
    v: Vec<f64>,
}

impl Lut2d {
    /// Creates a table from strictly increasing axes and a row-major value
    /// grid of shape `x.len() × y.len()`.
    ///
    /// # Errors
    ///
    /// Returns a [`LutError`] if an axis is invalid, the grid shape is wrong,
    /// or any value is non-finite.
    pub fn new(x: Vec<f64>, y: Vec<f64>, v: Vec<f64>) -> Result<Self, LutError> {
        check_axis("x", &x)?;
        check_axis("y", &y)?;
        if v.len() != x.len() * y.len() {
            return Err(LutError::ValueShapeMismatch {
                expected: x.len() * y.len(),
                got: v.len(),
            });
        }
        if let Some(index) = v.iter().position(|val| !val.is_finite()) {
            return Err(LutError::NonFiniteValue { index });
        }
        Ok(Lut2d { x, y, v })
    }

    /// Builds a table by sampling `f(x, y)` on an `nx × ny` uniform grid.
    ///
    /// # Panics
    ///
    /// Panics if either axis has fewer than 2 points, a range is empty, or
    /// `f` returns a non-finite value.
    pub fn tabulate(
        x_range: (f64, f64),
        nx: usize,
        y_range: (f64, f64),
        ny: usize,
        f: impl Fn(f64, f64) -> f64,
    ) -> Self {
        let x = crate::sweep::linspace(x_range.0, x_range.1, nx);
        let y = crate::sweep::linspace(y_range.0, y_range.1, ny);
        let mut v = Vec::with_capacity(nx * ny);
        for &xi in &x {
            for &yi in &y {
                v.push(f(xi, yi));
            }
        }
        Lut2d::new(x, y, v).expect("tabulate produced an invalid table")
    }

    /// The first (row) axis.
    pub fn x_axis(&self) -> &[f64] {
        &self.x
    }

    /// The second (column) axis.
    pub fn y_axis(&self) -> &[f64] {
        &self.y
    }

    #[inline]
    fn at(&self, ix: usize, iy: usize) -> f64 {
        self.v[ix * self.y.len() + iy]
    }

    /// Bilinearly interpolated value at `(x, y)`, clamped to the grid.
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        let (ix, tx) = locate(&self.x, x);
        let (iy, ty) = locate(&self.y, y);
        let v00 = self.at(ix, iy);
        let v01 = self.at(ix, iy + 1);
        let v10 = self.at(ix + 1, iy);
        let v11 = self.at(ix + 1, iy + 1);
        v00 * (1.0 - tx) * (1.0 - ty)
            + v10 * tx * (1.0 - ty)
            + v01 * (1.0 - tx) * ty
            + v11 * tx * ty
    }

    /// Partial derivative `∂v/∂x` of the bilinear patch at `(x, y)`.
    pub fn d_dx(&self, x: f64, y: f64) -> f64 {
        let (ix, _) = locate(&self.x, x);
        let (iy, ty) = locate(&self.y, y);
        let dx = self.x[ix + 1] - self.x[ix];
        let lo = (self.at(ix + 1, iy) - self.at(ix, iy)) / dx;
        let hi = (self.at(ix + 1, iy + 1) - self.at(ix, iy + 1)) / dx;
        lo * (1.0 - ty) + hi * ty
    }

    /// Partial derivative `∂v/∂y` of the bilinear patch at `(x, y)`.
    pub fn d_dy(&self, x: f64, y: f64) -> f64 {
        let (ix, tx) = locate(&self.x, x);
        let (iy, _) = locate(&self.y, y);
        let dy = self.y[iy + 1] - self.y[iy];
        let lo = (self.at(ix, iy + 1) - self.at(ix, iy)) / dy;
        let hi = (self.at(ix + 1, iy + 1) - self.at(ix + 1, iy)) / dy;
        lo * (1.0 - tx) + hi * tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut1d_exact_at_nodes() {
        let lut = Lut1d::new(vec![0.0, 0.5, 2.0], vec![1.0, -1.0, 4.0]).unwrap();
        assert_eq!(lut.eval(0.0), 1.0);
        assert_eq!(lut.eval(0.5), -1.0);
        assert_eq!(lut.eval(2.0), 4.0);
    }

    #[test]
    fn lut1d_midpoint_interpolation() {
        let lut = Lut1d::new(vec![0.0, 1.0], vec![0.0, 10.0]).unwrap();
        assert!((lut.eval(0.3) - 3.0).abs() < 1e-15);
        assert!((lut.derivative(0.3) - 10.0).abs() < 1e-15);
    }

    #[test]
    fn lut1d_flat_segments_evaluate_through_the_blend() {
        // A flat 0.8 V segment does not return exactly 0.8 everywhere: the
        // blend v·(1−t) + v·t rounds one ulp off at some t. These two t
        // values occur in the hold-level stimuli of the proposed cell's
        // Monte-Carlo runs. Every published number depends on these bits,
        // so collapsing flat segments to their level would change them.
        let lut = Lut1d::new(vec![0.0, 1.0], vec![0.8, 0.8]).unwrap();
        assert_eq!(lut.eval(3.0000048499997576e-2), 0.7999999999999999);
        assert_eq!(lut.eval(1.500000424999979e-1), 0.8000000000000002);
        assert_eq!(lut.eval(0.5), 0.8);
    }

    #[test]
    fn lut1d_clamps_out_of_range() {
        let lut = Lut1d::new(vec![0.0, 1.0], vec![2.0, 3.0]).unwrap();
        assert_eq!(lut.eval(-5.0), 2.0);
        assert_eq!(lut.eval(5.0), 3.0);
    }

    #[test]
    fn lut1d_rejects_bad_axes() {
        assert!(matches!(
            Lut1d::new(vec![0.0], vec![1.0]),
            Err(LutError::AxisTooShort { .. })
        ));
        assert!(matches!(
            Lut1d::new(vec![0.0, 0.0], vec![1.0, 2.0]),
            Err(LutError::AxisNotIncreasing { .. })
        ));
        assert!(matches!(
            Lut1d::new(vec![0.0, 1.0], vec![1.0]),
            Err(LutError::ValueShapeMismatch { .. })
        ));
        assert!(matches!(
            Lut1d::new(vec![0.0, 1.0], vec![1.0, f64::NAN]),
            Err(LutError::NonFiniteValue { .. })
        ));
    }

    #[test]
    fn lut2d_reproduces_bilinear_function_exactly() {
        // f(x,y) = 2 + 3x - y + 0.5xy is bilinear, so interpolation is exact
        // everywhere inside the grid.
        let f = |x: f64, y: f64| 2.0 + 3.0 * x - y + 0.5 * x * y;
        let lut = Lut2d::tabulate((-1.0, 1.0), 5, (0.0, 2.0), 4, f);
        for &(x, y) in &[(0.0, 0.0), (-0.7, 1.3), (0.99, 1.99), (0.123, 0.456)] {
            assert!((lut.eval(x, y) - f(x, y)).abs() < 1e-12, "({x},{y})");
        }
    }

    #[test]
    fn lut2d_derivatives_match_bilinear_function() {
        let f = |x: f64, y: f64| 2.0 + 3.0 * x - y + 0.5 * x * y;
        let lut = Lut2d::tabulate((-1.0, 1.0), 5, (0.0, 2.0), 4, f);
        let (x, y) = (0.3, 0.9);
        assert!((lut.d_dx(x, y) - (3.0 + 0.5 * y)).abs() < 1e-12);
        assert!((lut.d_dy(x, y) - (-1.0 + 0.5 * x)).abs() < 1e-12);
    }

    #[test]
    fn lut2d_clamps_out_of_range() {
        let lut = Lut2d::tabulate((0.0, 1.0), 3, (0.0, 1.0), 3, |x, y| x + y);
        assert!((lut.eval(-10.0, -10.0) - 0.0).abs() < 1e-15);
        assert!((lut.eval(10.0, 10.0) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn lut2d_rejects_shape_mismatch() {
        assert!(matches!(
            Lut2d::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0; 3]),
            Err(LutError::ValueShapeMismatch {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn locate_handles_interior_points() {
        let pts = [0.0, 1.0, 2.0, 4.0];
        assert_eq!(locate(&pts, 0.5), (0, 0.5));
        let (i, t) = locate(&pts, 3.0);
        assert_eq!(i, 2);
        assert!((t - 0.5).abs() < 1e-15);
    }

    #[test]
    fn error_display_nonempty() {
        let e = LutError::AxisTooShort { axis: "x", len: 1 };
        assert!(!e.to_string().is_empty());
    }
}

//! Double-precision complex arithmetic.
//!
//! A minimal, dependency-free `Complex64`. The layout is `#[repr(C)]`
//! (`re` then `im`) so a `&mut [Complex64]` can be reinterpreted as a word
//! array by the fault injector when simulating memory bit flips.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor: `c64(re, im)`.
#[inline(always)]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = c64(1.0, 0.0);
    /// The imaginary unit `i`.
    pub const I: Complex64 = c64(0.0, 1.0);

    /// Creates a complex number from Cartesian parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        c64(re, im)
    }

    /// Creates a complex number from polar form `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        c64(r * theta.cos(), r * theta.sin())
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// Squared modulus `re² + im²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline(always)]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Modulus `|z|` without squaring (`hypot`): finite for every finite
    /// `z`, where [`norm`](Self::norm) overflows once a part passes ~1e154.
    /// Slower; for fault-path decodes that must size huge corruptions.
    #[inline]
    pub fn norm_scaled(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// `self / rhs` by Smith's scaled division: divides by the larger part
    /// of `rhs` first, so no intermediate squares `rhs` and the quotient
    /// stays finite whenever it is representable (plain `/` overflows once
    /// `|rhs|²` does).
    #[inline]
    pub fn div_scaled(self, rhs: Complex64) -> Complex64 {
        if rhs.re.abs() >= rhs.im.abs() {
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            c64((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            c64((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Scales by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        c64(self.re * s, self.im * s)
    }

    /// Multiplicative inverse `1/z`.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        c64(self.re / d, -self.im / d)
    }

    /// Fused multiply-accumulate: `self + a*b`, the butterfly workhorse.
    #[inline(always)]
    pub fn mul_add(self, a: Complex64, b: Complex64) -> Self {
        c64(self.re + a.re * b.re - a.im * b.im, self.im + a.re * b.im + a.im * b.re)
    }

    /// Returns `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality within an absolute tolerance per component.
    #[inline]
    pub fn approx_eq(self, other: Complex64, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Complex64) -> Complex64 {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Complex64) -> Complex64 {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        c64(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        let d = rhs.norm_sqr();
        c64((self.re * rhs.re + self.im * rhs.im) / d, (self.im * rhs.re - self.re * rhs.im) / d)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn neg(self) -> Complex64 {
        c64(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn div(self, rhs: f64) -> Complex64 {
        self.scale(1.0 / rhs)
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |acc, z| acc + z)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        c64(re, 0.0)
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:e}{:+e}i)", self.re, self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = c64(3.0, -4.0);
        assert_eq!(a + Complex64::ZERO, a);
        assert_eq!(a * Complex64::ONE, a);
        assert_eq!(a - a, Complex64::ZERO);
        assert_eq!(-a, c64(-3.0, 4.0));
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = c64(1.0, 2.0);
        let b = c64(-3.0, 0.5);
        let p = a * b;
        assert_eq!(p, c64(1.0 * -3.0 - 2.0 * 0.5, 1.0 * 0.5 + 2.0 * -3.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = c64(2.5, -1.25);
        let b = c64(0.75, 3.0);
        let q = (a * b) / b;
        assert!(q.approx_eq(a, 1e-12));
        assert!((b * b.inv()).approx_eq(Complex64::ONE, 1e-12));
    }

    #[test]
    fn norm_and_conj() {
        let a = c64(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.conj(), c64(3.0, -4.0));
        assert!((a * a.conj()).approx_eq(c64(25.0, 0.0), 1e-12));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_3);
        assert!((z.norm() - 2.0).abs() < 1e-12);
        assert!((z.arg() - std::f64::consts::FRAC_PI_3).abs() < 1e-12);
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let acc = c64(0.5, 0.5);
        let a = c64(1.0, -2.0);
        let b = c64(3.0, 4.0);
        assert!(acc.mul_add(a, b).approx_eq(acc + a * b, 1e-15));
    }

    #[test]
    fn sum_over_iterator() {
        let v = [c64(1.0, 1.0), c64(2.0, -1.0), c64(-3.0, 0.5)];
        let s: Complex64 = v.iter().copied().sum();
        assert!(s.approx_eq(c64(0.0, 0.5), 1e-15));
    }

    #[test]
    fn assign_ops() {
        let mut a = c64(1.0, 1.0);
        a += c64(1.0, 0.0);
        a -= c64(0.0, 1.0);
        a *= c64(2.0, 0.0);
        a /= c64(2.0, 0.0);
        assert!(a.approx_eq(c64(2.0, 0.0), 1e-12));
    }

    #[test]
    fn nan_and_finite_predicates() {
        assert!(c64(f64::NAN, 0.0).is_nan());
        assert!(!c64(1.0, 2.0).is_nan());
        assert!(c64(1.0, 2.0).is_finite());
        assert!(!c64(f64::INFINITY, 0.0).is_finite());
    }
}

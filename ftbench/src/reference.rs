//! Fault-free references for the transforms the benchmark checks.

use ftfft::prelude::*;

/// Largest relative ∞-norm error an output may show against its reference.
pub const TOL: f64 = 1e-10;

/// The fastest unprotected transform of the library, pinned serial and
/// single-threaded.
pub fn bare_kernel(n: usize) -> FftPlan {
    FftPlan::from_spec(
        &FftSpec::new(n, Direction::Forward).with_strategy(Strategy::Serial).with_threads(1),
    )
}

/// A reference output and its ∞-norm, kept so that each check is one pass
/// over the output.
pub struct Reference {
    out: Vec<Complex64>,
    norm: f64,
}

impl Reference {
    /// References for `inputs` (all of one size), computed by the bare kernel.
    pub fn for_inputs(inputs: &[Vec<Complex64>]) -> Vec<Reference> {
        let kernel = bare_kernel(inputs[0].len());
        let mut scratch = vec![Complex64::ZERO; kernel.scratch_len()];
        inputs
            .iter()
            .map(|x| {
                let mut out = vec![Complex64::ZERO; x.len()];
                kernel.execute(x, &mut out, &mut scratch);
                Reference { norm: inf_norm(&out), out }
            })
            .collect()
    }

    /// Whether `got` is within [`TOL`] of the reference, relative to its
    /// ∞-norm.
    pub fn matches(&self, got: &[Complex64]) -> bool {
        ftfft::numeric::max_abs_diff(got, &self.out) <= TOL * self.norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_within_tolerance_only() {
        let x = uniform_signal(256, 4);
        let r = &Reference::for_inputs(std::slice::from_ref(&x))[0];
        let mut got = dft_naive(&x, Direction::Forward);
        assert!(r.matches(&got));
        got[17].re += 1e-6 * r.norm;
        assert!(!r.matches(&got));
    }
}

//! Moments of a sample: mean and the paper's skewness measure.
//!
//! §2.6 computes, for each configuration parameter, the population
//! skewness of its value distribution
//!
//! ```text
//!        (1/n) Σ (X_i − X̄)³
//! g1 = ───────────────────────
//!      [(1/n) Σ (X_i − X̄)²]^(3/2)
//! ```
//!
//! and classifies: |g1| ≤ 0.5 approximately symmetric, 0.5 < |g1| ≤ 1
//! moderately skewed, |g1| > 1 highly skewed. Fig. 4 reports that 33 of
//! the 65 parameters are highly skewed and 12 moderately.

/// Arithmetic mean. Returns `None` for an empty sample.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population skewness `g1` per the §2.6 formula. Returns `None` when the
/// sample is empty or has zero variance (a constant parameter has no
/// asymmetry to measure).
pub fn skewness(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    let n = xs.len() as f64;
    let m2 = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n;
    if m2 <= 0.0 {
        return None;
    }
    let m3 = xs.iter().map(|x| (x - m).powi(3)).sum::<f64>() / n;
    Some(m3 / m2.powf(1.5))
}

/// The paper's three-way skewness classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Skew {
    /// |g1| ≤ 0.5 (the paper's "approximately symmetric"), or undefined
    /// (constant distribution).
    Symmetric,
    /// 0.5 < |g1| ≤ 1.
    Moderate,
    /// |g1| > 1.
    High,
}

impl Skew {
    /// Classifies a skewness coefficient; `None` (constant sample) counts
    /// as symmetric.
    pub fn classify(g1: Option<f64>) -> Skew {
        match g1 {
            None => Skew::Symmetric,
            Some(g) if g.abs() > 1.0 => Skew::High,
            Some(g) if g.abs() > 0.5 => Skew::Moderate,
            Some(_) => Skew::Symmetric,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Skew::Symmetric => "symmetric",
            Skew::Moderate => "moderate",
            Skew::High => "high",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
    }

    #[test]
    fn symmetric_sample_has_zero_skew() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(skewness(&xs).unwrap().abs() < 1e-12);
    }

    #[test]
    fn right_tail_gives_positive_skew() {
        // Mass at 0 with one long right tail value.
        let xs = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0];
        let g = skewness(&xs).unwrap();
        assert!(g > 1.0, "g1 = {g}");
        assert_eq!(Skew::classify(Some(g)), Skew::High);
        // Mirrored sample flips the sign exactly.
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((skewness(&neg).unwrap() + g).abs() < 1e-12);
    }

    #[test]
    fn constant_sample_has_no_skewness() {
        assert_eq!(skewness(&[7.0; 20]), None);
        assert_eq!(Skew::classify(None), Skew::Symmetric);
    }

    #[test]
    fn skewness_is_shift_and_scale_invariant() {
        let xs = [0.0, 0.0, 1.0, 1.0, 1.0, 5.0, 9.0];
        let base = skewness(&xs).unwrap();
        let moved: Vec<f64> = xs.iter().map(|x| 3.0 * x + 100.0).collect();
        assert!((skewness(&moved).unwrap() - base).abs() < 1e-10);
        // Negative scale flips the sign.
        let flipped: Vec<f64> = xs.iter().map(|x| -2.0 * x).collect();
        assert!((skewness(&flipped).unwrap() + base).abs() < 1e-10);
    }

    #[test]
    fn classification_boundaries() {
        assert_eq!(Skew::classify(Some(0.5)), Skew::Symmetric);
        assert_eq!(Skew::classify(Some(0.51)), Skew::Moderate);
        assert_eq!(Skew::classify(Some(-0.7)), Skew::Moderate);
        assert_eq!(Skew::classify(Some(1.0)), Skew::Moderate);
        assert_eq!(Skew::classify(Some(-1.2)), Skew::High);
    }
}

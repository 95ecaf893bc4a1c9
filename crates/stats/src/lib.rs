//! Numeric substrate for the Auric reproduction.
//!
//! Everything statistical that the paper leans on lives here, implemented
//! from scratch so the workspace has no numerics dependency:
//!
//! - [`special`] — log-gamma and the regularized incomplete gamma function,
//!   the machinery under the chi-square distribution;
//! - [`chi2`] — chi-square CDF, p-values and critical values (the paper's
//!   §3.2 test of independence uses `p = 0.01`);
//! - [`contingency`] — contingency tables between an attribute and a
//!   parameter (Fig. 9) and the chi-square statistic over them (Eq. 3/4);
//! - [`moments`] — mean and skewness; skewness uses exactly the §2.6
//!   formula and the paper's symmetric/moderate/high classification;
//! - [`matrix`] — a small dense row-major matrix for the MLP;
//! - [`onehot`] — one-hot encoding of categorical rows (§3.1);
//! - [`impurity`] — Gini impurity for the tree learners;
//! - [`distance`] — the distance metrics of the k-NN learner;
//! - [`freq`] — frequency counting and majority/mode helpers used by the
//!   voting recommender;
//! - [`packed`] — mixed-radix packing of categorical keys into a `u128`
//!   and the multiply-shift hasher the vote tables index with.

#![forbid(unsafe_code)]

pub mod chi2;
pub mod contingency;
pub mod distance;
pub mod freq;
pub mod impurity;
pub mod matrix;
pub mod moments;
pub mod onehot;
pub mod packed;
pub mod special;

pub use chi2::{chi2_cdf, chi2_critical, chi2_p_value};
pub use contingency::ContingencyTable;
pub use matrix::Matrix;
pub use moments::{skewness, Skew};
pub use onehot::OneHotEncoder;
pub use packed::{FastHash, PackedKeyCodec};

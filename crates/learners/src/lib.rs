//! Baseline learners, from scratch.
//!
//! The paper compares Auric's collaborative filtering against four classic
//! classifiers run in scikit-learn (§4.2); this crate reimplements them in
//! Rust with the paper's hyperparameters:
//!
//! - [`tree::DecisionTree`] — Gini splits, expanded until leaves are pure;
//! - [`forest::RandomForest`] — 100 Gini trees, bootstrap rows, √A feature
//!   subsets per split;
//! - [`knn::KnnClassifier`] — k = 5, uniform weights, Euclidean distance
//!   over one-hot attributes (ranked via the exactly-equivalent Hamming
//!   distance on the categorical rows);
//! - [`mlp::MlpClassifier`] — 7 hidden layers (100,100,100,50,50,50,10),
//!   ReLU, Adam, L2 = 1e-5.
//!
//! All classifiers implement the [`Classifier`] / [`Model`] pair over a
//! categorical [`dataset::Dataset`]; [`cv::cross_val_accuracy`] provides
//! the paper's "standard machine learning cross-validation" evaluation.

#![forbid(unsafe_code)]

pub mod cv;
pub mod dataset;
pub mod forest;
pub mod knn;
pub mod mlp;
pub mod tree;

pub use cv::cross_val_accuracy;
pub use dataset::Dataset;
pub use forest::RandomForest;
pub use knn::KnnClassifier;
pub use mlp::MlpClassifier;
pub use tree::DecisionTree;

/// A classifier that can be fitted to a categorical dataset.
pub trait Classifier: Send + Sync {
    /// Fits a model. Deterministic for a fixed classifier configuration
    /// and dataset.
    fn fit(&self, data: &Dataset) -> Box<dyn Model>;

    /// Short display name used in the Table 4 / Fig. 10 reports.
    fn name(&self) -> &'static str;
}

/// A fitted model mapping a categorical row to a predicted raw value
/// (the original `ValueIdx`-typed raw value, not the dense
/// class index).
pub trait Model: Send + Sync {
    /// Predicts the raw value for `row`.
    fn predict(&self, row: &[u16]) -> u16;
}

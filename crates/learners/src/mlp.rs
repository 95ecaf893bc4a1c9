//! Deep-neural-network classifier: a fully connected multi-layer
//! perceptron matching §4.2's configuration — 7 hidden layers of sizes
//! (100, 100, 100, 50, 50, 50, 10), ReLU activations, the Adam optimizer,
//! L2 penalty 1e-5, fixed random state — trained with softmax
//! cross-entropy on one-hot encoded attributes.
//!
//! The paper sets `max_iter = 10000` as a *ceiling* with tolerance-based
//! early stopping (scikit-learn semantics); this implementation keeps the
//! same contract with a configurable ceiling so the evaluation harness can
//! trade training time for fidelity explicitly.

use crate::dataset::Dataset;
use crate::{Classifier, Model};
use auric_stats::matrix::Matrix;
use auric_stats::onehot::OneHotEncoder;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// MLP hyperparameters.
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    /// Hidden layer widths (paper: 100,100,100,50,50,50,10).
    pub hidden: Vec<usize>,
    /// L2 penalty (paper: 1e-5).
    pub alpha: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Epoch ceiling (paper: 10000 with early stopping).
    pub max_iter: usize,
    /// Early-stop tolerance: stop after `patience` epochs without a loss
    /// improvement larger than this.
    pub tol: f64,
    /// Epochs of tolerance before stopping.
    pub patience: usize,
    /// RNG seed (paper: random_state = 1).
    pub seed: u64,
}

impl MlpClassifier {
    /// The paper's architecture, with a practical epoch ceiling. The
    /// ceiling only matters when early stopping never fires.
    pub fn paper() -> Self {
        Self {
            hidden: vec![100, 100, 100, 50, 50, 50, 10],
            alpha: 1e-5,
            learning_rate: 1e-3,
            max_iter: 200,
            tol: 1e-4,
            patience: 10,
            seed: 1,
        }
    }
}

impl Classifier for MlpClassifier {
    fn fit(&self, data: &Dataset) -> Box<dyn Model> {
        let encoder = OneHotEncoder::new(data.cards().to_vec());
        let n_classes = data.n_classes();
        let class_values: Vec<u16> = (0..n_classes as u16).map(|c| data.class_value(c)).collect();
        if n_classes == 1 {
            // Constant-label data: nothing to train.
            return Box::new(MlpModel {
                net: None,
                encoder,
                class_values,
            });
        }
        let mut sizes = vec![encoder.width()];
        sizes.extend(&self.hidden);
        sizes.push(n_classes);
        let mut net = Network::init(&sizes, self.seed);
        self.train(&mut net, data, &encoder);
        Box::new(MlpModel {
            net: Some(net),
            encoder,
            class_values,
        })
    }

    fn name(&self) -> &'static str {
        "deep-neural-network"
    }
}

impl MlpClassifier {
    fn train(&self, net: &mut Network, data: &Dataset, encoder: &OneHotEncoder) {
        let n = data.n_rows();
        let batch_size = n.clamp(1, 200);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xADA7);
        let mut order: Vec<usize> = (0..n).collect();
        let mut adam = Adam::new(net, self.learning_rate);
        let mut x = vec![0.0; encoder.width()];
        let mut rowbuf = Vec::with_capacity(data.n_cols());
        let mut best_loss = f64::INFINITY;
        let mut stall = 0usize;

        for _epoch in 0..self.max_iter {
            // Fisher–Yates shuffle.
            for i in (1..n).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0;
            for batch in order.chunks(batch_size) {
                let mut grads = Gradients::zeros(net);
                let mut batch_loss = 0.0;
                for &i in batch {
                    data.row_into(i, &mut rowbuf);
                    encoder.encode_into(&rowbuf, &mut x);
                    batch_loss += net.backprop(&x, data.label(i) as usize, &mut grads);
                }
                let scale = 1.0 / batch.len() as f64;
                grads.scale(scale);
                // L2 decay (scikit convention: alpha-scaled, per sample).
                grads.add_l2(net, self.alpha * scale);
                adam.step(net, &grads);
                epoch_loss += batch_loss;
            }
            epoch_loss /= n as f64;
            if epoch_loss < best_loss - self.tol {
                best_loss = epoch_loss;
                stall = 0;
            } else {
                stall += 1;
                if stall >= self.patience {
                    break;
                }
            }
        }
    }
}

/// A fitted MLP.
pub struct MlpModel {
    /// `None` for constant-label training data.
    net: Option<Network>,
    encoder: OneHotEncoder,
    class_values: Vec<u16>,
}

impl Model for MlpModel {
    fn predict(&self, row: &[u16]) -> u16 {
        let Some(net) = &self.net else {
            return self.class_values[0];
        };
        let x = self.encoder.encode(row);
        let out = net.forward(&x);
        let mut best = 0usize;
        for (i, &v) in out.iter().enumerate() {
            if v > out[best] {
                best = i;
            }
        }
        self.class_values[best]
    }
}

/// The weight stack.
struct Network {
    weights: Vec<Matrix>, // layer l: (out, in)
    biases: Vec<Vec<f64>>,
}

impl Network {
    /// He-initialized network for the given layer sizes.
    fn init(sizes: &[usize], seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for w in sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let std = (2.0 / fan_in as f64).sqrt();
            let mut m = Matrix::zeros(fan_out, fan_in);
            for v in m.as_mut_slice() {
                *v = gaussian(&mut rng) * std;
            }
            weights.push(m);
            biases.push(vec![0.0; fan_out]);
        }
        Self { weights, biases }
    }

    fn n_layers(&self) -> usize {
        self.weights.len()
    }

    /// Forward pass returning softmax probabilities.
    fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut a = x.to_vec();
        for l in 0..self.n_layers() {
            let mut z = self.weights[l].matvec(&a);
            for (zi, bi) in z.iter_mut().zip(&self.biases[l]) {
                *zi += bi;
            }
            if l + 1 < self.n_layers() {
                for zi in &mut z {
                    *zi = zi.max(0.0); // ReLU
                }
            } else {
                softmax_in_place(&mut z);
            }
            a = z;
        }
        a
    }

    /// Forward + backward for one sample; accumulates gradients and
    /// returns the cross-entropy loss.
    fn backprop(&self, x: &[f64], label: usize, grads: &mut Gradients) -> f64 {
        // Forward, keeping activations.
        let mut activations: Vec<Vec<f64>> = vec![x.to_vec()];
        for l in 0..self.n_layers() {
            let mut z = self.weights[l].matvec(activations.last().unwrap());
            for (zi, bi) in z.iter_mut().zip(&self.biases[l]) {
                *zi += bi;
            }
            if l + 1 < self.n_layers() {
                for zi in &mut z {
                    *zi = zi.max(0.0);
                }
            } else {
                softmax_in_place(&mut z);
            }
            activations.push(z);
        }
        let probs = activations.last().unwrap();
        let loss = -(probs[label].max(1e-12)).ln();

        // Output delta: p - onehot(label).
        let mut delta: Vec<f64> = probs.clone();
        delta[label] -= 1.0;

        for l in (0..self.n_layers()).rev() {
            let a_prev = &activations[l];
            // dW += delta ⊗ a_prev ; db += delta.
            let gw = &mut grads.weights[l];
            for (r, &d) in delta.iter().enumerate() {
                if d == 0.0 {
                    continue;
                }
                let row = gw.row_mut(r);
                for (g, &a) in row.iter_mut().zip(a_prev) {
                    *g += d * a;
                }
                grads.biases[l][r] += d;
            }
            if l > 0 {
                // delta_prev = Wᵀ delta, masked by ReLU activity.
                let mut prev = self.weights[l].t_matvec(&delta);
                for (p, &a) in prev.iter_mut().zip(a_prev) {
                    if a <= 0.0 {
                        *p = 0.0;
                    }
                }
                delta = prev;
            }
        }
        loss
    }
}

/// Per-parameter gradient accumulators.
struct Gradients {
    weights: Vec<Matrix>,
    biases: Vec<Vec<f64>>,
}

impl Gradients {
    fn zeros(net: &Network) -> Self {
        Self {
            weights: net
                .weights
                .iter()
                .map(|w| Matrix::zeros(w.rows(), w.cols()))
                .collect(),
            biases: net.biases.iter().map(|b| vec![0.0; b.len()]).collect(),
        }
    }

    fn scale(&mut self, s: f64) {
        for w in &mut self.weights {
            for v in w.as_mut_slice() {
                *v *= s;
            }
        }
        for b in &mut self.biases {
            for v in b {
                *v *= s;
            }
        }
    }

    /// Adds `decay * W` to the weight gradients (biases unpenalized,
    /// matching scikit-learn).
    fn add_l2(&mut self, net: &Network, decay: f64) {
        for (g, w) in self.weights.iter_mut().zip(&net.weights) {
            g.axpy(decay, w);
        }
    }
}

/// Adam optimizer state.
struct Adam {
    lr: f64,
    b1: f64,
    b2: f64,
    eps: f64,
    t: i32,
    m_w: Vec<Matrix>,
    v_w: Vec<Matrix>,
    m_b: Vec<Vec<f64>>,
    v_b: Vec<Vec<f64>>,
}

impl Adam {
    fn new(net: &Network, lr: f64) -> Self {
        Self {
            lr,
            b1: 0.9,
            b2: 0.999,
            eps: 1e-8,
            t: 0,
            m_w: net
                .weights
                .iter()
                .map(|w| Matrix::zeros(w.rows(), w.cols()))
                .collect(),
            v_w: net
                .weights
                .iter()
                .map(|w| Matrix::zeros(w.rows(), w.cols()))
                .collect(),
            m_b: net.biases.iter().map(|b| vec![0.0; b.len()]).collect(),
            v_b: net.biases.iter().map(|b| vec![0.0; b.len()]).collect(),
        }
    }

    fn step(&mut self, net: &mut Network, grads: &Gradients) {
        self.t += 1;
        let bc1 = 1.0 - self.b1.powi(self.t);
        let bc2 = 1.0 - self.b2.powi(self.t);
        for l in 0..net.weights.len() {
            let (m, v) = (self.m_w[l].as_mut_slice(), self.v_w[l].as_mut_slice());
            let g = grads.weights[l].as_slice();
            let w = net.weights[l].as_mut_slice();
            for i in 0..w.len() {
                m[i] = self.b1 * m[i] + (1.0 - self.b1) * g[i];
                v[i] = self.b2 * v[i] + (1.0 - self.b2) * g[i] * g[i];
                w[i] -= self.lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + self.eps);
            }
            let (mb, vb) = (&mut self.m_b[l], &mut self.v_b[l]);
            let gb = &grads.biases[l];
            let b = &mut net.biases[l];
            for i in 0..b.len() {
                mb[i] = self.b1 * mb[i] + (1.0 - self.b1) * gb[i];
                vb[i] = self.b2 * vb[i] + (1.0 - self.b2) * gb[i] * gb[i];
                b[i] -= self.lr * (mb[i] / bc1) / ((vb[i] / bc2).sqrt() + self.eps);
            }
        }
    }
}

fn softmax_in_place(z: &mut [f64]) {
    let max = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in z.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in z.iter_mut() {
        *v /= sum;
    }
}

fn gaussian(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smaller, faster variant of [`MlpClassifier::paper`].
    fn small() -> MlpClassifier {
        MlpClassifier {
            hidden: vec![16, 8],
            alpha: 1e-5,
            learning_rate: 5e-3,
            max_iter: 300,
            tol: 1e-5,
            patience: 20,
            seed: 1,
        }
    }

    #[test]
    fn learns_a_linear_rule() {
        // Label = column 0's level.
        let mut rows = Vec::new();
        let mut values = Vec::new();
        for i in 0..60u16 {
            rows.push(vec![i % 3, i % 7]);
            values.push(100 + (i % 3) * 10);
        }
        let data = Dataset::new(rows, values, None);
        let model = small().fit(&data);
        let mut correct = 0;
        for i in 0..data.n_rows() {
            if model.predict(&data.row_vec(i)) == data.raw_label(i) {
                correct += 1;
            }
        }
        assert!(
            correct as f64 >= 0.95 * data.n_rows() as f64,
            "{correct}/60"
        );
    }

    #[test]
    fn learns_xor_interaction() {
        // XOR needs the hidden layers; a linear model can't do this.
        let mut rows = Vec::new();
        let mut values = Vec::new();
        for i in 0..80u16 {
            let (a, b) = (i % 2, (i / 2) % 2);
            rows.push(vec![a, b]);
            values.push(if a == b { 1 } else { 2 });
        }
        let data = Dataset::new(rows, values, None);
        let model = small().fit(&data);
        assert_eq!(model.predict(&[0, 0]), 1);
        assert_eq!(model.predict(&[1, 1]), 1);
        assert_eq!(model.predict(&[0, 1]), 2);
        assert_eq!(model.predict(&[1, 0]), 2);
    }

    #[test]
    fn constant_labels_short_circuit() {
        let data = Dataset::new(vec![vec![0], vec![1]], vec![42, 42], None);
        let model = MlpClassifier::paper().fit(&data);
        assert_eq!(model.predict(&[0]), 42);
        assert_eq!(model.predict(&[1]), 42);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = Dataset::new(
            vec![vec![0, 1], vec![1, 0], vec![0, 0], vec![1, 1]],
            vec![1, 2, 1, 2],
            None,
        );
        let cfg = small();
        let a = cfg.fit(&data);
        let b = cfg.fit(&data);
        for row in [[0u16, 0], [0, 1], [1, 0], [1, 1]] {
            assert_eq!(a.predict(&row), b.predict(&row));
        }
    }

    #[test]
    fn softmax_is_a_distribution() {
        let mut z = vec![1.0, 2.0, 3.0];
        softmax_in_place(&mut z);
        assert!((z.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(z[2] > z[1] && z[1] > z[0]);
    }

    #[test]
    fn paper_architecture_has_seven_hidden_layers() {
        let cfg = MlpClassifier::paper();
        assert_eq!(cfg.hidden, vec![100, 100, 100, 50, 50, 50, 10]);
        assert_eq!(cfg.alpha, 1e-5);
        assert_eq!(cfg.seed, 1);
    }
}

//! Layers: the `Layer` trait, dense layers and activations.

use std::any::Any;

use rand::Rng;

use crate::Tensor;

/// A trainable network layer.
///
/// Layers are stateful: `forward` caches whatever `backward` needs, and
/// `backward` both returns the gradient with respect to the input and
/// accumulates parameter gradients that `update` applies.
pub trait Layer {
    /// Computes the layer output for a `[batch, ...]` input.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Propagates the output gradient, returning the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if no `forward(…, train: true)` call preceded it — the
    /// cached activations it differentiates through would be missing.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Applies accumulated gradients with learning rate `lr` and clears
    /// them. Layers without parameters do nothing.
    fn update(&mut self, _lr: f32) {}

    /// A short human-readable layer name.
    fn name(&self) -> &'static str;

    /// The layer's parameter tensors (weights then bias), if any, for
    /// serialization and quantization.
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutable parameter tensors, in the same order as
    /// [`params`](Layer::params).
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// The layer as [`Any`], for downcasting during quantized lowering.
    fn as_any(&self) -> &dyn Any;
}

/// A fully connected layer: `y = x·Wᵀ + b`.
///
/// Weights are stored `[out, in]` — one row per output neuron, which is
/// also the logical-row layout the memristive accelerator maps onto
/// crossbar arrays.
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Tensor,
    bias: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-initialized weights.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Dense {
        let scale = (2.0 / in_dim as f32).sqrt();
        let data = (0..in_dim * out_dim)
            .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        Dense {
            weights: Tensor::from_vec(vec![out_dim, in_dim], data),
            bias: Tensor::zeros(vec![out_dim]),
            grad_w: Tensor::zeros(vec![out_dim, in_dim]),
            grad_b: Tensor::zeros(vec![out_dim]),
            cached_input: None,
        }
    }

    /// The weight matrix `[out, in]`.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The bias vector `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weights.shape()[0]
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weights.shape()[1]
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let batch = input.shape()[0];
        let flat = input.clone().reshape(vec![batch, self.in_dim()]);
        let mut out = flat.matmul_transpose(&self.weights);
        for i in 0..batch {
            for (j, &b) in self.bias.data().iter().enumerate() {
                *out.at2_mut(i, j) += b;
            }
        }
        if train {
            self.cached_input = Some(flat);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward requires a training forward pass");
        // dW = grad_outᵀ · input; db = Σ grad_out; dx = grad_out · W.
        let gw = grad_out.transpose_matmul(input);
        for (g, &v) in self.grad_w.data_mut().iter_mut().zip(gw.data()) {
            *g += v;
        }
        let batch = grad_out.shape()[0];
        for i in 0..batch {
            for j in 0..self.out_dim() {
                self.grad_b.data_mut()[j] += grad_out.at2(i, j);
            }
        }
        grad_out.matmul(&self.weights)
    }

    fn update(&mut self, lr: f32) {
        for (w, g) in self
            .weights
            .data_mut()
            .iter_mut()
            .zip(self.grad_w.data_mut())
        {
            *w -= lr * *g;
            *g = 0.0;
        }
        for (b, g) in self.bias.data_mut().iter_mut().zip(self.grad_b.data_mut()) {
            *b -= lr * *g;
            *g = 0.0;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weights, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weights, &mut self.bias]
    }
}

/// The rectified linear activation.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Relu {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.mask = input.data().iter().map(|&x| x > 0.0).collect();
        }
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.len(), self.mask.len(), "mask/grad size mismatch");
        let data = grad_out
            .data()
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_out.shape().to_vec(), data)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// The logistic sigmoid activation.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Sigmoid {
        Sigmoid::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let out = input.map(|x| 1.0 / (1.0 + (-x).exp()));
        if train {
            self.cached_output = Some(out.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let out = self
            .cached_output
            .as_ref()
            .expect("backward requires a training forward pass");
        let data = grad_out
            .data()
            .iter()
            .zip(out.data())
            .map(|(&g, &y)| g * y * (1.0 - y))
            .collect();
        Tensor::from_vec(grad_out.shape().to_vec(), data)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn name(&self) -> &'static str {
        "sigmoid"
    }
}

/// Flattens `[batch, ...]` to `[batch, features]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Flatten {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.input_shape = input.shape().to_vec();
        }
        let batch = input.shape()[0];
        let features = input.len() / batch;
        input.clone().reshape(vec![batch, features])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone().reshape(self.input_shape.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

/// Softmax cross-entropy loss on logits.
///
/// Returns `(mean loss, gradient w.r.t. logits)` for integer class
/// labels.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let batch = logits.shape()[0];
    let classes = logits.shape()[1];
    assert_eq!(labels.len(), batch, "one label per row");
    let mut grad = Tensor::zeros(vec![batch, classes]);
    let mut loss = 0.0f32;
    for i in 0..batch {
        let row: Vec<f32> = (0..classes).map(|j| logits.at2(i, j)).collect();
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let label = labels[i];
        assert!(label < classes, "label {label} out of range");
        loss -= (exps[label] / sum).max(1e-12).ln();
        for j in 0..classes {
            let p = exps[j] / sum;
            *grad.at2_mut(i, j) = (p - if j == label { 1.0 } else { 0.0 }) / batch as f32;
        }
    }
    (loss / batch as f32, grad)
}

/// Softmax probabilities of a logits row (inference-time helper).
pub fn softmax_row(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(5)
    }

    #[test]
    fn dense_forward_matches_manual() {
        let mut rng = rng();
        let mut layer = Dense::new(3, 2, &mut rng);
        // Overwrite with known weights.
        layer.params_mut()[0]
            .data_mut()
            .copy_from_slice(&[1., 0., -1., 0.5, 0.5, 0.5]);
        layer.params_mut()[1]
            .data_mut()
            .copy_from_slice(&[0.0, 1.0]);
        let x = Tensor::from_vec(vec![1, 3], vec![2., 3., 4.]);
        let y = layer.forward(&x, false);
        assert_eq!(y.data(), &[2. - 4., 0.5 * 9. + 1.]);
    }

    #[test]
    fn dense_gradient_check() {
        // Numerical gradient check on a tiny layer.
        let mut rng = rng();
        let mut layer = Dense::new(4, 3, &mut rng);
        let x = Tensor::from_vec(vec![2, 4], (0..8).map(|i| i as f32 * 0.1).collect());
        let labels = vec![0usize, 2];

        let loss_of = |layer: &mut Dense, x: &Tensor| {
            let logits = layer.forward(x, true);
            softmax_cross_entropy(&logits, &labels).0
        };

        let logits = layer.forward(&x, true);
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let grad_in = layer.backward(&grad);

        // Check input gradient element (0, 1).
        let eps = 1e-3;
        let mut x_pert = x.clone();
        *x_pert.at2_mut(0, 1) += eps;
        let l_plus = loss_of(&mut layer, &x_pert);
        *x_pert.at2_mut(0, 1) -= 2.0 * eps;
        let l_minus = loss_of(&mut layer, &x_pert);
        let numeric = (l_plus - l_minus) / (2.0 * eps);
        assert!(
            (numeric - grad_in.at2(0, 1)).abs() < 1e-3,
            "numeric {numeric} vs analytic {}",
            grad_in.at2(0, 1)
        );
    }

    #[test]
    fn dense_update_reduces_loss() {
        let mut rng = rng();
        let mut layer = Dense::new(4, 3, &mut rng);
        let x = Tensor::from_vec(vec![4, 4], (0..16).map(|i| (i % 5) as f32 * 0.2).collect());
        let labels = vec![0usize, 1, 2, 0];
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let logits = layer.forward(&x, true);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            layer.backward(&grad);
            layer.update(0.5);
            last = loss;
        }
        assert!(last < 0.1, "loss after training: {last}");
    }

    #[test]
    fn relu_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![1, 4], vec![-1., 2., -3., 4.]);
        let y = relu.forward(&x, true);
        assert_eq!(y.data(), &[0., 2., 0., 4.]);
        let g = relu.backward(&Tensor::from_vec(vec![1, 4], vec![1., 1., 1., 1.]));
        assert_eq!(g.data(), &[0., 1., 0., 1.]);
    }

    #[test]
    fn sigmoid_range_and_gradient() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![1, 3], vec![-10., 0., 10.]);
        let y = s.forward(&x, true);
        assert!(y.data()[0] < 0.001 && (y.data()[1] - 0.5).abs() < 1e-6 && y.data()[2] > 0.999);
        let g = s.backward(&Tensor::from_vec(vec![1, 3], vec![1., 1., 1.]));
        // Max slope at 0 is 0.25.
        assert!((g.data()[1] - 0.25).abs() < 1e-6);
        assert!(g.data()[0] < 0.01);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec(vec![2, 1, 2, 2], (0..8).map(|i| i as f32).collect());
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 4]);
        let back = f.backward(&y);
        assert_eq!(back.shape(), &[2, 1, 2, 2]);
    }

    #[test]
    fn softmax_cross_entropy_perfect_prediction() {
        let logits = Tensor::from_vec(vec![1, 3], vec![100., 0., 0.]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-6);
        assert!(grad.data()[0].abs() < 1e-6);
    }

    #[test]
    fn softmax_row_sums_to_one() {
        let p = softmax_row(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }
}

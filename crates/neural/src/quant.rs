//! 16-bit fixed-point quantization and the MVM-engine abstraction.
//!
//! The paper's accelerators store 16-bit fixed-point weights using
//! ISAAC's negative-value normalization: a signed weight `w` is written
//! as the biased non-negative integer `w_q = round(w / scale) + 2^15`,
//! and the bias term is removed digitally after the analog dot product
//! (`Σ w·x = Σ w_q·x − 2^15·Σ x`). Activations are quantized to unsigned
//! 16-bit with a per-layer dynamic scale.
//!
//! The [`MvmEngine`] trait is the seam between the network and whatever
//! executes the dot products: [`ExactEngine`] computes them exactly (the
//! fixed-point software baseline), while the `accel` crate provides the
//! noisy, AN-coded crossbar implementations.

use crate::conv::{im2col_patch_into, ConvGeometry};
use crate::layer::softmax_row;
use crate::{Conv2d, Dense, Flatten, MaxPool2, Network, Relu, Sigmoid, Tensor};

/// A network or tensor shape the quantized lowering cannot handle.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuantError {
    /// Weight tensor was not 2-D.
    NotAMatrix {
        /// The tensor's actual rank.
        rank: usize,
    },
    /// A layer type the lowering does not understand.
    UnsupportedLayer(String),
    /// An activation layer appeared with no preceding MVM op to fold
    /// into.
    ActivationWithoutMvm,
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::NotAMatrix { rank } => {
                write!(f, "weights must be 2-D, got a rank-{rank} tensor")
            }
            QuantError::UnsupportedLayer(name) => {
                write!(f, "cannot lower layer {name:?} to quantized ops")
            }
            QuantError::ActivationWithoutMvm => {
                write!(f, "activation layer with no preceding MVM op")
            }
        }
    }
}

impl std::error::Error for QuantError {}

/// The additive bias applied to weights so they are non-negative
/// (ISAAC's negative-value normalization): `2^15`.
pub const WEIGHT_BIAS: i64 = 1 << 15;

/// Number of bits of a quantized weight or activation.
pub const QUANT_BITS: u32 = 16;

/// A weight matrix quantized to biased unsigned 16-bit fixed point.
///
/// # Examples
///
/// ```
/// use neural::{QuantizedMatrix, Tensor};
///
/// let w = Tensor::from_vec(vec![1, 2], vec![0.5, -0.5]);
/// let q = QuantizedMatrix::from_tensor(&w);
/// // +0.5 quantizes above the bias point, −0.5 below.
/// assert!(q.rows()[0][0] > 32768 && q.rows()[0][1] < 32768);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: Vec<Vec<u16>>,
    scale: f32,
}

impl QuantizedMatrix {
    /// Quantizes a `[out, in]` float matrix with a symmetric per-matrix
    /// scale.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D;
    /// [`try_from_tensor`](QuantizedMatrix::try_from_tensor) is the
    /// recoverable variant.
    pub fn from_tensor(weights: &Tensor) -> QuantizedMatrix {
        match QuantizedMatrix::try_from_tensor(weights) {
            Ok(q) => q,
            Err(e) => panic!("{e}"),
        }
    }

    /// Quantizes a `[out, in]` float matrix, reporting shape problems as
    /// a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NotAMatrix`] when the tensor is not 2-D.
    pub fn try_from_tensor(weights: &Tensor) -> Result<QuantizedMatrix, QuantError> {
        if weights.shape().len() != 2 {
            return Err(QuantError::NotAMatrix {
                rank: weights.shape().len(),
            });
        }
        let (out, inp) = (weights.shape()[0], weights.shape()[1]);
        let max = weights.max_abs();
        let scale = if max == 0.0 {
            1.0
        } else {
            max / (WEIGHT_BIAS - 1) as f32
        };
        let rows = (0..out)
            .map(|o| {
                (0..inp)
                    .map(|i| {
                        let q = (weights.at2(o, i) / scale).round() as i64 + WEIGHT_BIAS;
                        q.clamp(0, u16::MAX as i64) as u16
                    })
                    .collect()
            })
            .collect();
        Ok(QuantizedMatrix { rows, scale })
    }

    /// The biased rows (`[out][in]`), each entry in `0..2^16`.
    pub fn rows(&self) -> &[Vec<u16>] {
        &self.rows
    }

    /// The quantization scale: `w ≈ (w_q − 2^15) · scale`.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Output dimension (rows).
    pub fn out_dim(&self) -> usize {
        self.rows.len()
    }

    /// Input dimension (columns).
    pub fn in_dim(&self) -> usize {
        self.rows.first().map_or(0, |r| r.len())
    }

    /// Dequantizes entry `(o, i)` back to float.
    pub fn dequantize(&self, o: usize, i: usize) -> f32 {
        (self.rows[o][i] as i64 - WEIGHT_BIAS) as f32 * self.scale
    }
}

/// Quantizes an activation vector to unsigned 16-bit, returning the
/// values and the scale (`a ≈ a_q · scale`).
///
/// Activations are non-negative by construction (images in `[0, 1]`,
/// ReLU/sigmoid outputs); negative values are clamped to zero.
pub fn quantize_activations(activations: &[f32]) -> (Vec<u16>, f32) {
    let mut q = Vec::new();
    let scale = quantize_activations_into(activations, &mut q);
    (q, scale)
}

/// Like [`quantize_activations`], but writes into a caller-provided
/// buffer (cleared first) and returns only the scale.
///
/// A buffer with sufficient capacity is reused without allocating; this
/// is the variant the steady-state inference path uses.
pub fn quantize_activations_into(activations: &[f32], q: &mut Vec<u16>) -> f32 {
    q.clear();
    let max = activations.iter().fold(0.0f32, |m, &a| m.max(a));
    if max == 0.0 {
        q.resize(activations.len(), 0);
        return 1.0;
    }
    let scale = max / u16::MAX as f32;
    q.extend(
        activations
            .iter()
            .map(|&a| ((a.max(0.0) / scale).round() as u32).min(u16::MAX as u32) as u16),
    );
    scale
}

/// Executes biased unsigned matrix-vector products.
///
/// Implementations return, for each output row `o`, the exact or noisy
/// value of `Σ_j w_q[o][j] · input[j]` — the quantity a crossbar's
/// shift-and-add tree produces. De-biasing and rescaling happen in the
/// digital domain ([`QuantizedNetwork::run`]).
///
/// Engines are `Send`: a built engine set can be handed from the
/// thread that programmed it to the thread that runs inference on it.
pub trait MvmEngine: Send {
    /// Computes one matrix-vector product over quantized inputs, writing
    /// the per-row outputs into `out`.
    ///
    /// `out` is cleared and refilled with `out_dim` entries; a buffer
    /// with sufficient capacity is reused without allocating. The
    /// network pass itself calls only
    /// [`mvm_batch_into`](MvmEngine::mvm_batch_into) (a batch of one
    /// at batch 1, as [`QuantizedNetwork::run_with`] runs it); this
    /// entry point serves callers holding a single vector.
    fn mvm_into(&mut self, input: &[u16], out: &mut Vec<i64>);

    /// Computes one matrix-vector product, allocating a fresh output.
    fn mvm(&mut self, input: &[u16]) -> Vec<i64> {
        let mut out = Vec::new();
        self.mvm_into(input, &mut out);
        out
    }

    /// Rewinds the engine's noise stream to a fresh deterministic
    /// state derived from `seed`.
    ///
    /// A caller that reuses one programmed engine across independent
    /// inferences calls this before each one, so every result is a
    /// pure function of its input and the engine's programmed state —
    /// not of how many MVMs the engine ran before. Deterministic
    /// engines have no stream to rewind; the default is a no-op.
    fn reseed(&mut self, seed: u64) {
        let _ = seed;
    }

    /// Computes `batch` matrix-vector products in one pass.
    ///
    /// `inputs` holds the vectors back to back, row-major
    /// (`inputs[v · in_dim .. (v + 1) · in_dim]` is vector `v`); `out`
    /// is cleared and refilled the same way with `batch · out_dim`
    /// entries.
    ///
    /// The default implementation loops
    /// [`mvm_into`](MvmEngine::mvm_into) — correct for any engine, with
    /// one temporary allocation per call. Engines with amortizable
    /// physics (the crossbar engine's RTN snapshots and conductance
    /// sums) override it with a structure-of-arrays kernel that shares
    /// that work across the batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `inputs.len()` is not a multiple of
    /// `batch`.
    ///
    /// # Examples
    ///
    /// ```
    /// use neural::{ExactEngine, MvmEngine, QuantizedMatrix, Tensor};
    ///
    /// let w = Tensor::from_vec(vec![2, 3], vec![0.5, -0.25, 1.0, 0.0, 0.75, -1.0]);
    /// let mut engine = ExactEngine::new(&QuantizedMatrix::from_tensor(&w));
    /// // Two input vectors, back to back.
    /// let inputs: Vec<u16> = vec![1, 2, 3, 40, 50, 60];
    /// let mut out = Vec::new();
    /// engine.mvm_batch_into(&inputs, 2, &mut out);
    /// // Identical to running each vector on its own.
    /// let mut seq = engine.mvm(&inputs[..3]);
    /// seq.extend(engine.mvm(&inputs[3..]));
    /// assert_eq!(out, seq);
    /// ```
    fn mvm_batch_into(&mut self, inputs: &[u16], batch: usize, out: &mut Vec<i64>) {
        assert!(batch > 0, "batch must be at least 1");
        assert_eq!(inputs.len() % batch, 0, "inputs not divisible into batch");
        let in_dim = inputs.len() / batch;
        out.clear();
        let mut tmp = Vec::new();
        for v in 0..batch {
            self.mvm_into(&inputs[v * in_dim..(v + 1) * in_dim], &mut tmp);
            out.extend_from_slice(&tmp);
        }
    }
}

/// Builds engines for quantized matrices.
pub trait MvmEngineProvider {
    /// Instantiates an engine for `matrix` (e.g. programs crossbars).
    fn build(&self, matrix: &QuantizedMatrix) -> Box<dyn MvmEngine>;
}

/// The exact (noise-free) reference engine: fixed-point software.
#[derive(Debug, Clone)]
pub struct ExactEngine {
    rows: Vec<Vec<u16>>,
}

impl ExactEngine {
    /// Creates an exact engine over a matrix's rows.
    pub fn new(matrix: &QuantizedMatrix) -> ExactEngine {
        ExactEngine {
            rows: matrix.rows().to_vec(),
        }
    }
}

impl MvmEngine for ExactEngine {
    fn mvm_into(&mut self, input: &[u16], out: &mut Vec<i64>) {
        self.mvm_batch_into(input, 1, out);
    }

    fn mvm_batch_into(&mut self, inputs: &[u16], batch: usize, out: &mut Vec<i64>) {
        assert!(batch > 0, "batch must be at least 1");
        assert_eq!(inputs.len() % batch, 0, "inputs not divisible into batch");
        let in_dim = inputs.len() / batch;
        out.clear();
        for v in 0..batch {
            let input = &inputs[v * in_dim..(v + 1) * in_dim];
            out.extend(self.rows.iter().map(|row| {
                assert_eq!(row.len(), input.len(), "input length mismatch");
                row.iter()
                    .zip(input)
                    .map(|(&w, &x)| w as i64 * x as i64)
                    .sum::<i64>()
            }));
        }
    }
}

/// Provider for [`ExactEngine`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactProvider;

impl MvmEngineProvider for ExactProvider {
    fn build(&self, matrix: &QuantizedMatrix) -> Box<dyn MvmEngine> {
        Box::new(ExactEngine::new(matrix))
    }
}

/// Activation applied after an MVM op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Raw logits.
    None,
    /// Rectified linear.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::None => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }
}

/// How an MVM op consumes its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MvmGeometry {
    /// A fully connected layer over the flat input.
    Dense,
    /// A convolution lowered to per-patch MVMs via im2col.
    Conv(ConvGeometry),
}

/// One op of a quantized network.
#[derive(Debug, Clone)]
pub enum QuantOp {
    /// A matrix-vector multiplication (dense or lowered convolution).
    Mvm {
        /// The quantized weight matrix.
        matrix: QuantizedMatrix,
        /// Float bias added after de-biasing and rescaling.
        bias: Vec<f32>,
        /// Activation applied to the float output.
        activation: Activation,
        /// Dense or convolutional input interpretation.
        geometry: MvmGeometry,
    },
    /// 2×2 max pooling over `[channels, h, w]`.
    MaxPool {
        /// Input channels.
        channels: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
    },
}

/// Reusable buffers for [`QuantizedNetwork::run_batch_with`] (and so
/// for [`run_with`](QuantizedNetwork::run_with)).
///
/// Holds the activation double-buffer and the per-op quantization
/// workspace, so that repeated evaluations against one scratch allocate
/// nothing once every buffer has grown to the network's high-water
/// mark. One scratch per worker thread; it carries no results between
/// calls — only capacity.
#[derive(Debug, Clone, Default)]
pub struct RunScratch {
    /// Current activations; holds the logits after the final op.
    x: Vec<f32>,
    /// Output buffer of the op being executed (swapped with `x`).
    next: Vec<f32>,
    /// Quantized activations of one vector (an example or a patch),
    /// copied into `q_batch`.
    q: Vec<u16>,
    /// Raw engine outputs for the current MVM.
    raw: Vec<i64>,
    /// One im2col patch (convolutional ops).
    patch: Vec<f32>,
    /// Back-to-back quantized vectors for one batched MVM.
    q_batch: Vec<u16>,
    /// Per-vector activation scales of the current batched MVM.
    scales: Vec<f32>,
    /// Per-vector quantized-activation sums (de-bias terms) of the
    /// current batched MVM.
    sums: Vec<i64>,
}

impl RunScratch {
    /// Creates an empty scratch; buffers grow on first use and are
    /// reused afterwards.
    pub fn new() -> RunScratch {
        RunScratch::default()
    }
}

/// A network lowered to quantized ops, executable on any [`MvmEngine`].
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    ops: Vec<QuantOp>,
}

impl QuantizedNetwork {
    /// Lowers a trained float [`Network`] to quantized ops.
    ///
    /// Dense and convolution layers become [`QuantOp::Mvm`]; a following
    /// ReLU or sigmoid is folded into the op's activation; max-pool
    /// layers are copied; flatten layers vanish (the quantized runtime is
    /// shape-agnostic between ops).
    ///
    /// # Panics
    ///
    /// Panics if the network contains a layer type this lowering does
    /// not understand;
    /// [`try_from_network`](QuantizedNetwork::try_from_network) is the
    /// recoverable variant.
    pub fn from_network(network: &Network) -> QuantizedNetwork {
        match QuantizedNetwork::try_from_network(network) {
            Ok(qnet) => qnet,
            Err(e) => panic!("{e}"),
        }
    }

    /// Lowers a trained float [`Network`] to quantized ops, reporting
    /// unsupported topologies as a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedLayer`] for a layer type the
    /// lowering does not understand, and
    /// [`QuantError::ActivationWithoutMvm`] when a ReLU/sigmoid has no
    /// preceding MVM op to fold into.
    pub fn try_from_network(network: &Network) -> Result<QuantizedNetwork, QuantError> {
        let mut ops: Vec<QuantOp> = Vec::new();
        for layer in network.layers() {
            let any = layer.as_any();
            if let Some(dense) = any.downcast_ref::<Dense>() {
                ops.push(QuantOp::Mvm {
                    matrix: QuantizedMatrix::try_from_tensor(dense.weights())?,
                    bias: dense.bias().data().to_vec(),
                    activation: Activation::None,
                    geometry: MvmGeometry::Dense,
                });
            } else if let Some(conv) = any.downcast_ref::<Conv2d>() {
                ops.push(QuantOp::Mvm {
                    matrix: QuantizedMatrix::try_from_tensor(conv.weights())?,
                    bias: conv.bias().data().to_vec(),
                    activation: Activation::None,
                    geometry: MvmGeometry::Conv(conv.geometry()),
                });
            } else if any.downcast_ref::<Relu>().is_some() {
                fold_activation(&mut ops, Activation::Relu)?;
            } else if any.downcast_ref::<Sigmoid>().is_some() {
                fold_activation(&mut ops, Activation::Sigmoid)?;
            } else if let Some(pool) = any.downcast_ref::<MaxPool2>() {
                let (c, h, w) = pool_in_shape(pool);
                ops.push(QuantOp::MaxPool { channels: c, h, w });
            } else if any.downcast_ref::<Flatten>().is_some() {
                // Shape bookkeeping only; the quantized runtime is flat.
            } else {
                return Err(QuantError::UnsupportedLayer(layer.name().to_string()));
            }
        }
        Ok(QuantizedNetwork { ops })
    }

    /// The ops.
    pub fn ops(&self) -> &[QuantOp] {
        &self.ops
    }

    /// The quantized matrices, in op order — one engine must be built
    /// per entry (via an [`MvmEngineProvider`]) before calling
    /// [`run`](QuantizedNetwork::run).
    pub fn mvm_matrices(&self) -> Vec<&QuantizedMatrix> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                QuantOp::Mvm { matrix, .. } => Some(matrix),
                QuantOp::MaxPool { .. } => None,
            })
            .collect()
    }

    /// Builds one engine per MVM op.
    pub fn build_engines(&self, provider: &dyn MvmEngineProvider) -> Vec<Box<dyn MvmEngine>> {
        self.mvm_matrices()
            .into_iter()
            .map(|m| provider.build(m))
            .collect()
    }

    /// Runs one input (flat image) through the quantized network,
    /// returning float logits.
    ///
    /// `engines` must have been produced by
    /// [`build_engines`](QuantizedNetwork::build_engines) (one per MVM
    /// op, in order).
    ///
    /// # Panics
    ///
    /// Panics if `engines` does not match the MVM op count.
    pub fn run(&self, input: &[f32], engines: &mut [Box<dyn MvmEngine>]) -> Vec<f32> {
        let mut scratch = RunScratch::new();
        self.run_with(input, engines, &mut scratch);
        scratch.x
    }

    /// Runs one input through the network using `scratch` for every
    /// intermediate buffer, returning the logits as a borrow of the
    /// scratch.
    ///
    /// A batch of one through
    /// [`run_batch_with`](QuantizedNetwork::run_batch_with), the one
    /// network pass. Identical results to
    /// [`run`](QuantizedNetwork::run); the only difference is
    /// allocation behaviour. After the buffers have grown to the
    /// network's high-water mark (one warm-up evaluation), a
    /// steady-state call performs no heap allocation at all — the
    /// contract the accelerator's Monte-Carlo workers depend on.
    pub fn run_with<'s>(
        &self,
        input: &[f32],
        engines: &mut [Box<dyn MvmEngine>],
        scratch: &'s mut RunScratch,
    ) -> &'s [f32] {
        self.run_batch_with(input, 1, engines, scratch)
    }

    /// Runs `batch` inputs through the network in one pass, returning
    /// the logits flattened back to back (`[batch · out_dim]`, same
    /// layout as the inputs).
    ///
    /// Dense ops quantize every example and submit one batched MVM
    /// ([`MvmEngine::mvm_batch_into`]), so an engine with amortizable
    /// per-call setup pays it once per batch instead of once per
    /// example. A convolution op submits one MVM per example carrying
    /// all of that example's im2col patches, at every batch size, so
    /// the patches of one inference share one engine call (one RTN
    /// snapshot per stack). Pooling and de-biasing are per-example
    /// digital work.
    ///
    /// For the exact engine the result equals `batch` separate
    /// [`run_with`](QuantizedNetwork::run_with) calls; for stochastic
    /// engines the estimator is the same but the noise draws differ
    /// (one shared RTN snapshot per dense call), exactly like changing
    /// the thread count changes draw interleaving.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero, `inputs.len()` is not `batch` whole
    /// examples, or `engines` does not match the MVM op count.
    pub fn run_batch_with<'s>(
        &self,
        inputs: &[f32],
        batch: usize,
        engines: &mut [Box<dyn MvmEngine>],
        scratch: &'s mut RunScratch,
    ) -> &'s [f32] {
        assert!(batch > 0, "batch must be at least 1");
        assert_eq!(inputs.len() % batch, 0, "inputs not divisible into batch");
        scratch.x.clear();
        scratch.x.extend_from_slice(inputs);
        let mut engine_idx = 0;
        for op in &self.ops {
            let dim = scratch.x.len() / batch;
            match op {
                QuantOp::Mvm {
                    matrix,
                    bias,
                    activation,
                    geometry,
                } => {
                    let engine = engines
                        .get_mut(engine_idx)
                        // Engines came from build_engines over this same op list, so the
                        // index cannot run past the end.
                        .expect("one engine per MVM op");
                    engine_idx += 1;
                    match geometry {
                        MvmGeometry::Dense => run_dense_batch_into(
                            matrix,
                            bias,
                            *activation,
                            &scratch.x,
                            batch,
                            engine,
                            &mut scratch.q,
                            &mut scratch.q_batch,
                            &mut scratch.scales,
                            &mut scratch.sums,
                            &mut scratch.raw,
                            &mut scratch.next,
                        ),
                        MvmGeometry::Conv(geo) => run_conv_batch_into(
                            matrix,
                            bias,
                            *activation,
                            geo,
                            &scratch.x,
                            batch,
                            engine,
                            &mut scratch.q,
                            &mut scratch.q_batch,
                            &mut scratch.scales,
                            &mut scratch.sums,
                            &mut scratch.raw,
                            &mut scratch.patch,
                            &mut scratch.next,
                        ),
                    }
                    std::mem::swap(&mut scratch.x, &mut scratch.next);
                }
                QuantOp::MaxPool { channels, h, w } => {
                    assert_eq!(dim, channels * h * w, "pool input size mismatch");
                    let out_dim = channels * (h / 2) * (w / 2);
                    scratch.next.clear();
                    scratch.next.resize(batch * out_dim, 0.0);
                    for v in 0..batch {
                        pool_example_into(
                            &scratch.x[v * dim..(v + 1) * dim],
                            *channels,
                            *h,
                            *w,
                            &mut scratch.next[v * out_dim..(v + 1) * out_dim],
                        );
                    }
                    std::mem::swap(&mut scratch.x, &mut scratch.next);
                }
            }
        }
        assert_eq!(engine_idx, engines.len(), "unused engines supplied");
        &scratch.x
    }

    /// Convenience: class prediction for one input.
    pub fn predict(&self, input: &[f32], engines: &mut [Box<dyn MvmEngine>]) -> usize {
        let logits = self.run(input, engines);
        Tensor::from_vec(vec![logits.len()], logits).argmax()
    }

    /// Class prediction for one input using `scratch` buffers —
    /// allocation-free in steady state, same result as
    /// [`predict`](QuantizedNetwork::predict).
    pub fn predict_with(
        &self,
        input: &[f32],
        engines: &mut [Box<dyn MvmEngine>],
        scratch: &mut RunScratch,
    ) -> usize {
        let logits = self.run_with(input, engines, scratch);
        // Same tie-breaking as `Tensor::argmax` (`max_by` keeps the last
        // maximal element).
        let mut best = 0usize;
        for (i, &v) in logits.iter().enumerate() {
            if v >= logits[best] {
                best = i;
            }
        }
        best
    }

    /// Convenience: softmax probabilities for one input.
    pub fn probabilities(&self, input: &[f32], engines: &mut [Box<dyn MvmEngine>]) -> Vec<f32> {
        softmax_row(&self.run(input, engines))
    }
}

fn fold_activation(ops: &mut [QuantOp], act: Activation) -> Result<(), QuantError> {
    match ops.last_mut() {
        Some(QuantOp::Mvm { activation, .. }) => {
            *activation = act;
            Ok(())
        }
        _ => Err(QuantError::ActivationWithoutMvm),
    }
}

fn pool_in_shape(pool: &MaxPool2) -> (usize, usize, usize) {
    let (c, oh, ow) = pool.out_shape();
    (c, oh * 2, ow * 2)
}

fn pool_example_into(input: &[f32], c: usize, h: usize, w: usize, out: &mut [f32]) {
    let (oh, ow) = (h / 2, w / 2);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let v = input[ch * h * w + (oy * 2 + dy) * w + (ox * 2 + dx)];
                        best = best.max(v);
                    }
                }
                out[ch * oh * ow + oy * ow + ox] = best;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)] // private helper: explicit split borrows of RunScratch
fn run_dense_batch_into(
    matrix: &QuantizedMatrix,
    bias: &[f32],
    activation: Activation,
    input: &[f32],
    batch: usize,
    engine: &mut Box<dyn MvmEngine>,
    q: &mut Vec<u16>,
    q_batch: &mut Vec<u16>,
    scales: &mut Vec<f32>,
    sums: &mut Vec<i64>,
    raw: &mut Vec<i64>,
    out: &mut Vec<f32>,
) {
    let in_dim = matrix.in_dim();
    let out_dim = matrix.out_dim();
    assert_eq!(input.len(), batch * in_dim, "dense input size mismatch");
    q_batch.clear();
    scales.clear();
    sums.clear();
    for v in 0..batch {
        let a_scale = quantize_activations_into(&input[v * in_dim..(v + 1) * in_dim], q);
        scales.push(a_scale);
        sums.push(q.iter().map(|&x| x as i64).sum());
        q_batch.extend_from_slice(q);
    }
    engine.mvm_batch_into(q_batch, batch, raw);
    out.clear();
    out.extend((0..batch * out_dim).map(|i| {
        let (v, o) = (i / out_dim, i % out_dim);
        let signed = raw[i] - WEIGHT_BIAS * sums[v];
        activation.apply(signed as f32 * matrix.scale() * scales[v] + bias[o])
    }));
}

#[allow(clippy::too_many_arguments)] // private helper: explicit split borrows of RunScratch
fn run_conv_batch_into(
    matrix: &QuantizedMatrix,
    bias: &[f32],
    activation: Activation,
    geo: &ConvGeometry,
    input: &[f32],
    batch: usize,
    engine: &mut Box<dyn MvmEngine>,
    q: &mut Vec<u16>,
    q_batch: &mut Vec<u16>,
    scales: &mut Vec<f32>,
    sums: &mut Vec<i64>,
    raw: &mut Vec<i64>,
    patch: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    let (oh, ow) = geo.out_hw();
    let out_c = geo.out_channels;
    let patches = oh * ow;
    let in_dim = input.len() / batch;
    let example_out = out_c * patches;
    out.clear();
    out.resize(batch * example_out, 0.0);
    // Batch across each example's im2col patches — the convolution's
    // natural batch dimension.
    for v in 0..batch {
        let example = &input[v * in_dim..(v + 1) * in_dim];
        q_batch.clear();
        scales.clear();
        sums.clear();
        for p in 0..patches {
            im2col_patch_into(example, geo, p, patch);
            let a_scale = quantize_activations_into(patch, q);
            scales.push(a_scale);
            sums.push(q.iter().map(|&x| x as i64).sum());
            q_batch.extend_from_slice(q);
        }
        engine.mvm_batch_into(q_batch, patches, raw);
        let out_v = &mut out[v * example_out..(v + 1) * example_out];
        for p in 0..patches {
            for c in 0..out_c {
                let signed = raw[p * out_c + c] - WEIGHT_BIAS * sums[p];
                out_v[c * patches + p] =
                    activation.apply(signed as f32 * matrix.scale() * scales[p] + bias[c]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn quantized_matrix_roundtrip_accuracy() {
        let w = Tensor::from_vec(vec![2, 3], vec![0.5, -0.25, 0.0, 1.0, -1.0, 0.75]);
        let q = QuantizedMatrix::from_tensor(&w);
        for o in 0..2 {
            for i in 0..3 {
                let err = (q.dequantize(o, i) - w.at2(o, i)).abs();
                assert!(err < 1e-4, "({o},{i}) err {err}");
            }
        }
        assert_eq!(q.out_dim(), 2);
        assert_eq!(q.in_dim(), 3);
    }

    #[test]
    fn zero_matrix_quantizes_to_bias() {
        let q = QuantizedMatrix::from_tensor(&Tensor::zeros(vec![2, 2]));
        assert!(q.rows().iter().flatten().all(|&v| v as i64 == WEIGHT_BIAS));
    }

    #[test]
    fn activation_quantization_roundtrip() {
        let acts = vec![0.0, 0.5, 1.0, 0.25];
        let (q, scale) = quantize_activations(&acts);
        for (&a, &qa) in acts.iter().zip(&q) {
            assert!((qa as f32 * scale - a).abs() < 1e-4);
        }
        let (qz, s) = quantize_activations(&[0.0, 0.0]);
        assert_eq!(qz, vec![0, 0]);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn exact_engine_matches_float_dense() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut dense = Dense::new(16, 8, &mut rng);
        let input: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin().abs()).collect();
        let x = Tensor::from_vec(vec![1, 16], input.clone());
        let float_out = dense.forward(&x, false);

        let matrix = QuantizedMatrix::from_tensor(dense.weights());
        let mut engine: Box<dyn MvmEngine> = Box::new(ExactEngine::new(&matrix));
        let mut s = RunScratch::new();
        run_dense_batch_into(
            &matrix,
            dense.bias().data(),
            Activation::None,
            &input,
            1,
            &mut engine,
            &mut s.q,
            &mut s.q_batch,
            &mut s.scales,
            &mut s.sums,
            &mut s.raw,
            &mut s.next,
        );
        let q_out = s.next;
        for (f, q) in float_out.data().iter().zip(&q_out) {
            assert!((f - q).abs() < 2e-3, "float {f} vs quant {q}");
        }
    }

    #[test]
    fn quantized_network_matches_float_network() {
        use crate::{Flatten, Network, Relu};
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut net = Network::new(vec![
            Box::new(Flatten::new()),
            Box::new(Dense::new(12, 10, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(10, 4, &mut rng)),
        ]);
        let input: Vec<f32> = (0..12).map(|i| ((i * 7 % 5) as f32) * 0.2).collect();
        let x = Tensor::from_vec(vec![1, 12], input.clone());
        let float_logits = net.forward(&x);

        let qnet = QuantizedNetwork::from_network(&net);
        assert_eq!(qnet.mvm_matrices().len(), 2);
        let mut engines = qnet.build_engines(&ExactProvider);
        let q_logits = qnet.run(&input, &mut engines);
        for (f, q) in float_logits.data().iter().zip(&q_logits) {
            assert!((f - q).abs() < 5e-3, "float {f} vs quant {q}");
        }
        // Same argmax.
        assert_eq!(
            float_logits.clone().reshape(vec![4]).argmax(),
            qnet.predict(&input, &mut engines)
        );
    }

    #[test]
    fn quantized_conv_network_matches_float() {
        use crate::conv::ConvGeometry;
        use crate::{Flatten, MaxPool2, Network, Relu};
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let geo = ConvGeometry {
            in_channels: 1,
            out_channels: 3,
            kernel: 3,
            padding: 1,
            in_hw: (8, 8),
        };
        let mut net = Network::new(vec![
            Box::new(Conv2d::new(geo, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2::new(3, 8, 8)),
            Box::new(Flatten::new()),
            Box::new(Dense::new(3 * 4 * 4, 5, &mut rng)),
        ]);
        let input: Vec<f32> = (0..64).map(|i| ((i % 9) as f32) / 9.0).collect();
        let x = Tensor::from_vec(vec![1, 1, 8, 8], input.clone());
        let float_logits = net.forward(&x);

        let qnet = QuantizedNetwork::from_network(&net);
        let mut engines = qnet.build_engines(&ExactProvider);
        let q_logits = qnet.run(&input, &mut engines);
        for (f, q) in float_logits.data().iter().zip(&q_logits) {
            assert!((f - q).abs() < 1e-2, "float {f} vs quant {q}");
        }
    }

    #[test]
    fn run_with_reused_scratch_matches_run() {
        // A conv + pool + dense network exercises every scratch buffer
        // (activation double-buffer, quantization, patch extraction).
        use crate::conv::ConvGeometry;
        use crate::{Flatten, MaxPool2, Network, Relu};
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let geo = ConvGeometry {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            padding: 1,
            in_hw: (6, 6),
        };
        let net = Network::new(vec![
            Box::new(Conv2d::new(geo, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2::new(2, 6, 6)),
            Box::new(Flatten::new()),
            Box::new(Dense::new(2 * 3 * 3, 4, &mut rng)),
        ]);
        let input: Vec<f32> = (0..36).map(|i| ((i % 7) as f32) / 7.0).collect();
        let qnet = QuantizedNetwork::from_network(&net);
        let mut engines = qnet.build_engines(&ExactProvider);

        let reference = qnet.run(&input, &mut engines);
        let mut scratch = RunScratch::new();
        // Two evaluations against the same scratch: identical results,
        // no state leaking between calls.
        let first = qnet.run_with(&input, &mut engines, &mut scratch).to_vec();
        let second = qnet.run_with(&input, &mut engines, &mut scratch).to_vec();
        assert_eq!(first, reference);
        assert_eq!(second, reference);
        assert_eq!(
            qnet.predict_with(&input, &mut engines, &mut scratch),
            qnet.predict(&input, &mut engines)
        );
    }

    #[test]
    fn mvm_batch_default_and_exact_override_agree() {
        let w = Tensor::from_vec(
            vec![3, 4],
            (0..12).map(|i| (i as f32) * 0.1 - 0.5).collect(),
        );
        let matrix = QuantizedMatrix::from_tensor(&w);
        let mut engine = ExactEngine::new(&matrix);
        let inputs: Vec<u16> = (0..12).map(|i| (i * 997) as u16).collect();
        let mut batched = Vec::new();
        engine.mvm_batch_into(&inputs, 3, &mut batched);
        let mut seq = Vec::new();
        for v in 0..3 {
            seq.extend(engine.mvm(&inputs[v * 4..(v + 1) * 4]));
        }
        assert_eq!(batched, seq);
        assert_eq!(batched.len(), 9);
    }

    #[test]
    fn run_batch_with_matches_sequential_runs() {
        // Conv + pool + dense exercises every batched path: patch
        // batching, per-example pooling windows, dense example batching.
        use crate::conv::ConvGeometry;
        use crate::{Flatten, MaxPool2, Network, Relu};
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let geo = ConvGeometry {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            padding: 1,
            in_hw: (6, 6),
        };
        let net = Network::new(vec![
            Box::new(Conv2d::new(geo, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2::new(2, 6, 6)),
            Box::new(Flatten::new()),
            Box::new(Dense::new(2 * 3 * 3, 4, &mut rng)),
        ]);
        let qnet = QuantizedNetwork::from_network(&net);
        let mut engines = qnet.build_engines(&ExactProvider);
        let batch = 3;
        let inputs: Vec<f32> = (0..batch * 36).map(|i| ((i % 11) as f32) / 11.0).collect();

        let mut scratch = RunScratch::new();
        let batched = qnet
            .run_batch_with(&inputs, batch, &mut engines, &mut scratch)
            .to_vec();
        assert_eq!(batched.len(), batch * 4);
        let mut seq_scratch = RunScratch::new();
        for v in 0..batch {
            let one = qnet.run_with(
                &inputs[v * 36..(v + 1) * 36],
                &mut engines,
                &mut seq_scratch,
            );
            assert_eq!(&batched[v * 4..(v + 1) * 4], one, "example {v}");
        }
        // Batch of one is the degenerate case of the same path.
        let single = qnet
            .run_batch_with(&inputs[..36], 1, &mut engines, &mut scratch)
            .to_vec();
        assert_eq!(single, batched[..4]);
    }

    /// Records the batch size of every engine call, per layer.
    struct CountingProvider {
        calls: std::sync::Arc<std::sync::Mutex<Vec<Vec<usize>>>>,
    }

    struct CountingEngine {
        inner: ExactEngine,
        calls: std::sync::Arc<std::sync::Mutex<Vec<Vec<usize>>>>,
        layer: usize,
    }

    impl CountingEngine {
        fn record(&self, batch: usize) {
            self.calls.lock().unwrap()[self.layer].push(batch);
        }
    }

    impl MvmEngineProvider for CountingProvider {
        fn build(&self, matrix: &QuantizedMatrix) -> Box<dyn MvmEngine> {
            let mut calls = self.calls.lock().unwrap();
            calls.push(Vec::new());
            Box::new(CountingEngine {
                inner: ExactEngine::new(matrix),
                calls: std::sync::Arc::clone(&self.calls),
                layer: calls.len() - 1,
            })
        }
    }

    impl MvmEngine for CountingEngine {
        fn mvm_into(&mut self, input: &[u16], out: &mut Vec<i64>) {
            self.record(1);
            self.inner.mvm_into(input, out);
        }

        fn mvm_batch_into(&mut self, inputs: &[u16], batch: usize, out: &mut Vec<i64>) {
            self.record(batch);
            self.inner.mvm_batch_into(inputs, batch, out);
        }
    }

    #[test]
    fn conv_ops_send_one_engine_call_per_example_at_every_batch_size() {
        use crate::conv::ConvGeometry;
        use crate::{Flatten, Network, Relu};
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let geo = ConvGeometry {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            padding: 1,
            in_hw: (5, 4),
        };
        let (oh, ow) = geo.out_hw();
        let patches = oh * ow;
        let net = Network::new(vec![
            Box::new(Conv2d::new(geo, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(2 * patches, 3, &mut rng)),
        ]);
        let qnet = QuantizedNetwork::from_network(&net);
        let calls = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut engines = qnet.build_engines(&CountingProvider {
            calls: std::sync::Arc::clone(&calls),
        });
        let batch = 3;
        let inputs: Vec<f32> = (0..batch * 20).map(|i| ((i % 13) as f32) / 13.0).collect();
        let mut scratch = RunScratch::new();

        // Batch 1: the conv engine sees one call holding every patch of
        // the image, the dense engine one call of one vector.
        let single = qnet
            .run_with(&inputs[..20], &mut engines, &mut scratch)
            .to_vec();
        assert_eq!(*calls.lock().unwrap(), vec![vec![patches], vec![1]]);

        // Batch 3: one conv call per example, each still holding every
        // patch; one dense call over the three examples.
        calls.lock().unwrap().iter_mut().for_each(Vec::clear);
        let batched = qnet
            .run_batch_with(&inputs, batch, &mut engines, &mut scratch)
            .to_vec();
        assert_eq!(
            *calls.lock().unwrap(),
            vec![vec![patches; batch], vec![batch]]
        );
        assert_eq!(single, batched[..3]);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let net = Network::new(vec![Box::new(Dense::new(4, 3, &mut rng))]);
        let qnet = QuantizedNetwork::from_network(&net);
        let mut engines = qnet.build_engines(&ExactProvider);
        let p = qnet.probabilities(&[0.1, 0.2, 0.3, 0.4], &mut engines);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }
}

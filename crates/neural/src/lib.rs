//! A minimal neural-network framework for the memristive-accelerator
//! reproduction.
//!
//! The paper trains its workloads in TensorFlow, converts the weights to
//! 16-bit fixed point, and maps them onto an analog accelerator. This
//! crate plays TensorFlow's role — and defines the quantized-execution
//! interface the accelerator implements:
//!
//! - [`Tensor`], [`Layer`], [`Network`] — dense/conv/pool layers with
//!   backprop and minibatch SGD, enough to train the Table II topologies
//!   ([`models`]) on the procedural datasets ([`data`]).
//! - [`QuantizedNetwork`] — the 16-bit fixed-point lowering with ISAAC's
//!   negative-value normalization (biased weights, digital de-biasing).
//! - [`workload::train_or_load`] — the one training recipe (seeds,
//!   epochs, test sets, weight cache) every experiment evaluates.
//! - [`MvmEngine`] / [`MvmEngineProvider`] — the seam where dot products
//!   execute. [`ExactEngine`] is the noise-free software baseline; the
//!   `accel` crate plugs in noisy, AN-code-protected crossbars.
//!
//! # Quickstart
//!
//! ```
//! use neural::{data, models, ExactProvider, QuantizedNetwork};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut net = models::mlp1(&mut rng);
//! let train = data::digits(200, 1);
//! net.train_epoch(&train.images, &train.labels, 32, 0.05);
//!
//! // Lower to fixed point and run on the exact reference engine.
//! let qnet = QuantizedNetwork::from_network(&net);
//! let mut engines = qnet.build_engines(&ExactProvider);
//! let class = qnet.predict(train.image(0), &mut engines);
//! assert!(class < 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv;
pub mod data;
mod layer;
pub mod models;
mod network;
mod quant;
mod tensor;
pub mod workload;

pub use conv::{im2col, im2col_patch_into, Conv2d, ConvGeometry, MaxPool2};
pub use layer::{softmax_cross_entropy, softmax_row, Dense, Flatten, Layer, Relu, Sigmoid};
pub use network::{EpochStats, Network, SavedWeights};
pub use quant::{
    quantize_activations, quantize_activations_into, Activation, ExactEngine, ExactProvider,
    MvmEngine, MvmEngineProvider, MvmGeometry, QuantError, QuantOp, QuantizedMatrix,
    QuantizedNetwork, RunScratch, QUANT_BITS, WEIGHT_BIAS,
};
pub use tensor::Tensor;

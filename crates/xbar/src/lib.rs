//! Memristive crossbar simulation substrate.
//!
//! This crate models the analog matrix-vector-multiplication fabric that
//! the paper's error-correction scheme protects: multi-bit memristor
//! cells programmed to conductance levels, 128-wide physical rows whose
//! bitline currents implement dot products, ADC quantization, and the
//! physically motivated noise sources of §II-C:
//!
//! - **thermal (Johnson–Nyquist) noise** — zero-mean Gaussian current
//!   with `σ = sqrt(4·k_B·T·f / R)`;
//! - **shot noise** — zero-mean Gaussian with `σ = sqrt(2·q·I·f)`;
//! - **random telegraph noise (RTN)** — a two-state trap per cell whose
//!   resistance deviation `ΔR/R` follows the resistance-dependent Ielmini
//!   model (small for wide low-resistance filaments, saturating for
//!   narrow high-resistance ones) with asymmetric dwell times;
//! - **programming error** — a static ±1 % tolerance on the programmed
//!   resistance left by iterative write-verify;
//! - **stuck-at faults** — manufacturing or endurance failures pinning a
//!   cell at an arbitrary level.
//!
//! The crate provides two fidelities:
//!
//! - [`CrossbarArray::read_row`] — Monte-Carlo sampling of one row
//!   readout (per-level binomial RTN draws + Gaussian noise), fast enough
//!   for network-scale accuracy simulation; and
//! - [`rowerr::predict_row`] — the closed-form binomial-CDF predictor of
//!   §V-B5 that data-aware code construction uses.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use xbar::{BitSlicer, CrossbarArray, DeviceParams, InputMask};
//!
//! let params = DeviceParams::default(); // Table I of the paper
//! let slicer = BitSlicer::new(2, 8);    // 2-bit cells, 8-bit words
//!
//! // One logical row of four 8-bit weights → four physical rows.
//! let rows = slicer.slice_words(&[0x5A, 0x13, 0xFF, 0x00]);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let array = CrossbarArray::program(&rows, &params, &mut rng);
//!
//! let mask = InputMask::all_ones(4);
//! let ideal = array.ideal_row_output(0, &mask);
//! let noisy = array.read_row(0, &mask, &mut rng);
//! assert!((noisy - ideal).abs() <= 4); // errors are small integer shifts
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adc;
mod array;
mod bitslice;
mod device;
pub mod endurance;
mod mask;
pub mod rowerr;
pub mod stats;

pub use adc::Adc;
pub use array::{ArrayError, CrossbarArray, PhysicalRow, ReadBrackets, RtnSnapshot};
pub use bitslice::BitSlicer;
pub use device::{DeviceParams, RtnModel};
pub use mask::InputMask;

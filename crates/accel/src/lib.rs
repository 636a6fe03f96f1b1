//! An ISAAC-style memristive DNN accelerator with AN/ABN-protected
//! in-situ matrix-vector multiplication.
//!
//! This crate ties the substrates together into the system the paper
//! evaluates:
//!
//! - [`mapping`] places quantized weight matrices onto crossbar stacks —
//!   column chunks of at most 128, logical rows packed into 128-bit
//!   coded operand groups, encoded with the selected arithmetic code and
//!   bit-sliced onto multi-bit cells;
//! - [`ProtectionScheme`] enumerates the evaluated configurations
//!   (unprotected, `Static16`, `Static128`, and the data-aware `ABN-X`
//!   codes with 7–10 check bits);
//! - [`CrossbarEngine`] executes MVMs cycle by cycle: bit-serial input
//!   streaming, noisy row reads, shift-and-add reduction, and the error
//!   correction unit (residue → table → correction → `B` check) per
//!   group and cycle, mirroring Figure 9;
//! - [`sim`] runs Monte-Carlo network inference (optionally across
//!   threads) and reports misclassification rates;
//! - [`analytic`] predicts the same rates in closed form — moment
//!   propagation through every pipeline stage instead of sampling —
//!   with an [`analytic::ErrorModel`] policy for choosing between the
//!   two per configuration;
//! - [`cost`] reproduces the area/power/latency accounting of Table IV
//!   and §VIII-B;
//! - [`hierarchy`] plans networks onto the tile/IMA/array hierarchy and
//!   accounts resources and per-inference energy;
//! - [`remap`] implements fault-aware logical-row remapping (the
//!   Xia-et-al. direction the paper cites), composing with the codes.
//!
//! # Example
//!
//! ```
//! use accel::{AccelConfig, CrossbarProvider, ProtectionScheme};
//! use neural::{models, QuantizedNetwork};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let net = models::mlp1(&mut rng);
//! let qnet = QuantizedNetwork::from_network(&net);
//!
//! // A data-aware ABN-9 accelerator with 2-bit cells.
//! let config = AccelConfig::new(ProtectionScheme::data_aware(9));
//! let provider = CrossbarProvider::new(config, 42);
//! let mut engines = qnet.build_engines(&provider);
//! let image = vec![0.5f32; 784];
//! let class = qnet.predict(&image, &mut engines);
//! assert!(class < 10);
//! ```
//!
//! # Observability
//!
//! Built with the `obs` feature (which forwards to `repro-obs/enabled`;
//! the CLI always turns it on), the hot paths feed the workspace's
//! zero-dependency metric layer: per-MVM ECC counters
//! (`ecc_clean` … `ecc_uncoded`, matching [`DecodeStats`]), per-lane
//! error digits and magnitudes, `"mvm"`/`"program"`/`"shard"` spans,
//! and JSONL events from [`sim::evaluate`] (`shard_done`) and
//! [`campaign`] (`campaign_epoch`). Workers merge
//! thread-local metric shards at join points, so totals are exact and
//! deterministic; instrumentation never draws RNG values or enters
//! checkpoint state. Without the feature every hook compiles to a
//! no-op and `mvm_into` stays allocation-free either way (both proven
//! by `scripts/check.sh`). DESIGN.md §8 documents the model and the
//! event schema.

// Unsafe is forbidden outright except under the test-only `alloc-count`
// feature, whose counting global allocator must implement the unsafe
// `GlobalAlloc` trait. Even then it is denied by default and exempted
// for that single audited impl (see `alloc_count`).
#![cfg_attr(not(feature = "alloc-count"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-count", deny(unsafe_code))]
#![warn(missing_docs)]

#[cfg(feature = "alloc-count")]
pub mod alloc_count;
pub mod analytic;
pub mod campaign;
pub mod cost;
mod engine;
mod envelope;
mod error;
pub mod grid;
pub mod hierarchy;
pub mod mapping;
pub mod remap;
mod scheme;
pub mod sim;

pub use engine::{CrossbarEngine, CrossbarProvider, DecodeStats};
pub use error::AccelError;
pub use scheme::{AccelConfig, ProtectionScheme};
// Re-exported so downstream code can parameterize worker fault
// injection without naming the chaos crate separately.
pub use chaos::ShardChaos;

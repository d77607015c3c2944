//! Parallelization-strategy sweep engine with Pareto-frontier extraction.
//!
//! The headline use-case of an analytical performance model is answering
//! *"which (TP, PP, DP, microbatch, precision) configuration is fastest —
//! or cheapest — for this model on this cluster?"* without burning GPU
//! hours to find out. This crate turns the estimator stack into exactly
//! that tool:
//!
//! 1. [`SweepSpace`] enumerates the candidate strategy space and prunes
//!    invalid points up front — head/layer divisibility, intra-node TP
//!    placement, batch divisibility, precision support, and per-device
//!    memory capacity via `optimus-memory`;
//! 2. [`SweepEngine`] evaluates every surviving [`StrategyPoint`] through
//!    [`optimus_train::TrainingEstimator`] /
//!    [`optimus_infer::InferenceEstimator`] in parallel (rayon), attaching
//!    energy and amortized-cost figures from `optimus-energy`;
//! 3. [`pareto_frontier`] extracts the minimal (latency, cost) frontier.
//!
//! Results are **deterministic**: enumeration order is a fixed total order
//! over strategies, parallel evaluation preserves that order, and the
//! frontier scan is stable — so repeated runs and different
//! `RAYON_NUM_THREADS` settings produce byte-identical reports.
//!
//! ```
//! use optimus_hw::presets;
//! use optimus_model::presets as models;
//! use optimus_sweep::{SweepEngine, SweepSpace, Workload};
//!
//! let cluster = presets::dgx_a100_hdr_cluster();
//! let report = SweepEngine::new(&cluster).sweep(
//!     &models::llama2_13b(),
//!     &Workload::training(64, 2048),
//!     &SweepSpace::power_of_two(16),
//! );
//! let fastest = report.fastest().unwrap();
//! let cheapest = report.cheapest().unwrap();
//! assert!(fastest.latency <= cheapest.latency);
//! assert!(cheapest.cost_usd <= fastest.cost_usd);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod pareto;
mod report;
mod space;

pub use engine::{EvaluatedPoint, SweepEngine, SweepReport};
pub use pareto::{dominates, frontier_indices_by, pareto_frontier, pareto_frontier_indices};
pub use report::{render_frontier, render_table};
pub use space::{PointMemory, StrategyPoint, SweepSpace, Workload};

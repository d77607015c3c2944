//! Design-space exploration over micro-architecture resource allocations.
//!
//! The paper's DSE framework (§3.6) "solves a constrained optimization
//! problem: the search space contains all possible choices of area, power,
//! and perimeter fractions for each component ... A gradient-descent search
//! algorithm is employed to find the optimal design point that minimizes
//! the execution time."
//!
//! This crate provides exactly that: a [`SearchSpace`] of allocation
//! fractions with a budget constraint, a projected finite-difference
//! [`GradientDescent`] optimizer, and [`RandomSearch`]/[`GridSearch`]
//! baselines for sanity-checking convergence. The objective is any closure
//! from an [`optimus_tech::Allocation`] to a predicted execution time in
//! seconds — typically an [`optimus_tech::UArchEngine::synthesize`] call
//! followed by a training or inference estimate.
//!
//! ```
//! use optimus_dse::{GradientDescent, SearchSpace};
//!
//! // A toy objective with its optimum at compute = 0.6, sram = 0.2.
//! let objective = |a: optimus_tech::Allocation| {
//!     (a.compute.get() - 0.6).powi(2) + (a.sram.get() - 0.2).powi(2)
//! };
//! let result = GradientDescent::default().minimize(&SearchSpace::default(), objective);
//! assert!((result.best.allocation.compute.get() - 0.6).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod optimizer;
mod space;

pub use optimizer::{DsePoint, DseResult, GradientDescent, GridSearch, RandomSearch};
pub use space::SearchSpace;

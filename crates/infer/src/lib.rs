//! End-to-end analytical performance model for LLM inference.
//!
//! Covers the paper's inference methodology: a compute-heavy **prefill**
//! (summarization) phase over the prompt, followed by an exact token-by-
//! token **decode** loop whose skinny GEMMs stream the weights and the
//! growing KV-cache from DRAM (§3.5), with tensor-parallel all-reduces per
//! layer costed by the latency-aware tree algorithm (§3.4). Reports split
//! latency by bound type (compute/memory/communication/overhead), provide
//! the per-GEMM analysis of Table 4, and the weight/KV-cache footprint of
//! Fig. 8's inset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod estimator;
mod prepared;
mod report;

pub use config::InferenceConfig;
pub use estimator::InferenceEstimator;
pub use prepared::{LeasedPrices, PreparedInferenceEstimator};
pub use report::{GemmAnalysis, InferenceBreakdown, InferenceReport};

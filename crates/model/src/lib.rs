//! LLM workload descriptions for the Optimus performance-modeling suite.
//!
//! A decoder-only transformer is described by a [`ModelConfig`] (layers,
//! hidden size, attention organization, MLP style, vocabulary). From it the
//! [`graph`] module expands the **per-device operator lists** — typed GEMM
//! and streaming kernels, already sharded for Megatron-style tensor
//! parallelism — for training forward/backward passes, prefill, and
//! KV-cached auto-regressive decode. These operator lists are the task
//! graphs of the paper's Fig. 1, and every estimator in the suite costs
//! them with the hierarchical roofline model through [`Op::cost`], and
//! the prepared estimators keep those costs in [`Memo`] tables.
//!
//! ```
//! use optimus_hw::Precision;
//! use optimus_model::{graph, presets};
//!
//! let llama = presets::llama2_13b();
//! let params = graph::GraphParams::decode(1, 200, 1, Precision::Fp16);
//! let ops = graph::layer_forward_ops(&llama, &params);
//! // A decode step is a handful of skinny GEMMs plus streaming kernels.
//! assert!(ops.iter().filter(|op| op.as_gemm().is_some()).count() >= 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod flash;
pub mod graph;
mod memo;
mod ops;
pub mod presets;

pub use config::{AttentionKind, MlpKind, ModelConfig, ModelConfigBuilder, NormKind};
pub use flash::FlashAttentionOp;
pub use graph::GraphParams;
pub use memo::Memo;
pub use ops::{total_flops, Op, OpKind, OpRole};

//! Typed operators of the transformer task graph.

use crate::FlashAttentionOp;
use optimus_hw::{HwError, Precision};
use optimus_roofline::{BatchedGemm, EltwiseOp, GemmShape, KernelCost, RooflineModel};
use optimus_units::FlopCount;
use serde::{Deserialize, Serialize};

/// The role an operator plays inside a transformer layer (or in the
/// embedding/head stages around the stack).
///
/// Roles — not shapes — are what the paper's per-GEMM analyses key on:
/// Table 4 reports times and bound types for `QkvProjection`, `AttnScores`,
/// `AttnOverValues`, `OutputProjection`, `MlpUp`, and `MlpDown`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum OpRole {
    /// Pre-attention normalization.
    InputNorm,
    /// Merged Q/K/V projection (`X·W_{K/Q/V}`).
    QkvProjection,
    /// Rotary position embedding applied to Q and K.
    Rope,
    /// Per-head attention scores (`Q·Kᵀ`).
    AttnScores,
    /// Fused FlashAttention kernel (replaces scores/softmax/dropout/
    /// context when the flash implementation is selected).
    FlashAttention,
    /// Softmax over attention scores.
    Softmax,
    /// Dropout on attention probabilities.
    AttnDropout,
    /// Per-head context gather (`softmax(R)·V`).
    AttnOverValues,
    /// Attention output projection (`Z·W`).
    OutputProjection,
    /// Dropout after the attention block.
    PostAttnDropout,
    /// First residual addition.
    ResidualAdd1,
    /// Pre-MLP normalization.
    PostAttnNorm,
    /// MLP up projection (`O·W_MLP1`).
    MlpUp,
    /// MLP gate projection (SwiGLU models only).
    MlpGate,
    /// MLP non-linearity (GELU or SiLU-gate).
    MlpActivation,
    /// MLP down projection (`O1·W_MLP2`).
    MlpDown,
    /// Dropout after the MLP block.
    MlpDropout,
    /// Second residual addition.
    ResidualAdd2,
    /// Token (+ position) embedding lookup.
    Embedding,
    /// Final normalization after the stack.
    FinalNorm,
    /// Language-model head projection onto the vocabulary.
    LmHead,
    /// Output softmax / cross-entropy.
    OutputSoftmax,
}

impl OpRole {
    /// `true` for the attention-core roles recomputed under *selective*
    /// recomputation (Eq. 2's softmax/dropout region).
    #[must_use]
    pub fn is_selective_recompute(self) -> bool {
        matches!(
            self,
            Self::AttnScores | Self::Softmax | Self::AttnDropout | Self::AttnOverValues
        )
    }
}

impl core::fmt::Display for OpRole {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::InputNorm => "input-norm",
            Self::QkvProjection => "qkv-projection",
            Self::Rope => "rope",
            Self::AttnScores => "attn-scores",
            Self::FlashAttention => "flash-attention",
            Self::Softmax => "softmax",
            Self::AttnDropout => "attn-dropout",
            Self::AttnOverValues => "attn-over-values",
            Self::OutputProjection => "output-projection",
            Self::PostAttnDropout => "post-attn-dropout",
            Self::ResidualAdd1 => "residual-add-1",
            Self::PostAttnNorm => "post-attn-norm",
            Self::MlpUp => "mlp-up",
            Self::MlpGate => "mlp-gate",
            Self::MlpActivation => "mlp-activation",
            Self::MlpDown => "mlp-down",
            Self::MlpDropout => "mlp-dropout",
            Self::ResidualAdd2 => "residual-add-2",
            Self::Embedding => "embedding",
            Self::FinalNorm => "final-norm",
            Self::LmHead => "lm-head",
            Self::OutputSoftmax => "output-softmax",
        };
        f.write_str(s)
    }
}

/// The computational payload of an operator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OpKind {
    /// A (batched) matrix multiplication.
    Gemm(BatchedGemm),
    /// A streaming normalization / element-wise kernel.
    Eltwise(EltwiseOp),
    /// A fused FlashAttention kernel.
    Flash(FlashAttentionOp),
}

/// One operator of the per-device task graph: a role plus its payload,
/// already sharded for tensor parallelism by the graph builders.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Op {
    /// What this operator is.
    pub role: OpRole,
    /// Its computational payload.
    pub kind: OpKind,
}

impl Op {
    /// Creates a GEMM operator.
    #[must_use]
    pub fn gemm(role: OpRole, batch: usize, m: usize, n: usize, k: usize) -> Self {
        Self {
            role,
            kind: OpKind::Gemm(BatchedGemm::new(batch, GemmShape::new(m, n, k))),
        }
    }

    /// Creates a streaming operator.
    #[must_use]
    pub fn eltwise(role: OpRole, op: EltwiseOp) -> Self {
        Self {
            role,
            kind: OpKind::Eltwise(op),
        }
    }

    /// Creates a fused FlashAttention operator.
    #[must_use]
    pub fn flash(op: FlashAttentionOp) -> Self {
        Self {
            role: OpRole::FlashAttention,
            kind: OpKind::Flash(op),
        }
    }

    /// Floating-point work of the operator.
    #[must_use]
    pub fn flops(&self) -> FlopCount {
        match self.kind {
            OpKind::Gemm(g) => g.flops(),
            OpKind::Eltwise(e) => e.flops(),
            OpKind::Flash(f) => f.flops(),
        }
    }

    /// The operator's kernel cost on the hierarchical roofline: a GEMM at
    /// the GEMM `precision`, a streaming op at the element width it
    /// carries, and the fused flash kernel from its FLOPs and per-level
    /// traffic. Every estimator prices its ops through this one call.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::UnsupportedPrecision`] if the device has no peak
    /// throughput entry for `precision` (streaming ops never fail).
    pub fn cost(
        &self,
        roofline: &RooflineModel<'_>,
        precision: Precision,
    ) -> Result<KernelCost, HwError> {
        match self.kind {
            OpKind::Gemm(g) => roofline.batched_gemm(g, precision),
            OpKind::Eltwise(e) => Ok(roofline.eltwise(e)),
            OpKind::Flash(fa) => roofline.custom_kernel(fa.flops(), &fa.traffic(), precision),
        }
    }

    /// The GEMM payload, if this is a GEMM.
    #[must_use]
    pub fn as_gemm(&self) -> Option<BatchedGemm> {
        match self.kind {
            OpKind::Gemm(g) => Some(g),
            OpKind::Eltwise(_) | OpKind::Flash(_) => None,
        }
    }
}

impl core::fmt::Display for Op {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.kind {
            OpKind::Gemm(g) => write!(f, "{} [{}]", self.role, g),
            OpKind::Eltwise(e) => write!(f, "{} [{e}]", self.role),
            OpKind::Flash(op) => write!(f, "{op}"),
        }
    }
}

/// Total floating-point work of an operator list.
#[must_use]
pub fn total_flops(ops: &[Op]) -> FlopCount {
    ops.iter().map(Op::flops).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_roofline::EltwiseKind;

    #[test]
    fn gemm_op_flops() {
        let op = Op::gemm(OpRole::QkvProjection, 1, 128, 384, 128);
        assert!((op.flops().get() - 2.0 * 128.0 * 384.0 * 128.0).abs() < 1.0);
        assert!(op.as_gemm().is_some());
    }

    #[test]
    fn selective_recompute_roles() {
        assert!(OpRole::Softmax.is_selective_recompute());
        assert!(OpRole::AttnScores.is_selective_recompute());
        assert!(!OpRole::MlpUp.is_selective_recompute());
    }

    #[test]
    fn eltwise_op_has_no_gemm() {
        let op = Op::eltwise(
            OpRole::Softmax,
            EltwiseOp::new(EltwiseKind::Softmax, 1000.0, 2.0),
        );
        assert!(op.as_gemm().is_none());
    }
}

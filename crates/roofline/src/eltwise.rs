//! Cost model for normalization and element-wise kernels.
//!
//! The paper's §1.2 taxonomy splits transformer kernels into tensor
//! contractions, normalizations (softmax, layer-norm), and element-wise
//! operations (non-linearities, biases, dropout). The latter two groups are
//! memory-bound streaming kernels: their time is their DRAM traffic over the
//! (derated) DRAM bandwidth. Kernel fusion reduces that traffic by keeping
//! intermediate values on chip, which is modeled by fusing ops into one
//! [`EltwiseOp`] with a single read and write of the stream.

use crate::{KernelCost, RooflineModel};
use optimus_hw::MemoryLevelKind;
use optimus_units::{Bytes, FlopCount, Time};
use serde::{Deserialize, Serialize};

/// The kind of a streaming (non-GEMM) kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum EltwiseKind {
    /// Row-wise softmax (attention probabilities).
    Softmax,
    /// LayerNorm (GPT-style).
    LayerNorm,
    /// RMSNorm (Llama-style).
    RmsNorm,
    /// Dropout (reads stream, writes stream + 1-byte mask).
    Dropout,
    /// GELU non-linearity.
    Gelu,
    /// SiLU non-linearity (with gating multiply, Llama MLP).
    Silu,
    /// Residual addition.
    Add,
    /// Rotary position embedding application.
    Rope,
    /// Generic 1-read/1-write element-wise op.
    Map,
}

impl EltwiseKind {
    /// Average number of stream traversals (reads + writes) per element,
    /// in units of the element width.
    ///
    /// Softmax needs a max/sum pass and a scale pass (2 reads + 1 write);
    /// norms similarly; dropout writes an extra 1-byte mask, accounted as a
    /// fractional traversal by the caller via [`EltwiseOp::extra_bytes`].
    #[must_use]
    pub fn stream_passes(self) -> f64 {
        match self {
            Self::Softmax | Self::LayerNorm | Self::RmsNorm => 3.0,
            Self::Dropout => 2.0,
            Self::Gelu | Self::Map | Self::Rope => 2.0,
            Self::Silu => 3.0, // gate stream + up stream read, one write
            Self::Add => 3.0,  // two reads, one write
        }
    }

    /// Rough arithmetic cost per element (FLOPs); only matters for
    /// completeness of FLOP accounting, never the binding term.
    #[must_use]
    pub fn flops_per_element(self) -> f64 {
        match self {
            Self::Softmax => 5.0,
            Self::LayerNorm => 8.0,
            Self::RmsNorm => 6.0,
            Self::Dropout => 2.0,
            Self::Gelu => 10.0,
            Self::Silu => 6.0,
            Self::Add => 1.0,
            Self::Rope => 6.0,
            Self::Map => 1.0,
        }
    }
}

impl core::fmt::Display for EltwiseKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::Softmax => "softmax",
            Self::LayerNorm => "layernorm",
            Self::RmsNorm => "rmsnorm",
            Self::Dropout => "dropout",
            Self::Gelu => "gelu",
            Self::Silu => "silu",
            Self::Add => "add",
            Self::Rope => "rope",
            Self::Map => "map",
        };
        f.write_str(s)
    }
}

/// A streaming kernel over `elements` values of `bytes_per_elem` width.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EltwiseOp {
    /// Kernel kind.
    pub kind: EltwiseKind,
    /// Number of elements in the stream.
    pub elements: f64,
    /// Element width in bytes.
    pub bytes_per_elem: f64,
    /// Additional traffic not proportional to the element width (e.g. the
    /// 1-byte dropout mask written per element).
    pub extra_bytes: f64,
}

impl EltwiseOp {
    /// Creates a streaming kernel.
    ///
    /// # Panics
    ///
    /// Panics if `elements` or `bytes_per_elem` is not positive.
    #[must_use]
    pub fn new(kind: EltwiseKind, elements: f64, bytes_per_elem: f64) -> Self {
        assert!(elements > 0.0, "element count must be positive");
        assert!(bytes_per_elem > 0.0, "element width must be positive");
        let extra_bytes = match kind {
            // Dropout stores a 1-byte mask per element.
            EltwiseKind::Dropout => elements,
            _ => 0.0,
        };
        Self {
            kind,
            elements,
            bytes_per_elem,
            extra_bytes,
        }
    }

    /// Total DRAM traffic of the kernel.
    #[must_use]
    pub fn traffic(&self) -> Bytes {
        Bytes::new(
            self.elements * self.bytes_per_elem * self.kind.stream_passes() + self.extra_bytes,
        )
    }

    /// Arithmetic work (never binding, recorded for completeness).
    #[must_use]
    pub fn flops(&self) -> FlopCount {
        FlopCount::new(self.elements * self.kind.flops_per_element())
    }
}

impl core::fmt::Display for EltwiseOp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} x{:.0}", self.kind, self.elements)
    }
}

impl RooflineModel<'_> {
    /// Costs a streaming kernel: DRAM traffic over derated DRAM bandwidth,
    /// plus the calibrated kernel overhead. Always memory- (or overhead-)
    /// bound by construction.
    #[must_use]
    pub fn eltwise(&self, op: EltwiseOp) -> KernelCost {
        let calib = &self.device().calibration;
        let traffic = op.traffic();
        let util = calib.dram_utilization.factor(traffic);
        let bw = self.device().dram.bandwidth * util.get();
        let time = if bw.get() > 0.0 {
            traffic / bw
        } else {
            Time::ZERO
        };
        KernelCost {
            flops: op.flops(),
            compute_time: Time::ZERO,
            level_times: vec![(MemoryLevelKind::Dram, traffic, time)],
            overhead: calib.kernel_overhead,
        }
    }

    /// Costs a chain of element-wise kernels fused into one pass: the
    /// stream is read once and written once regardless of the chain length
    /// (the kernel-fusion optimization of §1.2).
    #[must_use]
    pub fn fused_eltwise(&self, ops: &[EltwiseOp]) -> KernelCost {
        let Some(first) = ops.first() else {
            return KernelCost::free();
        };
        let stream = Bytes::new(first.elements * first.bytes_per_elem * 2.0);
        let extra = Bytes::new(ops.iter().map(|o| o.extra_bytes).sum::<f64>());
        let traffic = stream + extra;
        let calib = &self.device().calibration;
        let util = calib.dram_utilization.factor(traffic);
        let bw = self.device().dram.bandwidth * util.get();
        let time = if bw.get() > 0.0 {
            traffic / bw
        } else {
            Time::ZERO
        };
        KernelCost {
            flops: FlopCount::new(ops.iter().map(|o| o.flops().get()).sum()),
            compute_time: Time::ZERO,
            level_times: vec![(MemoryLevelKind::Dram, traffic, time)],
            overhead: calib.kernel_overhead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_hw::presets;

    #[test]
    fn softmax_is_memory_bound() {
        let a100 = presets::a100_sxm_80gb();
        let model = RooflineModel::new(&a100);
        // Attention softmax over (heads · s · s) elements.
        let op = EltwiseOp::new(EltwiseKind::Softmax, 40.0 * 2048.0 * 2048.0, 2.0);
        let cost = model.eltwise(op);
        assert!(cost.bound().is_memory());
        // 3 passes over 320 MiB at ~1.6 TB/s → ~0.6 ms.
        let ms = cost.total().millis();
        assert!((0.3..1.5).contains(&ms), "time {ms:.3} ms");
    }

    #[test]
    fn dropout_mask_adds_traffic() {
        let plain = EltwiseOp::new(EltwiseKind::Map, 1e6, 2.0);
        let dropout = EltwiseOp::new(EltwiseKind::Dropout, 1e6, 2.0);
        assert!(
            (dropout.traffic().bytes() - plain.traffic().bytes() - 1e6).abs() < 1.0,
            "mask costs one extra byte per element"
        );
    }

    #[test]
    fn fusion_reduces_traffic() {
        let a100 = presets::a100_sxm_80gb();
        let model = RooflineModel::new(&a100);
        let ops = [
            EltwiseOp::new(EltwiseKind::Gelu, 1e8, 2.0),
            EltwiseOp::new(EltwiseKind::Add, 1e8, 2.0),
            EltwiseOp::new(EltwiseKind::Map, 1e8, 2.0),
        ];
        let separate: f64 = ops.iter().map(|&o| model.eltwise(o).total().secs()).sum();
        let fused = model.fused_eltwise(&ops).total().secs();
        assert!(
            fused < separate * 0.5,
            "fused {fused} vs separate {separate}"
        );
    }

    #[test]
    fn tiny_op_is_dominated_by_fixed_costs() {
        let a100 = presets::a100_sxm_80gb();
        let model = RooflineModel::new(&a100);
        let cost = model.eltwise(EltwiseOp::new(EltwiseKind::Add, 128.0, 2.0));
        // A 768-byte kernel never binds on arithmetic: it is limited by
        // launch overhead and the deeply derated small-transfer bandwidth.
        assert!(!cost.bound().is_compute());
        assert!(cost.total() < optimus_units::Time::from_micros(50.0));
    }
}

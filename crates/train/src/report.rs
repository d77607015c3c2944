//! Training-time reports.

use crate::ResilienceReport;
use optimus_memory::TrainingMemoryReport;
use optimus_units::{FlopCount, Time};
use serde::{Deserialize, Serialize};

/// Where the time of one training batch goes (the stacks of Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TrainingBreakdown {
    /// Device kernel time: forward + backward + recomputation.
    pub compute: Time,
    /// Tensor/sequence-parallel collectives.
    pub tp_comm: Time,
    /// Pipeline point-to-point transfers.
    pub pp_comm: Time,
    /// Data-parallel gradient all-reduce.
    pub dp_comm: Time,
    /// Pipeline bubble (idle) time.
    pub bubble: Time,
    /// Optimizer (weight update) time.
    pub weight_update: Time,
}

impl TrainingBreakdown {
    /// All communication categories combined.
    #[must_use]
    pub fn communication(&self) -> Time {
        self.tp_comm + self.pp_comm + self.dp_comm
    }

    /// The paper's "Other" category: weight update + pipeline bubble.
    #[must_use]
    pub fn other(&self) -> Time {
        self.bubble + self.weight_update
    }

    /// Sum of every category (the batch time).
    #[must_use]
    pub fn total(&self) -> Time {
        self.compute + self.communication() + self.other()
    }
}

/// Bound-type split of the GEMM work in one transformer layer (forward +
/// backward, one microbatch) — the bars of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct GemmBoundSplit {
    /// Time of GEMMs classified compute-bound.
    pub compute_bound: Time,
    /// Time of GEMMs classified memory-bound (any level).
    pub memory_bound: Time,
}

impl GemmBoundSplit {
    /// Total GEMM time.
    #[must_use]
    pub fn total(&self) -> Time {
        self.compute_bound + self.memory_bound
    }
}

/// The complete output of a training estimate.
///
/// Serialization note: the `resilience` section is **omitted** (not
/// `null`) when absent, so reports estimated without a
/// [`crate::CheckpointSpec`] — or under the degenerate
/// [`crate::CheckpointSpec::none`] — stay byte-identical to reports from
/// before resilience modeling existed (a property the resilience
/// proptests pin).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Predicted time per global batch.
    pub time_per_batch: Time,
    /// Category breakdown summing to `time_per_batch`.
    pub breakdown: TrainingBreakdown,
    /// Per-device memory footprint.
    pub memory: TrainingMemoryReport,
    /// Microbatches per pipeline.
    pub microbatches: usize,
    /// Useful model FLOPs per batch across the system (excludes
    /// recomputation, the Megatron convention for MFU).
    pub model_flops: FlopCount,
    /// Model FLOPs utilization: useful FLOPs over peak FLOPs × time.
    pub mfu: f64,
    /// Bound-type split of one layer's GEMMs (forward+backward of one
    /// microbatch).
    pub layer_gemm_split: GemmBoundSplit,
    /// Arithmetic work actually executed per device per batch (includes
    /// recomputation) — the basis of the dynamic-compute energy term.
    pub device_flops: FlopCount,
    /// DRAM traffic per device per batch (kernels + optimizer update).
    pub dram_traffic: optimus_units::Bytes,
    /// Bytes injected into the network fabrics per device per batch
    /// (TP/SP + PP + DP wire traffic).
    pub network_traffic: optimus_units::Bytes,
    /// Failure-expected inflation of this estimate under a
    /// [`crate::CheckpointSpec`]; absent when no failure process is
    /// modeled.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub resilience: Option<ResilienceReport>,
}

impl core::fmt::Display for TrainingReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "time/batch {} (MFU {:.1}%)",
            self.time_per_batch,
            self.mfu * 100.0
        )?;
        writeln!(
            f,
            "  compute {}  tp {}  pp {}  dp {}  bubble {}  update {}",
            self.breakdown.compute,
            self.breakdown.tp_comm,
            self.breakdown.pp_comm,
            self.breakdown.dp_comm,
            self.breakdown.bubble,
            self.breakdown.weight_update
        )?;
        write!(f, "  memory: {}", self.memory)?;
        if let Some(resilience) = &self.resilience {
            write!(f, "\n  resilience: {resilience}")?;
        }
        Ok(())
    }
}

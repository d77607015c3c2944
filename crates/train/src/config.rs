//! Training-job description.

use optimus_hw::Precision;
use optimus_memory::RecomputeMode;
use optimus_model::ModelConfig;
use optimus_parallel::{Parallelism, PipelineSchedule};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Everything that defines one distributed training job: the model, the
/// global batch shape, numeric precision, the parallelization, the pipeline
/// schedule, and the activation-recomputation strategy.
///
/// The model is held behind an [`Arc`] so that sweeps evaluating hundreds
/// of configurations against one architecture share a single allocation
/// instead of deep-cloning the [`ModelConfig`] per point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// The model being trained.
    pub model: Arc<ModelConfig>,
    /// Global batch size in samples.
    pub batch: usize,
    /// Sequence length.
    pub seq: usize,
    /// Training precision (weights and activations).
    pub precision: Precision,
    /// DP/TP/PP/SP configuration.
    pub parallelism: Parallelism,
    /// Pipeline schedule.
    pub schedule: PipelineSchedule,
    /// Activation recomputation.
    pub recompute: RecomputeMode,
    /// Use the fused FlashAttention kernel (IO-aware attention, §1.1)
    /// instead of materialized attention ops.
    pub flash: bool,
}

impl TrainingConfig {
    /// Creates a config with 1F1B scheduling, no recomputation and FP16.
    /// Accepts an owned [`ModelConfig`] or an existing [`Arc`] (shared
    /// across sweep points).
    #[must_use]
    pub fn new(
        model: impl Into<Arc<ModelConfig>>,
        batch: usize,
        seq: usize,
        parallelism: Parallelism,
    ) -> Self {
        Self {
            model: model.into(),
            batch,
            seq,
            precision: Precision::Fp16,
            parallelism,
            schedule: PipelineSchedule::OneFOneB,
            recompute: RecomputeMode::None,
            flash: false,
        }
    }

    /// Sets the recomputation strategy.
    #[must_use]
    pub fn with_recompute(mut self, recompute: RecomputeMode) -> Self {
        self.recompute = recompute;
        self
    }

    /// Sets the pipeline schedule.
    #[must_use]
    pub fn with_schedule(mut self, schedule: PipelineSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the numeric precision.
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Selects the FlashAttention implementation.
    #[must_use]
    pub fn with_flash(mut self, flash: bool) -> Self {
        self.flash = flash;
        self
    }
}

impl core::fmt::Display for TrainingConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} batch={} seq={} {} [{}] {} recompute={}",
            self.model.name,
            self.batch,
            self.seq,
            self.parallelism,
            self.schedule,
            self.precision,
            self.recompute
        )
    }
}

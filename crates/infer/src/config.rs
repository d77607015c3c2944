//! Inference-job description.

use optimus_hw::Precision;
use optimus_model::ModelConfig;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One LLM serving request shape: a prompt is *summarized* (prefill) and
/// `generate` tokens are produced auto-regressively with a KV-cache (§3.5).
///
/// The model is held behind an [`Arc`] so that sweeps evaluating many TP ×
/// precision configurations of one architecture share a single allocation
/// instead of deep-cloning the [`ModelConfig`] per point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceConfig {
    /// The served model.
    pub model: Arc<ModelConfig>,
    /// Serving batch size.
    pub batch: usize,
    /// Prompt (summarization) length in tokens.
    pub prefill: usize,
    /// Number of generated tokens.
    pub generate: usize,
    /// Tensor-parallel degree (the only parallelism used for inference,
    /// §1.3).
    pub tp: usize,
    /// Serving precision.
    pub precision: Precision,
}

impl InferenceConfig {
    /// Creates a config at FP16. Accepts an owned [`ModelConfig`] or an
    /// existing [`Arc`] (shared across sweep points).
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    #[must_use]
    pub fn new(
        model: impl Into<Arc<ModelConfig>>,
        batch: usize,
        prefill: usize,
        generate: usize,
        tp: usize,
    ) -> Self {
        assert!(
            batch > 0 && prefill > 0 && generate > 0 && tp > 0,
            "inference shape must be positive"
        );
        Self {
            model: model.into(),
            batch,
            prefill,
            generate,
            tp,
            precision: Precision::Fp16,
        }
    }

    /// Sets the serving precision.
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// The paper's Table 2 shape: B = 1, 200-token prompt, 200 generated.
    #[must_use]
    pub fn nvidia_llama_benchmark(model: impl Into<Arc<ModelConfig>>, tp: usize) -> Self {
        Self::new(model, 1, 200, 200, tp)
    }
}

impl core::fmt::Display for InferenceConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} B={} prefill={} generate={} TP={} {}",
            self.model.name, self.batch, self.prefill, self.generate, self.tp, self.precision
        )
    }
}

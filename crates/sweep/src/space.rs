//! The strategy space: candidate axes, enumeration, and validity pruning.

use optimus_hw::{ClusterSpec, Precision};
use optimus_memory::{
    inference_memory, training_memory, InferenceMemoryReport, RecomputeMode, TrainingMemoryReport,
    TrainingMemorySpec,
};
use optimus_model::ModelConfig;
use optimus_parallel::{Parallelism, PipelineSchedule};
use optimus_units::Bytes;
use serde::{Deserialize, Serialize};

/// The per-device memory footprint the pruning pass derived for a
/// surviving strategy point. Enumeration already has to compute this to
/// decide feasibility; returning it lets the evaluation phase reuse the
/// breakdown instead of re-deriving it per point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PointMemory {
    /// A training footprint (weights/grads/optimizer/activations).
    Training(TrainingMemoryReport),
    /// An inference footprint (weights/KV-cache).
    Inference(InferenceMemoryReport),
}

impl PointMemory {
    /// Total per-device bytes.
    #[must_use]
    pub fn total(&self) -> Bytes {
        match self {
            Self::Training(m) => m.total(),
            Self::Inference(m) => m.total(),
        }
    }
}

/// One candidate distributed-execution strategy: a full parallelization
/// plus the numeric precision it runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StrategyPoint {
    /// DP/TP/PP/SP/microbatch configuration.
    pub parallelism: Parallelism,
    /// Compute precision for weights and activations.
    pub precision: Precision,
}

impl StrategyPoint {
    /// Total devices the strategy occupies.
    #[must_use]
    pub fn gpus(&self) -> usize {
        self.parallelism.total_gpus()
    }

    /// A stable total order over points, used to keep enumeration and
    /// reporting deterministic regardless of evaluation order.
    #[must_use]
    pub fn sort_key(&self) -> (usize, usize, usize, usize, bool, u8) {
        let p = self.parallelism;
        (
            p.tp,
            p.pp,
            p.dp,
            p.microbatch,
            p.sp,
            precision_rank(self.precision),
        )
    }
}

/// Stable rank of a precision for ordering (widest first, like
/// [`Precision::all`]).
fn precision_rank(p: Precision) -> u8 {
    Precision::all()
        .iter()
        .position(|q| *q == p)
        .map_or(u8::MAX, |i| i as u8)
}

impl core::fmt::Display for StrategyPoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} ubatch={} {}",
            self.parallelism, self.parallelism.microbatch, self.precision
        )
    }
}

/// The workload a sweep optimizes for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// One training batch.
    Training {
        /// Global batch size (samples).
        batch: usize,
        /// Sequence length.
        seq: usize,
        /// Activation recomputation strategy.
        recompute: RecomputeMode,
        /// Pipeline schedule.
        schedule: PipelineSchedule,
    },
    /// One serving request batch (prefill + auto-regressive decode).
    Inference {
        /// Serving batch size.
        batch: usize,
        /// Prompt length in tokens.
        prefill: usize,
        /// Generated tokens.
        generate: usize,
    },
}

impl Workload {
    /// A training workload with the paper's defaults (1F1B, selective
    /// recomputation).
    #[must_use]
    pub fn training(batch: usize, seq: usize) -> Self {
        Self::Training {
            batch,
            seq,
            recompute: RecomputeMode::Selective,
            schedule: PipelineSchedule::OneFOneB,
        }
    }

    /// An inference workload.
    #[must_use]
    pub fn inference(batch: usize, prefill: usize, generate: usize) -> Self {
        Self::Inference {
            batch,
            prefill,
            generate,
        }
    }

    /// Work units completed per execution: samples for training, generated
    /// tokens for inference (the denominators of throughput and
    /// cost-per-unit).
    #[must_use]
    pub fn work_units(&self) -> f64 {
        match self {
            Self::Training { batch, .. } => *batch as f64,
            Self::Inference {
                batch, generate, ..
            } => (*batch * *generate) as f64,
        }
    }
}

/// Microbatch sizes a training sweep tries.
const MICROBATCHES: [usize; 4] = [1, 2, 4, 8];

/// The strategy space of a sweep: a GPU budget and the precisions to try.
/// The TP, PP and DP axes are the powers of two up to the budget, and
/// every combination is filtered through the validity rules of
/// [`SweepSpace::enumerate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpace {
    /// Largest total device count a strategy may occupy.
    pub max_gpus: usize,
    /// Precisions to try (pruned to what the device supports).
    pub precisions: Vec<Precision>,
}

impl SweepSpace {
    /// Power-of-two axes up to `max_gpus`, FP16/BF16, with SP variants —
    /// the space the paper's Megatron-style configurations live in.
    #[must_use]
    pub fn power_of_two(max_gpus: usize) -> Self {
        assert!(max_gpus > 0, "sweep needs at least one device");
        Self {
            max_gpus,
            precisions: vec![Precision::Fp16, Precision::Bf16],
        }
    }

    /// Overrides the precision axis.
    #[must_use]
    pub fn with_precisions(mut self, precisions: Vec<Precision>) -> Self {
        self.precisions = precisions;
        self
    }

    /// Enumerates every **valid** strategy point, in a deterministic order
    /// that does not depend on thread count or hash state.
    ///
    /// A point survives pruning when:
    ///
    /// * the TP group fits in one node and divides both the query-head and
    ///   KV-head counts (a head cannot be split across TP ranks);
    /// * PP divides the layer count;
    /// * `dp · microbatch` divides the training batch (inference strategies
    ///   are TP-only: `dp = pp = microbatch = 1`);
    /// * the device supports the precision;
    /// * the total device count is within `max_gpus`;
    /// * the per-device memory footprint (weights, optimizer state,
    ///   activations / KV-cache) fits the device DRAM capacity.
    #[must_use]
    pub fn enumerate(
        &self,
        model: &ModelConfig,
        cluster: &ClusterSpec,
        workload: &Workload,
    ) -> Vec<StrategyPoint> {
        self.enumerate_with_memory(model, cluster, workload)
            .into_iter()
            .map(|(point, _)| point)
            .collect()
    }

    /// Like [`Self::enumerate`], but returns each surviving point together
    /// with the [`PointMemory`] footprint the pruning pass computed for it,
    /// so evaluation never re-derives memory. The point order and survivor
    /// set are identical to [`Self::enumerate`].
    #[must_use]
    pub fn enumerate_with_memory(
        &self,
        model: &ModelConfig,
        cluster: &ClusterSpec,
        workload: &Workload,
    ) -> Vec<(StrategyPoint, PointMemory)> {
        let device = cluster.accelerator();
        let gpus_per_node = cluster.node.gpus_per_node;

        let powers = || {
            (0..usize::BITS)
                .map(|e| 1usize << e)
                .take_while(|&v| v <= self.max_gpus)
        };
        let tp_axis: Vec<usize> = powers()
            .filter(|&tp| {
                tp <= gpus_per_node
                    && model.heads.is_multiple_of(tp)
                    && model.kv_heads().is_multiple_of(tp)
            })
            .collect();
        let pp_axis: Vec<usize> = powers()
            .filter(|&pp| model.layers.is_multiple_of(pp))
            .collect();
        let dp_axis: Vec<usize> = powers().collect();
        let precisions: Vec<Precision> = {
            let mut ps: Vec<Precision> = self
                .precisions
                .iter()
                .copied()
                .filter(|&p| device.peak(p).is_ok())
                .collect();
            ps.sort_by_key(|&p| precision_rank(p));
            ps.dedup();
            ps
        };

        let mut points = Vec::new();
        match workload {
            Workload::Training {
                batch,
                seq,
                recompute,
                schedule,
            } => {
                for &tp in &tp_axis {
                    for &pp in &pp_axis {
                        for &dp in &dp_axis {
                            // Budgets near `usize::MAX` reach DP degrees whose
                            // products overflow; none of those fits.
                            if dp.checked_mul(tp * pp).is_none_or(|n| n > self.max_gpus) {
                                continue;
                            }
                            for mb in MICROBATCHES {
                                if !dp.checked_mul(mb).is_some_and(|n| batch.is_multiple_of(n)) {
                                    continue;
                                }
                                for sp in self.sp_variants(tp) {
                                    let parallelism = Parallelism::new(dp, tp, pp)
                                        .with_sp(sp)
                                        .with_microbatch(mb);
                                    for &precision in &precisions {
                                        let spec = TrainingMemorySpec {
                                            batch: *batch,
                                            seq: *seq,
                                            parallelism,
                                            schedule: *schedule,
                                            precision,
                                            recompute: *recompute,
                                        };
                                        if let Ok(m) = training_memory(model, &spec) {
                                            if m.fits(device.dram.capacity) {
                                                points.push((
                                                    StrategyPoint {
                                                        parallelism,
                                                        precision,
                                                    },
                                                    PointMemory::Training(m),
                                                ));
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Workload::Inference {
                batch,
                prefill,
                generate,
            } => {
                let context = prefill + generate;
                for &tp in &tp_axis {
                    let parallelism = Parallelism::tensor_parallel(tp);
                    for &precision in &precisions {
                        let memory = inference_memory(model, *batch, context, tp, precision);
                        if memory.fits(device.dram.capacity) {
                            points.push((
                                StrategyPoint {
                                    parallelism,
                                    precision,
                                },
                                PointMemory::Inference(memory),
                            ));
                        }
                    }
                }
            }
        }
        points.sort_by_key(|(point, _)| point.sort_key());
        points.dedup_by(|a, b| a.0 == b.0);
        points
    }

    /// SP variants to try for a TP degree: plain TP always; the
    /// sequence-parallel variant only where SP differs (TP > 1).
    fn sp_variants(&self, tp: usize) -> impl Iterator<Item = bool> {
        core::iter::once(false).chain((tp > 1).then_some(true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_hw::presets;
    use optimus_model::presets as models;

    /// A budget of `usize::MAX` enumerates exactly what a 4,096-GPU one
    /// does: the widest llama2-13b strategy at batch 64 is DP 64 × TP 8 ×
    /// PP 8. The axes used to shift a power of two past the word.
    #[test]
    fn an_unbounded_budget_enumerates_what_fits() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let workload = Workload::training(64, 2048);
        let enumerate = |max_gpus| {
            SweepSpace::power_of_two(max_gpus).enumerate(&models::llama2_13b(), &cluster, &workload)
        };
        assert_eq!(enumerate(usize::MAX), enumerate(4096));
    }

    #[test]
    fn tp_respects_head_divisibility() {
        // GPT-22B has 64 heads; Llama2-70B has 64 query heads but only
        // 8 KV heads, so TP is capped by both.
        let space = SweepSpace::power_of_two(64);
        let cluster = presets::dgx_a100_hdr_cluster();
        let points = space.enumerate(
            &models::llama2_70b(),
            &cluster,
            &Workload::inference(1, 200, 200),
        );
        assert!(points.iter().all(|p| models::llama2_70b()
            .kv_heads()
            .is_multiple_of(p.parallelism.tp)));
    }

    #[test]
    fn pp_must_divide_layers() {
        let space = SweepSpace::power_of_two(64);
        let cluster = presets::dgx_a100_hdr_cluster();
        // Llama2-13B has 40 layers: pp ∈ {1, 2, 4, 8} from the
        // power-of-two axis (16 does not divide 40).
        let points = space.enumerate(
            &models::llama2_13b(),
            &cluster,
            &Workload::training(64, 2048),
        );
        assert!(points.iter().all(|p| 40 % p.parallelism.pp == 0));
        assert!(points.iter().any(|p| p.parallelism.pp == 8));
        assert!(!points.iter().any(|p| p.parallelism.pp == 16));
    }

    #[test]
    fn memory_overflow_is_pruned() {
        // GPT-175B on a single device can never fit: every surviving
        // point must use many GPUs.
        let space = SweepSpace::power_of_two(64);
        let cluster = presets::dgx_a100_hdr_cluster();
        let points = space.enumerate(&models::gpt_175b(), &cluster, &Workload::training(64, 2048));
        assert!(!points.is_empty(), "some sharded config must fit");
        assert!(
            points.iter().all(|p| p.gpus() >= 16),
            "a 175B model cannot train on a handful of 80 GB devices"
        );
    }

    #[test]
    fn batch_divisibility_is_enforced() {
        let space = SweepSpace::power_of_two(8);
        let cluster = presets::dgx_a100_hdr_cluster();
        let points = space.enumerate(
            &models::llama2_13b(),
            &cluster,
            &Workload::training(6, 2048),
        );
        for p in &points {
            assert!(
                6 % (p.parallelism.dp * p.parallelism.microbatch) == 0,
                "{p}"
            );
        }
    }
}

//! The memoized two-phase training estimator.
//!
//! A strategy sweep evaluates hundreds of (DP, TP, PP, microbatch, SP,
//! precision) points against **one** (model, cluster, workload) triple.
//! The expensive part of each estimate — building the per-layer operator
//! graph and pushing every kernel through the hierarchical roofline —
//! depends only on the sub-tuple (TP, SP, microbatch, precision): DP and
//! PP replicate and schedule the same layer kernels, they never change
//! them. [`PreparedTrainingEstimator`] exploits that split:
//!
//! * **Phase 1 (prepare, once per sweep):** fix the model, cluster, and
//!   workload; build the roofline; pre-compute the useful model FLOPs; and
//!   open two [`Memo`] tables: [`LayerCosts`] keyed by
//!   `(tp, sp, microbatch, precision)`, and the expected checkpoint
//!   rework ([`expected_rework`]) of Weibull uptime keyed by the bit
//!   patterns of its `(shape, mean, τ, δ)`.
//! * **Phase 2 (evaluate, once per point):** look the layer costs up and
//!   run only the cheap assembly — pipeline algebra, DP/PP collectives,
//!   optimizer update, MFU — then price the failure environment, whose
//!   reworks the points of a sweep share: a strategy's interval and write
//!   time depend only on its cluster MTBF and its checkpoint shard.
//!   Elastic recovery prices each shrunken DP group through the same
//!   pipeline assembly.
//!
//! Both tables are filled with pure functions of their keys, so concurrent
//! evaluation order cannot change any value: a memoized sweep is
//! byte-identical to a naive per-point evaluation (a property the
//! `optimus-sweep` integration tests pin down).

use crate::{
    expected_rework, CheckpointSpec, GemmBoundSplit, StackContext, TrainError, TrainingBreakdown,
    TrainingConfig, TrainingReport, Uptime,
};
use optimus_hw::{ClusterSpec, Precision};
use optimus_memory::{training_memory, RecomputeMode, TrainingMemoryReport, TrainingMemorySpec};
use optimus_model::{graph, GraphParams, Memo, ModelConfig, Op};
use optimus_parallel::{CommPlan, Parallelism, PipelineSchedule};
use optimus_roofline::{KernelCost, RooflineModel};
use optimus_units::{Bytes, FlopCount, Time};
use std::sync::Arc;

/// Per-operator-list cost accumulator: time plus the energy-relevant
/// volumes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpsCost {
    pub(crate) time: Time,
    pub(crate) flops: FlopCount,
    pub(crate) dram: Bytes,
}

impl OpsCost {
    /// Adds one kernel's time, FLOPs and DRAM bytes.
    fn add(&mut self, cost: &KernelCost) {
        self.time += cost.total();
        self.flops += cost.flops;
        self.dram += cost.dram_traffic();
    }

    pub(crate) fn plus(&self, other: &Self) -> Self {
        Self {
            time: self.time + other.time,
            flops: self.flops + other.flops,
            dram: self.dram + other.dram,
        }
    }

    pub(crate) fn scaled(&self, factor: f64) -> Self {
        Self {
            time: self.time * factor,
            flops: self.flops * factor,
            dram: self.dram * factor,
        }
    }
}

/// Total device time, FLOPs, and DRAM traffic of an operator list at the
/// given GEMM precision (streaming ops already carry their element widths).
/// Each op is costed once, and `visit` sees it with its cost in op order,
/// so the sums that read the same per-op costs add them as they come.
fn ops_cost(
    roofline: &RooflineModel<'_>,
    ops: &[Op],
    precision: Precision,
    mut visit: impl FnMut(&Op, &KernelCost),
) -> Result<OpsCost, TrainError> {
    let mut total = OpsCost::default();
    for op in ops {
        let cost = op.cost(roofline, precision)?;
        total.add(&cost);
        visit(op, &cost);
    }
    Ok(total)
}

/// The memo key: the sub-tuple of a strategy that the per-layer kernel
/// costs actually depend on — `(tp, sp, microbatch, precision)`. The
/// workload-level inputs (model, sequence, recomputation mode, flash) are
/// fixed per [`PreparedTrainingEstimator`], and DP/PP only assemble.
type LayerKey = (usize, bool, usize, Precision);

/// The rework memo key: the bit patterns of an uptime law's shape and
/// mean, the checkpoint interval `τ` and the write time `δ`.
type ReworkKey = [u64; 4];

/// Everything shared by all strategy points with the same [`LayerKey`]:
/// the costed per-layer kernels, the embedding/head stage, the Fig. 7
/// bound split, and the TP/SP collective terms (which also depend only on
/// this key).
#[derive(Debug, Clone, Copy)]
struct LayerCosts {
    /// One layer's forward kernels, one microbatch.
    fwd: OpsCost,
    /// One layer's backward kernels, one microbatch.
    bwd: OpsCost,
    /// Recomputation replay per layer under the prepared mode.
    recompute: OpsCost,
    /// Embedding + LM head, forward and backward (already ×3).
    emb_head: OpsCost,
    /// Bound-type split of one layer's fwd+bwd GEMMs.
    gemm_split: GemmBoundSplit,
    /// Block-output activation volume `s·b·h` of one microbatch.
    act_volume: Bytes,
    /// TP/SP collective time per layer per microbatch (fwd + bwd).
    tp_per_layer: Time,
    /// Wire bytes per layer's forward TP/SP collectives.
    tp_fwd_wire: Bytes,
}

/// One strategy's failure-free pipeline step, the assembly that every
/// estimate and every elastic repricing shares.
struct Step<'a> {
    microbatches: usize,
    layers_per_stage: usize,
    layer_costs: LayerCosts,
    /// One layer's forward, backward and recompute kernels.
    layer: OpsCost,
    plan: CommPlan<'a>,
    /// Per microbatch: a stage's layer kernels, its TP/SP collectives, its
    /// share of the embedding + LM head, and its pipeline hops.
    stage_compute: Time,
    stage_tp: Time,
    stage_extra: Time,
    p2p_per_ubatch: Time,
    /// Stage time over every microbatch.
    busy: Time,
    bubble: Time,
    grad_volume: Bytes,
    dp_comm: Time,
    /// DRAM bytes the optimizer update streams.
    optimizer_traffic: Bytes,
    weight_update: Time,
}

/// Phase-1 state of the two-phase training estimator: everything that is
/// invariant across the strategy points of one sweep, plus the layer-cost
/// and rework memo tables. Build it once per (model, cluster, workload)
/// and call [`PreparedTrainingEstimator::estimate`] per point.
///
/// ```
/// use optimus_hw::presets;
/// use optimus_model::presets as models;
/// use optimus_parallel::Parallelism;
/// use optimus_train::PreparedTrainingEstimator;
/// use optimus_hw::Precision;
/// use std::sync::Arc;
///
/// let cluster = presets::dgx_a100_hdr_cluster();
/// let prepared = PreparedTrainingEstimator::new(
///     &cluster, Arc::new(models::gpt_22b()), 4, 2048);
/// let t8 = prepared.estimate(Parallelism::new(1, 8, 1), Precision::Fp16).unwrap();
/// let t4 = prepared.estimate(Parallelism::new(1, 4, 1), Precision::Fp16).unwrap();
/// assert!(t8.time_per_batch < t4.time_per_batch);
/// ```
#[derive(Debug)]
pub struct PreparedTrainingEstimator<'a> {
    cluster: &'a ClusterSpec,
    roofline: RooflineModel<'a>,
    model: Arc<ModelConfig>,
    batch: usize,
    seq: usize,
    schedule: PipelineSchedule,
    recompute: RecomputeMode,
    flash: bool,
    checkpoint: CheckpointSpec,
    /// Useful model FLOPs per batch — a function of (model, batch, seq)
    /// only, so computed once at prepare time.
    model_flops: FlopCount,
    cache: Memo<LayerKey, Result<LayerCosts, TrainError>>,
    /// [`expected_rework`] per distinct Weibull `(shape, mean, τ, δ)`.
    reworks: Memo<ReworkKey, f64>,
}

impl<'a> PreparedTrainingEstimator<'a> {
    /// Prepares an estimator for one (model, cluster, workload) with the
    /// defaults of [`TrainingConfig::new`]: 1F1B scheduling, no
    /// recomputation, no flash kernel.
    #[must_use]
    pub fn new(
        cluster: &'a ClusterSpec,
        model: Arc<ModelConfig>,
        batch: usize,
        seq: usize,
    ) -> Self {
        let model_flops = compute_model_flops(&model, batch, seq);
        Self {
            cluster,
            roofline: RooflineModel::new(cluster.accelerator()),
            model,
            batch,
            seq,
            schedule: PipelineSchedule::OneFOneB,
            recompute: RecomputeMode::None,
            flash: false,
            checkpoint: CheckpointSpec::none(),
            model_flops,
            cache: Memo::default(),
            reworks: Memo::default(),
        }
    }

    /// Prepares from a full [`TrainingConfig`], adopting its workload-level
    /// fields (model, batch, seq, schedule, recompute, flash). The
    /// config's `parallelism` and `precision` are *per-point* inputs — pass
    /// them to [`Self::estimate`] instead.
    #[must_use]
    pub fn from_config(cluster: &'a ClusterSpec, cfg: &TrainingConfig) -> Self {
        Self::new(cluster, Arc::clone(&cfg.model), cfg.batch, cfg.seq)
            .with_schedule(cfg.schedule)
            .with_recompute(cfg.recompute)
            .with_flash(cfg.flash)
    }

    /// Sets the pipeline schedule.
    #[must_use]
    pub fn with_schedule(mut self, schedule: PipelineSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the recomputation strategy.
    #[must_use]
    pub fn with_recompute(mut self, recompute: RecomputeMode) -> Self {
        self.recompute = recompute;
        self
    }

    /// Selects the FlashAttention implementation.
    #[must_use]
    pub fn with_flash(mut self, flash: bool) -> Self {
        self.flash = flash;
        self
    }

    /// Sets the failure environment every estimate is priced under. The
    /// default [`CheckpointSpec::none`] leaves reports untouched; an
    /// active spec attaches a resilience section with the
    /// failure-expected batch time (an assembly-phase computation whose
    /// expected reworks fill their own memo table; the layer-cost table
    /// is unaffected).
    #[must_use]
    pub fn with_checkpoint(mut self, checkpoint: CheckpointSpec) -> Self {
        self.checkpoint = checkpoint;
        self
    }

    /// Number of distinct layer-cost keys materialized so far — the
    /// `O(distinct-kernel-keys)` factor of a sweep's cost.
    #[must_use]
    pub fn cached_keys(&self) -> usize {
        self.cache.len()
    }

    /// Number of distinct Weibull `(shape, mean, τ, δ)` whose expected
    /// checkpoint rework has been priced so far. A sweep's strategies
    /// share their cluster MTBFs and checkpoint shards, so this stays far
    /// below the number of rework lookups. Exponential uptime adds no
    /// key: its closed form is priced on every lookup.
    #[must_use]
    pub fn cached_rework_keys(&self) -> usize {
        self.reworks.len()
    }

    /// Phase-2 evaluation of one strategy point, computing the memory
    /// footprint in-line.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if the parallelization does not divide the
    /// workload/cluster, the precision is unsupported by the device, or a
    /// failure-expected figure overflows.
    pub fn estimate(
        &self,
        parallelism: Parallelism,
        precision: Precision,
    ) -> Result<TrainingReport, TrainError> {
        // Validate against the cluster before deriving memory, so invalid
        // configs keep their validation error (and cost no footprint).
        parallelism.validate(self.cluster)?;
        let memory = training_memory(
            &self.model,
            &TrainingMemorySpec {
                batch: self.batch,
                seq: self.seq,
                parallelism,
                schedule: self.schedule,
                precision,
                recompute: self.recompute,
            },
        )?;
        self.estimate_with_memory(parallelism, precision, memory)
    }

    /// Phase-2 evaluation with a memory footprint computed elsewhere —
    /// the sweep engine passes the footprint the pruning pass already
    /// derived, so memory is computed exactly once per point.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if the parallelization does not divide the
    /// workload/cluster, the precision is unsupported by the device, or a
    /// failure-expected figure overflows
    /// ([`TrainError::ResilienceOverflow`]).
    pub fn estimate_with_memory(
        &self,
        parallelism: Parallelism,
        precision: Precision,
        memory: TrainingMemoryReport,
    ) -> Result<TrainingReport, TrainError> {
        let p = parallelism;
        let step = self.step(p, precision, self.batch)?;
        let lc = &step.layer_costs;
        let stages = step.layers_per_stage as f64;
        let ubatches = step.microbatches as f64;

        let breakdown = TrainingBreakdown {
            compute: (step.stage_compute + step.stage_extra) * ubatches,
            tp_comm: step.stage_tp * ubatches,
            pp_comm: step.p2p_per_ubatch * ubatches,
            dp_comm: step.dp_comm,
            bubble: step.bubble,
            weight_update: step.weight_update,
        };
        let time_per_batch = breakdown.total();

        // --- per-device energy-relevant totals ---------------------------
        let device_flops = FlopCount::new(
            (step.layer.flops.get() * stages + lc.emb_head.flops.get() / p.pp as f64) * ubatches,
        );
        let dram_traffic = Bytes::new(
            (step.layer.dram.bytes() * stages + lc.emb_head.dram.bytes() / p.pp as f64) * ubatches,
        ) + step.optimizer_traffic;
        let network_traffic = lc.tp_fwd_wire * (2.0 * stages * ubatches)
            + step.plan.pp_wire_bytes(lc.act_volume)
                * (2.0 * self.schedule.p2p_multiplier() * ubatches)
            + step.plan.dp_wire_bytes(step.grad_volume);

        // --- MFU ---------------------------------------------------------------
        let peak = self.cluster.accelerator().peak(precision)?;
        let system_peak = peak * p.total_gpus() as f64;
        let mfu = self.model_flops.get() / (system_peak.get() * time_per_batch.secs());

        let resilience = self.checkpoint.evaluate_stack(
            &StackContext {
                cluster: self.cluster,
                memory: &memory,
                parallelism: p,
                time_per_batch,
            },
            &|dp| self.reprice_dp(p, precision, dp).ok(),
            &|uptime, interval_s, write_s| self.rework(uptime, interval_s, write_s),
        );
        if let Some(r) = &resilience {
            // A cost that overflows a failure-expected figure is refused,
            // not reported as an infinity.
            for (figure, value) in [
                ("batch time", r.expected_time_per_batch.secs()),
                ("restart fraction", r.restart_frac),
                ("repair fraction", r.repair_frac.unwrap_or(0.0)),
            ] {
                if !value.is_finite() {
                    return Err(TrainError::ResilienceOverflow(figure));
                }
            }
        }

        Ok(TrainingReport {
            time_per_batch,
            breakdown,
            memory,
            microbatches: step.microbatches,
            model_flops: self.model_flops,
            mfu,
            layer_gemm_split: lc.gemm_split,
            device_flops,
            dram_traffic,
            network_traffic,
            resilience,
        })
    }

    /// The elastic repricing entry point: the failure-free time of one
    /// *shrunken* batch after the DP group drops from `parallelism.dp`
    /// to `dp` replicas. The per-replica batch stays constant (the
    /// global batch shrinks to `batch · dp / parallelism.dp`), so the
    /// microbatch count per pipeline is unchanged and the layer-cost
    /// memo key is identical — repricing is pure assembly, through the
    /// same step assembly as [`Self::estimate_with_memory`].
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when the shrunken parallelization is
    /// invalid for the cluster, the batch does not divide across the
    /// original DP group, or the precision is unsupported.
    pub fn reprice_dp(
        &self,
        parallelism: Parallelism,
        precision: Precision,
        dp: usize,
    ) -> Result<Time, TrainError> {
        let p = parallelism;
        // Integer per-group batch: `estimate` already divided the batch
        // across p.dp groups, so this is exact for any strategy that
        // evaluated successfully.
        let batch = self.batch / p.dp * dp;
        let shrunk = Parallelism::new(dp.max(1), p.tp, p.pp)
            .with_sp(p.sp)
            .with_microbatch(p.microbatch);
        let step = self.step(shrunk, precision, batch)?;
        Ok(step.busy + step.bubble + step.dp_comm + step.weight_update)
    }

    /// The failure-free pipeline step of strategy `p` over `batch`: the
    /// one assembly that [`Self::estimate_with_memory`] and
    /// [`Self::reprice_dp`] price with.
    // Inlined into both callers: returned out of line, the step's fields
    // went through memory and the plain 64-GPU training sweep ran about
    // 3% slower than with the assembly written out in each caller.
    #[inline(always)]
    fn step(
        &self,
        p: Parallelism,
        precision: Precision,
        batch: usize,
    ) -> Result<Step<'a>, TrainError> {
        p.validate(self.cluster)?;
        let microbatches = p.microbatches(batch)?;
        let layers_per_stage = p.layers_per_stage(self.model.layers)?;
        let layer_costs = self.layer_costs(p.tp, p.sp, p.microbatch, precision)?;
        let layer = layer_costs
            .fwd
            .plus(&layer_costs.bwd)
            .plus(&layer_costs.recompute);
        let plan = CommPlan::new(self.cluster, p);

        // --- pipeline assembly --------------------------------------------
        let stage_compute = layer.time * layers_per_stage as f64;
        let stage_tp = layer_costs.tp_per_layer * layers_per_stage as f64;
        let stage_extra = layer_costs.emb_head.time / p.pp as f64;
        // Two stage-boundary crossings per microbatch (forward activation
        // out, backward gradient in), times the interleaving multiplier.
        let p2p_per_ubatch =
            plan.pp_hop(layer_costs.act_volume) * 2.0 * self.schedule.p2p_multiplier();
        let stage_time = stage_compute + stage_tp + stage_extra + p2p_per_ubatch;
        let busy = stage_time * microbatches as f64;
        let bubble = busy * self.schedule.bubble_fraction(p.pp, microbatches);

        // --- once-per-batch terms ------------------------------------------
        let params_per_device = layers_per_stage as f64 * self.model.layer_param_count()
            / p.tp as f64
            + self.model.embedding_param_count() / p.tp as f64;
        let grad_volume = Bytes::new(params_per_device * precision.bytes());
        let dp_comm = plan.dp_gradient_allreduce(grad_volume);
        // Optimizer update: reads grad(4) + m(4) + v(4) + master(4);
        // writes m, v, master and the weights at `precision`.
        let optimizer_traffic = Bytes::new(params_per_device * (16.0 + 12.0 + precision.bytes()));
        let weight_update = self.weight_update_time(optimizer_traffic);

        Ok(Step {
            microbatches,
            layers_per_stage,
            layer_costs,
            layer,
            plan,
            stage_compute,
            stage_tp,
            stage_extra,
            p2p_per_ubatch,
            busy,
            bubble,
            grad_volume,
            dp_comm,
            optimizer_traffic,
            weight_update,
        })
    }

    /// The layer costs of a key, through the layer-cost memo table.
    fn layer_costs(
        &self,
        tp: usize,
        sp: bool,
        microbatch: usize,
        precision: Precision,
    ) -> Result<LayerCosts, TrainError> {
        self.cache
            .get_or_insert_with((tp, sp, microbatch, precision), || {
                self.compute_layer_costs(tp, sp, microbatch, precision)
            })
    }

    /// [`expected_rework`] through the rework memo table, keyed on the bit
    /// patterns of its whole input. Exponential uptime (`shape == 1`)
    /// bypasses the table: its closed form costs about as much as a warm
    /// lookup, so only the Weibull period sums are worth keeping.
    fn rework(&self, uptime: Uptime, interval_s: f64, write_s: f64) -> f64 {
        if uptime.shape == 1.0 {
            return expected_rework(uptime, interval_s, write_s);
        }
        let key = [uptime.shape, uptime.mean_s, interval_s, write_s].map(f64::to_bits);
        self.reworks
            .get_or_insert_with(key, || expected_rework(uptime, interval_s, write_s))
    }

    /// The memo-miss path: builds and costs one layer's operator graph, the
    /// embedding/head stage, and the TP/SP collective terms for a key.
    fn compute_layer_costs(
        &self,
        tp: usize,
        sp: bool,
        microbatch: usize,
        precision: Precision,
    ) -> Result<LayerCosts, TrainError> {
        let gp = GraphParams::prefill(microbatch, self.seq, tp, precision)
            .with_sp(sp)
            .with_flash(self.flash);

        // Each forward and backward op is costed once. The Fig. 7 bound
        // split runs on through the forward then the backward GEMMs, and
        // selective recomputation (Eq. 2) replays the forward attention
        // core, so both read the same per-op costs.
        let mut gemm_split = GemmBoundSplit::default();
        let mut split = |op: &Op, cost: &KernelCost| {
            if op.as_gemm().is_some() {
                if cost.bound().is_compute() {
                    gemm_split.compute_bound += cost.total();
                } else {
                    gemm_split.memory_bound += cost.total();
                }
            }
        };
        let mut attention_core = OpsCost::default();
        let fwd_ops = graph::layer_forward_ops(&self.model, &gp);
        let fwd = ops_cost(&self.roofline, &fwd_ops, precision, |op, cost| {
            split(op, cost);
            if op.role.is_selective_recompute() {
                attention_core.add(cost);
            }
        })?;
        let bwd_ops = graph::layer_backward_ops(&self.model, &gp);
        let bwd = ops_cost(&self.roofline, &bwd_ops, precision, split)?;
        let recompute = match self.recompute {
            RecomputeMode::None => OpsCost::default(),
            RecomputeMode::Selective => attention_core,
            // Full recomputation replays the whole forward pass.
            RecomputeMode::Full { .. } => fwd,
        };

        // Embedding + LM head (first/last stage); backward roughly doubles
        // the forward, hence ×3.
        let emb_head_ops: Vec<Op> = graph::embedding_ops(&self.model, &gp)
            .into_iter()
            .chain(graph::head_ops(&self.model, &gp))
            .collect();
        let emb_head = ops_cost(&self.roofline, &emb_head_ops, precision, |_, _| {})?.scaled(3.0);

        // TP/SP collectives see only (tp, sp) and the microbatch activation
        // volume, so they memoize under the same key. DP/PP terms are
        // per-point and stay in the assembly phase.
        let act_volume =
            Bytes::new((microbatch * self.seq * self.model.hidden) as f64 * precision.bytes());
        let tp_plan = CommPlan::new(
            self.cluster,
            Parallelism::new(1, tp, 1)
                .with_sp(sp)
                .with_microbatch(microbatch),
        );
        let tp_per_layer =
            tp_plan.tp_layer_forward(act_volume) + tp_plan.tp_layer_backward(act_volume);
        let tp_fwd_wire = tp_plan.tp_layer_forward_wire_bytes(act_volume);

        Ok(LayerCosts {
            fwd,
            bwd,
            recompute,
            emb_head,
            gemm_split,
            act_volume,
            tp_per_layer,
            tp_fwd_wire,
        })
    }

    /// Optimizer update: stream gradients, Adam moments, master weights
    /// (read + write) and store the new low-precision weights, `traffic`
    /// bytes in all, at the device's derated DRAM bandwidth.
    fn weight_update_time(&self, traffic: Bytes) -> Time {
        let dram = self.cluster.accelerator().dram.bandwidth;
        let util = self
            .cluster
            .accelerator()
            .calibration
            .dram_utilization
            .factor(traffic);
        traffic / (dram * util.get())
    }
}

/// Useful (non-recompute) model FLOPs per batch: 3× the forward GEMM work
/// of the full model (backward counts double), plus head. GEMM FLOPs are a
/// pure shape property, so any precision yields the same count.
fn compute_model_flops(model: &ModelConfig, batch: usize, seq: usize) -> FlopCount {
    let gp = GraphParams::prefill(batch, seq, 1, Precision::Fp16);
    let layer: f64 = graph::layer_forward_ops(model, &gp)
        .iter()
        .filter_map(|o| o.as_gemm().map(|g| g.flops().get()))
        .sum();
    let head: f64 = graph::head_ops(model, &gp)
        .iter()
        .filter_map(|o| o.as_gemm().map(|g| g.flops().get()))
        .sum();
    FlopCount::new(3.0 * (layer * model.layers as f64 + head))
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_hw::presets;
    use optimus_model::presets as models;

    /// The prepared path and the one-shot `TrainingEstimator` path must
    /// produce identical reports — same code, memoized vs not.
    #[test]
    fn prepared_matches_one_shot_estimator() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::gpt_22b());
        let prepared = PreparedTrainingEstimator::new(&cluster, Arc::clone(&model), 8, 2048)
            .with_recompute(RecomputeMode::Selective);
        for (tp, pp) in [(8, 1), (4, 2), (2, 1)] {
            let p = Parallelism::new(1, tp, pp).with_sp(tp > 1);
            let cfg = crate::TrainingConfig::new(Arc::clone(&model), 8, 2048, p)
                .with_recompute(RecomputeMode::Selective);
            let one_shot = crate::TrainingEstimator::new(&cluster)
                .estimate(&cfg)
                .unwrap();
            let fast = prepared.estimate(p, Precision::Fp16).unwrap();
            assert_eq!(one_shot, fast, "tp={tp} pp={pp}");
        }
    }

    /// Repeated evaluation at one key hits the memo table: the second call
    /// must not grow the table.
    #[test]
    fn memo_table_grows_only_per_distinct_key() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let prepared =
            PreparedTrainingEstimator::new(&cluster, Arc::new(models::llama2_13b()), 16, 2048);
        assert_eq!(prepared.cached_keys(), 0);
        // dp=1 and dp=2 share the (tp=2, sp=false, mb=1, fp16) key.
        prepared
            .estimate(Parallelism::new(1, 2, 1), Precision::Fp16)
            .unwrap();
        assert_eq!(prepared.cached_keys(), 1);
        prepared
            .estimate(Parallelism::new(2, 2, 1), Precision::Fp16)
            .unwrap();
        assert_eq!(prepared.cached_keys(), 1);
        prepared
            .estimate(Parallelism::new(1, 2, 1), Precision::Bf16)
            .unwrap();
        assert_eq!(prepared.cached_keys(), 2);
    }

    /// Elastic repricing is the shrunken job's own estimate: dropping a
    /// strategy's DP group from `dp` to `d` replicas prices exactly what a
    /// fresh estimator gives the same strategy at `d` replicas over the
    /// proportionally smaller batch.
    #[test]
    fn elastic_repricing_equals_the_shrunken_jobs_estimate() {
        let cluster = presets::dgx_a100_hdr_cluster();
        for model in [models::gpt_22b(), models::llama2_13b()].map(Arc::new) {
            for mode in [RecomputeMode::None, RecomputeMode::Selective] {
                let prepared =
                    PreparedTrainingEstimator::new(&cluster, Arc::clone(&model), 64, 2048)
                        .with_recompute(mode);
                for (dp, tp, pp, mb) in [(8, 8, 1, 1), (4, 4, 2, 2), (8, 2, 4, 1), (2, 8, 2, 4)] {
                    let p = Parallelism::new(dp, tp, pp).with_microbatch(mb);
                    for d in 1..dp {
                        let repriced = prepared.reprice_dp(p, Precision::Fp16, d).unwrap();
                        let fresh = PreparedTrainingEstimator::new(
                            &cluster,
                            Arc::clone(&model),
                            64 / dp * d,
                            2048,
                        )
                        .with_recompute(mode)
                        .estimate(
                            Parallelism::new(d, tp, pp).with_microbatch(mb),
                            Precision::Fp16,
                        )
                        .unwrap()
                        .time_per_batch;
                        let rel = (repriced.secs() - fresh.secs()).abs() / fresh.secs();
                        assert!(
                            rel <= 1e-12,
                            "{} {mode} {p} → dp {d}: {repriced} vs {fresh}",
                            model.name
                        );
                    }
                }
            }
        }
    }

    /// A restart or repair cost so large against the cluster MTBF that a
    /// failure-expected figure overflows is an error naming the figure, not
    /// a report carrying an infinity; a large finite one still prices.
    #[test]
    fn overflowing_resilience_figures_are_errors() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let error = |model: ModelConfig, batch: usize, spec: CheckpointSpec| {
            PreparedTrainingEstimator::new(&cluster, Arc::new(model), batch, 2048)
                .with_checkpoint(spec)
                .estimate(Parallelism::new(8, 8, 1), Precision::Fp16)
                .err()
        };
        let overflow = |figure| Some(TrainError::ResilienceOverflow(figure));
        let spec = CheckpointSpec::with_mtbf(10.0);
        let elastic = spec.clone().with_elastic(true);
        assert_eq!(
            error(models::gpt_175b(), 64, spec.clone().with_restart(1e308)),
            overflow("batch time")
        );
        assert_eq!(
            error(models::gpt_175b(), 64, elastic.clone().with_repair(1e308)),
            overflow("batch time")
        );
        // Elastic continuation keeps the chosen waste finite, but not the
        // restart or repair fraction it is chosen over; a short batch keeps
        // the degraded continuation's expected time finite too.
        assert_eq!(
            error(models::gpt_175b(), 64, elastic.with_restart(1e308)),
            overflow("restart fraction")
        );
        assert_eq!(
            error(
                models::llama2_7b(),
                8,
                CheckpointSpec::with_mtbf(8.0)
                    .with_elastic(true)
                    .with_repair(1e308)
            ),
            overflow("repair fraction")
        );
        assert_eq!(
            error(models::gpt_175b(), 64, spec.with_restart(1e300)),
            None
        );
    }

    /// The one costing walk of `compute_layer_costs` against the per-list
    /// algorithm it replaced, kept here as the reference: each op list
    /// costed on its own, the selective replay as the forward ops filtered
    /// by role, and the Fig. 7 split as every forward then backward GEMM
    /// costed again into running sums. Every figure matches to the bit
    /// over gpt-22b (LayerNorm, GELU, dropout), llama2-13b and llama2-70b
    /// (GQA), TP, SP, microbatch, flash, all three recompute modes, and
    /// FP16/BF16 on A100 and FP8 on H100.
    #[test]
    fn one_layer_walk_matches_the_per_list_costing() {
        let bits = |c: OpsCost| [c.time.secs(), c.flops.get(), c.dram.bytes()].map(f64::to_bits);
        let split_bits =
            |s: GemmBoundSplit| [s.compute_bound, s.memory_bound].map(|t| t.secs().to_bits());
        let (a100, h100) = (
            presets::dgx_a100_hdr_cluster(),
            presets::dgx_h100_ndr_cluster(),
        );
        let modes = [
            RecomputeMode::None,
            RecomputeMode::Selective,
            RecomputeMode::Full {
                checkpoints_per_stage: None,
            },
        ];
        let mut cells = Vec::new();
        for tp in [1, 2, 8] {
            for sp in [false, true] {
                for microbatch in [1, 4] {
                    for flash in [false, true] {
                        cells.push((tp, sp, microbatch, flash));
                    }
                }
            }
        }
        for model in [
            models::gpt_22b(),
            models::llama2_13b(),
            models::llama2_70b(),
        ]
        .map(Arc::new)
        {
            for (cluster, precision) in [
                (&a100, Precision::Fp16),
                (&a100, Precision::Bf16),
                (&h100, Precision::Fp8),
            ] {
                let roofline = RooflineModel::new(cluster.accelerator());
                let costed = |ops: &[Op]| {
                    let mut sum = OpsCost::default();
                    for c in ops.iter().map(|op| op.cost(&roofline, precision).unwrap()) {
                        sum.time += c.total();
                        sum.flops += c.flops;
                        sum.dram += c.dram_traffic();
                    }
                    sum
                };
                for mode in modes {
                    for &(tp, sp, microbatch, flash) in &cells {
                        let gp = GraphParams::prefill(microbatch, 2048, tp, precision)
                            .with_sp(sp)
                            .with_flash(flash);
                        let fwd_ops = graph::layer_forward_ops(&model, &gp);
                        let bwd_ops = graph::layer_backward_ops(&model, &gp);
                        let core: Vec<Op> = fwd_ops
                            .iter()
                            .copied()
                            .filter(|op| op.role.is_selective_recompute())
                            .collect();
                        let recompute = match mode {
                            RecomputeMode::None => OpsCost::default(),
                            RecomputeMode::Selective => costed(&core),
                            RecomputeMode::Full { .. } => costed(&fwd_ops),
                        };
                        let emb_head = [
                            graph::embedding_ops(&model, &gp),
                            graph::head_ops(&model, &gp),
                        ]
                        .concat();
                        let mut split = GemmBoundSplit::default();
                        for op in fwd_ops
                            .iter()
                            .chain(&bwd_ops)
                            .filter(|op| op.as_gemm().is_some())
                        {
                            let c = op.cost(&roofline, precision).unwrap();
                            if c.bound().is_compute() {
                                split.compute_bound += c.total();
                            } else {
                                split.memory_bound += c.total();
                            }
                        }

                        let walked =
                            PreparedTrainingEstimator::new(cluster, Arc::clone(&model), 8, 2048)
                                .with_recompute(mode)
                                .with_flash(flash)
                                .compute_layer_costs(tp, sp, microbatch, precision)
                                .unwrap();
                        let cell = format!(
                            "{} {precision} {mode} tp={tp} sp={sp} mb={microbatch} flash={flash}",
                            model.name
                        );
                        let want = [
                            costed(&fwd_ops),
                            costed(&bwd_ops),
                            recompute,
                            costed(&emb_head).scaled(3.0),
                        ];
                        let got = [walked.fwd, walked.bwd, walked.recompute, walked.emb_head];
                        assert_eq!(
                            got.map(bits),
                            want.map(bits),
                            "fwd, bwd, recompute, emb/head: {cell}"
                        );
                        assert_eq!(
                            split_bits(walked.gemm_split),
                            split_bits(split),
                            "split: {cell}"
                        );
                    }
                }
            }
        }
    }

    /// Errors memoize too: an unsupported precision fails identically on
    /// the cached path.
    #[test]
    fn unsupported_precision_errors_consistently() {
        let cluster = presets::dgx_a100_hdr_cluster(); // A100: no FP4
        let prepared =
            PreparedTrainingEstimator::new(&cluster, Arc::new(models::llama2_13b()), 4, 2048);
        let p = Parallelism::new(1, 2, 1);
        let first = prepared.estimate(p, Precision::Fp4);
        let second = prepared.estimate(p, Precision::Fp4);
        assert!(first.is_err());
        assert_eq!(first, second);
    }
}

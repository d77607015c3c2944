//! The memoized two-phase inference estimator.
//!
//! An inference sweep evaluates every feasible (TP, precision) pair of one
//! (model, cluster, request-shape) triple. Kernel costs depend only on
//! `(batch, seq, kv_len, tp, precision)`, and the embedding/LM-head stage
//! does not even see `kv_len`. [`PreparedInferenceEstimator`] holds the
//! roofline and [`Memo`] tables over those keys; per-point
//! evaluation reduces to lookups, the attention core at each decode
//! context, and the communication and assembly arithmetic.
//!
//! Decode pricing is **context factored**, in the one-shot decode loop and
//! for the serving simulator alike. Of a decode layer's ops only the
//! attention core (scores, softmax, attention dropout, context gather)
//! reads the KV context; every other op, the embedding/LM-head stage and
//! the TP all-reduce depend on the batch alone. So a decode *row* per
//! batch, memoized per `(batch, tp, precision)`, holds those kernel costs
//! with holes at the attention-core slots, and one walk costs the holes at
//! a context and hands every op's cost over in `layer_forward_ops` order.
//! [`PreparedInferenceEstimator::estimate`] folds each step's walk into
//! the breakdown, FLOPs and DRAM bytes, so a point's decode loop costs the
//! rest of the layer once and leaves no memo entry per context.
//! [`PreparedInferenceEstimator::decode_iteration`] folds only the time,
//! so a price at a batch already seen costs only the attention core at its
//! context.
//!
//! The serving simulator reads its iteration prices from dense tables,
//! one per (TP, precision), that the estimator leases out
//! ([`PreparedInferenceEstimator::lease_prices`]) and takes back, warm,
//! when a run ends. A table is the only cache between a replica engine and
//! the price computation: it prices a missing entry once through
//! [`PreparedInferenceEstimator::prefill_iteration`] or
//! [`PreparedInferenceEstimator::decode_iteration`], which memoize no
//! price of their own, and every later read is an index and a NaN test.
//!
//! Memo and table values are pure functions of their keys, so concurrent
//! fill order cannot change any result: a memoized sweep is byte-identical
//! to naive per-point evaluation, and a run reports the same from a warm
//! table as from an empty one.

use crate::{GemmAnalysis, InferenceBreakdown, InferenceConfig, InferenceReport};
use optimus_hw::{ClusterSpec, HwError, Precision};
use optimus_memory::{inference_memory, InferenceMemoryReport};
use optimus_model::{graph, GraphParams, Memo, ModelConfig, Op};
use optimus_parallel::{CommPlan, Parallelism};
use optimus_roofline::{KernelCost, RooflineModel};
use optimus_units::{Bytes, FlopCount, Time};
use std::sync::{Arc, Mutex, PoisonError};

/// Cost of one operator list: bound-type time breakdown, the
/// energy-relevant volumes, and the per-GEMM analysis rows (memoized with
/// the rest so warm points never re-cost a GEMM). Cached behind an [`Arc`]
/// so warm lookups clone a pointer, not the rows.
#[derive(Debug, Clone, Default)]
struct StepCost {
    bd: InferenceBreakdown,
    flops: FlopCount,
    dram: Bytes,
    gemms: Vec<GemmAnalysis>,
}

impl StepCost {
    /// Files one kernel's time under its bound type and adds its FLOPs and
    /// DRAM bytes.
    fn add(&mut self, cost: &KernelCost) {
        accumulate(&mut self.bd, cost);
        self.flops += cost.flops;
        self.dram += cost.dram_traffic();
    }
}

/// Memo key of one transformer layer's kernels: `(batch, seq, kv_len, tp,
/// precision)`. `seq` is the prompt length for prefill and 1 for decode;
/// `kv_len` is the attention context. A one-shot estimate uses a single
/// batch value, but the serving iteration APIs vary it — continuous
/// batching grows and shrinks the decode batch every iteration — so the
/// batch is part of the key.
type LayerKey = (usize, usize, usize, usize, Precision);

/// Memo key of the embedding + LM-head stage: `(batch, seq, tp,
/// precision)` — these ops never read the attention context, which is what
/// collapses the whole decode loop's head work onto a single entry.
type ExtraKey = (usize, usize, usize, Precision);

/// Memo key of one decode row: `(batch, tp, precision)`.
type RowKey = (usize, usize, Precision);

/// The part of a decode iteration at one batch width that never reads the
/// KV context.
#[derive(Debug, Clone)]
struct DecodeRow {
    /// The costs of one decode layer's ops in `layer_forward_ops` order,
    /// `None` at the attention-core slots (`OpRole::is_selective_recompute`),
    /// whose shapes are the only ones that read `kv_len`.
    layer: Vec<Option<KernelCost>>,
    /// The embedding + LM-head stage.
    head: Time,
    /// One layer's TP all-reduces.
    comm: Time,
}

/// Phase-1 state of the two-phase inference estimator: the roofline and
/// the per-step kernel-cost memo tables, fixed to one (model, cluster,
/// request shape). Build once per sweep, call
/// [`PreparedInferenceEstimator::estimate`] per (TP, precision) point.
///
/// ```
/// use optimus_hw::presets;
/// use optimus_hw::Precision;
/// use optimus_infer::PreparedInferenceEstimator;
/// use optimus_model::presets as models;
/// use std::sync::Arc;
///
/// let cluster = presets::dgx_a100_hdr_cluster();
/// let prepared = PreparedInferenceEstimator::new(
///     &cluster, Arc::new(models::llama2_13b()), 1, 200, 200);
/// let t1 = prepared.estimate(1, Precision::Fp16).unwrap();
/// let t8 = prepared.estimate(8, Precision::Fp16).unwrap();
/// assert!(t8.total < t1.total);
/// ```
#[derive(Debug)]
pub struct PreparedInferenceEstimator<'a> {
    cluster: &'a ClusterSpec,
    roofline: RooflineModel<'a>,
    model: Arc<ModelConfig>,
    batch: usize,
    prefill: usize,
    generate: usize,
    layer_cache: Memo<LayerKey, Result<Arc<StepCost>, HwError>>,
    extra_cache: Memo<ExtraKey, Result<Arc<StepCost>, HwError>>,
    decode_rows: Memo<RowKey, Result<Arc<DecodeRow>, HwError>>,
    /// The serving price tables not leased out right now.
    tables: Mutex<Vec<PriceTable>>,
}

impl<'a> PreparedInferenceEstimator<'a> {
    /// Prepares an estimator for one (model, cluster, request shape).
    ///
    /// # Panics
    ///
    /// Panics if any count is zero (same contract as
    /// [`InferenceConfig::new`]).
    #[must_use]
    pub fn new(
        cluster: &'a ClusterSpec,
        model: Arc<ModelConfig>,
        batch: usize,
        prefill: usize,
        generate: usize,
    ) -> Self {
        assert!(
            batch > 0 && prefill > 0 && generate > 0,
            "inference shape must be positive"
        );
        Self {
            cluster,
            roofline: RooflineModel::new(cluster.accelerator()),
            model,
            batch,
            prefill,
            generate,
            layer_cache: Memo::default(),
            extra_cache: Memo::default(),
            decode_rows: Memo::default(),
            tables: Mutex::default(),
        }
    }

    /// Prepares from a full [`InferenceConfig`], adopting its request-level
    /// fields. The config's `tp` and `precision` are *per-point* inputs —
    /// pass them to [`Self::estimate`] instead.
    #[must_use]
    pub fn from_config(cluster: &'a ClusterSpec, cfg: &InferenceConfig) -> Self {
        Self::new(
            cluster,
            Arc::clone(&cfg.model),
            cfg.batch,
            cfg.prefill,
            cfg.generate,
        )
    }

    /// Prepares an estimator for iteration-level serving simulation, where
    /// every batch/sequence shape arrives per call through
    /// [`Self::prefill_iteration`] and [`Self::decode_iteration`] rather
    /// than from a fixed request shape.
    #[must_use]
    pub fn for_serving(cluster: &'a ClusterSpec, model: Arc<ModelConfig>) -> Self {
        Self::new(cluster, model, 1, 1, 1)
    }

    /// Number of distinct memo keys materialized so far: per-step layer
    /// and embedding/LM-head kernels, and decode rows.
    #[must_use]
    pub fn cached_keys(&self) -> usize {
        self.layer_cache.len() + self.extra_cache.len() + self.decode_rows.len()
    }

    /// Checks out the serving price table of `(tp, precision)`: a warm one
    /// an earlier run handed back, or an empty one. The lease hands it
    /// back when dropped. Runs that hold leases at once hold distinct
    /// tables, so no price read takes a lock, and the pool keeps at most
    /// as many tables of a key as runs ever held at once.
    #[must_use]
    pub fn lease_prices(&self, tp: usize, precision: Precision) -> LeasedPrices<'_, 'a> {
        // Every pool update leaves the vector whole, so a lock poisoned by
        // a panic elsewhere still guards a valid pool.
        let mut pool = self.tables.lock().unwrap_or_else(PoisonError::into_inner);
        let table = match pool
            .iter()
            .rposition(|t| t.tp == tp && t.precision == precision)
        {
            Some(i) => pool.swap_remove(i),
            None => PriceTable::empty(tp, precision),
        };
        LeasedPrices {
            estimator: self,
            table,
        }
    }

    /// Phase-2 evaluation of one (TP, precision) point, computing the
    /// memory footprint in-line.
    ///
    /// # Errors
    ///
    /// Returns [`HwError`] when the device lacks the serving precision.
    pub fn estimate(&self, tp: usize, precision: Precision) -> Result<InferenceReport, HwError> {
        let memory = inference_memory(
            &self.model,
            self.batch,
            self.prefill + self.generate,
            tp,
            precision,
        );
        self.estimate_with_memory(tp, precision, memory)
    }

    /// Phase-2 evaluation with a memory footprint computed elsewhere — the
    /// sweep engine passes the footprint its pruning pass already derived.
    ///
    /// # Errors
    ///
    /// Returns [`HwError`] when the device lacks the serving precision.
    pub fn estimate_with_memory(
        &self,
        tp: usize,
        precision: Precision,
        memory: InferenceMemoryReport,
    ) -> Result<InferenceReport, HwError> {
        assert!(tp > 0, "tp must be positive");
        let parallelism = Parallelism::tensor_parallel(tp);
        let plan = CommPlan::new(self.cluster, parallelism);
        let layers = self.model.layers as f64;

        // --- prefill -----------------------------------------------------
        let pre_params = GraphParams::prefill(self.batch, self.prefill, tp, precision);
        let mut prefill_bd = InferenceBreakdown::default();
        let mut device_flops = FlopCount::ZERO;
        let mut dram_traffic = Bytes::ZERO;
        let mut network_traffic = Bytes::ZERO;
        let pre_layer = self.layer_cost(&pre_params)?;
        add_scaled(&mut prefill_bd, &pre_layer.bd, layers);
        device_flops += pre_layer.flops * layers;
        dram_traffic += pre_layer.dram * layers;

        // Two all-reduces per layer over the full prompt activations.
        let pre_volume =
            Bytes::new((self.batch * self.prefill * self.model.hidden) as f64 * precision.bytes());
        prefill_bd.communication += plan.tp_layer_inference(pre_volume) * layers;
        network_traffic += plan.tp_layer_forward_wire_bytes(pre_volume) * layers;

        // Embedding + head once (only the final token's logits matter for
        // generation, but serving stacks compute the full prompt's logits
        // in the summarization pass).
        let pre_extra = self.extra_cost(&pre_params)?;
        add_scaled(&mut prefill_bd, &pre_extra.bd, 1.0);
        device_flops += pre_extra.flops;
        dram_traffic += pre_extra.dram;

        let prefill_time = prefill_bd.total();

        // --- decode loop (exact, token by token) ---------------------------
        // Each step is the batch's decode row with the attention core
        // costed at that step's context. The all-reduce volume and the
        // embedding + LM-head stage never read the context, so every step
        // adds the same values, in the same order as costing it whole.
        let row = self.decode_row(self.batch, tp, precision)?;
        let decode_comm_volume =
            Bytes::new((self.batch * self.model.hidden) as f64 * precision.bytes());
        let step_comm = plan.tp_layer_inference(decode_comm_volume) * layers;
        let step_wire = plan.tp_layer_forward_wire_bytes(decode_comm_volume) * layers;
        let extra = self.extra_cost(&GraphParams::decode(
            self.batch,
            self.prefill,
            tp,
            precision,
        ))?;
        let mut decode_bd = InferenceBreakdown::default();
        for step in 0..self.generate {
            let dp = GraphParams::decode(self.batch, self.prefill + step, tp, precision);
            let mut layer = StepCost::default();
            self.walk_decode_layer(&row, &dp, |cost| layer.add(cost))?;
            add_scaled(&mut decode_bd, &layer.bd, layers);
            device_flops += layer.flops * layers;
            dram_traffic += layer.dram * layers;
            decode_bd.communication += step_comm;
            network_traffic += step_wire;

            add_scaled(&mut decode_bd, &extra.bd, 1.0);
            device_flops += extra.flops;
            dram_traffic += extra.dram;
        }
        let decode_time = decode_bd.total();
        let per_token = decode_time / self.generate as f64;

        // --- totals ---------------------------------------------------------
        let mut breakdown = prefill_bd;
        add_scaled(&mut breakdown, &decode_bd, 1.0);
        // `add_scaled` does not sum communication (it is not a KernelCost
        // category); combine explicitly.
        breakdown.communication = prefill_bd.communication + decode_bd.communication;

        // --- per-GEMM analyses ------------------------------------------------
        // The prefill table is a warm memo hit; the decode table costs the
        // layer once more at the final context, the one decode entry the
        // layer memo holds.
        let prefill_gemms = pre_layer.gemms.clone();
        let final_ctx = self.prefill + self.generate - 1;
        let decode_params = GraphParams::decode(self.batch, final_ctx, tp, precision);
        let decode_gemms = self.layer_cost(&decode_params)?.gemms.clone();

        Ok(InferenceReport {
            total: prefill_time + decode_time,
            prefill: prefill_time,
            decode: decode_time,
            per_token,
            breakdown,
            prefill_breakdown: prefill_bd,
            memory,
            prefill_gemms,
            decode_gemms,
            device_flops,
            dram_traffic,
            network_traffic,
        })
    }

    /// Wall-clock time of one continuous-batching **prefill iteration**:
    /// `batch` prompts of `prompt` tokens each run through every layer
    /// (with the per-layer TP all-reduces) plus the embedding/LM-head
    /// stage. Each call costs every layer and head op afresh: the serving
    /// simulator keeps the prices in a leased table
    /// ([`Self::lease_prices`]), which calls this once per prompt length.
    ///
    /// The request-shape fields the estimator was prepared with (`batch`,
    /// `prefill`, `generate`) are not consulted — iteration pricing is
    /// fully parameterized by its arguments.
    ///
    /// # Errors
    ///
    /// Returns [`HwError`] when the device lacks the serving precision.
    ///
    /// # Panics
    ///
    /// Panics if `batch`, `prompt`, or `tp` is zero.
    pub fn prefill_iteration(
        &self,
        batch: usize,
        prompt: usize,
        tp: usize,
        precision: Precision,
    ) -> Result<Time, HwError> {
        assert!(
            batch > 0 && prompt > 0 && tp > 0,
            "degenerate prefill iteration"
        );
        let gp = GraphParams::prefill(batch, prompt, tp, precision);
        let layer = self.ops_cost(&graph::layer_forward_ops(&self.model, &gp), precision)?;
        let extra = self.ops_cost(&self.extra_ops(&gp), precision)?;
        let layers = self.model.layers as f64;
        let plan = CommPlan::new(self.cluster, Parallelism::tensor_parallel(tp));
        let volume = Bytes::new((batch * prompt * self.model.hidden) as f64 * precision.bytes());
        Ok(layer.bd.total() * layers + plan.tp_layer_inference(volume) * layers + extra.bd.total())
    }

    /// Wall-clock time of one continuous-batching **decode iteration**:
    /// `batch` requests each generate one token attending over `kv_len`
    /// cached entries (a mixed batch is priced at its aggregate context —
    /// see `optimus-serve`), through every layer plus the per-layer TP
    /// all-reduces and the LM-head stage: the batch's memoized decode row
    /// plus the attention core costed at `kv_len`. No price is memoized
    /// here; the serving simulator keeps them in a leased table
    /// ([`Self::lease_prices`]), which calls this once per shape.
    ///
    /// For `batch = 1` this is exactly the per-step term of
    /// [`Self::estimate`]'s decode loop, which is what lets a serving
    /// simulator degenerate to the static analytical model when requests
    /// never overlap.
    ///
    /// # Errors
    ///
    /// Returns [`HwError`] when the device lacks the serving precision.
    ///
    /// # Panics
    ///
    /// Panics if `batch`, `kv_len`, or `tp` is zero.
    pub fn decode_iteration(
        &self,
        batch: usize,
        kv_len: usize,
        tp: usize,
        precision: Precision,
    ) -> Result<Time, HwError> {
        assert!(
            batch > 0 && kv_len > 0 && tp > 0,
            "degenerate decode iteration"
        );
        let row = self.decode_row(batch, tp, precision)?;
        self.decode_total(&row, &GraphParams::decode(batch, kv_len, tp, precision))
    }

    /// The decode row at `batch`, memoized on `(batch, tp, precision)`.
    fn decode_row(
        &self,
        batch: usize,
        tp: usize,
        precision: Precision,
    ) -> Result<Arc<DecodeRow>, HwError> {
        self.decode_rows
            .get_or_insert_with((batch, tp, precision), || {
                self.cost_decode_row(batch, tp, precision).map(Arc::new)
            })
    }

    /// Costs everything a decode iteration at `batch` prices without the
    /// KV context. The row is built at context 1: no op outside the
    /// attention core, nor the head stage or the all-reduce volume, reads
    /// `kv_len` (pinned by `decode_ops_differ_only_in_the_attention_core`
    /// and `extra_ops_are_context_independent`).
    fn cost_decode_row(
        &self,
        batch: usize,
        tp: usize,
        precision: Precision,
    ) -> Result<DecodeRow, HwError> {
        let gp = GraphParams::decode(batch, 1, tp, precision);
        let layer = graph::layer_forward_ops(&self.model, &gp)
            .iter()
            .map(|op| {
                if op.role.is_selective_recompute() {
                    Ok(None)
                } else {
                    op.cost(&self.roofline, precision).map(Some)
                }
            })
            .collect::<Result<_, _>>()?;
        let head = self.ops_cost(&self.extra_ops(&gp), precision)?.bd.total();
        let plan = CommPlan::new(self.cluster, Parallelism::tensor_parallel(tp));
        let volume = Bytes::new((batch * self.model.hidden) as f64 * precision.bytes());
        Ok(DecodeRow {
            layer,
            head,
            comm: plan.tp_layer_inference(volume),
        })
    }

    /// One decode iteration's time at `gp.kv_len` from its batch's row.
    fn decode_total(&self, row: &DecodeRow, gp: &GraphParams) -> Result<Time, HwError> {
        let mut bd = InferenceBreakdown::default();
        self.walk_decode_layer(row, gp, |cost| accumulate(&mut bd, cost))?;
        let layers = self.model.layers as f64;
        Ok(bd.total() * layers + row.comm * layers + row.head)
    }

    /// Hands `fold` the cost of every op of one decode layer at
    /// `gp.kv_len`, in `layer_forward_ops` order: the row's costs, with the
    /// attention core costed at that context in its holes. Folding them in
    /// this order gives the f64 sums of costing the whole layer op by op.
    fn walk_decode_layer(
        &self,
        row: &DecodeRow,
        gp: &GraphParams,
        mut fold: impl FnMut(&KernelCost),
    ) -> Result<(), HwError> {
        let mut core = graph::attention_core_ops(&self.model, gp).into_iter();
        for slot in &row.layer {
            match slot {
                Some(cost) => fold(cost),
                None => {
                    let op = core.next().expect("one attention-core op per hole");
                    fold(&op.cost(&self.roofline, gp.precision)?);
                }
            }
        }
        debug_assert!(
            core.next().is_none(),
            "every attention-core op fills a hole"
        );
        Ok(())
    }

    /// One transformer layer's kernels for the pass described by `gp`,
    /// memoized on `(batch, seq, kv_len, tp, precision)`.
    fn layer_cost(&self, gp: &GraphParams) -> Result<Arc<StepCost>, HwError> {
        let key = (gp.batch, gp.seq, gp.kv_len, gp.tp, gp.precision);
        self.layer_cache.get_or_insert_with(key, || {
            self.ops_cost(&graph::layer_forward_ops(&self.model, gp), gp.precision)
                .map(Arc::new)
        })
    }

    /// The embedding + LM-head stage for the pass described by `gp`,
    /// memoized on `(batch, seq, tp, precision)` — `kv_len` never reaches
    /// these ops, so every decode step shares one entry.
    fn extra_cost(&self, gp: &GraphParams) -> Result<Arc<StepCost>, HwError> {
        self.extra_cache
            .get_or_insert_with((gp.batch, gp.seq, gp.tp, gp.precision), || {
                self.ops_cost(&self.extra_ops(gp), gp.precision)
                    .map(Arc::new)
            })
    }

    /// The embedding + LM-head stage's ops.
    fn extra_ops(&self, gp: &GraphParams) -> Vec<Op> {
        let mut ops = graph::embedding_ops(&self.model, gp);
        ops.extend(graph::head_ops(&self.model, gp));
        ops
    }

    /// Costs an operator list, accumulating each kernel's time into the
    /// breakdown category of its bound type.
    fn ops_cost(&self, ops: &[Op], precision: Precision) -> Result<StepCost, HwError> {
        let mut total = StepCost::default();
        for op in ops {
            let cost = op.cost(&self.roofline, precision)?;
            total.add(&cost);
            if op.as_gemm().is_some() {
                total.gemms.push(GemmAnalysis {
                    role: op.role,
                    time: cost.total(),
                    bound: cost.bound(),
                });
            }
        }
        Ok(total)
    }
}

/// Adds `scale` copies of `src` kernel categories into `dst`
/// (communication is handled separately by the caller).
fn add_scaled(dst: &mut InferenceBreakdown, src: &InferenceBreakdown, scale: f64) {
    dst.compute += src.compute * scale;
    dst.memory += src.memory * scale;
    dst.overhead += src.overhead * scale;
}

/// Files one kernel's roofline time under its bound type, and its fixed
/// overhead under `overhead`.
fn accumulate(bd: &mut InferenceBreakdown, cost: &KernelCost) {
    let t = cost.roofline_time();
    if cost.bound().is_compute() {
        bd.compute += t;
    } else {
        bd.memory += t;
    }
    bd.overhead += cost.overhead;
}

/// One (TP, precision)'s serving prices in seconds, NaN where unpriced:
/// `prefill[tokens]` for a one-prompt prefill iteration and
/// `decode[batch][kv_len]` for a decode iteration. Rows grow on demand to
/// the largest index read.
#[derive(Debug)]
struct PriceTable {
    tp: usize,
    precision: Precision,
    prefill: Vec<f64>,
    decode: Vec<Vec<f64>>,
}

impl PriceTable {
    fn empty(tp: usize, precision: Precision) -> Self {
        Self {
            tp,
            precision,
            prefill: Vec::new(),
            decode: Vec::new(),
        }
    }
}

/// Stores `secs` at `row[index]`, growing the row with NaNs to reach it.
fn store(row: &mut Vec<f64>, index: usize, secs: f64) -> f64 {
    if row.len() <= index {
        row.resize(index + 1, f64::NAN);
    }
    row[index] = secs;
    secs
}

/// A serving price table checked out by
/// [`PreparedInferenceEstimator::lease_prices`], handed back to the
/// estimator's pool when dropped. A read is an index and a NaN test; an
/// unpriced entry is priced on first touch through
/// [`PreparedInferenceEstimator::prefill_iteration`] or
/// [`PreparedInferenceEstimator::decode_iteration`] and kept. A price is a
/// pure function of its entry's shape, so a warm table reads exactly what
/// an empty one computes.
#[derive(Debug)]
pub struct LeasedPrices<'e, 'a> {
    estimator: &'e PreparedInferenceEstimator<'a>,
    table: PriceTable,
}

impl LeasedPrices<'_, '_> {
    /// Seconds of one prefill iteration of a single `tokens`-token prompt.
    ///
    /// # Errors
    ///
    /// Returns [`HwError`] when the device lacks the table's precision.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` or the lease's TP is zero.
    #[inline]
    pub fn prefill(&mut self, tokens: usize) -> Result<f64, HwError> {
        match self.table.prefill.get(tokens) {
            Some(&secs) if !secs.is_nan() => Ok(secs),
            _ => self.price_prefill(tokens),
        }
    }

    /// Seconds of one decode iteration of `batch` requests at context
    /// `kv_len`.
    ///
    /// # Errors
    ///
    /// Returns [`HwError`] when the device lacks the table's precision.
    ///
    /// # Panics
    ///
    /// Panics if `batch`, `kv_len` or the lease's TP is zero.
    #[inline]
    pub fn decode(&mut self, batch: usize, kv_len: usize) -> Result<f64, HwError> {
        match self.table.decode.get(batch).and_then(|row| row.get(kv_len)) {
            Some(&secs) if !secs.is_nan() => Ok(secs),
            _ => self.price_decode(batch, kv_len),
        }
    }

    #[cold]
    fn price_prefill(&mut self, tokens: usize) -> Result<f64, HwError> {
        let t = &mut self.table;
        let price = self
            .estimator
            .prefill_iteration(1, tokens, t.tp, t.precision)?;
        Ok(store(&mut t.prefill, tokens, price.secs()))
    }

    #[cold]
    fn price_decode(&mut self, batch: usize, kv_len: usize) -> Result<f64, HwError> {
        let t = &mut self.table;
        let price = self
            .estimator
            .decode_iteration(batch, kv_len, t.tp, t.precision)?;
        if t.decode.len() <= batch {
            t.decode.resize_with(batch + 1, Vec::new);
        }
        Ok(store(&mut t.decode[batch], kv_len, price.secs()))
    }

    /// The prefill row: entry `tokens` is [`Self::prefill`]'s price, NaN
    /// where unpriced.
    #[must_use]
    pub fn prefill_row(&self) -> &[f64] {
        &self.table.prefill
    }

    /// The decode rows: entry `[batch][kv_len]` is [`Self::decode`]'s
    /// price, NaN where unpriced.
    #[must_use]
    pub fn decode_rows(&self) -> &[Vec<f64>] {
        &self.table.decode
    }

    /// Number of priced entries.
    #[must_use]
    pub fn priced(&self) -> usize {
        let priced = |row: &[f64]| row.iter().filter(|p| !p.is_nan()).count();
        priced(&self.table.prefill) + self.table.decode.iter().map(|r| priced(r)).sum::<usize>()
    }
}

impl Drop for LeasedPrices<'_, '_> {
    fn drop(&mut self) {
        let empty = PriceTable::empty(self.table.tp, self.table.precision);
        let table = core::mem::replace(&mut self.table, empty);
        self.estimator
            .tables
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InferenceConfig, InferenceEstimator};
    use optimus_hw::presets;
    use optimus_model::presets as models;

    /// The prepared path and the one-shot estimator must produce identical
    /// reports — same code, memoized vs not.
    #[test]
    fn prepared_matches_one_shot_estimator() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_13b());
        let prepared = PreparedInferenceEstimator::new(&cluster, Arc::clone(&model), 1, 200, 32);
        for tp in [1, 2, 8] {
            let cfg = InferenceConfig::new(Arc::clone(&model), 1, 200, 32, tp);
            let one_shot = InferenceEstimator::new(&cluster).estimate(&cfg).unwrap();
            let fast = prepared.estimate(tp, Precision::Fp16).unwrap();
            assert_eq!(one_shot, fast, "tp={tp}");
        }
    }

    /// The load-bearing assumption behind [`ExtraKey`]: the embedding and
    /// LM-head operator lists must be **identical across context lengths**
    /// (only `seq`/`tp`/`precision` may shape them). This pins the graph
    /// builder itself, independently of the memoized evaluation path — if
    /// a future graph change makes these ops read `kv_len`, this fails
    /// even though the memoized and naive paths would agree (both would
    /// share the same wrong entry).
    #[test]
    fn extra_ops_are_context_independent() {
        let model = models::llama2_70b(); // GQA: the most structured head
        for tp in [1, 4] {
            let short = GraphParams::decode(2, 10, tp, Precision::Fp16);
            let long = GraphParams::decode(2, 4000, tp, Precision::Fp16);
            assert_eq!(
                graph::embedding_ops(&model, &short),
                graph::embedding_ops(&model, &long),
                "embedding ops must not depend on kv_len (tp={tp})"
            );
            assert_eq!(
                graph::head_ops(&model, &short),
                graph::head_ops(&model, &long),
                "head ops must not depend on kv_len (tp={tp})"
            );
        }
    }

    /// The load-bearing assumption behind [`DecodeRow`]: across contexts a
    /// decode layer keeps the same roles at the same positions, every op
    /// outside the attention core (`OpRole::is_selective_recompute`)
    /// equals its kv = 1 counterpart, and the attention-core ops are
    /// exactly `graph::attention_core_ops` — so a row built at context 1
    /// prices any context once its holes are filled. MHA, GQA and a GPT
    /// layer (LayerNorm, GELU, dropout, learned positions) cover every op
    /// the graph emits.
    #[test]
    fn decode_ops_differ_only_in_the_attention_core() {
        for model in [
            models::llama2_13b(),
            models::llama2_70b(),
            models::gpt_175b(),
        ] {
            for tp in [1, 2, 8] {
                for batch in [1, 3, 64, 1000] {
                    let at = |kv| GraphParams::decode(batch, kv, tp, Precision::Fp16);
                    let base = graph::layer_forward_ops(&model, &at(1));
                    for kv in [2, 257, 4096] {
                        let ops = graph::layer_forward_ops(&model, &at(kv));
                        let case = format!("{} tp={tp} batch={batch} kv={kv}", model.name);
                        assert_eq!(ops.len(), base.len(), "{case}");
                        for (op, first) in ops.iter().zip(&base) {
                            assert_eq!(op.role, first.role, "{case}");
                            if !op.role.is_selective_recompute() {
                                assert_eq!(op, first, "{case}");
                            }
                        }
                        let core: Vec<Op> = ops
                            .into_iter()
                            .filter(|op| op.role.is_selective_recompute())
                            .collect();
                        assert_eq!(core, graph::attention_core_ops(&model, &at(kv)), "{case}");
                    }
                }
            }
        }
    }

    /// The serving iteration APIs are the static estimator's own terms: a
    /// prefill iteration plus the per-step decode iterations must sum to
    /// the one-shot report's end-to-end latency (up to f64 summation
    /// order).
    #[test]
    fn iterations_sum_to_the_one_shot_estimate() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_13b());
        let (batch, prompt, generate) = (2, 150, 24);
        for tp in [1, 4] {
            let prepared = PreparedInferenceEstimator::new(
                &cluster,
                Arc::clone(&model),
                batch,
                prompt,
                generate,
            );
            let report = prepared.estimate(tp, Precision::Fp16).unwrap();
            let serving = PreparedInferenceEstimator::for_serving(&cluster, Arc::clone(&model));
            let mut total = serving
                .prefill_iteration(batch, prompt, tp, Precision::Fp16)
                .unwrap();
            for step in 0..generate {
                total += serving
                    .decode_iteration(batch, prompt + step, tp, Precision::Fp16)
                    .unwrap();
            }
            let rel = (total.secs() - report.total.secs()).abs() / report.total.secs();
            assert!(rel < 1e-9, "tp={tp}: rel err {rel}");
        }
    }

    /// Decode iterations must be priced per batch size: a batch of 8
    /// decodes costs more than a batch of 1 (weights amortize, KV reads
    /// do not) but far less than 8 separate batch-1 iterations.
    #[test]
    fn decode_iterations_batch_sublinearly() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let serving =
            PreparedInferenceEstimator::for_serving(&cluster, Arc::new(models::llama2_13b()));
        let one = serving
            .decode_iteration(1, 500, 1, Precision::Fp16)
            .unwrap();
        let eight = serving
            .decode_iteration(8, 500, 1, Precision::Fp16)
            .unwrap();
        assert!(eight > one, "more work must take longer");
        assert!(
            eight < one * 8.0,
            "batching must amortize the weight reads: {eight} vs 8×{one}"
        );
    }

    /// An unsupported precision (Ampere has no FP8) is an error cold and
    /// from the memo: the failed row is cached like any value, so a repeat
    /// neither recosts nor grows the memo, and a second context at the
    /// same batch fails through the cached row.
    #[test]
    fn unsupported_precision_errors_cold_and_from_the_memo() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let serving =
            PreparedInferenceEstimator::for_serving(&cluster, Arc::new(models::llama2_13b()));
        let unsupported = |r: Result<Time, HwError>| {
            matches!(
                r,
                Err(HwError::UnsupportedPrecision {
                    precision: Precision::Fp8,
                    ..
                })
            )
        };
        assert!(unsupported(serving.decode_iteration(
            4,
            100,
            2,
            Precision::Fp8
        )));
        assert_eq!(serving.cached_keys(), 1, "the failed row");
        assert!(unsupported(serving.decode_iteration(
            4,
            100,
            2,
            Precision::Fp8
        )));
        assert_eq!(serving.cached_keys(), 1, "a repeat is a cache hit");
        assert!(unsupported(serving.decode_iteration(
            4,
            7,
            2,
            Precision::Fp8
        )));
        assert_eq!(serving.cached_keys(), 1, "the failed row is shared");
    }

    /// The tables a lease of `(tp, precision)` would pick from.
    fn pooled(
        estimator: &PreparedInferenceEstimator<'_>,
        tp: usize,
        precision: Precision,
    ) -> usize {
        let pool = estimator.tables.lock().unwrap();
        pool.iter()
            .filter(|t| t.tp == tp && t.precision == precision)
            .count()
    }

    /// A leased table prices a missing entry once, at exactly the
    /// estimator's price, and goes back to the pool warm: the next lease
    /// of its TP and precision gets it, a lease of another TP or precision
    /// never does, and two leases held at once get distinct tables.
    #[test]
    fn a_returned_table_goes_warm_to_the_next_lease_of_its_key() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let serving =
            PreparedInferenceEstimator::for_serving(&cluster, Arc::new(models::llama2_13b()));
        let fp16 = Precision::Fp16;
        let mut table = serving.lease_prices(2, fp16);
        assert_eq!(table.priced(), 0, "a first lease is empty");
        let prefill = table.prefill(300).unwrap();
        let decode = table.decode(8, 500).unwrap();
        let exact = serving.decode_iteration(8, 500, 2, fp16).unwrap();
        assert_eq!(decode.to_bits(), exact.secs().to_bits());
        let exact = serving.prefill_iteration(1, 300, 2, fp16).unwrap();
        assert_eq!(prefill.to_bits(), exact.secs().to_bits());
        assert_eq!(table.decode(8, 500).unwrap().to_bits(), decode.to_bits());
        assert_eq!(table.priced(), 2, "a repeat read prices nothing");
        assert_eq!(table.decode_rows()[8].len(), 501);
        drop(table);
        assert_eq!(pooled(&serving, 2, fp16), 1);

        for (tp, precision) in [(1, fp16), (4, fp16), (2, Precision::Fp8)] {
            let other = serving.lease_prices(tp, precision);
            assert_eq!(other.priced(), 0, "TP{tp} {precision}");
        }
        let warm = serving.lease_prices(2, fp16);
        assert_eq!(warm.priced(), 2, "the returned table, warm");
        assert_eq!(warm.prefill_row()[300].to_bits(), prefill.to_bits());
        let mut second = serving.lease_prices(2, fp16);
        assert_eq!(second.priced(), 0, "a table held elsewhere is not shared");
        second.decode(1, 7).unwrap();
        assert_eq!((warm.priced(), second.priced()), (2, 1));
        drop((warm, second));
        assert_eq!(
            pooled(&serving, 2, fp16),
            2,
            "one table per concurrent lease"
        );
        drop(serving.lease_prices(2, fp16));
        assert_eq!(pooled(&serving, 2, fp16), 2);
    }

    /// A point's memo keys do not grow with `generate`: every decode step
    /// shares one decode row and one embedding/head entry, and the layer
    /// memo holds the prefill layer plus the decode layer at the final
    /// context (for the per-GEMM table), never an entry per context.
    #[test]
    fn memo_keys_do_not_grow_with_generate() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let keys = |generate| {
            let prepared = PreparedInferenceEstimator::new(
                &cluster,
                Arc::new(models::llama2_7b()),
                1,
                100,
                generate,
            );
            prepared.estimate(1, Precision::Fp16).unwrap();
            let after_one = prepared.cached_keys();
            // A second estimate at the same point adds nothing.
            prepared.estimate(1, Precision::Fp16).unwrap();
            assert_eq!(prepared.cached_keys(), after_one, "generate={generate}");
            after_one
        };
        assert_eq!(keys(16), keys(200));
    }
}

//! Per-device operator-graph builders.
//!
//! These functions expand a [`ModelConfig`] into the list of operators one
//! device executes for one transformer layer (or for the embedding/head
//! stages), **already sharded** under Megatron-style tensor parallelism:
//!
//! * the Q/K/V and MLP-up weight matrices are split along *columns* and the
//!   output/MLP-down matrices along *rows* (§3.2), so GEMM `n` or `k`
//!   dimensions divide by the TP degree;
//! * attention heads are independent, so per-head GEMMs shard by head;
//! * with sequence parallelism the norm/dropout/residual streams also
//!   divide by the TP degree (§1.3), otherwise they are replicated.
//!
//! The collectives these shardings imply are *not* represented here — the
//! parallelization mapper (`optimus-parallel`) plans them — so the same
//! graph serves both communication-inclusive estimators and pure
//! device-kernel studies like Table 4.

use crate::{FlashAttentionOp, MlpKind, ModelConfig, NormKind, Op, OpRole};
use optimus_hw::Precision;
use optimus_roofline::{EltwiseKind, EltwiseOp};
use serde::{Deserialize, Serialize};

/// Workload parameters for graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphParams {
    /// Samples processed together (the microbatch for training, the
    /// serving batch for inference).
    pub batch: usize,
    /// New tokens processed per sample in this pass: the full sequence for
    /// training/prefill, 1 for an auto-regressive decode step.
    pub seq: usize,
    /// Attention context length (KV entries attended over). Equals `seq`
    /// for training and prefill; grows with generated tokens for decode.
    pub kv_len: usize,
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Whether sequence parallelism shards the norm/dropout streams.
    pub sp: bool,
    /// Activation/weight precision (sets element widths of streams).
    pub precision: Precision,
    /// Use the fused FlashAttention kernel instead of materialized
    /// scores/softmax/dropout/context ops (training and prefill only; the
    /// paper notes flash-style kernels do not help single-token decode).
    pub flash: bool,
}

impl GraphParams {
    /// Parameters for a training or prefill pass over `seq` tokens.
    #[must_use]
    pub fn prefill(batch: usize, seq: usize, tp: usize, precision: Precision) -> Self {
        Self {
            batch,
            seq,
            kv_len: seq,
            tp,
            sp: false,
            precision,
            flash: false,
        }
    }

    /// Parameters for one decode step attending over `kv_len` cached
    /// tokens.
    #[must_use]
    pub fn decode(batch: usize, kv_len: usize, tp: usize, precision: Precision) -> Self {
        Self {
            batch,
            seq: 1,
            kv_len,
            tp,
            sp: false,
            precision,
            flash: false,
        }
    }

    /// Enables sequence parallelism.
    #[must_use]
    pub fn with_sp(mut self, sp: bool) -> Self {
        self.sp = sp;
        self
    }

    /// Selects the FlashAttention implementation.
    #[must_use]
    pub fn with_flash(mut self, flash: bool) -> Self {
        self.flash = flash;
        self
    }

    /// Tokens processed per pass across the batch.
    #[must_use]
    pub fn tokens(&self) -> usize {
        self.batch * self.seq
    }

    fn stream_div(&self) -> usize {
        if self.sp {
            self.tp
        } else {
            1
        }
    }
}

fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b).max(1)
}

/// Builds the forward operator list of **one transformer layer** on one
/// device.
#[must_use]
pub fn layer_forward_ops(model: &ModelConfig, p: &GraphParams) -> Vec<Op> {
    assert!(
        p.batch > 0 && p.seq > 0 && p.kv_len > 0 && p.tp > 0,
        "degenerate graph params"
    );
    let h = model.hidden;
    let t = p.tp;
    let bytes = p.precision.bytes();
    let tokens = p.tokens();
    let sdiv = p.stream_div();

    let norm_kind = match model.norm {
        NormKind::LayerNorm => EltwiseKind::LayerNorm,
        NormKind::RmsNorm => EltwiseKind::RmsNorm,
    };
    let stream = |role: OpRole, kind: EltwiseKind, elements: f64| {
        Op::eltwise(role, EltwiseOp::new(kind, elements, bytes))
    };
    let norm_elems = (tokens * h) as f64 / sdiv as f64;

    let mut ops = Vec::with_capacity(20);

    // --- attention block ------------------------------------------------
    ops.push(stream(OpRole::InputNorm, norm_kind, norm_elems));

    // Merged QKV projection, column-parallel: width (h + 2·kv_hidden)/t.
    let qkv_n = div_ceil(h + 2 * model.kv_hidden(), t);
    ops.push(Op::gemm(OpRole::QkvProjection, 1, tokens, qkv_n, h));

    if !model.learned_pos_embedding {
        // Rotary embedding on the Q and K shards.
        let rope_elems = (tokens * div_ceil(h + model.kv_hidden(), t)) as f64;
        ops.push(stream(OpRole::Rope, EltwiseKind::Rope, rope_elems));
    }

    // Attention core: one fused kernel where FlashAttention applies (the
    // s x s intermediates never reach DRAM), the unfused ops otherwise.
    if p.flash && p.seq > 1 {
        let (attn_batch, q_rows) = attention_batching(model, p);
        ops.push(Op::flash(FlashAttentionOp::forward(
            attn_batch,
            q_rows,
            p.kv_len,
            model.head_dim(),
            bytes,
        )));
    } else {
        ops.extend(attention_core_ops(model, p));
    }

    // Output projection, row-parallel: k = h/t.
    ops.push(Op::gemm(
        OpRole::OutputProjection,
        1,
        tokens,
        h,
        div_ceil(h, t),
    ));
    if model.dropout {
        ops.push(stream(
            OpRole::PostAttnDropout,
            EltwiseKind::Dropout,
            norm_elems,
        ));
    }
    ops.push(stream(OpRole::ResidualAdd1, EltwiseKind::Add, norm_elems));

    // --- MLP block --------------------------------------------------------
    ops.push(stream(OpRole::PostAttnNorm, norm_kind, norm_elems));
    let f_shard = div_ceil(model.ffn, t);
    ops.push(Op::gemm(OpRole::MlpUp, 1, tokens, f_shard, h));
    let act_elems = (tokens * f_shard) as f64;
    match model.mlp {
        MlpKind::Gelu => {
            ops.push(stream(OpRole::MlpActivation, EltwiseKind::Gelu, act_elems));
        }
        MlpKind::SwiGlu => {
            ops.push(Op::gemm(OpRole::MlpGate, 1, tokens, f_shard, h));
            ops.push(stream(OpRole::MlpActivation, EltwiseKind::Silu, act_elems));
        }
    }
    ops.push(Op::gemm(OpRole::MlpDown, 1, tokens, h, f_shard));
    if model.dropout {
        ops.push(stream(OpRole::MlpDropout, EltwiseKind::Dropout, norm_elems));
    }
    ops.push(stream(OpRole::ResidualAdd2, EltwiseKind::Add, norm_elems));

    ops
}

/// The per-device batching of the attention-core GEMMs, `(batch, query
/// rows)`. Heads shard over TP; with GQA the K/V of one group are shared
/// by `a/g` query heads, so the natural kernel is one GEMM per (sample,
/// kv-group): `m = (a/g)·seq` query rows against `n = kv_len` keys.
fn attention_batching(model: &ModelConfig, p: &GraphParams) -> (usize, usize) {
    let g = model.kv_heads();
    (p.batch * div_ceil(g, p.tp), (model.heads / g) * p.seq)
}

/// The unfused attention core of one layer on one device: scores, softmax,
/// attention dropout (dropout models only) and the context gather, in
/// execution order. They are the only layer ops that read the KV context
/// and the ones selective recomputation replays; [`layer_forward_ops`]
/// emits exactly these wherever FlashAttention does not fuse them.
#[must_use]
pub fn attention_core_ops(model: &ModelConfig, p: &GraphParams) -> Vec<Op> {
    let (attn_batch, q_rows) = attention_batching(model, p);
    let hd = model.head_dim();
    let bytes = p.precision.bytes();
    let probs = (p.batch * div_ceil(model.heads, p.tp) * p.seq * p.kv_len) as f64;
    let probs_op =
        |role: OpRole, kind: EltwiseKind| Op::eltwise(role, EltwiseOp::new(kind, probs, bytes));
    let mut ops = Vec::with_capacity(4);
    ops.push(Op::gemm(
        OpRole::AttnScores,
        attn_batch,
        q_rows,
        p.kv_len,
        hd,
    ));
    ops.push(probs_op(OpRole::Softmax, EltwiseKind::Softmax));
    if model.dropout {
        ops.push(probs_op(OpRole::AttnDropout, EltwiseKind::Dropout));
    }
    ops.push(Op::gemm(
        OpRole::AttnOverValues,
        attn_batch,
        q_rows,
        hd,
        p.kv_len,
    ));
    ops
}

/// Builds the backward operator list of one layer from its forward list.
///
/// Every forward GEMM `C[m×n] = A[m×k]·B[k×n]` spawns two backward GEMMs of
/// equal FLOPs: the data gradient `dA = dC·Bᵀ` (shape `m×k×n`) and the
/// weight gradient `dB = Aᵀ·dC` (shape `k×n×m`) — which is why the backward
/// pass costs twice the forward pass. Streaming ops re-traverse their
/// streams once (dropout replays its mask; norms and activations apply
/// their local derivative).
#[must_use]
pub fn layer_backward_ops(model: &ModelConfig, p: &GraphParams) -> Vec<Op> {
    let mut ops = Vec::with_capacity(32);
    for op in layer_forward_ops(model, p) {
        match op.kind {
            crate::OpKind::Gemm(gemm) => {
                let s = gemm.shape;
                // dA = dC · Bᵀ.
                ops.push(Op::gemm(op.role, gemm.batch, s.m, s.k, s.n));
                // dB = Aᵀ · dC; per-head attention GEMMs have no weights but
                // still produce gradients for both operands (dQ and dK), so
                // the same pair applies.
                ops.push(Op::gemm(op.role, gemm.batch, s.k, s.n, s.m));
            }
            crate::OpKind::Eltwise(e) => {
                ops.push(Op::eltwise(op.role, e));
            }
            crate::OpKind::Flash(fa) => {
                ops.push(Op::flash(fa.backward()));
            }
        }
    }
    ops
}

/// Embedding-stage ops: token lookup (plus learned-position add for GPT).
#[must_use]
pub fn embedding_ops(model: &ModelConfig, p: &GraphParams) -> Vec<Op> {
    let bytes = p.precision.bytes();
    let elems = (p.tokens() * model.hidden) as f64;
    let mut ops = vec![Op::eltwise(
        OpRole::Embedding,
        EltwiseOp::new(EltwiseKind::Map, elems, bytes),
    )];
    if model.learned_pos_embedding {
        ops.push(Op::eltwise(
            OpRole::Embedding,
            EltwiseOp::new(EltwiseKind::Add, elems, bytes),
        ));
    }
    ops
}

/// Head-stage ops: final norm, vocabulary projection (column-parallel over
/// TP), and the output softmax.
#[must_use]
pub fn head_ops(model: &ModelConfig, p: &GraphParams) -> Vec<Op> {
    let bytes = p.precision.bytes();
    let tokens = p.tokens();
    let norm_kind = match model.norm {
        NormKind::LayerNorm => EltwiseKind::LayerNorm,
        NormKind::RmsNorm => EltwiseKind::RmsNorm,
    };
    let v_shard = div_ceil(model.vocab, p.tp);
    vec![
        Op::eltwise(
            OpRole::FinalNorm,
            EltwiseOp::new(norm_kind, (tokens * model.hidden) as f64, bytes),
        ),
        Op::gemm(OpRole::LmHead, 1, tokens, v_shard, model.hidden),
        Op::eltwise(
            OpRole::OutputSoftmax,
            EltwiseOp::new(EltwiseKind::Softmax, (tokens * v_shard) as f64, bytes),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{presets, total_flops};

    /// The classic per-layer FLOP formula for GPT training forward:
    /// `24·b·s·h² + 4·b·s²·h` (MHA, FFN = 4h), which the GEMM graph must
    /// reproduce when unsharded.
    #[test]
    fn gpt_layer_flops_match_closed_form() {
        let m = presets::gpt_175b();
        let (b, s) = (4, 2048);
        let p = GraphParams::prefill(b, s, 1, Precision::Fp16);
        let gemm_flops: f64 = layer_forward_ops(&m, &p)
            .iter()
            .filter(|o| o.as_gemm().is_some())
            .map(|o| o.flops().get())
            .sum();
        let h = m.hidden as f64;
        let expected = 24.0 * (b * s) as f64 * h * h + 4.0 * (b as f64) * (s as f64).powi(2) * h;
        let err = (gemm_flops - expected).abs() / expected;
        assert!(err < 1e-6, "relative error {err}");
    }

    #[test]
    fn tp_divides_gemm_work() {
        let m = presets::gpt_175b();
        let p1 = GraphParams::prefill(1, 2048, 1, Precision::Fp16);
        let p8 = GraphParams::prefill(1, 2048, 8, Precision::Fp16);
        let f1 = total_flops(&layer_forward_ops(&m, &p1)).get();
        let f8 = total_flops(&layer_forward_ops(&m, &p8)).get();
        let ratio = f1 / f8;
        assert!((ratio - 8.0).abs() < 0.5, "TP=8 shard ratio {ratio:.2}");
    }

    #[test]
    fn backward_gemm_flops_are_twice_forward() {
        let m = presets::gpt_22b();
        let p = GraphParams::prefill(2, 1024, 4, Precision::Fp16);
        let fwd: f64 = layer_forward_ops(&m, &p)
            .iter()
            .filter_map(|o| o.as_gemm().map(|g| g.flops().get()))
            .sum();
        let bwd: f64 = layer_backward_ops(&m, &p)
            .iter()
            .filter_map(|o| o.as_gemm().map(|g| g.flops().get()))
            .sum();
        assert!((bwd / fwd - 2.0).abs() < 1e-9);
    }

    #[test]
    fn decode_step_attends_full_context() {
        let m = presets::llama2_13b();
        let p = GraphParams::decode(1, 400, 1, Precision::Fp16);
        let ops = layer_forward_ops(&m, &p);
        let scores = ops
            .iter()
            .find(|o| o.role == OpRole::AttnScores)
            .and_then(Op::as_gemm)
            .expect("scores GEMM");
        assert_eq!(scores.shape.n, 400, "attends over the KV cache");
        assert_eq!(scores.shape.m, 1, "one new token per head");
        let qkv = ops
            .iter()
            .find(|o| o.role == OpRole::QkvProjection)
            .and_then(Op::as_gemm)
            .unwrap();
        assert_eq!(qkv.shape.m, 1, "decode GEMMs are skinny");
    }

    #[test]
    fn gqa_shares_kv_between_groups() {
        let m = presets::llama2_70b(); // 64 q heads, 8 kv heads
        let p = GraphParams::prefill(1, 256, 1, Precision::Fp16);
        let ops = layer_forward_ops(&m, &p);
        let scores = ops
            .iter()
            .find(|o| o.role == OpRole::AttnScores)
            .and_then(Op::as_gemm)
            .unwrap();
        assert_eq!(scores.batch, 8, "one GEMM per kv group");
        assert_eq!(scores.shape.m, 8 * 256, "8 query heads per group");
        assert_eq!(scores.shape.k, 128);
    }

    #[test]
    fn swiglu_has_gate_gemm_and_gelu_does_not() {
        let p = GraphParams::prefill(1, 64, 1, Precision::Fp16);
        let llama = layer_forward_ops(&presets::llama2_7b(), &p);
        assert!(llama.iter().any(|o| o.role == OpRole::MlpGate));
        let gpt = layer_forward_ops(&presets::gpt_7b(), &p);
        assert!(!gpt.iter().any(|o| o.role == OpRole::MlpGate));
    }

    #[test]
    fn dropout_only_in_dropout_models() {
        let p = GraphParams::prefill(1, 64, 1, Precision::Fp16);
        let gpt = layer_forward_ops(&presets::gpt_7b(), &p);
        assert!(gpt.iter().any(|o| o.role == OpRole::AttnDropout));
        let llama = layer_forward_ops(&presets::llama2_7b(), &p);
        assert!(!llama.iter().any(|o| o.role == OpRole::AttnDropout));
    }

    #[test]
    fn sp_shards_streaming_ops() {
        let m = presets::gpt_22b();
        let base = GraphParams::prefill(1, 2048, 8, Precision::Fp16);
        let with_sp = base.with_sp(true);
        let elems = |ops: &[Op], role: OpRole| -> f64 {
            ops.iter()
                .find(|o| o.role == role)
                .map(|o| match o.kind {
                    crate::OpKind::Eltwise(e) => e.elements,
                    _ => panic!("expected eltwise"),
                })
                .unwrap()
        };
        let plain = elems(&layer_forward_ops(&m, &base), OpRole::InputNorm);
        let sharded = elems(&layer_forward_ops(&m, &with_sp), OpRole::InputNorm);
        assert!((plain / sharded - 8.0).abs() < 1e-9);
    }

    #[test]
    fn flash_replaces_attention_core() {
        let m = presets::gpt_7b();
        let std = GraphParams::prefill(2, 2048, 1, Precision::Fp16);
        let fla = std.with_flash(true);
        let std_ops = layer_forward_ops(&m, &std);
        let fla_ops = layer_forward_ops(&m, &fla);
        assert!(std_ops.iter().any(|o| o.role == OpRole::AttnScores));
        assert!(!fla_ops.iter().any(|o| o.role == OpRole::AttnScores));
        assert!(!fla_ops.iter().any(|o| o.role == OpRole::Softmax));
        assert_eq!(
            fla_ops
                .iter()
                .filter(|o| o.role == OpRole::FlashAttention)
                .count(),
            1
        );
    }

    #[test]
    fn flash_preserves_attention_gemm_flops() {
        let m = presets::gpt_7b();
        let p = GraphParams::prefill(1, 4096, 1, Precision::Fp16);
        let std_attn: f64 = layer_forward_ops(&m, &p)
            .iter()
            .filter(|o| matches!(o.role, OpRole::AttnScores | OpRole::AttnOverValues))
            .map(|o| o.flops().get())
            .sum();
        let flash_flops = layer_forward_ops(&m, &p.with_flash(true))
            .iter()
            .find(|o| o.role == OpRole::FlashAttention)
            .unwrap()
            .flops()
            .get();
        // Flash adds the online-softmax arithmetic on top of the two GEMMs.
        assert!(flash_flops > std_attn);
        assert!(flash_flops < std_attn * 1.2);
    }

    #[test]
    fn decode_ignores_flash_flag() {
        // Flash kernels target prefill/training; single-token decode keeps
        // the standard path even when requested.
        let m = presets::llama2_7b();
        let p = GraphParams::decode(1, 512, 1, Precision::Fp16).with_flash(true);
        let ops = layer_forward_ops(&m, &p);
        assert!(ops.iter().any(|o| o.role == OpRole::AttnScores));
        assert!(!ops.iter().any(|o| o.role == OpRole::FlashAttention));
    }

    #[test]
    fn flash_backward_costs_more_than_forward() {
        let m = presets::gpt_7b();
        let p = GraphParams::prefill(1, 2048, 1, Precision::Fp16).with_flash(true);
        let fwd = layer_forward_ops(&m, &p);
        let bwd = layer_backward_ops(&m, &p);
        let flash_flops = |ops: &[Op]| -> f64 {
            ops.iter()
                .filter(|o| o.role == OpRole::FlashAttention)
                .map(|o| o.flops().get())
                .sum()
        };
        assert!(flash_flops(&bwd) > 2.0 * flash_flops(&fwd));
    }

    #[test]
    fn head_ops_shard_vocab() {
        let m = presets::gpt_175b();
        let p = GraphParams::prefill(1, 2048, 8, Precision::Fp16);
        let ops = head_ops(&m, &p);
        let lm = ops
            .iter()
            .find(|o| o.role == OpRole::LmHead)
            .and_then(Op::as_gemm)
            .unwrap();
        assert_eq!(lm.shape.n, 6400, "51200 / 8");
    }
}

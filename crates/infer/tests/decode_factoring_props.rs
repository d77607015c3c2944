//! Property tests of context-factored decode pricing.
//!
//! `PreparedInferenceEstimator` prices a decode iteration from a per-batch
//! row of context-free kernel costs plus the attention core costed at the
//! iteration's context. The reference here prices it the naive way: it
//! costs every op of `layer_forward_ops` and of the embedding/LM-head
//! stage through the public `RooflineModel`, files each kernel by bound
//! type in op order, and adds the TP all-reduces. Over random batches,
//! contexts and TP degrees, three model shapes (MHA, GQA, and a GPT layer
//! with LayerNorm, GELU, dropout and learned positions) and two devices
//! (Fp16 on A100, Fp8 on H100):
//!
//! * `decode_iteration` equals the reference **to the bit**, cold and
//!   warm, and neither a warm repeat nor a second context at the same
//!   batch adds a memo key (the row is shared, and no price is memoized);
//! * when eight threads race on every first touch of one shared
//!   estimator, over (batch, context) pairs whose rows are shared, every
//!   price still equals the reference to the bit, and the memo ends up
//!   with exactly the keys a single-threaded fill leaves;
//! * the one-shot `estimate`, whose decode loop prices each step from
//!   the same rows, equals the unfactored, unmemoized loop (every op of
//!   the prefill layer, of each step's decode layer and of the
//!   embedding/LM-head stage costed and folded in op order, plus the
//!   all-reduces) **to the bit** in every time, breakdown category,
//!   traffic volume and decode-GEMM row.

use optimus_hw::{presets, ClusterSpec, Precision};
use optimus_infer::{GemmAnalysis, InferenceBreakdown, PreparedInferenceEstimator};
use optimus_model::{graph, presets as models, GraphParams, ModelConfig, Op, OpKind};
use optimus_parallel::{CommPlan, Parallelism};
use optimus_roofline::RooflineModel;
use optimus_units::{Bytes, FlopCount, Time};
use proptest::prelude::*;
use rayon::prelude::*;
use std::sync::{Arc, Barrier};

/// MHA, GQA, and the GPT layer.
fn model(index: usize) -> Arc<ModelConfig> {
    Arc::new(match index {
        0 => models::llama2_13b(),
        1 => models::llama2_70b(),
        _ => models::gpt_175b(),
    })
}

/// Fp16 on A100 or Fp8 on H100.
fn device(index: usize) -> (ClusterSpec, Precision) {
    match index {
        0 => (presets::dgx_a100_hdr_cluster(), Precision::Fp16),
        _ => (presets::dgx_h100_ndr_cluster(), Precision::Fp8),
    }
}

/// An op list's costs folded in op order: each kernel's roofline time
/// filed under its bound type and its overhead under `overhead`, its
/// FLOPs and DRAM bytes summed, and a row per GEMM.
#[derive(Default)]
struct Folded {
    bd: InferenceBreakdown,
    flops: FlopCount,
    dram: Bytes,
    gemms: Vec<GemmAnalysis>,
}

/// `ops` costed one by one through the public roofline and folded.
fn fold(roofline: &RooflineModel<'_>, ops: &[Op], precision: Precision) -> Folded {
    let mut out = Folded::default();
    for op in ops {
        let cost = match op.kind {
            OpKind::Gemm(g) => roofline.batched_gemm(g, precision).unwrap(),
            OpKind::Eltwise(e) => roofline.eltwise(e),
            OpKind::Flash(fa) => roofline
                .custom_kernel(fa.flops(), &fa.traffic(), precision)
                .unwrap(),
        };
        if cost.bound().is_compute() {
            out.bd.compute += cost.roofline_time();
        } else {
            out.bd.memory += cost.roofline_time();
        }
        out.bd.overhead += cost.overhead;
        out.flops += cost.flops;
        out.dram += cost.dram_traffic();
        if let OpKind::Gemm(_) = op.kind {
            out.gemms.push(GemmAnalysis {
                role: op.role,
                time: cost.total(),
                bound: cost.bound(),
            });
        }
    }
    out
}

/// The time of `ops` costed one by one and folded in op order.
fn op_by_op(roofline: &RooflineModel<'_>, ops: &[Op], precision: Precision) -> Time {
    fold(roofline, ops, precision).bd.total()
}

/// The embedding + LM-head stage's ops.
fn extra_ops(model: &ModelConfig, gp: &GraphParams) -> Vec<Op> {
    let mut ops = graph::embedding_ops(model, gp);
    ops.extend(graph::head_ops(model, gp));
    ops
}

/// `items` in a seeded random order (Fisher–Yates over splitmix64).
fn shuffled<T: Copy>(items: &[T], mut seed: u64) -> Vec<T> {
    let mut next = || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    out
}

/// One decode iteration priced without any factoring or memo.
fn reference(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    (batch, kv_len, tp): (usize, usize, usize),
    precision: Precision,
) -> Time {
    let roofline = RooflineModel::new(cluster.accelerator());
    let gp = GraphParams::decode(batch, kv_len, tp, precision);
    let layer = op_by_op(&roofline, &graph::layer_forward_ops(model, &gp), precision);
    let head = op_by_op(&roofline, &extra_ops(model, &gp), precision);
    let plan = CommPlan::new(cluster, Parallelism::tensor_parallel(tp));
    let volume = Bytes::new((batch * model.hidden) as f64 * precision.bytes());
    let layers = model.layers as f64;
    layer * layers + plan.tp_layer_inference(volume) * layers + head
}

/// The parts of an `InferenceReport` the decode loop produces.
struct OneShot {
    total: Time,
    decode: Time,
    per_token: Time,
    breakdown: InferenceBreakdown,
    device_flops: FlopCount,
    dram_traffic: Bytes,
    network_traffic: Bytes,
    decode_gemms: Vec<GemmAnalysis>,
}

/// Adds `scale` copies of `src`'s kernel categories into `dst`.
fn add_scaled(dst: &mut InferenceBreakdown, src: &InferenceBreakdown, scale: f64) {
    dst.compute += src.compute * scale;
    dst.memory += src.memory * scale;
    dst.overhead += src.overhead * scale;
}

/// A one-shot estimate's loop with no factoring and no memo: the prefill
/// layer and every decode step's layer at its own context costed op by
/// op, the embedding/LM-head stage costed afresh at each step, and the
/// TP all-reduces, folded in the order the estimator adds them.
fn reference_estimate(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    (batch, prefill, generate, tp): (usize, usize, usize, usize),
    precision: Precision,
) -> OneShot {
    let roofline = RooflineModel::new(cluster.accelerator());
    let plan = CommPlan::new(cluster, Parallelism::tensor_parallel(tp));
    let layers = model.layers as f64;

    let pre = GraphParams::prefill(batch, prefill, tp, precision);
    let layer = fold(&roofline, &graph::layer_forward_ops(model, &pre), precision);
    let mut prefill_bd = InferenceBreakdown::default();
    add_scaled(&mut prefill_bd, &layer.bd, layers);
    let mut device_flops = layer.flops * layers;
    let mut dram_traffic = layer.dram * layers;
    let volume = Bytes::new((batch * prefill * model.hidden) as f64 * precision.bytes());
    prefill_bd.communication += plan.tp_layer_inference(volume) * layers;
    let mut network_traffic = plan.tp_layer_forward_wire_bytes(volume) * layers;
    let extra = fold(&roofline, &extra_ops(model, &pre), precision);
    add_scaled(&mut prefill_bd, &extra.bd, 1.0);
    device_flops += extra.flops;
    dram_traffic += extra.dram;

    let mut decode_bd = InferenceBreakdown::default();
    let volume = Bytes::new((batch * model.hidden) as f64 * precision.bytes());
    let mut decode_gemms = Vec::new();
    for step in 0..generate {
        let dp = GraphParams::decode(batch, prefill + step, tp, precision);
        let layer = fold(&roofline, &graph::layer_forward_ops(model, &dp), precision);
        add_scaled(&mut decode_bd, &layer.bd, layers);
        device_flops += layer.flops * layers;
        dram_traffic += layer.dram * layers;
        decode_bd.communication += plan.tp_layer_inference(volume) * layers;
        network_traffic += plan.tp_layer_forward_wire_bytes(volume) * layers;
        let extra = fold(&roofline, &extra_ops(model, &dp), precision);
        add_scaled(&mut decode_bd, &extra.bd, 1.0);
        device_flops += extra.flops;
        dram_traffic += extra.dram;
        decode_gemms = layer.gemms;
    }
    let decode = decode_bd.total();
    let mut breakdown = prefill_bd;
    add_scaled(&mut breakdown, &decode_bd, 1.0);
    breakdown.communication = prefill_bd.communication + decode_bd.communication;
    OneShot {
        total: prefill_bd.total() + decode,
        decode,
        per_token: decode / generate as f64,
        breakdown,
        device_flops,
        dram_traffic,
        network_traffic,
        decode_gemms,
    }
}

/// A breakdown's four categories as bit patterns.
fn breakdown_bits(bd: &InferenceBreakdown) -> [u64; 4] {
    [bd.compute, bd.memory, bd.communication, bd.overhead].map(|t| t.secs().to_bits())
}

/// A GEMM table's rows as (role, bound, time bits).
fn gemm_bits(gemms: &[GemmAnalysis]) -> Vec<String> {
    gemms
        .iter()
        .map(|g| format!("{} {:?} {:#x}", g.role, g.bound, g.time.secs().to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_shot_estimate_matches_the_unfactored_loop_to_the_bit(
        batch in 1usize..=64,
        prefill in 1usize..=4096,
        generate in 1usize..=64,
        tp in 1usize..=8,
        (m, d) in (0usize..3, 0usize..2),
    ) {
        let (cluster, precision) = device(d);
        let model = model(m);
        let report = PreparedInferenceEstimator::new(
            &cluster,
            Arc::clone(&model),
            batch,
            prefill,
            generate,
        )
        .estimate(tp, precision)
        .unwrap();
        let expected = reference_estimate(&cluster, &model, (batch, prefill, generate, tp), precision);
        let case = format!("{} batch={batch} prefill={prefill} generate={generate} tp={tp} {precision}", model.name);
        let bits = |t: Time| t.secs().to_bits();
        prop_assert_eq!(bits(report.total), bits(expected.total), "total, {}", case);
        prop_assert_eq!(bits(report.decode), bits(expected.decode), "decode, {}", case);
        prop_assert_eq!(bits(report.per_token), bits(expected.per_token), "per_token, {}", case);
        prop_assert_eq!(
            breakdown_bits(&report.breakdown),
            breakdown_bits(&expected.breakdown),
            "breakdown, {}", case
        );
        prop_assert_eq!(
            report.device_flops.get().to_bits(),
            expected.device_flops.get().to_bits(),
            "device_flops, {}", case
        );
        prop_assert_eq!(
            report.dram_traffic.bytes().to_bits(),
            expected.dram_traffic.bytes().to_bits(),
            "dram_traffic, {}", case
        );
        prop_assert_eq!(
            report.network_traffic.bytes().to_bits(),
            expected.network_traffic.bytes().to_bits(),
            "network_traffic, {}", case
        );
        prop_assert_eq!(
            gemm_bits(&report.decode_gemms),
            gemm_bits(&expected.decode_gemms),
            "decode_gemms, {}", case
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decode_iteration_matches_op_by_op_costing_to_the_bit(
        batch in 1usize..=4096,
        kv in 1usize..=8192,
        other_kv in 1usize..=8192,
        tp_log2 in 0u32..4,
        (m, d) in (0usize..3, 0usize..2),
    ) {
        let tp = 1usize << tp_log2;
        let (cluster, precision) = device(d);
        let model = model(m);
        let serving = PreparedInferenceEstimator::for_serving(&cluster, Arc::clone(&model));
        let expected = reference(&cluster, &model, (batch, kv, tp), precision).secs().to_bits();

        let cold = serving.decode_iteration(batch, kv, tp, precision).unwrap();
        prop_assert_eq!(cold.secs().to_bits(), expected, "cold, tp={} {}", tp, precision);
        let keys = serving.cached_keys();
        let warm = serving.decode_iteration(batch, kv, tp, precision).unwrap();
        prop_assert_eq!(warm.secs().to_bits(), expected, "warm, tp={} {}", tp, precision);
        prop_assert_eq!(serving.cached_keys(), keys, "a warm repeat adds no key");

        if other_kv != kv {
            let other = serving.decode_iteration(batch, other_kv, tp, precision).unwrap();
            let expected = reference(&cluster, &model, (batch, other_kv, tp), precision);
            prop_assert_eq!(other.secs().to_bits(), expected.secs().to_bits());
            prop_assert_eq!(serving.cached_keys(), keys, "the batch row is shared");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn racing_first_touches_price_every_decode_iteration_to_the_bit(
        mut batches in proptest::collection::vec(1usize..=4096, 1..9),
        mut contexts in proptest::collection::vec(1usize..=8192, 1..17),
        tp_log2 in 0u32..4,
        (m, d) in (0usize..3, 0usize..2),
        seed in 0u64..u64::MAX,
    ) {
        let tp = 1usize << tp_log2;
        let (cluster, precision) = device(d);
        let model = model(m);
        for axis in [&mut batches, &mut contexts] {
            axis.sort_unstable();
            axis.dedup();
        }
        // Every batch width at every context: each row serves several
        // prices, so the row memo races on shared keys.
        let pairs: Vec<(usize, usize)> = batches
            .iter()
            .flat_map(|&batch| contexts.iter().map(move |&kv| (batch, kv)))
            .collect();
        let order = shuffled(&pairs, seed);

        // One thread fills a fresh estimator in the shuffled order.
        let single = PreparedInferenceEstimator::for_serving(&cluster, Arc::clone(&model));
        for &(batch, kv) in &order {
            single.decode_iteration(batch, kv, tp, precision).unwrap();
        }

        // Eight walkers share another fresh estimator. A barrier starts
        // them together and each walks the same order, so first touches
        // race.
        const WALKERS: usize = 8;
        let raced = PreparedInferenceEstimator::for_serving(&cluster, Arc::clone(&model));
        let start = Barrier::new(WALKERS);
        let walks: Vec<Vec<Time>> = rayon::ThreadPoolBuilder::new()
            .num_threads(WALKERS)
            .build()
            .unwrap()
            .install(|| {
                (0..WALKERS)
                    .collect::<Vec<usize>>()
                    .into_par_iter()
                    .map(|_| {
                        start.wait();
                        order
                            .iter()
                            .map(|&(batch, kv)| raced.decode_iteration(batch, kv, tp, precision).unwrap())
                            .collect()
                    })
                    .collect()
            });
        prop_assert_eq!(raced.cached_keys(), single.cached_keys());

        for (i, &(batch, kv)) in order.iter().enumerate() {
            let expected = reference(&cluster, &model, (batch, kv, tp), precision).secs().to_bits();
            for walk in &walks {
                prop_assert_eq!(
                    walk[i].secs().to_bits(),
                    expected,
                    "batch={} kv={} tp={} {}", batch, kv, tp, precision
                );
            }
        }
    }
}

//! Property tests of the Young–Daly checkpoint/restart model:
//!
//! * **optimality** — the auto-selected interval `τ* = √(2δM)` is a
//!   minimum of the first-order waste fraction over a multiplicative grid
//!   around it (the first-order model makes `τ*` the exact global
//!   minimizer, so every grid point loses);
//! * **monotonicity** — effective goodput never decreases when the
//!   per-GPU MTBF improves, and never increases when the restart cost
//!   grows;
//! * **auto is near-optimal** — reports price the rework exactly, not as
//!   the first-order `τ/2`, so the exact waste's minimizer sits within
//!   `O(τ/M)` of `τ*`: pinning any checkpoint interval gains at most
//!   [`AUTO_INTERVAL_SLACK`] goodput over the Young–Daly choice (the
//!   largest gain, 7.1e-7, is at the sampled range's low end of a 1e5 s
//!   per-GPU MTBF);
//! * **byte-identity** — estimating under [`CheckpointSpec::none`]
//!   serializes to exactly the JSON of a spec-free estimate: reports
//!   without a failure axis look as they did before resilience modeling
//!   existed.

use optimus_hw::presets;
use optimus_memory::TrainingMemoryReport;
use optimus_memory::{training_memory, RecomputeMode, TrainingMemorySpec};
use optimus_model::presets as models;
use optimus_parallel::{Parallelism, PipelineSchedule};
use optimus_train::{
    expected_rework, waste_fraction, young_daly_interval, CheckpointSpec, ResilienceReport,
    StackContext, TrainingConfig, TrainingEstimator,
};
use optimus_units::Time;
use proptest::prelude::*;

/// The most goodput a pinned interval may gain over the auto interval.
const AUTO_INTERVAL_SLACK: f64 = 1e-6;

/// The per-device footprint of the worked strategy (llama2-13b, DP8 ×
/// TP8 + SP on 64 GPUs) — a fixed, feasible anchor for the pricing
/// properties.
fn anchor_memory() -> TrainingMemoryReport {
    training_memory(
        &models::llama2_13b(),
        &TrainingMemorySpec {
            batch: 64,
            seq: 2048,
            parallelism: Parallelism::new(8, 8, 1).with_sp(true),
            schedule: PipelineSchedule::OneFOneB,
            precision: optimus_hw::Precision::Fp16,
            recompute: RecomputeMode::Selective,
        },
    )
    .unwrap()
}

/// `spec` priced on one DP group of the anchor's 64 devices (TP8 × PP8):
/// no peer group, nothing to shrink, and a rack takes the whole job.
fn price_one_group(
    spec: &CheckpointSpec,
    memory: &TrainingMemoryReport,
    t: Time,
) -> Option<ResilienceReport> {
    let ctx = StackContext {
        cluster: &presets::dgx_a100_hdr_cluster(),
        memory,
        parallelism: Parallelism::new(1, 8, 8),
        time_per_batch: t,
    };
    spec.evaluate_stack(&ctx, &|_| None, &expected_rework)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `τ*` beats every point of a multiplicative grid around it.
    #[test]
    fn young_daly_interval_is_a_grid_local_optimum(
        delta in 0.5f64..5_000.0,
        mtbf in 60.0f64..1e8,
        restart in 0.0f64..10_000.0,
    ) {
        let tau_star = young_daly_interval(delta, mtbf);
        let w_star = waste_fraction(tau_star, delta, restart, mtbf);
        for mult in [0.25, 0.5, 0.8, 0.95, 1.05, 1.25, 2.0, 4.0] {
            let w = waste_fraction(tau_star * mult, delta, restart, mtbf);
            prop_assert!(
                w_star <= w + 1e-12,
                "waste({}×τ*) = {w} undercuts waste(τ*) = {w_star}",
                mult
            );
        }
    }

    /// A better per-GPU MTBF can only improve goodput, and a costlier
    /// restart can only hurt it.
    #[test]
    fn goodput_is_monotone_in_mtbf_and_restart(
        mtbf_lo in 1e5f64..1e9,
        mtbf_gain in 1.01f64..100.0,
        restart_lo in 0.0f64..5_000.0,
        restart_gain in 1.01f64..10.0,
    ) {
        let memory = anchor_memory();
        let t = Time::from_secs(10.0);
        let at = |mtbf_s: f64, restart_s: f64| {
            let spec = CheckpointSpec::with_mtbf(mtbf_s).with_restart(restart_s);
            price_one_group(&spec, &memory, t)
                .expect("active spec evaluates")
                .goodput
        };
        let base = at(mtbf_lo, restart_lo);
        prop_assert!(base > 0.0 && base <= 1.0);
        prop_assert!(
            at(mtbf_lo * mtbf_gain, restart_lo) >= base - 1e-12,
            "longer MTBF must not lose goodput"
        );
        prop_assert!(
            at(mtbf_lo, restart_lo.max(1.0) * restart_gain) <= base + 1e-12,
            "costlier restarts must not gain goodput"
        );
    }

    /// Fixing the interval anywhere gains at most the slack over
    /// Young–Daly.
    #[test]
    fn auto_interval_dominates_any_fixed_interval(
        mtbf in 1e5f64..1e9,
        interval in 1.0f64..1e6,
    ) {
        let memory = anchor_memory();
        let t = Time::from_secs(10.0);
        let auto = CheckpointSpec::with_mtbf(mtbf);
        let fixed = auto.clone().with_interval(interval);
        let auto = price_one_group(&auto, &memory, t).unwrap();
        let fixed = price_one_group(&fixed, &memory, t).unwrap();
        prop_assert!(auto.auto_interval && !fixed.auto_interval);
        prop_assert!(
            auto.goodput >= fixed.goodput - AUTO_INTERVAL_SLACK,
            "auto {} < fixed {} at interval {}",
            auto.goodput,
            fixed.goodput,
            interval
        );
    }
}

/// A spec-free estimate and a [`CheckpointSpec::none`] estimate are the
/// same report, byte for byte, with no resilience key at all.
#[test]
fn none_spec_keeps_the_report_json_byte_identical() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let cfg = TrainingConfig::new(
        models::llama2_13b(),
        64,
        2048,
        Parallelism::new(8, 8, 1).with_sp(true),
    );
    let plain = TrainingEstimator::new(&cluster).estimate(&cfg).unwrap();
    let with_none = TrainingEstimator::new(&cluster)
        .with_checkpoint(CheckpointSpec::none())
        .estimate(&cfg)
        .unwrap();
    let a = serde_json::to_string_pretty(&plain).unwrap();
    let b = serde_json::to_string_pretty(&with_none).unwrap();
    assert_eq!(a, b, "CheckpointSpec::none() must be invisible");
    assert!(
        !a.contains("resilience"),
        "a failure-free report must not carry a resilience key"
    );
    assert!(plain.resilience.is_none() && with_none.resilience.is_none());
}

/// An active spec populates the resilience section and inflates the
/// expected batch time, leaving the failure-free figures untouched.
#[test]
fn active_spec_extends_rather_than_perturbs_the_report() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let cfg = TrainingConfig::new(
        models::llama2_13b(),
        64,
        2048,
        Parallelism::new(8, 8, 1).with_sp(true),
    );
    let plain = TrainingEstimator::new(&cluster).estimate(&cfg).unwrap();
    let resilient = TrainingEstimator::new(&cluster)
        .with_checkpoint(CheckpointSpec::with_mtbf(1e8).with_restart(300.0))
        .estimate(&cfg)
        .unwrap();
    assert_eq!(
        plain.time_per_batch, resilient.time_per_batch,
        "the failure-free batch time is spec-independent"
    );
    let r = resilient.resilience.expect("active spec populates");
    assert!(r.goodput > 0.0 && r.goodput < 1.0);
    assert!(r.expected_time_per_batch > resilient.time_per_batch);
}

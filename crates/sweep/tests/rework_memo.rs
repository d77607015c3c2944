//! The prepared training estimator's rework memo, driven by the strategies
//! the sweep engine enumerates for the 64-GPU llama2-13b training sweep on
//! A100 (batch 64, sequence 2048, selective recomputation):
//!
//! * **one key per distinct rework** — under Weibull `k = 0.7` failures
//!   with peer and delta tiers and elastic continuation, the sweep's 532
//!   strategies look the rework up 1,436 times for 122 distinct
//!   `(shape, mean, τ, δ)`; a warm repeat adds no key, and neither an
//!   inactive spec nor exponential uptime (whose closed form bypasses the
//!   memo) fills any;
//! * **the memo is invisible** — eight threads racing on the first fills
//!   of one shared estimator's memo price every strategy's resilience
//!   section exactly as the stack priced through the bare
//!   [`expected_rework`], to the bit, and leave the memo with the keys of
//!   a single-threaded fill.

use optimus_hw::{presets, ClusterSpec, FailureProcess, Precision};
use optimus_memory::TrainingMemoryReport;
use optimus_model::{presets as models, ModelConfig};
use optimus_parallel::Parallelism;
use optimus_sweep::{PointMemory, SweepSpace, Workload};
use optimus_train::{
    expected_rework, CheckpointSpec, CheckpointTier, PreparedTrainingEstimator, ResilienceReport,
    StackContext, TrainingReport, Uptime,
};
use proptest::prelude::*;
use std::cell::Cell;
use std::sync::{Arc, Barrier};

type Point = (Parallelism, Precision, TrainingMemoryReport);

fn workload() -> Workload {
    Workload::training(64, 2048)
}

/// Every training strategy `SweepSpace::power_of_two(64)` enumerates, with
/// the footprint its pruning pass derived.
fn sweep_points(cluster: &ClusterSpec, model: &ModelConfig) -> Vec<Point> {
    SweepSpace::power_of_two(64)
        .enumerate_with_memory(model, cluster, &workload())
        .into_iter()
        .filter_map(|(point, memory)| match memory {
            PointMemory::Training(m) => Some((point.parallelism, point.precision, m)),
            PointMemory::Inference(_) => None,
        })
        .collect()
}

/// A fresh estimator for [`workload`] under `spec`, prepared as the sweep
/// engine prepares one.
fn prepare<'a>(
    cluster: &'a ClusterSpec,
    model: &Arc<ModelConfig>,
    spec: &CheckpointSpec,
) -> PreparedTrainingEstimator<'a> {
    let Workload::Training {
        batch,
        seq,
        recompute,
        schedule,
    } = workload()
    else {
        unreachable!("a training workload")
    };
    PreparedTrainingEstimator::new(cluster, Arc::clone(model), batch, seq)
        .with_recompute(recompute)
        .with_schedule(schedule)
        .with_checkpoint(spec.clone())
}

/// `spec`'s stack priced for one strategy's report through `rework`, with
/// `est` repricing the elastic shrinks.
fn price(
    spec: &CheckpointSpec,
    est: &PreparedTrainingEstimator<'_>,
    cluster: &ClusterSpec,
    (p, precision): (Parallelism, Precision),
    report: &TrainingReport,
    rework: &dyn Fn(Uptime, f64, f64) -> f64,
) -> Option<ResilienceReport> {
    spec.evaluate_stack(
        &StackContext {
            cluster,
            memory: &report.memory,
            parallelism: p,
            time_per_batch: report.time_per_batch,
        },
        &|dp| est.reprice_dp(p, precision, dp).ok(),
        rework,
    )
}

/// Strategies on as many GPUs share a cluster MTBF, and those that also
/// shard the model state alike share their checkpoint writes and
/// intervals, so the tiered sweep's lookups collapse to few keys.
#[test]
fn rework_memo_fills_one_key_per_distinct_rework() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = Arc::new(models::llama2_13b());
    let points = sweep_points(&cluster, &model);
    let base = CheckpointSpec::with_mtbf(10_000.0).with_restart(900.0);
    let tiered = base
        .clone()
        .with_process(FailureProcess::Weibull { shape: 0.7 })
        .with_tiers(vec![CheckpointTier::peer(), CheckpointTier::delta()])
        .with_elastic(true);
    let estimate_all = |est: &PreparedTrainingEstimator<'_>| -> Vec<_> {
        points
            .iter()
            .filter_map(|&(p, precision, memory)| {
                let report = est.estimate_with_memory(p, precision, memory).ok()?;
                Some((p, precision, report))
            })
            .collect()
    };
    let stacked = prepare(&cluster, &model, &tiered);
    let reports = estimate_all(&stacked);
    assert_eq!(reports.len(), 532);
    assert_eq!(stacked.cached_rework_keys(), 122);

    // Every lookup the stack makes, counted through a bare pricing.
    let lookups = Cell::new(0);
    for (p, precision, report) in &reports {
        let counted = price(
            &tiered,
            &stacked,
            &cluster,
            (*p, *precision),
            report,
            &|uptime, interval_s, write_s| {
                lookups.set(lookups.get() + 1);
                expected_rework(uptime, interval_s, write_s)
            },
        );
        assert_eq!(counted, report.resilience);
    }
    assert_eq!(lookups.get(), 1_436);

    // A warm repeat adds no key.
    assert_eq!(estimate_all(&stacked).len(), 532);
    assert_eq!(stacked.cached_rework_keys(), 122);

    // A spec-free sweep and exponential uptime, plain or rack-correlated,
    // fill none.
    let racks = base.clone().with_process(FailureProcess::RackCorrelated {
        racks: 4,
        rack_mtbf_s: 1e5,
    });
    for spec in [CheckpointSpec::none(), base, racks] {
        let est = prepare(&cluster, &model, &spec);
        assert_eq!(estimate_all(&est).len(), 532);
        assert_eq!(est.cached_rework_keys(), 0, "{spec:?}");
        assert_eq!(est.cached_keys(), stacked.cached_keys());
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Eight threads, started together at a barrier, walk one shared
    /// prepared estimator through the same shuffled strategies of the
    /// sweep, so first fills of the rework memo race. Every report's
    /// resilience section equals the stack priced through the bare
    /// `expected_rework` to the bit, and the memo ends with the keys of a
    /// single-threaded fill: none under exponential uptime.
    #[test]
    fn racing_walkers_price_resilience_like_the_bare_rework(
        process in prop_oneof![
            Just(FailureProcess::Weibull { shape: 0.7 }),
            Just(FailureProcess::Weibull { shape: 1.0 }),
            Just(FailureProcess::Weibull { shape: 1.5 }),
            (2usize..9, 1e5f64..1e8).prop_map(|(racks, rack_mtbf_s)| {
                FailureProcess::RackCorrelated { racks, rack_mtbf_s }
            }),
        ],
        mtbf in 1e3f64..1e7,
        interval in prop_oneof![Just(None), (60.0f64..1e5).prop_map(Some)],
        tier_mask in 0usize..4,
        elastic in prop_oneof![Just(false), Just(true)],
        walk_len in 16usize..96,
        seed in 0u64..u64::MAX,
    ) {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_13b());
        let tiers = [CheckpointTier::peer(), CheckpointTier::delta()]
            .into_iter()
            .enumerate()
            .filter(|(bit, _)| tier_mask & (1 << bit) != 0)
            .map(|(_, tier)| tier)
            .collect();
        let mut spec = CheckpointSpec::with_mtbf(mtbf)
            .with_restart(900.0)
            .with_process(process)
            .with_tiers(tiers)
            .with_elastic(elastic);
        // A pinned interval keys strategies with different write times on
        // one τ; the Young–Daly interval would tell them apart.
        if let Some(s) = interval {
            spec = spec.with_interval(s);
        }
        let mut order = shuffled(&sweep_points(&cluster, &model), seed);
        order.truncate(walk_len);

        // One thread fills a fresh estimator in the shuffled order.
        let single = prepare(&cluster, &model, &spec);
        for &(p, precision, memory) in &order {
            let _ = single.estimate_with_memory(p, precision, memory);
        }
        // Exponential uptime, `k = 1` or rack-correlated, bypasses the memo.
        let weibull = matches!(process, FailureProcess::Weibull { shape } if shape != 1.0);
        prop_assert_eq!(single.cached_rework_keys() > 0, weibull);

        // Eight walkers share another fresh estimator. A barrier starts
        // them together and each walks the same order, so first fills race.
        const WALKERS: usize = 8;
        let raced = prepare(&cluster, &model, &spec);
        let start = Barrier::new(WALKERS);
        let walks: Vec<Vec<Option<Option<ResilienceReport>>>> = std::thread::scope(|scope| {
            let walkers: Vec<_> = (0..WALKERS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        order
                            .iter()
                            .map(|&(p, precision, memory)| {
                                let report = raced.estimate_with_memory(p, precision, memory);
                                report.ok().map(|r| r.resilience)
                            })
                            .collect()
                    })
                })
                .collect();
            walkers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        prop_assert_eq!(raced.cached_rework_keys(), single.cached_rework_keys());

        for (i, &(p, precision, memory)) in order.iter().enumerate() {
            let reference = single
                .estimate_with_memory(p, precision, memory)
                .ok()
                .map(|report| {
                    price(&spec, &single, &cluster, (p, precision), &report, &expected_rework)
                });
            // An active spec prices every strategy that estimates.
            prop_assert!(reference.as_ref().is_none_or(Option::is_some));
            // The JSON tells every bit apart, -0.0 from 0.0 included.
            let expected = serde_json::to_string(&reference).unwrap();
            for walk in &walks {
                prop_assert_eq!(&walk[i], &reference, "{} {} under {:?}", p, precision, spec);
                prop_assert_eq!(serde_json::to_string(&walk[i]).unwrap(), expected.as_str());
            }
        }
    }
}

//! Property tests of the streaming (million-request-scale) machinery:
//!
//! * the log-histogram percentile estimates agree with the exact
//!   nearest-rank statistics to within one bin width;
//! * the scheduler's conservation invariants (tokens, requests, KV
//!   budget) hold at 100k-request scale on the streaming path;
//! * load-sweep reports are byte-identical across installed 1- and
//!   8-thread rayon pools, whose workers share one estimator's memo.

use optimus_hw::{presets, Precision};
use optimus_model::presets as models;
use optimus_serve::stats::HISTOGRAM_BINS_PER_OCTAVE;
use optimus_serve::{
    load_sweep, LatencyStats, LengthDist, LoadStrategy, LoadSweepSpec, LogHistogram, RouterPolicy,
    ServeConfig, ServeInstance, SloSpec, TraceSpec,
};
use optimus_units::Time;
use proptest::prelude::*;
use std::sync::Arc;

// --- histogram vs exact ---------------------------------------------------

/// Latency populations spanning microseconds to minutes with heavy
/// duplication (the shapes TTFT/TPOT populations actually take).
fn population() -> impl Strategy<Value = Vec<Time>> {
    proptest::collection::vec((1u64..=60_000_000, 1usize..=20), 1..400).prop_map(|pairs| {
        pairs
            .into_iter()
            .flat_map(|(us, copies)| std::iter::repeat_n(Time::from_micros(us as f64), copies))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every histogram percentile lands within one log-scale bin width
    /// above the exact nearest-rank order statistic (the bin's upper edge
    /// is the conservative representative).
    #[test]
    fn histogram_percentiles_agree_with_exact_within_one_bin(values in population()) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let exact = LatencyStats::from_times(&values);
        let bin_ratio = 2f64.powf(1.0 / HISTOGRAM_BINS_PER_OCTAVE as f64);
        for (q, e) in [(0.50, exact.p50), (0.90, exact.p90), (0.99, exact.p99)] {
            let est = h.percentile(q);
            prop_assert!(
                est >= e && est.secs() <= e.secs() * bin_ratio,
                "q={q}: histogram {est} vs exact {e} (ratio {})",
                est.secs() / e.secs()
            );
        }
    }
}

// --- 100k-request conservation on the streaming path ----------------------

proptest! {
    // Each case simulates 100k requests; two sampled scenarios keep the
    // suite affordable in debug builds while still exercising the engine's
    // decode-price cache, the slot recycling, and the completion ring at
    // scale.
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Token, request, and KV-budget conservation at 100k-request scale:
    /// the streaming machinery (recycled slots, epoch ring, histogram
    /// stats) must lose nothing an exact-mode run keeps.
    #[test]
    fn conservation_holds_at_100k_scale(
        seed in 0u64..1000,
        rate in prop_oneof![Just(20.0), Just(200.0)],
        tp in prop_oneof![Just(1usize), Just(2usize)],
    ) {
        let cluster = presets::dgx_a100_hdr_cluster();
        let spec = TraceSpec {
            seed,
            requests: 100_000,
            arrival: optimus_serve::ArrivalProcess::Poisson { rate_per_s: rate },
            prompt: LengthDist::Uniform { lo: 50, hi: 300 },
            output: LengthDist::Uniform { lo: 4, hi: 48 },
            prefixes: None,
            priority_classes: 1,
        };
        let report = ServeInstance::new(&cluster, Arc::new(models::llama2_7b()), ServeConfig::new(tp))
            .unwrap()
            .simulate(&spec.generate())
            .unwrap();

        // Request conservation.
        prop_assert_eq!(report.completed + report.rejected, report.requests);
        prop_assert_eq!(report.rejected, 0, "7B always admits these shapes");
        prop_assert_eq!(report.prefill_iterations, report.completed);

        // Token conservation against the trace itself.
        let requested: usize = spec.generate().iter().map(|r| r.output as usize).sum();
        prop_assert_eq!(report.generated_tokens, requested);
        prop_assert!(report.decode_iterations <= requested);

        // KV budget invariants.
        prop_assert!(report.kv.peak <= report.kv.budget);
        prop_assert!(report.kv.peak_utilization <= 1.0);

        // Streaming-mode shape: no records, exact counts in the stats.
        prop_assert!(report.per_request.is_empty(), "records default off at 100k");
        prop_assert_eq!(report.ttft.count, report.completed);
        prop_assert_eq!(report.e2e.count, report.completed);
        prop_assert!(report.ttft.p50 <= report.ttft.p99);
        prop_assert!(report.ttft.p99 <= report.ttft.max);
        prop_assert!(report.slo.met <= report.completed);
    }
}

// --- load-sweep determinism across thread pools ---------------------------

fn sweep_json(spec: &LoadSweepSpec) -> String {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = Arc::new(models::llama2_7b());
    let report = load_sweep(&cluster, &model, spec);
    serde_json::to_string(&report).unwrap()
}

/// The load-sweep grid runs rayon-parallel, but cells are collected in
/// grid order and every memo value is a pure function of its key, so the
/// JSON must be byte-identical across installed 1- and 8-thread pools,
/// and across repeated runs.
#[test]
fn load_sweep_json_is_byte_identical_across_one_and_eight_threads() {
    // Crosses the exact-mode limit, so the cells' reports take their
    // percentiles from histograms, while the workers of all three
    // strategies race on first fills of the one shared memo.
    let spec = LoadSweepSpec {
        seed: 7,
        requests: 12_000,
        prompt: LengthDist::Uniform { lo: 40, hi: 160 },
        output: LengthDist::Uniform { lo: 2, hi: 16 },
        rates: vec![5.0, 80.0],
        strategies: vec![
            LoadStrategy::single(1, Precision::Fp16),
            LoadStrategy::single(2, Precision::Fp16),
            // A multi-replica strategy exercises the fleet path through
            // the same byte-identical contract.
            LoadStrategy::single(1, Precision::Fp16).with_replicas(2),
        ],
        slo: SloSpec::default(),
        router: RouterPolicy::LeastOutstanding,
        faults: None,
        prefixes: None,
        priority_classes: 1,
    };
    let pool = |n: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    };
    let one = pool(1).install(|| sweep_json(&spec));
    let eight = pool(8).install(|| sweep_json(&spec));
    let default_threads = sweep_json(&spec);
    assert_eq!(one, eight, "1 thread vs 8 threads");
    assert_eq!(one, default_threads, "1 thread vs default threads");
}

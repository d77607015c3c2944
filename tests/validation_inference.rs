//! End-to-end validation of the inference estimator against the paper's
//! Table 2 (NVIDIA-reported Llama-2 latencies) and Table 4 (per-GEMM
//! bound analysis), plus the golden cross-check pinning the serving
//! simulator to the static analytical model in the no-queueing limit.

use optimus_experiments::{table2, table4};

#[test]
fn every_row_within_30_percent() {
    // The paper matches NVIDIA within 13% with factors calibrated on these
    // very systems; our independent calibration stays within 30% worst-case
    // (the 8-GPU small-model rows are the hard ones — the paper notes its
    // own anomaly there).
    for row in table2::run() {
        assert!(
            row.a100_error_percent < 30.0,
            "{} TP{} A100: {:.1}%",
            row.reference.model,
            row.reference.tp,
            row.a100_error_percent
        );
        assert!(
            row.h100_error_percent < 30.0,
            "{} TP{} H100: {:.1}%",
            row.reference.model,
            row.reference.tp,
            row.h100_error_percent
        );
    }
}

#[test]
fn mean_error_under_12_percent() {
    let rows = table2::run();
    let mean = table2::mean_error_percent(&rows);
    assert!(mean < 12.0, "mean |err| {mean:.1}%");
}

#[test]
fn h100_always_beats_a100() {
    // §4.3: the A100→H100 gain tracks the HBM upgrade.
    for row in table2::run() {
        assert!(
            row.h100_pred_ms < row.a100_pred_ms,
            "{} TP{}",
            row.reference.model,
            row.reference.tp
        );
    }
}

#[test]
fn latency_decreases_with_tp_within_a_model() {
    // Strong scaling holds (even if far from linear) for every model on
    // A100 in both NVIDIA's data and our predictions.
    let rows = table2::run();
    for model in ["Llama2-70B", "Llama2-13B", "Llama2-7B"] {
        let mut series: Vec<(usize, f64)> = rows
            .iter()
            .filter(|r| r.reference.model == model)
            .map(|r| (r.reference.tp, r.a100_pred_ms))
            .collect();
        series.sort_by_key(|&(tp, _)| tp);
        for pair in series.windows(2) {
            assert!(
                pair[1].1 < pair[0].1,
                "{model}: TP{} {:.0} ms !< TP{} {:.0} ms",
                pair[1].0,
                pair[1].1,
                pair[0].0,
                pair[0].1
            );
        }
    }
}

#[test]
fn table4_bound_types_fully_agree() {
    // The paper's central qualitative finding: fat prefill GEMMs are
    // compute-bound on A100 and DRAM-bound on H100.
    let rows = table4::run();
    assert_eq!(
        table4::bound_agreement(&rows),
        1.0,
        "bound-type disagreement: {:?}",
        rows.iter()
            .filter(|r| !r.bounds_agree())
            .map(|r| r.reference.gemm)
            .collect::<Vec<_>>()
    );
}

/// Golden cross-check: at an arrival rate so low that requests never
/// overlap, the continuous-batching simulator must degenerate to the
/// static `InferenceEstimator` — same model, same cluster, same request
/// shape — to within 2% on both the decode latency and the end-to-end
/// latency. Any scheduler, pricing, or accounting drift between the two
/// inference paths shows up here.
#[test]
fn serving_simulator_degenerates_to_static_estimator_at_low_rate() {
    use optimus::prelude::*;
    use optimus_serve::{ArrivalProcess, LengthDist, ServeConfig, ServeInstance, TraceSpec};
    use std::sync::Arc;

    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let model = Arc::new(model::presets::llama2_13b());
    let (prompt, output) = (200, 64);

    for tp in [1, 2] {
        let static_report = InferenceEstimator::new(&cluster)
            .estimate(&InferenceConfig::new(
                Arc::clone(&model),
                1,
                prompt,
                output,
                tp,
            ))
            .unwrap();

        // 60 s between arrivals vs sub-second request latencies: the
        // instance is always idle when the next request lands.
        let spec = TraceSpec {
            seed: 3,
            requests: 5,
            arrival: ArrivalProcess::Fixed { interval_s: 60.0 },
            prompt: LengthDist::Fixed { tokens: prompt },
            output: LengthDist::Fixed { tokens: output },
            prefixes: None,
            priority_classes: 1,
        };
        let report = ServeInstance::new(&cluster, Arc::clone(&model), ServeConfig::new(tp))
            .unwrap()
            .simulate(&spec.generate())
            .unwrap();
        assert_eq!(report.completed, 5);
        assert_eq!(report.queue.peak_decoding, 1, "no overlap at this rate");
        assert_eq!(
            report.queue.peak_waiting, 0,
            "an idle instance prefills each arrival immediately — nothing ever \
             sits without compute"
        );

        for m in &report.per_request {
            assert_eq!(
                m.queue_wait.secs(),
                0.0,
                "an idle instance admits instantly"
            );
            // Simulated decode phase: everything after the prefill
            // iteration.
            let decode_sim = m.e2e.secs() - m.prefill.secs();
            let decode_err =
                (decode_sim - static_report.decode.secs()).abs() / static_report.decode.secs();
            assert!(
                decode_err < 0.02,
                "TP{tp} request {}: simulated decode {:.4} s vs static {:.4} s ({:.2}%)",
                m.id,
                decode_sim,
                static_report.decode.secs(),
                decode_err * 100.0
            );
            let e2e_err =
                (m.e2e.secs() - static_report.total.secs()).abs() / static_report.total.secs();
            assert!(
                e2e_err < 0.02,
                "TP{tp} request {}: simulated e2e {:.4} s vs static {:.4} s ({:.2}%)",
                m.id,
                m.e2e.secs(),
                static_report.total.secs(),
                e2e_err * 100.0
            );
        }
    }
}

#[test]
fn table4_h100_speedup_tracks_memory_not_compute() {
    // H100's per-GEMM times improve by roughly the DRAM ratio (~1.7x) up
    // to the compute ratio (~3.2x), never more.
    for row in table4::run() {
        if row.a100_us < 1.0 {
            continue; // sub-µs attention rows: overhead-dominated
        }
        let speedup = row.a100_us / row.h100_us;
        assert!(
            (1.2..4.0).contains(&speedup),
            "{}: H100 speedup {speedup:.2}",
            row.reference.gemm
        );
    }
}

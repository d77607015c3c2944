//! Serialization round-trips: every public configuration and report type
//! survives a JSON round-trip bit-exactly, so experiment artifacts are
//! reproducible from their serialized form.

use optimus::prelude::*;
use optimus_suite as optimus;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn model_config_roundtrips() {
    for model in [
        model::presets::gpt_175b(),
        model::presets::llama2_70b(),
        model::presets::llama2_7b(),
    ] {
        let back: ModelConfig = roundtrip(&model);
        assert_eq!(back, model);
        assert_eq!(back.param_count(), model.param_count());
    }
}

#[test]
fn accelerator_roundtrips() {
    for acc in [
        hw::presets::a100_sxm_80gb(),
        hw::presets::b200_sxm(),
        hw::presets::tpu_v4(),
    ] {
        let back: Accelerator = roundtrip(&acc);
        assert_eq!(back, acc);
    }
}

#[test]
fn cluster_roundtrips() {
    let cluster = hw::presets::dgx_h100_nvs_cluster();
    let back: ClusterSpec = roundtrip(&cluster);
    assert_eq!(back, cluster);
}

#[test]
fn training_config_and_report_roundtrip() {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let cfg = TrainingConfig::new(
        model::presets::gpt_22b(),
        4,
        2048,
        Parallelism::new(1, 8, 1).with_sp(true),
    )
    .with_recompute(RecomputeMode::Selective)
    .with_flash(true);
    let back: TrainingConfig = roundtrip(&cfg);
    assert_eq!(back, cfg);

    let report = TrainingEstimator::new(&cluster).estimate(&cfg).unwrap();
    let report_back: TrainingReport = roundtrip(&report);
    assert_eq!(report_back, report);
}

#[test]
fn inference_config_and_report_roundtrip() {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let cfg = InferenceConfig::nvidia_llama_benchmark(model::presets::llama2_7b(), 2);
    let back: InferenceConfig = roundtrip(&cfg);
    assert_eq!(back, cfg);

    let report = InferenceEstimator::new(&cluster).estimate(&cfg).unwrap();
    let report_back: InferenceReport = roundtrip(&report);
    assert_eq!(report_back, report);
}

#[test]
fn energy_and_cost_models_roundtrip() {
    use optimus::energy::{CostModel, EnergyModel};
    let e: EnergyModel = roundtrip(&EnergyModel::h100_class());
    assert_eq!(e, EnergyModel::h100_class());
    let c: CostModel = roundtrip(&CostModel::b200_system());
    assert_eq!(c, CostModel::b200_system());
}

#[test]
fn quantities_roundtrip_transparently() {
    // Quantities serialize as bare numbers (serde(transparent)).
    let t = Time::from_millis(4735.0);
    assert_eq!(serde_json::to_string(&t).unwrap(), "4.735");
    let b: Bytes = serde_json::from_str("1000000000.0").unwrap();
    assert_eq!(b.gb(), 1.0);
}

/// A paged, prefix-cached `ServeReport` with per-request records: the
/// JSON `serde_json` writes straight from the derived serialization
/// stream equals the JSON of the value tree built from the same stream,
/// compact and pretty. Its integers are far below 2^53, where the tree
/// holds them exactly.
#[test]
fn serve_report_streams_as_its_value_tree_prints() {
    use optimus_serve::{
        ArrivalProcess, KvSpec, LengthDist, PrefixSpec, ServeConfig, ServeInstance, TraceSpec,
    };
    let spec = TraceSpec {
        seed: 3,
        requests: 300,
        arrival: ArrivalProcess::Poisson { rate_per_s: 16.0 },
        prompt: LengthDist::Uniform { lo: 300, hi: 900 },
        output: LengthDist::Uniform { lo: 16, hi: 48 },
        prefixes: Some(PrefixSpec {
            pool: 4,
            tokens: 256,
            rate: 0.7,
        }),
        priority_classes: 3,
    };
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let report = ServeInstance::new(
        &cluster,
        std::sync::Arc::new(model::presets::llama2_7b()),
        ServeConfig::new(1).with_kv(KvSpec::paged(16)),
    )
    .unwrap()
    .simulate(&spec.generate())
    .unwrap();
    assert_eq!(report.per_request.len(), 300);
    let tree = serde::Serialize::to_value(&report);
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&tree).unwrap()
    );
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap()
    );
}

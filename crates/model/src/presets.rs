//! Model presets used throughout the paper's validation and case studies.
//!
//! GPT dimensions follow the Megatron-LM scaling study (Narayanan et al.,
//! SC '21) and the selective-recomputation paper (Korthikanti et al., MLSys
//! '23), which are the sources of the paper's Table 1 reference times.
//! Llama-2 dimensions follow the Meta model cards.

use crate::{AttentionKind, ModelConfig};

/// GPT 6.7B-class model ("GPT-7B" of the paper's Table 3 technology study).
#[must_use]
pub fn gpt_7b() -> ModelConfig {
    ModelConfig::builder("GPT-7B").dims(32, 4096, 32).build()
}

/// GPT-22B (Korthikanti et al. Table 3: h=6144, 48 layers, 64 heads).
#[must_use]
pub fn gpt_22b() -> ModelConfig {
    ModelConfig::builder("GPT-22B").dims(48, 6144, 64).build()
}

/// GPT-3 175B (h=12288, 96 layers, 96 heads).
#[must_use]
pub fn gpt_175b() -> ModelConfig {
    ModelConfig::builder("GPT-175B").dims(96, 12288, 96).build()
}

/// GPT-310B (Megatron-LM SC '21: h=16384, 96 layers, 128 heads).
#[must_use]
pub fn gpt_310b() -> ModelConfig {
    ModelConfig::builder("GPT-310B")
        .dims(96, 16384, 128)
        .build()
}

/// GPT-530B (Megatron-Turing NLG class: h=20480, 105 layers, 128 heads).
#[must_use]
pub fn gpt_530b() -> ModelConfig {
    ModelConfig::builder("GPT-530B")
        .dims(105, 20480, 128)
        .build()
}

/// GPT-1008B, the "1T" model (h=25600, 128 layers, 160 heads).
#[must_use]
pub fn gpt_1008b() -> ModelConfig {
    ModelConfig::builder("GPT-1008B")
        .dims(128, 25600, 160)
        .build()
}

/// Llama-2 7B (h=4096, 32 layers, 32 heads, SwiGLU FFN 11008).
#[must_use]
pub fn llama2_7b() -> ModelConfig {
    ModelConfig::builder("Llama2-7B")
        .dims(32, 4096, 32)
        .llama_style()
        .ffn(11008)
        .build()
}

/// Llama-2 13B (h=5120, 40 layers, 40 heads, SwiGLU FFN 13824).
#[must_use]
pub fn llama2_13b() -> ModelConfig {
    ModelConfig::builder("Llama2-13B")
        .dims(40, 5120, 40)
        .llama_style()
        .ffn(13824)
        .build()
}

/// Llama-2 70B (h=8192, 80 layers, 64 heads, GQA with 8 KV heads,
/// SwiGLU FFN 28672).
#[must_use]
pub fn llama2_70b() -> ModelConfig {
    ModelConfig::builder("Llama2-70B")
        .dims(80, 8192, 64)
        .llama_style()
        .attention(AttentionKind::GroupedQuery { kv_heads: 8 })
        .ffn(28672)
        .build()
}

/// Every preset, GPT then Llama-2, in ascending size within each family.
#[must_use]
pub fn all() -> Vec<ModelConfig> {
    vec![
        gpt_7b(),
        gpt_22b(),
        gpt_175b(),
        gpt_310b(),
        gpt_530b(),
        gpt_1008b(),
        llama2_7b(),
        llama2_13b(),
        llama2_70b(),
    ]
}

/// The preset whose name is `name`, compared case-insensitively with `_`
/// read as `-`; `gpt-1t` names GPT-1008B.
#[must_use]
pub fn by_name(name: &str) -> Option<ModelConfig> {
    let key = name.to_lowercase().replace('_', "-");
    let key = if key == "gpt-1t" { "gpt-1008b" } else { &key };
    all().into_iter().find(|m| m.name.to_lowercase() == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Named sizes should match actual parameter counts within a few
    /// percent — this pins down the dimension tables.
    #[test]
    fn param_counts_match_names() {
        let cases: [(ModelConfig, f64); 8] = [
            (gpt_7b(), 6.9e9),
            (gpt_22b(), 22.0e9),
            (gpt_175b(), 175.0e9),
            (gpt_310b(), 310.0e9),
            (gpt_530b(), 530.0e9),
            (gpt_1008b(), 1008.0e9),
            (llama2_13b(), 13.0e9),
            (llama2_70b(), 69.0e9),
        ];
        for (model, expected) in cases {
            let got = model.param_count();
            let err = (got - expected).abs() / expected;
            assert!(
                err < 0.06,
                "{}: expected ~{:.1}B, got {:.2}B ({:.1}% off)",
                model.name,
                expected / 1e9,
                got / 1e9,
                err * 100.0
            );
        }
    }

    #[test]
    fn llama2_70b_uses_gqa() {
        let m = llama2_70b();
        assert_eq!(m.kv_heads(), 8);
        assert_eq!(m.kv_hidden(), 1024);
    }

    #[test]
    fn llama2_7b_param_count() {
        let got = llama2_7b().param_count();
        assert!((6.5e9..7.0e9).contains(&got), "got {:.2}B", got / 1e9);
    }

    #[test]
    fn families_are_sorted_by_size() {
        for family in ["GPT-", "Llama2-"] {
            let sizes: Vec<f64> = all()
                .iter()
                .filter(|m| m.name.starts_with(family))
                .map(ModelConfig::param_count)
                .collect();
            assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{family}");
        }
    }
}

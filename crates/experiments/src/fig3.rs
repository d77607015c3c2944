//! Fig. 3: GEMV validation on a single A100 — predicted time vs. measured
//! GPU time, with varied (size-dependent) vs. constant DRAM utilization.
//!
//! The original figure correlates predictions against profiled A100 runs,
//! which cannot be re-run without the hardware. Where a paper result rests
//! on measurements we cannot repeat, a deterministic substitute stands in
//! for them: here the "measured" series comes from
//! a *surrogate measurement model*: the same roofline physics with the
//! varied-utilization curve, an extra software-overhead term, and
//! deterministic shape-dependent jitter (±6%) standing in for run-to-run
//! measurement noise. The two predictors are then scored against it exactly
//! as the paper scores against the GPU: the varied-utilization model should
//! track within a few percent, while the constant-utilization model stays
//! accurate for large kernels and degrades for small ones.

use optimus::hw::{presets, DeviceCalibration};
use optimus::prelude::*;
use optimus::roofline::RooflineModel;

/// One GEMV sample point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Matrix rows.
    pub m: usize,
    /// Matrix columns (reduction length).
    pub k: usize,
    /// Surrogate "GPU-measured" time, microseconds.
    pub gpu_us: f64,
    /// Prediction with the varied (size-dependent) utilization, µs.
    pub varied_us: f64,
    /// Prediction with a constant utilization factor, µs.
    pub const_us: f64,
}

/// The constant utilization factor of the simplified model (the paper's
/// orange points).
const CONSTANT_UTILIZATION: f64 = 0.7;

/// GEMV shapes spanning the LLM-relevant range (projection slices of
/// hidden sizes 512…16384).
#[must_use]
pub fn shapes() -> Vec<(usize, usize)> {
    let dims = [512usize, 1024, 2048, 4096, 5120, 8192, 12288, 16384];
    let mut out = Vec::new();
    for &m in &dims {
        for &k in &[1024usize, 4096, 12288] {
            out.push((m, k));
        }
    }
    out
}

/// Deterministic per-shape jitter in `[-0.06, +0.06]` — the measurement
/// noise of the surrogate GPU.
fn jitter(m: usize, k: usize) -> f64 {
    // A small hash keeps the "measurement" reproducible.
    let h = (m
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(k.wrapping_mul(0x85EB_CA6B)))
        % 1000;
    (h as f64 / 1000.0 - 0.5) * 0.12
}

/// Regenerates the scatter.
#[must_use]
pub fn run() -> Vec<Point> {
    let varied_dev = presets::a100_sxm_80gb();
    let const_dev = presets::a100_sxm_80gb().with_calibration(
        DeviceCalibration::datacenter_gpu()
            .with_constant_dram_utilization(Ratio::new(CONSTANT_UTILIZATION)),
    );
    let varied = RooflineModel::new(&varied_dev);
    let constant = RooflineModel::new(&const_dev);

    shapes()
        .into_iter()
        .map(|(m, k)| {
            let v = varied.gemv(m, k, Precision::Fp16).expect("fp16 on A100");
            let c = constant.gemv(m, k, Precision::Fp16).expect("fp16 on A100");
            // Surrogate measurement: varied-utilization physics + 1.5 µs of
            // extra software overhead + deterministic noise.
            let gpu = (v.total().micros() + 1.5) * (1.0 + jitter(m, k));
            Point {
                m,
                k,
                gpu_us: gpu,
                varied_us: v.total().micros(),
                const_us: c.total().micros(),
            }
        })
        .collect()
}

/// Mean absolute percentage error of a predictor against the surrogate.
#[must_use]
pub fn mape(points: &[Point], select: impl Fn(&Point) -> f64) -> f64 {
    points
        .iter()
        .map(|p| 100.0 * (select(p) - p.gpu_us).abs() / p.gpu_us)
        .sum::<f64>()
        / points.len() as f64
}

/// The scatter as rows of strings (header first).
#[must_use]
pub fn csv() -> Vec<Vec<String>> {
    let mut out = vec![vec![
        "m".to_owned(),
        "k".to_owned(),
        "gpu_us".to_owned(),
        "varied_us".to_owned(),
        "const_us".to_owned(),
    ]];
    for p in run() {
        out.push(vec![
            p.m.to_string(),
            p.k.to_string(),
            format!("{:.2}", p.gpu_us),
            format!("{:.2}", p.varied_us),
            format!("{:.2}", p.const_us),
        ]);
    }
    out
}

/// Renders the scatter plus MAPE summary.
#[must_use]
pub fn render() -> String {
    let points = run();
    let mut out = crate::markdown_table(&csv());
    out.push_str(&format!(
        "MAPE varied-utilization: {:.1}%  (paper: 5.4%)\n",
        mape(&points, |p| p.varied_us)
    ));
    out.push_str(&format!(
        "MAPE constant-utilization: {:.1}%\n",
        mape(&points, |p| p.const_us)
    ));
    out
}

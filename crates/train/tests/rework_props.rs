//! Property tests of the exact expected checkpoint rework,
//! [`expected_rework`] `= E[min(U mod (τ+δ), τ)]`:
//!
//! * **bounded** — `0 ≤ E ≤ τ` for every shape, mean, interval and
//!   write time;
//! * **continuous across `k = 1`** — a Weibull shape of `1 ± 1e-6`
//!   matches the exponential closed form to `1e-5` relative;
//! * **monotone** — the auto-interval goodput never drops when the
//!   per-GPU MTBF improves, for `k ∈ {0.7, 1, 1.5}`;
//! * **exact** — agrees to `1e-6` relative with a brute-force per-period
//!   quadrature of `Σ_j [∫_{jP}^{jP+τ} S − τ·S((j+1)P)]` over
//!   `k ∈ [0.3, 5]`;
//! * **unbiased** — agrees with a seeded 2¹⁶-draw Monte Carlo of the
//!   uptime within 4 standard errors;
//! * **scale-invariant** — `E(cM, cτ, cδ) = c·E(M, τ, δ)` to `1e-9`
//!   relative for `c` log-uniform over `[1e-300, 1e300]` and
//!   `k ∈ [0.3, 5]`;
//! * **uniform in phase at tiny intervals** — for `τ/M` log-uniform over
//!   `[1e-300, 1e-12]`, `k ∈ [0.7, 5]` and `δ/τ ∈ [0, 2]`, `E` is within
//!   `1e-6` relative of the uniform-phase value `τ(τ/2 + δ)/(τ + δ)`.
//!
//! The mean is fixed at 1000 s where it does not matter: `E` scales
//! linearly when `M`, `τ` and `δ` scale together.

use optimus_hw::reliability::ln_gamma;
use optimus_hw::{presets, FailureProcess};
use optimus_memory::{training_memory, RecomputeMode, TrainingMemorySpec};
use optimus_model::presets as models;
use optimus_parallel::{Parallelism, PipelineSchedule};
use optimus_train::{expected_rework, CheckpointSpec, StackContext, Uptime};
use optimus_units::Time;
use proptest::prelude::*;

const MEAN: f64 = 1000.0;

/// Gauss–Legendre nodes (positive half) and weights on `[−1, 1]`.
const NODES: [f64; 3] = [
    0.238_619_186_083_196_9,
    0.661_209_386_466_264_5,
    0.932_469_514_203_152,
];
const WEIGHTS: [f64; 3] = [
    0.467_913_934_572_691,
    0.360_761_573_048_138_6,
    0.171_324_492_379_170_4,
];

fn quadrature(f: &dyn Fn(f64) -> f64, a: f64, b: f64, panels: usize) -> f64 {
    let half = (b - a) / panels as f64 / 2.0;
    let mut sum = 0.0;
    for p in 0..panels {
        let mid = a + (2 * p + 1) as f64 * half;
        for (x, w) in NODES.iter().zip(WEIGHTS) {
            sum += w * (f(mid - half * x) + f(mid + half * x));
        }
    }
    sum * half
}

/// `E` summed period by period until the remaining mass bounds the rest
/// below `1e-11` relative, every period on panels of at most a quarter
/// unit of cumulative hazard. The first period substitutes `u = τ·w⁸` to
/// tame the `u^k` cusp at the origin.
fn brute_force(shape: f64, mean: f64, tau: f64, write: f64) -> f64 {
    let scale = mean / ln_gamma(1.0 + 1.0 / shape).exp();
    let z = |u: f64| (u / scale).powf(shape);
    let s = |u: f64| (-z(u)).exp();
    let period = tau + write;
    let first = quadrature(
        &|w: f64| tau * 8.0 * w.powi(7) * s(tau * w.powi(8)),
        0.0,
        1.0,
        400,
    );
    let mut total = first - tau * s(period);
    for j in 1.. {
        let x = j as f64 * period;
        if tau * s(x) < 1e-11 * total {
            break;
        }
        let hazard = (shape * z(x) / x).max(shape * z(x + period) / (x + period));
        let panels = (4.0 * hazard * tau).ceil().max(1.0) as usize;
        total += quadrature(&s, x, x + tau, panels) - tau * s(x + period);
    }
    total
}

/// A splitmix64 stream: the in-test uniform source of the Monte Carlo.
struct SplitMix(u64);

impl SplitMix {
    fn uniform(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The sample mean of `min(U mod P, τ)` over 2¹⁶ inverse-CDF Weibull
/// draws, and its standard error.
fn monte_carlo(shape: f64, mean: f64, tau: f64, write: f64, seed: u64) -> (f64, f64) {
    const DRAWS: usize = 1 << 16;
    let scale = mean / ln_gamma(1.0 + 1.0 / shape).exp();
    let period = tau + write;
    let mut rng = SplitMix(seed);
    let (mut sum, mut sum_sq) = (0.0, 0.0);
    for _ in 0..DRAWS {
        let u = scale * (-(1.0 - rng.uniform()).ln()).powf(1.0 / shape);
        let lost = (u % period).min(tau);
        sum += lost;
        sum_sq += lost * lost;
    }
    let n = DRAWS as f64;
    let sample_mean = sum / n;
    let variance = (sum_sq / n - sample_mean * sample_mean) * n / (n - 1.0);
    (sample_mean, (variance / n).sqrt())
}

/// The per-device footprint of llama2-13b, DP8 × TP8 + SP on 64 GPUs.
fn anchor_memory() -> optimus_memory::TrainingMemoryReport {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `0 ≤ E ≤ τ`, far outside the shapes and scales real fleets use.
    #[test]
    fn rework_is_bounded_by_the_interval(
        shape in prop_oneof![Just(1.0f64), 0.05f64..0.95, 1.05f64..20.0, 20.0f64..1e6],
        mean in 1.0f64..1e9,
        tau in 1e-3f64..1e7,
        write in prop_oneof![Just(0.0f64), 1e-3f64..1e4],
    ) {
        let e = expected_rework(Uptime::weibull(shape, mean), tau, write);
        prop_assert!(e.is_finite() && (0.0..=tau).contains(&e), "E = {e}, τ = {tau}");
    }

    /// A Weibull shape a hair off 1 prices like the exponential law.
    #[test]
    fn near_unit_shapes_match_the_exponential_closed_form(
        tau_frac in 1e-3f64..3.0,
        write_frac in 0.0f64..2.0,
        above in prop_oneof![Just(false), Just(true)],
    ) {
        let (tau, write) = (tau_frac * MEAN, write_frac * tau_frac * MEAN);
        let shape = if above { 1.0 + 1e-6 } else { 1.0 - 1e-6 };
        let weibull = expected_rework(Uptime::weibull(shape, MEAN), tau, write);
        let exponential = expected_rework(Uptime::exponential(MEAN), tau, write);
        prop_assert!(
            (weibull / exponential - 1.0).abs() < 1e-5,
            "k = {shape}: {weibull} vs exponential {exponential}"
        );
    }

    /// Scaling the mean, the interval and the write time together scales
    /// `E` by the same factor, over the whole f64 range: the direct
    /// period sum leaves f64's range far from `M = 1 s` (it returned NaN
    /// below `c ≈ 1e-105` and above `c ≈ 1e100` for `k < 1`).
    #[test]
    fn rework_is_scale_invariant(
        shape in 0.3f64..5.0,
        log_scale in -300.0f64..300.0,
        tau_frac in 1e-3f64..3.0,
        write_frac in 0.0f64..2.0,
    ) {
        let c = 10f64.powf(log_scale);
        let (tau, write) = (tau_frac * MEAN, write_frac * tau_frac * MEAN);
        let base = expected_rework(Uptime::weibull(shape, MEAN), tau, write);
        let scaled = expected_rework(Uptime::weibull(shape, c * MEAN), c * tau, c * write) / c;
        prop_assert!(
            (scaled / base - 1.0).abs() < 1e-9,
            "k = {shape}, c = {c:e}, τ = {tau}, δ = {write}: {scaled} vs {base}"
        );
    }

    /// Far below `τ/M = 1e-12` the period sum cannot resolve one period
    /// where the mass begins, and the phase `U mod P` is uniform: `E` is
    /// its value `τ(τ/2 + δ)/(τ + δ)`. The sum read 0 there (below
    /// `τ/M ≈ 1e-41` at `k = 0.7` and `1e-20` at `k = 5`).
    #[test]
    fn rework_tends_to_the_uniform_phase_at_tiny_intervals(
        shape in 0.7f64..5.0,
        write_frac in 0.0f64..2.0,
        log_tau_frac in -300.0f64..-12.0,
    ) {
        let tau = 10f64.powf(log_tau_frac) * MEAN;
        let write = write_frac * tau;
        let e = expected_rework(Uptime::weibull(shape, MEAN), tau, write);
        let uniform = tau * ((tau / 2.0 + write) / (tau + write));
        prop_assert!(
            (e / uniform - 1.0).abs() < 1e-6,
            "k = {shape}, τ/M = {:e}, δ/τ = {write_frac}: {e} vs {uniform}",
            tau / MEAN
        );
    }

    /// A better per-GPU MTBF never lowers the auto-interval goodput.
    #[test]
    fn auto_interval_goodput_is_monotone_in_mtbf(
        shape in prop_oneof![Just(0.7f64), Just(1.0), Just(1.5)],
        mtbf_lo in 1e3f64..1e9,
        gain in 1.01f64..100.0,
        restart in 0.0f64..5_000.0,
    ) {
        let cluster = presets::dgx_a100_hdr_cluster();
        let memory = anchor_memory();
        // One DP group of 64 devices: no peer group, nothing to shrink.
        let ctx = StackContext {
            cluster: &cluster,
            memory: &memory,
            parallelism: Parallelism::new(1, 8, 8),
            time_per_batch: Time::from_secs(10.0),
        };
        let goodput = |mtbf_s: f64| {
            CheckpointSpec::with_mtbf(mtbf_s)
                .with_restart(restart)
                .with_process(FailureProcess::Weibull { shape })
                .evaluate_stack(&ctx, &|_| None, &expected_rework)
                .expect("active spec evaluates")
                .goodput
        };
        let (lo, hi) = (goodput(mtbf_lo), goodput(mtbf_lo * gain));
        prop_assert!(hi >= lo, "k = {shape}: goodput {hi} at {gain}× the MTBF < {lo}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The period sum, closed with an Euler–Maclaurin tail, matches the
    /// brute-force sum of every period.
    #[test]
    fn rework_matches_a_per_period_quadrature(
        shape in 0.3f64..5.0,
        tau_frac in 0.05f64..1.0,
        write_frac in prop_oneof![Just(0.0f64), 0.0f64..1.0],
    ) {
        let (tau, write) = (tau_frac * MEAN, write_frac * tau_frac * MEAN);
        let exact = expected_rework(Uptime::weibull(shape, MEAN), tau, write);
        let brute = brute_force(shape, MEAN, tau, write);
        prop_assert!(
            (exact / brute - 1.0).abs() < 1e-6,
            "k = {shape}, τ = {tau}, δ = {write}: {exact} vs brute force {brute}"
        );
    }

    /// The deterministic value sits within the sampling error of a seeded
    /// Monte Carlo of the renewal process.
    #[test]
    fn rework_agrees_with_a_seeded_monte_carlo(
        shape in 0.3f64..5.0,
        tau_frac in 1e-2f64..2.0,
        write_frac in 0.0f64..1.0,
        seed in 0u64..u64::MAX,
    ) {
        let (tau, write) = (tau_frac * MEAN, write_frac * tau_frac * MEAN);
        let exact = expected_rework(Uptime::weibull(shape, MEAN), tau, write);
        let (sampled, stderr) = monte_carlo(shape, MEAN, tau, write, seed);
        prop_assert!(
            (exact - sampled).abs() <= 4.0 * stderr,
            "k = {shape}, τ = {tau}, δ = {write}: {exact} vs {sampled} ± {stderr}"
        );
    }
}

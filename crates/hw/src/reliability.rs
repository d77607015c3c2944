//! Failure-process shapes shared by the training-resilience and
//! fleet-serving fault models.
//!
//! A [`FailureProcess`] describes *how* failures arrive; the mean time
//! between failures itself stays wherever it always lived (the
//! `mtbf_s` field of `optimus-train`'s `CheckpointSpec` and
//! `optimus-serve`'s `FaultSpec`). Three shapes cover the regimes the
//! RAPID-LLM fleet studies document:
//!
//! * [`FailureProcess::Exponential`] — the memoryless baseline. Every
//!   pre-existing code path (Young–Daly closed forms, the serving outage
//!   streams) is defined over this shape and stays byte-identical.
//! * [`FailureProcess::Weibull`] — shape `k` controls the hazard: `k < 1`
//!   models infant mortality (burn-in failures cluster early, the
//!   signature of freshly provisioned GPU fleets), `k > 1` wear-out, and
//!   `k = 1` reduces *exactly* to the exponential process (the reduction
//!   is special-cased so closed forms reproduce bit-for-bit). The
//!   min-stability property of the Weibull family gives the cluster-level
//!   first-failure time in closed form: the minimum of `n` iid
//!   `Weibull(k, λ)` lifetimes is `Weibull(k, λ / n^{1/k})`, so the
//!   cluster MTBF is `mtbf / n^{1/k}` — much worse than `mtbf / n` when
//!   `k < 1`, which is precisely why infant mortality reorders strategy
//!   frontiers at scale.
//! * [`FailureProcess::RackCorrelated`] — failures also arrive per *rack*
//!   (shared power feed, leaf switch), superimposed on the per-GPU
//!   process. Rates add: the cluster failure rate is
//!   `gpus / mtbf + racks / rack_mtbf`, and a rack event takes
//!   `gpus / racks` devices down together — the training-side analogue of
//!   the serving fleet's `FaultDomain` machinery, with the same
//!   "blast radius" consequences for elastic recovery.
//!
//! The module also carries the special functions Weibull pricing needs:
//! [`ln_gamma`] and [`weibull_scale`] convert a mean into a scale, and
//! [`regularized_gamma_p`] gives the Weibull partial mean
//! `∫₀^τ S(u) du`, the first period of `optimus-train`'s exact expected
//! checkpoint rework. Nothing here draws random numbers; the serving
//! fault streams seed their own generators in `optimus-serve`.

use serde::{Deserialize, Serialize};

/// The inter-arrival shape of a failure process. See the module docs for
/// the modeling background of each variant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum FailureProcess {
    /// Memoryless exponential failures — the classic Young–Daly regime.
    #[default]
    Exponential,
    /// Weibull-shaped failures with shape parameter `k`.
    Weibull {
        /// The Weibull shape `k`: `< 1` infant mortality, `1` exponential
        /// (bit-exact), `> 1` wear-out.
        shape: f64,
    },
    /// Per-GPU exponential failures plus a correlated per-rack
    /// exponential process whose events take a whole rack down at once.
    RackCorrelated {
        /// Number of racks the job's GPUs are split across (contiguous,
        /// near-even — the same convention as the serving fleet's
        /// `--domains`).
        racks: usize,
        /// Mean seconds of rack uptime between shared outages.
        rack_mtbf_s: f64,
    },
}

impl FailureProcess {
    /// Whether this is the exponential shape — including the `k = 1`
    /// Weibull, which is the same distribution and must price through the
    /// same closed forms bit-exactly.
    #[must_use]
    pub fn is_exponential(&self) -> bool {
        match self {
            Self::Exponential => true,
            Self::Weibull { shape } => *shape == 1.0,
            Self::RackCorrelated { .. } => false,
        }
    }

    /// Validates the shape parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a parameter is out of range
    /// (non-positive or non-finite Weibull shape, zero racks, or a
    /// non-positive/non-finite rack MTBF), or when a shape or rack MTBF is
    /// so small (below about 5.6e-309) that its reciprocal overflows.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Self::Exponential => Ok(()),
            Self::Weibull { shape } => {
                if !(shape.is_finite() && *shape > 0.0) {
                    return Err(format!(
                        "Weibull shape must be positive and finite, got {shape}"
                    ));
                }
                if !(1.0 / shape).is_finite() {
                    return Err(format!(
                        "Weibull shape {shape:?} is too small: its reciprocal 1/k overflows"
                    ));
                }
                Ok(())
            }
            Self::RackCorrelated { racks, rack_mtbf_s } => {
                if *racks == 0 {
                    return Err("rack-correlated process needs at least 1 rack".to_owned());
                }
                if !(rack_mtbf_s.is_finite() && *rack_mtbf_s > 0.0) {
                    return Err(format!(
                        "rack MTBF must be positive and finite, got {rack_mtbf_s}"
                    ));
                }
                if !(1.0 / rack_mtbf_s).is_finite() {
                    return Err(format!(
                        "rack MTBF {rack_mtbf_s:?} s is too short: its rate 1/MTBF overflows"
                    ));
                }
                Ok(())
            }
        }
    }

    /// The cluster-level mean time between job-stopping failures for
    /// `gpus` devices whose individual mean lifetime is `mtbf_s`:
    ///
    /// * exponential — rates add: `mtbf / n`;
    /// * Weibull — min-stability: `mtbf / n^{1/k}` (the minimum of `n` iid
    ///   Weibull lifetimes is Weibull with the scale divided by
    ///   `n^{1/k}`, and the mean scales with the scale); `k = 1` takes the
    ///   exponential branch so the division is bit-identical;
    /// * rack-correlated — per-GPU and per-rack Poisson rates superpose:
    ///   `1 / (n / mtbf + racks / rack_mtbf)`.
    #[must_use]
    pub fn cluster_mtbf(&self, mtbf_s: f64, gpus: usize) -> f64 {
        let n = gpus as f64;
        match self {
            Self::Exponential => mtbf_s / n,
            Self::Weibull { shape } => {
                if *shape == 1.0 {
                    mtbf_s / n
                } else {
                    mtbf_s / n.powf(1.0 / shape)
                }
            }
            Self::RackCorrelated { racks, rack_mtbf_s } => {
                1.0 / (n / mtbf_s + *racks as f64 / rack_mtbf_s)
            }
        }
    }
}

impl core::fmt::Display for FailureProcess {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Exponential => write!(f, "exponential"),
            Self::Weibull { shape } => write!(f, "weibull(k={shape})"),
            Self::RackCorrelated { racks, rack_mtbf_s } => {
                write!(f, "{racks} rack(s) @ mtbf {rack_mtbf_s} s + per-GPU")
            }
        }
    }
}

/// `ln Γ(x)` for `x > 0` via the Lanczos approximation (g = 7, n = 9
/// coefficients — ~15 significant digits over the range the failure
/// models use). Needed to convert a Weibull *mean* into its *scale*:
/// `mean = scale · Γ(1 + 1/k)`.
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1−x) = π / sin(πx).
        let pi = core::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * core::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The regularized lower incomplete gamma function
/// `P(a, x) = γ(a, x) / Γ(a)` for `a > 0`, `x ≥ 0` (`0` for `x ≤ 0`,
/// `1` for `x = ∞`).
/// Needed for the Weibull partial mean: the first `τ` seconds of a
/// Weibull(`k`, `λ`) survival curve integrate to
/// `mean · P(1/k, (τ/λ)^k)`.
///
/// Power series below `x = a + 1`, Lentz's continued fraction for the
/// complement above (Numerical Recipes §6.2); both converge to a few ulps
/// of their result.
#[must_use]
pub fn regularized_gamma_p(a: f64, x: f64) -> f64 {
    // Iteration cap: the series needs O(√a) terms past x ≈ a and the
    // fraction converges in O(√x); neither comes near this for any `a`
    // the failure models produce.
    const MAX_ITER: usize = 100_000;
    if x <= 0.0 {
        return 0.0;
    }
    if x == f64::INFINITY {
        return 1.0;
    }
    let prefactor = (a * x.ln() - x - ln_gamma(a)).exp();
    if x < a + 1.0 {
        let mut term = 1.0 / a;
        let mut sum = term;
        for n in 1..MAX_ITER {
            term *= x / (a + n as f64);
            sum += term;
            if term < sum * f64::EPSILON {
                break;
            }
        }
        (prefactor * sum).min(1.0)
    } else {
        const TINY: f64 = 1e-300;
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / TINY;
        let mut d = 1.0 / b;
        let mut h = d;
        for n in 1..MAX_ITER {
            let an = -(n as f64) * (n as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < TINY {
                d = TINY;
            }
            c = b + an / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            let step = d * c;
            h *= step;
            if (step - 1.0).abs() < f64::EPSILON {
                break;
            }
        }
        (1.0 - prefactor * h).max(0.0)
    }
}

/// The scale parameter of a Weibull distribution with the given mean and
/// shape: `scale = mean / Γ(1 + 1/k)`. For `k = 1` this is exactly the
/// mean (`Γ(2) = 1`; special-cased so no approximation error leaks in).
#[must_use]
pub fn weibull_scale(mean: f64, shape: f64) -> f64 {
    if shape == 1.0 {
        mean
    } else {
        mean / ln_gamma(1.0 + 1.0 / shape).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_and_unit_weibull_agree_bitwise() {
        let exp = FailureProcess::Exponential;
        let w1 = FailureProcess::Weibull { shape: 1.0 };
        for gpus in [1, 8, 64, 16_384] {
            assert_eq!(
                exp.cluster_mtbf(50_000.0 * 3600.0, gpus).to_bits(),
                w1.cluster_mtbf(50_000.0 * 3600.0, gpus).to_bits(),
                "k = 1 must take the exponential branch verbatim"
            );
        }
        assert!(w1.is_exponential());
    }

    #[test]
    fn infant_mortality_degrades_cluster_mtbf_superlinearly() {
        let exp = FailureProcess::Exponential;
        let infant = FailureProcess::Weibull { shape: 0.7 };
        let wearout = FailureProcess::Weibull { shape: 1.5 };
        let m = 1e8;
        assert!(infant.cluster_mtbf(m, 64) < exp.cluster_mtbf(m, 64));
        assert!(wearout.cluster_mtbf(m, 64) > exp.cluster_mtbf(m, 64));
        // Single GPU: shape is irrelevant to the mean.
        assert!((infant.cluster_mtbf(m, 1) - m).abs() < 1e-3);
    }

    #[test]
    fn rack_correlation_adds_rates() {
        let racks = FailureProcess::RackCorrelated {
            racks: 8,
            rack_mtbf_s: 1e6,
        };
        let m = racks.cluster_mtbf(1e8, 64);
        let expect = 1.0 / (64.0 / 1e8 + 8.0 / 1e6);
        assert!((m - expect).abs() < 1e-9);
        // Strictly worse than per-GPU failures alone.
        assert!(m < FailureProcess::Exponential.cluster_mtbf(1e8, 64));
    }

    #[test]
    fn validation_rejects_degenerate_shapes() {
        assert!(FailureProcess::Exponential.validate().is_ok());
        assert!(FailureProcess::Weibull { shape: 0.7 }.validate().is_ok());
        assert!(FailureProcess::Weibull { shape: 0.0 }.validate().is_err());
        assert!(FailureProcess::Weibull { shape: -1.0 }.validate().is_err());
        assert!(FailureProcess::Weibull {
            shape: f64::INFINITY
        }
        .validate()
        .is_err());
        assert!(FailureProcess::RackCorrelated {
            racks: 0,
            rack_mtbf_s: 1e6
        }
        .validate()
        .is_err());
        assert!(FailureProcess::RackCorrelated {
            racks: 4,
            rack_mtbf_s: 0.0
        }
        .validate()
        .is_err());
    }

    /// A rack MTBF or Weibull shape below about 5.6e-309 has an infinite
    /// reciprocal: the rack rate makes the cluster MTBF 0 and then a NaN
    /// time, and an infinite `1/k` never finishes pricing. Both are
    /// refused; the smallest normal values still pass.
    #[test]
    fn validation_rejects_parameters_whose_reciprocal_overflows() {
        let tiny = 1e-320;
        let racks = |rack_mtbf_s| FailureProcess::RackCorrelated {
            racks: 4,
            rack_mtbf_s,
        };
        assert!(racks(tiny).validate().is_err());
        assert!(FailureProcess::Weibull { shape: tiny }.validate().is_err());
        assert!(racks(f64::MIN_POSITIVE).validate().is_ok());
        assert!(FailureProcess::Weibull {
            shape: f64::MIN_POSITIVE
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn lanczos_gamma_hits_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(0.5) = √π, Γ(5) = 24.
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(0.5) - core::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        // Weibull mean/scale relation: k = 2 ⇒ mean = scale·√π/2.
        let scale = weibull_scale(100.0, 2.0);
        assert!((scale * core::f64::consts::PI.sqrt() / 2.0 - 100.0).abs() < 1e-9);
        assert_eq!(weibull_scale(123.0, 1.0), 123.0);
    }

    #[test]
    fn incomplete_gamma_hits_closed_forms_on_both_branches() {
        // P(1, x) = 1 − e^{−x}; P(2, x) = 1 − (1 + x)e^{−x};
        // P(1/2, x) = erf(√x), checked at x = 1 (erf 1 = 0.8427007929497149).
        for x in [1e-8, 0.3, 1.0, 2.5, 7.0, 40.0] {
            let p1 = regularized_gamma_p(1.0, x);
            assert!(
                (p1 / -(-x).exp_m1() - 1.0).abs() < 1e-14,
                "P(1, {x}) = {p1}"
            );
            let p2 = regularized_gamma_p(2.0, x);
            let expect = 1.0 - (1.0 + x) * (-x).exp();
            assert!((p2 - expect).abs() < 1e-14, "P(2, {x}) = {p2} vs {expect}");
        }
        assert!((regularized_gamma_p(0.5, 1.0) - 0.842_700_792_949_714_9).abs() < 1e-14);
        assert_eq!(regularized_gamma_p(3.0, 0.0), 0.0);
        assert_eq!(regularized_gamma_p(0.7, 1e3), 1.0);
        assert_eq!(regularized_gamma_p(0.005, f64::INFINITY), 1.0);
        // Small x: P(a, x) ≈ x^a / Γ(a + 1), relative accuracy intact.
        let (a, x): (f64, f64) = (1.0 / 0.7, 1e-6);
        let lead = (a * x.ln() - ln_gamma(a + 1.0)).exp();
        assert!((regularized_gamma_p(a, x) / lead - 1.0).abs() < 1e-5);
    }
}

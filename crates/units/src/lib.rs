//! Strongly-typed physical quantities for the Optimus performance-modeling suite.
//!
//! Analytical performance models juggle many `f64`s that mean very different
//! things: seconds, bytes, FLOP counts, bandwidths, areas, powers. Mixing them
//! up silently produces plausible-looking nonsense, so this crate wraps each
//! quantity in a newtype ([C-NEWTYPE]) with only the physically meaningful
//! arithmetic defined between them:
//!
//! ```
//! use optimus_units::{Bytes, Bandwidth, FlopCount, FlopThroughput, Time};
//!
//! let volume = Bytes::from_gib(2.0);
//! let bw = Bandwidth::from_gb_per_sec(2_000.0); // 2 TB/s HBM
//! let t: Time = volume / bw;
//! assert!(t.secs() > 0.001 && t.secs() < 0.0011);
//!
//! let work = FlopCount::from_tera(312.0);
//! let peak = FlopThroughput::from_tera(312.0); // A100 FP16 peak
//! assert!((work / peak).secs() - 1.0 < 1e-12);
//! ```
//!
//! All quantities are backed by `f64`, are `Copy`, order totally (`NaN` is
//! rejected at construction), implement [`serde::Serialize`]/`Deserialize`,
//! and display with automatically scaled SI units.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod data;
mod flops;
mod physical;
mod ratio;
mod scalar;
mod time;

pub use bandwidth::Bandwidth;
pub use data::Bytes;
pub use flops::{FlopCount, FlopThroughput};
pub use physical::{Area, Energy, Frequency, Power};
pub use ratio::Ratio;
pub use time::Time;

/// A plain figure for text reports: it prints as the `f64` does under the
/// caller's format spec below 2^53 in magnitude, and in exponent form
/// (`{:.3e}`) from there up, where fixed-point digits past the 16th are
/// noise.
///
/// ```
/// use optimus_units::Figure;
///
/// assert_eq!(format!("{:.4}", Figure(0.5)), "0.5000");
/// assert_eq!(format!("{:.4}", Figure(1e300)), "1.000e300");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure(pub f64);

impl core::fmt::Display for Figure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.0.abs() >= 9_007_199_254_740_992.0 {
            write!(f, "{:.3e}", self.0)
        } else {
            core::fmt::Display::fmt(&self.0, f)
        }
    }
}

/// Formats a raw value with an SI prefix chosen from `units`, which lists
/// `(scale, suffix)` pairs in descending scale order.
///
/// Shared by the `Display` impls of every quantity in this crate.
pub(crate) fn format_scaled(
    f: &mut core::fmt::Formatter<'_>,
    value: f64,
    units: &[(f64, &str)],
) -> core::fmt::Result {
    debug_assert!(!units.is_empty());
    for &(scale, suffix) in units {
        if value >= scale || (scale, suffix) == *units.last().expect("non-empty") {
            let scaled = Figure(value / scale);
            if scaled.0 >= 100.0 {
                return write!(f, "{scaled:.0} {suffix}");
            } else if scaled.0 >= 10.0 {
                return write!(f, "{scaled:.1} {suffix}");
            }
            return write!(f, "{scaled:.3} {suffix}");
        }
    }
    unreachable!("last unit always matches");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_over_bandwidth_is_time() {
        let t = Bytes::from_gb(4.0) / Bandwidth::from_gb_per_sec(2.0);
        assert!((t.secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flops_over_throughput_is_time() {
        let t = FlopCount::from_giga(10.0) / FlopThroughput::from_giga(5.0);
        assert!((t.secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn energy_is_power_times_time() {
        let e = Power::from_watts(250.0) * Time::from_secs(4.0);
        assert!((e.joules() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn display_scales() {
        assert_eq!(Bytes::from_gib(80.0).to_string(), "80.0 GiB");
        assert_eq!(Time::from_micros(82.0).to_string(), "82.0 us");
        assert_eq!(Bandwidth::from_gb_per_sec(3350.0).to_string(), "3.350 TB/s");
    }

    /// A figure of 2^53 or more in its displayed unit prints in exponent
    /// form instead of hundreds of fixed-point digits; one below it prints
    /// in fixed point.
    #[test]
    fn huge_figures_print_in_exponent_form() {
        let hours = |h: f64| Time::from_secs(h * 3600.0).to_string();
        assert_eq!(hours(1.8279255131576443e296), "1.828e296 h");
        assert_eq!(hours(9_007_199_254_740_992.0), "9.007e15 h");
        assert_eq!(hours(4_503_599_627_370_496.0), "4503599627370496 h");
        assert_eq!(hours(150.0), "150 h");
        assert_eq!(Bytes::new(1e300).to_string(), "9.095e287 TiB");
        assert_eq!(format!("{:.1}", Figure(-1e20)), "-1.000e20");
        assert_eq!(format!("{}", Figure(900.0)), "900");
        assert_eq!(format!("{:>8.2}", Figure(0.5)), "    0.50");
    }
}

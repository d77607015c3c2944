//! Silicon-level quantities used by the micro-architecture engine.

use crate::scalar::quantity;
use crate::Time;

quantity!(
    /// Silicon area in square millimeters.
    Area,
    "square millimeters"
);

quantity!(
    /// Power in watts.
    Power,
    "watts"
);

quantity!(
    /// Energy in joules.
    Energy,
    "joules"
);

quantity!(
    /// Clock frequency in hertz.
    Frequency,
    "hertz"
);

impl Area {
    /// Creates an area from mm². Alias of [`Area::new`].
    #[must_use]
    pub fn from_mm2(mm2: f64) -> Self {
        Self::new(mm2)
    }

    /// The area in mm².
    #[must_use]
    pub const fn mm2(self) -> f64 {
        self.get()
    }
}

impl Power {
    /// Creates a power from watts. Alias of [`Power::new`].
    #[must_use]
    pub fn from_watts(w: f64) -> Self {
        Self::new(w)
    }

    /// The power in watts.
    #[must_use]
    pub const fn watts(self) -> f64 {
        self.get()
    }
}

impl Energy {
    /// The energy in joules.
    #[must_use]
    pub const fn joules(self) -> f64 {
        self.get()
    }
}

impl Frequency {
    /// Creates a frequency from gigahertz.
    #[must_use]
    pub fn from_ghz(ghz: f64) -> Self {
        Self::new(ghz * 1e9)
    }

    /// The frequency in GHz.
    #[must_use]
    pub fn ghz(self) -> f64 {
        self.get() / 1e9
    }
}

impl core::ops::Mul<Time> for Power {
    type Output = Energy;
    fn mul(self, rhs: Time) -> Energy {
        Energy::new(self.watts() * rhs.secs())
    }
}

impl core::ops::Div<Power> for Energy {
    type Output = Time;
    fn div(self, rhs: Power) -> Time {
        Time::new(self.joules() / rhs.watts())
    }
}

impl core::fmt::Display for Area {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.1} mm^2", self.mm2())
    }
}

impl core::fmt::Display for Power {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        crate::format_scaled(f, self.watts(), &[(1e3, "kW"), (1.0, "W"), (1e-3, "mW")])
    }
}

impl core::fmt::Display for Energy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        crate::format_scaled(
            f,
            self.joules(),
            &[(1e6, "MJ"), (1e3, "kJ"), (1.0, "J"), (1e-3, "mJ")],
        )
    }
}

impl core::fmt::Display for Frequency {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        crate::format_scaled(
            f,
            self.get(),
            &[(1e9, "GHz"), (1e6, "MHz"), (1e3, "kHz"), (1.0, "Hz")],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_energy_roundtrip() {
        let e = Power::from_watts(400.0) * Time::from_secs(10.0);
        assert_eq!(e.joules(), 4000.0);
        let t = e / Power::from_watts(400.0);
        assert!((t.secs() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn frequency_display() {
        assert_eq!(Frequency::from_ghz(1.41).to_string(), "1.410 GHz");
    }
}

//! # flumen-units
//!
//! Zero-cost dimensional newtypes for the quantities the Flumen evaluation
//! stack books: optical loss in decibels, optical/electrical power in
//! milliwatts, energy in picojoules, simulator time in cycles and
//! nanoseconds, and MZI phase in radians.
//!
//! Every type is a `#[repr(transparent)]` wrapper over `f64` (or `u64` for
//! [`Cycles`]), so the compiled code is identical to the bare-float version
//! it replaced — the only thing added is a compile error when two
//! incompatible domains meet. Each type implements **only the arithmetic
//! that is dimensionally legal**:
//!
//! * decibels add and subtract (they are logarithms); they never multiply
//!   with another decibel value,
//! * milliwatts scale by dimensionless linear ratios and divide into
//!   ratios,
//! * `mW·ns = pJ` is the one cross-type product, because the energy model
//!   prices power over time,
//! * cycles convert to nanoseconds only through a [`GigaHertz`] clock.
//!
//! Absolute power levels in dBm convert to milliwatts **only** through the
//! named constructors [`Milliwatts::from_dbm`] / [`Milliwatts::to_dbm`] —
//! there is no implicit dB-vs-dBm coercion.
//!
//! The conversion bodies are written to be bit-for-bit identical to the
//! expressions they replaced across the workspace (same operations, same
//! association), so migrating a call site onto these types never moves a
//! golden number.
//!
//! Each type carries a [`SUFFIX`](Decibels::SUFFIX) naming its canonical
//! serialization suffix (`loss_db`, `latency_ns`, `energy_pj`, …); result
//! sinks build their JSON/CSV keys from these constants so key names stay
//! tied to the unit they promise.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the common scalar-ops surface shared by the f64-backed units:
/// same-type add/sub and scaling by a dimensionless `f64` on either side.
macro_rules! linear_unit_ops {
    ($ty:ident) => {
        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }
        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }
        impl SubAssign for $ty {
            fn sub_assign(&mut self, rhs: $ty) {
                self.0 -= rhs.0;
            }
        }
        impl Mul<f64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: f64) -> $ty {
                $ty(self.0 * rhs)
            }
        }
        impl Mul<$ty> for f64 {
            type Output = $ty;
            fn mul(self, rhs: $ty) -> $ty {
                $ty(self * rhs.0)
            }
        }
        impl Div<f64> for $ty {
            type Output = $ty;
            fn div(self, rhs: f64) -> $ty {
                $ty(self.0 / rhs)
            }
        }
        /// Same-unit division yields a dimensionless ratio.
        impl Div<$ty> for $ty {
            type Output = f64;
            fn div(self, rhs: $ty) -> f64 {
                self.0 / rhs.0
            }
        }
        impl Neg for $ty {
            type Output = $ty;
            fn neg(self) -> $ty {
                $ty(-self.0)
            }
        }
        impl Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                $ty(iter.map(|v| v.0).sum())
            }
        }
    };
}

/// Optical power ratio (loss or gain) in decibels: `10·log₁₀(P₁/P₀)`.
///
/// Also used for absolute levels referenced to 1 mW (dBm) — the reference
/// is carried by the conversion constructors on [`Milliwatts`], never by an
/// implicit coercion.
///
/// # Examples
///
/// ```
/// use flumen_units::Decibels;
/// let per_mzi = Decibels::new(0.27);
/// let path = 14.0 * per_mzi; // losses along a path add in dB
/// assert!((path.value() - 3.78).abs() < 1e-12);
/// // −3.01 dB is half power in the linear domain.
/// assert!((Decibels::new(-3.0103).to_linear() - 0.5).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Decibels(f64);

impl Decibels {
    /// Canonical key/identifier suffix for serialized dB values.
    pub const SUFFIX: &'static str = "db";

    /// Zero loss.
    pub const ZERO: Decibels = Decibels(0.0);

    /// Wraps a raw dB value.
    pub const fn new(db: f64) -> Self {
        Decibels(db)
    }

    /// Converts a linear power ratio to decibels: `10·log₁₀(ratio)`.
    pub fn from_linear(ratio: f64) -> Self {
        Decibels(10.0 * ratio.log10())
    }

    /// The raw dB value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to a linear power ratio: `10^(dB/10)`.
    pub fn to_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }
}

linear_unit_ops!(Decibels);

impl fmt::Display for Decibels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)?;
        f.write_str(" dB")
    }
}

/// Optical or electrical power in milliwatts.
///
/// # Examples
///
/// ```
/// use flumen_units::{Decibels, Milliwatts};
/// // A −20 dBm receiver floor is 10 µW:
/// let floor = Milliwatts::from_dbm(Decibels::new(-20.0));
/// assert!((floor.value() - 0.01).abs() < 1e-12);
/// // Power through 10 dB of loss needs 10× at the source:
/// let src = floor * Decibels::new(10.0).to_linear();
/// assert!((src.value() - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Milliwatts(f64);

impl Milliwatts {
    /// Canonical key/identifier suffix for serialized mW values.
    pub const SUFFIX: &'static str = "mw";

    /// Wraps a raw mW value.
    pub const fn new(mw: f64) -> Self {
        Milliwatts(mw)
    }

    /// Converts an absolute dBm level to milliwatts: `10^(dBm/10)`.
    ///
    /// This named constructor is the **only** dBm → mW path; dB values
    /// never coerce into power implicitly.
    pub fn from_dbm(level: Decibels) -> Self {
        Milliwatts(10f64.powf(level.value() / 10.0))
    }

    /// Builds a mW value from microwatts (`µW / 1000`).
    pub fn from_microwatts(uw: f64) -> Self {
        Milliwatts(uw / 1000.0)
    }

    /// Converts to an absolute dBm level: `10·log₁₀(mW)`.
    pub fn to_dbm(self) -> Decibels {
        Decibels(10.0 * self.0.log10())
    }

    /// The raw mW value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The value in watts (`mW / 1000`).
    pub fn to_watts(self) -> f64 {
        self.0 / 1000.0
    }
}

linear_unit_ops!(Milliwatts);

impl fmt::Display for Milliwatts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)?;
        f.write_str(" mW")
    }
}

/// Energy in picojoules.
///
/// # Examples
///
/// ```
/// use flumen_units::Picojoules;
/// let per_mac = Picojoules::new(554.0 / 2048.0);
/// let total = per_mac.for_each(2048);
/// assert!((total.value() - 554.0).abs() < 1e-12);
/// assert!((total.to_joules() - 554.0e-12).abs() < 1e-24);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Picojoules(f64);

impl Picojoules {
    /// Canonical key/identifier suffix for serialized pJ values.
    pub const SUFFIX: &'static str = "pj";

    /// Wraps a raw pJ value.
    pub const fn new(pj: f64) -> Self {
        Picojoules(pj)
    }

    /// Converts joules to picojoules (`J × 10¹²`).
    pub fn from_joules(j: f64) -> Self {
        Picojoules(j * 1e12)
    }

    /// The raw pJ value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The value in joules (`pJ × 10⁻¹²`).
    pub fn to_joules(self) -> f64 {
        self.0 * 1e-12
    }

    /// Total energy of `count` events priced at this per-event energy —
    /// the sanctioned way to multiply an event counter into the energy
    /// domain without a bare `as f64` cast at the call site.
    pub fn for_each(self, count: u64) -> Picojoules {
        Picojoules(count as f64 * self.0)
    }
}

linear_unit_ops!(Picojoules);

impl fmt::Display for Picojoules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)?;
        f.write_str(" pJ")
    }
}

/// Simulated time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Nanoseconds(f64);

impl Nanoseconds {
    /// Canonical key/identifier suffix for serialized ns values.
    pub const SUFFIX: &'static str = "ns";

    /// Wraps a raw ns value.
    pub const fn new(ns: f64) -> Self {
        Nanoseconds(ns)
    }

    /// The raw ns value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The value in seconds (`ns × 10⁻⁹`).
    pub fn to_seconds(self) -> f64 {
        self.0 * 1e-9
    }
}

linear_unit_ops!(Nanoseconds);

/// `mW · ns = pJ` — the one legal cross-type product: the energy model
/// prices static power over active time.
impl Mul<Milliwatts> for Nanoseconds {
    type Output = Picojoules;
    fn mul(self, rhs: Milliwatts) -> Picojoules {
        Picojoules(self.0 * rhs.0)
    }
}

/// `ns · mW = pJ`, commuted.
impl Mul<Nanoseconds> for Milliwatts {
    type Output = Picojoules;
    fn mul(self, rhs: Nanoseconds) -> Picojoules {
        Picojoules(self.0 * rhs.0)
    }
}

impl fmt::Display for Nanoseconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)?;
        f.write_str(" ns")
    }
}

/// A clock rate in gigahertz; the only bridge between [`Cycles`] and
/// wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct GigaHertz(f64);

impl GigaHertz {
    /// Canonical key/identifier suffix for serialized GHz values.
    pub const SUFFIX: &'static str = "ghz";

    /// Wraps a raw GHz value.
    pub const fn new(ghz: f64) -> Self {
        GigaHertz(ghz)
    }

    /// The raw GHz value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Time to complete `count` events at this rate, in nanoseconds
    /// (`count / GHz`). Used for streaming-rate models where the count is
    /// already fractional.
    pub fn ns_for(self, count: f64) -> Nanoseconds {
        Nanoseconds(count / self.0)
    }
}

impl fmt::Display for GigaHertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)?;
        f.write_str(" GHz")
    }
}

/// Simulated time (or an event count) in clock cycles.
///
/// Cycles convert to wall-clock time only through a [`GigaHertz`] clock —
/// [`Cycles::at`] and [`Cycles::to_seconds`] are the sanctioned paths, so
/// a cycles-vs-nanoseconds mixup no longer compiles.
///
/// # Examples
///
/// ```
/// use flumen_units::{Cycles, GigaHertz};
/// let clk = GigaHertz::new(2.5);
/// let t = Cycles::new(5_000).at(clk);
/// assert!((t.value() - 2_000.0).abs() < 1e-12);
/// assert!((Cycles::new(5_000).to_seconds(clk) - 2e-6).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Cycles(u64);

impl Cycles {
    /// Canonical key/identifier suffix for serialized cycle counts.
    pub const SUFFIX: &'static str = "cycles";

    /// Wraps a raw cycle count.
    pub const fn new(cycles: u64) -> Self {
        Cycles(cycles)
    }

    /// The raw cycle count.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// The count as an `f64`, for *dimensionless* uses (averages, ratios,
    /// utilization denominators). Conversions to time must go through
    /// [`Cycles::at`] / [`Cycles::to_seconds`] instead.
    pub const fn count_f64(self) -> f64 {
        self.0 as f64
    }

    /// Elapsed time at the given clock, in nanoseconds (`cycles / GHz`).
    pub fn at(self, clock: GigaHertz) -> Nanoseconds {
        Nanoseconds(self.0 as f64 / clock.value())
    }

    /// Elapsed time at the given clock, in seconds
    /// (`cycles / (GHz × 10⁹)`).
    pub fn to_seconds(self, clock: GigaHertz) -> f64 {
        self.0 as f64 / (clock.value() * 1e9)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)?;
        f.write_str(" cycles")
    }
}

/// Phase in radians (MZI θ/φ programming, thermal drift).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Radians(f64);

impl Radians {
    /// Canonical key/identifier suffix for serialized radian values.
    pub const SUFFIX: &'static str = "rad";

    /// Wraps a raw radian value.
    pub const fn new(rad: f64) -> Self {
        Radians(rad)
    }

    /// The raw radian value.
    pub const fn value(self) -> f64 {
        self.0
    }
}

linear_unit_ops!(Radians);

impl fmt::Display for Radians {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)?;
        f.write_str(" rad")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forwards_precision_to_the_value() {
        assert_eq!(format!("{:.2}", Picojoules::new(1.23456)), "1.23 pJ");
        assert_eq!(format!("{}", Cycles::new(7)), "7 cycles");
    }

    #[test]
    fn db_round_trips() {
        for v in [0.001, 0.5, 1.0, 3.0, 100.0] {
            assert!((Decibels::from_linear(v).to_linear() - v).abs() < 1e-12 * v);
            assert!(
                (Milliwatts::from_dbm(Milliwatts::new(v).to_dbm()).value() - v).abs() < 1e-12 * v
            );
        }
    }

    #[test]
    fn db_arithmetic_is_logarithmic() {
        let a = Decibels::new(3.0);
        let b = Decibels::new(7.0);
        assert_eq!((a + b).value(), 10.0);
        assert_eq!((b - a).value(), 4.0);
        assert_eq!((-a).value(), -3.0);
        assert_eq!((2.0 * a).value(), 6.0);
        // Adding dB multiplies linear ratios.
        let lin = (a + b).to_linear();
        assert!((lin - a.to_linear() * b.to_linear()).abs() < 1e-12 * lin);
    }

    #[test]
    fn mw_ns_product_is_pj() {
        let e = Nanoseconds::new(6.2) * Milliwatts::new(2.0);
        assert_eq!(e.value(), 12.4);
        let e2 = Milliwatts::new(2.0) * Nanoseconds::new(6.2);
        assert_eq!(e2, e);
        assert!((e.to_joules() - 12.4e-12).abs() < 1e-24);
    }

    #[test]
    fn cycles_need_a_clock() {
        let clk = GigaHertz::new(2.5);
        let c = Cycles::new(10);
        assert_eq!(c.at(clk).value(), 4.0);
        assert_eq!(c.to_seconds(clk), 10.0 / 2.5e9);
        assert_eq!((c + Cycles::new(5)).value(), 15);
        assert_eq!((c - Cycles::new(4)).value(), 6);
        assert_eq!((c * 3).value(), 30);
        assert_eq!(c.count_f64(), 10.0);
    }

    #[test]
    fn to_seconds_matches_legacy_association() {
        // The system simulator computed `cycles as f64 / (ghz * 1e9)`;
        // the typed path must be bit-identical.
        for (cycles, ghz) in [(5867u64, 2.5), (1441, 2.5), (80_000_000, 3.7)] {
            let typed = Cycles::new(cycles).to_seconds(GigaHertz::new(ghz));
            let legacy = cycles as f64 / (ghz * 1e9);
            assert_eq!(typed.to_bits(), legacy.to_bits());
        }
    }

    #[test]
    fn picojoules_for_each_matches_legacy_cast() {
        let per = Picojoules::new(0.703);
        let legacy = 50_000_000.0f64 * 0.703;
        assert_eq!(per.for_each(50_000_000).value().to_bits(), legacy.to_bits());
    }

    #[test]
    fn milliwatt_helpers() {
        assert_eq!(Milliwatts::from_microwatts(295.0).value(), 0.295);
        assert!((Milliwatts::new(32.3).to_watts() - 0.0323).abs() < 1e-15);
        let ratio = Milliwatts::new(10.0) / Milliwatts::new(4.0);
        assert_eq!(ratio, 2.5);
    }

    #[test]
    fn ghz_streaming_rate() {
        // 2 batches at 5 GHz take 0.4 ns.
        assert_eq!(GigaHertz::new(5.0).ns_for(2.0).value(), 0.4);
    }

    #[test]
    fn suffixes_are_canonical() {
        assert_eq!(Decibels::SUFFIX, "db");
        assert_eq!(Milliwatts::SUFFIX, "mw");
        assert_eq!(Picojoules::SUFFIX, "pj");
        assert_eq!(Nanoseconds::SUFFIX, "ns");
        assert_eq!(Cycles::SUFFIX, "cycles");
        assert_eq!(GigaHertz::SUFFIX, "ghz");
        assert_eq!(Radians::SUFFIX, "rad");
    }

    #[test]
    fn sums_and_displays() {
        let total: Milliwatts = [1.0, 2.0, 3.5].iter().map(|&v| Milliwatts::new(v)).sum();
        assert_eq!(total.value(), 6.5);
        assert_eq!(format!("{}", Decibels::new(3.2)), "3.2 dB");
        assert_eq!(format!("{}", Cycles::new(7)), "7 cycles");
    }
}

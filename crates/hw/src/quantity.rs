//! Dimensioned quantities used throughout the characterization stack.
//!
//! The paper's analytical model (Sec. II-B) is plain arithmetic over
//! byte volumes, FLOP counts, bandwidths and times. These newtypes keep
//! the units straight (C-NEWTYPE): a `Bytes / Bandwidth` division is the
//! only way to obtain a `Seconds`, which rules out the classic
//! GB-vs-Gbit mix-up the paper's Table I invites (Ethernet is quoted in
//! Gbit/s, PCIe and NVLink in GB/s).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
const GB: f64 = 1e9;
const MB: f64 = 1e6;
const KB: f64 = 1e3;

/// A data volume in bytes.
///
/// # Examples
///
/// ```
/// use pai_hw::Bytes;
/// let weights = Bytes::from_mb(204.0); // ResNet50 dense weights, Table IV
/// assert!(weights.as_u64() > 200_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Bytes(f64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0.0);

    /// Creates a byte count from a raw `u64`.
    pub fn new(bytes: u64) -> Self {
        Bytes(bytes as f64)
    }

    /// Creates a byte count from a non-negative `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative or not finite.
    #[inline]
    pub fn from_f64(bytes: f64) -> Self {
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "byte count must be finite and non-negative, got {bytes}"
        );
        Bytes(bytes)
    }

    /// Decimal kilobytes (10^3).
    pub fn from_kb(kb: f64) -> Self {
        Self::from_f64(kb * KB)
    }

    /// Decimal megabytes (10^6).
    pub fn from_mb(mb: f64) -> Self {
        Self::from_f64(mb * MB)
    }

    /// Decimal gigabytes (10^9).
    pub fn from_gb(gb: f64) -> Self {
        Self::from_f64(gb * GB)
    }

    /// Binary gibibytes (2^30).
    pub fn from_gib(gib: f64) -> Self {
        Self::from_f64(gib * GIB)
    }

    /// The raw value as `f64`.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// The raw value rounded to `u64`.
    pub fn as_u64(self) -> u64 {
        self.0.round() as u64
    }

    /// The value in decimal gigabytes.
    pub fn as_gb(self) -> f64 {
        self.0 / GB
    }

    /// The value in decimal megabytes.
    pub fn as_mb(self) -> f64 {
        self.0 / MB
    }

    /// True when the volume is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Scales the volume by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn scale(self, factor: f64) -> Bytes {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        Bytes(self.0 * factor)
    }

    /// Returns `max(self - other, 0)`.
    pub fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes((self.0 - other.0).max(0.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    /// # Panics
    ///
    /// Panics (debug builds) if the result would be negative.
    fn sub(self, rhs: Bytes) -> Bytes {
        debug_assert!(self.0 >= rhs.0, "byte subtraction underflow");
        Bytes((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: f64) -> Bytes {
        self.scale(rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= GB {
            write!(f, "{:.2} GB", b / GB)
        } else if b >= MB {
            write!(f, "{:.2} MB", b / MB)
        } else if b >= KB {
            write!(f, "{:.2} KB", b / KB)
        } else {
            write!(f, "{b:.0} B")
        }
    }
}

/// A floating-point-operation count.
///
/// # Examples
///
/// ```
/// use pai_hw::Flops;
/// let resnet = Flops::from_tera(1.56); // Table V, per step at batch 64
/// assert!(resnet.as_giga() > 1_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Flops(f64);

impl Flops {
    /// Zero FLOPs.
    pub const ZERO: Flops = Flops(0.0);

    /// Creates a FLOP count from a non-negative `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `flops` is negative or not finite.
    #[inline]
    pub fn from_f64(flops: f64) -> Self {
        assert!(
            flops.is_finite() && flops >= 0.0,
            "FLOP count must be finite and non-negative, got {flops}"
        );
        Flops(flops)
    }

    /// Gigaflops (10^9 operations).
    pub fn from_giga(g: f64) -> Self {
        Self::from_f64(g * 1e9)
    }

    /// Teraflops (10^12 operations).
    pub fn from_tera(t: f64) -> Self {
        Self::from_f64(t * 1e12)
    }

    /// The raw value as `f64`.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// The value in units of 10^9 operations.
    pub fn as_giga(self) -> f64 {
        self.0 / 1e9
    }

    /// The value in units of 10^12 operations.
    pub fn as_tera(self) -> f64 {
        self.0 / 1e12
    }

    /// True when the count is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Scales the count by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> Flops {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        Flops(self.0 * factor)
    }
}

impl Add for Flops {
    type Output = Flops;
    fn add(self, rhs: Flops) -> Flops {
        Flops(self.0 + rhs.0)
    }
}

impl AddAssign for Flops {
    fn add_assign(&mut self, rhs: Flops) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Flops {
    type Output = Flops;
    fn mul(self, rhs: f64) -> Flops {
        self.scale(rhs)
    }
}

impl Sum for Flops {
    fn sum<I: Iterator<Item = Flops>>(iter: I) -> Flops {
        iter.fold(Flops::ZERO, Add::add)
    }
}

impl fmt::Display for Flops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v >= 1e12 {
            write!(f, "{:.2} TFLOP", v / 1e12)
        } else if v >= 1e9 {
            write!(f, "{:.2} GFLOP", v / 1e9)
        } else {
            write!(f, "{v:.0} FLOP")
        }
    }
}

/// A data-transfer rate in bytes per second.
///
/// # Examples
///
/// ```
/// use pai_hw::Bandwidth;
/// let eth = Bandwidth::from_gbit_per_sec(25.0); // Table I Ethernet
/// assert!((eth.as_gb_per_sec() - 3.125).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a bandwidth from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is not finite or not strictly positive.
    #[inline]
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(
            bps.is_finite() && bps > 0.0,
            "bandwidth must be finite and positive, got {bps}"
        );
        Bandwidth(bps)
    }

    /// Decimal gigabytes per second (PCIe/NVLink/HBM convention in Table I).
    pub fn from_gb_per_sec(gbps: f64) -> Self {
        Self::from_bytes_per_sec(gbps * GB)
    }

    /// Decimal terabytes per second (GPU memory convention in Table I).
    pub fn from_tb_per_sec(tbps: f64) -> Self {
        Self::from_bytes_per_sec(tbps * 1e12)
    }

    /// Gigabits per second (Ethernet convention in Table I).
    pub fn from_gbit_per_sec(gbit: f64) -> Self {
        Self::from_bytes_per_sec(gbit * GB / 8.0)
    }

    /// The raw value in bytes per second.
    #[inline]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// The value in decimal gigabytes per second.
    pub fn as_gb_per_sec(self) -> f64 {
        self.0 / GB
    }

    /// The value in gigabits per second.
    pub fn as_gbit_per_sec(self) -> f64 {
        self.0 * 8.0 / GB
    }

    /// Scales the bandwidth by a positive factor (used by the Table III
    /// hardware sweep, which normalizes each resource to its Table I value).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite or not strictly positive.
    #[inline]
    pub fn scale(self, factor: f64) -> Bandwidth {
        assert!(
            factor.is_finite() && factor > 0.0,
            "bandwidth scale factor must be finite and positive, got {factor}"
        );
        Bandwidth(self.0 * factor)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GB/s", self.as_gb_per_sec())
    }
}

impl Div<Bandwidth> for Bytes {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Bandwidth) -> Seconds {
        Seconds::from_f64(self.0 / rhs.0)
    }
}

/// A computation rate in FLOP per second.
///
/// # Examples
///
/// ```
/// use pai_hw::FlopsRate;
/// let gpu = FlopsRate::from_tera_per_sec(11.0); // Table I GPU FLOPs
/// assert_eq!(gpu.as_tera_per_sec(), 11.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct FlopsRate(f64);

impl FlopsRate {
    /// Creates a rate from FLOP per second.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not finite or not strictly positive.
    #[inline]
    pub fn from_flops_per_sec(fps: f64) -> Self {
        assert!(
            fps.is_finite() && fps > 0.0,
            "FLOP rate must be finite and positive, got {fps}"
        );
        FlopsRate(fps)
    }

    /// Teraflops per second.
    pub fn from_tera_per_sec(t: f64) -> Self {
        Self::from_flops_per_sec(t * 1e12)
    }

    /// The raw value in FLOP per second.
    #[inline]
    pub fn as_flops_per_sec(self) -> f64 {
        self.0
    }

    /// The value in teraflops per second.
    pub fn as_tera_per_sec(self) -> f64 {
        self.0 / 1e12
    }

    /// Scales the rate by a positive factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite or not strictly positive.
    #[inline]
    pub fn scale(self, factor: f64) -> FlopsRate {
        assert!(
            factor.is_finite() && factor > 0.0,
            "FLOP-rate scale factor must be finite and positive, got {factor}"
        );
        FlopsRate(self.0 * factor)
    }
}

impl fmt::Display for FlopsRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} TFLOP/s", self.as_tera_per_sec())
    }
}

impl Div<FlopsRate> for Flops {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: FlopsRate) -> Seconds {
        Seconds::from_f64(self.0 / rhs.0)
    }
}

/// A time duration in seconds.
///
/// # Examples
///
/// ```
/// use pai_hw::{Bytes, Bandwidth};
/// let t = Bytes::from_gb(1.0) / Bandwidth::from_gb_per_sec(10.0);
/// assert!((t.as_f64() - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates a duration from a non-negative `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[inline]
    pub fn from_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        Seconds(secs)
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_f64(ms / 1e3)
    }

    /// Creates a duration from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::from_f64(us / 1e6)
    }

    /// The raw value in seconds.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// The value in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// True when the duration is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }

    /// Scales the duration by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn scale(self, factor: f64) -> Seconds {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration scale factor must be finite and non-negative, got {factor}"
        );
        Seconds(self.0 * factor)
    }

    /// Ratio of two durations (`self / other`), the speedup algebra used
    /// throughout Sec. III-C.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    #[inline]
    pub fn ratio(self, other: Seconds) -> f64 {
        assert!(other.0 > 0.0, "cannot take ratio against a zero duration");
        self.0 / other.0
    }
}

impl Add for Seconds {
    type Output = Seconds;
    #[inline]
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    #[inline]
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    /// # Panics
    ///
    /// Panics (debug builds) if the result would be negative.
    #[inline]
    fn sub(self, rhs: Seconds) -> Seconds {
        debug_assert!(self.0 >= rhs.0, "duration subtraction underflow");
        Seconds((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        self.scale(rhs)
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::ZERO, Add::add)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else {
            write!(f, "{:.3} ms", self.0 * 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_unit_constructors() {
        assert_eq!(Bytes::from_gb(1.0).as_f64(), 1e9);
        assert_eq!(Bytes::from_mb(1.0).as_f64(), 1e6);
        assert_eq!(Bytes::from_kb(1.0).as_f64(), 1e3);
        assert_eq!(Bytes::from_gib(1.0).as_f64(), 1024.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn bytes_arithmetic() {
        let a = Bytes::from_mb(3.0);
        let b = Bytes::from_mb(1.5);
        assert_eq!((a + b).as_mb(), 4.5);
        assert_eq!((a - b).as_mb(), 1.5);
        assert_eq!(a.scale(2.0).as_mb(), 6.0);
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
        let total: Bytes = [a, b, b].into_iter().sum();
        assert!((total.as_mb() - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn bytes_rejects_negative() {
        let _ = Bytes::from_f64(-1.0);
    }

    #[test]
    fn ethernet_gbit_conversion_matches_table_i() {
        // 25 Gbit/s Ethernet = 3.125 GB/s; this is the conversion behind
        // the paper's Eq. 3 (21x speedup bound).
        let eth = Bandwidth::from_gbit_per_sec(25.0);
        assert!((eth.as_gb_per_sec() - 3.125).abs() < 1e-12);
        assert!((eth.as_gbit_per_sec() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn division_produces_transfer_time() {
        let t = Bytes::from_gb(2.0) / Bandwidth::from_gb_per_sec(10.0);
        assert!((t.as_f64() - 0.2).abs() < 1e-12);
        let c = Flops::from_tera(1.56) / FlopsRate::from_tera_per_sec(15.0);
        assert!((c.as_f64() - 0.104).abs() < 1e-9);
    }

    #[test]
    fn seconds_ratio_and_max() {
        let a = Seconds::from_f64(0.4);
        let b = Seconds::from_f64(0.2);
        assert!((a.ratio(b) - 2.0).abs() < 1e-12);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "zero duration")]
    fn seconds_ratio_rejects_zero_denominator() {
        let _ = Seconds::from_f64(1.0).ratio(Seconds::ZERO);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!format!("{}", Bytes::from_gb(1.2)).is_empty());
        assert!(!format!("{}", Bytes::from_mb(1.2)).is_empty());
        assert!(!format!("{}", Bytes::new(12)).is_empty());
        assert!(!format!("{}", Flops::from_tera(2.1)).is_empty());
        assert!(!format!("{}", Bandwidth::from_gb_per_sec(10.0)).is_empty());
        assert!(!format!("{}", Seconds::from_millis(3.0)).is_empty());
    }

    #[test]
    fn flops_sum_and_scale() {
        let total: Flops = [Flops::from_giga(1.0), Flops::from_giga(2.0)]
            .into_iter()
            .sum();
        assert!((total.as_giga() - 3.0).abs() < 1e-12);
        assert!((total.scale(0.5).as_giga() - 1.5).abs() < 1e-12);
    }
}

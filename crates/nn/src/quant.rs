//! Fixed-point quantization.
//!
//! Pegasus stores full-precision weights inside precomputed mapping tables
//! but represents *activations* as fixed-point integers on the wire between
//! tables (§1 design ❸, §4.4). Different tables may use different fixed-point
//! positions ("Adaptive Fixed-Point Quantization"), chosen per tensor from
//! the observed numerical range — exactly what [`FixedPointFormat::calibrate`]
//! does.

/// A signed fixed-point format: `total_bits` two's-complement bits with
/// `frac_bits` of them after the binary point (Q notation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedPointFormat {
    /// Total storage width in bits (including sign), 2..=32.
    pub total_bits: u8,
    /// Number of fractional bits; may be negative conceptually but we
    /// restrict to `0..total_bits` which covers the paper's use.
    pub frac_bits: u8,
}

impl FixedPointFormat {
    /// Creates a format, validating the widths.
    pub fn new(total_bits: u8, frac_bits: u8) -> Self {
        assert!((2..=32).contains(&total_bits), "total_bits must be 2..=32");
        assert!(frac_bits < total_bits, "frac_bits must leave room for sign/integer");
        FixedPointFormat { total_bits, frac_bits }
    }

    /// The quantization step (value of one least-significant bit).
    pub fn step(&self) -> f32 {
        (2.0f32).powi(-(self.frac_bits as i32))
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f32 {
        (self.max_raw() as f32) * self.step()
    }

    /// Smallest (most negative) representable value.
    pub fn min_value(&self) -> f32 {
        (self.min_raw() as f32) * self.step()
    }

    fn max_raw(&self) -> i64 {
        (1i64 << (self.total_bits - 1)) - 1
    }

    fn min_raw(&self) -> i64 {
        -(1i64 << (self.total_bits - 1))
    }

    /// Quantizes a float to the raw integer representation, rounding to
    /// nearest and saturating at the format limits.
    pub fn quantize(&self, x: f32) -> i64 {
        let scaled = (x / self.step()).round() as i64;
        scaled.clamp(self.min_raw(), self.max_raw())
    }

    /// Reconstructs the float value of a raw integer.
    pub fn dequantize(&self, raw: i64) -> f32 {
        raw as f32 * self.step()
    }

    /// Quantize-dequantize round trip (the value the dataplane actually sees).
    pub fn round_trip(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }

    /// Picks the format with the given width that covers `[lo, hi]` with the
    /// most fractional precision — post-training static calibration (§4.4).
    pub fn calibrate(lo: f32, hi: f32, total_bits: u8) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        let bound = lo.abs().max(hi.abs()).max(f32::MIN_POSITIVE);
        // Need integer bits so that max_raw*step >= bound.
        let mut frac = total_bits - 1;
        loop {
            let fmt = FixedPointFormat { total_bits, frac_bits: frac };
            if fmt.max_value() >= bound || frac == 0 {
                return fmt;
            }
            frac -= 1;
        }
    }

    /// Worst-case absolute rounding error for in-range values.
    pub fn max_error(&self) -> f32 {
        self.step() / 2.0
    }
}

/// Quantizes a whole slice, returning raw integers.
pub fn quantize_slice(fmt: FixedPointFormat, xs: &[f32]) -> Vec<i64> {
    xs.iter().map(|&x| fmt.quantize(x)).collect()
}

/// Applies the quantize-dequantize round trip to a whole slice.
pub fn round_trip_slice(fmt: FixedPointFormat, xs: &[f32]) -> Vec<f32> {
    xs.iter().map(|&x| fmt.round_trip(x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q8_4_basics() {
        let f = FixedPointFormat::new(8, 4);
        assert_eq!(f.step(), 1.0 / 16.0);
        assert_eq!(f.max_value(), 127.0 / 16.0);
        assert_eq!(f.min_value(), -8.0);
    }

    #[test]
    fn round_trip_error_is_bounded() {
        let f = FixedPointFormat::new(8, 4);
        for i in -100..100 {
            let x = i as f32 * 0.07;
            if x > f.min_value() && x < f.max_value() {
                assert!((f.round_trip(x) - x).abs() <= f.max_error() + 1e-6);
            }
        }
    }

    #[test]
    fn saturation_clamps() {
        let f = FixedPointFormat::new(8, 4);
        assert_eq!(f.round_trip(100.0), f.max_value());
        assert_eq!(f.round_trip(-100.0), f.min_value());
    }

    #[test]
    fn calibrate_wide_range_drops_fraction() {
        // Range [-100, 100] with 8 bits: needs 7 integer bits -> frac 0.
        let f = FixedPointFormat::calibrate(-100.0, 100.0, 8);
        assert_eq!(f.frac_bits, 0);
        assert!(f.max_value() >= 100.0);
    }

    #[test]
    fn calibrate_narrow_range_keeps_fraction() {
        // Range [0, 5] with 8 bits: 3 integer bits + sign -> frac 4.
        let f = FixedPointFormat::calibrate(0.0, 5.0, 8);
        assert_eq!(f.frac_bits, 4);
        assert!(f.max_value() >= 5.0);
    }

    #[test]
    fn calibrate_matches_paper_example() {
        // §4.4 example: input range [-100, 100] vs output range [0, 5]
        // should get different fixed-point positions.
        let fin = FixedPointFormat::calibrate(-100.0, 100.0, 16);
        let fout = FixedPointFormat::calibrate(0.0, 5.0, 16);
        assert!(fout.frac_bits > fin.frac_bits);
    }

    #[test]
    fn zero_is_exact() {
        for bits in [4u8, 8, 16] {
            for frac in 0..bits - 1 {
                let f = FixedPointFormat::new(bits, frac);
                assert_eq!(f.round_trip(0.0), 0.0);
            }
        }
    }

    #[test]
    fn slice_helpers() {
        let f = FixedPointFormat::new(8, 0);
        assert_eq!(quantize_slice(f, &[1.4, -2.6]), vec![1, -3]);
        assert_eq!(round_trip_slice(f, &[1.4, -2.6]), vec![1.0, -3.0]);
    }
}

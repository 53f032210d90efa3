//! Dataplane number representation: biased fixed point.
//!
//! The pipeline carries activations as *unsigned* integers so that range
//! matching (TCAM) and min/max ALUs see a monotone encoding:
//! `real ≈ (stored - bias) * step`. This is the paper's Adaptive Fixed-Point
//! Quantization (§4.4) with an added bias so negative activations order
//! correctly as raw bits. Addition stays exact across the encoding:
//! `Σ stored_i - (k-1)*bias` encodes `Σ real_i` at the shared `step`.

/// An affine integer encoding of real values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NumFormat {
    /// Real value of one integer step.
    pub step: f32,
    /// Stored value representing real zero.
    pub bias: i64,
    /// Field width in bits.
    pub bits: u8,
}

impl NumFormat {
    /// The canonical 8-bit feature-code format (quantized packet features).
    pub fn code8() -> Self {
        NumFormat { step: 1.0, bias: 0, bits: 8 }
    }

    /// Chooses a format covering `[rmin, rmax]` in `bits` bits, spending any
    /// slack on resolution. Degenerate ranges get a unit step.
    pub fn from_range(rmin: f32, rmax: f32, bits: u8) -> Self {
        assert!(rmin.is_finite() && rmax.is_finite() && rmin <= rmax);
        assert!((2..=32).contains(&bits));
        let levels = ((1u64 << bits) - 1) as f32;
        // Floor the span relative to the magnitude so constant or
        // near-constant value ranges still get a sane, non-subnormal step.
        let floor = rmin.abs().max(rmax.abs()).max(1.0) * 1e-3;
        let span = (rmax - rmin).max(floor);
        // Pad 5% on both sides so near-boundary values don't saturate.
        let step = span * 1.1 / levels;
        let bias = (-(rmin - 0.05 * span) / step).round() as i64;
        NumFormat { step, bias, bits }
    }

    /// Largest stored value.
    pub fn max_stored(&self) -> i64 {
        (1i64 << self.bits) - 1
    }

    /// Encodes a real value (round to nearest, saturate).
    pub fn to_stored(&self, real: f32) -> i64 {
        let raw = (real / self.step).round() as i64 + self.bias;
        raw.clamp(0, self.max_stored())
    }

    /// Decodes a stored value.
    pub fn to_real(&self, stored: i64) -> f32 {
        (stored - self.bias) as f32 * self.step
    }

    /// Worst-case absolute encoding error for in-range reals.
    pub fn max_error(&self) -> f32 {
        self.step / 2.0
    }
}

// --- serde (control-daemon artifact format) ----------------------------

serde::impl_serde_struct!(NumFormat { step, bias, bits });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code8_is_identity_on_bytes() {
        let f = NumFormat::code8();
        for v in [0i64, 1, 127, 255] {
            assert_eq!(f.to_stored(v as f32), v);
            assert_eq!(f.to_real(v), v as f32);
        }
    }

    #[test]
    fn round_trip_error_bounded() {
        let f = NumFormat::from_range(-10.0, 10.0, 12);
        for i in -100..=100 {
            let x = i as f32 / 10.0;
            let back = f.to_real(f.to_stored(x));
            assert!((back - x).abs() <= f.max_error() + 1e-6, "x={x} back={back}");
        }
    }

    #[test]
    fn encoding_is_monotone() {
        let f = NumFormat::from_range(-5.0, 37.0, 10);
        let mut prev = f.to_stored(-6.0);
        for i in -60..=400 {
            let s = f.to_stored(i as f32 / 10.0);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn range_endpoints_not_saturated() {
        let f = NumFormat::from_range(-3.0, 8.0, 8);
        assert!(f.to_stored(-3.0) > 0);
        assert!(f.to_stored(8.0) < f.max_stored());
    }

    #[test]
    fn sum_identity_with_bias_correction() {
        let f = NumFormat::from_range(-20.0, 20.0, 16);
        let xs = [-3.5f32, 7.25, -1.0, 2.5];
        let stored_sum: i64 = xs.iter().map(|&x| f.to_stored(x)).sum();
        let corrected = stored_sum - (xs.len() as i64 - 1) * f.bias;
        let real_sum: f32 = xs.iter().sum();
        assert!((f.to_real(corrected) - real_sum).abs() < 4.0 * f.max_error());
    }

    #[test]
    fn degenerate_range_is_usable() {
        let f = NumFormat::from_range(5.0, 5.0, 8);
        let s = f.to_stored(5.0);
        assert!((f.to_real(s) - 5.0).abs() < 0.1);
    }
}

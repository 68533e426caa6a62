//! Dynamic fixed-point Q-formats (§IV-C, after the ARM Q-format
//! convention \[1\]): a signed `bits`-bit integer with `frac` fractional
//! bits, chosen per layer (and per tuple component for the directional
//! ReLU) from observed dynamic ranges.
//!
//! # Rounding mode
//!
//! Every rounding site in the fixed-point pipeline uses **round half
//! away from zero** (the mode of Rust's `f64::round`): `2.5 → 3`,
//! `−2.5 → −3`. [`QFormat::quantize`] inherits it from `.round()` and
//! [`requant_shift`] implements it explicitly on right shifts, so a
//! value quantized fine and then requantized coarse lands on the same
//! integer as quantizing coarse directly (up to the documented ±1 step
//! of stacked rounding). This symmetry also keeps the pipeline free of
//! the systematic positive bias that round-half-up (`(q + h) >> s` on
//! two's-complement) injects into negative activations.

use serde::{Deserialize, Serialize};

/// Largest `|frac|` a fitted format may carry. Bounding the exponent
/// keeps [`QFormat::scale`] a normal, non-zero `f64` (`2^±512` is finite)
/// even for absurd-but-finite calibration ranges, so no downstream
/// arithmetic can see a 0 or ∞ step size.
pub const MAX_FRAC_MAGNITUDE: i32 = 512;

/// Why a Q-format could not be fitted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QFormatError {
    /// The observed range is NaN or ±∞ (e.g. a divergent calibration
    /// pass); no finite format can represent it.
    NonFiniteRange(f64),
    /// Fewer than 2 storage bits (sign + at least one magnitude bit).
    TooFewBits(u32),
    /// More than 63 storage bits (the pipeline stores samples in `i64`).
    TooManyBits(u32),
}

impl std::fmt::Display for QFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QFormatError::NonFiniteRange(v) => {
                write!(f, "cannot fit a Q-format to non-finite max_abs {v}")
            }
            QFormatError::TooFewBits(b) => {
                write!(f, "need at least sign + one magnitude bit, got {b}")
            }
            QFormatError::TooManyBits(b) => {
                write!(f, "at most 63 storage bits fit the i64 pipeline, got {b}")
            }
        }
    }
}

impl std::error::Error for QFormatError {}

/// A signed fixed-point format: value = `q · 2^(−frac)` with `q` stored in
/// `bits` bits (two's complement).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QFormat {
    /// Total storage bits (including sign).
    pub bits: u32,
    /// Fractional bits (may be negative for very large ranges).
    pub frac: i32,
}

impl QFormat {
    /// Chooses the format with the most fractional bits that still
    /// represents `max_abs` without saturation.
    ///
    /// # Errors
    ///
    /// [`QFormatError::NonFiniteRange`] when `max_abs` is NaN or ±∞ (a
    /// divergent calibration pass must surface as an error, not as a
    /// nonsense format), [`QFormatError::TooFewBits`] /
    /// [`QFormatError::TooManyBits`] for unusable bit widths. `frac` is
    /// clamped to ±[`MAX_FRAC_MAGNITUDE`] so [`QFormat::scale`] is
    /// always finite and non-zero.
    pub fn try_fit(max_abs: f64, bits: u32) -> Result<Self, QFormatError> {
        if bits < 2 {
            return Err(QFormatError::TooFewBits(bits));
        }
        if bits > 63 {
            return Err(QFormatError::TooManyBits(bits));
        }
        if !max_abs.is_finite() {
            return Err(QFormatError::NonFiniteRange(max_abs));
        }
        let max_abs = max_abs.abs().max(1e-12);
        // Integer bits needed so that max_abs < 2^int_bits.
        let int_bits = max_abs.log2().floor() as i32 + 1;
        let frac = (bits as i32 - 1 - int_bits).clamp(-MAX_FRAC_MAGNITUDE, MAX_FRAC_MAGNITUDE);
        Ok(QFormat { bits, frac })
    }

    /// [`QFormat::try_fit`] for trusted in-process ranges.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite `max_abs` or an unusable bit width; use
    /// [`QFormat::try_fit`] when the range comes from data that may
    /// diverge (the calibration pipeline does).
    pub fn fit(max_abs: f64, bits: u32) -> Self {
        Self::try_fit(max_abs, bits).unwrap_or_else(|e| panic!("QFormat::fit: {e}"))
    }

    /// The smallest and largest stored integers, `−2^(bits−1)` and
    /// `2^(bits−1) − 1`.
    pub fn rails(&self) -> (i64, i64) {
        (-(1i64 << (self.bits - 1)), (1i64 << (self.bits - 1)) - 1)
    }

    /// Largest representable magnitude.
    pub fn max_value(&self) -> f64 {
        self.rails().1 as f64 * self.scale()
    }

    /// The quantization step `2^(−frac)`.
    pub fn scale(&self) -> f64 {
        2.0f64.powi(-self.frac)
    }

    /// Quantizes a real value to the stored integer (round half away
    /// from zero — see the module docs — then saturate).
    pub fn quantize(&self, v: f64) -> i64 {
        self.saturate((v * 2.0f64.powi(self.frac)).round() as i64)
    }

    /// Reconstructs the real value of a stored integer.
    pub fn dequantize(&self, q: i64) -> f64 {
        q as f64 * self.scale()
    }

    /// Saturates an already-scaled integer into this format's range.
    pub fn saturate(&self, q: i64) -> i64 {
        let (qmin, qmax) = self.rails();
        q.clamp(qmin, qmax)
    }

    /// The requantizer of one channel *into* this format — shift from
    /// `from_frac` fractional bits with [`requant_shift`], then
    /// [`QFormat::saturate`] — as the per-channel constants a whole plane
    /// shares (`RequantChannel::apply_lane`).
    pub fn requantizer(&self, from_frac: i32) -> RequantChannel {
        let (qmin, qmax) = self.rails();
        RequantChannel {
            from_frac,
            to_frac: self.frac,
            qmin,
            qmax,
        }
    }
}

/// The hardware requantizer: shifts a fixed-point integer between
/// fractional-bit counts, rounding right shifts **half away from zero**
/// (matching [`QFormat::quantize`]) and **saturating** left shifts. It
/// is the function the integer GEMM's fused epilogue applies.
pub use ringcnn_tensor::gemm::requant_shift_i64 as requant_shift;
use ringcnn_tensor::gemm::RequantChannel;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_small_values_maximizes_precision() {
        // Values in (−1, 1): 8-bit Q0.7.
        let f = QFormat::fit(0.9, 8);
        assert_eq!(f.frac, 7);
        assert!(f.max_value() > 0.9);
    }

    #[test]
    fn fit_larger_ranges() {
        let f = QFormat::fit(5.0, 8);
        assert_eq!(f.frac, 4); // 3 int bits: |v| < 8
        let f = QFormat::fit(127.0, 8);
        assert_eq!(f.frac, 0);
        let f = QFormat::fit(1.0, 8);
        assert_eq!(f.frac, 6); // 1.0 needs int bit
    }

    #[test]
    fn try_fit_rejects_non_finite_ranges() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    QFormat::try_fit(bad, 8),
                    Err(QFormatError::NonFiniteRange(_))
                ),
                "{bad} must not fit"
            );
        }
        assert_eq!(QFormat::try_fit(1.0, 1), Err(QFormatError::TooFewBits(1)));
        assert_eq!(
            QFormat::try_fit(1.0, 64),
            Err(QFormatError::TooManyBits(64))
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn fit_panics_loudly_on_nan() {
        let _ = QFormat::fit(f64::NAN, 8);
    }

    #[test]
    fn fit_bounds_frac_so_scale_stays_finite() {
        // Absurd-but-finite ranges: frac clamps, scale stays a normal
        // non-zero float in both directions.
        let tiny = QFormat::fit(1e-300, 8);
        assert!(tiny.frac <= MAX_FRAC_MAGNITUDE);
        assert!(tiny.scale() > 0.0 && tiny.scale().is_finite());
        let huge = QFormat::fit(1e300, 8);
        assert_eq!(huge.frac, -MAX_FRAC_MAGNITUDE);
        assert!(huge.scale() > 0.0 && huge.scale().is_finite());
        assert!(huge.max_value().is_finite());
    }

    #[test]
    fn quantize_roundtrip_error_within_half_step() {
        let f = QFormat::fit(1.5, 8);
        for v in [-1.49, -0.7, 0.0, 0.31, 1.49] {
            let q = f.quantize(v);
            let back = f.dequantize(q);
            assert!(
                (back - v).abs() <= f.scale() / 2.0 + 1e-12,
                "v={v} back={back}"
            );
        }
    }

    #[test]
    fn quantize_saturates() {
        let f = QFormat::fit(1.0, 8);
        assert_eq!(f.quantize(100.0), 127);
        assert_eq!(f.quantize(-100.0), -128);
    }

    #[test]
    fn quantize_rounds_half_away_from_zero() {
        let f = QFormat { bits: 8, frac: 1 };
        assert_eq!(f.quantize(1.25), 3); // 2.5 → 3
        assert_eq!(f.quantize(-1.25), -3); // −2.5 → −3
    }

    #[test]
    fn requant_shift_rounds_half_away_from_zero() {
        // 5 with 2 frac bits (1.25) → 1 frac bit: 2.5 → q=3.
        assert_eq!(requant_shift(5, 2, 1), 3);
        assert_eq!(requant_shift(4, 2, 1), 2);
        // −1.25 → −2.5 → −3: symmetric with the positive case (the old
        // round-half-up requantizer gave −2 here, disagreeing with
        // `QFormat::quantize`).
        assert_eq!(requant_shift(-5, 2, 1), -3);
        assert_eq!(requant_shift(-4, 2, 1), -2);
        assert_eq!(requant_shift(3, 1, 3), 12); // left shift exact
        assert_eq!(requant_shift(7, 2, 2), 7);
    }

    #[test]
    fn requant_shift_agrees_with_quantize() {
        // Fine → coarse via the requantizer lands on the same integer as
        // quantizing the real value coarse directly (both round half
        // away from zero, and these values hit exact halves).
        let fine = QFormat { bits: 16, frac: 4 };
        let coarse = QFormat { bits: 16, frac: 1 };
        for v in [0.75, -0.75, 2.25, -2.25, 0.25, -0.25] {
            let q = fine.quantize(v);
            assert_eq!(
                requant_shift(q, fine.frac, coarse.frac),
                coarse.quantize(v),
                "v={v}"
            );
        }
    }

    #[test]
    fn requant_shift_extreme_right_shifts_round_to_zero_or_one() {
        assert_eq!(requant_shift(i64::MAX, 200, 0), 0);
        assert_eq!(requant_shift(i64::MIN, 200, 0), 0);
        // |MIN| / 2^63 = 1.0 exactly.
        assert_eq!(requant_shift(i64::MIN, 63, 0), -1);
        // MAX / 2^63 = 1 − ε → rounds to 1 (half away from zero).
        assert_eq!(requant_shift(i64::MAX, 63, 0), 1);
        assert_eq!(requant_shift(i64::MAX, 64, 0), 0);
    }

    #[test]
    fn requant_shift_left_shifts_saturate_instead_of_wrapping() {
        assert_eq!(requant_shift(1, 0, 63), i64::MAX);
        assert_eq!(requant_shift(-1, 0, 63), i64::MIN);
        assert_eq!(requant_shift(1, 0, 200), i64::MAX);
        assert_eq!(requant_shift(-1, 0, 200), i64::MIN);
        assert_eq!(requant_shift(0, 0, 200), 0);
        assert_eq!(requant_shift(1, 0, 62), 1i64 << 62);
        assert_eq!(requant_shift(i64::MAX / 2, 0, 2), i64::MAX);
        // Extreme frac distance must not overflow the i32 subtraction.
        assert_eq!(requant_shift(5, i32::MAX, i32::MIN), 0); // right shift
        assert_eq!(requant_shift(5, i32::MIN, i32::MAX), i64::MAX); // left shift
    }
}

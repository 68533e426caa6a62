//! Integer feature tensors with per-channel Q-format tracking.
//!
//! A [`QTensor`] stores features as `i64` (the value always fits the
//! declared bitwidth; `i64` storage keeps the arithmetic simple and
//! bit-exact) together with one [`QFormat`] per channel. 8-bit tensors
//! model the accelerator's feature SRAM; wide tensors model convolution
//! accumulators flowing into the on-the-fly directional-ReLU pipeline.

use crate::qformat::{requant_shift, QFormat};
use ringcnn_tensor::prelude::*;

/// An integer NCHW tensor with per-channel fixed-point formats.
#[derive(Clone, Debug, PartialEq)]
pub struct QTensor {
    shape: Shape4,
    data: Vec<i64>,
    formats: Vec<QFormat>,
}

impl QTensor {
    /// Quantizes a float tensor with one format per channel.
    ///
    /// # Panics
    ///
    /// Panics if `formats.len() != shape.c`.
    pub fn quantize(t: &Tensor, formats: Vec<QFormat>) -> Self {
        let s = t.shape();
        assert_eq!(formats.len(), s.c, "one format per channel");
        let mut data = vec![0i64; s.len()];
        for b in 0..s.n {
            for c in 0..s.c {
                let f = formats[c];
                let src = t.plane(b, c);
                let base = s.index(b, c, 0, 0);
                for (i, v) in src.iter().enumerate() {
                    data[base + i] = f.quantize(f64::from(*v));
                }
            }
        }
        Self {
            shape: s,
            data,
            formats,
        }
    }

    /// Builds from raw integer data (already in the given formats).
    ///
    /// # Panics
    ///
    /// Panics on shape/format inconsistencies.
    pub fn from_raw(shape: Shape4, data: Vec<i64>, formats: Vec<QFormat>) -> Self {
        assert_eq!(data.len(), shape.len());
        assert_eq!(formats.len(), shape.c);
        Self {
            shape,
            data,
            formats,
        }
    }

    /// Shape.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Raw integer buffer.
    pub fn data(&self) -> &[i64] {
        &self.data
    }

    /// Per-channel formats.
    pub fn formats(&self) -> &[QFormat] {
        &self.formats
    }

    /// Format of one channel.
    pub fn format_of(&self, c: usize) -> QFormat {
        self.formats[c]
    }

    /// One integer plane.
    pub fn plane(&self, b: usize, c: usize) -> &[i64] {
        let start = self.shape.index(b, c, 0, 0);
        &self.data[start..start + self.shape.plane()]
    }

    /// Dequantizes back to floats.
    pub fn dequantize(&self) -> Tensor {
        let s = self.shape;
        let mut out = Tensor::zeros(s);
        for b in 0..s.n {
            for c in 0..s.c {
                let f = self.formats[c];
                let base = s.index(b, c, 0, 0);
                let dst = out.plane_mut(b, c);
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = f.dequantize(self.data[base + i]) as f32;
                }
            }
        }
        out
    }

    /// Requantizes every channel to new formats (rounding right-shifts,
    /// saturating to the new bitwidth) — the hardware format converter.
    pub fn requantized(&self, formats: Vec<QFormat>) -> QTensor {
        assert_eq!(formats.len(), self.shape.c);
        let mut data = vec![0i64; self.data.len()];
        let s = self.shape;
        for b in 0..s.n {
            for c in 0..s.c {
                let from = self.formats[c];
                let to = formats[c];
                let base = s.index(b, c, 0, 0);
                for i in 0..s.plane() {
                    let v = requant_shift(self.data[base + i], from.frac, to.frac);
                    data[base + i] = to.saturate(v);
                }
            }
        }
        QTensor {
            shape: s,
            data,
            formats,
        }
    }

    /// Saturating aligned addition (for residual skips): both operands are
    /// shifted to the target formats, added, then saturated.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_saturating(&self, rhs: &QTensor, out_formats: Vec<QFormat>) -> QTensor {
        assert_eq!(self.shape, rhs.shape, "shape mismatch");
        let s = self.shape;
        let mut data = vec![0i64; self.data.len()];
        for b in 0..s.n {
            for c in 0..s.c {
                let fa = self.formats[c];
                let fb = rhs.formats[c];
                let fo = out_formats[c];
                let base = s.index(b, c, 0, 0);
                for i in 0..s.plane() {
                    let a = requant_shift(self.data[base + i], fa.frac, fo.frac);
                    let b2 = requant_shift(rhs.data[base + i], fb.frac, fo.frac);
                    data[base + i] = fo.saturate(a + b2);
                }
            }
        }
        QTensor {
            shape: s,
            data,
            formats: out_formats,
        }
    }
}

/// Computes per-channel-group max-abs statistics of a float tensor:
/// channels are grouped by `c % groups` (component-wise Q-formats group
/// by tuple component; `groups = 1` gives a single per-layer format).
///
/// Non-finite samples **poison their group**: a NaN anywhere makes the
/// group's max NaN (plain `f64::max` would silently discard it, hiding a
/// divergent calibration pass), and ±∞ propagates through `max`
/// naturally — either way `QFormat::try_fit` then refuses the range.
pub fn group_max_abs(t: &Tensor, groups: usize) -> Vec<f64> {
    let s = t.shape();
    let mut maxes = vec![0.0f64; groups];
    for b in 0..s.n {
        for c in 0..s.c {
            let g = c % groups;
            for v in t.plane(b, c) {
                let a = f64::from(v.abs());
                if a.is_nan() || maxes[g].is_nan() {
                    maxes[g] = f64::NAN;
                } else {
                    maxes[g] = maxes[g].max(a);
                }
            }
        }
    }
    maxes
}

/// Expands per-group formats into per-channel formats (`channel c` gets
/// `formats[c % groups]`).
pub fn expand_formats(group_formats: &[QFormat], channels: usize) -> Vec<QFormat> {
    (0..channels)
        .map(|c| group_formats[c % group_formats.len()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_dequantize_roundtrip() {
        let t = Tensor::random_uniform(Shape4::new(1, 2, 4, 4), -0.9, 0.9, 3);
        let f = QFormat::fit(1.0, 8);
        let q = QTensor::quantize(&t, vec![f, f]);
        let back = q.dequantize();
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= f.scale() as f32 / 2.0 + 1e-6);
        }
    }

    #[test]
    fn per_channel_formats_apply() {
        let t = Tensor::from_vec(Shape4::new(1, 2, 1, 1), vec![0.5, 4.0]);
        let f0 = QFormat::fit(0.5, 8);
        let f1 = QFormat::fit(4.0, 8);
        let q = QTensor::quantize(&t, vec![f0, f1]);
        assert_eq!(q.format_of(0).frac, 7);
        assert_eq!(q.format_of(1).frac, 4);
        let back = q.dequantize();
        assert!((back.at(0, 1, 0, 0) - 4.0).abs() < 0.05);
    }

    #[test]
    fn requantize_loses_at_most_half_step() {
        let t = Tensor::random_uniform(Shape4::new(1, 1, 4, 4), -1.0, 1.0, 5);
        let fine = QFormat { bits: 24, frac: 16 };
        let coarse = QFormat::fit(1.0, 8);
        let q = QTensor::quantize(&t, vec![fine]);
        let r = q.requantized(vec![coarse]);
        let direct = QTensor::quantize(&t, vec![coarse]);
        for (a, b) in r.data().iter().zip(direct.data()) {
            assert!((a - b).abs() <= 1, "{a} vs {b}");
        }
    }

    #[test]
    fn saturating_add_aligns_formats() {
        let a = QTensor::from_raw(
            Shape4::new(1, 1, 1, 1),
            vec![64],
            vec![QFormat { bits: 8, frac: 7 }], // 0.5
        );
        let b = QTensor::from_raw(
            Shape4::new(1, 1, 1, 1),
            vec![32],
            vec![QFormat { bits: 8, frac: 6 }], // 0.5
        );
        let out = a.add_saturating(&b, vec![QFormat { bits: 8, frac: 6 }]);
        assert_eq!(out.data()[0], 64); // 1.0 in Q1.6
    }

    #[test]
    fn group_stats_split_components() {
        let t = Tensor::from_vec(Shape4::new(1, 4, 1, 1), vec![0.1, 5.0, 0.2, 6.0]);
        let m = group_max_abs(&t, 2);
        assert!(
            (m[0] - 0.2).abs() < 1e-6 && (m[1] - 6.0).abs() < 1e-6,
            "{m:?}"
        );
        let m1 = group_max_abs(&t, 1);
        assert!((m1[0] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn expand_formats_cycles() {
        let f0 = QFormat { bits: 8, frac: 7 };
        let f1 = QFormat { bits: 8, frac: 3 };
        let e = expand_formats(&[f0, f1], 4);
        assert_eq!(e, vec![f0, f1, f0, f1]);
    }
}

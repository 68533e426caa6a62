//! Integer feature tensors with per-channel Q-format tracking.
//!
//! A [`QTensorOf<S>`](QTensorOf) stores features in integers `S`
//! together with one [`QFormat`] per channel, and every stage computes
//! on them in the lane `S::Lane` ([`Store`]). The integer chain (see
//! [`crate::quantized`]) runs in `i32` lanes on `QTensorOf<i8>`, the
//! bytes the accelerator's feature SRAM holds; [`QTensor`] holds every
//! value every format admits: the one slow oracle computes on it, and
//! the chain's integer door (`QuantizedModel::forward_q`) speaks it, so
//! the tests compare the two. Wide tensors model convolution
//! accumulators flowing into the on-the-fly directional-ReLU pipeline;
//! only the oracle's `i64` store holds them.
//!
//! Everything a format decides is constant over a plane, so every
//! element-wise operation here walks whole planes with those constants
//! hoisted: `2^frac` and the rails once per plane in
//! [`QTensorOf::quantize`]/[`QTensorOf::dequantize`], and the shift's
//! direction and distance once per plane in the requantizers
//! ([`QFormat::requantizer`] → `RequantChannel::apply_lane`, which
//! reaches the `u128`/`i128` arithmetic of [`requant_shift`] only for
//! the extreme distances that need it). There is one body per
//! operation, generic over the store: where the store is narrower than
//! its lane, [`Store::in_lane`] widens a block onto the stack, the body
//! runs there, and the result — back inside the format's rails — is
//! narrowed again. Per element the operations and their order are those
//! of [`QFormat::quantize`], [`QFormat::dequantize`], [`requant_shift`]
//! and [`QFormat::saturate`] — `tests/quant_backend.rs` compares the
//! `i64` store against exactly those, and the `i8` chain against the
//! oracle. A rail wider than the lane (a 63-bit format, the unclamped
//! alignment shifts of [`QTensorOf::add_assign_saturating`]) is the
//! lane's own rail in `i32`: identical wherever the value fits the lane,
//! which is what the proof establishes before a model runs there.
//!
//! [`requant_shift`]: crate::qformat::requant_shift

use crate::qformat::QFormat;
use ringcnn_tensor::gemm::{fit, Lane, Plane, RequantChannel};
use ringcnn_tensor::prelude::*;

/// The stack block, in lanes, a store narrower than its lane is widened
/// into: the most [`Store::in_lane`] takes at once.
pub(crate) const BLOCK: usize = 2048;

/// A type the integers of a tensor are stored in — `i64`, a lane
/// itself, or `i8` under `i32` lanes — with the lane its stages compute
/// in.
pub trait Store: Plane + Ord + Into<Self::Lane> + TryFrom<Self::Lane> + std::fmt::Debug {
    /// The lane every stage computes in.
    type Lane: Lane;

    /// Runs `f` on the `n` rows of `len` elements that start `stride`
    /// apart in `rows`, as a block of lanes and its row stride: in
    /// place where the store is the lane, through a stack block of
    /// `n·len ≤ BLOCK` lanes — widened, handed to `f`, narrowed back
    /// (what `f` leaves must fit the store) — where it is narrower.
    fn in_lane(
        rows: &mut [Self],
        n: usize,
        stride: usize,
        len: usize,
        f: impl FnOnce(&mut [Self::Lane], usize),
    );
}

impl Store for i64 {
    type Lane = i64;

    fn in_lane(
        rows: &mut [i64],
        _: usize,
        stride: usize,
        _: usize,
        f: impl FnOnce(&mut [i64], usize),
    ) {
        f(rows, stride);
    }
}

impl Store for i8 {
    type Lane = i32;

    fn in_lane(
        rows: &mut [i8],
        n: usize,
        stride: usize,
        len: usize,
        f: impl FnOnce(&mut [i32], usize),
    ) {
        let mut wide = [0i32; BLOCK];
        let wide = &mut wide[..n * len];
        for (l, w) in wide.chunks_mut(len.max(1)).enumerate() {
            let narrow = &rows[l * stride..l * stride + len];
            w.iter_mut().zip(narrow).for_each(|(w, s)| *w = (*s).into());
        }
        f(wide, len);
        for (l, w) in wide.chunks(len.max(1)).enumerate() {
            let narrow = &mut rows[l * stride..l * stride + len];
            narrow.iter_mut().zip(w).for_each(|(s, w)| *s = fit(*w));
        }
    }
}

/// An integer NCHW tensor stored in `S` with per-channel fixed-point
/// formats.
#[derive(Clone, Debug, PartialEq)]
pub struct QTensorOf<S> {
    shape: Shape4,
    data: Vec<S>,
    formats: Vec<QFormat>,
}

/// The `i64` tensor: what the oracle computes on and what
/// [`crate::quantized::QuantizedModel::forward_q`] speaks.
pub type QTensor = QTensorOf<i64>;

/// The planes of an NCHW buffer in storage order, each with its channel.
fn planes_mut<E>(data: &mut [E], s: Shape4) -> impl Iterator<Item = (usize, &mut [E])> {
    let planes = data.chunks_mut(s.plane().max(1));
    planes.enumerate().map(move |(i, p)| (i % s.c, p))
}

impl<S: Store> QTensorOf<S> {
    /// Quantizes a float tensor with one format per channel (each no
    /// wider than the store).
    ///
    /// # Panics
    ///
    /// Panics if `formats.len() != shape.c`.
    pub fn quantize(t: &Tensor, formats: Vec<QFormat>) -> Self {
        let s = t.shape();
        assert_eq!(formats.len(), s.c, "one format per channel");
        let mut data = vec![S::default(); s.len()];
        let src = t.as_slice().chunks(s.plane().max(1));
        for ((c, dst), src) in planes_mut(&mut data, s).zip(src) {
            let f = formats[c];
            let (scale, (lo, hi)) = (2.0f64.powi(f.frac), f.rails());
            for (d, v) in dst.iter_mut().zip(src) {
                let q = ((f64::from(*v) * scale).round() as i64).clamp(lo, hi);
                *d = fit(S::Lane::saturating_from(q));
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
    pub fn from_raw(shape: Shape4, data: Vec<S>, formats: Vec<QFormat>) -> Self {
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
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Takes the tensor apart — shape, raw integers, formats — for a
    /// stage that works in place and hands the buffer back to
    /// [`QTensorOf::from_raw`].
    pub fn into_raw(self) -> (Shape4, Vec<S>, Vec<QFormat>) {
        (self.shape, self.data, self.formats)
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
    pub fn plane(&self, b: usize, c: usize) -> &[S] {
        let start = self.shape.index(b, c, 0, 0);
        &self.data[start..start + self.shape.plane()]
    }

    /// Dequantizes back to floats.
    pub fn dequantize(&self) -> Tensor {
        let s = self.shape;
        let mut out = Tensor::zeros(s);
        let src = self.data.chunks(s.plane().max(1));
        for ((c, dst), src) in planes_mut(out.as_mut_slice(), s).zip(src) {
            let scale = self.formats[c].scale();
            for (d, q) in dst.iter_mut().zip(src) {
                *d = (Into::<i64>::into(Into::<S::Lane>::into(*q)) as f64 * scale) as f32;
            }
        }
        out
    }

    /// Requantizes every channel to new formats (rounding right-shifts,
    /// saturating to the new bitwidth) — the hardware format converter.
    pub fn requantized(&self, formats: Vec<QFormat>) -> Self {
        let mut out = self.clone();
        out.requantize(formats);
        out
    }

    /// [`QTensorOf::requantized`] in place, for a tensor the caller owns.
    ///
    /// # Panics
    ///
    /// Panics if `formats.len() != shape.c`.
    pub fn requantize(&mut self, formats: Vec<QFormat>) {
        assert_eq!(formats.len(), self.shape.c);
        for (c, plane) in planes_mut(&mut self.data, self.shape) {
            let shift = formats[c].requantizer(self.formats[c].frac);
            for block in plane.chunks_mut(BLOCK) {
                S::in_lane(block, 1, 0, block.len(), |lane, _| shift.apply_lane(lane));
            }
        }
        self.formats = formats;
    }

    /// Saturating aligned addition (for residual skips): both operands are
    /// shifted to the target formats, added, then saturated.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_saturating(&self, rhs: &Self, out_formats: Vec<QFormat>) -> Self {
        let mut out = self.clone();
        out.add_assign_saturating(rhs, out_formats);
        out
    }

    /// [`QTensorOf::add_saturating`] into `self`, for a left operand the
    /// caller owns (`rhs` is aligned through a fixed stack block, so
    /// nothing is allocated; the sum is clamped to the output rails in
    /// the lane, before a narrow store takes it back).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign_saturating(&mut self, rhs: &Self, out_formats: Vec<QFormat>) {
        assert_eq!(self.shape, rhs.shape, "shape mismatch");
        self.add_window_saturating(rhs, (0, 0), out_formats);
    }

    /// [`QTensorOf::add_assign_saturating`] of the region of `rhs` that
    /// has the shape of `self` and its top-left corner at `(y0, x0)` —
    /// the skip of a residual whose body trimmed its tile.
    ///
    /// # Panics
    ///
    /// Panics if batch or channel counts differ or the region is out of
    /// range.
    pub fn add_window_saturating(
        &mut self,
        rhs: &Self,
        (y0, x0): (usize, usize),
        out_formats: Vec<QFormat>,
    ) {
        let (d, s) = (self.shape, rhs.shape);
        assert_eq!((d.n, d.c), (s.n, s.c), "batch/channel mismatch");
        assert!(y0 + d.h <= s.h && x0 + d.w <= s.w, "region out of range");
        let mut aligned = [S::Lane::default(); BLOCK];
        // Equal widths: the region's rows are contiguous, one run a plane.
        let run = if d.w == s.w { d.plane() } else { d.w }.max(1);
        let rhs_planes = rhs.data.chunks(s.plane().max(1));
        for ((c, plane), rhs_plane) in planes_mut(&mut self.data, d).zip(rhs_planes) {
            let fo = out_formats[c];
            let (lo, hi) = fo.rails();
            let (lo, hi) = (S::Lane::saturating_from(lo), S::Lane::saturating_from(hi));
            let shift = |from: QFormat| RequantChannel {
                qmin: i64::MIN,
                qmax: i64::MAX,
                ..fo.requantizer(from.frac)
            };
            for (y, row) in plane.chunks_mut(run).enumerate() {
                let at = (y0 + y) * s.w + x0;
                let rhs_row = &rhs_plane[at..at + run];
                for (a, b) in row.chunks_mut(BLOCK).zip(rhs_row.chunks(BLOCK)) {
                    let b2 = &mut aligned[..b.len()];
                    b2.iter_mut().zip(b).for_each(|(w, s)| *w = (*s).into());
                    shift(rhs.formats[c]).apply_lane(b2);
                    S::in_lane(a, 1, 0, b.len(), |a, _| {
                        shift(self.formats[c]).apply_lane(a);
                        for (a, b2) in a.iter_mut().zip(b2) {
                            *a = (*a + *b2).clamp(lo, hi);
                        }
                    });
                }
            }
        }
        self.formats = out_formats;
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
///
/// Each plane reduces on the bit patterns of `|v|`: among non-negative
/// floats the integer order of the bits is the numeric order, ∞ sorts
/// above every finite value and every NaN above ∞, so one integer `max`
/// per sample finds the maximum and keeps the poison.
pub fn group_max_abs(t: &Tensor, groups: usize) -> Vec<f64> {
    let s = t.shape();
    let mut maxes = vec![0.0f64; groups];
    for (i, plane) in t.as_slice().chunks(s.plane().max(1)).enumerate() {
        let bits = plane.iter().fold(0, |m, v| m.max(v.to_bits() << 1 >> 1));
        let a = f64::from(f32::from_bits(bits));
        let max = &mut maxes[i % s.c % groups];
        let poisoned = a.is_nan() || max.is_nan();
        *max = if poisoned { f64::NAN } else { max.max(a) };
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

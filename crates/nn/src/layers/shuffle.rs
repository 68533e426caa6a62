//! Pixel shuffle / unshuffle: lossless space↔depth reshapes used by the
//! ERNet-style models (the "PU" in DnERNet-PU) and the SR upsamplers.
//!
//! Both are one permutation of an NCHW buffer, written once for any
//! element type ([`shuffle_into`], [`unshuffle_into`]: the `f32` layers
//! here, the `i64` features of `ringcnn-quant`) and carried out row by
//! row — a source row and every `r`-th sample of an output row — never
//! through a 4-D index per element.
//!
//! Behind a convolution on the streaming engine a [`PixelShuffle`] does
//! not run at all: it describes itself as a [`Node::Shuffle`], and the
//! step program fuses it into the convolution (`crate::program`), which
//! writes each pixel where [`shuffle_into`] would copy it, bit for bit
//! the tensor `apply` returns.

use crate::layer::{Layer, Node};
use ringcnn_tensor::prelude::*;
use ringcnn_tensor::tensor::Tensor as T;
use std::ops::Range;

/// Depth-to-space on a raw NCHW buffer: `src` of shape `s` into `dst` of
/// shape `[n, c/r², h·r, w·r]`. The `r²` source planes of one output
/// plane are contiguous; output row `y·r + ry` interleaves row `y` of the
/// `r` planes `ry·r + rx`, and is written once, whole, before the next
/// (so the output becomes resident as it is filled, not up front).
///
/// # Panics
///
/// Panics if either buffer is shorter than its shape.
pub fn shuffle_into<E: Copy>(src: &[E], s: Shape4, r: usize, dst: &mut [E]) {
    let (plane, out_plane, out_w) = (s.plane(), s.plane() * r * r, s.w * r);
    let groups = src[..s.len()].chunks(out_plane.max(1));
    for (from, to) in groups.zip(dst.chunks_mut(out_plane.max(1))) {
        for (oy, row) in to.chunks_mut(out_w).enumerate() {
            for rx in 0..r {
                let at = (oy % r * r + rx) * plane + oy / r * s.w;
                for (o, v) in row[rx..].iter_mut().step_by(r).zip(&from[at..at + s.w]) {
                    *o = *v;
                }
            }
        }
    }
}

/// Space-to-depth on a raw NCHW buffer, the inverse of [`shuffle_into`]:
/// `src` of shape `s` into `dst` of shape `[n, c·r², h/r, w/r]` (rows and
/// columns beyond a multiple of `r` are dropped). Each source row is read
/// once and dealt out to row `y` of its `r` output planes.
///
/// # Panics
///
/// Panics if either buffer is shorter than its shape.
pub fn unshuffle_into<E: Copy>(src: &[E], s: Shape4, r: usize, dst: &mut [E]) {
    let (out_h, out_w) = (s.h / r, s.w / r);
    let out_plane = out_h * out_w;
    let groups = dst.chunks_mut((out_plane * r * r).max(1));
    for (from, to) in src[..s.len()].chunks(s.plane().max(1)).zip(groups) {
        for (sy, row) in from.chunks(s.w).take(out_h * r).enumerate() {
            for rx in 0..r {
                let at = (sy % r * r + rx) * out_plane + sy / r * out_w;
                for (o, v) in to[at..at + out_w]
                    .iter_mut()
                    .zip(row.iter().skip(rx).step_by(r))
                {
                    *o = *v;
                }
            }
        }
    }
}

/// The NCHW buffer `src` of shape `s` without `cut` rows and columns on
/// the top, left, bottom and right of every plane — a copy, for the few
/// places a tile is cut that are not a convolution's output (written once
/// for any element type, like the permutations above).
pub fn cropped<E: Copy>(src: &[E], s: Shape4, cut: [usize; 4]) -> (Shape4, Vec<E>) {
    let win = Window::inset(s.h, s.w, cut);
    let rows = src[..s.len()].chunks(s.w.max(1));
    let kept = rows
        .enumerate()
        .filter(|(i, _)| (cut[0]..cut[0] + win.h).contains(&(i % s.h)));
    let data = kept.flat_map(|(_, row)| &row[cut[1]..cut[1] + win.w]);
    (Shape4::new(s.n, s.c, win.h, win.w), data.copied().collect())
}

/// The NCHW buffers of `parts`, each `(buffer, shape, rows)`, stacked:
/// every plane is the `rows` of that plane of each part in turn. The
/// parts agree on every dimension but the height (written once for any
/// element type, like [`cropped`]).
pub fn stacked<E: Copy>(parts: &[(&[E], Shape4, Range<usize>)]) -> (Shape4, Vec<E>) {
    let s = parts[0].1;
    let h = parts.iter().map(|(.., rows)| rows.len()).sum();
    let mut data = Vec::with_capacity(s.n * s.c * h * s.w);
    for plane in 0..s.n * s.c {
        for (src, s, rows) in parts {
            let at = plane * s.h * s.w;
            data.extend_from_slice(&src[at + rows.start * s.w..at + rows.end * s.w]);
        }
    }
    (Shape4::new(s.n, s.c, h, s.w), data)
}

/// Space-to-depth: `[N, C, H, W] → [N, C·r², H/r, W/r]`.
pub struct PixelUnshuffle {
    r: usize,
}

impl PixelUnshuffle {
    /// Creates an unshuffle of factor `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0`.
    pub fn new(r: usize) -> Self {
        assert!(r > 0);
        Self { r }
    }

    /// Pure function version (also used by the data pipeline).
    pub fn apply(input: &T, r: usize) -> T {
        let s = input.shape();
        assert_eq!(s.h % r, 0, "height {} not divisible by {r}", s.h);
        assert_eq!(s.w % r, 0, "width {} not divisible by {r}", s.w);
        let out_shape = Shape4::new(s.n, s.c * r * r, s.h / r, s.w / r);
        let mut out = T::zeros(out_shape);
        unshuffle_into(input.as_slice(), s, r, out.as_mut_slice());
        out
    }
}

impl Layer for PixelUnshuffle {
    fn name(&self) -> String {
        format!("pixel_unshuffle(x{})", self.r)
    }

    fn describe(&self) -> Node<'_> {
        Node::Unshuffle(self.r)
    }

    fn forward_infer(&self, input: &T) -> T {
        Self::apply(input, self.r)
    }

    fn backward(&mut self, dout: &T) -> T {
        PixelShuffle::apply(dout, self.r)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Depth-to-space: `[N, C·r², H, W] → [N, C, H·r, W·r]`.
pub struct PixelShuffle {
    r: usize,
}

impl PixelShuffle {
    /// Creates a shuffle of factor `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0`.
    pub fn new(r: usize) -> Self {
        assert!(r > 0);
        Self { r }
    }

    /// Pure function version.
    pub fn apply(input: &T, r: usize) -> T {
        let s = input.shape();
        assert_eq!(
            s.c % (r * r),
            0,
            "channels {} not divisible by r²={}",
            s.c,
            r * r
        );
        let out_shape = Shape4::new(s.n, s.c / (r * r), s.h * r, s.w * r);
        let mut out = T::zeros(out_shape);
        shuffle_into(input.as_slice(), s, r, out.as_mut_slice());
        out
    }
}

impl Layer for PixelShuffle {
    fn name(&self) -> String {
        format!("pixel_shuffle(x{})", self.r)
    }

    fn describe(&self) -> Node<'_> {
        Node::Shuffle(self.r)
    }

    fn forward_infer(&self, input: &T) -> T {
        Self::apply(input, self.r)
    }

    fn backward(&mut self, dout: &T) -> T {
        PixelUnshuffle::apply(dout, self.r)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_unshuffle_roundtrip() {
        let x = T::random_uniform(Shape4::new(2, 3, 6, 4), -1.0, 1.0, 17);
        let down = PixelUnshuffle::apply(&x, 2);
        assert_eq!(down.shape(), Shape4::new(2, 12, 3, 2));
        let up = PixelShuffle::apply(&down, 2);
        assert_eq!(up, x);
    }

    #[test]
    fn unshuffle_layout_matches_convention() {
        // 1 channel, 2x2 image → 4 channels of 1x1.
        let x = T::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let d = PixelUnshuffle::apply(&x, 2);
        assert_eq!(d.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.shape(), Shape4::new(1, 4, 1, 1));
    }

    #[test]
    fn backward_is_inverse() {
        let mut l = PixelUnshuffle::new(2);
        let x = T::random_uniform(Shape4::new(1, 2, 4, 4), -1.0, 1.0, 3);
        let y = l.forward(&x, true);
        let dx = l.backward(&y);
        assert_eq!(dx, x, "gradient of a permutation is its inverse");
    }

    #[test]
    fn layer_metadata() {
        let u = PixelUnshuffle::new(2);
        assert!(matches!(u.describe(), Node::Unshuffle(2)));
        let geometry = |l: &dyn Layer| crate::program::compile(l)[0].op.geometry();
        assert_eq!(geometry(&u), (0, (1, 2)));
        let s = PixelShuffle::new(2);
        assert!(matches!(s.describe(), Node::Shuffle(2)));
        assert_eq!(geometry(&s), (0, (2, 1)));
    }
}

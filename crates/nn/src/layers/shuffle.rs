//! Pixel shuffle / unshuffle: lossless space↔depth reshapes used by the
//! ERNet-style models (the "PU" in DnERNet-PU) and the SR upsamplers.

use crate::layer::Layer;
use ringcnn_tensor::prelude::*;
use ringcnn_tensor::tensor::Tensor as T;

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
        for b in 0..s.n {
            for c in 0..s.c {
                for y in 0..out_shape.h {
                    for x in 0..out_shape.w {
                        for ry in 0..r {
                            for rx in 0..r {
                                let oc = c * r * r + ry * r + rx;
                                *out.at_mut(b, oc, y, x) = input.at(b, c, y * r + ry, x * r + rx);
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

impl Layer for PixelUnshuffle {
    fn name(&self) -> String {
        format!("pixel_unshuffle(x{})", self.r)
    }

    fn forward_infer(&self, input: &T) -> T {
        Self::apply(input, self.r)
    }

    fn backward(&mut self, dout: &T) -> T {
        PixelShuffle::apply(dout, self.r)
    }

    fn out_channels(&self, in_channels: usize) -> usize {
        in_channels * self.r * self.r
    }

    fn spatial_scale(&self) -> (usize, usize) {
        (1, self.r)
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
        for b in 0..s.n {
            for oc in 0..out_shape.c {
                for y in 0..s.h {
                    for x in 0..s.w {
                        for ry in 0..r {
                            for rx in 0..r {
                                let ic = oc * r * r + ry * r + rx;
                                *out.at_mut(b, oc, y * r + ry, x * r + rx) = input.at(b, ic, y, x);
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

impl Layer for PixelShuffle {
    fn name(&self) -> String {
        format!("pixel_shuffle(x{})", self.r)
    }

    fn forward_infer(&self, input: &T) -> T {
        Self::apply(input, self.r)
    }

    fn backward(&mut self, dout: &T) -> T {
        PixelUnshuffle::apply(dout, self.r)
    }

    fn out_channels(&self, in_channels: usize) -> usize {
        in_channels / (self.r * self.r)
    }

    fn spatial_scale(&self) -> (usize, usize) {
        (self.r, 1)
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
        assert_eq!(u.out_channels(3), 12);
        assert_eq!(u.spatial_scale(), (1, 2));
        let s = PixelShuffle::new(2);
        assert_eq!(s.out_channels(12), 3);
        assert_eq!(s.spatial_scale(), (2, 1));
    }
}

//! Tile views over feature maps: the substrate of the block-based
//! inference flow (§V) on the CPU runtime side.
//!
//! A [`Window`] names a (possibly out-of-frame) rectangular region of an
//! image plane. [`Tensor::extract_window`] materializes it as a tensor,
//! zero-filling everything outside the source image — exactly the
//! convention of the "same"-padded convolutions, so running a model on a
//! halo-extended tile reproduces the whole-image computation bit for bit
//! on the tile's core (every output pixel farther than the receptive
//! radius from the tile edge). On the way the halo is consumed: a
//! convolution computes only the [`Window::inset`] region the rest of the
//! model still reads, a skip is added over it ([`Tensor::add_window`]).
//! [`Tensor::paste_window`] stitches the core into the assembled output.

use crate::shape::Shape4;
use crate::tensor::Tensor;

/// A rectangular window over an image plane, in source coordinates.
/// `y0`/`x0` may be negative and `y0 + h`/`x0 + w` may exceed the source
/// extent; out-of-frame samples read as zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// Top row in source coordinates (may be negative).
    pub y0: isize,
    /// Left column in source coordinates (may be negative).
    pub x0: isize,
    /// Window height.
    pub h: usize,
    /// Window width.
    pub w: usize,
}

impl Window {
    /// Creates a window.
    pub fn new(y0: isize, x0: isize, h: usize, w: usize) -> Self {
        Self { y0, x0, h, w }
    }

    /// The window covering a whole `h × w` image.
    pub fn full(h: usize, w: usize) -> Self {
        Self { y0: 0, x0: 0, h, w }
    }

    /// The `h × w` image without `cut` rows and columns on its top, left,
    /// bottom and right (panics if they exceed it).
    pub fn inset(h: usize, w: usize, cut: [usize; 4]) -> Window {
        let [y0, x0, y1, x1] = cut;
        Window::new(y0 as isize, x0 as isize, h - y0 - y1, w - x0 - x1)
    }
}

impl Tensor {
    /// Extracts one batch item's `window` across all channels as a new
    /// `[1, C, window.h, window.w]` tensor, zero-filling out-of-frame
    /// samples (the "same"-padding convention).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn extract_window(&self, n: usize, window: Window) -> Tensor {
        let s = self.shape();
        assert!(n < s.n, "batch index {n} out of range for {s}");
        let mut out = Tensor::zeros(Shape4::new(1, s.c, window.h, window.w));
        let (h, w) = (s.h as isize, s.w as isize);
        // In-frame row/column extent of the window.
        let y_lo = window.y0.max(0);
        let y_hi = (window.y0 + window.h as isize).min(h);
        let x_lo = window.x0.max(0);
        let x_hi = (window.x0 + window.w as isize).min(w);
        if y_lo >= y_hi || x_lo >= x_hi {
            return out; // Entirely out of frame: all zeros.
        }
        let copy_w = (x_hi - x_lo) as usize;
        for c in 0..s.c {
            let src = self.plane(n, c);
            let row_base = ((y_lo - window.y0) * window.w as isize + (x_lo - window.x0)) as usize;
            for (i, y) in (y_lo..y_hi).enumerate() {
                let src_off = (y * w + x_lo) as usize;
                let dst_off = row_base + i * window.w;
                out.plane_mut(0, c)[dst_off..dst_off + copy_w]
                    .copy_from_slice(&src[src_off..src_off + copy_w]);
            }
        }
        out
    }

    /// Adds to this tensor the region of `src` that has its shape and its
    /// top-left corner at `(y0, x0)`, every batch item and channel: a skip
    /// connection over a trimmed tile ([`Tensor::add_assign`] for equal
    /// shapes). Panics if batch or channel counts differ or the region is
    /// out of range.
    pub fn add_window(&mut self, src: &Tensor, y0: usize, x0: usize) {
        let (d, s) = (self.shape(), src.shape());
        assert_eq!((d.n, d.c), (s.n, s.c), "batch/channel mismatch");
        assert!(y0 + d.h <= s.h && x0 + d.w <= s.w, "region out of range");
        let planes = self.as_mut_slice().chunks_mut(d.plane().max(1));
        for (dst, from) in planes.zip(src.as_slice().chunks(s.plane().max(1))) {
            for (y, row) in dst.chunks_mut(d.w.max(1)).enumerate() {
                let at = (y0 + y) * s.w + x0;
                for (a, b) in row.iter_mut().zip(&from[at..at + d.w]) {
                    *a += b;
                }
            }
        }
    }

    /// Copies the `src_window` region of `src` (batch item 0) into this
    /// tensor's batch item `n` at `(dst_y, dst_x)`, across all channels.
    ///
    /// # Panics
    ///
    /// Panics if channel counts differ or any region is out of range.
    pub fn paste_window(
        &mut self,
        n: usize,
        dst_y: usize,
        dst_x: usize,
        src: &Tensor,
        src_window: Window,
    ) {
        let d = self.shape();
        let s = src.shape();
        assert_eq!(d.c, s.c, "channel mismatch in paste_window");
        assert!(
            src_window.y0 >= 0 && src_window.x0 >= 0,
            "source window must be in frame"
        );
        let (sy, sx) = (src_window.y0 as usize, src_window.x0 as usize);
        assert!(
            sy + src_window.h <= s.h && sx + src_window.w <= s.w,
            "source window out of range"
        );
        assert!(
            dst_y + src_window.h <= d.h && dst_x + src_window.w <= d.w,
            "destination region out of range"
        );
        for c in 0..d.c {
            let src_plane = src.plane(0, c);
            let dst_plane = self.plane_mut(n, c);
            for y in 0..src_window.h {
                let src_off = (sy + y) * s.w + sx;
                let dst_off = (dst_y + y) * d.w + dst_x;
                dst_plane[dst_off..dst_off + src_window.w]
                    .copy_from_slice(&src_plane[src_off..src_off + src_window.w]);
            }
        }
    }
}

/// Splits an `h × w` image into a grid of core tiles of at most
/// `tile × tile` pixels, in row-major order. Every returned window is in
/// frame; edge tiles shrink to the remaining extent.
///
/// # Panics
///
/// Panics if `tile == 0`.
pub fn tile_grid(h: usize, w: usize, tile: usize) -> Vec<Window> {
    assert!(tile > 0, "tile size must be positive");
    let mut grid = Vec::new();
    for y0 in (0..h).step_by(tile) {
        for x0 in (0..w).step_by(tile) {
            grid.push(Window::new(
                y0 as isize,
                x0 as isize,
                tile.min(h - y0),
                tile.min(w - x0),
            ));
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_interior_window_copies_exactly() {
        let t = Tensor::random_uniform(Shape4::new(2, 3, 6, 7), -1.0, 1.0, 5);
        let win = Window::new(1, 2, 3, 4);
        let tile = t.extract_window(1, win);
        assert_eq!(tile.shape(), Shape4::new(1, 3, 3, 4));
        for c in 0..3 {
            for y in 0..3 {
                for x in 0..4 {
                    assert_eq!(tile.at(0, c, y, x), t.at(1, c, 1 + y, 2 + x));
                }
            }
        }
    }

    #[test]
    fn extract_pads_out_of_frame_with_zeros() {
        let t = Tensor::full(Shape4::new(1, 1, 2, 2), 3.0);
        let tile = t.extract_window(0, Window::new(-1, -1, 4, 4));
        // Row/col 0 and 3 are outside the 2×2 source.
        for y in 0..4 {
            for x in 0..4 {
                let inside = (1..3).contains(&y) && (1..3).contains(&x);
                assert_eq!(
                    tile.at(0, 0, y, x),
                    if inside { 3.0 } else { 0.0 },
                    "({y},{x})"
                );
            }
        }
        // Entirely out-of-frame window: all zeros.
        let far = t.extract_window(0, Window::new(10, 10, 2, 2));
        assert!(far.as_slice().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn paste_roundtrips_with_extract() {
        let t = Tensor::random_uniform(Shape4::new(1, 2, 8, 8), -1.0, 1.0, 9);
        let halo = 2;
        let core = Window::new(4, 2, 3, 4);
        // The core grown by `halo` on every side.
        let tile = t.extract_window(0, Window::new(2, 0, 7, 8));
        let mut out = Tensor::zeros(t.shape());
        // Paste the core region of the halo-extended tile back.
        out.paste_window(
            0,
            core.y0 as usize,
            core.x0 as usize,
            &tile,
            Window::new(halo as isize, halo as isize, core.h, core.w),
        );
        for c in 0..2 {
            for y in 0..core.h {
                for x in 0..core.w {
                    assert_eq!(
                        out.at(0, c, 4 + y, 2 + x),
                        t.at(0, c, 4 + y, 2 + x),
                        "core must roundtrip"
                    );
                }
            }
        }
    }

    #[test]
    fn grid_covers_image_without_overlap() {
        for (h, w, tile) in [(8usize, 8usize, 4usize), (10, 6, 4), (5, 5, 8), (9, 7, 3)] {
            let grid = tile_grid(h, w, tile);
            let mut hits = vec![0u8; h * w];
            for win in &grid {
                assert!(win.y0 >= 0 && win.x0 >= 0);
                for y in 0..win.h {
                    for x in 0..win.w {
                        hits[(win.y0 as usize + y) * w + win.x0 as usize + x] += 1;
                    }
                }
            }
            assert!(hits.iter().all(|h| *h == 1), "{h}x{w} tile {tile}");
        }
    }

    #[test]
    fn window_helpers() {
        let win = Window::full(6, 8);
        assert_eq!(Window::inset(6, 8, [1, 2, 3, 4]), Window::new(1, 2, 2, 2));
        assert_eq!(Window::inset(6, 8, [0; 4]), win);
    }
}

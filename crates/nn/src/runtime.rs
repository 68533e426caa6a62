//! The multi-threaded inference runtime: line-buffered frames and batch
//! execution over a prepared, shared model.
//!
//! The CPU frame path is a line buffer: [`BatchRunner::run`] cuts every
//! frame into one contiguous full-width row section per pool thread,
//! streams each section with a halo of the model's receptive radius
//! above and below it through the model on its own thread
//! ([`InferenceModel::stream`], [`program::stream`]: bands of rows top to
//! bottom, every step keeping only the rows its next band reads again),
//! and pastes each section's core rows into the output as they come out;
//! the output takes its channel count from the bands, so nothing walks
//! the model for it. Within a section every convolution computes each of
//! its pixels once; the rows a section's halo shares with its neighbour
//! (the seam) are computed by both.
//!
//! The paper's block-based flow (§V) stays for the accelerator model:
//! `ringcnn-esim` cuts a frame into the cores of [`BatchRunner::plan_grid`]
//! extended by [`BatchRunner::halo`], and streams each block's window in
//! one band — a convolution computing only the core and what the rest of
//! the program reads around it ([`program::margins`]), the truncated
//! pyramid of the block flow. A whole image is the frame's window in one
//! band ([`program::once`]). One driver and one edge rule run all three.
//! Per element nothing changes on any of them, so the output is
//! **bit-identical** to the whole-image pass on every kernel —
//! the determinism suite in `tests/runtime_parallel.rs` enforces it.
//!
//! Threading model: [`BatchRunner::new`] takes the model exclusively
//! once, warms up every inference kernel
//! ([`Layer::prepare_inference`] — transform plans, weight plans), and
//! then shares the model immutably across section/frame workers via
//! [`Layer::forward_infer`]. Workers never mutate the model; a kernel
//! nobody warmed up is built once by whichever worker needs it first.
//! The pool size comes from `RINGCNN_THREADS` (see the `rayon` shim;
//! 1 = fully sequential).

use crate::layer::Layer;
use crate::layers::structure::Sequential;
use crate::program::{self, Step};
use rayon::prelude::*;
use ringcnn_tensor::prelude::*;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Greatest common divisor (positive inputs).
pub(crate) fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Least common multiple (positive inputs).
fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

/// Spatial facts the runtime needs about a model, derived by
/// walking its layer tree once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelTopo {
    /// Receptive-field radius in input pixels: the minimum halo for
    /// bit-exact tile stitching.
    pub radius: usize,
    /// Tile sizes and offsets must be multiples of this (the resolution
    /// granularity imposed by pixel-unshuffle stages).
    pub granularity: usize,
    /// Output pixels per input pixel as a reduced `(num, den)` fraction
    /// (`(4, 1)` for ×4 SR, `(1, 1)` for denoisers).
    pub scale: (usize, usize),
}

impl ModelTopo {
    /// Folds a program into its topology — the float program and the
    /// integer one of `ringcnn-quant`: the radius is what the program
    /// reads ([`program::reads`]); granularity and scale fold each step's
    /// scale ([`program::Op::geometry`]) in execution order.
    pub fn of<L>(program: &[Step<L>]) -> Self {
        // Input pixels per current-resolution pixel, a reduced fraction.
        let (mut ipp, mut granularity) = ((1, 1), 1);
        for (_, (num, den)) in program.iter().map(|step| step.op.geometry()) {
            // A step scaling resolution by num/den divides input pixels
            // per feature pixel by num/den; a tile of t input pixels then
            // spans t·den/num feature pixels: reduced, that needs num' | t.
            let (n, d) = (ipp.0 * den, ipp.1 * num);
            ipp = (n / gcd(n, d), d / gcd(n, d));
            granularity = lcm(granularity, ipp.0);
        }
        // Output pixels per input pixel = 1 / ipp.
        Self {
            radius: program::reads(program, 0),
            granularity,
            scale: (ipp.1, ipp.0),
        }
    }
}

/// Derives the [`ModelTopo`] of a model: the fold of its program.
pub fn model_topology(model: &dyn Layer) -> ModelTopo {
    ModelTopo::of(&program::compile(model))
}

/// Hands a line buffer the window's columns of the input rows it asks
/// for ([`InferenceModel::stream`]).
pub type Read<'a> = &'a (dyn Fn(Range<usize>) -> Tensor + Sync);
/// Takes a line buffer's output bands, each with its first row.
pub type Emit<'a> = &'a mut dyn FnMut(Tensor, usize);

/// The shared-state inference contract the runtime executes: a
/// model that can be prepared once (exclusive access), then run
/// concurrently through `&self` from many pool threads, and that knows
/// its own spatial topology.
///
/// [`Sequential`] implements it by delegating to the [`Layer`] API;
/// `ringcnn_quant::QuantizedModel` implements it over the integer
/// pipeline, which is what lets [`BatchRunner`] stream quantized frames
/// in parallel with bit-exact stitching.
pub trait InferenceModel: Send + Sync {
    /// Pre-builds every cached inference kernel so subsequent
    /// [`InferenceModel::forward_infer`] calls never rebuild state.
    fn prepare_inference(&mut self);

    /// Whole-image inference forward (no mutation; many threads may call
    /// this concurrently): the frame's window in one band
    /// ([`program::once`]).
    fn forward_infer(&self, input: &Tensor) -> Tensor;

    /// `window` of a frame, `margin` pixels beyond its core on each side
    /// (top, left, bottom, right), run as a line buffer
    /// ([`program::stream`] in bands of [`program::band`] rows): `read`
    /// hands over input rows, `emit` takes every output band with its
    /// first row in the output frame.
    fn stream(&self, window: (Window, [usize; 4]), read: Read<'_>, emit: Emit<'_>);

    /// The model's spatial topology (receptive radius, granularity,
    /// output scale).
    fn topology(&self) -> ModelTopo;
}

impl InferenceModel for Sequential {
    fn prepare_inference(&mut self) {
        Layer::prepare_inference(self);
    }

    fn forward_infer(&self, input: &Tensor) -> Tensor {
        Layer::forward_infer(self, input)
    }

    fn stream(&self, window: (Window, [usize; 4]), read: Read<'_>, emit: Emit<'_>) {
        let program = program::compile(self);
        let band = program::band(&program, window.0.w);
        program::stream(&program, window, band, |rows| Cow::Owned(read(rows)), emit);
    }

    fn topology(&self) -> ModelTopo {
        model_topology(self)
    }
}

/// The block size of the accelerator model's flow, and where
/// [`BatchRunner::run`] streams a frame instead of running it whole.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileConfig {
    /// Core tile size in input pixels (rounded up to the model's
    /// granularity; edge tiles shrink).
    pub tile: usize,
}

impl Default for TileConfig {
    fn default() -> Self {
        // 64-pixel cores: the paper's block-based flow operates at
        // 16–64; larger cores amortize the halo recompute overhead
        // (convolution `i` of a tile computes `(t + 2·keep_i)²` pixels
        // for `t²` of core, see docs/PERFORMANCE.md). A frame that fits
        // one core runs whole.
        Self { tile: 64 }
    }
}

impl TileConfig {
    /// A config with an explicit core tile size.
    pub fn with_tile(tile: usize) -> Self {
        Self { tile }
    }
}

/// A prepared model shared across the thread pool: line-buffered single
/// frames and parallel batches, with every cached inference kernel
/// (transform plans, weight expansions) built exactly once up front.
///
/// # Examples
///
/// ```
/// use ringcnn_nn::prelude::*;
/// use ringcnn_nn::runtime::{BatchRunner, TileConfig};
/// use ringcnn_algebra::ring::RingKind;
/// use ringcnn_tensor::prelude::*;
///
/// let alg = Algebra::with_fcw(RingKind::Rh(4));
/// let mut model = ringcnn_nn::models::vdsr::vdsr(&alg, 3, 8, 1, 7);
/// let runner = BatchRunner::new(&mut model);
/// let x = Tensor::random_uniform(Shape4::new(1, 1, 32, 32), 0.0, 1.0, 1);
/// let tiled = runner.with_tile(TileConfig::with_tile(16)).run(&x);
/// assert_eq!(tiled.shape(), x.shape());
/// ```
pub struct BatchRunner<'m> {
    model: &'m dyn InferenceModel,
    topo: ModelTopo,
    tile: TileConfig,
}

impl<'m> BatchRunner<'m> {
    /// Prepares the model for shared inference: pre-builds cached
    /// kernels and derives the model's topology. The exclusive borrow
    /// happens here, once; everything after runs through `&self`.
    /// Accepts any [`InferenceModel`] — float [`Sequential`]s and the
    /// quantized integer pipeline alike.
    pub fn new<M: InferenceModel>(model: &'m mut M) -> Self {
        model.prepare_inference();
        let topo = model.topology();
        Self {
            model,
            topo,
            tile: TileConfig::default(),
        }
    }

    /// Sets the tile configuration (builder style).
    #[must_use]
    pub fn with_tile(mut self, tile: TileConfig) -> Self {
        self.tile = tile;
        self
    }

    /// The derived model topology.
    pub fn topo(&self) -> ModelTopo {
        self.topo
    }

    /// The halo width: the model's receptive radius rounded up to the
    /// granularity, the smallest exact halo (the first convolution trims
    /// what the rounding adds).
    pub fn halo(&self) -> usize {
        self.topo.radius.next_multiple_of(self.topo.granularity)
    }

    /// Whole-image inference forward (no sections; the baseline the
    /// streamed path is compared against).
    pub fn run_whole(&self, input: &Tensor) -> Tensor {
        self.model.forward_infer(input)
    }

    /// The tile grid of an `h × w` image (the cores of the accelerator
    /// model's blocks), or `None` when [`Self::run`] takes the
    /// whole-image path instead of streaming it.
    ///
    /// Degenerate grids are rejected here rather than executed: an image
    /// that fits one tile (both dimensions ≤ the effective tile size)
    /// and 1-pixel-wide/-tall images both go whole-image.
    pub fn plan_grid(&self, h: usize, w: usize) -> Option<Vec<Window>> {
        let g = self.topo.granularity;
        let tile = self.tile.tile.next_multiple_of(g).max(g);
        if (h <= tile && w <= tile) || h.min(w) <= 1 {
            return None;
        }
        let grid = tile_grid(h, w, tile);
        debug_assert!(grid.len() > 1);
        Some(grid)
    }

    /// Inference over a frame as one line buffer per pool thread: cuts
    /// every batch item into contiguous full-width row sections, one per
    /// pool thread (split over the batch), streams each section's input
    /// rows and a halo above and below them through the model on its own
    /// thread ([`InferenceModel::stream`]), and pastes its core rows into
    /// one zeroed frame as they come out. The frame's channel count is the
    /// bands' own (the model is not asked): allocated at the input's
    /// count, the frame is allocated again by the first band to arrive if
    /// its count differs. Falls back to [`Self::run_whole`] when
    /// [`Self::plan_grid`] plans no grid or the batch is empty.
    ///
    /// Over one section every convolution computes each of its output
    /// pixels once; a section's halo rows are computed again by its
    /// neighbour (the seam).
    ///
    /// # Panics
    ///
    /// Panics if the input height/width are not multiples of the model's
    /// granularity (pixel-unshuffle parity).
    pub fn run(&self, input: &Tensor) -> Tensor {
        let s = input.shape();
        let g = self.topo.granularity;
        assert!(
            s.h % g == 0 && s.w % g == 0,
            "input {s} not aligned to the model granularity {g}"
        );
        if self.plan_grid(s.h, s.w).is_none() || s.n == 0 {
            return self.run_whole(input);
        }
        let (sn, sd) = self.topo.scale;
        // The frame is allocated here, on the calling thread, at the input's
        // channel count, which an image-to-image model returns; the first
        // band to arrive allocates it again if its own count differs. (Left
        // to a pool thread, the frame lands in that thread's malloc arena:
        // +0.6 MiB peak RSS on 256×256 SR frames, 2-core Xeon, glibc.)
        let (oh, ow) = (s.h * sn / sd, s.w * sn / sd);
        let out = Mutex::new(Tensor::zeros(Shape4::new(s.n, s.c, oh, ow)));

        // Sections of whole granules, one per pool thread and batch item.
        let units = s.h / g;
        let per_item = num_threads().div_ceil(s.n).min(units);
        let cut = move |i: usize| i * units / per_item * g;
        let sections: Vec<_> = (0..s.n)
            .flat_map(|n| (0..per_item).map(move |i| (n, cut(i)..cut(i + 1))))
            .collect();
        let halo = self.halo();
        // The caller's span context is captured *before* the fan-out: pool
        // threads have no ambient span, so each section re-roots its
        // "section" span under the request's kernel span explicitly.
        let parent = ringcnn_trace::span::current();
        sections.par_iter().for_each(|&(n, ref section)| {
            let (top, bottom) = (section.start, section.end);
            let span = parent.map(|p| ringcnn_trace::span::span_in(p, "section"));
            if let Some(sp) = &span {
                sp.set_args((bottom - top) as u64, s.w as u64);
            }
            let rows = top.saturating_sub(halo)..(bottom + halo).min(s.h);
            let window = Window::new(rows.start as isize, 0, rows.len(), s.w);
            let margin = [top - rows.start, 0, rows.end - bottom, 0];
            let read = |r: Range<usize>| {
                input.extract_window(n, Window::new(r.start as isize, 0, r.len(), s.w))
            };
            let core = top * sn / sd..bottom * sn / sd;
            self.model.stream((window, margin), &read, &mut |y, first| {
                // Guard against models that are not spatially uniform:
                // their output does not scale with the band.
                let Shape4 { h, w, c, .. } = y.shape();
                assert_eq!(
                    w, ow,
                    "model is not tileable: a {}-px-wide frame at output scale {sn}/{sd} \
                     produced a {w}-px-wide band; spatially non-uniform layers such as \
                     global pooling cannot run on bands of rows",
                    s.w,
                );
                let (lo, hi) = (first.max(core.start), (first + h).min(core.end));
                if lo >= hi {
                    return;
                }
                let src = Window::new((lo - first) as isize, 0, hi - lo, w);
                // Poisoned only by a task that panicked, and that panic
                // reaches the caller.
                let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
                if out.shape().c != c {
                    *out = Tensor::zeros(out.shape().with_channels(c));
                }
                out.paste_window(n, lo, 0, &y, src);
            });
        });
        out.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The number of threads the inference pool runs (1 = sequential; set
/// `RINGCNN_THREADS` before the first parallel call to control it).
pub fn num_threads() -> usize {
    rayon::current_num_threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra_choice::Algebra;
    use crate::models::ffdnet::ffdnet;
    use crate::models::srresnet::{srresnet, SrResNetConfig};
    use crate::models::vdsr::vdsr;
    use ringcnn_algebra::ring::RingKind;

    #[test]
    fn topology_of_plain_conv_stack() {
        // VDSR depth 3: three 3×3 convs at full resolution → radius 3.
        let m = vdsr(&Algebra::real(), 3, 8, 1, 1);
        let topo = model_topology(&m);
        assert_eq!(
            topo,
            ModelTopo {
                radius: 3,
                granularity: 1,
                scale: (1, 1)
            }
        );
    }

    #[test]
    fn topology_tracks_unshuffle_resolution() {
        // FFDNet depth 3: unshuffle(2), three 3×3 convs at half
        // resolution (radius 2 input px each), shuffle(2) → radius 6,
        // granularity 2, scale 1.
        let m = ffdnet(&Algebra::real(), 3, 8, 1, 1);
        let topo = model_topology(&m);
        assert_eq!(
            topo,
            ModelTopo {
                radius: 6,
                granularity: 2,
                scale: (1, 1)
            }
        );
    }

    #[test]
    fn topology_of_sr_model_reports_scale() {
        let m = srresnet(
            &Algebra::real(),
            SrResNetConfig::tiny().with_blocks(1),
            1,
            1,
        );
        let topo = model_topology(&m);
        assert_eq!(topo.scale, (4, 1), "×4 SR model");
        assert!(topo.radius > 0);
    }

    #[test]
    #[should_panic(expected = "model is not tileable")]
    fn non_tileable_model_fails_with_clear_message() {
        // Classification heads (global pooling + dense) are spatially
        // non-uniform: the topology walk cannot represent them, so the
        // runner must fail with the real reason, not a stitching panic.
        use crate::models::resnet::{resnet_mini, ResNetConfig};
        let mut m = resnet_mini(&Algebra::real(), ResNetConfig::tiny(), 1, 3);
        let x = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 4);
        let _ = BatchRunner::new(&mut m)
            .with_tile(TileConfig::with_tile(8))
            .run(&x);
    }

    #[test]
    fn tiled_forward_matches_whole_image() {
        // A chain that returns other channels than it reads re-sizes the
        // frame allocated at the input's count; an empty batch runs whole.
        use crate::layers::conv::Conv2d;
        let alg = Algebra::with_fcw(RingKind::Rh(4));
        let one_to_two = Sequential::new()
            .with(Box::new(Conv2d::new(1, 3, 3, 5)))
            .with(Box::new(Conv2d::new(3, 2, 3, 6)));
        for mut m in [vdsr(&alg, 3, 8, 1, 5), one_to_two] {
            let runner = BatchRunner::new(&mut m).with_tile(TileConfig::with_tile(8));
            for n in [0, 2] {
                let x = Tensor::random_uniform(Shape4::new(n, 1, 24, 20), 0.0, 1.0, 6);
                let (tiled, whole) = (runner.run(&x), runner.run_whole(&x));
                assert_eq!(tiled.shape(), whole.shape());
                assert_eq!(tiled.as_slice(), whole.as_slice());
            }
        }
    }

    #[test]
    fn single_tile_image_falls_back_to_whole() {
        let mut m = vdsr(&Algebra::real(), 3, 8, 1, 11);
        let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 12);
        let runner = BatchRunner::new(&mut m); // default 64-px tiles
        assert_eq!(runner.run(&x).as_slice(), runner.run_whole(&x).as_slice());
    }

    #[test]
    fn degenerate_shapes_take_the_whole_image_path() {
        let mut m = vdsr(&Algebra::real(), 3, 8, 1, 5);
        let runner = BatchRunner::new(&mut m).with_tile(TileConfig::with_tile(8));
        // One-tile images and 1-pixel strips plan no grid…
        for (h, w) in [(8, 8), (8, 1), (1, 8), (128, 1), (1, 128), (1, 1), (40, 1)] {
            assert!(
                runner.plan_grid(h, w).is_none(),
                "{h}×{w} must go whole-image"
            );
        }
        // …while genuinely tileable images do.
        for (h, w) in [(16, 16), (9, 16), (2, 40)] {
            assert!(runner.plan_grid(h, w).is_some(), "{h}×{w} must tile");
        }
    }

    #[test]
    fn strip_inputs_are_bit_exact_for_every_backend() {
        // Regression: 1-pixel-wide/-tall inputs and sub-tile images used
        // to shatter into degenerate tile grids; they must now match the
        // whole-image pass bit for bit (they *are* the whole-image pass).
        for backend in crate::backend::ConvBackend::all() {
            let alg = Algebra::with_fcw(RingKind::Rh(4)).with_backend(backend);
            let mut m = vdsr(&alg, 3, 8, 1, 5);
            let runner = BatchRunner::new(&mut m).with_tile(TileConfig::with_tile(8));
            for (h, w) in [(40usize, 1usize), (1, 40), (1, 1), (7, 7)] {
                let x = Tensor::random_uniform(Shape4::new(1, 1, h, w), 0.0, 1.0, 21);
                assert_eq!(
                    runner.run(&x).as_slice(),
                    runner.run_whole(&x).as_slice(),
                    "{h}×{w} via {backend}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn rejects_misaligned_input() {
        let mut m = ffdnet(&Algebra::real(), 3, 8, 1, 13);
        let x = Tensor::zeros(Shape4::new(1, 1, 9, 8)); // odd height
        let _ = BatchRunner::new(&mut m)
            .with_tile(TileConfig::with_tile(4))
            .run(&x);
    }
}

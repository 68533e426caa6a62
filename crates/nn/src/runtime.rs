//! The multi-threaded inference runtime: tile-parallel forwards and
//! batch execution over a prepared, shared model.
//!
//! This is the CPU realization of the paper's block-based inference flow
//! (§V): the input image is split into core tiles, every tile is
//! extended by a halo of at least the model's receptive-field radius,
//! the halo-extended tiles run through the network *concurrently* on the
//! thread pool, and each core is pasted into the output as its tile
//! ends; the output takes its channel count from the tiles, so nothing
//! walks the model for it. The halo is consumed on the way, not carried:
//! a [`TileHalo`] travels with the tile, every leaf takes its kernel
//! radius off what the rest of the chain can still reach, and a
//! convolution computes only the core and that remaining reach around
//! it — the truncated pyramid of the block flow, the tile shrinking
//! layer by layer down to (nearly) its core. An upsampling tail is cut
//! further: the last convolution of a body that widens through a ×r
//! shuffle runs, with the rest of that body, over r row strips of the
//! core ([`TileHalo::strip`]), so a super-resolution tile never holds
//! its full-resolution feature planes.
//! Per element nothing changes, so with a sufficient halo the stitched
//! output is **bit-identical** to the whole-image pass on every kernel —
//! the determinism suite in `tests/runtime_parallel.rs` enforces it.
//!
//! Threading model: [`BatchRunner::new`] takes the model exclusively
//! once, warms up every inference kernel
//! ([`Layer::prepare_inference`] — transform plans, weight plans), and
//! then shares the model immutably across tile/frame workers via
//! [`Layer::forward_infer`]. Workers never mutate the model; a kernel
//! nobody warmed up is built once by whichever worker needs it first.
//! The pool size comes from `RINGCNN_THREADS` (see the `rayon` shim;
//! 1 = fully sequential).

use crate::layer::Layer;
use crate::layers::structure::Sequential;
use crate::program::{self, Step};
use rayon::prelude::*;
use ringcnn_tensor::prelude::*;
use ringcnn_tensor::tile::{tile_grid, Window};
use std::sync::{Mutex, PoisonError};

/// Greatest common divisor (positive inputs).
fn gcd(a: usize, b: usize) -> usize {
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

/// Spatial facts the tiled runtime needs about a model, derived by
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
    /// Folds a program into its topology: each step's reach around an
    /// output pixel at its input resolution and its scale
    /// ([`program::Op::geometry`]), in execution order — the float program and
    /// the integer one of `ringcnn-quant`.
    pub fn of<L>(program: &[Step<L>]) -> Self {
        // Input pixels per current-resolution pixel, a reduced fraction.
        let (mut ipp, mut radius, mut granularity) = ((1, 1), 0.0, 1);
        for (reach, (num, den)) in program.iter().map(|step| step.op.geometry()) {
            radius += reach as f64 * (ipp.0 as f64 / ipp.1 as f64);
            // A step scaling resolution by num/den divides input pixels
            // per feature pixel by num/den; a tile of t input pixels then
            // spans t·den/num feature pixels: reduced, that needs num' | t.
            let (n, d) = (ipp.0 * den, ipp.1 * num);
            ipp = (n / gcd(n, d), d / gcd(n, d));
            granularity = lcm(granularity, ipp.0);
        }
        // Output pixels per input pixel = 1 / ipp.
        Self {
            radius: radius.ceil() as usize,
            granularity,
            scale: (ipp.1, ipp.0),
        }
    }
}

/// What a tile carries around its core on its way through a chain: the
/// pixels it still has beyond the core on each side, and the radius the
/// rest of the chain can still read — the halo at entry, less every
/// kernel radius passed since. A convolution keeps `min(margin, ⌈rest⌉)`
/// per side, so a side keeps `margin ≥ ⌈rest⌉` unless the frame clipped
/// it: there the margin is all the image has, and its edge gets the
/// per-layer zero padding of whole-image inference until `rest` drops
/// below it. Outside a tile ([`TileHalo::whole`]) nothing is ever cut.
///
/// A row strip of the core is a tile of its own in the same plane
/// ([`TileHalo::strip`]): the rows of the core beside it count as margin,
/// so its inner sides keep what the rest of the chain reads like any
/// other side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileHalo {
    /// Pixels beyond the core on the top, left, bottom and right, at the
    /// current resolution.
    pub margin: [usize; 4],
    /// `rest.0 / rest.1` (reduced) current-resolution pixels — exact, like
    /// the `ipp` of [`ModelTopo::of`]: a ×4 tail reads a quarter input
    /// pixel.
    rest: (usize, usize),
    /// The core's top-left pixel in the frame, at the current resolution
    /// (exact: a multiple of the model's granularity where `BatchRunner`
    /// cut it; a tile nobody placed is its own frame).
    core: [usize; 2],
}

impl TileHalo {
    /// A tile with `margin` pixels around its core entering a chain that
    /// reads at most `halo` input pixels around any output pixel.
    pub fn new(margin: [usize; 4], halo: usize) -> Self {
        let (rest, core) = ((halo, 1), [margin[0], margin[1]]);
        Self { margin, rest, core }
    }

    /// The tile with its core's top-left pixel at `core` of its frame.
    #[must_use]
    pub(crate) fn at(self, core: [usize; 2]) -> Self {
        Self { core, ..self }
    }

    /// The top-left pixel of the tile (margins included) in its frame.
    pub(crate) fn origin(&self) -> (usize, usize) {
        (self.core[0] - self.margin[0], self.core[1] - self.margin[1])
    }

    /// A whole image: no margins, nothing to cut.
    pub fn whole() -> Self {
        Self::new([0; 4], 0)
    }

    /// `⌈rest⌉`: the margin the rest of the chain can still reach.
    pub fn reach(&self) -> usize {
        self.rest.0.div_ceil(self.rest.1)
    }

    /// Moves past a leaf that reads `radius` pixels around each output
    /// pixel, then rescales by `num/den`, and ran over the whole tile (its
    /// halo carried). Margins floor — a coarse pixel only part of which
    /// is there is not — and `rest` with them.
    pub fn leaf(&mut self, radius: usize, (num, den): (usize, usize)) {
        self.rest.0 = self.rest.0.saturating_sub(radius * self.rest.1);
        let cap = self.reach() * num / den;
        self.margin = self.margin.map(|m| m * num / den);
        self.core = self.core.map(|c| c * num / den);
        let (n, d) = (self.rest.0 * num, self.rest.1 * den);
        let (n, d) = if cap * d < n { (cap, 1) } else { (n, d) };
        self.rest = (n / gcd(n, d), d / gcd(n, d));
    }

    /// Moves past a convolution of `radius` that writes only what the
    /// rest of the chain reads, through the pixel shuffle of factor `r`
    /// fused behind it: returns the rows and columns it leaves out on
    /// the top, left, bottom and right of its "same" output. The strip
    /// of [`TileHalo::strip`] that is the whole core.
    pub fn conv(&mut self, radius: usize, r: usize) -> [usize; 4] {
        let cut;
        (*self, cut) = self.strip(radius, r, [0, 0]);
        cut
    }

    /// The row strip of the core without its `above` top and `below`
    /// bottom rows, as a tile of its own placed in the same plane, moved
    /// past a convolution of `radius` through the shuffle of factor `r`
    /// — and the rows and columns the convolution leaves out of its
    /// "same" output for it. Every side keeps what the rest of the chain
    /// reads, or all the plane has beyond the strip: an inner side keeps
    /// the rows a neighbouring strip also computes (its seam).
    pub fn strip(&self, radius: usize, r: usize, [above, below]: [usize; 2]) -> (Self, [usize; 4]) {
        let mut strip = *self;
        strip.margin[0] += above;
        strip.margin[2] += below;
        strip.core[0] += above;
        strip.leaf(radius, (1, 1));
        let keep = strip.reach();
        let cut = strip.margin.map(|m| m.saturating_sub(keep));
        strip.margin = strip.margin.map(|m| m.min(keep));
        strip.leaf(0, (r, 1));
        (strip, cut)
    }

    /// Whether the rest of the chain reaches all that `program`, run
    /// next, reads: at every step of it at least that step's reach. A
    /// tile stops short only where its halo was pinned below the
    /// model's radius; a whole image reaches nothing.
    pub fn covers<L>(&self, program: &[Step<L>]) -> bool {
        let mut probe = *self;
        program.iter().all(|step| {
            let (reach, scale) = step.op.geometry();
            let covered = probe.rest.0 >= reach * probe.rest.1;
            probe.leaf(reach, scale);
            covered
        })
    }
}

/// Derives the [`ModelTopo`] of a model: the fold of its program.
pub fn model_topology(model: &dyn Layer) -> ModelTopo {
    ModelTopo::of(&program::compile(model))
}

/// The shared-state inference contract the tiled runtime executes: a
/// model that can be prepared once (exclusive access), then run
/// concurrently through `&self` from many pool threads, and that knows
/// its own spatial topology.
///
/// [`Sequential`] implements it by delegating to the [`Layer`] API;
/// `ringcnn_quant::QuantizedModel` implements it over the integer
/// pipeline, which is what lets [`BatchRunner`] run quantized inference
/// tile-parallel with bit-exact stitching.
pub trait InferenceModel: Send + Sync {
    /// Pre-builds every cached inference kernel so subsequent
    /// [`InferenceModel::forward_infer`] calls never rebuild state.
    fn prepare_inference(&mut self);

    /// Shared-state inference forward of one tile (no mutation; many
    /// threads may call this concurrently): `tile` enters with the
    /// tile's margins and halo and comes back with the margins the
    /// output still has around its core.
    fn forward_tile(&self, input: &Tensor, tile: &mut TileHalo) -> Tensor;

    /// Whole-image inference forward: the tile walk with nothing to cut.
    fn forward_infer(&self, input: &Tensor) -> Tensor {
        self.forward_tile(input, &mut TileHalo::whole())
    }

    /// The model's spatial topology (receptive radius, granularity,
    /// output scale).
    fn topology(&self) -> ModelTopo;
}

impl InferenceModel for Sequential {
    fn prepare_inference(&mut self) {
        Layer::prepare_inference(self);
    }

    fn forward_tile(&self, input: &Tensor, tile: &mut TileHalo) -> Tensor {
        program::forward_tile(self, input, tile)
    }

    fn topology(&self) -> ModelTopo {
        model_topology(self)
    }
}

/// Tile-partitioning knobs for [`BatchRunner::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileConfig {
    /// Core tile size in input pixels (rounded up to the model's
    /// granularity; edge tiles shrink).
    pub tile: usize,
    /// Halo width in input pixels; `None` selects the model's receptive
    /// radius rounded up to the granularity — the smallest exact halo.
    pub halo: Option<usize>,
}

impl Default for TileConfig {
    fn default() -> Self {
        // 64-pixel cores: the paper's block-based flow operates at
        // 16–64; larger cores amortize the halo recompute overhead
        // (layer `i` of a tile computes `(t + 2·⌈rest_i⌉)²` pixels for
        // `t²` of core, see docs/PERFORMANCE.md) while still exposing
        // enough tiles for the pool.
        Self {
            tile: 64,
            halo: None,
        }
    }
}

impl TileConfig {
    /// A config with an explicit core tile size.
    pub fn with_tile(tile: usize) -> Self {
        Self { tile, halo: None }
    }

    /// Pins the halo width (must be ≥ the model's receptive radius for
    /// exact stitching; smaller values trade accuracy for speed).
    #[must_use]
    pub fn with_halo(mut self, halo: usize) -> Self {
        self.halo = Some(halo);
        self
    }
}

/// A prepared model shared across the thread pool: tile-parallel single
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
    /// kernels and derives the tiling topology. The exclusive borrow
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

    /// The effective halo width: configured or the model's receptive
    /// radius, rounded up to the granularity (a larger halo is always
    /// exact).
    pub fn halo(&self) -> usize {
        let halo = self.tile.halo.unwrap_or(self.topo.radius);
        halo.next_multiple_of(self.topo.granularity)
    }

    /// Whole-image inference forward (no tiling; the baseline the tiled
    /// path is compared against).
    pub fn run_whole(&self, input: &Tensor) -> Tensor {
        self.model.forward_infer(input)
    }

    /// The tile grid [`Self::run`] would use for an `h × w` image, or
    /// `None` when the whole-image path is taken instead.
    ///
    /// Degenerate grids are rejected here rather than executed: an image
    /// that fits one tile (both dimensions ≤ the effective tile size)
    /// and 1-pixel-wide/-tall strips both go whole-image. Strip inputs
    /// would otherwise shatter into tiles whose halo re-computation
    /// dwarfs their 1-pixel core, all to parallelize an image that is
    /// already tiny along the other axis.
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

    /// The tiles of an input of shape `s` cut into the cores of `grid`,
    /// one per (batch item, core): the core's window grown by the halo,
    /// and the [`TileHalo`] the tile enters the model with. The window is
    /// clipped at the true image border, never zero-extended past it: a
    /// tile edge on the image edge gets the *per-layer* zero padding of
    /// whole-image inference, which makes border pixels exact too. A core
    /// that covers the frame is one tile with no margins.
    pub fn tiles(&self, s: Shape4, grid: &[Window]) -> Vec<(usize, Window, Window, TileHalo)> {
        let halo = self.halo();
        let place = |n, core: &Window| {
            let (y0, x0) = (core.y0 as usize, core.x0 as usize);
            let room = [y0, x0, s.h - y0 - core.h, s.w - x0 - core.w];
            let ext = Window::inset(s.h, s.w, room.map(|m| m.saturating_sub(halo)));
            let tile = TileHalo::new(room.map(|m| m.min(halo)), halo).at([y0, x0]);
            (n, *core, ext, tile)
        };
        (0..s.n)
            .flat_map(|n| grid.iter().map(move |core| place(n, core)))
            .collect()
    }

    /// Tile-parallel inference: splits every batch item into
    /// halo-extended tiles ([`Self::tiles`]), runs all tiles across the
    /// thread pool, and pastes each core as its tile ends into one zeroed
    /// frame. The frame's channel count is the tiles' own (the model is
    /// not asked): allocated at the input's count, the frame is allocated
    /// again by the first tile to end if that tile's count differs. Falls
    /// back to [`Self::run_whole`] when the image yields a single tile or
    /// the batch is empty.
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
        let Some(grid) = self.plan_grid(s.h, s.w).filter(|_| s.n > 0) else {
            return self.run_whole(input);
        };
        let (sn, sd) = self.topo.scale;
        // The frame is allocated here, on the calling thread, at the input's
        // channel count, which an image-to-image model returns; the first
        // tile to end allocates it again if its own count differs. (Left
        // to that tile, the frame lands in a pool thread's malloc arena:
        // +0.6 MiB peak RSS on 256×256 SR frames, 2-core Xeon, glibc.)
        let frame = Shape4::new(s.n, s.c, s.h * sn / sd, s.w * sn / sd);
        let out = Mutex::new(Tensor::zeros(frame));

        // One task per (batch item, tile); all tasks fan out at once, and
        // each pastes its core into the frame when it ends (the cores are
        // disjoint windows). The caller's span context is captured
        // *before* the fan-out: pool threads have no ambient span, so each
        // tile task re-roots its "tile" span under the request's kernel
        // span explicitly.
        let parent = ringcnn_trace::span::current();
        self.tiles(s, &grid)
            .par_iter()
            .for_each(|&(n, core, ext, mut tile)| {
                let span = parent.map(|p| ringcnn_trace::span::span_in(p, "tile"));
                if let Some(sp) = &span {
                    sp.set_args(ext.h as u64, ext.w as u64);
                }
                let tile_out = self
                    .model
                    .forward_tile(&input.extract_window(n, ext), &mut tile);
                // What is left of the halo at output scale (a halo above
                // the radius leaves some) is cropped here.
                let [top, left, bottom, right] = tile.margin;
                let (h, w) = (core.h * sn / sd, core.w * sn / sd);
                // Guard the topology walk against models that are not
                // spatially uniform (e.g. global pooling + dense heads):
                // their output does not scale with the tile, which the
                // walk cannot see — fail with the real reason instead of
                // a stitching bounds panic.
                let Shape4 { h: th, w: tw, .. } = tile_out.shape();
                assert_eq!(
                    (th, tw),
                    (top + h + bottom, left + w + right),
                    "model is not tileable: a tile with a {h}×{w} core at output scale \
                     {sn}/{sd} produced a {th}×{tw} output; spatially non-uniform layers \
                     such as global pooling cannot run block-based inference",
                );
                let src = Window::new(top as isize, left as isize, h, w);
                let (y0, x0) = (core.y0 as usize * sn / sd, core.x0 as usize * sn / sd);
                // Poisoned only by a task that panicked, and that panic
                // reaches the caller.
                let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
                let c = tile_out.shape().c;
                if out.shape().c != c {
                    *out = Tensor::zeros(out.shape().with_channels(c));
                }
                out.paste_window(n, y0, x0, &tile_out, src);
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

//! The multi-threaded inference runtime: tile-parallel forwards and
//! batch execution over a prepared, shared model.
//!
//! This is the CPU realization of the paper's block-based inference flow
//! (§V): the input image is split into core tiles, every tile is
//! extended by a halo of at least the model's receptive-field radius,
//! the halo-extended tiles run through the network *concurrently* on the
//! thread pool, and the core regions are stitched back together. The
//! halo is consumed on the way, not carried: a [`TileHalo`] travels with
//! the tile, every leaf takes its kernel radius off what the rest of the
//! chain can still reach, and a convolution computes only the core and
//! that remaining reach around it — the truncated pyramid of the block
//! flow, the tile shrinking layer by layer down to (nearly) its core.
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

use crate::layer::{visit_tree_mut, Layer};
use crate::layers::structure::Sequential;
use rayon::prelude::*;
use ringcnn_tensor::prelude::*;
use ringcnn_tensor::tile::{tile_grid, Window};
use std::borrow::Cow;

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

/// Incremental [`ModelTopo`] accumulator: visit the model's layers in
/// execution order, reporting each one's kernel radius and spatial
/// scale, and [`TopoBuilder::finish`] folds them into the whole-model
/// receptive radius / granularity / output scale.
///
/// This is the walk state behind [`model_topology`], exposed so other
/// model representations — notably the integer pipeline of
/// `ringcnn-quant`, whose layers are not [`Layer`] trait objects — can
/// derive the identical topology and run on the same tiled runtime.
pub struct TopoBuilder {
    /// Input pixels per current-resolution pixel, as a reduced fraction.
    ipp_num: usize,
    ipp_den: usize,
    radius: f64,
    granularity: usize,
}

impl Default for TopoBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TopoBuilder {
    /// Starts a walk at the model input (full resolution, zero radius).
    pub fn new() -> Self {
        Self {
            ipp_num: 1,
            ipp_den: 1,
            radius: 0.0,
            granularity: 1,
        }
    }

    fn ipp(&self) -> f64 {
        self.ipp_num as f64 / self.ipp_den as f64
    }

    /// Adds a receptive radius measured in *current-resolution* pixels
    /// (converted to input pixels at the walk's current scale). Use for
    /// non-kernel neighborhoods such as a bicubic skip's 2-pixel reach.
    pub fn add_radius_here(&mut self, radius: f64) {
        self.radius += radius * self.ipp();
    }

    /// Applies a layer's spatial scale `num/den` (2/1 for ×2 pixel
    /// shuffle, 1/2 for unshuffle).
    pub fn apply_scale(&mut self, (num, den): (usize, usize)) {
        // A layer scaling resolution by num/den divides input-pixels-per-
        // feature-pixel by num/den.
        self.ipp_num *= den;
        self.ipp_den *= num;
        let g = gcd(self.ipp_num, self.ipp_den);
        self.ipp_num /= g;
        self.ipp_den /= g;
        // A tile of t input pixels spans t·den/num feature pixels at the
        // new resolution; reduced, that needs num' | t.
        self.granularity = lcm(self.granularity, self.ipp_num);
    }

    /// Folds the walk into the model topology.
    pub fn finish(&self) -> ModelTopo {
        ModelTopo {
            radius: self.radius.ceil() as usize,
            granularity: self.granularity,
            // Output pixels per input pixel = 1 / ipp.
            scale: (self.ipp_den, self.ipp_num),
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileHalo {
    /// Pixels beyond the core on the top, left, bottom and right, at the
    /// current resolution.
    pub margin: [usize; 4],
    /// `rest.0 / rest.1` (reduced) current-resolution pixels — exact, like
    /// the `ipp` of [`TopoBuilder`]: a ×4 tail reads a quarter input pixel.
    rest: (usize, usize),
}

impl TileHalo {
    /// A tile with `margin` pixels around its core entering a chain that
    /// reads at most `halo` input pixels around any output pixel.
    pub fn new(margin: [usize; 4], halo: usize) -> Self {
        let rest = (halo, 1);
        Self { margin, rest }
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
        let (n, d) = (self.rest.0 * num, self.rest.1 * den);
        let (n, d) = if cap * d < n { (cap, 1) } else { (n, d) };
        self.rest = (n / gcd(n, d), d / gcd(n, d));
    }

    /// Moves past a convolution of `radius` that writes only what the
    /// rest of the chain reads, through the pixel shuffle of factor `r`
    /// fused behind it: returns the rows and columns it leaves out on
    /// the top, left, bottom and right of its "same" output.
    pub fn conv(&mut self, radius: usize, r: usize) -> [usize; 4] {
        self.leaf(radius, (1, 1));
        let keep = self.reach();
        let cut = self.margin.map(|m| m.saturating_sub(keep));
        self.margin = self.margin.map(|m| m.min(keep));
        self.leaf(0, (r, 1));
        cut
    }
}

/// Derives the [`ModelTopo`] of a model by walking its layer tree
/// (nothing is changed; the one tree walk is the `&mut` one).
pub fn model_topology(model: &mut Sequential) -> ModelTopo {
    let mut walk = TopoBuilder::new();
    visit_tree_mut(model, &mut |layer| {
        // A container reports only what it reads beside its children
        // (the bicubic skip's reach, at the container's input
        // resolution); the scale change is carried by the children.
        walk.add_radius_here(layer.kernel_radius() as f64);
        if layer.children().is_none() {
            walk.apply_scale(layer.spatial_scale());
        }
    });
    walk.finish()
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

    /// Output channel count given the input channel count.
    fn out_channels(&self, in_channels: usize) -> usize;

    /// The model's spatial topology (receptive radius, granularity,
    /// output scale). Nothing is changed; the tree walk is `&mut`.
    fn topology(&mut self) -> ModelTopo;
}

impl InferenceModel for Sequential {
    fn prepare_inference(&mut self) {
        Layer::prepare_inference(self);
    }

    fn forward_tile(&self, input: &Tensor, tile: &mut TileHalo) -> Tensor {
        self.forward_step(Cow::Borrowed(input), tile, 1).0
    }

    fn out_channels(&self, in_channels: usize) -> usize {
        Layer::out_channels(self, in_channels)
    }

    fn topology(&mut self) -> ModelTopo {
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

    /// Tile-parallel inference: splits every batch item into
    /// halo-extended tiles, runs all tiles across the thread pool, and
    /// stitches the cores. Falls back to [`Self::run_whole`] when the
    /// image yields a single tile.
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
        let halo = self.halo();
        let Some(grid) = self.plan_grid(s.h, s.w) else {
            return self.run_whole(input);
        };
        let (sn, sd) = self.topo.scale;
        let out_c = self.model.out_channels(s.c);
        let mut out = Tensor::zeros(Shape4::new(s.n, out_c, s.h * sn / sd, s.w * sn / sd));

        // One task per (batch item, tile); all tasks fan out at once.
        // The caller's span context is captured *before* the fan-out:
        // pool threads have no ambient span, so each tile task re-roots
        // its "tile" span under the request's kernel span explicitly.
        let parent = ringcnn_trace::span::current();
        let tasks: Vec<(usize, Window)> = (0..s.n)
            .flat_map(|n| grid.iter().map(move |w| (n, *w)))
            .collect();
        let results: Vec<(Tensor, TileHalo)> = tasks
            .par_iter()
            .map(|&(n, core)| {
                // Halo windows are clipped at the true image border
                // (never zero-extended past it): a tile edge that
                // coincides with the image edge gets the *per-layer*
                // zero padding of whole-image inference, which is what
                // makes border pixels exact too — the improvement over
                // the block flow in `ringcnn_esim::blocks`, whose
                // fixed-size zero halos make border pixels approximate.
                let (y0, x0) = (core.y0 as usize, core.x0 as usize);
                let room = [y0, x0, s.h - y0 - core.h, s.w - x0 - core.w];
                let ext = Window::inset(s.h, s.w, room.map(|m| m.saturating_sub(halo)));
                let span = parent.map(|p| ringcnn_trace::span::span_in(p, "tile"));
                if let Some(sp) = &span {
                    sp.set_args(ext.h as u64, ext.w as u64);
                }
                let mut tile = TileHalo::new(room.map(|m| m.min(halo)), halo);
                let tile_in = input.extract_window(n, ext);
                (self.model.forward_tile(&tile_in, &mut tile), tile)
            })
            .collect();

        for ((n, core), (tile_out, tile)) in tasks.into_iter().zip(results) {
            // What is left of the halo at output scale (a halo above the
            // radius leaves some) is cropped here.
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
            out.paste_window(
                n,
                core.y0 as usize * sn / sd,
                core.x0 as usize * sn / sd,
                &tile_out,
                src,
            );
        }
        out
    }

    /// Runs a batch of independent frames across the pool (one task per
    /// frame, whole-image each): the plan-reuse path for streams of
    /// small frames where tiling would not pay off.
    pub fn run_batch(&self, frames: &[Tensor]) -> Vec<Tensor> {
        let parent = ringcnn_trace::span::current();
        frames
            .par_iter()
            .map(|f| {
                let span = parent.map(|p| ringcnn_trace::span::span_in(p, "frame"));
                if let Some(sp) = &span {
                    sp.set_args(f.shape().h as u64, f.shape().w as u64);
                }
                self.model.forward_infer(f)
            })
            .collect()
    }
}

/// One-shot convenience: prepares `model`, then runs a tile-parallel
/// forward with `cfg`.
pub fn tiled_forward<M: InferenceModel>(model: &mut M, input: &Tensor, cfg: TileConfig) -> Tensor {
    BatchRunner::new(model).with_tile(cfg).run(input)
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
        let mut m = vdsr(&Algebra::real(), 3, 8, 1, 1);
        let topo = model_topology(&mut m);
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
        let mut m = ffdnet(&Algebra::real(), 3, 8, 1, 1);
        let topo = model_topology(&mut m);
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
        let mut m = srresnet(
            &Algebra::real(),
            SrResNetConfig::tiny().with_blocks(1),
            1,
            1,
        );
        let topo = model_topology(&mut m);
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
        let _ = tiled_forward(&mut m, &x, TileConfig::with_tile(8));
    }

    #[test]
    fn tiled_forward_matches_whole_image() {
        let alg = Algebra::with_fcw(RingKind::Rh(4));
        let mut m = vdsr(&alg, 3, 8, 1, 5);
        let x = Tensor::random_uniform(Shape4::new(2, 1, 24, 20), 0.0, 1.0, 6);
        let runner = BatchRunner::new(&mut m).with_tile(TileConfig::with_tile(8));
        assert_eq!(runner.run(&x).as_slice(), runner.run_whole(&x).as_slice());
    }

    #[test]
    fn run_batch_matches_individual_forwards() {
        let mut m = vdsr(&Algebra::real(), 3, 8, 1, 9);
        let frames: Vec<Tensor> = (0..5)
            .map(|i| Tensor::random_uniform(Shape4::new(1, 1, 10, 10), 0.0, 1.0, 50 + i))
            .collect();
        let runner = BatchRunner::new(&mut m);
        let batched = runner.run_batch(&frames);
        for (f, b) in frames.iter().zip(&batched) {
            assert_eq!(runner.run_whole(f).as_slice(), b.as_slice());
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
        let _ = tiled_forward(&mut m, &x, TileConfig::with_tile(4));
    }
}

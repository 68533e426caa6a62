//! Equivalence suite for the convolution execution backends (the
//! transform-domain fast ring convolution engine and the im2col dense
//! kernel) against the naive reference path, plus dense finite-difference
//! gradient checks and golden-output model regressions.
//!
//! These are the tests that make the backend dispatch safe to use on the
//! inference hot path: every backend must be *explainably* identical to
//! the naive lowering — bit-for-bit for the im2col lowering run through
//! the matrix-level reference loop, within `1e-4` for the blocked GEMM
//! tiles (FMA/reorder changes ULPs) and the `f32` transform engine.

use proptest::prelude::*;
use ringcnn::prelude::*;
use ringcnn_nn::layers::conv::{ConvLayer, Lowering};
use ringcnn_nn::layers::shuffle::cropped;
use ringcnn_nn::models::ernet::{dn_ernet_pu, ErNetConfig};
use ringcnn_nn::models::ffdnet::ffdnet;
use ringcnn_nn::models::srresnet::{srresnet, SrResNetConfig};
use ringcnn_nn::models::vdsr::vdsr;
use ringcnn_nn::program::{compile, margins, once, Epilogue, Op};
use ringcnn_tensor::gemm;
use std::borrow::Cow;

use ringcnn_tensor::prelude::{
    conv2d_backward_input, conv2d_backward_weight, conv2d_forward, conv2d_forward_im2col,
    forced_kernel_scope, im2col_pack, ConvWeights, KernelBackend,
};

/// Pseudo-random but deterministic weights with exact zeros sprinkled in
/// (the zero-tap skip path must behave identically in both kernels).
fn seeded_weights(co: usize, ci: usize, k: usize, seed: u64) -> ConvWeights {
    let mut w = ConvWeights::zeros(co, ci, k);
    let rnd = Tensor::random_uniform(Shape4::new(1, 1, 1, w.len()), -1.0, 1.0, seed);
    w.data.copy_from_slice(rnd.as_slice());
    for i in (0..w.data.len()).step_by(7) {
        w.data[i] = 0.0;
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite 1: for every Table-I ring (each carries a registered
    /// `FastAlgorithm`), the transform-domain engine and the im2col
    /// lowering agree with the naive `RingConv2d` forward within 1e-4
    /// over random shapes, weights, and inputs.
    #[test]
    fn ring_conv_backends_agree_on_every_table_one_ring(
        seed in 0u64..1_000_000,
        h in 3usize..7,
        w in 3usize..7,
        ci_t in 1usize..3,
        co_t in 1usize..3,
        kidx in 0usize..3,
    ) {
        let k = [1usize, 3, 5][kidx];
        for kind in RingKind::table_one() {
            let ring = Ring::from_kind(kind);
            let n = ring.n();
            let mut layer = RingConv2d::new(ring, ci_t * n, co_t * n, k, seed);
            for (i, b) in layer.bias_mut().iter_mut().enumerate() {
                *b = ((seed as usize + i) % 7) as f32 * 0.05 - 0.15;
            }
            let x = Tensor::random_uniform(
                Shape4::new(1, ci_t * n, h, w), -1.0, 1.0, seed ^ 0xabc);
            let naive = layer.forward(&x, false);
            layer.set_backend(ConvBackend::Im2col);
            // The blocked GEMM tiles reassociate f32 adds: tolerance.
            let im2col = layer.forward(&x, false);
            for (i, (a, b)) in naive.as_slice().iter().zip(im2col.as_slice()).enumerate() {
                prop_assert!(
                    (a - b).abs() < 1e-4,
                    "{:?} im2col (blocked) deviates at {}: {} vs {}",
                    kind, i, a, b
                );
            }
            layer.set_backend(ConvBackend::Transform);
            let transform = layer.forward(&x, false);
            for (i, (a, b)) in naive.as_slice().iter().zip(transform.as_slice()).enumerate() {
                prop_assert!(
                    (a - b).abs() < 1e-4,
                    "{:?} transform deviates at {}: {} vs {} (k={}, {}x{}, ci_t={}, co_t={})",
                    kind, i, a, b, k, h, w, ci_t, co_t
                );
            }
        }
    }

    /// Satellite 2: the im2col lowering run through the matrix-level
    /// reference loop equals the naive `conv2d_forward` *exactly* (same
    /// summation order per output element); the production path with
    /// its blocked tiles stays within 1e-4. Covers k = 1/3/5,
    /// non-square H ≠ W, batches.
    #[test]
    fn im2col_matches_naive_bit_for_bit(
        seed in 0u64..1_000_000,
        co in 1usize..5,
        ci in 1usize..5,
        h in 1usize..8,
        w in 1usize..8,
        kidx in 0usize..3,
        batch in 1usize..3,
    ) {
        let k = [1usize, 3, 5][kidx];
        let x = Tensor::random_uniform(Shape4::new(batch, ci, h, w), -2.0, 2.0, seed);
        let wts = seeded_weights(co, ci, k, seed ^ 0x55);
        let bias: Vec<f32> = (0..co).map(|i| 0.1 * i as f32 - 0.15).collect();
        for b in [bias.as_slice(), &[]] {
            let naive = conv2d_forward(&x, &wts, b);
            for n in 0..batch {
                let col = im2col_pack(&x, n, k);
                let exact = gemm::reference(&col, h * w, ci * k * k, co, &wts.data, b);
                for (c, plane) in exact.iter().enumerate() {
                    prop_assert_eq!(
                        naive.plane(n, c), plane.as_slice(),
                        "co={} ci={} k={} {}x{} item {}", co, ci, k, h, w, n
                    );
                }
            }
            let fast = conv2d_forward_im2col(&x, &wts, b);
            for (p, q) in naive.as_slice().iter().zip(fast.as_slice()) {
                prop_assert!(
                    (p - q).abs() <= 1e-4,
                    "blocked kernel deviates: {} vs {} (co={} ci={} k={})", p, q, co, ci, k
                );
            }
        }
    }
}

/// Loss `L = <conv(input), dout>` evaluated in f64 to keep finite
/// differences out of the f32 noise floor.
fn dot_loss(out: &Tensor, dout: &Tensor) -> f64 {
    out.as_slice()
        .iter()
        .zip(dout.as_slice())
        .map(|(a, b)| f64::from(*a) * f64::from(*b))
        .sum()
}

/// Satellite 3a: finite-difference check of `conv2d_backward_input` over
/// *every* input element (not probes), for k = 1/3/5 on non-square maps.
#[test]
fn conv2d_backward_input_full_finite_difference() {
    for (k, h, w) in [(1usize, 3usize, 4usize), (3, 4, 3), (5, 5, 4)] {
        let (ci, co) = (2usize, 3usize);
        let input = Tensor::random_uniform(Shape4::new(1, ci, h, w), -1.0, 1.0, 61);
        let wts = seeded_weights(co, ci, k, 62);
        let dout = Tensor::random_uniform(Shape4::new(1, co, h, w), -1.0, 1.0, 63);
        let dinput = conv2d_backward_input(&dout, &wts);
        let eps = 1e-2f32;
        for c in 0..ci {
            for y in 0..h {
                for x in 0..w {
                    let mut ip = input.clone();
                    *ip.at_mut(0, c, y, x) += eps;
                    let mut im = input.clone();
                    *im.at_mut(0, c, y, x) -= eps;
                    let fd = (dot_loss(&conv2d_forward(&ip, &wts, &[]), &dout)
                        - dot_loss(&conv2d_forward(&im, &wts, &[]), &dout))
                        / (2.0 * f64::from(eps));
                    let an = f64::from(dinput.at(0, c, y, x));
                    assert!(
                        (fd - an).abs() < 1e-2,
                        "k={k} input({c},{y},{x}): fd {fd} vs analytic {an}"
                    );
                }
            }
        }
    }
}

/// Satellite 3b: finite-difference check of `conv2d_backward_weight` over
/// *every* weight element and the bias, same shapes.
#[test]
fn conv2d_backward_weight_full_finite_difference() {
    for (k, h, w) in [(1usize, 3usize, 4usize), (3, 4, 3), (5, 5, 4)] {
        let (ci, co) = (2usize, 2usize);
        let input = Tensor::random_uniform(Shape4::new(2, ci, h, w), -1.0, 1.0, 71);
        let wts = seeded_weights(co, ci, k, 72);
        let dout = Tensor::random_uniform(Shape4::new(2, co, h, w), -1.0, 1.0, 73);
        let (dw, dbias) = conv2d_backward_weight(&input, &dout, k);
        let eps = 1e-2f32;
        for probe in 0..wts.data.len() {
            let mut wp = wts.clone();
            wp.data[probe] += eps;
            let mut wm = wts.clone();
            wm.data[probe] -= eps;
            let fd = (dot_loss(&conv2d_forward(&input, &wp, &[]), &dout)
                - dot_loss(&conv2d_forward(&input, &wm, &[]), &dout))
                / (2.0 * f64::from(eps));
            assert!(
                (fd - f64::from(dw.data[probe])).abs() < 2e-2,
                "k={k} w[{probe}]: fd {fd} vs analytic {}",
                dw.data[probe]
            );
        }
        // Bias gradient: per-channel plane sum of dout.
        for c in 0..co {
            let want: f32 = (0..2).map(|n| dout.plane(n, c).iter().sum::<f32>()).sum();
            assert!((dbias[c] - want).abs() < 1e-3, "k={k} bias[{c}]");
        }
    }
}

/// The four model-zoo builders over an `RH4` algebra (a ring whose
/// transform engine is non-trivial), with per-backend construction from
/// identical seeds.
fn zoo(backend: ConvBackend) -> Vec<(&'static str, Sequential, Shape4)> {
    let alg = Algebra::with_fcw(RingKind::Rh(4)).with_backend(backend);
    vec![
        ("vdsr", vdsr(&alg, 3, 8, 1, 41), Shape4::new(1, 1, 8, 8)),
        (
            "ernet",
            dn_ernet_pu(&alg, ErNetConfig::tiny(), 1, 42),
            Shape4::new(1, 1, 8, 8),
        ),
        ("ffdnet", ffdnet(&alg, 3, 8, 1, 43), Shape4::new(1, 1, 8, 8)),
        (
            "srresnet",
            srresnet(
                &alg,
                SrResNetConfig::tiny().with_blocks(1).with_channels(8),
                1,
                44,
            ),
            Shape4::new(1, 1, 4, 4),
        ),
    ]
}

/// Satellite 4: golden-output regression. One forward pass per model per
/// backend from a seeded RNG; every backend must sit within 100 dB PSNR
/// of the naive output, and the first 8 naive output values are pinned
/// as a snapshot so silent numeric drift of the reference path itself
/// cannot pass unnoticed.
#[test]
fn golden_model_outputs_across_backends() {
    // Snapshot of the first 8 naive-backend output values per model
    // (seeds above; regenerate by printing `naive.as_slice()[..8]`).
    let golden: [(&str, [f32; 8]); 4] = [
        ("vdsr", GOLDEN_VDSR),
        ("ernet", GOLDEN_ERNET),
        ("ffdnet", GOLDEN_FFDNET),
        ("srresnet", GOLDEN_SRRESNET),
    ];
    let mut naive_outputs = Vec::new();
    for (name, mut model, shape) in zoo(ConvBackend::Naive) {
        let x = Tensor::random_uniform(shape, 0.0, 1.0, 99);
        let y = model.forward(&x, false);
        let expected = golden
            .iter()
            .find(|(n, _)| *n == name)
            .expect("golden entry")
            .1;
        for (i, want) in expected.iter().enumerate() {
            let got = y.as_slice()[i];
            assert!(
                (got - want).abs() < 1e-4,
                "{name} snapshot[{i}]: got {got}, want {want}"
            );
        }
        naive_outputs.push((name, x, y));
    }
    for backend in [ConvBackend::Im2col, ConvBackend::Transform] {
        for ((name, x, naive), (name2, mut model, _)) in naive_outputs.iter().zip(zoo(backend)) {
            assert_eq!(*name, name2);
            let y = model.forward(x, false);
            let p = psnr(naive, &y);
            assert!(
                p > 100.0,
                "{name} under {backend}: PSNR vs naive only {p:.1} dB"
            );
        }
    }
}

// Snapshots of the first 8 naive-backend outputs (seeded construction
// and input as in `zoo`/`golden_model_outputs_across_backends`).
const GOLDEN_VDSR: [f32; 8] = [
    0.6072356, 0.3254771, 0.7636325, 0.23860174, 1.0698829, 0.29600245, 0.74007916, 0.8824577,
];
const GOLDEN_ERNET: [f32; 8] = [
    0.82603216, 0.47170794, 0.7142902, 1.0773109, 0.16444694, 0.8238899, 0.4285825, 0.98288745,
];
const GOLDEN_FFDNET: [f32; 8] = [
    0.06434459,
    0.075250976,
    0.0143551845,
    -0.0042279838,
    0.022631984,
    0.04678212,
    0.022979792,
    0.040937565,
];
const GOLDEN_SRRESNET: [f32; 8] = [
    0.009672858,
    0.5461989,
    -0.13962616,
    -0.47111624,
    -0.07978776,
    -0.22022206,
    -0.2189607,
    0.21671605,
];

/// The automatic backend selection must reach every nested ring conv in
/// a zoo model (through Sequential/Residual/UpsampleResidual wrappers).
#[test]
fn auto_backend_threads_through_model_zoo() {
    let alg = Algebra::with_fcw(RingKind::Rh(4));
    assert_eq!(alg.conv_backend(), ConvBackend::Transform);
    let mut m = dn_ernet_pu(&alg, ErNetConfig::tiny(), 1, 7);
    let mut ring_backends = Vec::new();
    m.for_each_layer_mut(&mut |l| {
        if let Some(rc) = l.as_any_mut().downcast_mut::<RingConv2d>() {
            ring_backends.push(rc.backend());
        }
    });
    assert!(!ring_backends.is_empty(), "model should contain ring convs");
    assert!(ring_backends.iter().all(|b| *b == ConvBackend::Transform));
    // Re-targeting after construction reaches the same layers.
    m.set_conv_backend(ConvBackend::Naive);
    let mut after = Vec::new();
    m.for_each_layer_mut(&mut |l| {
        if let Some(rc) = l.as_any_mut().downcast_mut::<RingConv2d>() {
            after.push(rc.backend());
        }
    });
    assert!(after.iter().all(|b| *b == ConvBackend::Naive));
}

/// One SGD step through the training path: the forward resets the
/// inference kernel, the visitor then moves the parameters.
fn training_step<L: Layer>(layer: &mut L, x: &Tensor) {
    let y = layer.forward(x, true);
    layer.backward(&y);
    layer.visit_params(&mut |g| {
        for (v, d) in g.values.iter_mut().zip(g.grads.iter()) {
            *v -= 1e-3 * d;
        }
    });
}

/// A named way of changing a layer's parameters (the tensor is there
/// for the training step).
type Mutation<'a, L> = (&'a str, &'a dyn Fn(&mut L, &Tensor));

/// A layer whose kernel was built *before* `mutate` must infer exactly
/// like one built fresh, mutated the same way and prepared afterwards —
/// through the shared-state path as the mutation left it (cell reset:
/// the first forward rebuilds the kernel, the second reuses what the
/// first built) and again after an explicit `prepare_inference`. A
/// kernel that survived a mutation would answer with the old weights.
/// (That the reuse is a reuse and not a second build is what
/// `tests/conv_alloc.rs` counts.)
fn assert_plans_follow<L: Layer>(
    what: &str,
    build: &dyn Fn() -> L,
    x: &Tensor,
    mutations: &[Mutation<'_, L>],
) {
    for (name, mutate) in mutations {
        let mut used = build();
        used.prepare_inference();
        let before = used.forward_infer(x);
        mutate(&mut used, x);
        let unprepared = used.forward_infer(x);
        let reused = used.forward_infer(x);
        used.prepare_inference();
        let prepared = used.forward_infer(x);

        let mut fresh = build();
        mutate(&mut fresh, x);
        fresh.prepare_inference();
        let want = fresh.forward_infer(x);
        // (Another backend may well round to the same bits.)
        if *name != "set_backend" {
            assert_ne!(before, want, "{what}/{name}: the mutation changed nothing");
        }
        assert_eq!(unprepared, want, "{what}/{name}: stale kernel");
        assert_eq!(reused, want, "{what}/{name}: the rebuilt kernel, reused");
        assert_eq!(
            prepared, want,
            "{what}/{name}: stale kernel once re-prepared"
        );
    }
}

/// [`assert_plans_follow`] for one convolution type on one backend: the
/// `&mut` paths every lowering shares — the type-erased parameter view,
/// the bias, the parameter visitor, a training step, the backend switch
/// (to the next backend: the kernel must follow, not just reset) — and
/// the ones only this type has.
fn assert_conv_plans_follow<L: Lowering>(
    what: &str,
    backend: ConvBackend,
    new: &dyn Fn() -> ConvLayer<L>,
    own: &[Mutation<'_, ConvLayer<L>>],
) {
    let x = Tensor::random_uniform(Shape4::new(1, 8, 7, 6), -1.0, 1.0, 77);
    let all = ConvBackend::all();
    let next = all[(all.iter().position(|b| *b == backend).unwrap() + 1) % all.len()];
    let shared: [Mutation<'_, ConvLayer<L>>; 5] = [
        ("params_mut", &|c, _| {
            c.as_conv_mut().expect("a convolution").params_mut()[3] += 0.5
        }),
        ("bias_mut", &|c, _| c.bias_mut()[1] += 0.25),
        ("visit_params", &|c, _| {
            c.visit_params(&mut |g| g.values[0] += 0.5)
        }),
        ("training step", &|c, x| training_step(c, x)),
        ("set_backend", &|c, _| c.set_backend(next)),
    ];
    let build = || {
        let mut c = new();
        c.set_backend(backend);
        c
    };
    let what = format!("{what}/{backend}");
    assert_plans_follow(&what, &build, &x, &[&shared[..], own].concat());
}

/// Every path that can change what a conv layer's kernel is derived
/// from resets the one kernel cell (the naive lowering, the streaming
/// engine's `PackedWeights`, the transform plan): the three lowerings ×
/// every `&mut` path × every backend.
#[test]
fn cached_weight_plans_follow_every_parameter_mutation() {
    for backend in ConvBackend::all() {
        assert_conv_plans_follow(
            "Conv2d",
            backend,
            &|| Conv2d::new(8, 8, 3, 5),
            &[
                ("weights_mut", &|c, _| c.weights_mut().data[3] += 0.5),
                ("set_mask", &|c, _| {
                    let n = c.weights().len();
                    c.set_mask((0..n).map(|i| (i % 3 != 0) as u8 as f32).collect());
                }),
            ],
        );
        assert_conv_plans_follow(
            "DepthwiseConv2d",
            backend,
            &|| DepthwiseConv2d::new(8, 3, 6),
            &[],
        );
        assert_conv_plans_follow(
            "RingConv2d",
            backend,
            &|| RingConv2d::new(Ring::from_kind(RingKind::Rh(4)), 8, 8, 3, 7),
            &[("ring_weights_mut", &|r, _| r.ring_weights_mut()[3] += 0.5)],
        );
    }
}

/// One constructor per layer type: everything the five `ModelSpec`
/// architectures build (convs, activations, shuffles, the containers),
/// the bicubic-skip wrapper, and the layers only the recognition model
/// and the Fig. 10 ablation use.
fn every_layer_type() -> Vec<(Box<dyn Layer>, Shape4)> {
    let ring = || Ring::from_kind(RingKind::Rh(4));
    let body = || {
        Sequential::new()
            .with(Box::new(RingConv2d::new(ring(), 8, 8, 3, 3)))
            .with(Box::new(DirectionalReluLayer::fh(4)))
            .with(Box::new(Conv2d::new(8, 8, 3, 4)))
    };
    let up4 = Sequential::new()
        .with(Box::new(Conv2d::new(1, 16, 3, 5)))
        .with(Box::new(PixelShuffle::new(4)));
    let image = Shape4::new(2, 8, 6, 4);
    let vector = Shape4::new(2, 8, 1, 1);
    vec![
        (Box::new(Conv2d::new(8, 4, 3, 1)), image),
        (Box::new(RingConv2d::new(ring(), 8, 4, 3, 2)), image),
        (Box::new(DepthwiseConv2d::new(8, 3, 3)), image),
        (Box::new(Relu::new()), image),
        (Box::new(DirectionalReluLayer::fh(4)), image),
        (Box::new(DirectionalReluLayer::fo4()), image),
        (Box::new(PixelShuffle::new(2)), image),
        (Box::new(PixelUnshuffle::new(2)), image),
        (Box::new(body()), image),
        (Box::new(Residual::new(body())), image),
        (
            Box::new(UpsampleResidual::new(up4, 4)),
            Shape4::new(1, 1, 5, 4),
        ),
        (Box::new(GlobalAvgPool::new()), image),
        (Box::new(Dense::new(8, 3, 6)), vector),
        (Box::new(TupleMix::hadamard_forward(4)), image),
    ]
}

/// `forward(x, false)` is `forward_infer(x)` by construction — for
/// every layer type, on every backend, whether or not anyone called
/// `prepare_inference`, and again after a training forward has reset
/// the kernels.
#[test]
fn forward_without_train_is_forward_infer_for_every_layer_type() {
    for backend in ConvBackend::all() {
        for (mut layer, shape) in every_layer_type() {
            let what = format!("{} on {backend}", layer.name());
            layer.set_conv_backend(backend);
            let x = Tensor::random_uniform(shape, -1.0, 1.0, 91);
            let shared = layer.forward_infer(&x);
            assert_eq!(layer.forward(&x, false), shared, "{what}: unprepared");
            layer.prepare_inference();
            assert_eq!(layer.forward_infer(&x), shared, "{what}: prepared, &");
            assert_eq!(layer.forward(&x, false), shared, "{what}: prepared, &mut");
            let trained = layer.forward(&x, true);
            assert_eq!(trained.shape(), shared.shape(), "{what}: train shape");
            assert_eq!(layer.forward(&x, false), shared, "{what}: after training");
        }
    }
}

// ---------------------------------------------------------------------
// The float program owns its activations: the step program the driver
// runs (`program::once`, with a conv's `Epilogue::Shuffle` where it fused
// the shuffle behind it) against the plain leaf-by-leaf chain, bit for
// bit. CI runs this file at pools 1 and 4 (`thread-sanity`), at the
// runner's own size, and with each kernel tier pinned (`kernel-tiers`).
// ---------------------------------------------------------------------

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Random features with signed zeros, NaN and the infinities sprinkled
/// in.
fn special_features(s: Shape4, seed: u64) -> Tensor {
    let mut t = Tensor::random_uniform(s, -2.0, 2.0, seed);
    let special = [-0.0, 0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        if (i + seed as usize) % 4 == 0 {
            *v = special[(i / 4 + seed as usize) % special.len()];
        }
    }
    t
}

/// The driver answers an activation it is handed with the bits it
/// answers a view of it with, and those are `forward_infer`'s — over the
/// program of every layer type on every backend, and of the element-wise
/// layers (the ones that work in place on what they are given) over
/// every tuple size and plane shape; a borrowed input is never written,
/// and a program fuses only the shuffle a layer holds behind an engine
/// conv (the bicubic skip's ×4 body).
#[test]
fn owned_forward_is_the_borrowing_forward_bit_for_bit() {
    let mut layers = Vec::new();
    for backend in ConvBackend::all() {
        for (mut layer, shape) in every_layer_type() {
            layer.set_conv_backend(backend);
            let fuses =
                layer.name().starts_with("upsample_residual") && backend != ConvBackend::Naive;
            layers.push((layer, shape, fuses));
        }
    }
    for (h, w) in [(1, 1), (1, 7), (37, 31)] {
        let elementwise: [(Box<dyn Layer>, usize); 5] = [
            (Box::new(Relu::new()), 3),
            (Box::new(DirectionalReluLayer::fh(2)), 4),
            (Box::new(DirectionalReluLayer::fh(4)), 8),
            (Box::new(DirectionalReluLayer::fh(8)), 8),
            (Box::new(DirectionalReluLayer::fo4()), 8),
        ];
        let shape = Shape4::new(2, 0, h, w);
        layers.extend(elementwise.map(|(layer, c)| (layer, shape.with_channels(c), false)));
    }
    for (layer, shape, fuses) in layers {
        let what = format!("{} on {shape}", layer.name());
        let x = special_features(shape, 5 + shape.w as u64);
        let kept = x.clone();
        let want = layer.forward_infer(&x);
        let program = compile(layer.as_ref());
        let fused = program.iter().any(|step| {
            matches!(
                step.op,
                Op::Conv {
                    epilogue: Epilogue::Shuffle(_),
                    ..
                }
            )
        });
        assert_eq!(fused, fuses, "{what}: the shuffles it fused");
        let borrowed = once(&program, Cow::Borrowed(&x), [0; 4]);
        assert_eq!(bits(&x), bits(&kept), "{what}: wrote its input");
        assert_eq!(bits(&borrowed), bits(&want), "{what}: borrowed");
        let owned = once(&program, Cow::Owned(x), [0; 4]);
        assert_eq!(bits(&owned), bits(&want), "{what}: owned");
        let margins = margins(&program, [0; 4]);
        assert!(
            margins.iter().all(|m| *m == [0; 4]),
            "{what}: nothing to cut"
        );
    }
}

/// `(h, w)` of the fused-shuffle table: a plane below one panel; rows
/// that straddle panels; whole panels; two chunk tasks with an image row
/// split between them; four chunk tasks, every row split, a ragged tail.
const SHUFFLE_PLANES: [(usize, usize); 5] = [(5, 1), (3, 7), (2, 16), (5, 37), (3, 130)];

/// Builds a conv for a backend.
type ConvBuilder = Box<dyn Fn(ConvBackend) -> Box<dyn Layer>>;

/// The convolutions in front of a shuffle of factor `r` — label, input
/// channels, builder: the real one, the depth-wise one and ring ones
/// over RI2/RI4/RI8 and RH4, each with a multiple of `r²` (and of `n`)
/// output channels, and the real one nested in a chain of its own (the
/// SRResNet's shape), which hands the shuffle to its last child and
/// answers what that child answers.
fn convs_before_a_shuffle(r: usize) -> Vec<(String, usize, ConvBuilder)> {
    let real: ConvBuilder = Box::new(move |backend| {
        let mut c = Conv2d::new(3, 2 * r * r, 3, 21);
        c.bias_mut().iter_mut().for_each(|b| *b = 0.125);
        c.set_backend(backend);
        Box::new(c)
    });
    let depthwise: ConvBuilder = Box::new(move |backend| {
        let mut c = DepthwiseConv2d::new(2 * r * r, 3, 24);
        c.bias_mut().iter_mut().for_each(|b| *b = 0.375);
        c.set_backend(backend);
        Box::new(c)
    });
    let nested: ConvBuilder = Box::new(move |backend| {
        let mut c = Conv2d::new(3, 2 * r * r, 3, 25);
        c.bias_mut().iter_mut().for_each(|b| *b = -0.5);
        c.set_backend(backend);
        Box::new(Sequential::new().with(Box::new(c)))
    });
    let mut convs = vec![
        ("Conv2d".to_string(), 3, real),
        ("DepthwiseConv2d".to_string(), 2 * r * r, depthwise),
        ("Sequential[Conv2d]".to_string(), 3, nested),
    ];
    for kind in [
        RingKind::Ri(2),
        RingKind::Ri(4),
        RingKind::Ri(8),
        RingKind::Rh(4),
    ] {
        let n = Ring::from_kind(kind).n();
        let ring: ConvBuilder = Box::new(move |backend| {
            let mut c = RingConv2d::new(Ring::from_kind(kind), n, n * r * r, 3, 22);
            c.bias_mut().iter_mut().for_each(|b| *b = -0.25);
            c.set_backend(backend);
            Box::new(c)
        });
        convs.push((format!("RingConv2d[{kind}]"), n, ring));
    }
    convs
}

/// `conv → pixel_shuffle` run as one step equals the shuffle of the
/// conv's output bit for bit — fused into the conv's step where it runs
/// the engine kernel (`Conv2d` and `DepthwiseConv2d` off `Naive`,
/// `RingConv2d` on `Im2col`), a step of its own everywhere else — for
/// r ∈ {2, 3, 4}, batch 2, every plane of `SHUFFLE_PLANES`, on both
/// kernel tiers; and inside a tile the conv's step writes exactly the
/// pixels of it the rest of the program reads (the engine through the
/// shuffle, the transform and naive kernels in front of it).
#[test]
fn fused_pixel_shuffle_is_the_shuffle_of_the_conv_output_bit_for_bit() {
    for r in [2usize, 3, 4] {
        for (label, ci, build) in convs_before_a_shuffle(r) {
            for backend in ConvBackend::all() {
                let ring = label.starts_with("RingConv2d");
                let engine = match backend {
                    ConvBackend::Naive => false,
                    ConvBackend::Im2col => true,
                    ConvBackend::Transform => !ring,
                };
                let conv = build(backend);
                let chain = Sequential::new()
                    .with(build(backend))
                    .with(Box::new(PixelShuffle::new(r)));
                let program = compile(&chain);
                let absorbed = matches!(
                    program[0].op,
                    Op::Conv { epilogue: Epilogue::Shuffle(s), .. } if s == r
                );
                let step = &program[..1];
                for (h, w) in SHUFFLE_PLANES {
                    for tier in [KernelBackend::Scalar, KernelBackend::Avx2] {
                        let what = format!("{label} on {backend}, r={r}, {h}x{w}, {tier:?}");
                        let x = Tensor::random_uniform(Shape4::new(2, ci, h, w), -1.0, 1.0, 23);
                        forced_kernel_scope(tier, || {
                            let plain = conv.forward_infer(&x);
                            let want = PixelShuffle::apply(&plain, r);
                            let stepped_once = once(step, Cow::Borrowed(&x), [0; 4]);
                            assert_eq!(absorbed, engine, "{what}: who absorbs");
                            let stepped = if absorbed { &want } else { &plain };
                            assert_eq!(stepped_once.shape(), stepped.shape(), "{what}");
                            assert_eq!(bits(&stepped_once), bits(stepped), "{what}: step");
                            // Nothing reads behind a lone step: it
                            // keeps no margin, and on 3-row planes no
                            // row at all.
                            if h >= 3 && w >= 4 {
                                let trimmed = once(step, Cow::Borrowed(&x), [2, 0, 1, 3]);
                                let s = if engine { r } else { 1 };
                                let kept = margins(step, [2, 0, 1, 3])[1];
                                assert_eq!(kept, [0; 4], "{what}: margins");
                                let cut = [2, 0, 1, 3].map(|m| m * s);
                                let (_, kept) = cropped(stepped.as_slice(), stepped.shape(), cut);
                                let kept: Vec<u32> = kept.iter().map(|v| v.to_bits()).collect();
                                assert_eq!(bits(&trimmed), kept, "{what}: trimmed");
                            }
                            let got = chain.forward_infer(&x);
                            assert_eq!(got.shape(), want.shape(), "{what}");
                            assert_eq!(bits(&got), bits(&want), "{what}: chain");
                        });
                    }
                }
            }
        }
    }
    // A region with no rows is an empty output on every backend, bias
    // and all (the transform engine's bias loop indexed into it).
    for backend in ConvBackend::all() {
        let mut conv = RingConv2d::new(Ring::from_kind(RingKind::Rh(4)), 8, 8, 3, 26);
        conv.bias_mut().iter_mut().for_each(|b| *b = 0.5);
        conv.set_backend(backend);
        let x = Tensor::random_uniform(Shape4::new(1, 8, 3, 6), -1.0, 1.0, 27);
        let out = once(&compile(&conv), Cow::Borrowed(&x), [2, 0, 1, 3]);
        assert_eq!(out.shape(), Shape4::new(1, 8, 0, 3), "RH4 on {backend}");
    }
}

/// The fused step refuses what `PixelShuffle::apply` refuses, in its
/// words.
#[test]
#[should_panic(expected = "channels 6 not divisible by r²=4")]
fn fused_pixel_shuffle_rejects_channels_that_do_not_divide() {
    let mut conv = Conv2d::new(3, 6, 3, 1);
    conv.set_backend(ConvBackend::Im2col);
    let chain = Sequential::new()
        .with(Box::new(conv))
        .with(Box::new(PixelShuffle::new(2)));
    chain.forward_infer(&Tensor::zeros(Shape4::new(1, 3, 4, 4)));
}

/// A whole image off an unshuffle's grid reaches the layer, which
/// refuses it, in its words: the driver crops no row to make it fit.
#[test]
#[should_panic(expected = "height 7 not divisible by 2")]
fn a_whole_image_off_the_unshuffle_grid_is_refused() {
    let model = ffdnet(&Algebra::real(), 3, 8, 1, 13);
    model.forward_infer(&Tensor::zeros(Shape4::new(1, 1, 7, 8)));
}

/// The model leaf by leaf, every leaf through the borrowing
/// `forward_infer` and every shuffle on its own: the chain no container
/// shortcut touches (and the walk the benchmark times).
fn leaf_by_leaf(layer: &mut dyn Layer, x: Tensor) -> Tensor {
    let any = layer.as_any_mut();
    if let Some(seq) = any.downcast_mut::<Sequential>() {
        let children = seq.layers_mut().iter_mut();
        return children.fold(x, |x, child| leaf_by_leaf(child.as_mut(), x));
    }
    if let Some(res) = any.downcast_mut::<Residual>() {
        let mut y = leaf_by_leaf(res.body_mut(), x.clone());
        y.add_assign(&x);
        return y;
    }
    if let Some(up) = any.downcast_mut::<UpsampleResidual>() {
        let factor = up.factor();
        let mut y = leaf_by_leaf(up.body_mut(), x.clone());
        y.add_assign(&upsample(&x, factor));
        return y;
    }
    layer.forward_infer(&x)
}

/// Whole models — the benchmark's SR4ERNet with its bicubic skip and
/// DnERNet, over (RI4, fH), (RH4, fcw) and the real field — answer
/// through the owning, fusing chain what they answer leaf by leaf, bit
/// for bit, whole and tiled (tiled ≡ whole as `tests/runtime_parallel.rs`
/// states it: exact on every kernel).
#[test]
fn whole_models_match_their_leaf_by_leaf_walk_whole_and_tiled() {
    let algebras = [
        Algebra::ri_fh(4),
        Algebra::with_fcw(RingKind::Rh(4)),
        Algebra::real(),
    ];
    for alg in &algebras {
        for (scenario, shape, tile) in [
            (Scenario::Sr4, Shape4::new(2, 1, 24, 20), 12),
            (
                Scenario::Denoise { sigma: 25.0 },
                Shape4::new(2, 1, 32, 24),
                16,
            ),
        ] {
            let what = format!("{scenario:?} over {}", alg.label());
            let mut model = build_model(scenario, ThroughputTarget::Hd30, alg, 7);
            // `sr4_ernet` zero-initialises its last conv: seed it, or the
            // body never reaches the output.
            model.for_each_layer_mut(&mut |layer| {
                let any = layer.as_any_mut();
                if let Some(c) = any.downcast_mut::<Conv2d>() {
                    let w = &mut c.weights_mut().data;
                    if w.iter().all(|v| *v == 0.0) {
                        w.iter_mut()
                            .enumerate()
                            .for_each(|(i, v)| *v = 0.01 * (i % 5) as f32);
                    }
                }
            });
            let x = Tensor::random_uniform(shape, 0.0, 1.0, 17);
            let want = leaf_by_leaf(&mut model, x.clone());
            let runner = BatchRunner::new(&mut model).with_tile(TileConfig::with_tile(tile));
            assert!(
                runner.plan_grid(shape.h, shape.w).is_some(),
                "{what}: tiles"
            );
            let whole = runner.run_whole(&x);
            assert_eq!(bits(&whole), bits(&want), "{what}: whole");
            assert_eq!(bits(&runner.run(&x)), bits(&whole), "{what}: tiled");
        }
    }
}

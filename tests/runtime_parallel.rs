//! Determinism suite for the parallel tiled inference runtime: the
//! tile-parallel forward must reproduce the single-threaded whole-image
//! pass — bit-identical on the dense kernels (naive/im2col), within
//! `1e-6` on the `f32` transform engine — for the paper's models over
//! every Table-I ring, across tile sizes, halos, batch sizes, and
//! whatever pool size the process runs with (`RINGCNN_THREADS`; CI runs
//! this suite at 1 and 4 threads).
//!
//! The halo-vs-receptive-field relationship is property-tested: any
//! halo ≥ the model's receptive radius must stitch exactly; the
//! minimal-halo default comes from the same `model_topology` walk.

use proptest::prelude::*;
use ringcnn::prelude::*;
use ringcnn_nn::models::ffdnet::ffdnet;
use ringcnn_nn::models::vdsr::vdsr;
use ringcnn_nn::runtime::{model_topology, BatchRunner, TileConfig};

/// Maximum absolute elementwise difference.
fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "shape mismatch");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// Asserts tiled output equivalence per backend: exact for the dense
/// kernels, ≤ 1e-6 for the transform engine.
fn assert_equivalent(backend: ConvBackend, whole: &Tensor, tiled: &Tensor, ctx: &str) {
    match backend {
        ConvBackend::Naive | ConvBackend::Im2col => {
            assert_eq!(
                whole.as_slice(),
                tiled.as_slice(),
                "{ctx}: dense tiling must be bit-exact"
            );
        }
        ConvBackend::Transform => {
            let d = max_abs_diff(whole, tiled);
            assert!(d <= 1e-6, "{ctx}: transform tiling deviates by {d}");
        }
    }
}

/// Tiled-vs-whole equivalence for VDSR and FFDNet over every Table-I
/// ring and every backend (the satellite acceptance test).
#[test]
fn tiled_forward_matches_whole_image_all_rings() {
    for kind in RingKind::table_one() {
        let n = Ring::from_kind(kind).n();
        for backend in ConvBackend::all() {
            let alg = Algebra::with_fcw(kind).with_backend(backend);
            // Channel width must be a multiple of the ring dimension for
            // the interior convs to lower onto ring convolutions.
            let c = 2 * n.max(2);
            let models: Vec<(&str, Sequential)> = vec![
                ("vdsr", vdsr(&alg, 3, c, 1, 31)),
                ("ffdnet", ffdnet(&alg, 3, c, 1, 32)),
            ];
            for (name, mut model) in models {
                let x = Tensor::random_uniform(Shape4::new(2, 1, 24, 16), 0.0, 1.0, 33);
                let runner = BatchRunner::new(&mut model).with_tile(TileConfig::with_tile(8));
                let whole = runner.run_whole(&x);
                let tiled = runner.run(&x);
                assert_equivalent(
                    backend,
                    &whole,
                    &tiled,
                    &format!("{name}/{kind:?}/{backend}"),
                );
            }
        }
    }
}

/// The tiled path must agree with a *freshly constructed* model's plain
/// `forward(…, false)` — i.e. with the pre-parallel reference semantics,
/// not merely with itself.
#[test]
fn tiled_forward_matches_reference_forward() {
    let alg = Algebra::with_fcw(RingKind::Rh(4));
    let x = Tensor::random_uniform(Shape4::new(1, 1, 32, 32), 0.0, 1.0, 40);
    let mut reference = vdsr(&alg, 4, 8, 1, 41);
    let want = reference.forward(&x, false);
    let mut model = vdsr(&alg, 4, 8, 1, 41);
    let tiled = BatchRunner::new(&mut model)
        .with_tile(TileConfig::with_tile(16))
        .run(&x);
    let d = max_abs_diff(&want, &tiled);
    assert!(d <= 1e-6, "tiled vs reference forward deviates by {d}");
}

/// BatchRunner::run_batch must equal frame-by-frame whole forwards
/// bit for bit (plan reuse may not change results).
#[test]
fn batch_runner_matches_sequential_frames() {
    let alg = Algebra::with_fcw(RingKind::Rh4I);
    let mut model = ffdnet(&alg, 3, 10, 1, 51);
    let frames: Vec<Tensor> = (0..6)
        .map(|i| Tensor::random_uniform(Shape4::new(1, 1, 12, 12), 0.0, 1.0, 60 + i))
        .collect();
    let runner = BatchRunner::new(&mut model);
    let batched = runner.run_batch(&frames);
    assert_eq!(batched.len(), frames.len());
    for (frame, out) in frames.iter().zip(&batched) {
        assert_eq!(runner.run_whole(frame).as_slice(), out.as_slice());
    }
}

/// Concurrent `forward_infer` on one shared model nobody prepared:
/// eight threads race the first call, each kernel cell is initialised by
/// exactly one of them, and every thread answers bit for bit what a
/// prepared model answers.
#[test]
fn unprepared_shared_model_is_race_free() {
    let alg = Algebra::with_fcw(RingKind::Rh(4));
    let mut prepared = vdsr(&alg, 3, 8, 1, 71);
    prepared.prepare_inference();
    let x = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 72);
    let want = prepared.forward_infer(&x);
    // A fresh model whose kernels were never built, shared immutably.
    let fresh = vdsr(&alg, 3, 8, 1, 71);
    let start = std::sync::Barrier::new(8);
    let outs: Vec<Tensor> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    fresh.forward_infer(&x)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    for out in outs {
        assert_eq!(out, want, "a racing first call must match a prepared model");
    }
}

/// Receptive-radius topology pins for the two model families the tiling
/// acceptance criteria name.
#[test]
fn topology_pins() {
    let alg = Algebra::with_fcw(RingKind::Rh(4));
    let vdsr_topo = model_topology(&mut vdsr(&alg, 5, 8, 1, 1));
    assert_eq!((vdsr_topo.radius, vdsr_topo.granularity), (5, 1));
    let ffd_topo = model_topology(&mut ffdnet(&alg, 4, 8, 1, 1));
    // unshuffle(2) + four 3×3 convs at half res (2 px each) + shuffle(2).
    assert_eq!((ffd_topo.radius, ffd_topo.granularity), (8, 2));
    assert_eq!(ffd_topo.scale, (1, 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any tile size and any halo ≥ the receptive radius stitches the
    /// dense backends bit-exactly and the transform backend within 1e-6;
    /// tile/halo alignment to the model granularity is handled by the
    /// runner.
    #[test]
    fn any_sufficient_halo_is_exact(
        seed in 0u64..1_000_000,
        tile in 1usize..5,      // ×4 px → 4..16 core tiles
        extra_halo in 0usize..3, // halo = radius + 2·extra (granularity 2)
        h_tiles in 2usize..4,
        w_tiles in 2usize..4,
    ) {
        let alg = Algebra::with_fcw(RingKind::Complex).with_backend(ConvBackend::Im2col);
        let mut model = ffdnet(&alg, 3, 8, 1, seed);
        let topo = model_topology(&mut model);
        let halo = (topo.radius + 2 * extra_halo).next_multiple_of(topo.granularity);
        let tile_px = 4 * tile;
        let x = Tensor::random_uniform(
            Shape4::new(1, 1, (h_tiles * tile_px).max(8), (w_tiles * tile_px).max(8)),
            0.0, 1.0, seed ^ 0x77,
        );
        let runner = BatchRunner::new(&mut model)
            .with_tile(TileConfig::with_tile(tile_px).with_halo(halo));
        let whole = runner.run_whole(&x);
        let tiled = runner.run(&x);
        prop_assert_eq!(
            whole.as_slice(), tiled.as_slice(),
            "tile {} halo {} (radius {})", tile_px, halo, topo.radius
        );
    }

    /// Conversely, a halo strictly smaller than the receptive radius must
    /// NOT be exact in general (the radius walk is tight, not padded).
    #[test]
    fn insufficient_halo_deviates(seed in 0u64..1_000)
    {
        let alg = Algebra::real().with_backend(ConvBackend::Naive);
        let mut model = vdsr(&alg, 4, 8, 1, seed);
        let topo = model_topology(&mut model);
        prop_assert!(topo.radius >= 2);
        let x = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, seed ^ 0x3);
        let runner = BatchRunner::new(&mut model)
            .with_tile(TileConfig::with_tile(4).with_halo(topo.radius - 2));
        let whole = runner.run_whole(&x);
        let tiled = runner.run(&x);
        prop_assert!(
            whole.as_slice() != tiled.as_slice(),
            "halo {} below radius {} should leak seams",
            topo.radius - 2, topo.radius
        );
    }
}

/// The five `ModelSpec` architectures at their smallest, and the SR
/// scenario's bicubic-skip wrapper, over a ring with a directional ReLU
/// so every leaf and container type of the zoo appears.
fn walk_zoo() -> Vec<(&'static str, Sequential)> {
    use ringcnn::scenarios::{build_model, Scenario, ThroughputTarget};
    let alg = Algebra::ri_fh(4);
    let (b, r, n_extra, width, channels_io) = (1, 2, 1, 8, 1);
    let specs = [
        (
            "vdsr",
            ModelSpec::Vdsr {
                depth: 3,
                width,
                channels_io,
            },
        ),
        (
            "ffdnet",
            ModelSpec::Ffdnet {
                depth: 3,
                width,
                channels_io,
            },
        ),
        (
            "dn_ernet",
            ModelSpec::DnErnet {
                b,
                r,
                n_extra,
                width,
                channels_io,
            },
        ),
        (
            "sr4_ernet",
            ModelSpec::Sr4Ernet {
                b,
                r,
                n_extra,
                width,
                channels_io,
            },
        ),
        (
            "srresnet",
            ModelSpec::SrResNet {
                blocks: 1,
                channels: width,
                depthwise: true,
                channels_io,
            },
        ),
    ];
    let mut zoo: Vec<_> = specs
        .into_iter()
        .map(|(name, spec)| (name, spec.build(&alg, 3)))
        .collect();
    zoo.push((
        "sr4_bicubic_skip",
        build_model(Scenario::Sr4, ThroughputTarget::Uhd30, &alg, 3),
    ));
    zoo
}

/// The model walk yields the leaves the downcast ladders yielded before
/// `Layer::children` replaced them: same names, same order, same
/// `(radius, granularity, scale)` (lists captured at the parent commit).
#[test]
fn layer_walk_yields_the_golden_leaves_and_topology() {
    for ((name, mut model), (gname, leaves, topo)) in walk_zoo().into_iter().zip(WALK_GOLDEN) {
        assert_eq!(name, gname);
        let mut names = Vec::new();
        model.for_each_layer_mut(&mut |l| names.push(l.name()));
        assert_eq!(names, leaves, "{name}: leaves");
        let t = model_topology(&mut model);
        assert_eq!((t.radius, t.granularity, t.scale), topo, "{name}: topology");
    }
}

/// `(model, leaf names in execution order, (radius, granularity, scale))`.
type WalkGolden = (
    &'static str,
    &'static [&'static str],
    (usize, usize, (usize, usize)),
);

#[rustfmt::skip]
const WALK_GOLDEN: [WalkGolden; 6] = [
    ("vdsr", &["conv3x3(1->8)", "drelu[n=4]", "rconv3x3[RI4](8->8)", "drelu[n=4]", "conv3x3(8->1)"], (3, 1, (1, 1))),
    ("ffdnet", &["pixel_unshuffle(x2)", "rconv3x3[RI4](4->8)", "drelu[n=4]", "rconv3x3[RI4](8->8)", "drelu[n=4]", "rconv3x3[RI4](8->4)", "pixel_shuffle(x2)"], (6, 2, (1, 1))),
    ("dn_ernet", &["pixel_unshuffle(x2)", "rconv3x3[RI4](4->8)", "drelu[n=4]", "rconv3x3[RI4](8->16)", "drelu[n=4]", "rconv3x3[RI4](16->16)", "drelu[n=4]", "rconv3x3[RI4](16->8)", "rconv3x3[RI4](8->4)", "pixel_shuffle(x2)"], (10, 2, (1, 1))),
    ("sr4_ernet", &["conv3x3(1->8)", "drelu[n=4]", "rconv3x3[RI4](8->16)", "drelu[n=4]", "rconv3x3[RI4](16->16)", "drelu[n=4]", "rconv3x3[RI4](16->8)", "rconv3x3[RI4](8->8)", "rconv3x3[RI4](8->32)", "pixel_shuffle(x2)", "drelu[n=4]", "rconv3x3[RI4](8->32)", "pixel_shuffle(x2)", "drelu[n=4]", "conv3x3(8->1)"], (7, 1, (4, 1))),
    ("srresnet", &["dwconv3x3(1)", "conv1x1(1->8)", "drelu[n=4]", "dwconv3x3(8)", "rconv1x1[RI4](8->8)", "drelu[n=4]", "dwconv3x3(8)", "rconv1x1[RI4](8->8)", "dwconv3x3(8)", "rconv1x1[RI4](8->8)", "dwconv3x3(8)", "rconv1x1[RI4](8->32)", "pixel_shuffle(x2)", "drelu[n=4]", "dwconv3x3(8)", "rconv1x1[RI4](8->32)", "pixel_shuffle(x2)", "drelu[n=4]", "dwconv3x3(8)", "conv1x1(8->1)"], (6, 1, (4, 1))),
    // The bicubic skip reaches 2 source pixels beyond the body's 6.
    ("sr4_bicubic_skip", &["conv3x3(1->8)", "drelu[n=4]", "rconv3x3[RI4](8->16)", "drelu[n=4]", "rconv3x3[RI4](16->8)", "rconv3x3[RI4](8->8)", "rconv3x3[RI4](8->32)", "pixel_shuffle(x2)", "drelu[n=4]", "rconv3x3[RI4](8->32)", "pixel_shuffle(x2)", "drelu[n=4]", "conv3x3(8->1)"], (8, 1, (4, 1))),
];

/// A container is one by type, not by having children: an empty
/// `Sequential` (or a `Residual` around one) nested in a model yields no
/// leaf and leaves the topology alone.
#[test]
fn an_empty_nested_container_is_not_a_leaf() {
    let mut model = Sequential::new()
        .with(Box::new(Sequential::new()))
        .with(Box::new(Conv2d::new(1, 1, 3, 1)))
        .with(Box::new(Residual::new(Sequential::new())));
    let mut names = Vec::new();
    model.for_each_layer_mut(&mut |l| names.push(l.name()));
    assert_eq!(names, ["conv3x3(1->1)"]);
    let t = model_topology(&mut model);
    assert_eq!((t.radius, t.granularity, t.scale), (1, 1, (1, 1)));
}

//! Determinism suite for the parallel tiled inference runtime: the
//! tile-parallel forward must reproduce the single-threaded whole-image
//! pass **bit for bit** on every kernel (per output element a tile runs
//! the taps of the whole image in the same order; the transform engine's
//! components are engine products and `Tx`/`Tz` per-pixel) — for the
//! paper's models over every Table-I ring, float and quantized, across
//! tile sizes, halos, batch sizes, and whatever pool size the process
//! runs with (`RINGCNN_THREADS`; CI runs this suite at 1 and 4 threads,
//! and with each kernel tier pinned).
//!
//! Tiles shrink on their way through a chain (`TileHalo`): every
//! convolution computes the core and what the rest of the chain still
//! reads around it. The second half of the suite holds that to the
//! whole-image pass over every model family, backend and tile class,
//! and to the outputs of the commit before tiles shrank.
//!
//! The halo-vs-receptive-field relationship is property-tested: any
//! halo ≥ the model's receptive radius must stitch exactly; the
//! minimal-halo default comes from the same `model_topology` walk.

use proptest::prelude::*;
use ringcnn::prelude::*;
use ringcnn_nn::models::ffdnet::ffdnet;
use ringcnn_nn::models::vdsr::vdsr;
use ringcnn_nn::runtime::{model_topology, BatchRunner, TileConfig};

/// The bit patterns of an output: what "equal" means in this suite.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Asserts a tiled output equal to the whole-image one, bit for bit.
fn assert_equivalent(whole: &Tensor, tiled: &Tensor, ctx: &str) {
    assert_eq!(whole.shape(), tiled.shape(), "{ctx}: shape");
    assert!(
        bits(whole) == bits(tiled),
        "{ctx}: tiling must be bit-exact"
    );
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
                assert_equivalent(&whole, &tiled, &format!("{name}/{kind:?}/{backend}"));
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
    assert_equivalent(&want, &tiled, "tiled vs reference forward");
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

    /// Any tile size and any halo ≥ the receptive radius stitches
    /// bit-exactly; tile/halo alignment to the model granularity is
    /// handled by the runner.
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

// ---------------------------------------------------------------------
// Shrinking tiles: every model family, backend and tile class against
// the whole-image pass, and against the commit before tiles shrank.
// ---------------------------------------------------------------------

use ringcnn::scenarios::{build_model, Scenario, ThroughputTarget};
use ringcnn_tensor::gemm::{active_kernel, KernelBackend};

/// FNV-1a over an output's bit patterns.
fn hash(t: &Tensor) -> u64 {
    let fnv = |h: u64, b: &u32| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
    bits(t).iter().fold(0xcbf2_9ce4_8422_2325, fnv)
}

/// Seeds every all-zero conv (`sr4_ernet` zero-initialises its output
/// conv; left alone the body would never reach the output).
fn fill_zero_convs(model: &mut Sequential) {
    model.for_each_layer_mut(&mut |layer| {
        if let Some(c) = layer.as_any_mut().downcast_mut::<Conv2d>() {
            let w = &mut c.weights_mut().data;
            if w.iter().all(|v| *v == 0.0) {
                let seeded = w.iter_mut().enumerate();
                seeded.for_each(|(i, v)| *v = 0.01 * (i % 5) as f32 - 0.02);
            }
        }
    });
}

/// The algebras of the HD30 rows: the real field, RI2/RI4/RI8 with their
/// directional ReLU, and (RH4, fcw).
fn suite_algebras() -> Vec<Algebra> {
    vec![
        Algebra::real(),
        Algebra::ri_fh(2),
        Algebra::ri_fh(4),
        Algebra::ri_fh(8),
        Algebra::with_fcw(RingKind::Rh(4)),
    ]
}

/// The models of the suite: the walk zoo and the benchmark's HD30
/// DnERNet and SR4ERNet (bicubic skip included) over every algebra.
fn suite_models() -> Vec<(String, Sequential)> {
    let mut models: Vec<_> = walk_zoo()
        .into_iter()
        .map(|(name, model)| (format!("zoo/{name}"), model))
        .collect();
    for alg in suite_algebras() {
        for (task, scenario) in [
            ("dn", Scenario::Denoise { sigma: 25.0 }),
            ("sr4", Scenario::Sr4),
        ] {
            let model = build_model(scenario, ThroughputTarget::Hd30, &alg, 7);
            models.push((format!("hd30/{task}/{}", alg.label()), model));
        }
    }
    models.iter_mut().for_each(|(_, m)| fill_zero_convs(m));
    models
}

/// The model quantized to 8 bits on a small frame, or `None` where the
/// integer pipeline has no lowering for one of its layers (depthwise).
fn quantized(model: &mut Sequential) -> Option<QuantizedModel> {
    let calibration = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 92);
    QuantizedModel::try_quantize(model, &calibration, QuantOptions::default()).ok()
}

/// Tiled ≡ whole bit for bit on a random frame of `shape`, and the hash
/// of that output.
fn stitched(runner: &BatchRunner<'_>, shape: Shape4, ctx: &str) -> u64 {
    let x = Tensor::random_uniform(shape, 0.0, 1.0, 91);
    assert!(runner.plan_grid(shape.h, shape.w).is_some(), "{ctx}: tiles");
    let whole = runner.run_whole(&x);
    assert_equivalent(&whole, &runner.run(&x), ctx);
    hash(&whole)
}

/// [`stitched`] on the smallest frame with every tile class: three by
/// three cores at least a halo wide — one interior tile, every side a
/// full halo from the frame, four edge and four corner tiles.
fn stitched_3x3(runner: BatchRunner<'_>, ctx: &str) -> u64 {
    let tile = runner.halo().next_multiple_of(4).max(8);
    let runner = runner.with_tile(TileConfig::with_tile(tile));
    assert_eq!(
        runner.plan_grid(3 * tile, 3 * tile).map(|g| g.len()),
        Some(9)
    );
    stitched(&runner, Shape4::new(1, 1, 3 * tile, 3 * tile), ctx)
}

/// The float tiers round differently: a golden table each.
fn golden_of_this_tier<T>(scalar: T, avx2: T) -> T {
    match active_kernel() {
        KernelBackend::Avx2 => avx2,
        _ => scalar,
    }
}

/// Compares hashes with their golden table — this test's own output on
/// a clone of the commit before tiles shrank — printing the rows this
/// tree computes where they differ.
fn assert_golden<const N: usize>(seen: &[(String, [u64; N])], golden: &[(&str, [u64; N])]) {
    let rows = seen.iter().map(|(name, hashes)| {
        let hashes = hashes.map(|h| format!("{h:#018x}")).join(", ");
        format!("    ({name:?}, [{hashes}]),\n")
    });
    let same = seen
        .iter()
        .map(|(n, h)| (n.as_str(), *h))
        .eq(golden.iter().copied());
    assert!(
        same,
        "outputs moved; this tree computes:\n{}",
        rows.collect::<String>()
    );
}

/// Every model of the suite on every backend and quantized: a grid with
/// interior, edge and corner tiles stitches the whole-image output bit
/// for bit, and that output is the one the commit before tiles shrank
/// computed.
#[test]
fn shrinking_tiles_equal_the_whole_image_on_every_model_and_backend() {
    let mut seen = Vec::new();
    for (name, mut model) in suite_models() {
        let mut hashes = [0; 4];
        for (backend, h) in ConvBackend::all().into_iter().zip(&mut hashes) {
            model.set_conv_backend(backend);
            *h = stitched_3x3(
                BatchRunner::new(&mut model),
                &format!("{name} on {backend}"),
            );
        }
        if let Some(mut q) = quantized(&mut model) {
            // Every 8-bit row runs on `i8` planes with `conv → fH` fused,
            // and still hashes to what `i32` planes computed.
            let storage = q.lane_proof().map(|p| p.storage());
            assert_eq!(storage, Some(Storage::I8), "{name}");
            hashes[3] = stitched_3x3(BatchRunner::new(&mut q), &format!("{name}, 8-bit"));
        }
        seen.push((name, hashes));
    }
    assert_golden(
        &seen,
        golden_of_this_tier(&SUITE_GOLDEN_SCALAR, &SUITE_GOLDEN_AVX2),
    );
}

/// `(model, output hashes on [naive, im2col, transform] and quantized)`
/// — 0 where a model has no integer lowering.
type SuiteGolden = [(&'static str, [u64; 4]); 16];
#[rustfmt::skip]
const SUITE_GOLDEN_SCALAR: SuiteGolden = [
    ("zoo/vdsr", [0x6fa2c3bf35f619b7, 0x6fa2c3bf35f619b7, 0x6fa2c3bf35f619b7, 0x9d80b82f89963025]),
    ("zoo/ffdnet", [0x05f5258f529034eb, 0x05f5258f529034eb, 0x05f5258f529034eb, 0x7f1e5b45c4a23025]),
    ("zoo/dn_ernet", [0xb983b2ab25090fee, 0xb983b2ab25090fee, 0xb983b2ab25090fee, 0x127f04d561224865]),
    ("zoo/sr4_ernet", [0x1873b4457f7d9e88, 0x1873b4457f7d9e88, 0x1873b4457f7d9e88, 0x446d7eb4a72af325]),
    ("zoo/srresnet", [0x9c6c2bc18559a5bd, 0x9c6c2bc18559a5bd, 0x9c6c2bc18559a5bd, 0x0000000000000000]),
    ("zoo/sr4_bicubic_skip", [0xf759a482c32da6ad, 0xf759a482c32da6ad, 0xf759a482c32da6ad, 0x14dc9d15e224f325]),
    ("hd30/dn/(R (real), fcw)", [0xb2702f5d13a837df, 0xb2702f5d13a837df, 0xb2702f5d13a837df, 0xf0f6b5f477105725]),
    ("hd30/sr4/(R (real), fcw)", [0x11e67f0b3389ed25, 0x11e67f0b3389ed25, 0x11e67f0b3389ed25, 0x11d89743737bf725]),
    ("hd30/dn/(RI2, fH)", [0x8812ccc35abb8828, 0x8812ccc35abb8828, 0x8812ccc35abb8828, 0xe328b1b4114a5725]),
    ("hd30/sr4/(RI2, fH)", [0x621d8a924f314e48, 0x621d8a924f314e48, 0x621d8a924f314e48, 0x076992eeb085f725]),
    ("hd30/dn/(RI4, fH)", [0xfcbe007d6e95ce89, 0xfcbe007d6e95ce89, 0xfcbe007d6e95ce89, 0x0c70d4e9e35c5725]),
    ("hd30/sr4/(RI4, fH)", [0x30f5d8b8d386f8c0, 0x30f5d8b8d386f8c0, 0x30f5d8b8d386f8c0, 0x81a850e17a9df725]),
    ("hd30/dn/(RI8, fH)", [0xa33effffbf2500de, 0xa33effffbf2500de, 0xa33effffbf2500de, 0x96fc8ea783365725]),
    ("hd30/sr4/(RI8, fH)", [0xfc5814b28c8f1eff, 0xfc5814b28c8f1eff, 0xfc5814b28c8f1eff, 0x3c5ae7b72be7f725]),
    ("hd30/dn/(RH4, fcw)", [0xbe2f637bdf9301ad, 0xbe2f637bdf9301ad, 0x479db276879ef0c5, 0xc3972f3a7d725725]),
    ("hd30/sr4/(RH4, fcw)", [0x6a4517933569ca8b, 0x6a4517933569ca8b, 0x00f47b8911aa2f83, 0x868451225061f725]),
];
#[rustfmt::skip]
const SUITE_GOLDEN_AVX2: SuiteGolden = [
    ("zoo/vdsr", [0x6fa2c3bf35f619b7, 0xcf1ea891bdd0902a, 0xcf1ea891bdd0902a, 0x9d80b82f89963025]),
    ("zoo/ffdnet", [0x05f5258f529034eb, 0x79e78a822e260cfb, 0x79e78a822e260cfb, 0x7f1e5b45c4a23025]),
    ("zoo/dn_ernet", [0xb983b2ab25090fee, 0x97d833330164992d, 0x97d833330164992d, 0x127f04d561224865]),
    ("zoo/sr4_ernet", [0x1873b4457f7d9e88, 0xa75172c57070c72e, 0xa75172c57070c72e, 0x446d7eb4a72af325]),
    ("zoo/srresnet", [0x9c6c2bc18559a5bd, 0x328533e2894f8ab1, 0x328533e2894f8ab1, 0x0000000000000000]),
    ("zoo/sr4_bicubic_skip", [0xf759a482c32da6ad, 0x2dd68240f0f4cdd0, 0x2dd68240f0f4cdd0, 0x14dc9d15e224f325]),
    ("hd30/dn/(R (real), fcw)", [0xb2702f5d13a837df, 0x857cf1bdf1dacd4b, 0x857cf1bdf1dacd4b, 0xf0f6b5f477105725]),
    ("hd30/sr4/(R (real), fcw)", [0x11e67f0b3389ed25, 0xfd0176af8961182b, 0xfd0176af8961182b, 0x11d89743737bf725]),
    ("hd30/dn/(RI2, fH)", [0x8812ccc35abb8828, 0x4c3275bca5ccb068, 0x4c3275bca5ccb068, 0xe328b1b4114a5725]),
    ("hd30/sr4/(RI2, fH)", [0x621d8a924f314e48, 0x463d2372776e9bdc, 0x463d2372776e9bdc, 0x076992eeb085f725]),
    ("hd30/dn/(RI4, fH)", [0xfcbe007d6e95ce89, 0x692ac2fabeead9b5, 0x692ac2fabeead9b5, 0x0c70d4e9e35c5725]),
    ("hd30/sr4/(RI4, fH)", [0x30f5d8b8d386f8c0, 0xd7cb395f4bddaccb, 0xd7cb395f4bddaccb, 0x81a850e17a9df725]),
    ("hd30/dn/(RI8, fH)", [0xa33effffbf2500de, 0x2259bfc082b07b66, 0x2259bfc082b07b66, 0x96fc8ea783365725]),
    ("hd30/sr4/(RI8, fH)", [0xfc5814b28c8f1eff, 0xe34af0c8582b2fed, 0xe34af0c8582b2fed, 0x3c5ae7b72be7f725]),
    ("hd30/dn/(RH4, fcw)", [0xbe2f637bdf9301ad, 0xe2a183ea3862280d, 0x450c91bc8c4708a8, 0xc3972f3a7d725725]),
    ("hd30/sr4/(RH4, fcw)", [0x6a4517933569ca8b, 0x928ab8659b6e2d13, 0x7bafe41700713e24, 0x868451225061f725]),
];

/// The depth-wise baseline is the one convolution layer under another
/// weight lowering: inside a tile it trims its halo and fuses a following
/// shuffle like the other two, and the Fig. 1 DWC model stitches bit for
/// bit on every backend — on the tier this process runs (a forced scope
/// does not reach the pool's threads; CI pins each tier in turn).
#[test]
fn depthwise_srresnet_tiles_equal_the_whole_image_on_every_backend() {
    use ringcnn_nn::models::srresnet::{srresnet, SrResNetConfig};
    let cfg = SrResNetConfig::tiny()
        .with_blocks(1)
        .with_channels(8)
        .with_depthwise();
    for alg in [Algebra::real(), Algebra::ri_fh(4)] {
        for backend in ConvBackend::all() {
            let mut model = srresnet(&alg.clone().with_backend(backend), cfg, 1, 61);
            let ctx = format!("dwc srresnet over {} on {backend}", alg.label());
            stitched_3x3(BatchRunner::new(&mut model), &ctx);
        }
    }
}

/// `(batch, h, w, core)` of a frame and the cores it is cut into.
type Geometry = (usize, usize, usize, usize);

/// Output hashes of a model tiled over three geometries, and over a
/// fourth with a halo wider than its radius — each stitched bit for bit.
fn geometry_hashes<M>(model: &mut M, frames: [Geometry; 3], name: &str) -> [u64; 4]
where
    M: ringcnn_nn::runtime::InferenceModel,
{
    let mut hashes = [0; 4];
    for ((n, h, w, tile), out) in frames.into_iter().zip(&mut hashes) {
        let runner = BatchRunner::new(model).with_tile(TileConfig::with_tile(tile));
        let ctx = format!("{name}: {n}x{h}x{w} in {tile}-px cores");
        *out = stitched(&runner, Shape4::new(n, 1, h, w), &ctx);
    }
    let runner = BatchRunner::new(model);
    let wide = runner.topo().radius + 2 * runner.topo().granularity;
    let runner = runner.with_tile(TileConfig::with_tile(16).with_halo(wide));
    assert_eq!(runner.halo(), wide);
    hashes[3] = stitched(
        &runner,
        Shape4::new(1, 1, 64, 48),
        &format!("{name}: halo {wide}"),
    );
    hashes
}

/// The tile classes a 3 × 3 grid does not have, on the benchmark's
/// models as it runs them, float and 8-bit: cores closer to the frame
/// than the halo is wide (8-pixel cores, halo 12 or 16), odd grids with
/// partial edge tiles (200 × 208 in 48-pixel cores), batches, and a halo
/// wider than the radius (the rest is cropped at the paste).
#[test]
fn clipped_margins_odd_grids_batches_and_wide_halos_stitch_bit_for_bit() {
    let hd30 = |scenario, alg: &Algebra| {
        let mut model = build_model(scenario, ThroughputTarget::Hd30, alg, 7);
        fill_zero_convs(&mut model);
        model
    };
    let dn = Scenario::Denoise { sigma: 25.0 };
    let (rh4, ri4) = (Algebra::with_fcw(RingKind::Rh(4)), Algebra::ri_fh(4));
    let mut seen = Vec::new();
    for (name, mut model, frames) in [
        (
            "dn/rh4",
            hd30(dn, &rh4),
            [(1, 40, 48, 8), (1, 200, 208, 48), (2, 48, 48, 16)],
        ),
        (
            "dn/ri4",
            hd30(dn, &ri4),
            [(1, 40, 48, 8), (1, 200, 208, 48), (2, 48, 48, 16)],
        ),
        (
            "sr4/ri4",
            hd30(Scenario::Sr4, &ri4),
            [(1, 32, 40, 8), (1, 50, 52, 12), (2, 36, 36, 12)],
        ),
    ] {
        let mut q = quantized(&mut model).expect("an integer lowering");
        seen.push((
            format!("{name} f32"),
            geometry_hashes(&mut model, frames, name),
        ));
        seen.push((format!("{name} q8"), geometry_hashes(&mut q, frames, name)));
    }
    assert_golden(
        &seen,
        golden_of_this_tier(&GEOMETRY_GOLDEN_SCALAR, &GEOMETRY_GOLDEN_AVX2),
    );
}

/// `(model, output hashes of the three frames and the wide halo)`.
type GeometryGolden = [(&'static str, [u64; 4]); 6];
#[rustfmt::skip]
const GEOMETRY_GOLDEN_SCALAR: GeometryGolden = [
    ("dn/rh4 f32", [0xe2eb6e87579f5deb, 0xd53706769d5f4e64, 0x00b9b7170fdc74b3, 0xe5f07058f96113d1]),
    ("dn/rh4 q8", [0x00fb0abaa2cdf925, 0x4187b33da9649525, 0xf9d6bfed44448b25, 0x3435679e148d1325]),
    ("dn/ri4 f32", [0x37aae1319e26a2ef, 0x71553e412d6fa0a1, 0x08d565153d7283b1, 0xf0a08d1cfdddb5b1]),
    ("dn/ri4 q8", [0xf1e54a8648e7f925, 0x0717c036ec209525, 0x39799c71db688b25, 0x2518486ccf031325]),
    ("sr4/ri4 f32", [0xb1ba9c3dce2f273e, 0x2438976321d9da02, 0x6953a29ea147d93c, 0x21b586243308707a]),
    ("sr4/ri4 q8", [0xad6b2d5f9a1c6325, 0x0f20fc7b0dfe9525, 0xf0828d0c709bcb25, 0xb42c4396137f2325]),
];
#[rustfmt::skip]
const GEOMETRY_GOLDEN_AVX2: GeometryGolden = [
    ("dn/rh4 f32", [0x0cb23cce38a2f474, 0x69438d48309fb23a, 0x13cbe57ea7bf781d, 0x4c19863bc376b62c]),
    ("dn/rh4 q8", [0x00fb0abaa2cdf925, 0x4187b33da9649525, 0xf9d6bfed44448b25, 0x3435679e148d1325]),
    ("dn/ri4 f32", [0xbec32e463ed8747a, 0xac66988d5760aa83, 0x31f4ded2814a5a10, 0xd4dd9842078c911d]),
    ("dn/ri4 q8", [0xf1e54a8648e7f925, 0x0717c036ec209525, 0x39799c71db688b25, 0x2518486ccf031325]),
    ("sr4/ri4 f32", [0x77945d2c77be4399, 0x41ca70c9fdad86af, 0xef5e799b5578e53e, 0x7a52a2764cf6e133]),
    ("sr4/ri4 q8", [0xad6b2d5f9a1c6325, 0x0f20fc7b0dfe9525, 0xf0828d0c709bcb25, 0xb42c4396137f2325]),
];

// --- Below: what only exists since tiles shrink (`TileHalo`). ---

use ringcnn_nn::runtime::TileHalo;

/// An explicit halo off the model's granularity is rounded up like the
/// derived one (it used to panic in `run`): a larger halo is always
/// exact.
#[test]
fn an_unaligned_halo_is_rounded_up_to_the_granularity() {
    let alg = Algebra::real().with_backend(ConvBackend::Im2col);
    let mut model = ffdnet(&alg, 2, 8, 1, 3);
    let topo = model_topology(&mut model);
    assert_eq!((topo.radius, topo.granularity), (4, 2));
    let runner = BatchRunner::new(&mut model).with_tile(TileConfig::with_tile(8).with_halo(3));
    assert_eq!(runner.halo(), 4);
    stitched(&runner, Shape4::new(1, 1, 24, 32), "ffdnet, halo 3");
}

/// `(kernel radius, spatial scale, whether it trims)` of a chain's leaf.
type ChainLeaf = (usize, (usize, usize), bool);

/// A random chain over 4·4^l channels at resolution level `l ∈ −1..=1`
/// (`c` says where it is): engine convolutions of radius 1 and 2, ReLUs,
/// ×2 shuffles and unshuffles where the channels allow, residual blocks.
/// Returns the chain and its leaves.
fn random_chain(ops: &[usize], seed: u64) -> (Sequential, Vec<ChainLeaf>) {
    let conv = |c, k, seed| {
        let mut conv = Conv2d::new(c, c, k, seed);
        conv.set_backend(ConvBackend::Im2col);
        Box::new(conv) as Box<dyn Layer>
    };
    let (mut chain, mut leaves, mut c) = (Sequential::new(), Vec::new(), 4);
    for (i, op) in ops.iter().enumerate() {
        let seed = seed + i as u64;
        match op {
            0 | 1 => {
                chain.push(conv(c, 3 + 2 * op, seed));
                leaves.push((1 + op, (1, 1), true));
            }
            2 if c >= 4 => {
                chain.push(Box::new(PixelShuffle::new(2)));
                leaves.push((0, (2, 1), false));
                c /= 4;
            }
            3 if c <= 4 => {
                chain.push(Box::new(PixelUnshuffle::new(2)));
                leaves.push((0, (1, 2), false));
                c *= 4;
            }
            4 => {
                let body = Sequential::new()
                    .with(conv(c, 3, seed))
                    .with(Box::new(Relu::new()))
                    .with(conv(c, 3, seed + 100));
                chain.push(Box::new(Residual::new(body)));
                leaves.extend([(1, (1, 1), true), (0, (1, 1), false), (1, (1, 1), true)]);
            }
            _ => {
                chain.push(Box::new(Relu::new()));
                leaves.push((0, (1, 1), false));
            }
        }
    }
    (chain, leaves)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over random chains: after every leaf every side of a tile still
    /// has the margin the rest of the chain reaches — or all the frame
    /// gave it, where the frame clipped it — and with a halo that covers
    /// what the chain reads, tiles stitch the whole image bit for bit.
    #[test]
    fn random_chains_keep_the_margin_the_rest_of_the_chain_reads(
        ops in proptest::collection::vec(0usize..6, 7),
        seed in 0u64..1_000,
        spare in 0usize..3,
    ) {
        let (mut chain, leaves) = random_chain(&ops, seed);
        // What the chain reads around a core, exactly: backwards from
        // the output, a shuffle's pixels come from ⌈n/r⌉ of its input's.
        let need = leaves.iter().rev().fold(0usize, |n, &(radius, (num, den), _)| {
            (n * den).div_ceil(num) + radius
        });
        let topo = model_topology(&mut chain);
        let g = topo.granularity;
        let halo = (need.max(topo.radius) + spare * g).next_multiple_of(g);

        // The state alone, from an interior tile, a corner tile and one
        // the frame clipped to less than the halo on two sides.
        let clipped = (halo / 2).next_multiple_of(g).min(halo.saturating_sub(g));
        for entry in [[halo; 4], [0, 0, halo, halo], [clipped, halo, halo, clipped]] {
            let mut tile = TileHalo::new(entry, halo);
            // A side the frame clipped keeps all it has, rescaled.
            let mut all = TileHalo::new(entry, 0);
            for &(radius, scale, trims) in &leaves {
                if trims {
                    prop_assert_eq!(tile.conv(radius, 1).len(), 4);
                } else {
                    tile.leaf(radius, scale);
                }
                all.leaf(0, scale);
                for side in 0..4 {
                    let (m, reach) = (tile.margin[side], tile.reach());
                    prop_assert!(
                        m >= reach || (entry[side] < halo && m == all.margin[side]),
                        "side {} of {:?} after a leaf of {:?}: margin {} below reach {}",
                        side, entry, ops, m, reach
                    );
                    prop_assert!(m <= all.margin[side], "a margin grew: {:?}", ops);
                }
            }
        }

        // The chain itself, tiled.
        let x = Tensor::random_uniform(Shape4::new(1, 4, 24, 32), -1.0, 1.0, seed ^ 0x51);
        let tile = TileConfig::with_tile(8).with_halo(halo);
        let runner = BatchRunner::new(&mut chain).with_tile(tile);
        let (whole, tiled) = (runner.run_whole(&x), runner.run(&x));
        prop_assert!(bits(&whole) == bits(&tiled), "{:?}, halo {}", ops, halo);
    }
}

//! Determinism suite for the parallel inference runtime: the frame path
//! (`BatchRunner::run`, a line buffer per row section on every pool
//! thread) and the block flow (a block's window streamed through the
//! step program) must reproduce the single-threaded whole-image pass **bit for bit** on
//! every kernel (per output element a band or a tile runs the taps of
//! the whole image in the same order; the transform engine's components
//! are engine products and `Tx`/`Tz` per-pixel) — for the paper's models
//! over every Table-I ring, float and quantized, across frame shapes,
//! entry margins, batch sizes, and whatever pool size the process runs
//! with (`RINGCNN_THREADS`; CI runs this suite at 1, 2, 3 and 4 threads,
//! and with each kernel tier pinned).
//!
//! Windows shrink on their way through a chain (`program::margins`, the
//! one edge rule of `program::stream`): every convolution computes the
//! core and what the rest of the program reads around it
//! (`program::reads`). The second half of the suite holds that to the
//! whole-image pass over every model family, backend and tile class, and
//! the frames cut into those grids to the outputs of the commit before
//! tiles shrank.
//!
//! The last section holds the line buffer to the whole-image pass at
//! pool sizes 1 and 4, at any band height, row section and column window
//! on one thread, and counts the work of a frame's sections at pool
//! sizes 1 and 2.
//!
//! The halo is the model's receptive radius (`model_topology`, the fold
//! of `program::reads`) rounded up to its granularity; property tests
//! hold it exact on random chains, and a tile entering with a wider
//! margin to the same core.

use proptest::prelude::*;
use ringcnn::prelude::*;
use ringcnn_nn::models::ffdnet::ffdnet;
use ringcnn_nn::models::vdsr::vdsr;
use ringcnn_nn::runtime::{model_topology, BatchRunner, TileConfig};
use ringcnn_tensor::tile::Window;
#[path = "common/zoo.rs"]
mod zoo;
use zoo::{fill_zero_convs, hd30_models, walk_zoo};

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
    let vdsr_topo = model_topology(&vdsr(&alg, 5, 8, 1, 1));
    assert_eq!((vdsr_topo.radius, vdsr_topo.granularity), (5, 1));
    let ffd_topo = model_topology(&ffdnet(&alg, 4, 8, 1, 1));
    // unshuffle(2) + four 3×3 convs at half res (2 px each) + shuffle(2).
    assert_eq!((ffd_topo.radius, ffd_topo.granularity), (8, 2));
    assert_eq!(ffd_topo.scale, (1, 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any tile size stitches bit-exactly at the default halo (aligned
    /// to the model granularity by the runner), and a core entering
    /// with a margin wider than the halo computes the same pixels.
    #[test]
    fn any_sufficient_halo_is_exact(
        seed in 0u64..1_000_000,
        tile in 1usize..5,      // ×4 px → 4..16 core tiles
        extra_halo in 0usize..3, // margin = halo + 2·extra (granularity 2)
        h_tiles in 2usize..4,
        w_tiles in 2usize..4,
    ) {
        let alg = Algebra::with_fcw(RingKind::Complex).with_backend(ConvBackend::Im2col);
        let mut model = ffdnet(&alg, 3, 8, 1, seed);
        let tile_px = 4 * tile;
        let x = Tensor::random_uniform(
            Shape4::new(1, 1, (h_tiles * tile_px).max(8), (w_tiles * tile_px).max(8)),
            0.0, 1.0, seed ^ 0x77,
        );
        let runner = BatchRunner::new(&mut model).with_tile(TileConfig::with_tile(tile_px));
        let halo = runner.halo();
        let whole = runner.run_whole(&x);
        let tiled = runner.run(&x);
        prop_assert_eq!(
            whole.as_slice(), tiled.as_slice(),
            "tile {} halo {}", tile_px, halo
        );
        wide_margins_are_trimmed(&model, halo + 2 * extra_halo, tile_px, "ffdnet");
    }
}

/// A `core`-pixel block entering `model` with `wide` pixels of margin on
/// every side (more than it reads), streamed in bands, emits the whole
/// image's core bit for bit, and keeps no margin: what nothing reads is
/// cut.
fn wide_margins_are_trimmed(
    model: &dyn ringcnn_nn::runtime::InferenceModel,
    wide: usize,
    core: usize,
    ctx: &str,
) {
    let side = core + 2 * wide;
    let x = Tensor::random_uniform(Shape4::new(1, 1, side, side), 0.0, 1.0, 94);
    let (num, den) = model.topology().scale;
    let (at, out) = (wide * num / den, core * num / den);
    let read = |r: std::ops::Range<usize>| {
        x.extract_window(0, Window::new(r.start as isize, 0, r.len(), side))
    };
    let mut got = Tensor::zeros(Shape4::new(1, 1, out, out));
    let mut next = at;
    let window = (Window::full(side, side), [wide; 4]);
    model.stream(window, &read, &mut |y, first| {
        let Shape4 { h, w, .. } = y.shape();
        assert_eq!((first, w), (next, out), "{ctx}: margin {wide} left over");
        got.paste_window(0, first - at, 0, &y, Window::full(h, w));
        next += h;
    });
    assert_eq!(next, at + out, "{ctx}: margin {wide} left over");
    let want = model
        .forward_infer(&x)
        .extract_window(0, Window::new(at as isize, at as isize, out, out));
    assert_equivalent(&want, &got, &format!("{ctx}: margin {wide}"));
}

/// The model walks yield the leaves the downcast ladders yielded before
/// the tree hooks (PR 16) and the description (PR 26) replaced them:
/// same names, same order, same `(radius, granularity, scale)` (lists
/// captured before PR 16).
#[test]
fn layer_walk_yields_the_golden_leaves_and_topology() {
    for ((name, mut model), (gname, leaves, topo)) in walk_zoo().into_iter().zip(WALK_GOLDEN) {
        assert_eq!(name, gname);
        let mut names = Vec::new();
        model.for_each_layer_mut(&mut |l| names.push(l.name()));
        assert_eq!(names, leaves, "{name}: leaves");
        let t = model_topology(&model);
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

/// The directional ReLUs of an 8-bit chain, skip bodies included.
fn count_drelus(layers: &[QLayer]) -> usize {
    let count = |layer: &QLayer| match layer {
        QLayer::DRelu(_) => 1,
        QLayer::Residual(r) => count_drelus(r.body()),
        QLayer::UpsampleResidual(u) => count_drelus(u.body()),
        _ => 0,
    };
    layers.iter().map(count).sum()
}

/// The programs fuse exactly where the chains did: on the engine kernel
/// a float program writes through the shuffle at every conv → shuffle
/// pair of the zoo and nowhere else, its 8-bit twin runs `fH` on the
/// accumulators of every conv that keeps them and of no other; and a
/// conv nested in a chain of its own fuses the shuffle behind that chain,
/// bit for bit the flat chain.
#[test]
fn programs_fuse_where_the_chains_did() {
    use ringcnn_nn::program::{compile, Epilogue, Op};
    for (name, mut model) in walk_zoo() {
        model.set_conv_backend(ConvBackend::Im2col);
        let mut want: Vec<String> = Vec::new();
        model.for_each_layer_mut(&mut |l| match want.last_mut() {
            Some(conv) if conv.contains("conv") && l.name().starts_with("pixel_shuffle") => {
                *conv = format!("{conv} → {}", l.name());
            }
            _ => want.push(l.name()),
        });
        let program = compile(&model);
        let got: Vec<String> = program
            .iter()
            .filter_map(|step| match step.op {
                Op::Skip { .. } => None,
                Op::Conv {
                    epilogue: Epilogue::Shuffle(r),
                    ..
                } => Some(format!("{} → pixel_shuffle(x{r})", step.layer.name())),
                _ => Some(step.layer.name()),
            })
            .collect();
        assert_eq!(got, want, "{name}: float");

        let q = quantized(&mut model);
        let mut fused = 0;
        for step in q.program() {
            if let (QLayer::Conv(c), Op::Conv { epilogue, .. }) = (step.layer, step.op) {
                let fh = matches!(epilogue, Epilogue::FH(QLayer::DRelu(_)));
                assert_eq!(fh, c.requant().is_none(), "{name}: 8-bit");
                fused += usize::from(fh);
            }
        }
        let drelus = count_drelus(q.layers());
        let standalone = q.program().iter().filter(|s| s.op == Op::DRelu).count();
        assert_eq!(fused + standalone, drelus, "{name}: every fH runs once");
        assert!(fused > 0, "{name}: 8-bit");
    }

    let conv = || {
        let mut conv = Conv2d::new(2, 8, 3, 5);
        conv.set_backend(ConvBackend::Im2col);
        Box::new(conv) as Box<dyn Layer>
    };
    let flat = Sequential::new()
        .with(conv())
        .with(Box::new(PixelShuffle::new(2)));
    let nested = Sequential::new()
        .with(Box::new(Sequential::new().with(conv())))
        .with(Box::new(PixelShuffle::new(2)));
    let program = compile(&nested);
    let fused = |op| {
        matches!(
            op,
            Op::Conv {
                radius: 1,
                epilogue: Epilogue::Shuffle(2)
            }
        )
    };
    assert!(matches!(program[..], [step] if fused(step.op)), "nested");
    let x = Tensor::random_uniform(Shape4::new(1, 2, 9, 7), -1.0, 1.0, 6);
    assert_eq!(
        bits(&nested.forward_infer(&x)),
        bits(&flat.forward_infer(&x))
    );
}

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
    let t = model_topology(&model);
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

/// The models of the suite: the walk zoo and the benchmark's HD30
/// DnERNet and SR4ERNet (bicubic skip included) over every algebra.
fn suite_models() -> Vec<(String, Sequential)> {
    let mut models: Vec<_> = walk_zoo()
        .into_iter()
        .map(|(name, model)| (format!("zoo/{name}"), model))
        .chain(hd30_models())
        .collect();
    models.iter_mut().for_each(|(_, m)| fill_zero_convs(m));
    models
}

/// The model quantized to 8 bits on a small frame.
fn quantized(model: &mut Sequential) -> QuantizedModel {
    let calibration = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 92);
    QuantizedModel::quantize(model, &calibration, QuantOptions::default())
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
        // Every 8-bit row runs on `i8` planes with `conv → fH` fused,
        // and still hashes to what `i32` planes computed — the
        // depth-wise SRResNet's since its nested chains calibrate.
        let mut q = quantized(&mut model);
        hashes[3] = stitched_3x3(BatchRunner::new(&mut q), &format!("{name}, 8-bit"));
        seen.push((name, hashes));
    }
    assert_golden(
        &seen,
        golden_of_this_tier(&SUITE_GOLDEN_SCALAR, &SUITE_GOLDEN_AVX2),
    );
}

/// `(model, output hashes on [naive, im2col, transform] and quantized)`.
type SuiteGolden = [(&'static str, [u64; 4]); 16];
#[rustfmt::skip]
const SUITE_GOLDEN_SCALAR: SuiteGolden = [
    ("zoo/vdsr", [0x6fa2c3bf35f619b7, 0x6fa2c3bf35f619b7, 0x6fa2c3bf35f619b7, 0x9d80b82f89963025]),
    ("zoo/ffdnet", [0x05f5258f529034eb, 0x05f5258f529034eb, 0x05f5258f529034eb, 0x7f1e5b45c4a23025]),
    ("zoo/dn_ernet", [0xb983b2ab25090fee, 0xb983b2ab25090fee, 0xb983b2ab25090fee, 0x127f04d561224865]),
    ("zoo/sr4_ernet", [0x1873b4457f7d9e88, 0x1873b4457f7d9e88, 0x1873b4457f7d9e88, 0x446d7eb4a72af325]),
    ("zoo/srresnet", [0x9c6c2bc18559a5bd, 0x9c6c2bc18559a5bd, 0x9c6c2bc18559a5bd, 0x1296ba48af54f325]),
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
    ("zoo/srresnet", [0x9c6c2bc18559a5bd, 0x328533e2894f8ab1, 0x328533e2894f8ab1, 0x1296ba48af54f325]),
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

/// Output hashes of a model tiled over three geometries and a fourth
/// (64 × 48 in 16-pixel cores) — each stitched bit for bit — after a
/// core entering with a margin two granules wider than the halo computes
/// the whole image's pixels.
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
    let runner = BatchRunner::new(model).with_tile(TileConfig::with_tile(16));
    let wide = runner.halo() + 2 * runner.topo().granularity;
    let ctx = format!("{name}: 1x64x48 in 16-px cores");
    hashes[3] = stitched(&runner, Shape4::new(1, 1, 64, 48), &ctx);
    wide_margins_are_trimmed(model, wide, 16, name);
    hashes
}

/// The tile classes a 3 × 3 grid does not have, on the benchmark's
/// models as it runs them, float and 8-bit: cores closer to the frame
/// than the halo is wide (8-pixel cores, halo 12 or 16), odd grids with
/// partial edge tiles (200 × 208 in 48-pixel cores), batches, and a core
/// entering with a margin wider than the halo (trimmed where nothing
/// reads it).
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
        let mut q = quantized(&mut model);
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

/// An empty batch and a batch of three, cut into a grid, stitch the
/// whole-image pass in shape and bits, float and 8-bit: the frame takes
/// its channel count from the tiles, and an empty batch, which has no
/// tiles, runs whole.
#[test]
fn empty_and_three_item_batches_tile_as_whole() {
    let mut models = suite_models();
    models.retain(|(name, _)| matches!(name.as_str(), "zoo/dn_ernet" | "zoo/sr4_ernet"));
    assert_eq!(models.len(), 2);
    for (name, mut model) in models {
        let mut q = quantized(&mut model);
        for n in [0, 3] {
            let shape = Shape4::new(n, 1, 24, 16);
            let runner = BatchRunner::new(&mut model).with_tile(TileConfig::with_tile(8));
            stitched(&runner, shape, &format!("{name} f32, n = {n}"));
            let runner = BatchRunner::new(&mut q).with_tile(TileConfig::with_tile(8));
            stitched(&runner, shape, &format!("{name} q8, n = {n}"));
        }
    }
}

/// `(model, output hashes of the four frames)`.
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

/// A bicubic skip at a factor whose sample positions are not exact in
/// `f32` (×3, ×5): a tile places its skip's samples by the frame's
/// geometry, so tiled ≡ whole holds there too, float and 8-bit.
#[test]
fn odd_factor_bicubic_skips_tile_bit_for_bit() {
    for factor in [3, 5] {
        let mut conv = Conv2d::new(1, factor * factor, 3, 81);
        conv.set_backend(ConvBackend::Im2col);
        let body = Sequential::new()
            .with(Box::new(conv))
            .with(Box::new(PixelShuffle::new(factor)));
        let mut model = Sequential::new().with(Box::new(UpsampleResidual::new(body, factor)));
        let ctx = format!("x{factor} bicubic skip");
        stitched_3x3(BatchRunner::new(&mut model), &ctx);
        let mut q = quantized(&mut model);
        stitched_3x3(BatchRunner::new(&mut q), &format!("{ctx}, 8-bit"));
    }
}

// --- Below: what only exists since tiles shrink (`program::margins`). ---

/// A radius off the model's granularity is rounded up to it, so that
/// every tile's window starts on the unshuffle's grid: conv3 → unshuffle
/// ×2 → conv3 → shuffle ×2 reads 3 pixels and stitches exactly at a
/// halo of 4.
#[test]
fn an_unaligned_halo_is_rounded_up_to_the_granularity() {
    let (mut chain, _) = random_chain(&[0, 3, 0, 2], 3);
    let topo = model_topology(&chain);
    assert_eq!((topo.radius, topo.granularity), (3, 2));
    let runner = BatchRunner::new(&mut chain).with_tile(TileConfig::with_tile(8));
    assert_eq!(runner.halo(), 4);
    stitched(
        &runner,
        Shape4::new(1, 4, 24, 32),
        "conv3 → unshuffle → conv3 → shuffle",
    );
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

    /// Over random chains: the radius is what the chain reads around a
    /// core, after every step every side of a tile still has the margin
    /// the rest of the chain reads — or all the frame gave it, where the
    /// frame clipped it — and at the default halo tiles stitch the whole
    /// image bit for bit.
    #[test]
    fn random_chains_keep_the_margin_the_rest_of_the_chain_reads(
        ops in proptest::collection::vec(0usize..6, 7),
        seed in 0u64..1_000,
    ) {
        use ringcnn_nn::program::{compile, margins, reads};
        let (mut chain, leaves) = random_chain(&ops, seed);
        // What the chain reads around a core, exactly: backwards from
        // the output, a shuffle's pixels come from ⌈n/r⌉ of its input's.
        let need = leaves.iter().rev().fold(0usize, |n, &(radius, (num, den), _)| {
            (n * den).div_ceil(num) + radius
        });
        let topo = model_topology(&chain);
        prop_assert_eq!(topo.radius, need, "{:?}", ops);
        let g = topo.granularity;
        let halo = need.next_multiple_of(g);

        // The state alone, from an interior tile, a corner tile and one
        // the frame clipped to less than the halo on two sides.
        let program = compile(&chain);
        let clipped = (halo / 2).next_multiple_of(g).min(halo.saturating_sub(g));
        for entry in [[halo; 4], [0, 0, halo, halo], [clipped, halo, halo, clipped]] {
            // A side the frame clipped keeps all it has, rescaled.
            let (margins, mut all) = (margins(&program, entry), entry);
            prop_assert_eq!(margins.len(), program.len() + 1);
            for (i, step) in program.iter().enumerate() {
                let rest = reads(&program[i + 1..], 0);
                let (_, (num, den)) = step.op.geometry();
                all = all.map(|m| m * num / den);
                for side in 0..4 {
                    let m = margins[i + 1][side];
                    prop_assert!(
                        m >= rest || (entry[side] < halo && m == all[side]),
                        "side {} of {:?} after step {} of {:?}: margin {} below {}",
                        side, entry, i, ops, m, rest
                    );
                    prop_assert!(m <= all[side], "a margin grew: {:?}", ops);
                }
            }
        }

        // The chain itself, tiled.
        let x = Tensor::random_uniform(Shape4::new(1, 4, 24, 32), -1.0, 1.0, seed ^ 0x51);
        let runner = BatchRunner::new(&mut chain).with_tile(TileConfig::with_tile(8));
        prop_assert_eq!(runner.halo(), halo);
        let (whole, tiled) = (runner.run_whole(&x), runner.run(&x));
        prop_assert!(bits(&whole) == bits(&tiled), "{:?}, halo {}", ops, halo);
    }
}

/// conv5 → unshuffle ×2 → shuffle ×2 → conv3 → unshuffle ×2 → shuffle ×2
/// → conv3 reads 6 pixels around a core (two resolution round trips
/// each round the reach up to the coarse grid), where a sum of kernel
/// radii reads 4: at the default halo it stitches bit for bit on the
/// naive and engine kernels, and as an 8-bit model.
#[test]
fn a_chain_with_two_resolution_round_trips_stitches_at_the_default_halo() {
    let shape = Shape4::new(1, 4, 24, 32);
    let (mut chain, _) = random_chain(&[1, 3, 2, 0, 3, 2, 0], 17);
    for backend in [ConvBackend::Naive, ConvBackend::Im2col] {
        chain.set_conv_backend(backend);
        let runner = BatchRunner::new(&mut chain).with_tile(TileConfig::with_tile(8));
        assert_eq!(runner.halo(), 6);
        stitched(&runner, shape, &format!("round trips on {backend}"));
    }
    let calibration = Tensor::random_uniform(Shape4::new(1, 4, 16, 16), -1.0, 1.0, 18);
    let mut q = QuantizedModel::quantize(&mut chain, &calibration, QuantOptions::default());
    let runner = BatchRunner::new(&mut q).with_tile(TileConfig::with_tile(8));
    assert_eq!(runner.halo(), 6);
    stitched(&runner, shape, "round trips, 8-bit");
}

// ---------------------------------------------------------------------
// Line-buffered frames: `BatchRunner::run` streams one full-width row
// section per pool thread through the model in bands (`program::stream`).
// ---------------------------------------------------------------------

/// Runs `check` at each pool size of `pools`: the test `name` again in a
/// child process per size, with `RINGCNN_THREADS` set. A process whose
/// pool is already pinned (a child, or a CI leg) runs `check` itself.
fn at_pool_sizes(name: &str, pools: [usize; 2], check: impl Fn()) {
    if std::env::var_os("RINGCNN_THREADS").is_some() {
        return check();
    }
    in_children(name, pools);
}

/// Runs the test `name` alone (`--exact`, one test thread) in a child
/// process per pool size of `pools`, with `RINGCNN_THREADS` set.
fn in_children(name: &str, pools: [usize; 2]) {
    let exe = std::env::current_exe().expect("the test binary");
    for threads in pools {
        let child = std::process::Command::new(&exe)
            .args([name, "--exact", "--test-threads", "1"])
            .env("RINGCNN_THREADS", threads.to_string())
            .output()
            .expect("the test binary runs");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success() && stdout.contains("1 passed"),
            "{name} at {threads} threads:\n{stdout}{}",
            String::from_utf8_lossy(&child.stderr)
        );
    }
}

/// The upsampling models: the SR4ERNets of the suite — the walk zoo's
/// two and the HD30 one over every algebra —, a ×2 and a ×3 stage with a
/// conv behind each, and a ×2 → conv → ×3 chain, all on the engine
/// kernel, which fuses every conv → shuffle pair.
fn upsampling_models() -> Vec<(String, Sequential)> {
    let mut models = suite_models();
    models.retain(|(name, _)| name.contains("sr4"));
    let conv = |ci, co, seed| Box::new(Conv2d::new(ci, co, 3, seed)) as Box<dyn Layer>;
    let stage = |model: Sequential, r, seed| {
        model
            .with(conv(8, 8 * r * r, seed))
            .with(Box::new(PixelShuffle::new(r)))
            .with(Box::new(Relu::new()))
    };
    for r in [2, 3] {
        let model = stage(Sequential::new().with(conv(1, 8, 1)), r, 2).with(conv(8, 1, 3));
        models.push((format!("x{r} stage"), model));
    }
    let chain = stage(Sequential::new().with(conv(1, 8, 4)), 2, 5).with(conv(8, 8, 6));
    let chain = stage(chain, 3, 7).with(conv(8, 1, 8));
    models.push(("x2 x3 stages".into(), chain));
    for (_, model) in &mut models {
        model.set_conv_backend(ConvBackend::Im2col);
    }
    models
}

/// Sixteen random chains (seven ops each, drawn by a fixed LCG) over
/// four input channels.
fn seeded_chains() -> Vec<(String, Sequential)> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    (0..16)
        .map(|seed| {
            let ops: Vec<usize> = (0..7)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    (state >> 33) as usize % 6
                })
                .collect();
            (format!("chain {ops:?}"), random_chain(&ops, seed).0)
        })
        .collect()
}

/// The frames a model of granularity `g` streams in the stream suite,
/// `(batch, h, w)`: 11 granules (a multiple of neither the band, 4 rows
/// and 7 granules wide at these widths, nor of 2–4 sections), a batch
/// of three 5 granules high (shorter than one band: 6 rows, or 11
/// granules), an empty batch, and one granule (at 1 row a whole image).
fn stream_frames(g: usize) -> [(usize, usize, usize); 4] {
    [(1, 11 * g, 40), (3, 5 * g, 24), (0, 5 * g, 24), (1, g, 40)]
}

/// `runner.run` ≡ `runner.run_whole` bit for bit on every frame of
/// [`stream_frames`], with `channels` input channels.
fn streams_whole(runner: BatchRunner<'_>, channels: usize, ctx: &str) {
    let runner = runner.with_tile(TileConfig::with_tile(8));
    for (n, h, w) in stream_frames(runner.topo().granularity) {
        let x = Tensor::random_uniform(Shape4::new(n, channels, h, w), -1.0, 1.0, 93);
        let ctx = format!("{ctx}: {n}x{h}x{w}");
        assert_equivalent(&runner.run_whole(&x), &runner.run(&x), &ctx);
    }
}

/// `BatchRunner::run` streams one row section per pool thread and is
/// bit-identical to the whole-image forward at pool sizes 1 and 4: the
/// suite's models on every backend and 8-bit, the upsampling models and
/// random chains, over frames of one granule, frames shorter than one
/// band, heights that are a multiple of neither the band nor the section
/// count, and batches of 0 and 3.
#[test]
fn frames_stream_bit_for_bit_at_pool_sizes_1_and_4() {
    let name = "frames_stream_bit_for_bit_at_pool_sizes_1_and_4";
    at_pool_sizes(name, [1, 4], || {
        for (name, mut model) in suite_models() {
            // The HD30 models run on the engine kernel only: the zoo
            // covers the others, and every model the 3 × 3 grids above.
            let backends = match name.starts_with("zoo") {
                true => ConvBackend::all().to_vec(),
                false => vec![ConvBackend::Im2col],
            };
            for backend in backends {
                model.set_conv_backend(backend);
                streams_whole(
                    BatchRunner::new(&mut model),
                    1,
                    &format!("{name} on {backend}"),
                );
            }
            let mut q = quantized(&mut model);
            streams_whole(BatchRunner::new(&mut q), 1, &format!("{name}, 8-bit"));
        }
        for (name, mut model) in upsampling_models()
            .into_iter()
            .filter(|(n, _)| n.starts_with('x'))
        {
            streams_whole(BatchRunner::new(&mut model), 1, &name);
        }
        for (name, mut chain) in seeded_chains() {
            streams_whole(BatchRunner::new(&mut chain), 4, &name);
        }
    });
}

/// The work of a frame's sections follows the edge rule: through
/// `BatchRunner::run` one frame runs as many GEMM tiles at pool 1 as the
/// whole-image forward, and at pool 2 each section computes, beyond its
/// core, only the rows the rest of the program reads at its interior
/// edge — the 256² DnERNet over (RH4, fcw) and the 64 → 256 SR4ERNet over
/// (RI4, fH), in the benchmark's grids. The GEMM counters are the
/// process's, so each pool size runs alone in a child.
#[test]
fn sections_compute_what_the_rest_of_the_program_reads() {
    let name = "sections_compute_what_the_rest_of_the_program_reads";
    if !std::env::args().any(|arg| arg == "--exact") {
        return in_children(name, [1, 2]);
    }
    let tiles = |f: &dyn Fn() -> Tensor| {
        let before = ringcnn_tensor::gemm::profile::snapshot();
        f();
        let after = ringcnn_tensor::gemm::profile::snapshot();
        after.delta_since(&before).tiles
    };
    let dn = Scenario::Denoise { sigma: 25.0 };
    let (rh4, ri4) = (Algebra::with_fcw(RingKind::Rh(4)), Algebra::ri_fh(4));
    // `(model, frame side, core, GEMM tiles at pools 1 to 4)`: whole at
    // pool 1, and each seam past it 2 560 and 2 368 tiles (every kernel
    // tier).
    let frames = [
        (
            build_model(dn, ThroughputTarget::Hd30, &rh4, 7),
            256,
            64,
            [45_056, 47_616, 50_176, 52_736],
        ),
        (
            build_model(Scenario::Sr4, ThroughputTarget::Hd30, &ri4, 7),
            64,
            32,
            [35_840, 38_208, 40_576, 42_944],
        ),
    ];
    for (mut model, hw, core, want) in frames {
        let runner = BatchRunner::new(&mut model).with_tile(TileConfig::with_tile(core));
        let x = Tensor::random_uniform(Shape4::new(1, 1, hw, hw), 0.0, 1.0, 97);
        let (whole, frame) = (tiles(&|| runner.run_whole(&x)), tiles(&|| runner.run(&x)));
        let pool = ringcnn_nn::runtime::num_threads();
        assert_eq!(whole, want[0], "{hw}x{hw}: whole image");
        if let Some(want) = want.get(pool - 1) {
            assert_eq!(frame, *want, "{hw}x{hw} at pool {pool}");
        }
    }
}

/// The driver itself, on one thread: `program::stream` of the frame cut
/// into one to three row sections and one or three column windows, each
/// grown by a halo of the model's radius where it is interior, in bands
/// of 1 to 9 granules, emits exactly the pixels of the whole-image
/// forward, bit for bit, float and 8-bit — the upsampling models (a
/// bicubic skip whose samples read source rows the next band brings),
/// ×3 and ×5 bicubic skips around a one-row body, and random chains.
#[test]
fn any_band_and_any_section_stream_the_whole_image() {
    use ringcnn_nn::program::{compile, Datapath, Step};
    use std::borrow::Cow;
    let mut models = upsampling_models();
    models.retain(|(name, _)| !name.starts_with("hd30"));
    for factor in [3, 5] {
        let mut conv = Conv2d::new(1, factor * factor, 3, 81);
        conv.set_backend(ConvBackend::Im2col);
        let body = Sequential::new()
            .with(Box::new(conv))
            .with(Box::new(PixelShuffle::new(factor)));
        let skip = Sequential::new().with(Box::new(UpsampleResidual::new(body, factor)));
        models.push((format!("x{factor} bicubic skip"), skip));
    }
    models.extend(seeded_chains().into_iter().take(6));
    for (name, mut model) in models {
        let topo = model_topology(&model);
        let g = topo.granularity;
        let channels = if name.starts_with("chain") { 4 } else { 1 };
        let x = Tensor::random_uniform(Shape4::new(1, channels, 9 * g, 40), -1.0, 1.0, 95);
        let whole = model.forward_infer(&x);
        windows_stream(&compile(&model), &x, (Cow::Owned, |y| y), &whole, &name);
        let calibration = Tensor::random_uniform(Shape4::new(1, channels, 16, 16), -1.0, 1.0, 96);
        let q = QuantizedModel::quantize(&mut model, &calibration, QuantOptions::default());
        let quantize = |t: Tensor| {
            let formats = vec![q.input_format(); t.shape().c];
            Cow::Owned(QTensorOf::<i8>::quantize(&t, formats))
        };
        let dequantize = |y: QTensorOf<i8>| y.dequantize();
        let ctx = format!("{name}, 8-bit");
        windows_stream(
            &q.program(),
            &x,
            (quantize, dequantize),
            &q.forward(&x),
            &ctx,
        );
    }

    /// Streams `program` over `x` cut into every window layout at every
    /// band — `planes` turns input rows into its planes and its planes
    /// into outputs — and holds the stitched cores to `whole` bit for
    /// bit.
    fn windows_stream<'x, L: Datapath>(
        program: &[Step<L>],
        x: &Tensor,
        planes: (
            impl Fn(Tensor) -> Cow<'x, L::Plane>,
            impl Fn(L::Plane) -> Tensor,
        ),
        whole: &Tensor,
        name: &str,
    ) where
        L::Plane: 'x,
    {
        use ringcnn_nn::program::{margins, reads, stream};
        let topo = ringcnn_nn::runtime::ModelTopo::of(program);
        let (g, (num, den)) = (topo.granularity, topo.scale);
        let halo = reads(program, 0).next_multiple_of(g);
        let Shape4 { h, w, .. } = x.shape();
        // Cut `len` pixels into `n` sections of whole granules: the
        // section, and the window a halo around it that the frame clips.
        let section = |i: usize, n: usize, len: usize| {
            let at = |i: usize| i * (len / g) / n * g;
            let window = at(i).saturating_sub(halo)..(at(i + 1) + halo).min(len);
            (at(i)..at(i + 1), window)
        };
        for band in (1..=9).map(|b| b * g) {
            for (sections, cols) in [(1, 1), (2, 1), (3, 1), (1, 3), (2, 3)] {
                let mut out = Tensor::zeros(whole.shape());
                for (i, j) in (0..sections).flat_map(|i| (0..cols).map(move |j| (i, j))) {
                    let ((core, rows), (core_cols, cols)) =
                        (section(i, sections, h), section(j, cols, w));
                    let window = Window::new(
                        rows.start as isize,
                        cols.start as isize,
                        rows.len(),
                        cols.len(),
                    );
                    let margin = [
                        core.start - rows.start,
                        core_cols.start - cols.start,
                        rows.end - core.end,
                        cols.end - core_cols.end,
                    ];
                    let read = |r: std::ops::Range<usize>| {
                        let at =
                            Window::new(r.start as isize, cols.start as isize, r.len(), cols.len());
                        (planes.0)(x.extract_window(0, at))
                    };
                    // The output's first column: the core's, less what the
                    // output keeps of its left margin.
                    let kept = margins(program, margin)[program.len()][1];
                    let left = core_cols.start * num / den - kept;
                    let (core, core_cols) = (
                        core.start * num / den..core.end * num / den,
                        core_cols.start * num / den..core_cols.end * num / den,
                    );
                    stream(program, (window, margin), band, read, |y, first| {
                        let y = (planes.1)(y);
                        let (lo, hi) = (first.max(core.start), (first + y.shape().h).min(core.end));
                        if lo < hi {
                            let at = (core_cols.start - left) as isize;
                            let src =
                                Window::new((lo - first) as isize, at, hi - lo, core_cols.len());
                            out.paste_window(0, lo, core_cols.start, &y, src);
                        }
                    });
                }
                let ctx = format!("{name}: bands of {band} rows, {sections}x{cols} windows");
                assert_equivalent(whole, &out, &ctx);
            }
        }
    }
}

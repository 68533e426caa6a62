//! The memory model of the streaming conv engine, asserted with a
//! counting global allocator (this binary only, so no other suite pays
//! for it): a prepared convolution allocates about its output and
//! nothing else of that order — no patch matrix (`k²` times the input),
//! no per-task output copies — and what its threads keep afterwards is
//! a `rows × NC_COLS` slab each, independent of the tile area.
//!
//! One `#[test]` on purpose: the counters are process-wide, and libtest
//! would run a second test concurrently.

use ringcnn::prelude::*;
use ringcnn::quant::quantized::execute_layer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes allocated since the last reset, the largest single block among
/// them, the bytes currently live and the most that were live at once
/// since the last reset; and how many blocks of at least `PLANE_ORDER`
/// bytes were allocated since that threshold was last set.
static TOTAL: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static PLANE_ORDER: AtomicUsize = AtomicUsize::new(usize::MAX);
static PLANE_ORDER_BLOCKS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters on the side never
// touch the memory handed out. (`realloc` and `alloc_zeroed` keep their
// default bodies, which go through `alloc`/`dealloc` below.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ordering: statistics only; the test reads them after the pool
        // has joined the work they count.
        TOTAL.fetch_add(layout.size(), Ordering::Relaxed);
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        if layout.size() >= PLANE_ORDER.load(Ordering::Relaxed) {
            PLANE_ORDER_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // ordering: statistics only, as above.
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

struct Spent {
    total: usize,
    largest: usize,
    /// The most the live heap grew during the call, its result included.
    peak: usize,
    /// Live-heap growth across the call, its result already dropped.
    retained: isize,
}

/// Runs `f`, drops its result, and reports what the process allocated
/// meanwhile.
fn spent<R>(f: impl FnOnce() -> R) -> Spent {
    // ordering: single-threaded bookkeeping between parallel sections.
    let live = LIVE.load(Ordering::Relaxed);
    TOTAL.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    drop(f());
    Spent {
        // ordering: as above; `f`'s pool work has been joined.
        total: TOTAL.load(Ordering::Relaxed),
        largest: LARGEST.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed) - live,
        retained: LIVE.load(Ordering::Relaxed) as isize - live as isize,
    }
}

const CHANNELS: usize = 16;
const KIB: usize = 1024;

fn tile(hw: usize) -> Tensor {
    Tensor::random_uniform(Shape4::new(1, CHANNELS, hw, hw), -1.0, 1.0, 11)
}

/// The three properties, for one kind of prepared conv: `forward`
/// consumes what `input` builds for a `hw × hw` tile (built outside the
/// measurement) and drops the output; `elem` is the output element size.
fn check<I>(what: &str, elem: usize, input: impl Fn(usize) -> I, forward: impl Fn(I)) {
    let run = |hw: usize| {
        // ordering: single-threaded bookkeeping, as in `spent`.
        let before = LIVE.load(Ordering::Relaxed);
        let x = input(hw);
        let held = LIVE.load(Ordering::Relaxed) - before;
        let mut s = spent(|| forward(x));
        // `forward` dropped the input as well; that is not its doing.
        s.retained += held as isize;
        s
    };
    // (c) First, from whatever state the threads are in: a 176×176
    // forward leaves next to nothing behind (a whole-plane f32 patch
    // matrix of this conv would be 17 MiB per worker).
    let big = run(176);
    assert!(
        big.retained < (KIB * KIB) as isize,
        "{what}: a 176x176 forward retained {} KiB",
        big.retained / KIB as isize
    );
    // The slabs now exist, so a 96×96 forward is the steady state.
    let out_bytes = CHANNELS * 96 * 96 * elem;
    let warm = run(96);
    // (a) No block larger than the output tensor…
    assert!(
        warm.largest <= out_bytes,
        "{what}: a block of {} KiB against an output of {} KiB",
        warm.largest / KIB,
        out_bytes / KIB
    );
    // (b) …and little besides it in total (a patch matrix is 9× the
    // input; per-task outputs glued into planes and copied into the
    // tensor are three copies of the output).
    assert!(
        warm.total <= out_bytes + out_bytes / 4 + 64 * KIB,
        "{what}: allocated {} KiB for an output of {} KiB",
        warm.total / KIB,
        out_bytes / KIB
    );
}

#[test]
fn prepared_convs_allocate_their_output_and_retain_no_plane_sized_scratch() {
    let mut conv = Conv2d::new(CHANNELS, CHANNELS, 3, 1);
    conv.set_backend(ConvBackend::Im2col);
    conv.prepare_inference();
    check("Conv2d", 4, tile, |x| drop(conv.forward_infer(&x)));

    let ring = Ring::from_kind(RingKind::Ri(4));
    let mut rconv = RingConv2d::new(ring, CHANNELS, CHANNELS, 3, 2);
    rconv.set_backend(ConvBackend::Im2col);
    rconv.prepare_inference();
    check("RingConv2d(RI4)", 4, tile, |x| {
        drop(rconv.forward_infer(&x))
    });

    // "Unprepared" is not a state: a conv nobody prepared plans its
    // weights on the first forward and never again, so its second
    // forward allocates what a prepared one's does (at the parent it
    // re-packed the weights on every call).
    let mut lazy_conv = Conv2d::new(CHANNELS, CHANNELS, 3, 1);
    lazy_conv.set_backend(ConvBackend::Im2col);
    let ring = Ring::from_kind(RingKind::Ri(4));
    let mut lazy_rconv = RingConv2d::new(ring, CHANNELS, CHANNELS, 3, 2);
    lazy_rconv.set_backend(ConvBackend::Im2col);
    let x = tile(96);
    let pairs: [(&str, &dyn Layer, &dyn Layer); 2] = [
        ("Conv2d", &lazy_conv, &conv),
        ("RingConv2d(RI4)", &lazy_rconv, &rconv),
    ];
    // The cheapest of a few calls: a pool thread that takes its first
    // chunk allocates its slab once, a per-call re-plan shows every time.
    let cheapest = |layer: &dyn Layer| {
        (0..4)
            .map(|_| spent(|| layer.forward_infer(&x)).total)
            .min()
            .expect("four calls")
    };
    for (what, lazy, prepared) in pairs {
        let first = spent(|| lazy.forward_infer(&x)).total;
        let (later, warm) = (cheapest(lazy), cheapest(prepared));
        assert!(
            later <= warm,
            "{what}: after its first forward ({first} B) a never-prepared layer \
             still allocates {later} B a call, a prepared one {warm} B"
        );
    }

    // A one-conv integer pipeline; `quantize` hands it back prepared.
    let mut float = Sequential::new().with(Box::new(Conv2d::new(CHANNELS, CHANNELS, 3, 3)));
    let qm = QuantizedModel::quantize(&mut float, &tile(24), QuantOptions::default());
    let [qconv @ QLayer::Conv(_)] = qm.layers() else {
        panic!("one conv in, one QConv out");
    };
    let quantized = |hw| QTensor::quantize(&tile(hw), vec![qm.input_format(); CHANNELS]);
    check("QConv", 8, quantized, |q| drop(execute_layer(qconv, q)));

    whole_models_stop_copying_what_they_own();
    tiles_consume_their_halo();
}

/// Inside a tile every convolution writes only what the rest of the
/// chain reads: the tensors shrink layer by layer, where a plain forward
/// of the same pixels carries the halo to the end; called from the one
/// `#[test]` (see the module docs).
fn tiles_consume_their_halo() {
    use ringcnn_nn::runtime::{InferenceModel, TileHalo};
    fn cheapest(model: &dyn InferenceModel, x: &Tensor, tile: TileHalo) -> Spent {
        (0..4)
            .map(|_| spent(|| model.forward_tile(x, &mut tile.clone())))
            .min_by_key(|s| s.total)
            .expect("four calls")
    }

    // The benchmark's `frame_sr4_ri4fh` tile as `BatchRunner::run` cuts
    // it: a corner tile, 32 pixels of core and 12 of halo on two sides.
    // Its stages end at 33² → 66², 65² → 130² and 129² where they ended
    // at 44² → 88² → 176²: the one 16 × 130² tensor of the last stage
    // (1 081 600 B) beside its 0.28 MB input. Measured with this code at
    // the parent commit, the plain forward of the same tile (all there
    // was): 2 559 144 B live at once, the largest block 1 982 464 B
    // (1 416 032 B and 1 081 600 B when written).
    let mut sr4 = build_model(Scenario::Sr4, ThroughputTarget::Hd30, &Algebra::ri_fh(4), 7);
    Layer::prepare_inference(&mut sr4);
    let x = Tensor::random_uniform(Shape4::new(1, 1, 44, 44), 0.0, 1.0, 8);
    let corner = cheapest(&sr4, &x, TileHalo::new([0, 0, 12, 12], 12));
    assert!(
        corner.peak <= 1_500_000 && corner.largest <= 1_100_000,
        "one SR4 corner tile held {} B live at once, its largest block {} B",
        corner.peak,
        corner.largest
    );

    // The two denoising workloads' interior tiles, 64 pixels of core and
    // 16 of halo all round: float over (RH4, fcw) and 8-bit over (RI4,
    // fH) allocate at most three quarters of their plain forwards
    // (1 730 528 of 2 467 808 B and 373 256 of 531 112 B when written).
    let scenario = Scenario::Denoise { sigma: 25.0 };
    let rh4 = Algebra::with_fcw(RingKind::Rh(4));
    let mut dn = build_model(scenario, ThroughputTarget::Hd30, &rh4, 7);
    Layer::prepare_inference(&mut dn);
    let mut float = build_model(scenario, ThroughputTarget::Hd30, &Algebra::ri_fh(4), 7);
    let calibration = Tensor::random_uniform(Shape4::new(1, 1, 32, 32), 0.0, 1.0, 5);
    let q8 = QuantizedModel::quantize(&mut float, &calibration, QuantOptions::default());
    let x = Tensor::random_uniform(Shape4::new(1, 1, 96, 96), 0.0, 1.0, 9);
    let models: [(&str, &dyn InferenceModel); 2] = [("(RH4, fcw)", &dn), ("q8", &q8)];
    for (what, model) in models {
        let plain = cheapest(model, &x, TileHalo::whole()).total;
        let tile = cheapest(model, &x, TileHalo::new([16; 4], 16)).total;
        assert!(
            tile * 4 <= plain * 3,
            "{what}: an interior 96x96 tile allocated {tile} B, more than three quarters \
             of the {plain} B of its plain forward"
        );
    }
}

/// The element-wise stages run in place and the chains stop copying
/// what they own; called from the one `#[test]` (see the module docs).
fn whole_models_stop_copying_what_they_own() {
    // The benchmark's 8-bit workload: the HD30 DnERNet over (RI4, fH).
    // Before the stages went plane-wise one forward of a 96×96 tile
    // allocated PARENT_Q8_TILE_BYTES, measured with this code at the
    // parent commit (every directional ReLU, ReLU and residual add built
    // a fresh tensor and every residual body a copy of its input); it
    // must stay under two thirds of that (3 353 768 B when written).
    const PARENT_Q8_TILE_BYTES: usize = 7_335_568;
    let scenario = Scenario::Denoise { sigma: 25.0 };
    let mut float = build_model(scenario, ThroughputTarget::Hd30, &Algebra::ri_fh(4), 7);
    let calibration = Tensor::random_uniform(Shape4::new(1, 1, 32, 32), 0.0, 1.0, 5);
    let qm = QuantizedModel::quantize(&mut float, &calibration, QuantOptions::default());
    let x = Tensor::random_uniform(Shape4::new(1, 1, 96, 96), 0.0, 1.0, 6);
    let q8_tile = (0..3)
        .map(|_| spent(|| qm.forward(&x)).total)
        .min()
        .expect("three calls");
    assert!(
        q8_tile * 3 <= PARENT_Q8_TILE_BYTES * 2,
        "one q8 forward of a 96x96 tile allocated {q8_tile} B, more than two thirds \
         of the {PARENT_Q8_TILE_BYTES} B it took per-pixel"
    );

    // The same forward since the integer chain runs in the lanes the
    // load-time proof picks — `i32` for this model, half the bytes per
    // feature. Measured with this code at the parent commit (`i64`
    // lanes): PARENT_I64_TILE_BYTES allocated, 1 261 736 B live at once,
    // the largest block the 589 824 B of the 32 accumulator planes a
    // directional ReLU reads.
    const PARENT_I64_TILE_BYTES: usize = 3_360_008;
    assert_eq!(qm.lanes(), Lanes::I32);
    let cheapest = (0..3)
        .map(|_| spent(|| qm.forward(&x)))
        .min_by_key(|s| s.total)
        .expect("three calls");
    assert!(
        cheapest.total * 100 <= PARENT_I64_TILE_BYTES * 55,
        "one q8 forward of a 96x96 tile allocated {} B, more than 55 % of the \
         {PARENT_I64_TILE_BYTES} B it took in i64 lanes",
        cheapest.total
    );
    // And since it stores 8 bits: every tensor between two steps is an
    // `i8` plane set, and `conv → fH` is one engine step, so the
    // accumulator planes are never allocated — the largest block is 32
    // planes of 48² *bytes*. Measured with this code at the parent commit
    // (`i32` planes, the accumulators written and re-read):
    // PARENT_I32_STORE_TILE_BYTES allocated, 634 920 B live at once, the
    // largest block 294 912 B (531 112 B, 165 032 B and 73 728 B when
    // written).
    const PARENT_I32_STORE_TILE_BYTES: usize = 1_736_680;
    assert_eq!(qm.lane_proof().map(|p| p.storage()), Some(Storage::I8));
    assert!(
        cheapest.total * 100 <= PARENT_I32_STORE_TILE_BYTES * 35,
        "one q8 forward of a 96x96 tile allocated {} B, more than 35 % of the \
         {PARENT_I32_STORE_TILE_BYTES} B it took on i32 planes",
        cheapest.total
    );
    assert!(
        cheapest.peak <= 200_000 && cheapest.largest <= 32 * 48 * 48,
        "one q8 forward of a 96x96 tile held {} B live at once, its largest block {} B",
        cheapest.peak,
        cheapest.largest
    );

    // Calibration owns its activations too: the chain reads the
    // caller's frame (and every skip's tensor) in place, and `Relu` and
    // the directional ReLU work on the tensor the walk gives up.
    // Measured with this code at the parent commit, one 256×256 frame
    // (the benchmark's set-up) allocated PARENT_CALIBRATION_BYTES and
    // held 5 699 992 B live at once (12 759 083 B and 4 476 800 B when
    // written).
    const PARENT_CALIBRATION_BYTES: usize = 23_757_808;
    // (The cheapest of three calls, like every figure here: a pool
    // thread's first slab would otherwise land inside the measured call.)
    let frame = Tensor::random_uniform(Shape4::new(1, 1, 256, 256), 0.0, 1.0, 4);
    let calibrated = (0..3)
        .map(|_| spent(|| QuantizedModel::quantize(&mut float, &frame, QuantOptions::default())))
        .min_by_key(|s| s.peak)
        .expect("three calls");
    assert!(
        calibrated.peak <= 4_600_000,
        "calibrating on a 256x256 frame held {} B live at once",
        calibrated.peak
    );
    assert!(
        calibrated.total * 10 <= PARENT_CALIBRATION_BYTES * 6,
        "calibrating on a 256x256 frame allocated {} B, more than 60 % of the \
         {PARENT_CALIBRATION_BYTES} B it took when every stage built a tensor",
        calibrated.total
    );

    // The float chain owns its activations. A chain of k `Relu` leaves
    // used to allocate k tensors (every leaf cloned its input); now the
    // first child copies the caller's tensor, which the chain may not
    // touch, and every later child works on that copy in place: exactly
    // one tensor, whatever k.
    let k = 3;
    let chain = (0..k).fold(Sequential::new(), |m, _| m.with(Box::new(Relu::new())));
    let x = tile(96);
    let one = x.as_slice().len() * 4;
    let total = spent(|| chain.forward_infer(&x)).total;
    assert!(
        (one..one + one / 2).contains(&total),
        "a chain of {k} leaves allocated {total} B, {:.2} tensors",
        total as f64 / one as f64
    );
    // And `conv → pixel_shuffle → fH` exactly one output: the engine
    // writes the conv's pixels where the shuffle would copy them, the
    // directional ReLU runs on that tensor in place. (The cheapest of a
    // few calls, as above: a pool thread's first chunk allocates its
    // slab.)
    let mut stage = Sequential::new()
        .with(Algebra::ri_fh(4).conv(CHANNELS, 4 * CHANNELS, 3, 5))
        .with(Box::new(PixelShuffle::new(2)))
        .with(Box::new(DirectionalReluLayer::fh(4)));
    stage.prepare_inference();
    let out_bytes = 4 * one;
    let total = (0..4)
        .map(|_| spent(|| stage.forward_infer(&x)).total)
        .min()
        .expect("four calls");
    assert!(
        (out_bytes..out_bytes + out_bytes / 8).contains(&total),
        "conv -> pixel_shuffle -> fH allocated {total} B for an output of {out_bytes} B"
    );

    // The benchmark's `frame_sr4_ri4fh` tile: the HD30 SR4ERNet over
    // (RI4, fH) with the bicubic skip on a 44×44 LR tile (32 + 2·12,
    // clipped at the frame's corner). Its last ×2 stage used to hold a
    // 1.98 MB conv output, its shuffled copy and the directional ReLU's
    // clone of that at once; now the 0.5 MB conv input and the one
    // 1.98 MB tensor the fused step writes and fH works on. Measured
    // with this code at the parent commit: 3 964 928 B live at once and
    // PARENT_SR4_TILE_BYTES allocated per forward (2 559 144 B and
    // 4 301 376 B when written).
    const PARENT_SR4_TILE_BYTES: usize = 10_087_864;
    let mut sr4 = build_model(Scenario::Sr4, ThroughputTarget::Hd30, &Algebra::ri_fh(4), 7);
    sr4.prepare_inference();
    let x = Tensor::random_uniform(Shape4::new(1, 1, 44, 44), 0.0, 1.0, 8);
    let cheapest = (0..4)
        .map(|_| spent(|| sr4.forward_infer(&x)))
        .min_by_key(|s| s.total)
        .expect("four calls");
    assert!(
        cheapest.peak <= 2_700_000,
        "one SR4 forward of a 44x44 tile held {} B live at once",
        cheapest.peak
    );
    assert!(
        cheapest.total * 10 <= PARENT_SR4_TILE_BYTES * 6,
        "one SR4 forward of a 44x44 tile allocated {} B, more than 60 % of the \
         {PARENT_SR4_TILE_BYTES} B it took when every stage built a tensor",
        cheapest.total
    );

    // The benchmark's `frame_dn_rh4` tile: every conv of the HD30
    // DnERNet over (RH4, fcw) is a ring conv on the transform engine,
    // which takes its scratch once a call — the output, one `x̃` and one
    // `z̃` component, 3 blocks of plane order where there were 1 + 2m =
    // 9 — and beside them only the two shuffles build a tensor (`Relu`
    // and the residual adds work in place): 26 blocks, 78 with this code
    // at the parent commit. A plane is one channel of the 48×48
    // features the 96×96 tile unshuffles to.
    let mut dn = build_model(
        scenario,
        ThroughputTarget::Hd30,
        &Algebra::with_fcw(RingKind::Rh(4)),
        7,
    );
    dn.prepare_inference();
    let (mut ring_convs, mut shuffles) = (0, 0);
    dn.for_each_layer_mut(&mut |l| {
        ring_convs += l.name().starts_with("rconv") as usize;
        shuffles += l.name().starts_with("pixel_") as usize;
    });
    assert_eq!((ring_convs, shuffles), (8, 2));
    let x = Tensor::random_uniform(Shape4::new(1, 1, 96, 96), 0.0, 1.0, 9);
    drop(dn.forward_infer(&x));
    // ordering: single-threaded bookkeeping, as in `spent`.
    PLANE_ORDER.store(48 * 48 * 4, Ordering::Relaxed);
    let blocks = (0..4)
        .map(|_| {
            PLANE_ORDER_BLOCKS.store(0, Ordering::Relaxed);
            drop(dn.forward_infer(&x));
            PLANE_ORDER_BLOCKS.load(Ordering::Relaxed)
        })
        .min()
        .expect("four calls");
    PLANE_ORDER.store(usize::MAX, Ordering::Relaxed);
    assert_eq!(
        blocks,
        3 * ring_convs + shuffles,
        "one (RH4, fcw) forward of a 96x96 tile allocated {blocks} blocks of plane order"
    );
}

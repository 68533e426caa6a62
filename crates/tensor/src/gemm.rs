//! The register-blocked GEMM driver behind the streaming convolution
//! engine, shared by the f32 (float inference) and the integer
//! (quantized inference, `i32` lanes) pipelines, and by the `i64`
//! product the benchmark probes time (`gemm_i64_packed`).
//!
//! Every precision lowers a convolution to `C = W · col`, where `col` is
//! the patch matrix (`rows = ci·k²` by `plane = H·W`) and `W` the
//! `co × rows` weight matrix. **One** blocked driver computes that
//! product for every element type with an MR×NR register tile; what
//! differs between `f32`, `i64` and `i32` (panel width, the *operand*
//! type its panels and weight packs hold — itself for `f32` and `i64`,
//! `i16` for `i32` —, AVX2 tile, exactness gate, slab slot, epilogue)
//! lives in the three impls of the crate-private `Element` trait. The
//! work splits into a plan and a call:
//!
//! * **The plan** ([`PackedWeights`]) is everything derived from `W`
//!   alone, built once where weights freeze (`prepare_inference`, model
//!   load): **MR = 4** output channels per block, blocks cut from a
//!   *similarity ordering* of the output channels (sorted by their
//!   non-zero-row bitmask), so channels with identical sparsity patterns
//!   share a block and the per-block non-zero row list stays tight: the
//!   expanded weights of a diagonal ring (`RI_n`) are 1/n dense with the
//!   same pattern repeating every n channels, and grouping those
//!   together preserves the reference loop's zero-row skip instead of
//!   unioning n unrelated patterns into a dense block. Consecutive
//!   blocks with one pattern form a *group*. Bias is a per-call
//!   argument (the integer bias depends on the run-time accumulator
//!   scale).
//! * **The call** never sees the whole of `col`: the plane is cut into
//!   column chunks of [`NC_COLS`], one parallel task each. A task gets
//!   just its chunk's micro-panels — `[panel][row][NR]` order, **NR**
//!   columns each (16 for f32 and i32, 8 for i64), the last panel
//!   zero-padded;
//!   packed into the thread's slab by the im2col chunk packer of
//!   [`crate::im2col`], which converts from the type the source planes
//!   are stored in as it copies, or lent from a B the caller packed
//!   (`gemm_*_packed`) — runs every pattern group over them while they
//!   are L2-resident (panels outermost, so the blocks of a group
//!   re-read L1-hot rows), applies the element epilogue and writes the
//!   finished lanes straight into its share of the caller's output
//!   planes — its columns, or where the pixel shuffle that follows the
//!   convolution would move them (`Sink`), narrowed where the planes are
//!   narrower than the lane. Given a **chunk epilogue**
//!   ([`ChunkEpilogue`]) the task instead stages its `co × NC_COLS`
//!   finished lanes behind the panels, hands the block to the epilogue
//!   once — it may mix rows: the integer pipeline's directional ReLU —
//!   and then writes whole rows. The only per-thread state is that
//!   slab, `rows × NC_COLS` operands (72 KiB for a 16-channel 3×3 f32
//!   conv) and the staged lanes, whatever the plane size. The per-element accumulation
//!   chain (bias first, then rows in increasing order) does not depend
//!   on plane geometry — tiled and whole-image runs of the *same* kernel
//!   agree bit for bit.
//!
//! Two kernel tiers are selected at run time behind
//! `is_x86_feature_detected!`: AVX2+FMA, and a portable scalar-blocked
//! tile (same tiling, no intrinsics). The `RINGCNN_KERNEL` environment
//! variable ([`KERNEL_ENV_VALUES`]) pins one; [`forced_kernel_scope`]
//! forces a tier for the current thread (tests compare tiers in-process
//! with it).
//!
//! # Exactness contract
//!
//! [`reference()`] is the matrix-level oracle: the plain row-axpy loop,
//! generic over the element type, called by tests only. The **i64**
//! tiers are **bit-identical** to it: integer addition is
//! order-independent, an AVX2 `_mm256_mul_epi32` product is exact
//! whenever both operands fit in `i32` (the weights are checked once in
//! the plan, the activations once per call on the *unpacked* input,
//! with the scalar-blocked tile as the fallback otherwise), and the
//! fused requantization epilogue applies the same
//! round-half-away-from-zero shift and saturation rails as the unfused
//! path. (A block's zero-weight lanes contribute exact `+0` terms, so
//! the channel grouping cannot change a result.) The **i32** tiers are
//! bit-identical to the `i64` ones *for a product whose every partial
//! sum fits the lane* — which is the caller's to prove, once, where the
//! weights freeze (`ringcnn-quant` bounds every accumulator of a model
//! at load time and loads no model whose accumulators outgrow the
//! modelled accelerator's, far inside the lane; a debug build panics on
//! the scalar tile's `+`/`*` if the proof were wrong). Its
//! AVX2 tile multiplies 16-bit operands pairwise with
//! `_mm256_madd_epi16`, whose 32-bit pair sum cannot overflow while
//! `|v| ≤ 32767` on both sides (the same two-part gate, scalar tile
//! otherwise — and no scan where the source planes are `i8`: the type
//! says it). The **f32** tiers are tolerance-equivalent only: FMA
//! contraction and the blocked summation change ULPs relative to the
//! reference row-axpy.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;
use rayon::prelude::*;
use std::cell::Cell;
use std::ops::{Add, AddAssign, Mul, Sub};
use std::sync::OnceLock;
use std::thread::LocalKey;

/// Output channels per register block.
pub const MR: usize = 4;
/// f32 micro-panel width (two 8-lane YMM vectors per tile row).
pub const NR_F32: usize = 16;
/// i64 micro-panel width (4 lanes per 256-bit vector, 2 vectors).
pub const NR_I64: usize = 8;
/// i32 micro-panel width (8 lanes per 256-bit vector, 2 vectors).
pub const NR_I32: usize = 16;
/// Column-chunk width (elements, a multiple of every NR): the unit of
/// parallel work, and the `rows × NC_COLS` slab of packed B one task
/// keeps L2-resident while every channel block streams over it.
pub const NC_COLS: usize = 128;

/// Which register tile executes the blocked product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable scalar-blocked tile (same tiling, no intrinsics).
    Scalar,
    /// AVX2 (+FMA for f32) tile.
    Avx2,
}

impl KernelBackend {
    /// Stable lower-case label (bench ids, logs, `RINGCNN_KERNEL`).
    pub fn label(&self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
        }
    }
}

fn detected() -> KernelBackend {
    static DETECTED: OnceLock<KernelBackend> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return KernelBackend::Avx2;
        }
        KernelBackend::Scalar
    })
}

/// Downgrades a requested tier to what the host actually supports.
fn available(k: KernelBackend) -> KernelBackend {
    if detected() == KernelBackend::Avx2 {
        k
    } else {
        KernelBackend::Scalar
    }
}

fn env_choice() -> Option<KernelBackend> {
    static CHOICE: OnceLock<Option<KernelBackend>> = OnceLock::new();
    // Lenient by design at dispatch time (a library deep in a GEMM
    // call has no good way to refuse); front ends that can exit —
    // the serve bin — validate up front with [`validate_env_kernel`].
    *CHOICE.get_or_init(|| validate_env_kernel().unwrap_or(None))
}

/// Every value `RINGCNN_KERNEL` accepts (an empty value reads as
/// `auto`). The docs' environment table is held to this list by
/// `tests/docs.rs`.
pub const KERNEL_ENV_VALUES: [&str; 3] = ["auto", "scalar", "avx2"];

/// Decides a `RINGCNN_KERNEL` request against the tier the host
/// `detected` — pure, so both refusals are unit-tested on any host.
fn parse_kernel_request(
    value: &str,
    detected: KernelBackend,
) -> Result<Option<KernelBackend>, String> {
    match value {
        "" | "auto" => Ok(None),
        "scalar" => Ok(Some(KernelBackend::Scalar)),
        "avx2" if detected == KernelBackend::Avx2 => Ok(Some(KernelBackend::Avx2)),
        "avx2" => Err("RINGCNN_KERNEL=avx2 needs the avx2 and fma CPU features, \
                       which this host does not both have"
            .to_string()),
        other => Err(format!(
            "unrecognized RINGCNN_KERNEL value `{other}` (expected {})",
            KERNEL_ENV_VALUES.join(", ")
        )),
    }
}

/// Strict parse of the `RINGCNN_KERNEL` environment variable.
///
/// `Ok(None)` when unset, empty, or `auto` (runtime detection);
/// `Ok(Some(_))` for a tier this host can run. Unlike the lenient
/// dispatch-time cache (which falls back to detection), a value the
/// process cannot honour is an `Err` — binaries call this at startup
/// and refuse to run, because a user asking for one kernel and silently
/// getting another invalidates whatever comparison they were making.
///
/// # Errors
///
/// An unrecognized value (with [`KERNEL_ENV_VALUES`]), or `avx2` on a
/// CPU without AVX2+FMA (naming the missing features).
pub fn validate_env_kernel() -> Result<Option<KernelBackend>, String> {
    match std::env::var("RINGCNN_KERNEL") {
        Err(_) => Ok(None),
        Ok(v) => parse_kernel_request(&v, detected()),
    }
}

thread_local! {
    static FORCED: Cell<Option<KernelBackend>> = const { Cell::new(None) };
}

/// Runs `f` with the kernel tier forced to `k` **on this thread**
/// (restored on exit, panic-safe). The driver resolves the tier on the
/// calling thread before fanning out to the thread pool, so a forced
/// scope covers the whole parallel product. A forced `Avx2` degrades to
/// `Scalar` on a host without it (unlike `RINGCNN_KERNEL=avx2`, which
/// [`validate_env_kernel`] refuses), so tests can force both tiers
/// anywhere.
pub fn forced_kernel_scope<R>(k: KernelBackend, f: impl FnOnce() -> R) -> R {
    struct Reset(Option<KernelBackend>);
    impl Drop for Reset {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _reset = Reset(FORCED.with(|c| c.replace(Some(k))));
    f()
}

/// The tier the next GEMM call on this thread will use: the
/// [`forced_kernel_scope`] override if active, else `RINGCNN_KERNEL`,
/// else runtime feature detection.
pub fn active_kernel() -> KernelBackend {
    match FORCED.with(Cell::get) {
        Some(k) => available(k),
        None => env_choice().unwrap_or_else(detected),
    }
}

/// Panel width to pack panel-major B with before calling
/// [`gemm_f32_packed`]. Both tiers share one width; the parameter keeps
/// call sites tier-explicit.
pub fn f32_panel_width(_backend: KernelBackend) -> usize {
    NR_F32
}

// ---------------------------------------------------------------------
// Profiling counters.
// ---------------------------------------------------------------------

/// Process-wide GEMM profiling counters (relaxed atomics, one
/// `fetch_add` per *product* — never per tile — so the hot loops stay
/// untouched).
///
/// The counters are cumulative since process start; callers that want
/// per-interval or per-request attribution take a [`snapshot`](profile::snapshot) before
/// and after and diff with [`GemmCounters::delta_since`](profile::GemmCounters::delta_since). Because the
/// counters are process-wide, deltas taken while other products run
/// concurrently include those products' work — attribution is exact
/// only when the interval's GEMM calls are the only ones in flight
/// (e.g. a single-worker server).
pub mod profile {
    use super::KernelBackend;
    use std::sync::atomic::{AtomicU64, Ordering};

    static PANEL_PACKS: AtomicU64 = AtomicU64::new(0);
    static PANEL_REUSES: AtomicU64 = AtomicU64::new(0);
    static TILES: AtomicU64 = AtomicU64::new(0);
    /// Indexed by [`GemmCounters::dispatch`] order: scalar, avx2.
    static DISPATCH: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

    fn idx(k: KernelBackend) -> usize {
        match k {
            KernelBackend::Scalar => 0,
            KernelBackend::Avx2 => 1,
        }
    }

    /// One product: its packed panels, tiles, L1-hot panel re-reads and
    /// the tier that ran it.
    pub(super) fn add_product(k: KernelBackend, packs: u64, tiles: u64, reuses: u64) {
        DISPATCH[idx(k)].fetch_add(1, Ordering::Relaxed);
        PANEL_PACKS.fetch_add(packs, Ordering::Relaxed);
        TILES.fetch_add(tiles, Ordering::Relaxed);
        PANEL_REUSES.fetch_add(reuses, Ordering::Relaxed);
    }

    /// A point-in-time copy of the GEMM profiling counters.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct GemmCounters {
        /// Micro-panels of B packed (or handed in pre-packed) across
        /// all products.
        pub panel_packs: u64,
        /// L1-hot panel re-reads: for every packed panel, each
        /// same-pattern block beyond the group's first reuses the
        /// panel's non-zero rows while they are cache-resident.
        pub panel_reuses: u64,
        /// MR×NR register tiles executed.
        pub tiles: u64,
        /// Products dispatched per kernel tier, indexed
        /// `[scalar, avx2]`.
        pub dispatch: [u64; 2],
    }

    impl GemmCounters {
        /// Products dispatched to `k`.
        pub fn dispatched(&self, k: KernelBackend) -> u64 {
            self.dispatch[idx(k)]
        }

        /// Total products dispatched across both tiers.
        pub fn total_dispatches(&self) -> u64 {
            self.dispatch.iter().sum()
        }

        /// Counter growth since `earlier` (saturating, so a stale
        /// "earlier" snapshot yields zeros rather than wrapping).
        pub fn delta_since(&self, earlier: &GemmCounters) -> GemmCounters {
            GemmCounters {
                panel_packs: self.panel_packs.saturating_sub(earlier.panel_packs),
                panel_reuses: self.panel_reuses.saturating_sub(earlier.panel_reuses),
                tiles: self.tiles.saturating_sub(earlier.tiles),
                dispatch: [0, 1].map(|i| self.dispatch[i].saturating_sub(earlier.dispatch[i])),
            }
        }
    }

    /// Reads every counter (relaxed; individually atomic, not a
    /// cross-counter consistent cut).
    pub fn snapshot() -> GemmCounters {
        GemmCounters {
            panel_packs: PANEL_PACKS.load(Ordering::Relaxed),
            panel_reuses: PANEL_REUSES.load(Ordering::Relaxed),
            tiles: TILES.load(Ordering::Relaxed),
            dispatch: [0, 1].map(|i| DISPATCH[i].load(Ordering::Relaxed)),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn counters_advance_across_a_blocked_product() {
            let before = snapshot();
            // 4 rows × 40 columns, already panel-major (5 full panels).
            let bp: Vec<i64> = (0..4 * 40).collect();
            let w = vec![1i64; 3 * 4];
            let _ = crate::gemm::forced_kernel_scope(KernelBackend::Scalar, || {
                crate::gemm::gemm_i64_packed(&bp, 40, 4, 3, &w, &[], None, true)
            });
            // Other tests run gemm concurrently, so assert growth (>=)
            // rather than exact deltas.
            let d = snapshot().delta_since(&before);
            assert!(d.dispatched(KernelBackend::Scalar) >= 1);
            assert!(d.total_dispatches() >= 1);
            assert!(d.panel_packs >= 5, "the product packs 40 / NR_I64 panels");
            assert!(d.tiles >= 5, "one MR block meets every panel");
        }
    }
}

// ---------------------------------------------------------------------
// Fused requantization epilogue (i64).
// ---------------------------------------------------------------------

/// Shifts a fixed-point integer from `from_frac` to `to_frac` fractional
/// bits — the hardware requantizer (`ringcnn_quant`'s `requant_shift`).
/// Total: the exact rescale `q · 2^(to_frac − from_frac)`, rounded half
/// away from zero on right shifts (the magnitude in `u128`, so the bias
/// add cannot wrap even for `i64::MIN`; past 127 bits it is zero) and
/// saturated at the `i64` rails on left shifts (widened to `i128`).
#[inline]
pub fn requant_shift_i64(q: i64, from_frac: i32, to_frac: i32) -> i64 {
    let s = i64::from(from_frac) - i64::from(to_frac);
    if s == 0 {
        q
    } else if s > 0 {
        if s > 127 {
            return 0;
        }
        let sh = s as u32;
        let mag = ((q.unsigned_abs() as u128 + (1u128 << (sh - 1))) >> sh) as i64;
        if q < 0 {
            -mag
        } else {
            mag
        }
    } else {
        if q == 0 {
            return 0;
        }
        let sh = -s;
        if sh >= 64 {
            return if q > 0 { i64::MAX } else { i64::MIN };
        }
        let wide = (q as i128) << sh;
        if wide > i64::MAX as i128 {
            i64::MAX
        } else if wide < i64::MIN as i128 {
            i64::MIN
        } else {
            wide as i64
        }
    }
}

/// Per-output-channel requantization: shift from the accumulator format
/// to the output format, then clamp to the output bitwidth rails.
#[derive(Clone, Copy, Debug)]
pub struct RequantChannel {
    /// Fractional bits of the wide accumulator.
    pub from_frac: i32,
    /// Fractional bits of the output format.
    pub to_frac: i32,
    /// Lower saturation rail of the output format.
    pub qmin: i64,
    /// Upper saturation rail of the output format.
    pub qmax: i64,
}

impl RequantChannel {
    /// Requantizes one accumulator value.
    #[inline]
    pub fn apply(&self, v: i64) -> i64 {
        requant_shift_i64(v, self.from_frac, self.to_frac).clamp(self.qmin, self.qmax)
    }

    /// [`RequantChannel::apply`] on every element of `lane`, with the
    /// shift's direction and distance decided once. Below the lane's
    /// width of distance the lane's own arithmetic is exact — the
    /// rounding add cannot carry out of its unsigned twin, and a left
    /// shift leaves the lane exactly when the value lies beyond
    /// `rail >> distance` — so only the extreme distances reach
    /// [`requant_shift_i64`]'s `u128`/`i128`. In `i64` lanes every result
    /// is `apply`'s; in `i32` lanes it is `apply`'s saturated into the
    /// lane — the same integer whenever `qmin..=qmax` fits the lane
    /// (saturate, then clamp), the lane's own rails where it does not.
    pub fn apply_lane<L: Lane>(&self, lane: &mut [L]) {
        let (qmin, qmax) = (L::saturating_from(self.qmin), L::saturating_from(self.qmax));
        let s = i64::from(self.from_frac) - i64::from(self.to_frac);
        let d = s.unsigned_abs() as u32;
        if s == 0 {
            lane.iter_mut().for_each(|v| *v = (*v).clamp(qmin, qmax));
        } else if s.unsigned_abs() >= u64::from(L::BITS) {
            let far = |v: L| L::saturating_from(self.apply(v.into()));
            lane.iter_mut().for_each(|v| *v = far(*v));
        } else if s > 0 {
            lane.iter_mut()
                .for_each(|v| *v = v.shr_round(d).clamp(qmin, qmax));
        } else {
            lane.iter_mut()
                .for_each(|v| *v = v.shl_saturating(d).clamp(qmin, qmax));
        }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for i64 {}
    impl Sealed for i32 {}
}

/// An integer lane of the quantized pipeline — `i64`, which holds every
/// format the pipeline admits (the oracle's), or `i32`, the lane every
/// model that loads runs in — as the few operations the lane-generic
/// stages need beyond `std`'s operator traits. Sealed: the two impls
/// below are all there is.
pub trait Lane:
    sealed::Sealed
    + Copy
    + Ord
    + Default
    + TryFrom<i64>
    + Into<i64>
    + Add<Output = Self>
    + Sub<Output = Self>
{
    /// Width in bits.
    const BITS: u32;

    /// `v` saturated at the lane's rails.
    fn saturating_from(v: i64) -> Self;

    /// `self / 2^s` rounded half away from zero, `0 < s < BITS`.
    fn shr_round(self, s: u32) -> Self;

    /// `self · 2^s` saturated at the lane's rails, `0 < s < BITS`.
    fn shl_saturating(self, s: u32) -> Self;
}

macro_rules! lane {
    ($t:ty) => {
        impl Lane for $t {
            const BITS: u32 = <$t>::BITS;

            #[inline]
            fn saturating_from(v: i64) -> Self {
                v.clamp(<$t>::MIN.into(), <$t>::MAX.into()) as $t
            }

            #[inline]
            fn shr_round(self, s: u32) -> Self {
                let mag = ((self.unsigned_abs() + (1 << (s - 1))) >> s) as $t;
                if self < 0 {
                    -mag
                } else {
                    mag
                }
            }

            #[inline]
            fn shl_saturating(self, s: u32) -> Self {
                if self > <$t>::MAX >> s {
                    <$t>::MAX
                } else if self < <$t>::MIN >> s {
                    <$t>::MIN
                } else {
                    self << s
                }
            }
        }
    };
}
lane!(i64);
lane!(i32);

/// A per-channel requantization plan fused into the i64 kernel epilogue,
/// so quantized conv never materializes un-rescaled accumulators.
#[derive(Clone, Debug)]
pub struct RequantPlan {
    /// One entry per output channel.
    pub channels: Vec<RequantChannel>,
}

// ---------------------------------------------------------------------
// The element trait: everything f32, i64 and i32 do differently.
// ---------------------------------------------------------------------

/// A type planes, micro-panels and weight packs are stored in.
pub trait Plane: Copy + Default + PartialEq + Send + Sync + 'static {
    /// Whether the AVX2 tile of the element these operands feed
    /// multiplies every one of `values` exactly: a fact of a type
    /// narrower than the tile's multiplier, a scan otherwise.
    fn avx2_exact(values: &[Self]) -> bool;
}

macro_rules! plane {
    ($t:ty, $exact:expr) => {
        impl Plane for $t {
            fn avx2_exact(values: &[$t]) -> bool {
                values.iter().all($exact)
            }
        }
    };
}
plane!(f32, |_| true);
plane!(i8, |_| true);
// `_mm256_mul_epi32` reads each lane's low 32 bits: exact only for
// i32-range operands.
plane!(i64, |v| i32::try_from(*v).is_ok());
// `_mm256_madd_epi16` sums the two products of a pair in 32 bits, which
// only `−32768·−32768` twice can overflow: exact for `|v| ≤ 32767`.
plane!(i32, |v| v.unsigned_abs() <= 32767);
plane!(i16, |v| v.unsigned_abs() <= 32767);

/// `v` in the type a panel, a lane or a plane holds it in: free where
/// that widens or is the identity, and where it narrows the caller has
/// shown that every value fits (a debug build checks).
#[inline(always)]
pub fn fit<S, D: TryFrom<S> + Default>(v: S) -> D {
    D::try_from(v).unwrap_or_else(|_| {
        debug_assert!(false, "a value left the type it was proven into");
        D::default()
    })
}

/// What a chunk task runs over its finished `co × cw` lanes before the
/// sink sees them: `(block, stride, cw)` — output channel `c` at
/// `block[c·stride..][..cw]` — and free to mix rows.
pub type ChunkEpilogue<'a, T> = &'a (dyn Fn(&mut [T], usize, usize) + Sync);

/// A thread's packing slab — the `rows × NC_COLS` operands of the column
/// chunk its current task owns — and the `co × NC_COLS` lanes a chunk
/// epilogue is handed; kept across tasks and calls (never plane-sized,
/// so nothing worth returning to the OS).
pub(crate) type Slab<T, const NR: usize> = (Vec<<T as Element<NR>>::Operand>, Vec<T>);

/// An element type of the blocked driver, with micro-panel width `NR`.
pub(crate) trait Element<const NR: usize>:
    Copy + Default + PartialEq + AddAssign + Mul<Output = Self> + Send + Sync + 'static
{
    /// What its micro-panels and weight packs hold.
    type Operand: Plane + Into<Self>;

    /// What the epilogue applies to finished accumulator lanes.
    type Epilogue: Sync;

    /// Non-zero rows one step of the AVX2 tile multiplies: a block's
    /// weights are packed `[step][MR][PAIR]`, zero past an odd end.
    const PAIR: usize = 1;

    /// The thread's [`Slab`].
    fn slab() -> &'static LocalKey<Cell<Slab<Self, NR>>>;

    /// The AVX2 register tile.
    ///
    /// # Safety
    ///
    /// `avx2` (and `fma` for f32) must be available;
    /// `bpanel.len() ≥ (r+1)·NR` for every `r` in `nzrows`,
    /// `wpack.len() ≥ nzrows.len().div_ceil(PAIR)·MR·PAIR`, and
    /// [`Plane::avx2_exact`] must hold for both operands.
    #[cfg(target_arch = "x86_64")]
    unsafe fn tile_avx2(
        bpanel: &[Self::Operand],
        nzrows: &[u32],
        wpack: &[Self::Operand],
        binit: &[Self; MR],
        out: &mut [[Self; NR]; MR],
    );

    /// Finishes the accumulators of output channel `chan` in place.
    fn finish(epilogue: Option<&Self::Epilogue>, chan: usize, lane: &mut [Self]);
}

thread_local! {
    static SLAB_F32: Cell<Slab<f32, NR_F32>> = const { Cell::new((Vec::new(), Vec::new())) };
    static SLAB_I64: Cell<Slab<i64, NR_I64>> = const { Cell::new((Vec::new(), Vec::new())) };
    static SLAB_I32: Cell<Slab<i32, NR_I32>> = const { Cell::new((Vec::new(), Vec::new())) };
}

impl Element<NR_F32> for f32 {
    type Operand = f32;
    type Epilogue = ();

    fn slab() -> &'static LocalKey<Cell<Slab<f32, NR_F32>>> {
        &SLAB_F32
    }

    /// 4 output rows × 16 columns in 8 YMM accumulators, reading the
    /// block's non-zero rows out of one panel-major B panel.
    ///
    /// # Safety
    ///
    /// `avx2` and `fma` must be available; `bpanel.len() ≥ (r+1)·16` for
    /// every `r` in `nzrows` and `wpack.len() ≥ nzrows.len()·MR`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[target_feature(enable = "fma")]
    unsafe fn tile_avx2(
        bpanel: &[f32],
        nzrows: &[u32],
        wpack: &[f32],
        binit: &[f32; MR],
        out: &mut [[f32; NR_F32]; MR],
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        for c in 0..MR {
            acc[c][0] = _mm256_set1_ps(binit[c]);
            acc[c][1] = acc[c][0];
        }
        for (i, &r) in nzrows.iter().enumerate() {
            let p = bpanel.as_ptr().add(r as usize * NR_F32);
            let b0 = _mm256_loadu_ps(p);
            let b1 = _mm256_loadu_ps(p.add(8));
            for c in 0..MR {
                let w = _mm256_set1_ps(*wpack.get_unchecked(i * MR + c));
                acc[c][0] = _mm256_fmadd_ps(w, b0, acc[c][0]);
                acc[c][1] = _mm256_fmadd_ps(w, b1, acc[c][1]);
            }
        }
        for c in 0..MR {
            _mm256_storeu_ps(out[c].as_mut_ptr(), acc[c][0]);
            _mm256_storeu_ps(out[c].as_mut_ptr().add(8), acc[c][1]);
        }
    }

    #[inline]
    fn finish(_: Option<&()>, _: usize, _: &mut [f32]) {}
}

impl Element<NR_I64> for i64 {
    type Operand = i64;
    type Epilogue = RequantPlan;

    fn slab() -> &'static LocalKey<Cell<Slab<i64, NR_I64>>> {
        &SLAB_I64
    }

    /// 4 output rows × 8 columns. Multiplies via `_mm256_mul_epi32`
    /// (signed 32×32→64 of each lane's low half) — exact because the
    /// caller guarantees all weights and column values fit in `i32`;
    /// additions wrap exactly like release-mode scalar.
    ///
    /// # Safety
    ///
    /// `avx2` must be available; `bpanel.len() ≥ (r+1)·8` for every `r`
    /// in `nzrows`, `wpack.len() ≥ nzrows.len()·MR`, and every operand
    /// must fit in `i32`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn tile_avx2(
        bpanel: &[i64],
        nzrows: &[u32],
        wpack: &[i64],
        binit: &[i64; MR],
        out: &mut [[i64; NR_I64]; MR],
    ) {
        let mut acc = [[_mm256_setzero_si256(); 2]; MR];
        for c in 0..MR {
            acc[c][0] = _mm256_set1_epi64x(binit[c]);
            acc[c][1] = acc[c][0];
        }
        for (i, &r) in nzrows.iter().enumerate() {
            let p = bpanel.as_ptr().add(r as usize * NR_I64);
            let b0 = _mm256_loadu_si256(p as *const __m256i);
            let b1 = _mm256_loadu_si256(p.add(4) as *const __m256i);
            for c in 0..MR {
                let w = _mm256_set1_epi64x(*wpack.get_unchecked(i * MR + c));
                acc[c][0] = _mm256_add_epi64(acc[c][0], _mm256_mul_epi32(w, b0));
                acc[c][1] = _mm256_add_epi64(acc[c][1], _mm256_mul_epi32(w, b1));
            }
        }
        for c in 0..MR {
            _mm256_storeu_si256(out[c].as_mut_ptr() as *mut __m256i, acc[c][0]);
            _mm256_storeu_si256(out[c].as_mut_ptr().add(4) as *mut __m256i, acc[c][1]);
        }
    }

    #[inline]
    fn finish(plan: Option<&RequantPlan>, chan: usize, lane: &mut [i64]) {
        if let Some(plan) = plan {
            plan.channels[chan].apply_lane(lane);
        }
    }
}

impl Element<NR_I32> for i32 {
    type Operand = i16;
    type Epilogue = RequantPlan;
    const PAIR: usize = 2;

    fn slab() -> &'static LocalKey<Cell<Slab<i32, NR_I32>>> {
        &SLAB_I32
    }

    /// 4 output rows × 16 columns, the block's non-zero rows two at a
    /// time: one 256-bit load is a row's 16 columns, `unpack{lo,hi}`
    /// put row `r0`'s value in the low half and row `r1`'s in the high
    /// half of every 32-bit lane, the plan laid the weight pair out the
    /// same way, and one `_mm256_madd_epi16` is both products and their
    /// sum. The unpacks work per 128-bit half, so the two accumulators of
    /// a channel hold columns 0–3|8–11 and 4–7|12–15 until two
    /// `_mm256_permute2x128_si256` undo that at the store. An odd last row
    /// pairs with itself under the zero weight the plan padded with.
    /// Additions wrap exactly like release-mode scalar.
    ///
    /// # Safety
    ///
    /// `avx2` must be available; `bpanel.len() ≥ (r+1)·16` for every `r`
    /// in `nzrows`, `wpack.len() ≥ nzrows.len().div_ceil(2)·MR·2`, and
    /// every operand must satisfy `|v| ≤ 32767`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn tile_avx2(
        bpanel: &[i16],
        nzrows: &[u32],
        wpack: &[i16],
        binit: &[i32; MR],
        out: &mut [[i32; NR_I32]; MR],
    ) {
        let mut acc = [[_mm256_setzero_si256(); 2]; MR];
        for c in 0..MR {
            acc[c][0] = _mm256_set1_epi32(binit[c]);
            acc[c][1] = acc[c][0];
        }
        let rows = bpanel.as_ptr().cast::<__m256i>();
        for (i, pair) in nzrows.chunks(2).enumerate() {
            let r0 = _mm256_loadu_si256(rows.add(pair[0] as usize));
            let r1 = _mm256_loadu_si256(rows.add(pair[pair.len() - 1] as usize));
            let (b0, b1) = (_mm256_unpacklo_epi16(r0, r1), _mm256_unpackhi_epi16(r0, r1));
            let w = wpack.as_ptr().add(2 * i * MR).cast::<i32>();
            for c in 0..MR {
                let w = _mm256_set1_epi32(w.add(c).read_unaligned());
                acc[c][0] = _mm256_add_epi32(acc[c][0], _mm256_madd_epi16(b0, w));
                acc[c][1] = _mm256_add_epi32(acc[c][1], _mm256_madd_epi16(b1, w));
            }
        }
        for c in 0..MR {
            let [lo, hi] = acc[c];
            let p = out[c].as_mut_ptr().cast::<__m256i>();
            _mm256_storeu_si256(p, _mm256_permute2x128_si256(lo, hi, 0x20));
            _mm256_storeu_si256(p.add(1), _mm256_permute2x128_si256(lo, hi, 0x31));
        }
    }

    #[inline]
    fn finish(plan: Option<&RequantPlan>, chan: usize, lane: &mut [i32]) {
        if let Some(plan) = plan {
            plan.channels[chan].apply_lane(lane);
        }
    }
}

// ---------------------------------------------------------------------
// Shared block planning.
// ---------------------------------------------------------------------

/// Output-channel order that puts channels with identical non-zero-row
/// bitmasks next to each other (ties broken by channel index, so the
/// order is deterministic). MR blocks cut from this order keep the
/// per-block non-zero row list as tight as the per-channel lists: the
/// expanded weights of a diagonal ring repeat one pattern every n
/// channels, and naive index-order blocking would union n disjoint
/// patterns into a dense block.
fn similarity_order(co: usize, rows: usize, nonzero: impl Fn(usize, usize) -> bool) -> Vec<usize> {
    let words = rows.div_ceil(64).max(1);
    let mut pats: Vec<u64> = vec![0; co * words];
    for c in 0..co {
        for r in 0..rows {
            if nonzero(c, r) {
                pats[c * words + r / 64] |= 1 << (r % 64);
            }
        }
    }
    let pat = |c: usize| &pats[c * words..(c + 1) * words];
    let mut order: Vec<usize> = (0..co).collect();
    order.sort_by(|&a, &b| pat(a).cmp(pat(b)).then(a.cmp(&b)));
    order
}

/// One MR-wide block of output channels, packed for the register tile.
#[derive(Clone, Debug)]
struct BlockPlan<T> {
    /// Original output-channel index of each tile row.
    chans: [usize; MR],
    /// Live tile rows (≤ MR; the tail block of `co` may be partial).
    mr: usize,
    /// Rows where at least one of the block's channels is non-zero.
    nzrows: Vec<u32>,
    /// `[step][MR][pair]` broadcast-ready weights, `pair` non-zero rows
    /// to a step (zero for absent channels and past an odd last row).
    wpack: Vec<T>,
}

/// Cuts MR blocks from the similarity order and packs their weights,
/// `pair` non-zero rows to a tile step.
fn plan_blocks<T: Copy + Default + PartialEq>(
    co: usize,
    rows: usize,
    weights: &[T],
    pair: usize,
) -> Vec<BlockPlan<T>> {
    let zero = T::default();
    let order = similarity_order(co, rows, |c, r| weights[c * rows + r] != zero);
    order
        .chunks(MR)
        .map(|chans_slice| {
            let mr = chans_slice.len();
            let mut chans = [0usize; MR];
            chans[..mr].copy_from_slice(chans_slice);
            let mut nzrows = Vec::with_capacity(rows);
            let mut wpack = Vec::with_capacity(rows * MR);
            for r in 0..rows {
                let mut ws = [zero; MR];
                let mut any = false;
                for (i, &c) in chans_slice.iter().enumerate() {
                    let w = weights[c * rows + r];
                    ws[i] = w;
                    any |= w != zero;
                }
                if any {
                    let (step, half) = (nzrows.len() / pair, nzrows.len() % pair);
                    wpack.resize((step + 1) * MR * pair, zero);
                    for (c, w) in ws.into_iter().enumerate() {
                        wpack[(step * MR + c) * pair + half] = w;
                    }
                    nzrows.push(r as u32);
                }
            }
            BlockPlan {
                chans,
                mr,
                nzrows,
                wpack,
            }
        })
        .collect()
}

/// Runs `[start, end)` of consecutive blocks sharing one non-zero-row
/// pattern. A task walks a whole group panel-by-panel so the ~64
/// bytes each non-zero row occupies are read once into L1 and reused by
/// every same-pattern block — on a diagonal ring the blocks of one
/// residue class touch identical rows, and per-block panel walks would
/// refetch them from L2 every time. The similarity order already made
/// equal patterns adjacent, so groups are contiguous runs.
fn pattern_groups<T>(blocks: &[BlockPlan<T>]) -> Vec<(usize, usize)> {
    let mut groups = Vec::new();
    let mut start = 0;
    for b in 1..=blocks.len() {
        if b == blocks.len() || blocks[b].nzrows != blocks[start].nzrows {
            groups.push((start, b));
            start = b;
        }
    }
    groups
}

/// The weights-only half of a product `C = W · B`: MR blocks in
/// similarity order, their same-pattern groups, and whether the AVX2
/// tile multiplies every weight exactly. Build it once where weights
/// freeze and hand it to every call. `T` is the type the packs hold —
/// the element itself for `f32` and `i64`, `i16` for `i32` lanes.
#[derive(Clone, Debug)]
pub struct PackedWeights<T> {
    co: usize,
    rows: usize,
    blocks: Vec<BlockPlan<T>>,
    groups: Vec<(usize, usize)>,
    avx2_exact: bool,
}

impl<T> PackedWeights<T> {
    /// Output channels (rows of `W`).
    pub fn co(&self) -> usize {
        self.co
    }

    /// Patch rows (columns of `W`, `ci·k²` for a convolution).
    pub fn rows(&self) -> usize {
        self.rows
    }
}

impl<O: Plane> PackedWeights<O> {
    fn plan<T: Element<NR, Operand = O>, const NR: usize>(
        co: usize,
        rows: usize,
        weights: &[O],
    ) -> Self {
        assert_eq!(weights.len(), co * rows, "weight length mismatch");
        let blocks = plan_blocks(co, rows, weights, T::PAIR);
        Self {
            co,
            rows,
            groups: pattern_groups(&blocks),
            blocks,
            avx2_exact: O::avx2_exact(weights),
        }
    }
}

impl PackedWeights<f32> {
    /// Plans a row-major `co × rows` weight matrix (panics on any other
    /// length).
    pub fn new(co: usize, rows: usize, weights: &[f32]) -> Self {
        Self::plan::<f32, NR_F32>(co, rows, weights)
    }
}

impl PackedWeights<i64> {
    /// Plans a row-major `co × rows` weight matrix (panics on any other
    /// length).
    pub fn new(co: usize, rows: usize, weights: &[i64]) -> Self {
        Self::plan::<i64, NR_I64>(co, rows, weights)
    }
}

impl PackedWeights<i16> {
    /// Plans a row-major `co × rows` matrix of 16-bit weights for `i32`
    /// lanes, row pairs laid out for `_mm256_madd_epi16` (panics on any
    /// other length).
    pub fn new(co: usize, rows: usize, weights: &[i16]) -> Self {
        Self::plan::<i32, NR_I32>(co, rows, weights)
    }
}

// ---------------------------------------------------------------------
// The blocked driver.
// ---------------------------------------------------------------------

/// Where a chunk task gets its micro-panels of B from.
pub(crate) enum Panels<'a, T> {
    /// A whole panel-major B the caller packed: chunks are lent.
    Packed(&'a [T]),
    /// Writes panels `[jp0, jp1)` in `[panel][row][NR]` order into the
    /// buffer it is given (the task's slab: dirty, exactly that long).
    Packer(&'a (dyn Fn(usize, usize, &mut [T]) + Sync)),
}

/// Where a product's finished lanes land, a depth-to-space of factor
/// `r` folded into the write: the columns are the pixels of an image
/// `iw` wide, and output channel `c'·r² + ry·r + rx` at pixel `(y, x)`
/// goes to `(y·r + ry, x·r + rx)` of `planes[c']` — where the consumer
/// of a pixel-shuffled convolution reads it. The plain product is the
/// case `r = 1` over one row (`iw = plane`): channel `c`, column `j` to
/// `planes[c][j]`. The planes may be narrower than the lanes written to
/// them ([`fit`]: the caller has shown that every finished value fits).
pub(crate) struct Sink<'a, 'p, T> {
    /// The `co / r²` output planes, `plane · r²` elements each.
    pub planes: &'a mut [&'p mut [T]],
    /// Depth-to-space factor.
    pub r: usize,
    /// Image width in pixels (a divisor of `plane`).
    pub iw: usize,
}

/// `C = W · B` for one planned `W`: output channel `c` at column `j`
/// becomes `bias[c] + Σ_r W[c][r] · B[r][j]` (an empty `bias` means
/// zero), finished by the element's epilogue and written where the
/// sink sends it. `b_exact` is the caller's word on whether the AVX2 tile
/// multiplies every value of B exactly. One task per [`NC_COLS`] column
/// chunk runs in parallel: it gets its panels from `source`, runs every
/// pattern group over them and writes its pixels' share of the sink's
/// planes in place — lane by lane as the tiles finish them, or, given a
/// chunk epilogue `fused`, staged whole in its slab, handed to `fused`
/// once and then written row by row.
pub(crate) fn product<T: Element<NR>, D: Plane + TryFrom<T>, const NR: usize>(
    w: &PackedWeights<T::Operand>,
    plane: usize,
    bias: &[T],
    (epilogue, fused): (Option<&T::Epilogue>, Option<ChunkEpilogue<'_, T>>),
    b_exact: bool,
    source: Panels<'_, T::Operand>,
    Sink { planes, r, iw }: Sink<'_, '_, D>,
) {
    assert!(
        bias.is_empty() || bias.len() == w.co,
        "bias length mismatch"
    );
    assert!(
        planes.len() * r * r == w.co
            && planes.iter().all(|p| p.len() == plane * r * r)
            && plane.checked_rem(iw).unwrap_or(plane) == 0,
        "output shape mismatch"
    );
    let np = plane.div_ceil(NR);
    let mut tier = active_kernel();
    // The AVX2 exactness gate: the scalar-blocked tile is exact for
    // every operand.
    if tier == KernelBackend::Avx2 && !(b_exact && w.avx2_exact) {
        tier = KernelBackend::Scalar;
    }
    // Closed forms over the chunk × group grid: every panel is packed
    // once and meets every block once (tiles), and per panel each block
    // beyond its group's first re-reads L1-hot rows (reuses). Counted
    // here once so the parallel tasks stay free of shared-cacheline
    // traffic.
    profile::add_product(
        tier,
        np as u64,
        (np * w.blocks.len()) as u64,
        (np * (w.blocks.len() - w.groups.len())) as u64,
    );
    // Per-block accumulator init: the bias in tile-row order.
    let binit: Vec<[T; MR]> = w
        .blocks
        .iter()
        .map(|block| {
            let mut init = [T::default(); MR];
            if !bias.is_empty() {
                for (v, &c) in init.iter_mut().zip(&block.chans[..block.mr]) {
                    *v = bias[c];
                }
            }
            init
        })
        .collect();
    // `[c', ry, rx]` of every output channel.
    let cells: Vec<[usize; 3]> = (0..w.co).map(|c| [c / (r * r), c / r % r, c % r]).collect();
    // Task `i` owns pixels `[i·NC_COLS, (i+1)·NC_COLS)`, on `rows` image
    // rows. Every output row — `iw · r` elements, `r` rows to an image
    // row — is split at the task boundaries inside its image row, and a
    // task holds its segments in `(plane, image row, ry)` order:
    // disjoint `&mut` pieces, so the tasks write the planes in place.
    // With `r = 1` over one row they are its columns of every channel.
    let mut tasks: Vec<(usize, usize, Vec<&mut [D]>)> = (0..plane.div_ceil(NC_COLS))
        .map(|chunk| {
            let rows = plane.min((chunk + 1) * NC_COLS).div_ceil(iw) - chunk * NC_COLS / iw;
            (chunk, rows, Vec::with_capacity(planes.len() * r * rows))
        })
        .collect();
    for lane in planes.iter_mut() {
        for (oy, mut row) in lane.chunks_mut((iw * r).max(1)).enumerate() {
            let (ja, jb) = (oy / r * iw, (oy / r + 1) * iw);
            for (chunk, _, segs) in &mut tasks[ja / NC_COLS..jb.div_ceil(NC_COLS)] {
                let pixels = jb.min((*chunk + 1) * NC_COLS) - ja.max(*chunk * NC_COLS);
                let (seg, rest) = std::mem::take(&mut row).split_at_mut(pixels * r);
                segs.push(seg);
                row = rest;
            }
        }
    }
    // The tasks are lent to the pool, not moved into it: every segment
    // list is freed here, on the thread that allocated it. Freed on
    // whichever pool thread ran its task, a list went to that thread's
    // malloc cache, so the caller's heap took a different shape from
    // run to run (glibc, pool of 2: about one process in four kept its
    // main heap 5 MiB larger after the whole-frame calibrations of
    // `frame_dn_ri4fh_q8`; docs/PERFORMANCE.md, "Segment lists freed
    // where they were made").
    tasks.par_iter_mut().for_each(|(chunk, rows, segs)| {
        let (chunk, rows) = (*chunk, *rows);
        let jp0 = chunk * (NC_COLS / NR);
        let jp1 = np.min(jp0 + NC_COLS / NR);
        let panel_len = w.rows * NR;
        let (mut slab, mut staged) = T::slab().take();
        let b = match source {
            Panels::Packed(bp) => &bp[jp0 * panel_len..jp1 * panel_len],
            Panels::Packer(pack) => {
                let len = (jp1 - jp0) * panel_len;
                if slab.len() < len {
                    slab.resize(len, <T::Operand>::default());
                }
                pack(jp0, jp1, &mut slab[..len]);
                &slab[..len]
            }
        };
        // The chunk's pixels start at column `x0` of an image row; where
        // each of its panels (`i64` has the most) starts — row counted
        // from the chunk's first, column — is divided out once here,
        // not per lane.
        let (x0, cw) = (chunk * NC_COLS % iw, NC_COLS.min(plane - chunk * NC_COLS));
        let starts: [_; NC_COLS / NR_I64] =
            std::array::from_fn(|p| ((x0 + p * NR) / iw, (x0 + p * NR) % iw));
        let mut write = |chan: usize, j: usize, mut vals: &[T]| {
            let [cp, ry, rx] = cells[chan];
            let (mut dy, mut x) = starts[j / NR];
            // Run by run where the lane crosses image rows: to every
            // `r`-th element from `rx` on of the segment of output row
            // `y·r + ry`, which begins at column 0 (the chunk's first
            // at `x0`).
            while !vals.is_empty() {
                let (run, rest) = vals.split_at(vals.len().min(iw - x));
                let at = (x - if dy == 0 { x0 } else { 0 }) * r + rx;
                let seg = &mut segs[(cp * rows + dy) * r + ry][at..];
                if r == 1 {
                    seg.iter_mut().zip(run).for_each(|(o, v)| *o = fit(*v));
                } else {
                    for (o, v) in seg.iter_mut().step_by(r).zip(run) {
                        *o = fit(*v);
                    }
                }
                (dy, x, vals) = (dy + 1, 0, rest);
            }
        };
        match fused {
            None => chunk_body(tier, b, w, &binit, epilogue, cw, write),
            Some(fused) => {
                if staged.len() < w.co * NC_COLS {
                    staged.resize(w.co * NC_COLS, T::default());
                }
                let lanes = &mut staged[..w.co * NC_COLS];
                chunk_body(tier, b, w, &binit, epilogue, cw, |chan, j, vals| {
                    lanes[chan * NC_COLS + j..][..vals.len()].copy_from_slice(vals);
                });
                fused(lanes, NC_COLS, cw);
                for (chan, lane) in lanes.chunks(NC_COLS).enumerate() {
                    write(chan, 0, &lane[..cw]);
                }
            }
        }
        T::slab().set((slab, staged));
    });
}

/// Runs every pattern group of `w` over the panels of one column chunk
/// of `cw` columns (`b`, `[panel][row][NR]`) and hands each finished
/// lane to `write` as `(channel, first column in the chunk, values)` —
/// the task's share of the product's [`Sink`]. Within a group panels are
/// the outer loop, so every block of the group reads the panel's
/// non-zero rows while they are L1-hot.
fn chunk_body<T: Element<NR>, const NR: usize>(
    tier: KernelBackend,
    b: &[T::Operand],
    w: &PackedWeights<T::Operand>,
    binit: &[[T; MR]],
    epilogue: Option<&T::Epilogue>,
    cw: usize,
    mut write: impl FnMut(usize, usize, &[T]),
) {
    let panel_len = w.rows * NR;
    let mut acc = [[T::default(); NR]; MR];
    for &(g0, g1) in &w.groups {
        for (p, j) in (0..cw).step_by(NR).enumerate() {
            let panel = &b[p * panel_len..(p + 1) * panel_len];
            let width = NR.min(cw - j);
            for (block, init) in w.blocks[g0..g1].iter().zip(&binit[g0..g1]) {
                match tier {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: Avx2 is only selected after runtime
                    // detection of avx2+fma and the driver's exactness
                    // gate; `panel` spans a full rows×NR panel,
                    // `plan_blocks` drew every nzrows entry from
                    // `0..rows` and packed MR·PAIR weights per step.
                    KernelBackend::Avx2 => unsafe {
                        T::tile_avx2(panel, &block.nzrows, &block.wpack, init, &mut acc)
                    },
                    _ => tile_scalar(panel, &block.nzrows, &block.wpack, init, &mut acc),
                }
                for (i, lane) in acc.iter_mut().enumerate().take(block.mr) {
                    T::finish(epilogue, block.chans[i], &mut lane[..width]);
                    write(block.chans[i], j, &lane[..width]);
                }
            }
        }
    }
}

/// Portable scalar register tile (the compiler autovectorizes the fixed
/// NR-wide inner loops where it can).
fn tile_scalar<T: Element<NR>, const NR: usize>(
    bpanel: &[T::Operand],
    nzrows: &[u32],
    wpack: &[T::Operand],
    binit: &[T; MR],
    out: &mut [[T; NR]; MR],
) {
    for (c, acc) in out.iter_mut().enumerate() {
        *acc = [binit[c]; NR];
    }
    for (i, &r) in nzrows.iter().enumerate() {
        let b = &bpanel[r as usize * NR..(r as usize + 1) * NR];
        for (c, acc) in out.iter_mut().enumerate() {
            let w: T = wpack[(i / T::PAIR * MR + c) * T::PAIR + i % T::PAIR].into();
            if w == T::default() {
                continue;
            }
            for l in 0..NR {
                acc[l] += w * b[l].into();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Public entries over a pre-packed B.
// ---------------------------------------------------------------------

/// The driver over a B the caller packed, one output plane per `co`.
fn prepacked<T: Element<NR> + Plane, const NR: usize>(
    bp: &[T::Operand],
    plane: usize,
    w: &PackedWeights<T::Operand>,
    bias: &[T],
    epilogue: Option<&T::Epilogue>,
    b_exact: bool,
) -> Vec<Vec<T>> {
    assert_eq!(
        bp.len(),
        plane.div_ceil(NR) * w.rows * NR,
        "packed matrix length mismatch"
    );
    let mut planes = vec![vec![T::default(); plane]; w.co];
    let mut out: Vec<&mut [T]> = planes.iter_mut().map(Vec::as_mut_slice).collect();
    let sink = Sink {
        planes: &mut out,
        r: 1,
        iw: plane,
    };
    let epilogues = (epilogue, None);
    product(w, plane, bias, epilogues, b_exact, Panels::Packed(bp), sink);
    planes
}

/// Blocked f32 GEMM over a pre-packed panel-major B (`[panel][row][nr]`
/// with `nr = f32_panel_width(active_kernel())`, tail panel
/// zero-padded) — the streaming driver fed from a borrowed B instead of
/// the im2col chunk packer, for callers (tests, the benchmark probes)
/// that hold B in panel order. Plans `weights` per call. Returns one
/// output plane per `co`, `bias[c] + Σ_r weights[c·rows + r] · col[r]`
/// (an empty `bias` means no bias).
///
/// # Panics
///
/// Panics if `weights.len() != co·rows`, `bp` is not
/// `plane.div_ceil(nr)·rows·nr` long, or `bias` is neither empty nor
/// `co` long.
pub fn gemm_f32_packed(
    bp: &[f32],
    plane: usize,
    rows: usize,
    co: usize,
    weights: &[f32],
    bias: &[f32],
) -> Vec<Vec<f32>> {
    let w = PackedWeights::<f32>::new(co, rows, weights);
    prepacked::<f32, NR_F32>(bp, plane, &w, bias, None, true)
}

/// Blocked i64 GEMM over a pre-packed panel-major B
/// (`[panel][row][NR_I64]`, tail panel zero-padded), bit-identical to
/// [`reference()`] followed by per-channel requantization (when
/// `requant` is given the epilogue is fused: the un-rescaled wide
/// accumulators never reach memory). Plans `weights` per call.
///
/// The AVX2 tile multiplies with `_mm256_mul_epi32`, exact only when
/// both operands fit in `i32`: the weights are checked here, and the
/// caller certifies with `col_fits_i32` whether every packed value does
/// (pass `false` when unsure and the scalar-blocked tile, still
/// bit-exact, runs).
///
/// # Panics
///
/// Panics if any length disagrees.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i64_packed(
    bp: &[i64],
    plane: usize,
    rows: usize,
    co: usize,
    weights: &[i64],
    bias: &[i64],
    requant: Option<&RequantPlan>,
    col_fits_i32: bool,
) -> Vec<Vec<i64>> {
    check_plan(requant, co);
    let w = PackedWeights::<i64>::new(co, rows, weights);
    prepacked::<i64, NR_I64>(bp, plane, &w, bias, requant, col_fits_i32)
}

/// [`gemm_i64_packed`] in `i32` lanes over 16-bit operands
/// (`[panel][row][NR_I32]` panels of `i16`): the same integers for a
/// product whose every partial sum fits the lane (see the module docs).
/// The AVX2 tile's `_mm256_madd_epi16` needs `|v| ≤ 32767`: a `−32768`
/// on either side runs the scalar-blocked tile.
///
/// # Panics
///
/// Panics if any length disagrees.
pub fn gemm_i32_packed(
    bp: &[i16],
    plane: usize,
    rows: usize,
    co: usize,
    weights: &[i16],
    bias: &[i32],
    requant: Option<&RequantPlan>,
) -> Vec<Vec<i32>> {
    check_plan(requant, co);
    let w = PackedWeights::<i16>::new(co, rows, weights);
    prepacked::<i32, NR_I32>(bp, plane, &w, bias, requant, i16::avx2_exact(bp))
}

pub(crate) fn check_plan(requant: Option<&RequantPlan>, co: usize) {
    if let Some(plan) = requant {
        assert_eq!(plan.channels.len(), co, "requant plan length mismatch");
    }
}

/// The matrix-level oracle every tier is compared against: the plain
/// row-axpy loop, one output plane per `co`,
/// `bias[c] + Σ_r weights[c·rows + r] · col[r]` over a **row-major**
/// `rows × plane` patch matrix, bias first, rows in increasing order,
/// zero weights skipped (an empty `bias` means no bias). Generic over
/// the element type; tests call it directly and no production path
/// reaches it. Over [`crate::im2col::im2col_pack`] it is bit-identical
/// to [`crate::conv::conv2d_forward`].
///
/// # Examples
///
/// ```
/// use ringcnn_tensor::gemm::reference;
///
/// // C = W · col: 2 output channels over rows = 2, plane = 3. Channel
/// // c's weight row selects patch row c, so the output planes are the
/// // patch rows themselves (plus the per-channel bias).
/// let col = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // row-major rows × plane
/// let w = [1.0, 0.0, 0.0, 1.0];
/// let planes = reference(&col, 3, 2, 2, &w, &[0.0, 10.0]);
/// assert_eq!(planes[0], vec![1.0, 2.0, 3.0]);
/// assert_eq!(planes[1], vec![14.0, 15.0, 16.0]);
/// ```
///
/// # Panics
///
/// Panics if `weights.len() != co·rows`, `col.len() != rows·plane`, or
/// `bias` is neither empty nor `co` long.
pub fn reference<T>(
    col: &[T],
    plane: usize,
    rows: usize,
    co: usize,
    weights: &[T],
    bias: &[T],
) -> Vec<Vec<T>>
where
    T: Copy + Default + PartialEq + AddAssign + Mul<Output = T>,
{
    assert_eq!(weights.len(), co * rows, "weight length mismatch");
    assert_eq!(col.len(), rows * plane, "patch matrix length mismatch");
    assert!(bias.is_empty() || bias.len() == co, "bias length mismatch");
    (0..co)
        .map(|c| {
            let mut acc = vec![bias.get(c).copied().unwrap_or_default(); plane];
            for (r, &wv) in weights[c * rows..(c + 1) * rows].iter().enumerate() {
                if wv == T::default() {
                    continue;
                }
                for (a, v) in acc.iter_mut().zip(&col[r * plane..(r + 1) * plane]) {
                    *a += wv * *v;
                }
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::{conv_streaming, ConvInput};
    use crate::tile::Window;

    fn pseudo_f32(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as i32 % 1000) as f32 / 250.0 - 2.0
            })
            .collect()
    }

    fn pseudo_i64(n: usize, seed: u64, modv: i64) -> Vec<i64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as i64 % modv
            })
            .collect()
    }

    const TIERS: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Avx2];

    /// The plan of lane-typed weights, each in the element's operand type.
    fn planned<T: Element<NR>, const NR: usize>(
        co: usize,
        rows: usize,
        weights: &[T],
    ) -> PackedWeights<T::Operand>
    where
        T::Operand: TryFrom<T>,
    {
        let operands: Vec<T::Operand> = weights.iter().map(|w| fit(*w)).collect();
        PackedWeights::plan::<T, NR>(co, rows, &operands)
    }

    /// The product of tier `k` over a row-major `col`, through the
    /// streaming entry: `col` is the input of a 1×1 convolution — `rows`
    /// channels of a `1 × plane` image, whose patch matrix is `col`
    /// itself. (`tests/gemm_kernels.rs` holds the pre-packed entries to
    /// this one bit for bit.)
    #[allow(clippy::too_many_arguments)]
    fn blocked<T: Element<NR> + Plane, const NR: usize>(
        k: KernelBackend,
        col: &[T],
        plane: usize,
        rows: usize,
        co: usize,
        weights: &[T],
        bias: &[T],
        epilogue: Option<&T::Epilogue>,
    ) -> Vec<Vec<T>>
    where
        T::Operand: TryFrom<T>,
    {
        let w = planned::<T, NR>(co, rows, weights);
        let x = ConvInput::new(col, rows, 1, plane, Window::full(1, plane));
        let mut flat = vec![T::default(); co * plane];
        forced_kernel_scope(k, || {
            conv_streaming(&x, 1, &w, bias, (epilogue, None), 1, &mut flat)
        });
        (0..co)
            .map(|c| flat[c * plane..(c + 1) * plane].to_vec())
            .collect()
    }

    /// [`reference()`] followed by the unfused per-channel requantization.
    fn reference_i64(
        col: &[i64],
        plane: usize,
        rows: usize,
        co: usize,
        weights: &[i64],
        bias: &[i64],
        requant: Option<&RequantPlan>,
    ) -> Vec<Vec<i64>> {
        let mut planes = reference(col, plane, rows, co, weights, bias);
        if let Some(plan) = requant {
            for (p, ch) in planes.iter_mut().zip(&plan.channels) {
                p.iter_mut().for_each(|v| *v = ch.apply(*v));
            }
        }
        planes
    }

    #[test]
    fn f32_blocked_matches_reference_within_tolerance() {
        for (co, rows, plane) in [
            (1, 1, 1),
            (3, 9, 17),
            (4, 27, 16),
            (7, 18, 33),
            (8, 75, 40),
            (6, 12, 200), // more than one column chunk
            (2, 3, 0),    // empty plane
            (0, 3, 5),    // no output channels
        ] {
            let weights = {
                let mut w = pseudo_f32(co * rows, 3);
                // Exact zeros exercise the panel-granularity skip.
                for v in w.iter_mut().step_by(5) {
                    *v = 0.0;
                }
                w
            };
            let col = pseudo_f32(rows * plane, 7);
            let bias = pseudo_f32(co, 11);
            let want = reference(&col, plane, rows, co, &weights, &bias);
            for k in TIERS {
                let got = blocked(k, &col, plane, rows, co, &weights, &bias, None);
                assert_eq!(got.len(), co);
                assert!(got.iter().all(|p| p.len() == plane));
                for (a, b) in want.iter().flatten().zip(got.iter().flatten()) {
                    assert!(
                        (a - b).abs() <= 1e-4,
                        "{k:?} co={co} rows={rows} plane={plane}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn f32_empty_bias_and_all_zero_rows() {
        let weights = vec![0.0f32; 2 * 9];
        let col = pseudo_f32(9 * 10, 5);
        for k in TIERS {
            let got = blocked(k, &col, 10, 9, 2, &weights, &[], None);
            assert!(got.iter().flatten().all(|v| *v == 0.0), "{k:?}");
        }
    }

    #[test]
    fn diagonal_pattern_grouping_keeps_channel_order_in_the_output() {
        // An RI4-style expansion: channel c reads only rows ≡ c (mod 4).
        // The similarity grouping reorders channels internally; outputs
        // must still come back in original channel order.
        let (co, rows, plane) = (8, 16, 37);
        let mut weights = vec![0.0f32; co * rows];
        for c in 0..co {
            for r in 0..rows {
                if r % 4 == c % 4 {
                    weights[c * rows + r] = pseudo_f32(1, (c * rows + r) as u64)[0];
                }
            }
        }
        let col = pseudo_f32(rows * plane, 9);
        let bias = pseudo_f32(co, 13);
        let want = reference(&col, plane, rows, co, &weights, &bias);
        for k in TIERS {
            let got = blocked(k, &col, plane, rows, co, &weights, &bias, None);
            for (c, (a, b)) in want.iter().zip(got.iter()).enumerate() {
                for (x, y) in a.iter().zip(b.iter()) {
                    assert!((x - y).abs() <= 1e-4, "{k:?} channel {c}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn i64_blocked_is_bit_identical_to_reference() {
        for (co, rows, plane) in [
            (1, 1, 1),
            (3, 9, 17),
            (4, 27, 16),
            (7, 18, 33),
            (8, 75, 40),
            (5, 10, 300), // more than one column chunk
            (2, 3, 0),    // empty plane
            (0, 3, 5),    // no output channels
        ] {
            let weights = {
                let mut w = pseudo_i64(co * rows, 3, 1 << 15);
                for v in w.iter_mut().step_by(4) {
                    *v = 0;
                }
                w
            };
            let col = pseudo_i64(rows * plane, 7, 1 << 15);
            let bias = pseudo_i64(co, 11, 1 << 30);
            let plan = RequantPlan {
                channels: (0..co)
                    .map(|c| RequantChannel {
                        from_frac: 20,
                        to_frac: 7 - (c as i32 % 3),
                        qmin: -128,
                        qmax: 127,
                    })
                    .collect(),
            };
            for requant in [None, Some(&plan)] {
                let want = reference_i64(&col, plane, rows, co, &weights, &bias, requant);
                for k in TIERS {
                    let got = blocked(k, &col, plane, rows, co, &weights, &bias, requant);
                    assert_eq!(want, got, "{k:?} co={co} rows={rows} plane={plane}");
                }
            }
        }
    }

    #[test]
    fn i64_wide_operands_fall_back_exactly() {
        // Values beyond i32 on either side: the AVX2 gate must reject
        // them (a low-half multiply would lose the high bits) and the
        // scalar-blocked tile must still match the reference — through
        // the streaming entry (which scans the unpacked input) and the
        // pre-packed one (whose caller certifies B).
        let narrow_w = vec![7i64, 3, 0, -5];
        let wide_w = vec![1i64 << 40, 3, 0, -5];
        let narrow_col = pseudo_i64(2 * 9, 13, 1 << 20);
        let mut wide_col = narrow_col.clone();
        wide_col[4] = (1 << 33) + 1;
        let bias = vec![7i64, -9];
        for (weights, col) in [(&wide_w, &narrow_col), (&narrow_w, &wide_col)] {
            let want = reference(col, 9, 2, 2, weights, &bias);
            assert!(!(i64::avx2_exact(weights) && i64::avx2_exact(col)));
            for k in TIERS {
                let got = blocked(k, col, 9, 2, 2, weights, &bias, None);
                assert_eq!(want, got, "{k:?}");
            }
        }
    }

    #[test]
    fn requant_epilogue_saturates_at_the_rails() {
        // One row, huge accumulators: left shifts must saturate at the
        // i64 rails and the clamp must land exactly on qmin/qmax.
        let weights = vec![1i64, 1];
        let col = vec![i64::MAX / 2, i64::MIN / 2, 100, -100];
        let plan = RequantPlan {
            channels: (0..2)
                .map(|_| RequantChannel {
                    from_frac: 0,
                    to_frac: 8, // left shift by 8: saturates the big values
                    qmin: -(1 << 15),
                    qmax: (1 << 15) - 1,
                })
                .collect(),
        };
        let want = reference_i64(&col, 4, 1, 2, &weights, &[0, 0], Some(&plan));
        assert_eq!(want[0], vec![(1 << 15) - 1, -(1 << 15), 25600, -25600]);
        assert_eq!(want[1], want[0]);
        for k in TIERS {
            let got = blocked(k, &col, 4, 1, 2, &weights, &[0, 0], Some(&plan));
            assert_eq!(want, got, "{k:?}");
        }
    }

    /// `co × rows` weights of two non-zero-row patterns, and their plan.
    fn two_pattern_weights(co: usize, rows: usize, seed: u64) -> (Vec<i64>, PackedWeights<i64>) {
        let mut weights = pseudo_i64(co * rows, seed, 1 << 10);
        for (i, v) in weights.iter_mut().enumerate() {
            if (i / rows) % 2 != (i % rows) % 2 {
                *v = 0;
            }
        }
        let w = PackedWeights::<i64>::new(co, rows, &weights);
        assert!(w.groups.len() >= 2, "{:?}", w.groups);
        (weights, w)
    }

    #[test]
    fn chunk_tasks_write_their_columns_of_every_group_in_place() {
        // Four column chunks (the last one partial) × two pattern
        // groups: every chunk task writes its own columns of all eight
        // output planes. The nightly Miri step runs this at pool 2.
        let (co, rows, plane) = (8, 6, 3 * NC_COLS + 5);
        let (weights, _) = two_pattern_weights(co, rows, 17);
        let col = pseudo_i64(rows * plane, 19, 1 << 10);
        let bias = pseudo_i64(co, 23, 1 << 20);
        let want = reference(&col, plane, rows, co, &weights, &bias);
        for k in TIERS {
            let got = blocked(k, &col, plane, rows, co, &weights, &bias, None);
            assert_eq!(want, got, "{k:?}");
        }
    }

    #[test]
    fn i32_chunk_tasks_equal_the_i64_product_through_the_fused_requant() {
        // The `i32` element on the shape of the test above (four chunks ×
        // two pattern groups; a Miri step too, on the scalar tile):
        // 10-bit operands over three non-zero rows stay far inside the
        // lane, so every integer is the `i64` product's, raw and through
        // a requantizer that saturates some of them.
        let (co, rows, plane) = (8, 6, 3 * NC_COLS + 5);
        let (weights, _) = two_pattern_weights(co, rows, 17);
        let col = pseudo_i64(rows * plane, 19, 1 << 10);
        let bias = pseudo_i64(co, 23, 1 << 20);
        let channel = |c| RequantChannel {
            from_frac: 12,
            to_frac: 7 - (c as i32 % 3),
            qmin: -(1 << 15),
            qmax: (1 << 15) - 1,
        };
        let plan = RequantPlan {
            channels: (0..co).map(channel).collect(),
        };
        let narrow = |v: &[i64]| v.iter().map(|x| *x as i32).collect::<Vec<_>>();
        let (w32, col32, bias32) = (narrow(&weights), narrow(&col), narrow(&bias));
        // The AVX2 gate: 16-bit operands short of −32768.
        assert!(i32::avx2_exact(&col32) && i32::avx2_exact(&[32767, -32767]));
        assert!(!i32::avx2_exact(&[-32768]) && !i32::avx2_exact(&[32768]));
        for requant in [None, Some(&plan)] {
            let want = reference_i64(&col, plane, rows, co, &weights, &bias, requant);
            let want: Vec<_> = want.iter().map(|p| narrow(p)).collect();
            for k in TIERS {
                let got = blocked(k, &col32, plane, rows, co, &w32, &bias32, requant);
                assert_eq!(want, got, "{k:?}");
            }
        }
    }

    #[test]
    fn chunk_tasks_write_their_row_segments_of_a_depth_to_space_sink() {
        // The test above for `r = 2` (also a Miri step): an 8×50 image
        // is four chunks, rows 2, 5 and 7 split between two tasks; channel
        // `c'·4 + ry·2 + rx` at `(y, x)` lands at `(2y + ry, 2x + rx)`.
        let (co, rows, h, iw, r) = (8, 6, 8, 50, 2);
        let plane = h * iw;
        let (weights, w) = two_pattern_weights(co, rows, 29);
        let col = pseudo_i64(rows * plane, 31, 1 << 10);
        let bias = pseudo_i64(co, 37, 1 << 20);
        let lanes = reference(&col, plane, rows, co, &weights, &bias);
        let mut want = vec![0i64; co * plane];
        for (c, lane) in lanes.iter().enumerate() {
            for (j, v) in lane.iter().enumerate() {
                let (oy, ox) = (j / iw * r + c / r % r, j % iw * r + c % r);
                want[c / (r * r) * plane * r * r + oy * iw * r + ox] = *v;
            }
        }
        let x = ConvInput::new(&col, rows, h, iw, Window::full(h, iw));
        for k in TIERS {
            let mut got = vec![i64::MIN; co * plane];
            forced_kernel_scope(k, || {
                conv_streaming(&x, 1, &w, &bias, (None, None), r, &mut got)
            });
            assert_eq!(want, got, "{k:?}");
        }
    }

    #[test]
    fn chunk_tasks_write_a_trimmed_region_of_a_depth_to_space_sink() {
        // The test above over a window narrower than the plane (a Miri
        // step too, scalar tile): the 8×50 region of a 10×56 image is
        // four chunks again, and every pixel is the one the untrimmed
        // product writes there.
        fn check<T: Element<NR> + Plane + std::fmt::Debug, const NR: usize>(cast: fn(i64) -> T)
        where
            T::Operand: TryFrom<T>,
        {
            let (co, rows, h, iw, r) = (8, 6, 10, 56, 2);
            let values = |v: Vec<i64>| v.into_iter().map(cast).collect::<Vec<_>>();
            let w = planned::<T, NR>(co, rows, &values(two_pattern_weights(co, rows, 41).0));
            let col = values(pseudo_i64(rows * h * iw, 43, 1 << 10));
            let bias = values(pseudo_i64(co, 47, 1 << 20));
            let run = |win: Window| {
                let x = ConvInput::new(&col, rows, h, iw, win);
                let mut out = vec![T::default(); co * win.h * win.w];
                let conv = || conv_streaming(&x, 1, &w, &bias, (None, None), r, &mut out);
                forced_kernel_scope(KernelBackend::Scalar, conv);
                out
            };
            let (whole, win) = (run(Window::full(h, iw)), Window::inset(h, iw, [1, 3, 1, 3]));
            let (oh, ow) = (win.h * r, win.w * r);
            for (i, v) in run(win).iter().enumerate() {
                let (c, oy, ox) = (i / (oh * ow), i / ow % oh + r, i % ow + 3 * r);
                assert_eq!(*v, whole[(c * h * r + oy) * iw * r + ox], "{c} {oy} {ox}");
            }
        }
        check::<i32, NR_I32>(|v| v as i32);
        check::<f32, NR_F32>(|v| v as f32 / 64.0);
    }

    #[test]
    fn chunk_tasks_run_a_row_mixing_epilogue_into_a_narrower_sink() {
        // Two chunk tasks, the second partial (a Miri step too, scalar
        // tile), from `i8` planes through `i32` lanes into `i8` planes:
        // the epilogue sees each chunk's finished `co × cw` lanes once —
        // whole rows, whichever MR block and pattern group computed them
        // — and turns every pair of channels into its clamped sum and
        // difference, which is what the planes must hold.
        fn mix(a: &mut i64, b: &mut i64) {
            (*a, *b) = ((*a + *b).clamp(-128, 127), (*a - *b).clamp(-128, 127));
        }
        let (co, rows, plane) = (8, 6, NC_COLS + 37);
        let weights: Vec<i64> = two_pattern_weights(co, rows, 53).0;
        let weights: Vec<i64> = weights.iter().map(|w| w >> 6).collect();
        let col = pseudo_i64(rows * plane, 59, 1 << 7);
        let bias: Vec<i64> = (0..co as i64).map(|c| 5 * c - 9).collect();
        let mut want = reference(&col, plane, rows, co, &weights, &bias);
        for pair in want.chunks_mut(2) {
            let [a, b] = pair else { unreachable!() };
            a.iter_mut().zip(b).for_each(|(a, b)| mix(a, b));
        }
        let want: Vec<i8> = want.concat().iter().map(|v| fit(*v)).collect();
        assert!(want.contains(&127) && want.iter().any(|v| (1..100).contains(v)));
        let fused = |block: &mut [i32], stride: usize, cw: usize| {
            assert!(cw <= stride && block.len() == co * stride);
            for pair in block.chunks_mut(2 * stride) {
                let (a, b) = pair.split_at_mut(stride);
                for (a, b) in a[..cw].iter_mut().zip(&mut b[..cw]) {
                    let (mut wa, mut wb) = (i64::from(*a), i64::from(*b));
                    mix(&mut wa, &mut wb);
                    (*a, *b) = (fit(wa), fit(wb));
                }
            }
        };
        let narrow = |v: &[i64]| v.iter().map(|v| fit(*v)).collect::<Vec<i16>>();
        let w = PackedWeights::<i16>::new(co, rows, &narrow(&weights));
        let col: Vec<i8> = col.iter().map(|v| fit(*v)).collect();
        let x = ConvInput::new(&col, rows, 1, plane, Window::full(1, plane));
        let bias: Vec<i32> = bias.iter().map(|v| fit(*v)).collect();
        let mut got = vec![i8::MIN; co * plane];
        let epilogues = (None, Some(&fused as ChunkEpilogue<'_, i32>));
        forced_kernel_scope(KernelBackend::Scalar, || {
            conv_streaming::<i32, _, _, NR_I32>(&x, 1, &w, &bias, epilogues, 1, &mut got)
        });
        assert_eq!(want, got);
    }

    #[test]
    fn forced_scope_restores_on_exit() {
        let outer = active_kernel();
        forced_kernel_scope(KernelBackend::Avx2, || {
            assert_eq!(active_kernel(), available(KernelBackend::Avx2));
            forced_kernel_scope(KernelBackend::Scalar, || {
                assert_eq!(active_kernel(), KernelBackend::Scalar);
            });
            assert_eq!(active_kernel(), available(KernelBackend::Avx2));
        });
        assert_eq!(active_kernel(), outer);
    }

    #[test]
    fn kernel_requests_are_refused_when_they_cannot_be_honoured() {
        use KernelBackend::{Avx2, Scalar};
        // Every advertised value parses on a host that has everything,
        // and each tier's label is its own spelling.
        for v in KERNEL_ENV_VALUES {
            let got = parse_kernel_request(v, Avx2).expect(v);
            assert_eq!(got.map(|k| k.label()), (v != "auto").then_some(v));
        }
        assert_eq!(parse_kernel_request("", Scalar), Ok(None));
        assert_eq!(parse_kernel_request("scalar", Scalar), Ok(Some(Scalar)));
        // avx2 without the CPU for it is an error naming the features,
        // never a silent downgrade.
        let err = parse_kernel_request("avx2", Scalar).unwrap_err();
        assert!(err.contains("avx2") && err.contains("fma"), "{err}");
        // The two retired tiers are typos now; the error lists what is
        // accepted.
        for gone in ["reference", "sse2", "AVX2"] {
            let err = parse_kernel_request(gone, Avx2).unwrap_err();
            assert!(err.contains(gone), "{err}");
            assert!(KERNEL_ENV_VALUES.iter().all(|v| err.contains(v)), "{err}");
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(KernelBackend::Avx2.label(), "avx2");
        assert_eq!(KernelBackend::Scalar.label(), "scalar");
    }
}

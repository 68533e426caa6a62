//! The step program: one forward of a model as a flat list of steps that
//! two drivers walk for either precision — the float program compiled
//! from [`Layer::describe`] ([`compile`]), the 8-bit one from the integer
//! layers of `ringcnn-quant`. Fusion is recorded in the program
//! ([`Epilogue`]). [`stream`] runs a frame as a line buffer, the CPU
//! frame path; [`run`] runs a whole image, or a tile of the block flow
//! (§V) that `ringcnn-esim` charges, and holds its tile arithmetic, read
//! off [`Op::geometry`]. A [`Datapath`] computes and is handed the rows
//! and columns to cut, never a [`TileHalo`].

use crate::layer::{Layer, Node, SkipKind};
use crate::layers::shuffle::{cropped, stacked};
use crate::runtime::TileHalo;
use ringcnn_imaging::degrade::upsample_window;
use ringcnn_tensor::prelude::*;
use std::borrow::Cow;
use std::ops::Range;

/// A pixel `(row, column)` of a plane.
pub type Point = (usize, usize);

/// One step of a program: a layer, by the handle of its [`Datapath`],
/// and what it does.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug)]
pub struct Step<L> {
    pub layer: L,
    pub op: Op<L>,
}

/// What a step does.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op<L> {
    /// A convolution of kernel radius `radius`.
    Conv {
        radius: usize,
        epilogue: Epilogue<L>,
    },
    Relu,
    /// The directional ReLU on a stored plane.
    DRelu,
    Shuffle(usize),
    Unshuffle(usize),
    /// A skip whose body is the `body` steps behind it.
    Skip {
        body: usize,
        kind: SkipKind,
    },
    /// An opaque layer; it keeps the resolution.
    Leaf,
}

/// What a convolution writes its output through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Epilogue<L> {
    /// Nothing.
    None,
    /// This directional ReLU, on each column chunk's accumulators (the
    /// integer engine's on-the-fly `fH`, Fig. 8).
    FH(L),
    /// The pixel shuffle of this factor (the float engine's sink).
    Shuffle(usize),
}

impl<L> Step<L> {
    /// The same step over the handles `f` makes of its layers (its own
    /// and a fused `fH`'s): the program on another [`Datapath`].
    pub fn map<M>(self, f: impl Fn(L) -> M) -> Step<M> {
        let op = match self.op {
            Op::Conv { radius, epilogue } => Op::Conv {
                radius,
                epilogue: match epilogue {
                    Epilogue::None => Epilogue::None,
                    Epilogue::FH(fh) => Epilogue::FH(f(fh)),
                    Epilogue::Shuffle(r) => Epilogue::Shuffle(r),
                },
            },
            Op::Relu => Op::Relu,
            Op::DRelu => Op::DRelu,
            Op::Shuffle(r) => Op::Shuffle(r),
            Op::Unshuffle(r) => Op::Unshuffle(r),
            Op::Skip { body, kind } => Op::Skip { body, kind },
            Op::Leaf => Op::Leaf,
        };
        let layer = f(self.layer);
        Step { layer, op }
    }
}

impl<L> Op<L> {
    /// What the step reads beside its body — the radius around an output
    /// pixel at its input resolution — and its scale `(num, den)`. The
    /// bicubic skip reaches 2 source pixels (its 4-tap kernel).
    pub fn geometry(&self) -> (usize, (usize, usize)) {
        match *self {
            Op::Conv {
                radius,
                epilogue: Epilogue::Shuffle(r),
            } => (radius, (r, 1)),
            Op::Conv { radius, .. } => (radius, (1, 1)),
            Op::Shuffle(r) => (0, (r, 1)),
            Op::Unshuffle(r) => (0, (1, r)),
            Op::Skip {
                kind: SkipKind::Bicubic(_),
                ..
            } => (2, (1, 1)),
            _ => (0, (1, 1)),
        }
    }
}

/// Appends the skip step of `layer` and behind it its compiled `body`.
pub fn push_skip<L>(program: &mut Vec<Step<L>>, layer: L, kind: SkipKind, body: Vec<Step<L>>) {
    let op = Op::Skip {
        body: body.len(),
        kind,
    };
    program.push(Step { layer, op });
    program.extend(body);
}

/// The arithmetic of one precision, implemented by the layer handle of
/// its programs: `&dyn Layer` on `f32` planes, `&QLayer` of
/// `ringcnn-quant` on `i8` planes in `i32` lanes; `ringcnn-esim` runs the
/// 8-bit program over shapes to charge the engine. An owned plane is
/// given up (a step may work in place on it), a borrowed one never
/// written.
pub trait Datapath: Copy {
    /// An activation.
    type Plane: Clone;

    /// The convolution `self` without the `cut` rows and columns (top,
    /// left, bottom, right) of its "same" output, through `epilogue`.
    fn conv(self, x: &Self::Plane, cut: [usize; 4], epilogue: Epilogue<Self>) -> Self::Plane;

    /// Any other step but a skip — ReLU, `fH`, a shuffle, an opaque
    /// layer — over `x` without `cut` (an unshuffle's, off its grid).
    fn apply(self, x: Cow<'_, Self::Plane>, cut: [usize; 4]) -> Self::Plane;

    /// `out +=` over the window at `at` what the skip `self` adds of `x`:
    /// `x`, or its bicubic upsampling placed at `x`'s `origin` in the frame.
    fn add_skip(self, out: &mut Self::Plane, x: &Self::Plane, at: Point, origin: Point);

    /// The rows `rows` of every plane of each part, stacked top to bottom
    /// in that order: a band of [`stream`] below the rows a step kept.
    fn stack(parts: &[(&Self::Plane, Range<usize>)]) -> Self::Plane;

    /// The height of `x`.
    fn rows(x: &Self::Plane) -> usize;
}

/// How many pixels around an output pixel `steps` read at their input
/// resolution, when the steps behind them read `after` around theirs:
/// the fold `n ← ⌈n·den/num⌉ + reach` back over [`Op::geometry`].
pub fn reads<L>(steps: &[Step<L>], after: usize) -> usize {
    steps.iter().rev().fold(after, |n, step| {
        let (reach, (num, den)) = step.op.geometry();
        (n * den).div_ceil(num) + reach
    })
}

/// Runs `program` on `x` inside `tile`, moving the tile past every step:
/// a convolution writes only the core and what the rest of the program
/// reads around it ([`reads`], [`TileHalo::conv`]), a skip adds over
/// the region its body wrote. Only the first step reads `x` as it is
/// handed. [`TileHalo::whole`] runs the whole image (`forward_infer`);
/// placed tiles are the block flow of `ringcnn-esim`, whose blocks are
/// `BatchRunner::tiles`. The CPU frame path is the line buffer of
/// [`stream`].
pub fn run<L: Datapath>(
    program: &[Step<L>],
    x: Cow<'_, L::Plane>,
    tile: &mut TileHalo,
) -> L::Plane {
    run_body(program, 0, x, tile)
}

/// [`run`] of a body behind which the program reads `after` pixels.
fn run_body<L: Datapath>(
    program: &[Step<L>],
    after: usize,
    mut x: Cow<'_, L::Plane>,
    tile: &mut TileHalo,
) -> L::Plane {
    let mut next = 0;
    while let Some(&Step { layer, op }) = program.get(next) {
        next += 1;
        let (_, (num, den)) = op.geometry();
        x = Cow::Owned(match op {
            Op::Conv { epilogue, .. } => {
                let keep = reads(&program[next..], after).div_ceil(num);
                layer.conv(&x, tile.conv(keep, num), epilogue)
            }
            Op::Skip { body, kind } => {
                let origin = tile.origin();
                let f = match kind {
                    SkipKind::Bicubic(f) => f,
                    SkipKind::Residual => 1,
                };
                let [top, left, ..] = tile.margin.map(|m| m * f);
                let (body, rest) = program[next..].split_at(body);
                let mut out = run_body(body, reads(rest, after), Cow::Borrowed(&*x), tile);
                next += body.len();
                let at = (top - tile.margin[0], left - tile.margin[1]);
                layer.add_skip(&mut out, &x, at, origin);
                out
            }
            _ => {
                // A margin trimmed off an unshuffle's grid loses the rows
                // and columns that fill no coarse pixel.
                let cut = tile.margin.map(|m| m % den);
                tile.leaf((num, den));
                layer.apply(x, cut)
            }
        });
    }
    x.into_owned()
}

/// Rows `first..` of a full-width activation: the plane and the frame row
/// of its first row, at the plane's resolution.
type Band<P> = (P, usize);

/// Rows a step of a line buffer keeps between two calls.
struct Kept<P>(Option<Band<P>>);

impl<P: Clone> Kept<P> {
    /// Appends `x`, the rows right below the kept ones.
    fn append<L: Datapath<Plane = P>>(&mut self, x: Option<Band<Cow<'_, P>>>) {
        let Some((x, first)) = x else { return };
        self.0 = Some(match self.0.take() {
            Some((kept, at)) => {
                debug_assert_eq!(at + L::rows(&kept), first, "bands arrive in order");
                let parts = [(&kept, 0..L::rows(&kept)), (&*x, 0..L::rows(&x))];
                (L::stack(&parts), at)
            }
            None => (x.into_owned(), first),
        });
    }

    /// The kept rows: the plane, its first row and the row below its last.
    fn view<L: Datapath<Plane = P>>(&self) -> Option<(&P, usize, usize)> {
        let (plane, first) = self.0.as_ref()?;
        Some((plane, *first, first + L::rows(plane)))
    }

    /// Drops the kept rows above `row`.
    fn keep_from<L: Datapath<Plane = P>>(&mut self, row: usize) {
        if let Some((plane, first)) = self.0.take() {
            let end = first + L::rows(&plane);
            self.0 = match row {
                _ if row <= first => Some((plane, first)),
                _ if row < end => Some((L::stack(&[(&plane, row - first..end - first)]), row)),
                _ => None,
            };
        }
    }

    /// Takes the kept rows above `row` out, if there are any; the rest
    /// stays kept.
    fn take_above<L: Datapath<Plane = P>>(&mut self, row: usize) -> Option<Band<P>> {
        let (plane, first) = self.0.take()?;
        let end = first + L::rows(&plane);
        if row >= end {
            return Some((plane, first));
        }
        let top = (row > first).then(|| (L::stack(&[(&plane, 0..row - first)]), first));
        self.0 = Some((plane, first));
        self.keep_from::<L>(row);
        top
    }
}

/// What one step of a line buffer holds between two calls.
struct Held<P> {
    /// Its input rows it reads again: a convolution's seam, an
    /// unshuffle's rows that fill no coarse row yet, a skip's input that
    /// its add still needs.
    input: Kept<P>,
    /// A skip's body output whose add waits for source rows below.
    body: Kept<P>,
    /// The next row it emits, at its input resolution (coarse rows for
    /// an unshuffle): set by the first band it is handed.
    next: Option<usize>,
}

impl<P: Clone> Held<P> {
    /// The convolution `step` of radius `k` over input rows `x` of a
    /// frame `h` rows high, at most `band` rows: the rows whose taps are
    /// all at hand or past an edge of the frame (zero padding there),
    /// from the `k`-th below an interior first row on.
    fn conv<L>(
        &mut self,
        step: Step<L>,
        x: Option<Band<Cow<'_, P>>>,
        [h, band]: [usize; 2],
    ) -> Option<Band<P>>
    where
        L: Datapath<Plane = P>,
    {
        let Op::Conv {
            radius: k,
            epilogue,
        } = step.op
        else {
            unreachable!("a conv step")
        };
        self.input.append::<L>(x);
        let (plane, first, end) = self.input.view::<L>()?;
        let next = *self
            .next
            .get_or_insert(if first == 0 { 0 } else { first + k });
        let last = if end == h { h } else { end.saturating_sub(k) }.min(next + band);
        if next >= last {
            return None;
        }
        let y = step
            .layer
            .conv(plane, [next - first, 0, end - last, 0], epilogue);
        self.next = Some(last);
        self.input.keep_from::<L>(last.saturating_sub(k));
        Some((y, next * step.op.geometry().1 .0))
    }

    /// An unshuffle of factor `r` over input rows `x`: the coarse rows of
    /// the frame's grid that `x` and the rows kept fill, at most `band`.
    fn unshuffle<L>(
        &mut self,
        layer: L,
        r: usize,
        x: Option<Band<Cow<'_, P>>>,
        band: usize,
    ) -> Option<Band<P>>
    where
        L: Datapath<Plane = P>,
    {
        self.input.append::<L>(x);
        let (plane, first, end) = self.input.view::<L>()?;
        let next = *self.next.get_or_insert(first.div_ceil(r));
        let last = (end / r).min(next + band);
        if next >= last {
            return None;
        }
        let y = layer.apply(
            Cow::Borrowed(plane),
            [next * r - first, 0, end - last * r, 0],
        );
        self.next = Some(last);
        self.input.keep_from::<L>(last * r);
        Some((y, next))
    }

    /// The skip `layer` of `kind` over its input rows `x` of a frame `h`
    /// rows high and its body's output rows `out`: at most `band` rows of
    /// the body's output whose skip rows are at hand, with the skip added.
    fn skip<L>(
        &mut self,
        layer: L,
        kind: SkipKind,
        (x, out): (Option<Band<Cow<'_, P>>>, Option<Band<P>>),
        [h, band]: [usize; 2],
    ) -> Option<Band<P>>
    where
        L: Datapath<Plane = P>,
    {
        self.input.append::<L>(x);
        self.body
            .append::<L>(out.map(|(y, first)| (Cow::Owned(y), first)));
        let (_, next, body_end) = self.body.view::<L>()?;
        let (_, _, end) = self.input.view::<L>()?;
        // A bicubic sample reads 2 source rows below its own, clamped to
        // the plane it is handed: the frame's last row must be there.
        let last = match kind {
            SkipKind::Residual => end,
            SkipKind::Bicubic(_) if end == h => body_end,
            SkipKind::Bicubic(f) => end.saturating_sub(2) * f,
        };
        let (mut y, first) = self.body.take_above::<L>(last.min(next + band))?;
        let (x, x_first, _) = self.input.view::<L>()?;
        let (f, keep) = match kind {
            SkipKind::Residual => (1, first + L::rows(&y)),
            // A sample reads from 2 source rows above its own on.
            SkipKind::Bicubic(f) => (f, ((first + L::rows(&y)) / f).saturating_sub(2)),
        };
        layer.add_skip(&mut y, x, (first - x_first * f, 0), (x_first, 0));
        self.input.keep_from::<L>(keep);
        Some((y, first))
    }
}

/// `n` rows at the resolution `(num, den)` (`num` rows per `den` input rows).
fn at_res(n: usize, (num, den): (usize, usize)) -> usize {
    n * num / den
}

/// The resolution behind a step of scale `(num, den)`, reduced.
fn rescale((a, b): (usize, usize), (num, den): (usize, usize)) -> (usize, usize) {
    let (a, b) = (a * num, b * den);
    let g = crate::runtime::gcd(a, b);
    (a / g, b / g)
}

/// The band of [`stream`] for a frame `w` pixels wide: the fewest rows at
/// the program's coarsest resolution that fill one GEMM column chunk
/// ([`NC_COLS`]), in input rows rounded up to the model's granularity.
/// DnERNet's 256-px frames stream 1 half-resolution row (2 input rows),
/// SR4ERNet's 64-px frames 2 rows.
///
/// [`NC_COLS`]: ringcnn_tensor::gemm::NC_COLS
pub fn band<L>(program: &[Step<L>], w: usize) -> usize {
    let mut res = (1, 1);
    let mut coarse = res;
    for step in program {
        res = rescale(res, step.op.geometry().1);
        if res.0 * coarse.1 < coarse.0 * res.1 {
            coarse = res;
        }
    }
    let g = crate::runtime::ModelTopo::of(program).granularity;
    let rows = ringcnn_tensor::gemm::NC_COLS.div_ceil(at_res(w, coarse).max(1));
    (rows * coarse.1).div_ceil(coarse.0).next_multiple_of(g)
}

/// A step program run as a line buffer ([`stream`]): per step, the rows
/// of its input frame and of one band at its input and output
/// resolutions, and what it holds.
struct Line<'p, L: Datapath> {
    program: &'p [Step<L>],
    geo: Vec<[usize; 3]>,
    held: Vec<Held<L::Plane>>,
    /// Whether a step emitted rows since this was last cleared.
    moved: bool,
}

impl<'p, L: Datapath> Line<'p, L> {
    fn new(program: &'p [Step<L>], h: usize, band: usize) -> Self {
        let mut res = (1, 1);
        let geo = (0..program.len())
            .map(|i| {
                let rows_in = [at_res(h, res), at_res(band, res)];
                res = rescale(res, program[i].op.geometry().1);
                // A skip's output is its body's.
                let out = match program[i].op {
                    Op::Skip { body, .. } => program[i + 1..=i + body]
                        .iter()
                        .fold(res, |r, step| rescale(r, step.op.geometry().1)),
                    _ => res,
                };
                [rows_in[0], rows_in[1], at_res(band, out)]
            })
            .collect();
        let held = program.iter().map(|_| Held {
            input: Kept(None),
            body: Kept(None),
            next: None,
        });
        let held = held.collect();
        Self {
            program,
            geo,
            held,
            moved: false,
        }
    }

    /// Hands `x` (`None`: no new rows) to the steps `steps` in turn and
    /// returns what the last one emits: at most one band at its own
    /// resolution.
    fn push(
        &mut self,
        steps: Range<usize>,
        mut x: Option<Band<Cow<'_, L::Plane>>>,
    ) -> Option<Band<L::Plane>> {
        let mut i = steps.start;
        while i < steps.end {
            let step @ Step { layer, op } = self.program[i];
            let [h, band_in, band_out] = self.geo[i];
            let y = match op {
                Op::Conv { .. } => self.held[i].conv(step, x, [h, band_in]),
                Op::Unshuffle(r) => self.held[i].unshuffle(layer, r, x, band_out),
                Op::Skip { body, kind } => {
                    let lent = x.as_ref().map(|(x, first)| (Cow::Borrowed(&**x), *first));
                    let out = self.push(i + 1..i + 1 + body, lent);
                    let y = self.held[i].skip(layer, kind, (x, out), [h, band_out]);
                    i += body;
                    y
                }
                _ => x.map(|(x, first)| {
                    let (num, den) = op.geometry().1;
                    let rows = L::rows(&x);
                    let y = layer.apply(x, [0; 4]);
                    assert_eq!(
                        L::rows(&y) * den,
                        rows * num,
                        "model is not tileable: a {rows}-row band at scale {num}/{den} came out \
                         {} rows high; spatially non-uniform layers such as global pooling \
                         cannot run on bands of rows",
                        L::rows(&y),
                    );
                    (y, first * num / den)
                }),
            };
            self.moved |= y.is_some();
            x = y.map(|(y, first)| (Cow::Owned(y), first));
            i += 1;
        }
        x.map(|(x, first)| (x.into_owned(), first))
    }
}

/// Runs `program` as a line buffer over the input rows `rows` of a frame
/// `h` rows high: `read` hands it full-width bands of `band` input rows
/// top to bottom, and every step keeps only the rows of its input that
/// its next output rows read again — a convolution of radius `k` the
/// last `2k` (its seam), an unshuffle the rows short of a coarse row, a
/// skip its input from its body's next output row on (a bicubic skip 2
/// source rows more, above). A step emits the rows whose taps are all at
/// hand: at the frame's top and bottom the whole image's zero padding
/// stands in for missing rows; at an interior edge of `rows` a
/// convolution cuts `k` rows. Each step emits at most one band at its own
/// resolution per call, so the rows left in the pipeline when the input
/// ends are flushed band by band. `emit` gets every output band with its
/// first row in the output frame.
///
/// Per element nothing changes: a row's taps are the whole image's, in
/// the same order, so the rows emitted are [`run`]'s over the whole image
/// bit for bit. Over the whole frame, every convolution computes each of
/// its output pixels once.
pub fn stream<L: Datapath>(
    program: &[Step<L>],
    h: usize,
    rows: Range<usize>,
    band: usize,
    read: impl Fn(Range<usize>) -> L::Plane,
    mut emit: impl FnMut(L::Plane, usize),
) {
    let mut line = Line::new(program, h, band.max(1));
    let all = 0..program.len();
    let mut start = rows.start;
    while start < rows.end {
        let end = (start + band.max(1)).min(rows.end);
        let x = (Cow::Owned(read(start..end)), start);
        if let Some((y, first)) = line.push(all.clone(), Some(x)) {
            emit(y, first);
        }
        start = end;
    }
    loop {
        line.moved = false;
        if let Some((y, first)) = line.push(all.clone(), None) {
            emit(y, first);
        }
        if !line.moved {
            return;
        }
    }
}

/// The layers of a chain in execution order, nested chains spliced in.
pub fn leaves(layer: &dyn Layer) -> Vec<(&dyn Layer, Node<'_>)> {
    match layer.describe() {
        Node::Chain(layers) => layers.iter().flat_map(|l| leaves(l.as_ref())).collect(),
        node => vec![(layer, node)],
    }
}

/// The float program of `model`: its [`leaves`], each skip's body behind
/// it, a convolution whose kernel writes through a shuffle
/// ([`AnyConv::fuses_shuffle`]) fused with the shuffle right behind it.
///
/// [`AnyConv::fuses_shuffle`]: crate::layers::conv::AnyConv::fuses_shuffle
pub fn compile(model: &dyn Layer) -> Vec<Step<&dyn Layer>> {
    let mut program = Vec::new();
    let mut chain = leaves(model).into_iter().peekable();
    while let Some((layer, node)) = chain.next() {
        let op = match node {
            Node::Conv(c) => {
                let epilogue = match chain.peek() {
                    Some(&(_, Node::Shuffle(r))) if c.fuses_shuffle() => Epilogue::Shuffle(r),
                    _ => Epilogue::None,
                };
                // The shuffle it writes through is no step of its own.
                chain.next_if(|_| matches!(epilogue, Epilogue::Shuffle(_)));
                Op::Conv {
                    radius: c.parts().0.shape().2 / 2,
                    epilogue,
                }
            }
            Node::Relu => Op::Relu,
            Node::DRelu(_) => Op::DRelu,
            Node::Shuffle(r) => Op::Shuffle(r),
            Node::Unshuffle(r) => Op::Unshuffle(r),
            Node::Skip(body, kind) => {
                push_skip(&mut program, layer, kind, compile(body));
                continue;
            }
            Node::Chain(_) | Node::Opaque => Op::Leaf,
        };
        program.push(Step { layer, op });
    }
    program
}

/// [`run`] of the float program of `model` over `input` inside `tile`.
pub fn forward_tile(model: &dyn Layer, input: &Tensor, tile: &mut TileHalo) -> Tensor {
    run(&compile(model), Cow::Borrowed(input), tile)
}

/// `f32` planes: a layer runs itself, an element-wise one in place on a
/// plane it is given ([`Layer::forward_step`]).
impl Datapath for &dyn Layer {
    type Plane = Tensor;

    fn conv(self, x: &Tensor, cut: [usize; 4], epilogue: Epilogue<Self>) -> Tensor {
        let Node::Conv(conv) = self.describe() else {
            unreachable!("a conv step holds a convolution")
        };
        let r = match epilogue {
            Epilogue::Shuffle(r) => r,
            _ => 1,
        };
        conv.forward_region(x, cut, r)
    }

    fn apply(self, x: Cow<'_, Tensor>, cut: [usize; 4]) -> Tensor {
        if cut == [0; 4] {
            return self.forward_step(x);
        }
        let (s, data) = cropped(x.as_slice(), x.shape(), cut);
        self.forward_step(Cow::Owned(Tensor::from_vec(s, data)))
    }

    fn add_skip(self, out: &mut Tensor, x: &Tensor, (top, left): Point, origin: Point) {
        let Node::Skip(_, SkipKind::Bicubic(f)) = self.describe() else {
            return out.add_window(x, top, left);
        };
        let window = (top, left, out.shape().h, out.shape().w);
        out.add_assign(&upsample_window(x, f, window, origin));
    }

    fn stack(parts: &[(&Tensor, Range<usize>)]) -> Tensor {
        let parts: Vec<_> = parts
            .iter()
            .map(|(t, rows)| (t.as_slice(), t.shape(), rows.clone()))
            .collect();
        let (s, data) = stacked(&parts);
        Tensor::from_vec(s, data)
    }

    fn rows(x: &Tensor) -> usize {
        x.shape().h
    }
}

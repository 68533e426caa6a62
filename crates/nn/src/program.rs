//! The step program: one forward of a model as a flat list of steps that
//! one driver walks for either precision — the float program compiled
//! from [`Layer::describe`] ([`compile`]), the 8-bit one from the integer
//! layers of `ringcnn-quant`. Fusion is recorded in the program
//! ([`Epilogue`]). The driver, [`stream`], runs a window of a frame as a
//! line buffer: the CPU frame path streams row sections in bands; the
//! whole image (`forward_infer`, calibration) and the blocks of the block
//! flow (§V) that `ringcnn-esim` charges are windows streamed in one band
//! ([`once`]). One edge rule, read off [`Op::geometry`], sizes every step
//! of every window ([`margins`]); a [`Datapath`] computes and is handed
//! the rows and columns to cut.

use crate::layer::{Layer, Node, SkipKind};
use crate::layers::shuffle::{cropped, stacked};
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

    /// The shape of `x`.
    fn shape(x: &Self::Plane) -> Shape4;
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

/// The edge rule of a window, folded over `program`: the pixels beyond
/// the core (top, left, bottom, right) each step enters with, at its
/// input resolution, when the window enters with `entry` — and last,
/// what the output keeps. A convolution keeps of a margin what the rest
/// of the program reads ([`reads`]) and cuts the rest, an unshuffle
/// crops the pixels off its grid, and every step rescales what it keeps.
/// A side at the frame's edge enters with 0: there every convolution
/// pads with zeros, as over the whole image.
pub fn margins<L>(program: &[Step<L>], entry: [usize; 4]) -> Vec<[usize; 4]> {
    let mut margins = vec![entry];
    for (i, step) in program.iter().enumerate() {
        let (_, (num, den)) = step.op.geometry();
        let keep = match step.op {
            Op::Conv { .. } => reads(&program[i + 1..], 0).div_ceil(num),
            _ => usize::MAX,
        };
        margins.push(margins[i].map(|m| m.min(keep) * num / den));
    }
    margins
}

/// Rows `first..` of an activation, the window's columns: the plane and
/// the frame row of its first row, at the plane's resolution.
type Band<P> = (P, usize);

/// Rows a step of a line buffer keeps between two calls.
struct Kept<P>(Option<Band<P>>);

impl<P: Clone> Kept<P> {
    /// The kept rows and `x`, the rows right below them, as one band;
    /// nothing stays kept.
    fn join<'a, L: Datapath<Plane = P>>(
        &mut self,
        x: Option<Band<Cow<'a, P>>>,
    ) -> Option<Band<Cow<'a, P>>> {
        match (self.0.take(), x) {
            (None, x) => x,
            (Some((kept, at)), None) => Some((Cow::Owned(kept), at)),
            (Some((kept, at)), Some((x, first))) => {
                debug_assert_eq!(at + L::shape(&kept).h, first, "bands arrive in order");
                let parts = [(&kept, 0..L::shape(&kept).h), (&*x, 0..L::shape(&x).h)];
                Some((Cow::Owned(L::stack(&parts)), at))
            }
        }
    }

    /// Keeps the rows of `x` from `row` on.
    fn keep<L: Datapath<Plane = P>>(&mut self, (x, first): Band<Cow<'_, P>>, row: usize) {
        let end = first + L::shape(&x).h;
        self.0 = match row {
            _ if row <= first => Some((x.into_owned(), first)),
            _ if row < end => Some((L::stack(&[(&*x, row - first..end - first)]), row)),
            _ => None,
        };
    }
}

/// Where a step of a line buffer works, at its input resolution: the
/// frame rows of its window, the window's first column, the rows and
/// columns it cuts (top, left, bottom, right; [`margins`]), and the rows
/// of a band.
struct Geo {
    rows: Range<usize>,
    left: usize,
    cut: [usize; 4],
    band: usize,
}

/// What one step of a line buffer holds between two calls.
struct Held<P> {
    /// Its input rows it reads again: a convolution's seam, an
    /// unshuffle's rows that fill no coarse row yet, a skip's input that
    /// its add still needs.
    input: Kept<P>,
    /// A skip's body output whose add waits for source rows below.
    body: Kept<P>,
    /// The next row it emits: set by the first band it is handed.
    next: Option<usize>,
    /// Whether it emitted the last row of its window.
    done: bool,
}

impl<P: Clone> Held<P> {
    /// The rows to emit now: from `start` on (its window's first, taken
    /// on the first call) up to `to`, at most `band` of them and none
    /// past `last`, its window's end; the empty rows of an empty window
    /// once.
    fn span(&mut self, start: usize, to: usize, [last, band]: [usize; 2]) -> Option<Range<usize>> {
        let next = *self.next.get_or_insert(start);
        let to = to.min(last).min(next + band);
        if self.done || (next >= to && to < last) {
            return None;
        }
        self.next = Some(to);
        self.done = to == last;
        Some(next..to)
    }

    /// The convolution `step` of radius `k` over input rows `x`: the rows
    /// of its window, without the cut, whose taps are all at hand —
    /// every row's at the end of its window.
    fn conv<L>(&mut self, step: Step<L>, x: Option<Band<Cow<'_, P>>>, geo: &Geo) -> Option<Band<P>>
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
        let (x, first) = self.input.join::<L>(x)?;
        let end = first + L::shape(&x).h;
        let [top, left, bottom, right] = geo.cut;
        let reach = if end == geo.rows.end { 0 } else { k };
        let last = [geo.rows.end - bottom, geo.band];
        let Some(rows) = self.span(geo.rows.start + top, end.saturating_sub(reach), last) else {
            self.input
                .keep::<L>((x, first), if self.done { end } else { first });
            return None;
        };
        let cut = [rows.start - first, left, end - rows.end, right];
        let y = step.layer.conv(&x, cut, epilogue);
        let seam = if self.done {
            end
        } else {
            rows.end.saturating_sub(k)
        };
        self.input.keep::<L>((x, first), seam);
        Some((y, rows.start * step.op.geometry().1 .0))
    }

    /// An unshuffle of factor `r` over input rows `x`: the coarse rows of
    /// its output window `out` that `x` and the rows kept fill.
    fn unshuffle<L>(
        &mut self,
        (layer, r): (L, usize),
        x: Option<Band<Cow<'_, P>>>,
        [geo, out]: [&Geo; 2],
    ) -> Option<Band<P>>
    where
        L: Datapath<Plane = P>,
    {
        let (x, first) = self.input.join::<L>(x)?;
        let end = first + L::shape(&x).h;
        let Some(rows) = self.span(out.rows.start, end / r, [out.rows.end, out.band]) else {
            self.input.keep::<L>((x, first), first);
            return None;
        };
        // At the end of its window it crops its cut: a plane off its grid
        // reaches the layer, which refuses it.
        let bottom = if self.done && end == geo.rows.end {
            geo.cut[2]
        } else {
            end - rows.end * r
        };
        let cut = [rows.start * r - first, geo.cut[1], bottom, geo.cut[3]];
        let y = layer.apply(Cow::Borrowed(&*x), cut);
        self.input.keep::<L>((x, first), rows.end * r);
        Some((y, rows.start))
    }

    /// The skip `layer` of `kind` over its input rows `x` (in the window
    /// `geo`) and its body's output rows `out` (in `out_geo`): at most a
    /// band of the body's output whose skip rows are at hand, with the
    /// skip added.
    fn skip<L>(
        &mut self,
        (layer, kind): (L, SkipKind),
        (x, out): (Option<Band<Cow<'_, P>>>, Option<Band<P>>),
        [geo, out_geo]: [&Geo; 2],
    ) -> Option<Band<P>>
    where
        L: Datapath<Plane = P>,
    {
        let (x, x_first) = self.input.join::<L>(x)?;
        let x_end = x_first + L::shape(&x).h;
        let out = out.map(|(y, first)| (Cow::Owned(y), first));
        let Some((body, next)) = self.body.join::<L>(out) else {
            self.input.keep::<L>((x, x_first), x_first);
            return None;
        };
        let body_end = next + L::shape(&body).h;
        // A bicubic sample reads 2 source rows below its own, clamped to
        // the plane it is handed: the window's last row must be there.
        let last = match kind {
            SkipKind::Residual => x_end,
            SkipKind::Bicubic(_) if x_end == geo.rows.end => body_end,
            SkipKind::Bicubic(f) => x_end.saturating_sub(2) * f,
        };
        let to = last.min(next + out_geo.band).min(body_end);
        if to <= next && next < body_end {
            self.body.keep::<L>((body, next), next);
            self.input.keep::<L>((x, x_first), x_first);
            return None;
        }
        let mut y = if to < body_end {
            let top = L::stack(&[(&*body, 0..to - next)]);
            self.body.keep::<L>((body, next), to);
            top
        } else {
            body.into_owned()
        };
        let (f, keep) = match kind {
            SkipKind::Residual => (1, to),
            // A sample reads from 2 source rows above its own on.
            SkipKind::Bicubic(f) => (f, (to / f).saturating_sub(2)),
        };
        let at = (next - x_first * f, out_geo.left - geo.left * f);
        layer.add_skip(&mut y, &x, at, (x_first, geo.left));
        self.input.keep::<L>((x, x_first), keep);
        Some((y, next))
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

/// A step program run as a line buffer ([`stream`]): per step, where it
/// works ([`Geo`], and one more for the output) and what it holds.
struct Line<'p, L: Datapath> {
    program: &'p [Step<L>],
    geo: Vec<Geo>,
    held: Vec<Held<L::Plane>>,
    /// Whether a step emitted rows since this was last cleared.
    moved: bool,
}

impl<'p, L: Datapath> Line<'p, L> {
    /// The line buffer of `program` over `window`, which enters with
    /// `entry` pixels beyond its core, in bands of `band` input rows: the
    /// edge rule ([`margins`]) folded once.
    fn new(program: &'p [Step<L>], window: Window, entry: [usize; 4], band: usize) -> Self {
        let margins = margins(program, entry);
        let mut res = vec![(1, 1)];
        for step in program {
            res.push(rescale(res[res.len() - 1], step.op.geometry().1));
        }
        let (y0, x0) = (window.y0 as usize, window.x0 as usize);
        let core = [y0 + entry[0], x0 + entry[1], y0 + window.h - entry[2]];
        let geo = margins.iter().enumerate().map(|(i, m)| {
            let [top, left, bottom] = core.map(|c| at_res(c, res[i]));
            let cut = program.get(i).map_or([0; 4], |step| {
                let (_, (num, den)) = step.op.geometry();
                [0, 1, 2, 3].map(|s| m[s] - margins[i + 1][s] * den / num)
            });
            Geo {
                rows: top - m[0]..bottom + m[2],
                left: left - m[1],
                cut,
                band: at_res(band, res[i]),
            }
        });
        let held = program.iter().map(|_| Held {
            input: Kept(None),
            body: Kept(None),
            next: None,
            done: false,
        });
        Self {
            program,
            geo: geo.collect(),
            held: held.collect(),
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
            let y = match op {
                Op::Conv { .. } => self.held[i].conv(step, x, &self.geo[i]),
                Op::Unshuffle(r) => {
                    let geo = [&self.geo[i], &self.geo[i + 1]];
                    self.held[i].unshuffle((layer, r), x, geo)
                }
                Op::Skip { body, kind } => {
                    let lent = x.as_ref().map(|(x, first)| (Cow::Borrowed(&**x), *first));
                    let out = self.push(i + 1..i + 1 + body, lent);
                    let geo = [&self.geo[i], &self.geo[i + 1 + body]];
                    let y = self.held[i].skip((layer, kind), (x, out), geo);
                    i += body;
                    y
                }
                _ => x.map(|(x, first)| {
                    let (num, den) = op.geometry().1;
                    let rows = L::shape(&x).h;
                    let y = layer.apply(x, [0; 4]);
                    // A layer that is handed its whole window may change
                    // its height: the window is the output.
                    assert!(
                        rows == self.geo[i].rows.len() || L::shape(&y).h * den == rows * num,
                        "model is not tileable: a {rows}-row band at scale {num}/{den} came out \
                         {} rows high; spatially non-uniform layers such as global pooling \
                         cannot run on bands of rows",
                        L::shape(&y).h,
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

/// Runs `program` as a line buffer over `window` of a frame, whose sides
/// (top, left, bottom, right) lie `margin` pixels beyond the core whose
/// output is wanted — 0 at the frame's edge. `read` hands it the window's
/// columns of `band` input rows at a time, top to bottom, and every step
/// keeps only the rows of its input that its next output rows read again:
/// a convolution of radius `k` the last `2k` (its seam), an unshuffle the
/// rows short of a coarse row, a skip its input from its body's next
/// output row on (a bicubic skip 2 source rows more, above). One edge
/// rule sizes every step ([`margins`]): it cuts its columns from every
/// band, its rows from the first and the last, and emits the rows whose
/// taps are all at hand — at the end of its window, all of them. Each
/// step emits at most one band at its own resolution per call, so the
/// rows left in the pipeline when the input ends are flushed band by
/// band. `emit` gets every output band with its first row in the output
/// frame.
///
/// Per element nothing changes: a row's taps are the whole image's, in
/// the same order, so every window emits the whole image's pixels bit
/// for bit. Within a window every convolution computes each of its
/// output pixels once. Streamed in one band ([`once`]), a window is a
/// block of the block flow, and the frame's window the whole image.
pub fn stream<'x, L: Datapath>(
    program: &[Step<L>],
    (window, margin): (Window, [usize; 4]),
    band: usize,
    mut read: impl FnMut(Range<usize>) -> Cow<'x, L::Plane>,
    mut emit: impl FnMut(L::Plane, usize),
) where
    L::Plane: 'x,
{
    let band = band.max(1);
    let mut line = Line::new(program, window, margin, band);
    let rows = line.geo[0].rows.clone();
    // The first input row still to read.
    let mut next = Some(rows.start);
    loop {
        line.moved = false;
        let x = next.map(|start| {
            let end = (start + band).min(rows.end);
            next = (end < rows.end).then_some(end);
            (read(start..end), start)
        });
        let fed = x.is_some();
        if let Some((y, first)) = line.push(0..program.len(), x) {
            emit(y, first);
        }
        if !fed && !line.moved {
            return;
        }
    }
}

/// [`stream`] of all of `x` in one band, a window of its own frame
/// with `margin` pixels beyond its core on each side: the core and the
/// margins the rest of the program reads. With no margins it is the
/// whole image; with a block's, a block of the block flow.
pub fn once<L: Datapath>(
    program: &[Step<L>],
    x: Cow<'_, L::Plane>,
    margin: [usize; 4],
) -> L::Plane {
    let Shape4 { h, w, .. } = L::shape(&x);
    let (mut x, mut out) = (Some(x), None);
    let read = |_| x.take().expect("one band");
    stream(program, (Window::full(h, w), margin), h, read, |y, _| {
        out = Some(y);
    });
    out.expect("a window emits one band")
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

/// The float program of `model` over the whole of `input`.
pub fn forward(model: &dyn Layer, input: &Tensor) -> Tensor {
    once(&compile(model), Cow::Borrowed(input), [0; 4])
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

    fn shape(x: &Tensor) -> Shape4 {
        x.shape()
    }
}

//! The step program: one forward of a model as a flat list of steps that
//! one driver, [`run`], walks for either precision — the float program
//! compiled from [`Layer::describe`] ([`compile`]), the 8-bit one from
//! the integer layers of `ringcnn-quant`. Fusion is recorded in the
//! program ([`Epilogue`]). [`run`] holds the tile arithmetic of the block
//! flow (§V), read off [`Op::geometry`]; a [`Datapath`] computes and is
//! handed the rows and columns to cut, never a [`TileHalo`].

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
    /// in that order: the strips a tile's tail ran in, as one activation.
    fn stack(parts: &[(Self::Plane, Range<usize>)]) -> Self::Plane;

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
/// handed.
///
/// A convolution that widens through a ×`r` shuffle, with another
/// convolution behind it in its body, runs with the rest of that body
/// over `r` row strips of the core ([`TileHalo::strip`]), stacked into
/// the body's output ([`Datapath::stack`]); a strip's tail that widens
/// again strips again. No tile holds a full-resolution plane of any
/// upsampling stage. A whole image (no margins) keeps whole planes.
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
    while let Some(&step @ Step { layer, op }) = program.get(next) {
        next += 1;
        let (_, (num, den)) = op.geometry();
        x = Cow::Owned(match op {
            Op::Conv { epilogue, .. } => match in_strips(step, &program[next..], after, &x, tile) {
                Some(out) => {
                    next = program.len();
                    out
                }
                None => {
                    let keep = reads(&program[next..], after).div_ceil(num);
                    layer.conv(&x, tile.conv(keep, num), epilogue)
                }
            },
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

/// The convolution `conv` through its ×`r` shuffle and the `tail` of its
/// body behind it, behind which the program reads `after` pixels, run
/// over `r` row strips of the tile's core, stacked into the body's
/// output — or `None`, to run them whole: `conv` writes through no
/// shuffle, `tail` holds no convolution that reads around its pixels,
/// or `tile` is a whole image. Every strip reads the shared `x` through
/// its own cut ([`TileHalo::strip`]).
fn in_strips<L: Datapath>(
    conv: Step<L>,
    tail: &[Step<L>],
    after: usize,
    x: &L::Plane,
    tile: &mut TileHalo,
) -> Option<L::Plane> {
    let Op::Conv {
        epilogue: Epilogue::Shuffle(r),
        ..
    } = conv.op
    else {
        return None;
    };
    let reads_around = |s: &Step<L>| matches!(s.op, Op::Conv { radius: 1.., .. });
    let h = L::rows(x) - tile.margin[0] - tile.margin[2];
    if !tail.iter().any(reads_around) || tile.margin == [0; 4] || h == 0 {
        return None;
    }
    let keep = reads(tail, after).div_ceil(r);
    let strips: Vec<_> = (0..r)
        .map(|i| (i * h / r, (i + 1) * h / r))
        .filter(|(top, end)| top < end)
        .map(|(top, end)| {
            let (mut strip, cut) = tile.strip(keep, r, [top, h - end]);
            let y = conv.layer.conv(x, cut, Epilogue::Shuffle(r));
            (run_body(tail, after, Cow::Owned(y), &mut strip), strip)
        })
        .collect();
    // The body's output is the first strip's tile down to the last's.
    let last = strips.len() - 1;
    *tile = strips[0].1;
    tile.margin[2] = strips[last].1.margin[2];
    // A seam is the rows a strip computed for its neighbour: off.
    let parts: Vec<_> = strips
        .into_iter()
        .enumerate()
        .map(|(i, (y, strip))| {
            let top = if i == 0 { 0 } else { strip.margin[0] };
            let bottom = if i == last { 0 } else { strip.margin[2] };
            let rows = top..L::rows(&y) - bottom;
            (y, rows)
        })
        .collect();
    Some(L::stack(&parts))
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

    fn stack(parts: &[(Tensor, Range<usize>)]) -> Tensor {
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

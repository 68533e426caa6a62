//! How the crate's per-sample loops go onto the pool: independent
//! ranges of samples, each written by one task, so every sample is
//! computed by the same operations in the same order at any pool size.

use rayon::prelude::*;

/// Samples per range. A call over at most this many runs inline (a 64²
/// tile is one range), a 256² frame splits eight ways. A multiple of 8:
/// a range of Gaussian noise draws two stream words a sample, so it
/// starts on a ChaCha block.
pub(crate) const BAND: usize = 8192;

/// Runs `fill(plane, top, rows)` over bands of whole rows of every
/// `h × w` plane of `out`, on the pool: `rows` are rows `top..` of plane
/// `plane`, at most `BAND / w` of them (at least one). A band never
/// spans two planes; an empty `out` runs nothing.
pub(crate) fn rows<F>(out: &mut [f32], (h, w): (usize, usize), fill: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    if out.is_empty() {
        return;
    }
    let band = (BAND / w).max(1);
    let bands: Vec<_> = out
        .chunks_mut(h * w)
        .enumerate()
        .flat_map(|(plane, rows)| {
            let bands = rows.chunks_mut(band * w).enumerate();
            bands.map(move |(b, rows)| (plane, b * band, rows))
        })
        .collect();
    bands
        .into_par_iter()
        .for_each(|(plane, top, rows)| fill(plane, top, rows));
}

/// Runs `fill(start, samples)` over consecutive ranges of `BAND`
/// samples of the flat `out` (the last one shorter), on the pool:
/// `samples` are `out[start..]`.
pub(crate) fn ranges<F>(out: &mut [f32], fill: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let ranges: Vec<_> = out.chunks_mut(BAND).enumerate().collect();
    ranges
        .into_par_iter()
        .for_each(|(i, samples)| fill(i * BAND, samples));
}

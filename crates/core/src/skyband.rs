//! Counting kernels for the skyline **query family**: k-skyband and
//! top-k dominating.
//!
//! Both operators reduce to *dominator counting* over the same tiled
//! layout the plain-skyline scans use:
//!
//! * the **k-skyband** keeps every point strictly dominated by fewer
//!   than `k` others — the skyline is the `count == 0` slice, and a
//!   skyband computed at `k'` answers every skyband (and the skyline)
//!   at `k ≤ k'` by filtering stored counts;
//! * **top-k dominating** ranks points by how many others they
//!   dominate. By antisymmetry of the component order, `p` dominates
//!   `q` iff `-q` dominates `-p`, so the *dominated-by* counter over a
//!   sign-flipped tile store doubles as the *dominates* scorer.
//!
//! Every kernel orders points by exact-as-f64 folded coordinate sum
//! ascending, so every strict dominator of a point sits in the sorted
//! prefix up to and including the point's equal-sum tie run
//! (floating-point sums can tie where exact sums differ, and a point
//! never dominates itself, so the inclusive bound is sound).
//!
//! * [`skyband_blockflow`] is the engine's k-skyband operator: Q-Flow's
//!   block flow (paper §V) with dominator counts in place of the
//!   dominated flag. Blocks of `α` sorted rows, cut only between
//!   equal-sum runs, are counted against the confirmed band in
//!   parallel (Phase I), and each Phase-I survivor then against the
//!   earlier survivors of its own block up to the end of its run
//!   (Phase II). Only band members are ever probed. That is exact
//!   because a point dominated by fewer than `k` others has only band
//!   members as dominators (each of its dominators has strictly fewer
//!   dominators than it does), and a point dominated by `k` or more
//!   has at least `k` band members among its dominators (strong
//!   induction on the dominator count: a dominator outside the band
//!   has `k` band dominators of its own, and they dominate the point
//!   too). The same lemma makes the union of per-shard local skybands
//!   a sound candidate set for the global one.
//! * [`skyband_counts`] and [`top_k_dominating`] are sequential window
//!   scans (the SFS shape): each point takes one SIMD
//!   [`TileStore::count_dominators_range`] probe over the whole sorted
//!   prefix. The skyband probe early-exits at `k` — a candidate only
//!   needs to know "k or more", never the exact larger total; ranking
//!   needs exact scores, so top-k dominating never exits early.
//!
//! All rows arriving here are already preference-folded and projected
//! to the query's effective dimensions (minimisation on every
//! coordinate), matching the engine's algorithm-input convention.
//!
//! [`TileStore::count_dominators_range`]: crate::dominance::simd::TileStore::count_dominators_range

use std::sync::atomic::{AtomicU64, Ordering};

use skyline_parallel::{par_chunks_mut, par_sort_unstable_by_key, ThreadPool};

use crate::dominance::simd::TileStore;

/// Sum-sorted scan order over `rows`: `(computed f64 sum, index)`
/// ascending by sum, plus a [`TileStore`] holding the rows in that
/// order.
fn sum_order(rows: &[f32], d: usize) -> (Vec<(f64, u32)>, TileStore) {
    let n = rows.len() / d;
    let mut order: Vec<(f64, u32)> = (0..n)
        .map(|i| {
            let sum: f64 = rows[i * d..(i + 1) * d].iter().map(|&v| v as f64).sum();
            (sum, i as u32)
        })
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut tile = TileStore::with_capacity(d, n);
    for &(_, i) in &order {
        tile.push(&rows[i as usize * d..(i as usize + 1) * d]);
    }
    (order, tile)
}

/// Walks `order` one equal-sum tie run at a time, invoking `visit`
/// with each member's original index, its row, and the run's exclusive
/// end position (every dominator lives below that position in `tile`).
fn for_each_in_runs(
    order: &[(f64, u32)],
    rows: &[f32],
    d: usize,
    mut visit: impl FnMut(u32, &[f32], usize),
) {
    let mut i = 0usize;
    while i < order.len() {
        let mut run_end = i + 1;
        while run_end < order.len() && order[run_end].0 == order[i].0 {
            run_end += 1;
        }
        for &(_, idx) in &order[i..run_end] {
            visit(
                idx,
                &rows[idx as usize * d..(idx as usize + 1) * d],
                run_end,
            );
        }
        i = run_end;
    }
}

/// The k-skyband of preference-folded `rows` (`d` values per point,
/// minimisation on every coordinate): every point strictly dominated
/// by fewer than `k` others, as `(input index, exact dominator count)`
/// in ascending index order. `k = 0` yields the empty set; `k = 1` is
/// the skyline with all counts zero. Tile-lane dominance-test charges
/// accumulate into `dts`.
pub fn skyband_counts(rows: &[f32], d: usize, k: u32, dts: &mut u64) -> Vec<(u32, u32)> {
    assert!(d > 0 && rows.len() % d == 0, "rows must be n×d");
    if k == 0 || rows.is_empty() {
        return Vec::new();
    }
    let (order, tile) = sum_order(rows, d);
    let mut out = Vec::new();
    for_each_in_runs(&order, rows, d, |idx, q, run_end| {
        let count = tile.count_dominators_range(0, run_end, q, k, dts);
        if count < k {
            out.push((idx, count));
        }
    });
    out.sort_unstable();
    out
}

/// An order-preserving `u64` image of an f64 sum (the IEEE total
/// order), with `-0.0` folded onto `+0.0` so equal sums share a key.
fn sum_key(sum: f64) -> u64 {
    let bits = (sum + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The k-skyband of preference-folded `rows` computed with Q-Flow's
/// block flow on `pool`: the same answer as [`skyband_counts`] —
/// `(input index, exact dominator count)` in ascending index order —
/// with only confirmed band members ever probed (see the module docs
/// for why that is exact). `alpha` is the block size; a block grows
/// past it to the end of the equal-sum run it cuts. Tile-lane
/// dominance-test charges accumulate into `dts`.
pub fn skyband_blockflow(
    rows: &[f32],
    d: usize,
    k: u32,
    alpha: usize,
    pool: &ThreadPool,
    dts: &mut u64,
) -> Vec<(u32, u32)> {
    assert!(d > 0 && rows.len() % d == 0, "rows must be n×d");
    if k == 0 || rows.is_empty() {
        return Vec::new();
    }
    let n = rows.len() / d;
    let alpha = alpha.max(1);

    // Init: (sum key, index) sorted in parallel, rows gathered in that
    // order so every block is one contiguous slice.
    let mut order = vec![(0u64, 0u32); n];
    par_chunks_mut(pool, &mut order, 4096, |offset, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            let idx = offset + i;
            let sum: f64 = rows[idx * d..(idx + 1) * d].iter().map(|&v| v as f64).sum();
            *slot = (sum_key(sum), idx as u32);
        }
    });
    par_sort_unstable_by_key(pool, &mut order, |&p| p);
    let mut sorted = vec![0.0f32; n * d];
    par_chunks_mut(pool, &mut sorted, 4096 * d, |offset, chunk| {
        for (r, out) in chunk.chunks_mut(d).enumerate() {
            let idx = order[offset / d + r].1 as usize;
            out.copy_from_slice(&rows[idx * d..(idx + 1) * d]);
        }
    });
    let row = |i: usize| &sorted[i * d..(i + 1) * d];

    let tally = AtomicU64::new(0);
    let mut band = TileStore::new(d);
    let mut out = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut start = 0usize;
    while start < n {
        let mut end = (start + alpha).min(n);
        while end < n && order[end].0 == order[end - 1].0 {
            end += 1;
        }

        // Phase I: every block row against the confirmed band.
        counts.clear();
        counts.resize(end - start, 0);
        par_chunks_mut(pool, &mut counts, 16, |offset, chunk| {
            let mut local = 0u64;
            for (i, c) in chunk.iter_mut().enumerate() {
                let q = row(start + offset + i);
                *c = band.count_dominators_range(0, band.len(), q, k, &mut local);
            }
            tally.fetch_add(local, Ordering::Relaxed);
        });

        // Phase II: each survivor against the earlier survivors of its
        // block, up to the end of its equal-sum run.
        let survivors: Vec<usize> = (start..end).filter(|&i| counts[i - start] < k).collect();
        let mut peers = TileStore::with_capacity(d, survivors.len());
        for &i in &survivors {
            peers.push(row(i));
        }
        let mut run_end = vec![survivors.len(); survivors.len()];
        for j in (0..survivors.len().saturating_sub(1)).rev() {
            if order[survivors[j + 1]].0 == order[survivors[j]].0 {
                run_end[j] = run_end[j + 1];
            } else {
                run_end[j] = j + 1;
            }
        }
        let mut totals: Vec<u32> = survivors.iter().map(|&i| counts[i - start]).collect();
        par_chunks_mut(pool, &mut totals, 8, |offset, chunk| {
            let mut local = 0u64;
            for (j, c) in chunk.iter_mut().enumerate() {
                let s = offset + j;
                let q = row(survivors[s]);
                *c += peers.count_dominators_range(0, run_end[s], q, k - *c, &mut local);
            }
            tally.fetch_add(local, Ordering::Relaxed);
        });

        for (&i, &c) in survivors.iter().zip(&totals) {
            if c < k {
                band.push(row(i));
                out.push((order[i].1, c));
            }
        }
        start = end;
    }
    *dts += tally.into_inner();
    out.sort_unstable();
    out
}

/// The top-k dominating points of preference-folded `rows`: each point
/// scored by how many others it strictly dominates, the top `k`
/// returned as `(input index, exact score)` ordered by score
/// descending, index ascending on ties. Scores are computed as
/// dominator counts over the sign-flipped rows (`p` dominates `q` iff
/// `-q` dominates `-p`), so the same sum-ordered prefix probe applies;
/// no early exit is possible — ranking needs exact scores.
/// Tile-lane dominance-test charges accumulate into `dts`.
pub fn top_k_dominating(rows: &[f32], d: usize, k: u32, dts: &mut u64) -> Vec<(u32, u32)> {
    assert!(d > 0 && rows.len() % d == 0, "rows must be n×d");
    if k == 0 || rows.is_empty() {
        return Vec::new();
    }
    let negated: Vec<f32> = rows.iter().map(|&v| -v).collect();
    let n = negated.len() / d;
    let (order, tile) = sum_order(&negated, d);
    let mut scored: Vec<(u32, u32)> = Vec::with_capacity(n);
    for_each_in_runs(&order, &negated, d, |idx, q, run_end| {
        let score = tile.count_dominators_range(0, run_end, q, u32::MAX, dts);
        scored.push((idx, score));
    });
    scored.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k as usize);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::simd::flip_pref;
    use crate::verify;
    use crate::SkylineConfig;
    use skyline_data::{generate, quantize, Dataset, Distribution};

    /// Folds `data` onto `dims` with `max_mask` orientation — the
    /// engine's algorithm-input convention.
    fn fold(data: &Dataset, dims: &[usize], max_mask: u32) -> Vec<f32> {
        let mut out = Vec::with_capacity(data.len() * dims.len());
        for row in data.rows() {
            for &c in dims {
                out.push(flip_pref(row[c], max_mask & (1 << c) != 0));
            }
        }
        out
    }

    #[test]
    fn skyband_matches_naive_reference() {
        let pool = ThreadPool::new(1);
        for dist in [
            Distribution::Independent,
            Distribution::Anticorrelated,
            Distribution::Correlated,
        ] {
            let data = generate(dist, 400, 4, 7, &pool);
            for dims in [&[0usize, 1][..], &[1, 2, 3], &[0, 1, 2, 3]] {
                for max_mask in [0u32, 0b101] {
                    let rows = fold(&data, dims, max_mask);
                    for k in [0u32, 1, 2, 5, 1000] {
                        let mut dts = 0;
                        assert_eq!(
                            skyband_counts(&rows, dims.len(), k, &mut dts),
                            verify::naive_skyband_on_pref(&data, dims, max_mask, k),
                            "{dist:?} {dims:?} mask={max_mask:b} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn top_k_dominating_matches_naive_reference() {
        let pool = ThreadPool::new(1);
        for dist in [Distribution::Independent, Distribution::Anticorrelated] {
            let data = generate(dist, 300, 3, 11, &pool);
            for dims in [&[0usize, 1][..], &[0, 1, 2]] {
                for max_mask in [0u32, 0b10] {
                    let rows = fold(&data, dims, max_mask);
                    for k in [0u32, 1, 3, 10, 1000] {
                        let mut dts = 0;
                        assert_eq!(
                            top_k_dominating(&rows, dims.len(), k, &mut dts),
                            verify::naive_top_k_dominating(&data, dims, max_mask, k),
                            "{dist:?} {dims:?} mask={max_mask:b} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn duplicates_and_equal_sum_ties_are_counted_exactly() {
        // Coincident points never dominate each other; (1,3) and (3,1)
        // tie on sum without dominance; the chain picks up dominators.
        let rows: Vec<f32> = vec![
            1.0, 3.0, // idx 0: sum 4, undominated
            3.0, 1.0, // idx 1: sum 4, undominated
            2.0, 2.0, // idx 2: sum 4, undominated (incomparable to both)
            2.0, 2.0, // idx 3: duplicate of 2 — still 0 dominators
            2.0, 4.0, // idx 4: dominated by 0, 2, 3 → count 3
        ];
        let mut dts = 0;
        assert_eq!(
            skyband_counts(&rows, 2, 10, &mut dts),
            vec![(0, 0), (1, 0), (2, 0), (3, 0), (4, 3)]
        );
        assert_eq!(
            skyband_counts(&rows, 2, 2, &mut dts),
            vec![(0, 0), (1, 0), (2, 0), (3, 0)]
        );
        // Dominates-scores: 0 → {4}; 2,3 → {4}; 1 → {}; 4 → {}.
        assert_eq!(
            top_k_dominating(&rows, 2, 5, &mut dts),
            vec![(0, 1), (2, 1), (3, 1), (1, 0), (4, 0)]
        );
    }

    const DISTS: [Distribution; 3] = [
        Distribution::Independent,
        Distribution::Anticorrelated,
        Distribution::Correlated,
    ];

    #[test]
    fn blockflow_matches_naive_and_sequential_kernel() {
        let pools: Vec<ThreadPool> = [1, 2, 4].into_iter().map(ThreadPool::new).collect();
        let alphas = [1usize, 7, 64, SkylineConfig::default().alpha_qflow];
        for dist in DISTS {
            for d in 2..=6 {
                // Quantizing to 6 levels makes duplicate rows and long
                // equal-sum runs that cross the α = 1, 7, 64 blocks.
                let data = quantize(&generate(dist, 300, d, 40 + d as u64, &pools[0]), 6);
                let dims: Vec<usize> = (0..d).collect();
                let max_mask = 0b10;
                let rows = fold(&data, &dims, max_mask);
                for k in [1u32, 2, 4, 8] {
                    let expect = verify::naive_skyband_on_pref(&data, &dims, max_mask, k);
                    let mut dts = 0;
                    assert_eq!(skyband_counts(&rows, d, k, &mut dts), expect);
                    for pool in &pools {
                        for alpha in alphas {
                            assert_eq!(
                                skyband_blockflow(&rows, d, k, alpha, pool, &mut dts),
                                expect,
                                "{dist:?} d={d} k={k} lanes={} alpha={alpha}",
                                pool.threads()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blockflow_splits_large_inputs_at_the_default_alpha() {
        // More rows than one default block, so Phase I runs against a
        // band confirmed by earlier blocks on every lane count.
        let gen_pool = ThreadPool::new(2);
        let alpha = SkylineConfig::default().alpha_qflow;
        for dist in DISTS {
            let data = generate(dist, alpha * 2 + 500, 3, 9, &gen_pool);
            let rows = fold(&data, &[0, 1, 2], 0b001);
            let mut dts = 0;
            let expect = skyband_counts(&rows, 3, 4, &mut dts);
            for lanes in [1, 2, 4] {
                let pool = ThreadPool::new(lanes);
                let mut tested = 0;
                let got = skyband_blockflow(&rows, 3, 4, alpha, &pool, &mut tested);
                assert_eq!(got, expect, "{dist:?} lanes={lanes}");
                assert!(tested > 0);
            }
        }
    }

    #[test]
    fn blockflow_k1_is_the_skyline() {
        let pool = ThreadPool::new(2);
        for dist in DISTS {
            let data = generate(dist, 700, 4, 3, &pool);
            let dims = [0usize, 1, 2, 3];
            let rows = fold(&data, &dims, 0);
            let mut dts = 0;
            let band = skyband_blockflow(&rows, 4, 1, 32, &pool, &mut dts);
            assert!(band.iter().all(|&(_, c)| c == 0));
            let ids: Vec<u32> = band.into_iter().map(|(i, _)| i).collect();
            assert_eq!(ids, verify::naive_skyline_on_pref(&data, &dims, 0));
        }
    }

    #[test]
    fn blockflow_keeps_equal_sum_runs_in_one_block() {
        // Row 1 strictly dominates row 0, yet both sums round to 1e30:
        // the tie run sorts the victim first, so an α = 1 block must
        // grow to the run's end for Phase II to see the dominator.
        let rows: Vec<f32> = vec![1e30, 1e-30, 1e30, 0.0, 0.0, 2e30];
        let pool = ThreadPool::new(2);
        for alpha in [1, 2, 64] {
            let mut dts = 0;
            assert_eq!(
                skyband_blockflow(&rows, 2, 2, alpha, &pool, &mut dts),
                vec![(0, 1), (1, 0), (2, 0)],
                "alpha={alpha}"
            );
            assert_eq!(
                skyband_blockflow(&rows, 2, 1, alpha, &pool, &mut dts),
                vec![(1, 0), (2, 0)]
            );
        }
        let mut dts = 0;
        assert_eq!(
            skyband_counts(&rows, 2, 2, &mut dts),
            vec![(0, 1), (1, 0), (2, 0)]
        );
        // k = 0 and empty input are empty.
        assert!(skyband_blockflow(&rows, 2, 0, 8, &pool, &mut dts).is_empty());
        assert!(skyband_blockflow(&[], 2, 3, 8, &pool, &mut dts).is_empty());
    }
}

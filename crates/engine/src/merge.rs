//! The operator a sharded plan runs, and its merge: the same operator
//! rerun over the union of the shards' local results.
//!
//! A shard's local skyline is a superset of its contribution to the
//! global skyline, and strict dominance is transitive, so the union of
//! all local skylines contains the global skyline, and every candidate
//! outside it is dominated by a global member that is itself a
//! candidate. The skyline of the union is therefore the global skyline.
//! The same holds for k-skybands: a point dominated by fewer than `k`
//! rows globally is dominated by fewer than `k` in its shard, all of
//! its dominators are global band members (so they are candidates
//! too), and a point dominated by `k` or more has at least `k` global
//! band members among its dominators (the lemma in
//! `skyline_core::skyband`). Counting within the union is exact below
//! `k` and saturates at `k`.
//!
//! So the merge never revisits base data and needs no bespoke scan:
//! it concatenates the local results and runs `operator` over them on
//! the whole pool — the block-flow counting kernel for skybands, SFS or
//! Hybrid for skylines — with α tuned to the candidate count.
//!
//! All rows arriving here are already preference-folded and projected
//! to the query's effective dimensions (minimisation on every
//! coordinate).

use skyline_core::algo::Algorithm;
use skyline_core::skyband::skyband_blockflow;
use skyline_core::{RunStats, SkylineConfig};
use skyline_data::Dataset;
use skyline_parallel::ThreadPool;

use crate::query::QueryKind;

/// Above this many rows the skyline operator runs Hybrid instead of
/// SFS.
const SFS_MAX_ROWS: usize = 4096;

/// What the merge did, for telemetry and the bench harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Candidates entering the merge (Σ local result sizes).
    pub candidates: usize,
    /// Witness rows broadcast. Always 0: the merge reruns the local
    /// operator over the union and broadcasts no witnesses. Kept so
    /// readers of the field keep building.
    pub witnesses: usize,
    /// Candidates eliminated by a witness probe. Always 0, see
    /// [`witnesses`](Self::witnesses).
    pub witness_kills: usize,
    /// Candidates surviving as global result members.
    pub survivors: usize,
    /// Dominance tests charged to the merge's operator run.
    pub dominance_tests: u64,
}

/// An operator's answer over folded rows.
#[derive(Debug, Default)]
pub(crate) struct Answer {
    /// Ascending row positions of the members.
    pub positions: Vec<u32>,
    /// Exact dominator counts parallel to `positions`, for skybands.
    pub counts: Option<Vec<u32>>,
    /// The run's statistics.
    pub stats: RunStats,
}

/// The operator of a sharded plan over folded `data`, used both per
/// shard and over the union: the k-skyband through the block-flow
/// kernel with block size `cfg.alpha_qflow`, otherwise the skyline
/// through SFS up to [`SFS_MAX_ROWS`] rows and Hybrid above.
pub(crate) fn operator(
    kind: QueryKind,
    data: &Dataset,
    pool: &ThreadPool,
    cfg: &SkylineConfig,
) -> Answer {
    if let QueryKind::Skyband { k } = kind {
        let mut dts = 0u64;
        let (rows, d) = (data.values(), data.dims());
        let pairs = skyband_blockflow(rows, d, k, cfg.alpha_qflow, pool, &mut dts);
        let (positions, counts): (Vec<u32>, Vec<u32>) = pairs.into_iter().unzip();
        let stats = RunStats {
            dominance_tests: dts,
            skyline_size: positions.len(),
            ..RunStats::default()
        };
        return Answer {
            positions,
            counts: Some(counts),
            stats,
        };
    }
    if data.is_empty() {
        return Answer::default();
    }
    let algo = if data.len() <= SFS_MAX_ROWS {
        Algorithm::Sfs
    } else {
        Algorithm::Hybrid
    };
    let r = algo.run(data, pool, cfg);
    Answer {
        positions: r.indices,
        counts: None,
        stats: r.stats,
    }
}

/// One shard's local result: member ids and their folded rows.
#[derive(Debug, Clone, Default)]
pub(crate) struct Local {
    /// Stable dataset ids of the local result members.
    pub ids: Vec<u32>,
    /// Folded row data, `width` contiguous values per id.
    pub rows: Vec<f32>,
}

/// Merges the shards' local results into the global one by running
/// [`operator`] over their union on `pool`. Returns the member ids in
/// ascending order, the exact counts for a skyband, and the merge
/// statistics.
pub(crate) fn merge(
    kind: QueryKind,
    width: usize,
    locals: Vec<Local>,
    pool: &ThreadPool,
) -> (Vec<u32>, Option<Vec<u32>>, MergeStats) {
    let candidates: usize = locals.iter().map(|l| l.ids.len()).sum();
    let mut ids = Vec::with_capacity(candidates);
    let mut rows = Vec::with_capacity(candidates * width);
    for local in locals {
        debug_assert_eq!(local.rows.len(), local.ids.len() * width);
        ids.extend(local.ids);
        rows.extend(local.rows);
    }
    let union = Dataset::from_flat(rows, width).expect("folded rows of a valid dataset");
    let cfg = SkylineConfig::tuned(candidates, pool.threads());
    let answer = operator(kind, &union, pool, &cfg);
    // Union positions back to stable ids, ascending, counts alongside.
    let mut members: Vec<(u32, u32)> = answer
        .positions
        .iter()
        .enumerate()
        .map(|(j, &p)| (ids[p as usize], answer.counts.as_ref().map_or(0, |c| c[j])))
        .collect();
    members.sort_unstable();
    let stats = MergeStats {
        candidates,
        survivors: members.len(),
        dominance_tests: answer.stats.dominance_tests,
        ..MergeStats::default()
    };
    let (ids, counts): (Vec<u32>, Vec<u32>) = members.into_iter().unzip();
    (ids, answer.counts.map(|_| counts), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::dominance::simd::flip_pref;
    use skyline_core::verify;
    use skyline_data::{generate, Distribution, PartitionerKind, ShardedStore};

    /// Shards `data`, computes each shard's local result with
    /// [`operator`] on one lane, and merges them on a two-lane pool.
    fn sharded(
        data: &Dataset,
        shards: usize,
        partitioner: PartitionerKind,
        kind: QueryKind,
        max_mask: u32,
    ) -> (Vec<u32>, Option<Vec<u32>>, MergeStats) {
        let d = data.dims();
        let store = ShardedStore::build(data, shards, partitioner);
        let lane = ThreadPool::new(1);
        let locals = (0..store.k())
            .map(|s| {
                let mut ids = Vec::new();
                let mut rows = Vec::new();
                store.shard(s).for_each_live(|id, row| {
                    ids.push(id);
                    for (j, &v) in row.iter().enumerate() {
                        rows.push(flip_pref(v, max_mask & (1 << j) != 0));
                    }
                });
                let cfg = SkylineConfig::tuned(ids.len(), 1);
                let rows = Dataset::from_flat(rows, d).unwrap();
                let answer = operator(kind, &rows, &lane, &cfg);
                let mut local = Local::default();
                for &p in &answer.positions {
                    local.ids.push(ids[p as usize]);
                    local.rows.extend_from_slice(rows.row(p as usize));
                }
                local
            })
            .collect();
        merge(kind, d, locals, &ThreadPool::new(2))
    }

    fn check(n: usize, d: usize, dist: Distribution, shards: usize, max_mask: u32) {
        let pool = ThreadPool::new(1);
        let data = generate(dist, n, d, 42, &pool);
        let dims: Vec<usize> = (0..d).collect();
        let expect = verify::naive_skyline_on_pref(&data, &dims, max_mask);
        for kind in PartitionerKind::ALL {
            let (got, counts, stats) = sharded(&data, shards, kind, QueryKind::Skyline, max_mask);
            assert_eq!(got, expect, "{dist:?} shards={shards} {kind:?}");
            assert!(counts.is_none());
            assert_eq!(stats.survivors, expect.len());
            assert!(stats.candidates >= expect.len());
            assert_eq!((stats.witnesses, stats.witness_kills), (0, 0));
        }
    }

    fn check_band(n: usize, d: usize, dist: Distribution, band_k: u32, shards: usize, mask: u32) {
        let pool = ThreadPool::new(1);
        let data = generate(dist, n, d, 1337, &pool);
        let dims: Vec<usize> = (0..d).collect();
        let expect = verify::naive_skyband_on_pref(&data, &dims, mask, band_k);
        for kind in PartitionerKind::ALL {
            let band = QueryKind::Skyband { k: band_k };
            let (ids, counts, stats) = sharded(&data, shards, kind, band, mask);
            let got: Vec<(u32, u32)> = ids.into_iter().zip(counts.unwrap()).collect();
            assert_eq!(got, expect, "{dist:?} k={band_k} shards={shards} {kind:?}");
            assert_eq!(stats.survivors, expect.len());
        }
    }

    #[test]
    fn merge_matches_naive_across_partitioners() {
        for shards in [2usize, 4] {
            check(600, 4, Distribution::Anticorrelated, shards, 0);
            check(600, 3, Distribution::Independent, shards, 0b101);
            check(400, 2, Distribution::Correlated, shards, 0b10);
        }
    }

    #[test]
    fn large_unions_merge_with_hybrid() {
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Anticorrelated, 20_000, 5, 3, &pool);
        let expect = Algorithm::BSkyTree
            .run(&data, &pool, &SkylineConfig::default())
            .indices;
        let (got, _, stats) = sharded(&data, 4, PartitionerKind::Random, QueryKind::Skyline, 0);
        assert!(stats.candidates > SFS_MAX_ROWS, "{}", stats.candidates);
        assert_eq!(got, expect);
    }

    #[test]
    fn single_shard_passes_through() {
        check(300, 3, Distribution::Independent, 1, 0);
    }

    #[test]
    fn skyband_merge_matches_naive_across_partitioners() {
        for band_k in [1u32, 2, 4] {
            check_band(500, 4, Distribution::Anticorrelated, band_k, 3, 0);
            check_band(500, 3, Distribution::Independent, band_k, 4, 0b101);
        }
        check_band(300, 2, Distribution::Correlated, 3, 2, 0b10);
    }

    #[test]
    fn skyband_merge_k1_equals_skyline_merge() {
        let pool = ThreadPool::new(1);
        let data = generate(Distribution::Anticorrelated, 400, 3, 7, &pool);
        let band = QueryKind::Skyband { k: 1 };
        let (ids, counts, _) = sharded(&data, 3, PartitionerKind::Grid, band, 0);
        let (sky, _, _) = sharded(&data, 3, PartitionerKind::Grid, QueryKind::Skyline, 0);
        assert_eq!(ids, sky);
        assert!(counts.unwrap().iter().all(|&c| c == 0));
    }

    #[test]
    fn duplicate_rows_across_shards_all_survive() {
        // Two identical undominated rows in different shards: neither
        // strictly dominates the other, so both are global.
        let locals = || {
            vec![
                Local {
                    ids: vec![0, 2],
                    rows: vec![0.0, 1.0, 1.0, 0.0],
                },
                Local {
                    ids: vec![5],
                    rows: vec![0.0, 1.0],
                },
            ]
        };
        let pool = ThreadPool::new(2);
        let (got, _, stats) = merge(QueryKind::Skyline, 2, locals(), &pool);
        assert_eq!(got, vec![0, 2, 5]);
        assert_eq!(stats.witness_kills, 0);
        let (got, counts, _) = merge(QueryKind::Skyband { k: 2 }, 2, locals(), &pool);
        assert_eq!((got, counts), (vec![0, 2, 5], Some(vec![0, 0, 0])));
    }

    #[test]
    fn cross_shard_domination_is_applied() {
        // Shard 1's sole candidate is dominated by shard 0's.
        let locals = || {
            vec![
                Local {
                    ids: vec![1],
                    rows: vec![0.0, 0.0],
                },
                Local {
                    ids: vec![9],
                    rows: vec![1.0, 1.0],
                },
            ]
        };
        let pool = ThreadPool::new(2);
        let (got, _, stats) = merge(QueryKind::Skyline, 2, locals(), &pool);
        assert_eq!(got, vec![1]);
        assert_eq!((stats.candidates, stats.survivors), (2, 1));
        let (got, counts, _) = merge(QueryKind::Skyband { k: 2 }, 2, locals(), &pool);
        assert_eq!((got, counts), (vec![1, 9], Some(vec![0, 1])));
    }

    #[test]
    fn empty_input_is_empty() {
        let pool = ThreadPool::new(2);
        let (got, counts, stats) = merge(QueryKind::Skyline, 3, Vec::new(), &pool);
        assert!(got.is_empty() && counts.is_none());
        assert_eq!(stats, MergeStats::default());
    }

    #[test]
    fn skyband_merge_empty_and_k0() {
        let pool = ThreadPool::new(2);
        let (got, counts, stats) = merge(QueryKind::Skyband { k: 2 }, 3, Vec::new(), &pool);
        assert!(got.is_empty());
        assert_eq!(counts, Some(Vec::new()));
        assert_eq!(stats, MergeStats::default());
        let locals = vec![Local {
            ids: vec![1],
            rows: vec![0.5, 0.5],
        }];
        let (got, counts, stats) = merge(QueryKind::Skyband { k: 0 }, 2, locals, &pool);
        assert!(got.is_empty());
        assert_eq!(counts, Some(Vec::new()));
        assert_eq!(stats.candidates, 1);
    }
}

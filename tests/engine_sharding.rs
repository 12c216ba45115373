//! Engine-level tests of the sharded execution tier: the planner must
//! route large queries on shard-registered datasets through
//! `Strategy::Sharded`, the per-shard scans plus the merge over their
//! union must agree with brute force across partitioners and preferences,
//! traces must carry per-shard spans, and the adaptive (debt-driven)
//! per-shard compaction must fire from observed tombstone-scan cost.

use skybench::prelude::*;
use skybench::{generate, verify, PartitionerKind, PlannerConfig, SpanKind, Strategy};

/// A planner that sends everything it can at the sharded tier.
fn sharded_planner() -> PlannerConfig {
    PlannerConfig {
        tiny_n: 64,
        small_n: 256,
        sharded_min_n: 512,
        ..PlannerConfig::default()
    }
}

#[test]
fn sharded_strategy_matches_naive_across_partitioners() {
    let gen_pool = ThreadPool::new(2);
    let data = generate(Distribution::Anticorrelated, 6_000, 4, 11, &gen_pool);

    for kind in PartitionerKind::ALL {
        let engine = Engine::with_config(EngineConfig {
            threads: 2,
            planner: sharded_planner(),
            ..EngineConfig::default()
        });
        engine.register_sharded("s", data.clone(), 4, kind);

        let queries = [
            (SkylineQuery::new("s"), (0..4).collect::<Vec<_>>(), 0u32),
            (SkylineQuery::new("s").dims([0, 2, 3]), vec![0, 2, 3], 0),
            (
                SkylineQuery::new("s")
                    .dims([1, 3])
                    .preference([Preference::Max, Preference::Min]),
                vec![1, 3],
                0b0010,
            ),
        ];
        for (query, dims, max_mask) in queries {
            let cold = engine.execute(&query).unwrap();
            assert_eq!(
                cold.plan.strategy,
                Strategy::Sharded {
                    k: 4,
                    partitioner: kind
                },
                "{kind:?} {dims:?}"
            );
            let merge = cold
                .shard_merge
                .as_ref()
                .expect("sharded runs report merge accounting");
            assert_eq!(merge.survivors, cold.total_skyline_size());
            assert!(merge.candidates >= merge.survivors);
            let expect = verify::naive_skyline_on_pref(&data, &dims, max_mask);
            assert_eq!(cold.indices(), expect.as_slice(), "{kind:?} {dims:?}");

            // The same query again is a cache hit, not a re-merge.
            let warm = engine.execute(&query).unwrap();
            assert!(warm.cache_hit);
            assert!(warm.shard_merge.is_none());
        }
    }
}

#[test]
fn sharded_trace_carries_per_shard_spans() {
    let gen_pool = ThreadPool::new(2);
    let data = generate(Distribution::Correlated, 4_000, 3, 5, &gen_pool);
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        planner: sharded_planner(),
        ..EngineConfig::default()
    });
    engine.register_sharded("s", data, 4, PartitionerKind::Grid);

    let (result, trace) = engine
        .explain_analyze(&SkylineQuery::new("s"))
        .expect("telemetry is on by default");
    assert!(matches!(
        result.plan.strategy,
        Strategy::Sharded { k: 4, .. }
    ));

    let of = |kind: SpanKind| -> Vec<_> { trace.spans.iter().filter(|s| s.kind == kind).collect() };
    assert_eq!(of(SpanKind::ShardScatter).len(), 1);
    assert_eq!(of(SpanKind::ShardMerge).len(), 1);
    let locals = of(SpanKind::ShardLocal);
    assert_eq!(locals.len(), 4, "one local span per shard");
    let mut shards: Vec<u32> = locals.iter().map(|s| s.shard.expect("tagged")).collect();
    shards.sort_unstable();
    assert_eq!(shards, vec![0, 1, 2, 3]);
    // Per-shard dominance-test counts roll up into the trace total.
    let local_dts: u64 = locals.iter().map(|s| s.dominance_tests).sum();
    assert!(local_dts > 0, "non-trivial shards do dominance work");
    assert!(trace.dominance_tests >= local_dts);
    // Whole-query spans stay untagged.
    assert!(of(SpanKind::ShardScatter)[0].shard.is_none());
    assert!(of(SpanKind::ShardMerge)[0].shard.is_none());
    // And the rendering distinguishes shards.
    let rendered = trace.render();
    assert!(rendered.contains("shard.local[0]"), "{rendered}");
    assert!(rendered.contains("shard.merge"), "{rendered}");
}

#[test]
fn sharded_datasets_stay_correct_under_mutation() {
    let gen_pool = ThreadPool::new(2);
    let data = generate(Distribution::Independent, 3_000, 3, 23, &gen_pool);
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        planner: sharded_planner(),
        ..EngineConfig::default()
    });
    engine.register_sharded("s", data, 3, PartitionerKind::Angular);

    // Mutate: a few deletes from the first skyline, a few inserts.
    let cold = engine.execute(&SkylineQuery::new("s")).unwrap();
    let victims: Vec<u32> = cold.indices().iter().copied().take(3).collect();
    engine.delete("s", &victims).unwrap();
    engine
        .insert("s", &[vec![0.001, 0.9, 0.9], vec![0.5, 0.001, 0.9]])
        .unwrap();

    let entry = engine.dataset("s").expect("registered");
    let store = entry.sharded().expect("shard store follows mutations");
    assert_eq!(store.live_len(), entry.live_len());

    let fresh = engine
        .execute(&SkylineQuery::new("s").dims([0, 1]))
        .unwrap();
    let expect: Vec<u32> = verify::naive_skyline_on_pref(&entry.snapshot(), &[0, 1], 0)
        .iter()
        .map(|&k| entry.live_ids()[k as usize])
        .collect();
    assert_eq!(fresh.indices(), expect.as_slice());
}

/// The adaptive trigger: tombstones below the dataset's compaction
/// threshold still get compacted per shard once queries have paid for
/// them — scan debt observed by the sharded executor crossing
/// `shard_debt_factor × live` makes the next touching batch compact.
#[test]
fn observed_scan_debt_compacts_shards() {
    let gen_pool = ThreadPool::new(2);
    let data = generate(Distribution::Independent, 2_000, 3, 7, &gen_pool);
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        cache_bytes: 0,        // every query re-executes (and observes debt)
        compact_fraction: 2.0, // the fraction trigger never fires
        shard_debt_factor: Some(0.5),
        planner: sharded_planner(),
        ..EngineConfig::default()
    });
    engine.register_sharded("s", data, 2, PartitionerKind::Random);

    // Tombstone a visible fraction (20%) — far below any dead-fraction
    // threshold, so only the debt trigger can ever clean these up.
    let victims: Vec<u32> = (0..2_000).step_by(5).collect();
    engine.delete("s", &victims).unwrap();
    let entry = engine.dataset("s").expect("registered");
    let store = entry.sharded().expect("sharded");
    let dead_before: usize = store.stats().iter().map(|s| s.dead).sum();
    assert_eq!(dead_before, victims.len());

    // Each uncached sharded query skips every tombstone once: debt
    // grows by the shard's dead count per scan.
    engine.execute(&SkylineQuery::new("s")).unwrap();
    let after_one: Vec<u64> = (0..2).map(|i| store.scan_debt(i)).collect();
    for (i, &debt) in after_one.iter().enumerate() {
        assert_eq!(debt, store.stats()[i].dead as u64, "shard {i}");
    }
    let crossed = |store: &skybench::ShardedStore| {
        store
            .stats()
            .iter()
            .enumerate()
            .all(|(i, s)| s.dead == 0 || store.scan_debt(i) as f32 >= 0.5 * s.live as f32)
    };
    for _ in 0..64 {
        if crossed(store) {
            break;
        }
        engine.execute(&SkylineQuery::new("s")).unwrap();
    }
    assert!(crossed(store), "debt accumulates linearly in queries");

    // Debt now exceeds 0.5 × live everywhere a tombstone lives; the
    // next batch compacts exactly the shards it touches.
    let report = engine
        .insert("s", &[vec![0.5, 0.5, 0.5], vec![0.1, 0.9, 0.2]])
        .unwrap();
    let entry = engine.dataset("s").expect("registered");
    let store = entry.sharded().expect("sharded");
    let touched: Vec<usize> = report
        .inserted_ids
        .iter()
        .zip([[0.5f32, 0.5, 0.5], [0.1, 0.9, 0.2]].iter())
        .map(|(&id, row)| store.shard_of(id, row))
        .collect();
    let stats = store.stats();
    for &i in &touched {
        assert_eq!(
            stats[i].dead, 0,
            "debt-compacted shard {i} holds no tombstones"
        );
        assert_eq!(store.scan_debt(i), 0, "compaction resets shard {i}'s debt");
    }

    // Results stay correct through per-shard compaction.
    let fresh = engine.execute(&SkylineQuery::new("s")).unwrap();
    let expect: Vec<u32> = verify::naive_skyline(&entry.snapshot())
        .iter()
        .map(|&k| entry.live_ids()[k as usize])
        .collect();
    assert_eq!(fresh.indices(), expect.as_slice());
}

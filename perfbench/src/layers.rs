//! Per-layer facts read from what the engine's public calls return:
//! `QueryResult` (plan, `RunStats`, `MergeStats`) and `QueryTrace`.

use std::collections::BTreeMap;
use std::time::Duration;

use skyline_engine::{PlanKind, QueryResult, QueryTrace, SpanKind};

use crate::record::Values;
use crate::stats::{self, ms, us};

/// The `planner.strategy.*` bucket of a plan label.
pub fn strategy_bucket(label: &str) -> &'static str {
    match label {
        "Q-Flow" => "planner.strategy.qflow",
        "Hybrid" => "planner.strategy.hybrid",
        "SFS" => "planner.strategy.sfs",
        "BSkyTree" => "planner.strategy.bskytree",
        "sharded" => "planner.strategy.sharded",
        "delta" => "planner.strategy.delta",
        "cache" => "planner.strategy.cached",
        _ => "planner.strategy.other",
    }
}

/// Accumulates per-layer facts over a run's queries.
#[derive(Debug, Default)]
pub struct QueryLayers {
    strategies: BTreeMap<&'static str, u64>,
    results: u64,
    with_stats: u64,
    phases: [Duration; 6],
    stats_dts: u64,
    merge_dts: u64,
    merges: u64,
    merge_candidates: u64,
    merge_witness_kills: u64,
    hits: u64,
    ancestor_hits: u64,
    skyband_ms: Vec<f64>,
    // From traces.
    plan_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    merge_ms: Vec<f64>,
    shard_local_max_ms: Vec<f64>,
    traced_misses: u64,
    seeded_misses: u64,
}

impl QueryLayers {
    /// Records one answered query and the latency the client saw.
    pub fn add_result(&mut self, r: &QueryResult, latency: Duration) {
        self.results += 1;
        *self
            .strategies
            .entry(strategy_bucket(PlanKind::from(&r.plan.strategy).name()))
            .or_default() += 1;
        if r.cache_hit {
            self.hits += 1;
        }
        if r.plan.reason.ends_with("ancestor cache hit") {
            self.ancestor_hits += 1;
        }
        if let Some(s) = &r.stats {
            self.with_stats += 1;
            for (acc, d) in self.phases.iter_mut().zip([
                s.init,
                s.prefilter,
                s.pivot,
                s.phase1,
                s.phase2,
                s.compress,
            ]) {
                *acc += d;
            }
            self.stats_dts += s.dominance_tests;
        }
        if let Some(m) = &r.shard_merge {
            self.merges += 1;
            self.merge_dts += m.dominance_tests;
            self.merge_candidates += m.candidates as u64;
            self.merge_witness_kills += m.witness_kills as u64;
        }
        if r.counts().is_some() && !r.cache_hit {
            self.skyband_ms.push(ms(latency));
        }
    }

    /// Records one query's engine trace. Traces carry the strategy, so
    /// a workload that sees no `QueryResult` (the HTTP one) counts
    /// strategies and hits from here: pass `count_plan = true`.
    pub fn add_trace(&mut self, t: &QueryTrace, count_plan: bool) {
        if count_plan {
            self.results += 1;
            self.stats_dts += t.dominance_tests;
            *self
                .strategies
                .entry(strategy_bucket(t.strategy))
                .or_default() += 1;
            if t.cache_hit {
                self.hits += 1;
            }
            if t.span(SpanKind::CacheAncestor).is_some() {
                self.ancestor_hits += 1;
            }
        }
        if let Some(p) = t.span(SpanKind::Plan) {
            self.plan_us.push(us(p.duration));
        }
        if let Some(w) = t.span(SpanKind::AdmissionWait) {
            self.queue_wait_us.push(us(w.duration));
        }
        if let Some(m) = t.span(SpanKind::ShardMerge) {
            self.merge_ms.push(ms(m.duration));
        }
        if let Some(max) = t.spans_of(SpanKind::ShardLocal).map(|s| s.duration).max() {
            self.shard_local_max_ms.push(ms(max));
        }
        if !t.cache_hit && t.span(SpanKind::CacheAncestor).is_none() {
            self.traced_misses += 1;
            if t.span(SpanKind::CacheSeed).is_some() {
                self.seeded_misses += 1;
            }
        }
    }

    /// Adds the facts another accumulator gathered (one per client).
    pub fn merge(&mut self, o: QueryLayers) {
        for (k, n) in o.strategies {
            *self.strategies.entry(k).or_default() += n;
        }
        self.results += o.results;
        self.with_stats += o.with_stats;
        for (a, b) in self.phases.iter_mut().zip(o.phases) {
            *a += b;
        }
        self.stats_dts += o.stats_dts;
        self.merge_dts += o.merge_dts;
        self.merges += o.merges;
        self.merge_candidates += o.merge_candidates;
        self.merge_witness_kills += o.merge_witness_kills;
        self.hits += o.hits;
        self.ancestor_hits += o.ancestor_hits;
        self.skyband_ms.extend(o.skyband_ms);
        self.plan_us.extend(o.plan_us);
        self.queue_wait_us.extend(o.queue_wait_us);
        self.merge_ms.extend(o.merge_ms);
        self.shard_local_max_ms.extend(o.shard_local_max_ms);
        self.traced_misses += o.traced_misses;
        self.seeded_misses += o.seeded_misses;
    }

    /// Writes the per-layer values this accumulator knows.
    pub fn write(&self, v: &mut Values) {
        for name in [
            "planner.strategy.qflow",
            "planner.strategy.hybrid",
            "planner.strategy.sfs",
            "planner.strategy.bskytree",
            "planner.strategy.sharded",
            "planner.strategy.delta",
            "planner.strategy.cached",
            "planner.strategy.other",
        ] {
            v.set(name, self.strategies.get(name).copied().unwrap_or(0) as f64);
        }
        let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
        let names = [
            "algo.init_ms",
            "algo.prefilter_ms",
            "algo.pivot_ms",
            "algo.phase1_ms",
            "algo.phase2_ms",
            "algo.compress_ms",
        ];
        for (name, d) in names.into_iter().zip(self.phases) {
            v.set(name, per(ms(d), self.with_stats));
        }
        let dts = self.stats_dts + self.merge_dts;
        v.set("dominance.dts_per_query", per(dts as f64, self.results));
        let parallel = (self.phases[3] + self.phases[4]).as_secs_f64() * 1e9;
        v.set("dominance.ns_per_dt", per(parallel, self.stats_dts));
        v.set("algo.skyband_ms", stats::median(&self.skyband_ms));
        v.set("cache.hit_frac", per(self.hits as f64, self.results));
        v.set("cache.ancestor_hits", self.ancestor_hits as f64);
        v.set(
            "cache.seed_frac",
            per(self.seeded_misses as f64, self.traced_misses),
        );
        v.set(
            "merge.candidates",
            per(self.merge_candidates as f64, self.merges),
        );
        v.set(
            "merge.witness_frac",
            per(self.merge_witness_kills as f64, self.merge_candidates),
        );
        v.set("merge.dts", per(self.merge_dts as f64, self.merges));
        v.set("merge.ms", stats::median(&self.merge_ms));
        v.set(
            "shard.local_max_ms",
            stats::median(&self.shard_local_max_ms),
        );
        v.set("planner.plan_us", stats::median(&self.plan_us));
        v.set(
            "session.queue_wait_p50_us",
            stats::median(&self.queue_wait_us),
        );
        v.set(
            "session.queue_wait_tail_us",
            stats::tail(&self.queue_wait_us).value,
        );
    }
}

/// Runs `query` through `session` as the traced run does: spans around
/// `Session::submit`, `QueryTicket::wait` and `QueryTicket::trace`
/// under one `engine.execute` span, with the engine's own trace spans
/// attached beneath it.
pub fn traced_execute(
    session: &skyline_engine::Session,
    tracer: &crate::trace::Tracer,
    query: &skyline_engine::SkylineQuery,
    req: u64,
) -> (
    Result<QueryResult, skyline_engine::EngineError>,
    Option<std::sync::Arc<QueryTrace>>,
) {
    let parent = tracer.reserve();
    let start = std::time::Instant::now();
    let (ticket, _) = tracer.time("session.submit", Some(parent), req, || {
        session.submit(query)
    });
    let (result, trace) = match ticket {
        Ok(ticket) => {
            let (result, _) = tracer.time("ticket.wait", Some(parent), req, || ticket.wait());
            let (trace, _) = tracer.time("ticket.trace", Some(parent), req, || ticket.trace());
            (result, trace)
        }
        Err(e) => (Err(e), None),
    };
    let end = std::time::Instant::now();
    if let Some(t) = &trace {
        tracer.attach(parent, req, start, t);
    }
    tracer.record_as(parent, "engine.execute", None, req, start, end);
    (result, trace)
}

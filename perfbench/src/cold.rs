//! `cold-anticorr`: the paper's hard case. Distinct subspace queries
//! over 400k×8 anticorrelated rows, each asked of a plain and a
//! grid-sharded registration of the same rows, closed loop, one client.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use skyline_core::algo::Algorithm;
use skyline_core::skyband::skyband_counts;
use skyline_core::SkylineConfig;
use skyline_data::{generate, splitmix64, Dataset, Distribution, PartitionerKind, Rng};
use skyline_engine::{Engine, EngineConfig, QueryKind, QueryResult, SkylineQuery};
use skyline_parallel::ThreadPool;

use crate::layers::{traced_execute, QueryLayers};
use crate::record::{Values, WorkloadInfo};
use crate::reference::{folded, prefs_for};
use crate::stats::{self, ms, Outcome, Tally};
use crate::{nproc, parallel_map, timed, Ctx, Report, SETUP_REPS};

pub const INFO: WorkloadInfo = WorkloadInfo {
    name: "cold-anticorr",
    why: "the paper's hard case: distinct anticorrelated subspace queries, plain and grid-sharded, so every query runs the algorithms",
    clients: "closed loop, 1 client thread",
    exercises: &["core.dominance", "core.algo", "parallel", "engine.planner", "engine.merge"],
    bypasses: &["serve", "data.persist", "engine.recovery", "core.maintain", "engine.cache hits"],
};

const ROWS: usize = 400_000;
const DIMS: usize = 8;
const PLAIN: &str = "anti";
const SHARDED: &str = "anti_grid4";

/// One query of the stream, asked of both registrations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Ask {
    dims: Vec<usize>,
    mask: u32,
    kind: QueryKind,
}

impl Ask {
    fn query(&self, dataset: &str) -> SkylineQuery {
        SkylineQuery::new(dataset)
            .dims(self.dims.clone())
            .preference(prefs_for(&self.dims, self.mask))
            .kind(self.kind)
    }
}

/// Asks per cycle of the stream.
const CYCLE: usize = 20;
/// The skyband of each round of a cycle: (dimensions, k).
const BANDS: [(usize, u32); 4] = [(3, 4), (4, 3), (5, 2), (4, 2)];

/// Fixed seed of the query shapes; the run's seed only rotates them.
const SHAPE_SEED: u64 = 0x636f_6c64;

/// The query stream, in cycles of [`CYCLE`] asks: four rounds of
/// skylines on 3, 4, 5 and 6 dimensions followed by one skyband (the
/// round's entry of [`BANDS`]), so one ask in five is a skyband. On
/// alternate slots one of the dimensions prefers larger values. No
/// (dims, preferences, kind) repeats, so no cache key does.
///
/// The generator couples each dimension to its cyclic neighbour, so a
/// subspace's cost depends on its shape up to rotation. The shapes are
/// drawn from a fixed seed and the run's seed picks the rotation: runs
/// ask different dimensions of different data with the same mix of
/// costs, and the run measures whole cycles.
struct Stream {
    rng: Rng,
    rotation: usize,
    seen: HashSet<Ask>,
    next: usize,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Self {
            rng: Rng::seed_from(SHAPE_SEED),
            rotation: (splitmix64(&mut seed.clone()) % DIMS as u64) as usize,
            seen: HashSet::new(),
            next: 0,
        }
    }

    fn draw(&mut self) -> Ask {
        let (round, slot) = ((self.next % CYCLE) / 5, self.next % 5);
        self.next += 1;
        let (d, kind) = if slot < 4 {
            (3 + slot, QueryKind::Skyline)
        } else {
            let (d, k) = BANDS[round];
            (d, QueryKind::Skyband { k })
        };
        let one_max = (round + slot) % 2 == 1;
        loop {
            let mut all: Vec<usize> = (0..DIMS).collect();
            for i in 0..d {
                let j = i + self.rng.next_below(DIMS - i);
                all.swap(i, j);
            }
            let max_at = all[self.rng.next_below(d)];
            let rotate = |x: usize| (x + self.rotation) % DIMS;
            let mut dims: Vec<usize> = all[..d].iter().map(|&x| rotate(x)).collect();
            dims.sort_unstable();
            let mask = if one_max { 1 << rotate(max_at) } else { 0 };
            let ask = Ask { dims, mask, kind };
            if self.seen.insert(ask.clone()) {
                return ask;
            }
        }
    }
}

/// Data generation, both registrations, and a warm-up that touches
/// every registered row without caching anything the stream could use.
fn setup(seed: u64, lanes: usize) -> (Engine, Dataset, [Duration; 3]) {
    let pool = ThreadPool::new(lanes);
    let (data, gen) = timed(|| generate(Distribution::Anticorrelated, ROWS, DIMS, seed, &pool));
    let engine = Engine::with_config(EngineConfig {
        threads: lanes,
        ..EngineConfig::default()
    });
    let (_, reg) = timed(|| {
        engine.register(PLAIN, data.clone());
        engine.register_sharded(SHARDED, data.clone(), 4, PartitionerKind::Grid);
    });
    // Two maximised dimensions: the stream maximises at most one, so
    // these cached answers can never seed or answer a stream query.
    let (_, warm) = timed(|| {
        for name in [PLAIN, SHARDED] {
            let q = SkylineQuery::new(name)
                .dims([0, 1])
                .preference(prefs_for(&[0, 1], 0b11));
            engine.execute(&q).expect("warm-up query");
        }
    });
    (engine, data, [gen, reg, warm])
}

/// A reference answer: ascending ids, and dominator counts for a skyband.
type Reference = (Vec<u32>, Option<Vec<u32>>);

/// The reference answer: a sequential core run over rows this module
/// projects and preference-folds itself.
fn reference(data: &Dataset, ask: &Ask, pool: &ThreadPool) -> Reference {
    let rows = folded(data, &ask.dims, ask.mask);
    match ask.kind {
        QueryKind::Skyband { k } => {
            let mut dts = 0;
            let band = skyband_counts(rows.values(), rows.dims(), k, &mut dts);
            let (ids, counts) = band.into_iter().unzip();
            (ids, Some(counts))
        }
        _ => {
            let mut ids = Algorithm::BSkyTree
                .run(&rows, pool, &SkylineConfig::default())
                .indices;
            ids.sort_unstable();
            (ids, None)
        }
    }
}

/// One answered query, kept for the check after the window.
struct Answer {
    ask: usize,
    latency: Duration,
    ids: Vec<u32>,
    counts: Option<Vec<u32>>,
}

fn answer(ask: usize, latency: Duration, r: &QueryResult) -> Answer {
    Answer {
        ask,
        latency,
        ids: r.indices().to_vec(),
        counts: r.counts().map(<[u32]>::to_vec),
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let lanes = nproc();
    let mut v = Values::default();

    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (engine, data, parts) = setup(ctx.seed, lanes);
        setups.push(parts);
        last = Some((engine, data));
    }
    let (engine, data) = last.expect("at least one set-up");
    let total = |p: &[Duration; 3]| p.iter().sum::<Duration>().as_secs_f64();
    v.set(
        "setup_s",
        stats::median(&setups.iter().map(total).collect::<Vec<_>>()),
    );
    for (i, name) in ["setup.generate_s", "setup.register_s", "setup.warm_s"]
        .into_iter()
        .enumerate()
    {
        v.set(
            name,
            stats::median(
                &setups
                    .iter()
                    .map(|p| p[i].as_secs_f64())
                    .collect::<Vec<_>>(),
            ),
        );
    }

    // The measured window: closed loop, one client.
    let session = engine.session("perfbench");
    let mut stream = Stream::new(ctx.seed);
    let mut asks: Vec<Ask> = Vec::new();
    let mut answers: Vec<Answer> = Vec::new();
    let mut failed = 0u64;
    let mut layers = QueryLayers::default();
    let (mut traced_ms, mut control_ms) = (Vec::new(), Vec::new());
    let evictions_before = engine.cache_stats().evictions;
    let start = Instant::now();
    while start.elapsed() < ctx.window || !asks.len().is_multiple_of(CYCLE) {
        let ask = stream.draw();
        let id = asks.len();
        let traced = ctx.traced() && id.is_multiple_of(2);
        for dataset in [PLAIN, SHARDED] {
            let q = ask.query(dataset);
            let req = (id * 2 + usize::from(dataset == SHARDED)) as u64;
            let t0 = Instant::now();
            let (result, trace) = if traced {
                traced_execute(&session, &ctx.tracer, &q, req)
            } else {
                (engine.execute(&q), None)
            };
            let latency = t0.elapsed();
            match result {
                Ok(r) => {
                    if ctx.traced() {
                        layers.add_result(&r, latency);
                        if traced {
                            &mut traced_ms
                        } else {
                            &mut control_ms
                        }
                        .push(ms(latency));
                    }
                    if let Some(t) = &trace {
                        layers.add_trace(t, false);
                    }
                    answers.push(answer(id, latency, &r));
                }
                Err(e) => {
                    eprintln!("cold-anticorr: query failed: {e}");
                    failed += 1;
                }
            }
        }
        asks.push(ask);
    }
    let window = start.elapsed();
    // Peak memory of the system under test, before the checks below
    // allocate the benchmark's own references.
    v.set("peak_rss_mb", crate::record::peak_rss_mb());
    let evictions = engine.cache_stats().evictions - evictions_before;

    // Check every answer against its reference, one reference per core.
    let refs: Vec<Reference> = parallel_map(&asks, lanes, |ask| {
        reference(&data, ask, &ThreadPool::new(1))
    });
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    for a in &answers {
        let (ids, counts) = &refs[a.ask];
        let ok = &a.ids == ids && a.counts.as_ref() == counts.as_ref();
        if !ok {
            eprintln!("cold-anticorr: wrong answer for {:?}", asks[a.ask]);
        }
        tally.add(if ok { Outcome::Correct } else { Outcome::Wrong });
        latencies.push(ms(a.latency));
    }
    for _ in 0..failed {
        tally.add(Outcome::Failed);
    }

    let tail = stats::tail(&latencies);
    v.set("query_p50_ms", stats::median(&latencies));
    v.set("query_tail_ms", tail.value);
    v.set("queries_per_s", tally.correct as f64 / window.as_secs_f64());
    let notes = vec![format!(
        "query_tail_ms is p{:.2} of {} queries ({} asks x 2 registrations, window {:.2} s)",
        tail.percentile,
        tail.samples,
        asks.len(),
        window.as_secs_f64()
    )];

    if ctx.traced() {
        layers.write(&mut v);
        v.set("cache.evictions", evictions as f64);
        v.set("session.rejected", rejected(&engine) as f64);
        v.set("parallel.speedup", speedup(&data, &asks, lanes));
        let control = stats::median(&control_ms);
        v.set(
            "trace.overhead_frac",
            if control > 0.0 {
                (stats::median(&traced_ms) - control) / control
            } else {
                0.0
            },
        );
    }
    Report {
        values: v,
        tally,
        engine_lanes: engine.threads(),
        data: vec![format!(
            "{PLAIN} {ROWS}x{DIMS} anticorrelated, also as {SHARDED} (grid, k=4)"
        )],
        notes,
    }
}

/// Admission rejections of any kind so far.
pub fn rejected(engine: &Engine) -> u64 {
    let s = engine.session_stats();
    s.rejected_queue_full + s.rejected_quota + s.rejected_shutdown
}

/// `Algorithm::run` on a 1-lane pool versus an all-lane pool over the
/// projected inputs of the first four skyline asks (3..=6 dimensions),
/// with the algorithm the planner picks at that size: total 1-lane time
/// over total all-lane time.
fn speedup(data: &Dataset, asks: &[Ask], lanes: usize) -> f64 {
    let one = ThreadPool::new(1);
    let all = ThreadPool::new(lanes);
    let mut t1 = Duration::ZERO;
    let mut tn = Duration::ZERO;
    for ask in asks.iter().filter(|a| a.kind.is_skyline()).take(4) {
        let rows = folded(data, &ask.dims, ask.mask);
        let algo = if ask.dims.len() <= 4 {
            Algorithm::QFlow
        } else {
            Algorithm::Hybrid
        };
        let cfg = SkylineConfig::tuned(rows.len(), lanes);
        t1 += timed(|| std::hint::black_box(algo.run(&rows, &one, &cfg))).1;
        tn += timed(|| std::hint::black_box(algo.run(&rows, &all, &cfg))).1;
    }
    if tn.is_zero() {
        0.0
    } else {
        t1.as_secs_f64() / tn.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_distinct_and_one_in_five_skyband() {
        let a: Vec<Ask> = {
            let mut s = Stream::new(3);
            (0..100).map(|_| s.draw()).collect()
        };
        let b: Vec<Ask> = {
            let mut s = Stream::new(3);
            (0..100).map(|_| s.draw()).collect()
        };
        assert_eq!(a, b);
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), a.len());
        assert_eq!(a.iter().filter(|q| !q.kind.is_skyline()).count(), 20);
        assert!(a
            .iter()
            .all(|q| (3..=6).contains(&q.dims.len()) && q.mask.count_ones() <= 1));
    }
}

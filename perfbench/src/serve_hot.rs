//! `serve-hot`: an open-loop HTTP load of Zipf-popular cached queries
//! with rare cache misses, against an in-process `SkylineServer`, then
//! a ladder of offered rates for `max_qps_at_slo`.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use skyline_data::{generate, splitmix64, Dataset, Distribution, Rng};
use skyline_engine::{Engine, EngineConfig, QueryKind, SkylineQuery, TelemetryConfig};
use skyline_parallel::ThreadPool;
use skyline_serve::{parse_json, Client, ServeConfig, SkylineServer};

use crate::cold::rejected;
use crate::layers::QueryLayers;
use crate::record::{Values, WorkloadInfo};
use crate::reference::{prefs_for, top_k_dominating, BandRef, Rows};
use crate::stats::{self, drive_open_loop, ms, us, Outcome, Schedule, Tally, Timed};
use crate::{nproc, parallel_map, timed, Ctx, Report, SETUP_REPS};

pub const INFO: WorkloadInfo = WorkloadInfo {
    name: "serve-hot",
    why: "open-loop HTTP serving of Zipf-popular cached queries with 0.5% cache misses: the serve, session and cache layers, misses contending with connection threads",
    clients: "open loop, 2 generator threads on 2 keep-alive connections",
    exercises: &["serve", "engine.session", "engine.cache", "parallel (misses)"],
    bypasses: &["data.persist", "engine.recovery", "engine.merge", "core.maintain"],
};

const ANTI: &str = "hot_anti";
const INDEP: &str = "hot_indep";
const ANTI_ROWS: usize = 20_000;
const INDEP_ROWS: usize = 50_000;
const DIMS: usize = 6;
const GENERATORS: usize = 2;
/// Offered rate of the measured phase, requests per second: busy
/// enough that the cores do not go idle between requests, so the
/// wake-ups inside each round trip cost the same from run to run (at
/// 2000 req/s the median moved by a third between runs).
const RATE: f64 = 6_000.0;
/// Share of the window spent at [`RATE`]; the rest is the ladder.
const FIXED_SHARE: f64 = 0.6;
/// Offered rates of the ladder, requests per second.
const LADDER: [f64; 5] = [2_000.0, 4_000.0, 8_000.0, 12_000.0, 16_000.0];
/// Tail latency limit of `max_qps_at_slo`.
const SLO_TAIL_MS: f64 = 10.0;
/// Probability that a request is a unique cache miss.
const MISS_PROB: f64 = 0.005;
/// Draws spent looking for an unused miss before giving up.
const MISS_ATTEMPTS: usize = 800;

/// One query as sent over the wire.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Spec {
    dataset: &'static str,
    dims: Vec<usize>,
    mask: u32,
    kind: QueryKind,
    limit: Option<usize>,
}

impl Spec {
    fn body(&self) -> String {
        let dims: Vec<String> = self.dims.iter().map(usize::to_string).collect();
        let prefs: Vec<&str> = self
            .dims
            .iter()
            .map(|&d| {
                if self.mask & (1 << d) != 0 {
                    "\"max\""
                } else {
                    "\"min\""
                }
            })
            .collect();
        let mut s = format!(
            "{{\"dataset\":\"{}\",\"dims\":[{}],\"preference\":[{}]",
            self.dataset,
            dims.join(","),
            prefs.join(",")
        );
        match self.kind {
            QueryKind::Skyband { k } => {
                s.push_str(&format!(",\"kind\":{{\"skyband\":{{\"k\":{k}}}}}"))
            }
            QueryKind::TopKDominating { k } => {
                s.push_str(&format!(",\"kind\":{{\"top_k_dominating\":{{\"k\":{k}}}}}"))
            }
            QueryKind::Skyline => {}
        }
        if let Some(l) = self.limit {
            s.push_str(&format!(",\"limit\":{l}"));
        }
        s.push('}');
        s
    }

    fn query(&self) -> SkylineQuery {
        let mut q = SkylineQuery::new(self.dataset)
            .dims(self.dims.clone())
            .preference(prefs_for(&self.dims, self.mask))
            .kind(self.kind);
        if let Some(l) = self.limit {
            q = q.limit(l);
        }
        q
    }
}

/// Fixed seed of the query shapes and the request sequence; the run's
/// seed picks the data and a rotation of the dimensions.
const SHAPE_SEED: u64 = 0x686f74;

/// Draws the shapes of the run's queries. The anticorrelated generator
/// couples each dimension to its cyclic neighbour, so a subspace's cost
/// depends on its shape up to rotation: shapes come from a fixed seed
/// and the run's seed rotates them, which gives every run the same mix
/// of costs over different dimensions of different data.
struct Shapes {
    rng: Rng,
    rotation: usize,
}

impl Shapes {
    fn new(seed: u64) -> Self {
        Self {
            rng: Rng::seed_from(SHAPE_SEED),
            rotation: (splitmix64(&mut seed.clone()) % DIMS as u64) as usize,
        }
    }

    /// A subspace of `size` dimensions, each maximised with chance 1/4.
    fn subspace(&mut self, size: usize) -> (Vec<usize>, u32) {
        let rng = &mut self.rng;
        let mut all: Vec<usize> = (0..DIMS).collect();
        for i in 0..size {
            let j = i + rng.next_below(DIMS - i);
            all.swap(i, j);
        }
        let mut dims: Vec<usize> = all[..size]
            .iter()
            .map(|&d| (d + self.rotation) % DIMS)
            .collect();
        dims.sort_unstable();
        let mut mask = 0;
        for &d in &dims {
            if rng.next_below(4) == 0 {
                mask |= 1 << d;
            }
        }
        (dims, mask)
    }
}

/// The 64 fixed queries. On the anticorrelated set: four subspace
/// families (a skyband k'=8 ancestor, its k=2 and k=4 children, the
/// skyline, and the skyline with a limit), four top-k dominating k=8
/// queries and eight more skylines. On the independent set: 32
/// subspace skylines, a quarter with limits. Whether a query is an
/// ancestor child decides whether set-up warms it: children are left
/// for the ancestor to answer during the run.
fn fixed_queries(shapes: &mut Shapes) -> Vec<(Spec, bool)> {
    let mut out: Vec<(Spec, bool)> = Vec::new();
    let mut seen = HashSet::new();
    let mut push = |out: &mut Vec<(Spec, bool)>, spec: Spec, warm: bool| {
        if seen.insert(spec.clone()) {
            out.push((spec, warm));
            true
        } else {
            false
        }
    };
    let spec = |dataset, dims: &[usize], mask, kind, limit| Spec {
        dataset,
        dims: dims.to_vec(),
        mask,
        kind,
        limit,
    };
    for size in [3, 3, 4, 4] {
        loop {
            let (dims, mask) = shapes.subspace(size);
            if push(
                &mut out,
                spec(ANTI, &dims, mask, QueryKind::Skyband { k: 8 }, None),
                true,
            ) {
                for k in [2, 4] {
                    push(
                        &mut out,
                        spec(ANTI, &dims, mask, QueryKind::Skyband { k }, None),
                        false,
                    );
                }
                push(
                    &mut out,
                    spec(ANTI, &dims, mask, QueryKind::Skyline, None),
                    false,
                );
                push(
                    &mut out,
                    spec(ANTI, &dims, mask, QueryKind::Skyline, Some(50)),
                    false,
                );
                break;
            }
        }
    }
    for size in [2, 3, 3, 4] {
        while !{
            let (dims, mask) = shapes.subspace(size);
            push(
                &mut out,
                spec(ANTI, &dims, mask, QueryKind::TopKDominating { k: 8 }, None),
                true,
            )
        } {}
    }
    for i in 0..8 {
        while !{
            let (dims, mask) = shapes.subspace(2 + i % 4);
            push(
                &mut out,
                spec(ANTI, &dims, mask, QueryKind::Skyline, None),
                true,
            )
        } {}
    }
    for i in 0..32 {
        let limit = (i % 4 == 3).then_some(20);
        while !{
            let (dims, mask) = shapes.subspace(2 + i % 5);
            push(
                &mut out,
                spec(INDEP, &dims, mask, QueryKind::Skyline, limit),
                true,
            )
        } {}
    }
    assert_eq!(out.len(), 64);
    out
}

/// An expected answer, rendered as the server renders it.
#[derive(Debug, Clone)]
struct Expect {
    indices: String,
    counts: Option<String>,
}

fn render(v: &[u32]) -> String {
    v.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
}

/// The reference answer of `spec`: brute-force dominance tests over
/// the benchmark's own copy of the rows.
fn expect(spec: &Spec, rows: &Rows) -> Expect {
    let take = spec.limit.unwrap_or(usize::MAX);
    let (ids, counts): (Vec<u32>, Vec<u32>) = match spec.kind {
        QueryKind::TopKDominating { k } => top_k_dominating(rows, &spec.dims, spec.mask, k),
        kind => BandRef::build(rows, &spec.dims, spec.mask, kind.k())
            .members()
            .collect(),
    }
    .into_iter()
    .take(take)
    .unzip();
    Expect {
        indices: render(&ids),
        counts: (!spec.kind.is_skyline()).then(|| render(&counts)),
    }
}

/// The contents of the JSON array member `key` of a response body.
fn array<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":[");
    let at = body.find(&tag)? + tag.len();
    let len = body[at..].find(']')?;
    Some(&body[at..at + len])
}

/// The server-reported `elapsed_us` of a response body.
fn elapsed_us(body: &str) -> Option<f64> {
    let tag = "\"elapsed_us\":";
    let at = body.find(tag)? + tag.len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn matches(body: &str, want: &Expect) -> bool {
    array(body, "indices") == Some(want.indices.as_str())
        && array(body, "counts") == want.counts.as_deref()
}

/// One request of a generator's pre-drawn sequence.
#[derive(Debug, Clone, Copy)]
enum Pick {
    Fixed(usize),
    Miss(usize),
}

/// One phase of the run: an offered rate over a slice of the window.
#[derive(Debug, Clone, Copy)]
struct Phase {
    rate: f64,
    start: Duration,
    len: Duration,
}

/// What a generator learned from one response.
#[derive(Debug, Clone)]
struct Reply {
    outcome: Outcome,
    server_us: Option<f64>,
    body_len: usize,
    traced: bool,
    /// Misses keep their body for the check after the window.
    miss: Option<(usize, String)>,
}

/// One request as the generator saw it.
#[derive(Debug, Clone)]
struct Sent {
    timed: Timed,
    reply: Reply,
}

struct Server {
    engine: Arc<Engine>,
    server: SkylineServer,
    data: [Dataset; 2],
}

fn engine_config(lanes: usize, traced: bool) -> EngineConfig {
    let mut cfg = EngineConfig {
        threads: lanes,
        ..EngineConfig::default()
    };
    if traced {
        // Every query's trace is retained, so the run can read the
        // admission, plan and cache spans of each one afterwards.
        cfg.telemetry = TelemetryConfig {
            slow_query_threshold: Duration::ZERO,
            slow_log_capacity: 1 << 18,
            ..TelemetryConfig::default()
        };
    }
    cfg
}

fn setup(ctx: &Ctx, lanes: usize, fixed: &[(Spec, bool)]) -> (Server, [Duration; 3]) {
    let pool = ThreadPool::new(lanes);
    let (data, gen) = timed(|| {
        [
            generate(
                Distribution::Anticorrelated,
                ANTI_ROWS,
                DIMS,
                ctx.seed,
                &pool,
            ),
            generate(
                Distribution::Independent,
                INDEP_ROWS,
                DIMS,
                ctx.seed ^ 0x1d,
                &pool,
            ),
        ]
    });
    let engine = Arc::new(Engine::with_config(engine_config(lanes, ctx.traced())));
    let (server, reg) = timed(|| {
        engine.register(ANTI, data[0].clone());
        engine.register(INDEP, data[1].clone());
        SkylineServer::start(
            Arc::clone(&engine),
            ServeConfig {
                shutdown_engine: false,
                ..ServeConfig::default()
            },
        )
        .expect("server starts on an ephemeral port")
    });
    let (_, warm) = timed(|| {
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for (spec, _) in fixed.iter().filter(|(_, warm)| *warm) {
            let r = client
                .post_json("/v1/query", &spec.body())
                .expect("warm-up request");
            assert_eq!(r.status, 200, "warm-up query failed: {}", r.text());
        }
    });
    let _ = engine.slow_queries();
    (
        Server {
            engine,
            server,
            data,
        },
        [gen, reg, warm],
    )
}

/// Sleeps until `deadline`, spinning the last stretch so a request is
/// sent within microseconds of its due time.
fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now + Duration::from_micros(150) {
        std::thread::sleep(deadline - now - Duration::from_micros(120));
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Runs one generator over every phase on its own connection.
#[allow(clippy::too_many_arguments)]
fn generator(
    index: usize,
    addr: SocketAddr,
    t0: Instant,
    phases: &[Phase],
    picks: &[Vec<Pick>],
    bodies: &[String],
    miss_bodies: &[String],
    expects: &[Expect],
    ctx: &Ctx,
) -> Vec<Vec<Sent>> {
    let mut client = Client::connect(addr).expect("connect");
    let mut out = Vec::new();
    for (phase, picks) in phases.iter().zip(picks) {
        let base = t0 + phase.start;
        let sent = drive_open_loop(
            Schedule::shared(phase.rate, GENERATORS, index),
            phase.len,
            || Instant::now().saturating_duration_since(base),
            |due| sleep_until(base + due),
            |k| {
                let body = match picks[k as usize] {
                    Pick::Fixed(i) => &bodies[i],
                    Pick::Miss(i) => &miss_bodies[i],
                };
                let start = Instant::now();
                let resp = client.post_json("/v1/query", body);
                let traced = ctx.traced() && k.is_multiple_of(2);
                if traced {
                    let req = ((index as u64) << 48) | k;
                    ctx.tracer
                        .record("client.post_json", None, req, start, Instant::now());
                }
                if resp.is_err() {
                    // A dead connection is replaced for the next request.
                    if let Ok(c) = Client::connect(addr) {
                        client = c;
                    }
                }
                (resp, traced)
            },
            |k, (resp, traced)| {
                let pick = picks[k as usize];
                let Ok(r) = resp else {
                    return Reply {
                        outcome: Outcome::Failed,
                        server_us: None,
                        body_len: 0,
                        traced,
                        miss: None,
                    };
                };
                let text = String::from_utf8_lossy(&r.body).into_owned();
                let server_us = elapsed_us(&text);
                let body_len = r.body.len();
                let (outcome, miss) = match (Outcome::of_status(r.status), pick) {
                    (Some(o), _) => (o, None),
                    (None, Pick::Fixed(i)) if matches(&text, &expects[i]) => {
                        (Outcome::Correct, None)
                    }
                    (None, Pick::Fixed(_)) => (Outcome::Wrong, None),
                    (None, Pick::Miss(i)) => (Outcome::Correct, Some((i, text))),
                };
                Reply {
                    outcome,
                    server_us,
                    body_len,
                    traced,
                    miss,
                }
            },
        );
        out.push(
            sent.into_iter()
                .map(|(timed, reply)| Sent { timed, reply })
                .collect(),
        );
    }
    out
}

/// Whether the generator's lateness grew across a phase: the median
/// lateness of its last quarter exceeds that of its first quarter by
/// more than a millisecond.
fn lateness_grows(sent: &[&Sent]) -> bool {
    let q = sent.len() / 4;
    if q == 0 {
        return false;
    }
    let late =
        |s: &[&Sent]| stats::median(&s.iter().map(|x| ms(x.timed.lateness())).collect::<Vec<_>>());
    late(&sent[sent.len() - q..]) > late(&sent[..q]) + 1.0
}

pub fn run(ctx: &Ctx) -> Report {
    let lanes = nproc();
    let mut v = Values::default();
    let mut shapes = Shapes::new(ctx.seed);
    let fixed = fixed_queries(&mut shapes);

    let mut setups = Vec::new();
    let mut last: Option<Server> = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = last.take() {
            s.server.shutdown();
        }
        let (server, parts) = setup(ctx, lanes, &fixed);
        setups.push(parts);
        last = Some(server);
    }
    let Server {
        engine,
        server,
        data,
    } = last.expect("at least one set-up");
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

    // Reference answers of the fixed queries, before the window.
    let rows = [Rows::from_dataset(&data[0]), Rows::from_dataset(&data[1])];
    let rows_of = |name: &str| if name == ANTI { &rows[0] } else { &rows[1] };
    let expects: Vec<Expect> = parallel_map(&fixed, lanes, |(spec, _)| {
        expect(spec, rows_of(spec.dataset))
    });

    // Phases and the pre-drawn request sequences.
    let fixed_len = ctx.window.mul_f64(FIXED_SHARE);
    let step = (ctx.window - fixed_len) / LADDER.len() as u32;
    let mut phases = vec![Phase {
        rate: RATE,
        start: Duration::ZERO,
        len: fixed_len,
    }];
    for (i, &rate) in LADDER.iter().enumerate() {
        phases.push(Phase {
            rate,
            start: fixed_len + step * i as u32,
            len: step,
        });
    }
    let zipf: Vec<f64> = (0..fixed.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let zipf_total: f64 = zipf.iter().sum();
    // Popularity rank → fixed query: a fixed spread over the list, so
    // every seed gives each rank the same shape of query.
    let popularity: Vec<usize> = (0..fixed.len())
        .map(|r| (r * 37 + 40) % fixed.len())
        .collect();
    let fixed_keys: HashSet<(&str, Vec<usize>, u32)> = fixed
        .iter()
        .map(|(s, _)| (s.dataset, s.dims.clone(), s.mask))
        .collect();
    let mut seen: HashSet<Spec> = fixed.iter().map(|(s, _)| s.clone()).collect();
    let mut misses: Vec<Spec> = Vec::new();
    let mut draw = |shapes: &mut Shapes| -> Pick {
        if shapes.rng.next_f64() < MISS_PROB {
            // Misses are skylines: 3-d then 4-d subspaces of the
            // anticorrelated set, then of the independent one, each tier
            // tried once the one before runs out; when all run out the
            // request is a hit.
            for attempt in 0..MISS_ATTEMPTS {
                let tier = attempt * 4 / MISS_ATTEMPTS;
                let dataset = if tier < 2 { ANTI } else { INDEP };
                let (dims, mask) = shapes.subspace(3 + tier % 2);
                // A subspace some fixed query caches could answer it
                // from an ancestor, so those are not misses.
                if fixed_keys.contains(&(dataset, dims.clone(), mask)) {
                    continue;
                }
                let spec = Spec {
                    dataset,
                    dims,
                    mask,
                    kind: QueryKind::Skyline,
                    limit: None,
                };
                if seen.insert(spec.clone()) {
                    misses.push(spec);
                    return Pick::Miss(misses.len() - 1);
                }
            }
        }
        let mut x = shapes.rng.next_f64() * zipf_total;
        for (rank, w) in zipf.iter().enumerate() {
            if x < *w {
                return Pick::Fixed(popularity[rank]);
            }
            x -= w;
        }
        Pick::Fixed(popularity[0])
    };
    // Drawn phase by phase, so every phase gets its share of misses.
    let mut picks: Vec<Vec<Vec<Pick>>> = vec![Vec::new(); GENERATORS];
    for p in &phases {
        for (g, gen_picks) in picks.iter_mut().enumerate() {
            let n = Schedule::shared(p.rate, GENERATORS, g).count_within(p.len);
            gen_picks.push((0..n).map(|_| draw(&mut shapes)).collect());
        }
    }
    let bodies: Vec<String> = fixed.iter().map(|(s, _)| s.body()).collect();
    let miss_bodies: Vec<String> = misses.iter().map(Spec::body).collect();

    // The measured window.
    let evictions_before = engine.cache_stats().evictions;
    let addr = server.local_addr();
    let t0 = Instant::now() + Duration::from_millis(20);
    let per_gen: Vec<Vec<Vec<Sent>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..GENERATORS)
            .map(|g| {
                let (phases, picks, bodies, miss_bodies, expects) =
                    (&phases, &picks[g], &bodies, &miss_bodies, &expects);
                s.spawn(move || {
                    generator(
                        g,
                        addr,
                        t0,
                        phases,
                        picks,
                        bodies,
                        miss_bodies,
                        expects,
                        ctx,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let evictions = engine.cache_stats().evictions - evictions_before;
    // Peak memory of the system under test, before the checks below
    // allocate the benchmark's own references.
    v.set("peak_rss_mb", crate::record::peak_rss_mb());
    let traces = if ctx.traced() {
        engine.slow_queries()
    } else {
        Vec::new()
    };
    let rejected_total = rejected(&engine);
    server.shutdown();

    // Check the misses outside the window, against naive references.
    let miss_sent: Vec<(usize, &str)> = per_gen
        .iter()
        .flatten()
        .flatten()
        .filter_map(|s| s.reply.miss.as_ref().map(|(i, b)| (*i, b.as_str())))
        .collect();
    let miss_ok: Vec<bool> = parallel_map(&miss_sent, lanes, |(i, body)| {
        let spec = &misses[*i];
        parse_json(body).is_ok() && matches(body, &expect(spec, rows_of(spec.dataset)))
    });
    let wrong_misses: HashSet<usize> = miss_sent
        .iter()
        .zip(&miss_ok)
        .filter(|(_, ok)| !**ok)
        .map(|((i, _), _)| *i)
        .collect();

    let phase_sent =
        |p: usize| -> Vec<&Sent> { per_gen.iter().flat_map(|g| g[p].iter()).collect() };
    let outcome_of = |s: &Sent| match &s.reply.miss {
        Some((i, _)) if wrong_misses.contains(i) => Outcome::Wrong,
        _ => s.reply.outcome,
    };
    let mut tally = Tally::default();
    for s in per_gen.iter().flatten().flatten() {
        tally.add(outcome_of(s));
    }
    for s in per_gen
        .iter()
        .flatten()
        .flatten()
        .filter(|s| outcome_of(s) == Outcome::Wrong)
    {
        eprintln!(
            "serve-hot: wrong answer (server {} us)",
            s.reply.server_us.unwrap_or(0.0)
        );
    }

    // End-to-end metrics from the fixed-rate phase.
    let main = phase_sent(0);
    let latencies: Vec<f64> = main.iter().map(|s| ms(s.timed.latency())).collect();
    let tail = stats::tail(&latencies);
    v.set("query_p50_ms", stats::median(&latencies));
    v.set("query_tail_ms", tail.value);
    let correct = main
        .iter()
        .filter(|s| outcome_of(s) == Outcome::Correct)
        .count();
    let span = main.iter().map(|s| s.timed.done).max().unwrap_or(fixed_len);
    v.set("queries_per_s", correct as f64 / span.as_secs_f64());
    let mut notes = vec![format!(
        "query_tail_ms is p{:.3} of {} requests offered at {RATE} req/s for {:.2} s",
        tail.percentile,
        tail.samples,
        fixed_len.as_secs_f64()
    )];

    // The ladder.
    let mut max_qps = 0.0;
    for (i, rate) in LADDER.iter().enumerate() {
        let sent = phase_sent(i + 1);
        let lat: Vec<f64> = sent.iter().map(|s| ms(s.timed.latency())).collect();
        let t = stats::tail(&lat);
        let errors = sent
            .iter()
            .filter(|s| outcome_of(s) != Outcome::Correct)
            .count();
        let grows = lateness_grows(&sent);
        let ok = t.value <= SLO_TAIL_MS && errors == 0 && !grows;
        if ok {
            max_qps = *rate;
        }
        notes.push(format!(
            "ladder rate={rate} req/s requests={} tail_ms={:.3} (p{:.2}) errors={errors} lateness_grows={grows} meets_slo={ok}",
            sent.len(),
            t.value,
            t.percentile
        ));
    }
    v.set("max_qps_at_slo", max_qps);
    notes.push(format!(
        "{} unique cache misses drawn over all phases",
        misses.len()
    ));
    notes.push(format!("max_qps_at_slo = {max_qps} 1/s (tail <= {SLO_TAIL_MS} ms, no errors, lateness not growing)"));

    if ctx.traced() {
        let mut layers = QueryLayers::default();
        for t in &traces {
            layers.add_trace(t, true);
        }
        layers.write(&mut v);
        v.set("cache.evictions", evictions as f64);
        v.set("session.rejected", rejected_total as f64);
        let overhead: Vec<f64> = main
            .iter()
            .filter_map(|s| {
                s.reply
                    .server_us
                    .map(|e| us(s.timed.done - s.timed.sent) - e)
            })
            .collect();
        v.set("serve.overhead_us", stats::median(&overhead));
        let bytes: f64 = main.iter().map(|s| s.reply.body_len as f64).sum();
        v.set("serve.response_bytes", bytes / main.len().max(1) as f64);
        let late: Vec<f64> = main.iter().map(|s| ms(s.timed.lateness())).collect();
        v.set("serve.gen_lateness_p50_ms", stats::median(&late));
        v.set(
            "serve.gen_lateness_max_ms",
            late.iter().copied().fold(0.0, f64::max),
        );
        let (traced, control): (Vec<&&Sent>, Vec<&&Sent>) =
            main.iter().partition(|s| s.reply.traced);
        let p50 = |s: &[&&Sent]| {
            stats::median(&s.iter().map(|x| ms(x.timed.latency())).collect::<Vec<_>>())
        };
        let control_p50 = p50(&control);
        v.set(
            "trace.overhead_frac",
            if control_p50 > 0.0 {
                (p50(&traced) - control_p50) / control_p50
            } else {
                0.0
            },
        );
        v.set(
            "parallel.miss_slowdown",
            miss_slowdown(&per_gen, &misses, &fixed, &data, lanes),
        );
    }
    Report {
        values: v,
        tally,
        engine_lanes: engine.threads(),
        data: vec![
            format!("{ANTI} {ANTI_ROWS}x{DIMS} anticorrelated"),
            format!("{INDEP} {INDEP_ROWS}x{DIMS} independent"),
        ],
        notes,
    }
}

/// Each miss's server-reported time over the same query's time on an
/// idle engine holding the same data and the same warmed cache, the
/// misses replayed in the order they arrived: the median ratio.
fn miss_slowdown(
    per_gen: &[Vec<Vec<Sent>>],
    misses: &[Spec],
    fixed: &[(Spec, bool)],
    data: &[Dataset; 2],
    lanes: usize,
) -> f64 {
    let idle = Engine::with_config(engine_config(lanes, false));
    idle.register(ANTI, data[0].clone());
    idle.register(INDEP, data[1].clone());
    for (spec, _) in fixed.iter().filter(|(_, warm)| *warm) {
        idle.execute(&spec.query()).expect("warm-up query");
    }
    let mut loaded: Vec<(Duration, usize, f64)> = per_gen
        .iter()
        .flatten()
        .flatten()
        .filter_map(|s| Some((s.timed.sent, s.reply.miss.as_ref()?.0, s.reply.server_us?)))
        .collect();
    loaded.sort_by_key(|&(sent, i, _)| (sent, i));
    let ratios: Vec<f64> = loaded
        .iter()
        .filter_map(|&(_, i, server_us)| {
            let quiet = us(idle.execute(&misses[i].query()).ok()?.elapsed);
            (quiet > 0.0).then(|| server_us / quiet)
        })
        .collect();
    stats::median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_serve::Json;

    #[test]
    fn fixed_set_is_seeded_and_bodies_parse() {
        let a = fixed_queries(&mut Shapes::new(5));
        let b = fixed_queries(&mut Shapes::new(5));
        assert_eq!(a, b);
        for (spec, _) in &a {
            let json = parse_json(&spec.body()).expect("request body parses");
            assert_eq!(
                json.get("dataset").and_then(Json::as_str),
                Some(spec.dataset)
            );
        }
        assert_eq!(
            a.iter()
                .filter(|(s, _)| matches!(s.kind, QueryKind::TopKDominating { .. }))
                .count(),
            4
        );
    }

    #[test]
    fn response_fields_are_read_from_the_server_rendering() {
        let body = "{\"version\":3,\"cache_hit\":true,\"elapsed_us\":41,\"total\":2,\"count\":2,\"indices\":[4,9],\"counts\":[0,1]}";
        assert_eq!(elapsed_us(body), Some(41.0));
        let want = Expect {
            indices: "4,9".into(),
            counts: Some("0,1".into()),
        };
        assert!(matches(body, &want));
        let skyline = Expect {
            indices: "4,9".into(),
            counts: None,
        };
        assert!(
            !matches(body, &skyline),
            "unexpected counts are a wrong answer"
        );
    }
}

//! `durable-mixed`: two closed-loop clients alternating acknowledged
//! writes and cached subspace queries on a durable engine, then a timed
//! reopen whose state is checked against the acknowledged history.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use skyline_data::{generate, Dataset, Distribution, Rng};
use skyline_engine::{Engine, EngineConfig, MutationReport, SkylineQuery};
use skyline_parallel::ThreadPool;

use crate::layers::{traced_execute, QueryLayers};
use crate::record::{Values, WorkloadInfo};
use crate::reference::{prefs_for, BandRef, Rows};
use crate::stats::{self, ms, Outcome, Tally};
use crate::{nproc, timed, Ctx, Report};

pub const INFO: WorkloadInfo = WorkloadInfo {
    name: "durable-mixed",
    why: "acknowledged writes (fsync per record) interleaved with cached queries on a durable engine, then recovery",
    clients: "closed loop, 2 client threads",
    exercises: &[
        "data.persist",
        "engine.catalog",
        "core.maintain",
        "engine.planner (delta plans, recomputes after deletes)",
        "engine.recovery",
    ],
    bypasses: &["serve", "engine.merge"],
};

const NAME: &str = "wal_anti";
const ROWS: usize = 50_000;
const DIMS: usize = 6;
const CLIENTS: usize = 2;
/// One write in this many is a 256-row batch.
const BATCH_EVERY: usize = 50;
const BATCH_ROWS: usize = 256;
/// Set-up repetitions: one takes about 0.1 s, most of it the snapshot's
/// fsync, so more of them steady the median.
const SETUP_REPS: usize = 15;

/// The cached queries: (dims, maximised-dimension mask, k); k = 1 is
/// the plain skyline.
const QUERIES: [(&[usize], u32, u32); 8] = [
    (&[0, 1], 0, 1),
    (&[2, 3], 0b1000, 1),
    (&[0, 4], 0, 3),
    (&[1, 5], 0, 2),
    (&[0, 2, 4], 0, 1),
    (&[1, 3, 5], 0b10, 1),
    (&[2, 5], 0b100, 4),
    (&[3, 4, 5], 0, 2),
];

fn query(i: usize) -> SkylineQuery {
    let (dims, mask, k) = QUERIES[i];
    let q = SkylineQuery::new(NAME)
        .dims(dims.iter().copied())
        .preference(prefs_for(dims, mask));
    if k == 1 {
        q
    } else {
        q.skyband(k)
    }
}

/// One acknowledged mutation batch.
#[derive(Debug, Clone)]
struct Write {
    version: u64,
    inserts: Vec<(u32, Vec<f32>)>,
    deletes: Vec<u32>,
    ack: Duration,
    patched: usize,
    dropped: usize,
}

/// One answered query.
#[derive(Debug, Clone)]
struct Answer {
    query: usize,
    version: u64,
    ids: Vec<u32>,
    counts: Option<Vec<u32>>,
    latency: Duration,
    /// Whether the traced run traced this query.
    traced: bool,
}

/// A row shaped like the registered data: anticorrelated around the
/// hyperplane where coordinates sum to `DIMS / 2`.
fn row(rng: &mut Rng) -> Vec<f32> {
    let plane = 0.5 + 0.05 * (rng.next_f64() - 0.5);
    let mut r: Vec<f64> = (0..DIMS).map(|_| rng.next_f64()).collect();
    let mean = r.iter().sum::<f64>() / DIMS as f64;
    for x in &mut r {
        *x = (*x - mean + plane).clamp(0.0, 1.0);
    }
    r.into_iter().map(|x| x as f32).collect()
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn config(lanes: usize) -> EngineConfig {
    EngineConfig {
        threads: lanes,
        ..EngineConfig::default()
    }
}

fn setup(ctx: &Ctx, rep: usize, lanes: usize) -> (Engine, Dataset, PathBuf, [Duration; 3]) {
    let dir = ctx.tmp.join(format!("durable-{rep}"));
    let pool = ThreadPool::new(lanes);
    let (data, gen) = timed(|| generate(Distribution::Anticorrelated, ROWS, DIMS, ctx.seed, &pool));
    let (engine, reg) = timed(|| {
        let start = Instant::now();
        let (engine, _) =
            Engine::open_durable(&dir, config(lanes)).expect("open a fresh durable engine");
        ctx.tracer
            .record("engine.open_durable", None, 0, start, Instant::now());
        ctx.tracer.time("engine.register", None, 0, || {
            engine.register(NAME, data.clone())
        });
        engine
    });
    let (_, warm) = timed(|| {
        for i in 0..QUERIES.len() {
            engine.execute(&query(i)).expect("warm-up query");
        }
    });
    (engine, data, dir, [gen, reg, warm])
}

pub fn run(ctx: &Ctx) -> Report {
    let lanes = nproc();
    let mut v = Values::default();
    let mut setups = Vec::new();
    let mut last: Option<(Engine, Dataset, PathBuf)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((engine, _, dir)) = last.take() {
            drop(engine);
            let _ = std::fs::remove_dir_all(dir);
        }
        let (engine, data, dir, parts) = setup(ctx, rep, lanes);
        setups.push(parts);
        last = Some((engine, data, dir));
    }
    let (engine, data, dir) = last.expect("at least one set-up");
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
    let snapshot_bytes = dir_bytes(&dir);
    let base_version = engine.dataset(NAME).expect("registered").version();

    // The measured window: each client alternates a write and a query.
    let start = Instant::now();
    let per_client: Vec<(Vec<Write>, Vec<Answer>, u64, QueryLayers)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let engine = &engine;
                s.spawn(move || client(ctx, engine, c, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let window = start.elapsed();
    // Peak memory of the system under test, before the checks below
    // allocate the benchmark's own references.
    v.set("peak_rss_mb", crate::record::peak_rss_mb());
    let mut writes: Vec<Write> = Vec::new();
    let mut answers: Vec<Answer> = Vec::new();
    let mut failed = 0;
    let mut layers = QueryLayers::default();
    for (w, a, f, l) in per_client {
        writes.extend(w);
        answers.extend(a);
        failed += f;
        layers.merge(l);
    }
    writes.sort_by_key(|w| w.version);
    let rows_written: usize = writes
        .iter()
        .map(|w| w.inserts.len() + w.deletes.len())
        .sum();
    let wal_bytes = dir_bytes(&dir).saturating_sub(snapshot_bytes);
    let final_version = writes.last().map_or(base_version, |w| w.version);

    // Recovery: drop the engine, reopen the directory it left behind.
    drop(engine);
    let recover_start = Instant::now();
    let (recovered, report) =
        Engine::open_durable(&dir, config(lanes)).expect("reopen the durable directory");
    let recover = recover_start.elapsed();
    ctx.tracer.record(
        "engine.open_durable",
        None,
        0,
        recover_start,
        Instant::now(),
    );

    // Check every answer and the recovered state against a replay of
    // the acknowledged history.
    let mut tally = Tally::default();
    let mut rows = Rows::from_dataset(&data);
    let mut bands: Vec<BandRef> = QUERIES
        .iter()
        .map(|&(dims, mask, k)| BandRef::build(&rows, dims, mask, k))
        .collect();
    answers.sort_by_key(|a| a.version);
    let mut pending = answers.iter().peekable();
    let mut check_upto = |version: u64, bands: &[BandRef], tally: &mut Tally| {
        while let Some(a) = pending.next_if(|a| a.version <= version) {
            let ok = a.version == version && bands[a.query].matches(&a.ids, a.counts.as_deref());
            if !ok {
                eprintln!(
                    "durable-mixed: wrong answer to query {} at version {}",
                    a.query, a.version
                );
            }
            tally.add(if ok { Outcome::Correct } else { Outcome::Wrong });
        }
    };
    check_upto(base_version, &bands, &mut tally);
    for w in &writes {
        check_upto(w.version - 1, &bands, &mut tally);
        for &id in &w.deletes {
            let r = rows.get(id).to_vec();
            rows.delete(id);
            for b in &mut bands {
                b.delete(&rows, id, &r);
            }
        }
        for (id, r) in &w.inserts {
            rows.insert(*id, r);
            for b in &mut bands {
                b.insert(&rows, *id);
            }
        }
    }
    check_upto(final_version, &bands, &mut tally);
    // An answer at a version no acknowledged write produced is wrong.
    check_upto(u64::MAX, &bands, &mut tally);
    for _ in &writes {
        tally.add(Outcome::Correct);
    }
    for _ in 0..failed {
        tally.add(Outcome::Failed);
    }
    let recovered_ok = recovered.dataset(NAME).is_some_and(|e| {
        let live: Vec<u32> = rows.live().map(|(id, _)| id).collect();
        e.version() == final_version
            && e.live_ids().as_slice() == live.as_slice()
            && live.iter().all(|&id| e.point(id) == rows.get(id))
    });
    if !recovered_ok {
        eprintln!("durable-mixed: recovered state differs from the acknowledged history");
    }
    tally.add(if recovered_ok {
        Outcome::Correct
    } else {
        Outcome::Wrong
    });

    let latencies: Vec<f64> = answers.iter().map(|a| ms(a.latency)).collect();
    let tail = stats::tail(&latencies);
    v.set("query_p50_ms", stats::median(&latencies));
    v.set("query_tail_ms", tail.value);
    let correct_queries = tally.correct as usize - writes.len() - usize::from(recovered_ok);
    v.set(
        "queries_per_s",
        correct_queries as f64 / window.as_secs_f64(),
    );
    let acks: Vec<f64> = writes.iter().map(|w| ms(w.ack)).collect();
    let write_tail = stats::tail(&acks);
    v.set("write_p50_ms", stats::median(&acks));
    v.set("write_tail_ms", write_tail.value);
    v.set("recover_s", recover.as_secs_f64());
    let notes = vec![
        format!(
            "query_tail_ms is p{:.2} of {} queries; write_tail_ms is p{:.2} of {} writes ({} rows); window {:.2} s",
            tail.percentile,
            tail.samples,
            write_tail.percentile,
            write_tail.samples,
            rows_written,
            window.as_secs_f64()
        ),
        format!(
            "recovery replayed {} records in {:.3} s; final version {final_version}",
            report.records_replayed,
            recover.as_secs_f64()
        ),
    ];

    if ctx.traced() {
        layers.write(&mut v);
        let per_write = |x: usize| x as f64 / writes.len().max(1) as f64;
        v.set(
            "cache.patched_per_write",
            per_write(writes.iter().map(|w| w.patched).sum()),
        );
        v.set(
            "cache.dropped_per_write",
            per_write(writes.iter().map(|w| w.dropped).sum()),
        );
        v.set(
            "wal.bytes_per_row",
            wal_bytes as f64 / rows_written.max(1) as f64,
        );
        v.set("wal.records_replayed", report.records_replayed as f64);
        v.set("snapshot.bytes", snapshot_bytes as f64);
        let apply = replay_in_memory(&data, &writes, lanes);
        let apply_p50 = stats::median(&apply);
        v.set("mutation.apply_ms", apply_p50);
        let ack_p50 = stats::median(&acks);
        v.set(
            "mutation.wal_share",
            if ack_p50 > 0.0 {
                1.0 - apply_p50 / ack_p50
            } else {
                0.0
            },
        );
        let (traced, control): (Vec<&Answer>, Vec<&Answer>) =
            answers.iter().partition(|a| a.traced);
        let p50 =
            |s: &[&Answer]| stats::median(&s.iter().map(|a| ms(a.latency)).collect::<Vec<_>>());
        let control_p50 = p50(&control);
        v.set(
            "trace.overhead_frac",
            if control_p50 > 0.0 {
                (p50(&traced) - control_p50) / control_p50
            } else {
                0.0
            },
        );
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    Report {
        values: v,
        tally,
        engine_lanes: lanes,
        data: vec![format!("{NAME} {ROWS}x{DIMS} anticorrelated, durable")],
        notes,
    }
}

/// One client: write, query, repeat until the window closes. Returns
/// its writes, answers, failed operations and per-layer facts.
fn client(
    ctx: &Ctx,
    engine: &Engine,
    c: usize,
    start: Instant,
) -> (Vec<Write>, Vec<Answer>, u64, QueryLayers) {
    let mut rng = Rng::seed_from(ctx.seed ^ (0x6475 + c as u64));
    // Each client deletes only base rows of its own parity, in a
    // seeded order, so no id is deleted twice.
    let mut deletable: Vec<u32> = (0..ROWS as u32)
        .filter(|id| id % CLIENTS as u32 == c as u32)
        .collect();
    for i in (1..deletable.len()).rev() {
        deletable.swap(i, rng.next_below(i + 1));
    }
    let session = engine.session(format!("client-{c}"));
    let (mut writes, mut answers, mut failed) = (Vec::new(), Vec::new(), 0u64);
    let mut layers = QueryLayers::default();
    let mut n = 0usize;
    while start.elapsed() < ctx.window {
        let (inserts, deletes): (Vec<Vec<f32>>, Vec<u32>) = if n % BATCH_EVERY == BATCH_EVERY - 1 {
            ((0..BATCH_ROWS).map(|_| row(&mut rng)).collect(), Vec::new())
        } else if rng.next_below(4) == 0 {
            (Vec::new(), deletable.pop().into_iter().collect())
        } else {
            (vec![row(&mut rng)], Vec::new())
        };
        let req = ((c as u64) << 48) | n as u64;
        let (result, ack) = timed(|| {
            ctx.tracer
                .time("engine.update_batch", None, req, || {
                    engine.update_batch(NAME, &inserts, &deletes)
                })
                .0
        });
        match result {
            Ok(MutationReport {
                compacted: true, ..
            }) => {
                panic!("a batch compacted the dataset; the workload keeps deletes below the compaction threshold")
            }
            Ok(r) => writes.push(Write {
                version: r.version,
                inserts: r.inserted_ids.iter().copied().zip(inserts).collect(),
                deletes,
                ack,
                patched: r.cache_patched,
                dropped: r.cache_dropped,
            }),
            Err(e) => {
                eprintln!("durable-mixed: write failed: {e}");
                failed += 1;
            }
        }
        let qi = (n + c * QUERIES.len() / CLIENTS) % QUERIES.len();
        let q = query(qi);
        let traced = ctx.traced() && n.is_multiple_of(2);
        let t0 = Instant::now();
        let (result, trace) = if traced {
            traced_execute(&session, &ctx.tracer, &q, req)
        } else {
            (session.execute(&q), None)
        };
        let latency = t0.elapsed();
        match result {
            Ok(r) => {
                if ctx.traced() {
                    layers.add_result(&r, latency);
                }
                if let Some(t) = &trace {
                    layers.add_trace(t, false);
                }
                answers.push(Answer {
                    query: qi,
                    version: r.dataset_version,
                    ids: r.indices().to_vec(),
                    counts: r.counts().map(<[u32]>::to_vec),
                    latency,
                    traced,
                });
            }
            Err(e) => {
                eprintln!("durable-mixed: query failed: {e}");
                failed += 1;
            }
        }
        n += 1;
    }
    (writes, answers, failed, layers)
}

/// Acknowledgement-free cost of the same mutation stream: replayed in
/// version order on an in-memory engine holding the same data and
/// cached queries. Returns each batch's time in ms.
fn replay_in_memory(data: &Dataset, writes: &[Write], lanes: usize) -> Vec<f64> {
    let engine = Engine::with_config(config(lanes));
    engine.register(NAME, data.clone());
    for i in 0..QUERIES.len() {
        engine.execute(&query(i)).expect("warm-up query");
    }
    writes
        .iter()
        .map(|w| {
            let rows: Vec<Vec<f32>> = w.inserts.iter().map(|(_, r)| r.clone()).collect();
            let (r, t) = timed(|| engine.update_batch(NAME, &rows, &w.deletes));
            r.expect("in-memory replay of an acknowledged batch");
            ms(t)
        })
        .collect()
}

//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <cold-anticorr|serve-hot|durable-mixed> --seed N --seconds S --trace 0|1
//! perfbench steady <saved-output>...
//! perfbench layers
//! ```
//!
//! A run generates its inputs from the seed, sets up, measures for the
//! given seconds, checks every answer against a reference, and prints
//! the run record, one line per metric, and as its last line the result
//! object. `--trace 0` reports the end-to-end metrics; `--trace 1` is
//! the separate traced run that reports the per-layer metrics and
//! writes its spans to `.perfbench-out/`. A wrong answer makes the
//! exit code 1. `steady` summarises the saved output of repeated runs;
//! `layers` prints the metric catalogue: each per-layer metric with its
//! layer and the end-to-end metric and workload it should move.

mod cold;
mod durable;
mod layers;
mod record;
mod reference;
mod serve_hot;
mod stats;
mod steady;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use record::{RunFacts, Values, WorkloadInfo};
use stats::Tally;
use trace::Tracer;

/// Directory for the run's temporary files, spans and run records,
/// relative to the working directory.
const OUT_DIR: &str = ".perfbench-out";

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Report {
    /// Every measured value, end-to-end and per-layer.
    pub values: Values,
    /// Attempted operations and how they ended.
    pub tally: Tally,
    /// Engine pool lanes.
    pub engine_lanes: usize,
    /// Data sets, for the run record.
    pub data: Vec<String>,
    /// Extra human-readable lines (tail percentiles, sample counts).
    pub notes: Vec<String>,
}

/// The run's parameters and shared services.
#[derive(Debug)]
pub struct Ctx {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Span recorder; enabled only in the traced run.
    pub tracer: Tracer,
    /// Scratch directory for this run (durable engine directories).
    pub tmp: PathBuf,
}

impl Ctx {
    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// Cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Times `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// `f` over `items` on up to `lanes` threads, results in input order.
pub fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    lanes: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..lanes.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                *slots[i].lock().expect("result slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot")
                .expect("every item mapped")
        })
        .collect()
}

const WORKLOADS: &[WorkloadInfo] = &[cold::INFO, serve_hot::INFO, durable::INFO];

struct Args {
    workload: &'static WorkloadInfo,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds must be 1..=600")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn usage(err: &str) -> ExitCode {
    eprintln!("perfbench: {err}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1\n       perfbench steady <saved-output>...\n       perfbench layers",
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("layers") {
        for line in record::catalogue_lines() {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) == Some("steady") {
        return match steady::run(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => usage(&e),
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let tag = format!(
        "{}-{}-trace{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    let tmp = Path::new(OUT_DIR).join(format!("tmp-{tag}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        tracer: Tracer::new(args.trace),
        tmp: tmp.clone(),
    };
    let mut out = match args.workload.name {
        "cold-anticorr" => cold::run(&ctx),
        "serve-hot" => serve_hot::run(&ctx),
        _ => durable::run(&ctx),
    };
    out.values.set("error_frac", out.tally.error_frac());

    let facts = RunFacts {
        info: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        engine_lanes: out.engine_lanes,
        data: out.data.clone(),
        tmp_dir: &tmp,
    };
    if args.trace {
        for (name, d) in trace::self_times(&ctx.tracer.spans()) {
            out.notes
                .push(format!("self_time span={name} ms={}", stats::ms(d)));
        }
    }
    let run_record = record::run_record(&facts);
    let _ = std::fs::remove_dir_all(&tmp);
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!("spans-{tag}.jsonl"));
        if let Err(e) = ctx.tracer.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let _ = std::fs::write(
        Path::new(OUT_DIR).join(format!("run-{tag}.json")),
        format!("{run_record}\n"),
    );
    println!("run_record {run_record}");
    for line in &out.notes {
        println!("{line}");
    }
    for line in record::metric_lines(&out.values) {
        println!("{line}");
    }
    println!(
        "tally attempted={} correct={} wrong={} refused={} failed={}",
        out.tally.attempted,
        out.tally.correct,
        out.tally.wrong,
        out.tally.refused,
        out.tally.failed
    );
    println!(
        "{}",
        record::result_line(&out.tally, &out.values, args.trace)
    );
    if out.tally.wrong > 0 {
        eprintln!("perfbench: {} wrong answers", out.tally.wrong);
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

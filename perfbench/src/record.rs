//! What a run prints: the metric catalogue, the result line the
//! benchmark contract asks for, and the run record describing the
//! machine and the workload.

use std::collections::BTreeMap;
use std::path::Path;

use crate::stats::Tally;

/// How a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One end-to-end metric: what every workload reports in an untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, in report order. `BENCHMARK.json` lists the
/// same set; a test keeps the two equal. The latency figures are
/// reported with the per-layer metrics: on `serve-hot` the median moved
/// by a fifth between sets of runs taken twenty minutes apart on an
/// unchanged program, and the tail is set by the one or two worst
/// millisecond pauses of a run, so neither can gate a change within
/// the largest bound allowed.
#[rustfmt::skip]
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "queries_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.2 },
];

/// One per-layer metric of the traced run, with the layer it measures
/// and the end-to-end metric and workload it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The program module it measures.
    pub layer: &'static str,
    /// The end-to-end metric a change to it should move.
    pub moves: &'static str,
    /// The workload on which it should move that metric.
    pub on: &'static str,
}

macro_rules! layer {
    ($name:literal, $unit:literal, $better:ident, $layer:literal, $moves:literal, $on:literal) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: Better::$better,
            layer: $layer,
            moves: $moves,
            on: $on,
        }
    };
}

/// The per-layer metrics. A workload that bypasses a layer reports 0
/// for it; the prediction there is "no change".
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    layer!("dominance.dts_per_query", "count", Lower, "core.dominance", "query_p50_ms", "cold-anticorr"),
    layer!("dominance.ns_per_dt", "ns", Lower, "core.dominance", "query_p50_ms", "cold-anticorr"),
    layer!("algo.init_ms", "ms", Lower, "core.algo", "query_p50_ms", "cold-anticorr"),
    layer!("algo.prefilter_ms", "ms", Lower, "core.algo", "query_p50_ms", "cold-anticorr"),
    layer!("algo.pivot_ms", "ms", Lower, "core.algo", "query_p50_ms", "cold-anticorr"),
    layer!("algo.phase1_ms", "ms", Lower, "core.algo", "query_p50_ms", "cold-anticorr"),
    layer!("algo.phase2_ms", "ms", Lower, "core.algo", "query_p50_ms", "cold-anticorr"),
    layer!("algo.compress_ms", "ms", Lower, "core.algo", "query_tail_ms", "cold-anticorr"),
    layer!("algo.skyband_ms", "ms", Lower, "core.algo", "query_tail_ms", "cold-anticorr"),
    layer!("parallel.speedup", "x", Higher, "parallel", "queries_per_s", "cold-anticorr"),
    layer!("parallel.miss_slowdown", "x", Lower, "parallel", "query_tail_ms", "serve-hot"),
    layer!("planner.plan_us", "us", Lower, "engine.planner", "query_p50_ms", "cold-anticorr"),
    layer!("planner.strategy.qflow", "count", Higher, "engine.planner", "query_p50_ms", "cold-anticorr"),
    layer!("planner.strategy.hybrid", "count", Higher, "engine.planner", "query_p50_ms", "cold-anticorr"),
    layer!("planner.strategy.sfs", "count", Lower, "engine.planner", "query_p50_ms", "cold-anticorr"),
    layer!("planner.strategy.bskytree", "count", Lower, "engine.planner", "query_p50_ms", "cold-anticorr"),
    layer!("planner.strategy.sharded", "count", Higher, "engine.planner", "query_p50_ms", "cold-anticorr"),
    layer!("planner.strategy.delta", "count", Higher, "engine.planner", "query_p50_ms", "durable-mixed"),
    layer!("planner.strategy.cached", "count", Higher, "engine.planner", "query_p50_ms", "serve-hot"),
    layer!("planner.strategy.other", "count", Lower, "engine.planner", "query_p50_ms", "cold-anticorr"),
    layer!("cache.hit_frac", "ratio", Higher, "engine.cache", "query_p50_ms", "serve-hot"),
    layer!("cache.ancestor_hits", "count", Higher, "engine.cache", "query_p50_ms", "serve-hot"),
    layer!("cache.seed_frac", "ratio", Higher, "engine.cache", "query_tail_ms", "serve-hot"),
    layer!("cache.evictions", "count", Lower, "engine.cache", "query_p50_ms", "serve-hot"),
    layer!("cache.patched_per_write", "count", Higher, "engine.cache", "query_p50_ms", "durable-mixed"),
    layer!("cache.dropped_per_write", "count", Lower, "engine.cache", "query_p50_ms", "durable-mixed"),
    layer!("session.queue_wait_p50_us", "us", Lower, "engine.session", "query_tail_ms", "serve-hot"),
    layer!("session.queue_wait_tail_us", "us", Lower, "engine.session", "query_tail_ms", "serve-hot"),
    layer!("session.rejected", "count", Lower, "engine.session", "query_tail_ms", "serve-hot"),
    layer!("merge.ms", "ms", Lower, "engine.merge", "query_tail_ms", "cold-anticorr"),
    layer!("merge.candidates", "count", Lower, "engine.merge", "query_tail_ms", "cold-anticorr"),
    layer!("merge.witness_frac", "ratio", Higher, "engine.merge", "query_tail_ms", "cold-anticorr"),
    layer!("merge.dts", "count", Lower, "engine.merge", "query_tail_ms", "cold-anticorr"),
    layer!("shard.local_max_ms", "ms", Lower, "engine.merge", "query_tail_ms", "cold-anticorr"),
    layer!("mutation.apply_ms", "ms", Lower, "engine.catalog", "write_p50_ms", "durable-mixed"),
    layer!("mutation.wal_share", "ratio", Lower, "core.maintain", "write_p50_ms", "durable-mixed"),
    layer!("wal.bytes_per_row", "B", Lower, "data.persist", "write_p50_ms", "durable-mixed"),
    layer!("wal.records_replayed", "count", Lower, "engine.recovery", "recover_s", "durable-mixed"),
    layer!("snapshot.bytes", "B", Lower, "data.persist", "recover_s", "durable-mixed"),
    layer!("serve.overhead_us", "us", Lower, "serve", "query_p50_ms", "serve-hot"),
    layer!("serve.response_bytes", "B", Lower, "serve", "query_p50_ms", "serve-hot"),
    layer!("serve.gen_lateness_p50_ms", "ms", Lower, "serve", "query_p50_ms", "serve-hot"),
    layer!("serve.gen_lateness_max_ms", "ms", Lower, "serve", "query_tail_ms", "serve-hot"),
    layer!("setup.generate_s", "s", Lower, "data.generator", "setup_s", "cold-anticorr"),
    layer!("setup.register_s", "s", Lower, "engine.catalog", "setup_s", "cold-anticorr"),
    layer!("setup.warm_s", "s", Lower, "engine.cache", "setup_s", "serve-hot"),
    layer!("query_p50_ms", "ms", Lower, "all", "query_p50_ms", "cold-anticorr"),
    layer!("query_tail_ms", "ms", Lower, "all", "query_tail_ms", "cold-anticorr"),
    layer!("write_p50_ms", "ms", Lower, "data.persist", "write_p50_ms", "durable-mixed"),
    layer!("write_tail_ms", "ms", Lower, "data.persist", "write_tail_ms", "durable-mixed"),
    layer!("recover_s", "s", Lower, "engine.recovery", "recover_s", "durable-mixed"),
    layer!("max_qps_at_slo", "1/s", Higher, "serve", "max_qps_at_slo", "serve-hot"),
    layer!("error_frac", "ratio", Lower, "engine.session", "queries_per_s", "serve-hot"),
    layer!("trace.overhead_frac", "ratio", Lower, "benchmark", "query_p50_ms", "serve-hot"),
];

/// The measured values of one run, by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Formats a measured value with every digit it has; a value that is
/// not finite (a ratio over nothing) is written as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The contract's last line: `correct`, `attempted`, `failed` and the
/// metrics of this kind of run — every end-to-end metric untraced,
/// every per-layer metric traced. Per-layer metrics a workload does not
/// exercise read 0.
pub fn result_line(tally: &Tally, values: &Values, traced: bool) -> String {
    let names: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name);
            assert!(
                traced || v.is_some(),
                "end-to-end metric {name} was not measured"
            );
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(v.unwrap_or(0.0))
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.wrong == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.errors(),
        metrics.join(",")
    )
}

/// Human-readable metric lines: every measured value with its unit.
pub fn metric_lines(values: &Values) -> Vec<String> {
    let units: BTreeMap<&str, &str> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .collect();
    values
        .0
        .iter()
        .map(|(name, v)| {
            format!(
                "metric {name} = {} {}",
                num(*v),
                units.get(name).copied().unwrap_or("")
            )
        })
        .collect()
}

/// The metric catalogue as report lines: each end-to-end metric with
/// its direction and bound, each per-layer metric with its layer and
/// the end-to-end metric and workload it should move.
pub fn catalogue_lines() -> Vec<String> {
    let word = |b: Better| {
        if b == Better::Lower {
            "lower"
        } else {
            "higher"
        }
    };
    let e2e = END_TO_END.iter().map(|m| {
        format!(
            "end_to_end {} unit={} better={} bound={}",
            m.name,
            m.unit,
            word(m.better),
            m.bound
        )
    });
    let layer = PER_LAYER.iter().map(|m| {
        format!(
            "per_layer {} unit={} better={} layer={} moves={} on={}",
            m.name,
            m.unit,
            word(m.better),
            m.layer,
            m.moves,
            m.on
        )
    });
    e2e.chain(layer).collect()
}

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of CPU 0's cache at `level` (2 or 3), in bytes, when the
/// system reports it.
fn cache_bytes(level: u32) -> Option<u64> {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let lvl = std::fs::read_to_string(format!("{dir}/level")).ok()?;
        if lvl.trim() != level.to_string() {
            continue;
        }
        let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1024),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1 << 20),
                None => (size, 1),
            },
        };
        return num.parse::<u64>().ok().map(|n| n * mult);
    }
    None
}

/// Filesystem type of the mount holding `path`.
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let _dev = f.next()?;
            let mount = f.next()?;
            let fs = f.next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The commit the checkout came from, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// The fixed description of one workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    /// Workload name.
    pub name: &'static str,
    /// Why it exists.
    pub why: &'static str,
    /// Loop kind and client threads/connections.
    pub clients: &'static str,
    /// Layers it exercises.
    pub exercises: &'static [&'static str],
    /// Layers it bypasses: the prediction there is "no change".
    pub bypasses: &'static [&'static str],
}

/// Facts about one run for its run record.
#[derive(Debug)]
pub struct RunFacts<'a> {
    /// The workload.
    pub info: &'a WorkloadInfo,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Engine pool lanes.
    pub engine_lanes: usize,
    /// The data sets as `name rows×dims distribution`.
    pub data: Vec<String>,
    /// Where the run's temporary files live.
    pub tmp_dir: &'a Path,
}

/// The run record as one JSON object.
pub fn run_record(f: &RunFacts<'_>) -> String {
    let q = |s: &str| format!("\"{}\"", skyline_serve::json::escape(s));
    let list = |v: &[&str]| v.iter().map(|s| q(s)).collect::<Vec<_>>().join(",");
    let data: Vec<&str> = f.data.iter().map(String::as_str).collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        concat!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"traced\":{},\"commit\":{},",
            "\"nproc\":{},\"engine_lanes\":{},\"clients\":{},\"simd_level\":{},",
            "\"l2_bytes\":{},\"l3_bytes\":{},\"flush_policy\":{},\"tmp_fs\":{},",
            "\"data\":[{}],\"why\":{},\"exercises\":[{}],\"bypasses\":[{}]}}"
        ),
        q(f.info.name),
        f.seed,
        f.seconds,
        f.traced,
        q(&commit()),
        nproc,
        f.engine_lanes,
        q(f.info.clients),
        q(skyline_core::dominance::simd::active_level().name()),
        cache_bytes(2).map_or("null".into(), |b| b.to_string()),
        cache_bytes(3).map_or("null".into(), |b| b.to_string()),
        q("per-record sync_all (engine default)"),
        q(&filesystem_of(f.tmp_dir)),
        list(&data),
        q(f.info.why),
        list(f.info.exercises),
        list(f.info.bypasses),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_serve::{parse_json, Json};

    fn sample_values(traced: bool) -> Values {
        let mut v = Values::default();
        let names: Vec<&'static str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        for (i, n) in names.into_iter().enumerate() {
            v.set(n, 1.0 / (i as f64 + 3.0));
        }
        v
    }

    #[test]
    fn result_line_round_trips_through_the_strict_parser() {
        for traced in [false, true] {
            let values = sample_values(traced);
            let tally = Tally {
                attempted: 120,
                correct: 119,
                wrong: 1,
                ..Tally::default()
            };
            let line = result_line(&tally, &values, traced);
            let json = parse_json(&line).expect("result line is valid JSON");
            let Json::Obj(top) = &json else {
                panic!("result line is not an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(json.get("correct").and_then(Json::as_bool), Some(false));
            assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(120));
            assert_eq!(json.get("failed").and_then(Json::as_u64), Some(1));
            let Some(Json::Obj(metrics)) = json.get("metrics") else {
                panic!("metrics is not an object")
            };
            let expected: Vec<(&str, &str)> = if traced {
                PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
            } else {
                END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
            };
            assert_eq!(metrics.len(), expected.len());
            for ((name, m), (want, unit)) in metrics.iter().zip(expected) {
                assert_eq!(name, want);
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
                // Every digit survives the round trip.
                assert_eq!(m.get("value").and_then(Json::as_f64), values.get(want));
            }
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = parse_json(&text).expect("BENCHMARK.json parses");
        let entries = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let word = |b: Better| {
            if b == Better::Lower {
                "lower"
            } else {
                "higher"
            }
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    word(m.better).to_string(),
                )
            })
            .collect();
        assert_eq!(entries("end_to_end"), e2e);
        let bounds: Vec<f64> = json
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end")
            .iter()
            .map(|m| m.get("bound").and_then(Json::as_f64).expect("bound"))
            .collect();
        assert_eq!(
            bounds,
            END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>()
        );
        let layer: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    word(m.better).to_string(),
                )
            })
            .collect();
        assert_eq!(entries("per_layer"), layer);
    }

    #[test]
    fn non_finite_values_are_written_as_numbers() {
        let mut v = sample_values(true);
        v.set("merge.witness_frac", f64::NAN);
        let line = result_line(
            &Tally {
                attempted: 1,
                correct: 1,
                ..Tally::default()
            },
            &v,
            true,
        );
        assert!(parse_json(&line).is_ok());
    }
}

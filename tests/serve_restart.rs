//! End-to-end durability through the HTTP front door: a durable
//! engine serves real sockets under concurrent load (clients using
//! the retrying `post_json_with_retry` path), mutates while serving,
//! drains, and is reopened from its durable directory — after which
//! every acknowledged mutation must be live and the recovered dataset
//! must answer exactly like the naive oracle.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use skybench::prelude::*;
use skybench::{
    generate, parse_json, verify, Client, Distribution, Json, RetryPolicy, ServeConfig,
    SkylineServer,
};

fn scratch_dir() -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    std::env::temp_dir().join(format!("skybench-restart-{}-{nanos}", std::process::id()))
}

fn durable_cfg() -> EngineConfig {
    EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    }
}

fn indices_of(body: &str) -> Vec<u32> {
    parse_json(body)
        .expect("valid JSON")
        .get("indices")
        .and_then(Json::as_arr)
        .expect("indices array")
        .iter()
        .map(|v| v.as_u64().expect("integer index") as u32)
        .collect()
}

#[test]
fn restart_preserves_results() {
    let dir = scratch_dir();
    let pool = ThreadPool::new(2);

    // ---- First life: serve under load, mutate, drain. ----
    let live_before;
    {
        let (engine, _) = Engine::open_durable(&dir, durable_cfg()).expect("open durable");
        let engine = Arc::new(engine);
        engine.register(
            "data",
            generate(Distribution::Anticorrelated, 900, 4, 7, &pool),
        );

        let server = Arc::new(
            SkylineServer::start(Arc::clone(&engine), ServeConfig::default()).expect("bind"),
        );
        let addr = server.local_addr();

        // Concurrent retrying clients hammer queries while the main
        // thread mutates the dataset through the durable path, then
        // pulls the plug mid-load.
        thread::scope(|s| {
            for worker in 0..3u64 {
                s.spawn(move || {
                    let policy = RetryPolicy {
                        max_retries: 2,
                        base: Duration::from_millis(2),
                        cap: Duration::from_millis(20),
                        seed: 0xc0ffee ^ worker,
                    };
                    let Ok(mut client) = Client::connect(addr) else {
                        return;
                    };
                    for i in 0..30 {
                        let body = if i % 2 == 0 {
                            r#"{"dataset":"data"}"#
                        } else {
                            r#"{"dataset":"data","dims":[0,1]}"#
                        };
                        match client.post_json_with_retry("/v1/query", body, &policy) {
                            // 200 while serving, 503 once the drain
                            // begins and retries are exhausted.
                            Ok((resp, _)) if resp.status == 200 || resp.status == 503 => {}
                            Ok((resp, _)) => panic!("unexpected status {}", resp.status),
                            Err(_) => return, // listener gone mid-drain
                        }
                    }
                });
            }
            for seed in 0..4u64 {
                let fresh: Vec<Vec<f32>> = (0..3)
                    .map(|r| {
                        (0..4)
                            .map(|c| (seed * 31 + r * 7 + c) as f32 % 13.0)
                            .collect()
                    })
                    .collect();
                engine
                    .update_batch("data", &fresh, &[seed as u32])
                    .expect("durable mutation while serving");
                thread::sleep(Duration::from_millis(10));
            }
            server.shutdown();
        });

        live_before = engine
            .dataset("data")
            .unwrap()
            .live_ids()
            .as_slice()
            .to_vec();
    }

    // ---- Second life: reopen from the durable directory. ----
    let (engine, report) = Engine::open_durable(&dir, durable_cfg()).expect("reopen durable");
    let engine = Arc::new(engine);
    assert_eq!(report.datasets, 1);
    assert!(report.quarantined.is_empty());

    // Every acknowledged mutation survived the restart.
    let entry = engine.dataset("data").expect("recovered dataset");
    assert_eq!(entry.live_ids().as_slice(), live_before.as_slice());

    // And the recovered engine answers over the wire exactly like the
    // naive oracle on the recovered rows.
    let snapshot = entry.snapshot();
    let ids = entry.live_ids();
    let server = SkylineServer::start(Arc::clone(&engine), ServeConfig::default()).expect("rebind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(
        health.text().contains("\"ok\""),
        "a clean recovery must not report degraded: {}",
        health.text()
    );

    for (body, dims) in [
        (r#"{"dataset":"data"}"#, vec![0usize, 1, 2, 3]),
        (r#"{"dataset":"data","dims":[0,1]}"#, vec![0, 1]),
        (r#"{"dataset":"data","dims":[1,2,3]}"#, vec![1, 2, 3]),
    ] {
        let resp = client.post_json("/v1/query", body).expect("request");
        assert_eq!(resp.status, 200, "{}", resp.text());
        let mut got = indices_of(&resp.text());
        got.sort_unstable();
        let expect: Vec<u32> = verify::naive_skyline_on_pref(&snapshot, &dims, 0)
            .iter()
            .map(|&k| ids[k as usize])
            .collect();
        assert_eq!(got, expect, "case {body} diverged from the oracle");
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

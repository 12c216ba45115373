//! # skybench — multicore skyline computation
//!
//! A from-scratch Rust implementation of
//!
//! > Chester, Šidlauskas, Assent, Bøgh. *Scalable Parallelization of
//! > Skyline Computation for Multi-core Processors.* ICDE 2015.
//!
//! The crate bundles the paper's contributions — **Q-Flow** and
//! **Hybrid** — together with every algorithm of its evaluation
//! (BSkyTree, PBSkyTree, PSkyline, PSFS) and the classic baselines (BNL,
//! SFS, SaLSa, SSkyline), all behind one builder API.
//!
//! ## Quickstart
//!
//! ```
//! use skybench::prelude::*;
//!
//! // Hotels: (price, distance-to-beach). Smaller is better on both.
//! let hotels = Dataset::from_rows(&[
//!     vec![120.0, 2.0],
//!     vec![90.0, 5.0],
//!     vec![130.0, 1.0],
//!     vec![95.0, 4.5],
//!     vec![150.0, 4.0], // dominated: pricier *and* farther than most
//! ])
//! .unwrap();
//!
//! let sky = skyline(&hotels);
//! assert_eq!(sky.indices(), &[0, 1, 2, 3]);
//! ```
//!
//! ## Choosing an algorithm and tuning
//!
//! ```
//! use skybench::prelude::*;
//!
//! let data = Dataset::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
//! let sky = SkylineBuilder::new()
//!     .algorithm(Algorithm::QFlow)
//!     .threads(2)
//!     .alpha(4096)
//!     .compute(&data);
//! assert_eq!(sky.len(), 2);
//! ```
//!
//! ## Serving repeated queries: the engine
//!
//! One-shot calls recompute everything. For query workloads — many
//! subspace projections of a few registered datasets — use
//! [`Engine`]: it plans each query adaptively (picking the algorithm
//! and tuning from the data's shape), answers repeats from an LRU
//! result cache, and runs everything on one shared pool.
//!
//! ```
//! use skybench::prelude::*;
//!
//! let engine = Engine::new();
//! engine
//!     .register(
//!         "hotels", // price, distance, noise
//!         Dataset::from_rows(&[
//!             vec![90.0, 5.0, 40.0],
//!             vec![120.0, 2.0, 55.0],
//!             vec![150.0, 1.0, 60.0],
//!             vec![160.0, 4.0, 70.0], // dominated
//!         ])
//!         .unwrap(),
//!     );
//!
//! // Full space, then a price/distance subspace of the same data.
//! let all = engine.execute(&SkylineQuery::new("hotels")).unwrap();
//! assert_eq!(all.indices(), &[0, 1, 2]);
//! let cheap_close = engine
//!     .execute(&SkylineQuery::new("hotels").dims([0, 1]))
//!     .unwrap();
//! assert_eq!(cheap_close.indices(), &[0, 1, 2]);
//!
//! // Identical queries are cache hits and recompute nothing.
//! assert!(engine.execute(&SkylineQuery::new("hotels")).unwrap().cache_hit);
//! ```
//!
//! ## Serving many tenants: sessions and tickets
//!
//! `execute` blocks; a serving tier submits **without blocking**
//! through a per-tenant [`Session`] and gets a [`QueryTicket`] back,
//! with admission control (bounded priority-class queues, per-tenant
//! in-flight/QPS quotas), per-query deadlines, and version pinning.
//!
//! ```
//! use skybench::prelude::*;
//!
//! let engine = Engine::new();
//! engine.register(
//!     "hotels",
//!     Dataset::from_rows(&[vec![90.0, 5.0], vec![120.0, 2.0], vec![160.0, 6.0]]).unwrap(),
//! );
//! let session = engine.open_session(
//!     SessionOptions::new("acme").priority(Priority::High).max_in_flight(32),
//! );
//! let ticket = session.submit(&SkylineQuery::new("hotels")).unwrap();
//! assert_eq!(ticket.wait().unwrap().indices(), &[0, 1]);
//! engine.shutdown(); // closes admission, drains the queue
//! ```

#![warn(missing_docs)]

use std::sync::Arc;

pub use skyline_core::algo::Algorithm;
pub use skyline_core::{
    dominance, masks, norms, pivot, prefilter, verify, PivotStrategy, RunStats, SkylineConfig,
    SkylineResult, SortKey,
};
pub use skyline_data::{
    generate, load_csv, persist, quantize, splitmix64, write_csv, DataError, Dataset, Distribution,
    Preference, RealDataset, Rng, Shard, ShardStats, ShardedStore,
};
pub use skyline_engine::{
    AdmissionConfig, CacheStats, Clock, Counter, DatasetEntry, DurabilityOptions, Engine,
    EngineConfig, EngineError, Gauge, Histogram, HistogramSnapshot, ManualClock, MergeStats,
    MetricSample, MetricValue, MetricsRegistry, MetricsSnapshot, MonotonicClock, MutationReport,
    PartitionerKind, PlanCandidate, PlannerConfig, Priority, QueryKind, QueryOptions, QueryPlan,
    QueryResult, QueryTicket, QueryTrace, QuotaKind, RecoveryReport, RejectReason, Session,
    SessionOptions, SessionStats, SkylineQuery, SlowQueryLog, SpanKind, Strategy, SuperspaceSeed,
    TelemetryConfig, TraceSpan,
};
pub use skyline_parallel::{available_threads, ThreadPool};
pub use skyline_serve::{
    parse_json, Client, Json, Response, RetryPolicy, ServeConfig, SkylineServer, TenantSpec,
};

/// One-stop imports for typical use.
///
/// The engine's plan [`Strategy`] enum is deliberately
/// *not* re-exported here: its name collides with `proptest::Strategy`
/// under double glob imports in test code. Import it explicitly.
pub mod prelude {
    pub use crate::{
        skyline, Algorithm, Dataset, Distribution, Engine, EngineConfig, PivotStrategy, Preference,
        Priority, Session, SessionOptions, Skyline, SkylineBuilder, SkylineQuery, SortKey,
        ThreadPool,
    };
}

/// A computed skyline: the set of non-dominated points of a dataset.
#[derive(Debug, Clone)]
pub struct Skyline {
    indices: Vec<u32>,
}

impl Skyline {
    /// Indices into the original dataset, sorted ascending. Coincident
    /// duplicates of skyline points are all included.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Number of skyline points.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when the dataset had no points (a non-empty dataset always
    /// has a non-empty skyline).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Whether dataset row `index` is a skyline point.
    pub fn contains(&self, index: u32) -> bool {
        self.indices.binary_search(&index).is_ok()
    }

    /// Iterates `(index, coordinates)` pairs over `data`.
    ///
    /// `data` must be the dataset the skyline was computed from.
    pub fn points<'a>(
        &'a self,
        data: &'a Dataset,
    ) -> impl ExactSizeIterator<Item = (u32, &'a [f32])> + 'a {
        self.indices.iter().map(|&i| (i, data.row(i as usize)))
    }
}

/// Computes the skyline with the paper's best configuration: Hybrid,
/// default tuning, all available cores.
pub fn skyline(data: &Dataset) -> Skyline {
    SkylineBuilder::new().compute(data)
}

/// Configures and runs skyline computations.
///
/// Defaults mirror the paper: [`Algorithm::Hybrid`], α = 2¹⁰ (Hybrid) /
/// 2¹³ (Q-Flow), Median pivot, β = 8, every available core.
#[derive(Debug, Clone)]
pub struct SkylineBuilder {
    algorithm: Algorithm,
    threads: usize,
    cfg: SkylineConfig,
    pool: Option<Arc<ThreadPool>>,
}

impl Default for SkylineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SkylineBuilder {
    /// A builder with the paper's defaults.
    pub fn new() -> Self {
        Self {
            algorithm: Algorithm::Hybrid,
            threads: 0,
            cfg: SkylineConfig::default(),
            pool: None,
        }
    }

    /// Selects the algorithm (default: Hybrid).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the thread count; `0` (default) uses all available cores.
    /// Ignored when an explicit [`SkylineBuilder::pool`] is supplied.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Reuses an existing pool across computations (avoids re-spawning
    /// workers in hot paths such as benchmark loops).
    pub fn pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Sets the block size α for both Q-Flow and Hybrid.
    pub fn alpha(mut self, alpha: usize) -> Self {
        self.cfg.alpha_qflow = alpha.max(1);
        self.cfg.alpha_hybrid = alpha.max(1);
        self
    }

    /// Hybrid's pivot-selection strategy (default: Median).
    pub fn pivot(mut self, strategy: PivotStrategy) -> Self {
        self.cfg.pivot = strategy;
        self
    }

    /// Sort key for SFS/PSFS (default: L1).
    pub fn sort_key(mut self, key: SortKey) -> Self {
        self.cfg.sort_key = key;
        self
    }

    /// Pre-filter queue size β (default: 8).
    pub fn prefilter_beta(mut self, beta: usize) -> Self {
        self.cfg.prefilter_beta = beta.max(1);
        self
    }

    /// Seed for the `Random` pivot strategy.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Full access to the underlying configuration.
    pub fn config(mut self, cfg: SkylineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    fn resolve_pool(&self) -> Arc<ThreadPool> {
        match &self.pool {
            Some(p) => Arc::clone(p),
            None => {
                let t = if self.threads == 0 {
                    available_threads()
                } else {
                    self.threads
                };
                Arc::new(ThreadPool::new(t))
            }
        }
    }

    /// Computes the skyline of `data`.
    pub fn compute(&self, data: &Dataset) -> Skyline {
        self.compute_with_stats(data).0
    }

    /// Computes the skyline and returns the per-phase instrumentation
    /// (timings in the paper's Figure 7/8 categories, DT counts).
    pub fn compute_with_stats(&self, data: &Dataset) -> (Skyline, RunStats) {
        let pool = self.resolve_pool();
        let result = self.algorithm.run(data, &pool, &self.cfg);
        (
            Skyline {
                indices: result.indices,
            },
            result.stats,
        )
    }

    /// Computes progressively: `on_batch` receives each newly confirmed
    /// batch of skyline indices as soon as its α-block completes
    /// (supported by Q-Flow and Hybrid; other algorithms deliver a single
    /// final batch).
    pub fn compute_progressive(&self, data: &Dataset, mut on_batch: impl FnMut(&[u32])) -> Skyline {
        let pool = self.resolve_pool();
        let result = match self.algorithm {
            Algorithm::QFlow => {
                skyline_core::algo::qflow::run_with_progress(data, &pool, &self.cfg, |b| {
                    on_batch(b)
                })
            }
            Algorithm::Hybrid => {
                skyline_core::algo::hybrid::run_with_progress(data, &pool, &self.cfg, |b| {
                    on_batch(b)
                })
            }
            other => {
                let r = other.run(data, &pool, &self.cfg);
                on_batch(&r.indices);
                r
            }
        };
        Skyline {
            indices: result.indices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builder_is_hybrid_on_all_cores() {
        let b = SkylineBuilder::new();
        assert_eq!(b.algorithm, Algorithm::Hybrid);
        assert_eq!(b.threads, 0);
    }

    #[test]
    fn skyline_helpers() {
        let data = Dataset::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0], vec![3.0, 3.0]]).unwrap();
        let sky = skyline(&data);
        assert_eq!(sky.len(), 2);
        assert!(!sky.is_empty());
        assert!(sky.contains(0) && sky.contains(1) && !sky.contains(2));
        let pts: Vec<_> = sky.points(&data).collect();
        assert_eq!(pts[0], (0, &[1.0f32, 2.0][..]));
    }

    #[test]
    fn shared_pool_is_reused() {
        let pool = Arc::new(ThreadPool::new(2));
        let data = Dataset::from_rows(&[vec![1.0, 1.0]]).unwrap();
        let b = SkylineBuilder::new().pool(Arc::clone(&pool));
        for _ in 0..3 {
            assert_eq!(b.compute(&data).len(), 1);
        }
    }
}

//! # skyline-engine — a concurrent skyline query engine
//!
//! The algorithm crates answer *one* skyline computation as fast as the
//! hardware allows. This crate turns them into a **query engine** for
//! repeated, concurrent workloads over registered, **mutable**
//! datasets:
//!
//! * [`Catalog`] — named, versioned datasets with per-dimension
//!   statistics and sorted projections precomputed at registration and
//!   *patched incrementally* under mutation: inserts land in an append
//!   segment, deletes tombstone stable row ids, and a compaction
//!   threshold rebuilds the base when tombstones pile up;
//! * [`Planner`] — picks the strategy per query (direct sorted-
//!   projection scans, delta maintenance over a prior cached result,
//!   sequential BNL/SFS/BSkyTree, or parallel Q-Flow/Hybrid with tuned
//!   α) from cardinality, subspace dimensionality, thread budget, a
//!   sampled skyline density, and the dataset's mutation delta log —
//!   its thresholds are the caller's [`PlannerConfig`] (defaults from
//!   the paper's evaluation) and its block sizes α come from
//!   [`SkylineConfig::tuned`](skyline_core::SkylineConfig::tuned);
//! * [`SkylineQuery`] — subspace selection (`dims`), per-dimension
//!   `Min`/`Max` preferences, and result limits, so one registered
//!   dataset serves many projections;
//! * [`ResultCache`] — a byte-bounded LRU of full skyline index lists
//!   keyed by `(dataset version, dimension mask, preference mask)`;
//!   mutation batches *patch entries forward* across versions through
//!   the `skyline_core::maintain` kernels instead of purging them;
//! * [`Engine`] — ties it together over one shared thread pool, with
//!   mutation ([`Engine::insert`], [`Engine::delete`],
//!   [`Engine::update_batch`]) and batched submission
//!   ([`Engine::execute_batch`]) that schedules sequential plans
//!   lane-parallel and parallel plans pool-wide;
//! * [`session`] — the serving front door: tenants open a [`Session`]
//!   and [`submit`](Session::submit) **without blocking**, getting a
//!   [`QueryTicket`] (`poll`/`wait`/`wait_timeout`/`cancel`) backed by
//!   a bounded multi-priority admission queue with per-tenant quotas,
//!   per-query deadlines, and dataset-version pinning; the blocking
//!   [`Engine::execute`]/[`Engine::execute_batch`] are thin
//!   submit-and-wait wrappers over it;
//! * [`recovery`] — crash-safe durability behind
//!   [`Engine::open_durable`]: checksummed tile-aligned snapshots plus
//!   a CRC-per-record write-ahead log fsync'd **before** a mutation is
//!   acknowledged, idempotent replay that truncates torn tails, and
//!   degraded-mode quarantine ([`EngineError::DatasetQuarantined`])
//!   that keeps healthy datasets serving past real corruption — all
//!   driven through the [`skyline_data::persist::WalIo`] seam so a
//!   deterministic fault injector can exercise every kill point;
//! * [`telemetry`] — the unified observability layer: a lock-free
//!   [`MetricsRegistry`] behind [`Engine::metrics`] (Prometheus-style
//!   [`MetricsSnapshot::render`]), per-query [`QueryTrace`]s with typed
//!   spans timed on the engine [`Clock`]
//!   ([`QueryTicket::trace`], [`Engine::explain_analyze`]), and a
//!   bounded [`SlowQueryLog`] drained via [`Engine::slow_queries`].
//!
//! ## Quick example
//!
//! ```
//! use skyline_engine::{Engine, SkylineQuery, Strategy};
//! use skyline_data::Dataset;
//!
//! let engine = Engine::new();
//! engine
//!     .register(
//!         "cars",
//!         Dataset::from_rows(&[
//!             // price, weight, 0-100 time
//!             vec![20_000.0, 1_300.0, 9.1],
//!             vec![35_000.0, 1_500.0, 6.2],
//!             vec![60_000.0, 1_700.0, 4.0],
//!             vec![65_000.0, 1_900.0, 8.0], // dominated
//!         ])
//!         .unwrap(),
//!     );
//!
//! // Full-space skyline…
//! let all = engine.execute(&SkylineQuery::new("cars")).unwrap();
//! assert_eq!(all.indices(), &[0, 1, 2]);
//!
//! // …and a price/acceleration subspace of the same registration.
//! let fast = engine
//!     .execute(&SkylineQuery::new("cars").dims([0, 2]))
//!     .unwrap();
//! assert_eq!(fast.indices(), &[0, 1, 2]);
//!
//! // Repeats are cache hits: no recomputation.
//! let again = engine.execute(&SkylineQuery::new("cars")).unwrap();
//! assert!(again.cache_hit);
//! assert_eq!(again.plan.strategy, Strategy::Cached);
//!
//! // The catalog is mutable: a new car is tested against the cached
//! // skylines only — no recomputation, and the cache stays warm.
//! engine.insert("cars", &[vec![18_000.0, 1_250.0, 8.9]]).unwrap();
//! let fresh = engine.execute(&SkylineQuery::new("cars")).unwrap();
//! assert!(fresh.cache_hit);
//! assert_eq!(fresh.indices(), &[1, 2, 4]); // row 0 is now dominated
//! ```

#![warn(missing_docs)]
#![deny(missing_debug_implementations)]
#![deny(rustdoc::broken_intra_doc_links)]

mod cache;
mod catalog;
mod clock;
mod engine;
mod error;
mod merge;
pub mod planner;
mod query;
pub mod recovery;
pub mod session;
pub mod telemetry;

pub use cache::{CacheKey, CacheStats, CachedValue, ResultCache};
pub use catalog::{Catalog, DatasetEntry, DatasetStats, DeltaSummary, DimStats, MutationOutcome};
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use engine::{Engine, EngineConfig, MutationReport};
pub use error::{EngineError, QuotaKind, RejectReason};
pub use merge::MergeStats;
pub use planner::{
    PlanCandidate, PlanKind, Planner, PlannerConfig, PriorResult, QueryPlan, Strategy,
    SuperspaceSeed,
};
pub use query::{QueryKind, QueryOptions, QueryResult, SkylineQuery};
pub use recovery::{DurabilityOptions, RecoveryReport};
pub use session::{AdmissionConfig, Priority, QueryTicket, Session, SessionOptions, SessionStats};
pub use skyline_data::PartitionerKind;
pub use telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSample, MetricValue, MetricsRegistry,
    MetricsSnapshot, QueryTrace, QueueWaitHistograms, SlowQueryLog, SpanKind, TelemetryConfig,
    TraceSpan,
};

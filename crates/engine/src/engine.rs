//! The engine: catalog + planner + cache + shared thread pool, fronted
//! by the [session](crate::session) layer's admission queue.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use skyline_core::dominance::simd::{flip_pref, TileStore};
use skyline_core::skyband::{skyband_blockflow, top_k_dominating};
use skyline_core::{maintain, RunStats, SpanSink};
use skyline_data::persist::{StdIo, WalIo};
use skyline_data::{Dataset, PartitionerKind, ShardedStore};
use skyline_parallel::{available_threads, par_chunks_mut, LaneCounters, ThreadPool};

use crate::cache::{CacheKey, CacheStats, CachedValue, ResultCache};
use crate::catalog::{Catalog, DatasetEntry, MutationOutcome};
use crate::clock::{Clock, MonotonicClock};
use crate::error::EngineError;
use crate::merge::{merge, operator, Local, MergeStats};
use crate::planner::{
    PlanKind, Planner, PlannerConfig, PriorResult, QueryPlan, Strategy, SuperspaceSeed,
};
use crate::query::{QueryKind, QueryResult, SkylineQuery};
use crate::recovery::{Durability, DurabilityOptions, RecoveryReport};
use crate::session::{
    AdmissionConfig, Session, SessionOptions, SessionRuntime, SessionStats, TicketState,
};
use crate::telemetry::{
    ActiveTrace, MetricsRegistry, MetricsSnapshot, QueryTrace, QueueWaitHistograms, SpanKind,
    Telemetry, TelemetryConfig,
};

/// Construction-time knobs for [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Thread lanes of the shared pool; `0` uses every available core.
    pub threads: usize,
    /// Result-cache budget in **bytes** (skylines range from one index
    /// to ~n of them, so entries are charged their actual footprint);
    /// `0` disables caching.
    pub cache_bytes: usize,
    /// Tombstone fraction above which a mutation batch compacts the
    /// dataset (rebuilds the base, renumbering the surviving rows).
    /// Values above `1.0` disable compaction.
    pub compact_fraction: f32,
    /// Adaptive per-shard compaction for sharded datasets: a touched
    /// shard also compacts once queries have skipped `factor × live`
    /// tombstoned rows in it (the scan debt fed back from sharded
    /// query execution), however small its dead fraction — compaction
    /// triggered by *observed* tombstone-scan cost rather than a fixed
    /// threshold. `None` leaves shards on
    /// [`compact_fraction`](Self::compact_fraction) alone.
    pub shard_debt_factor: Option<f32>,
    /// Planner thresholds: the cardinality tiers, the density split
    /// between Q-Flow and Hybrid, the delta-patch ceiling and the
    /// sharded cut-over. Fixed for the engine's lifetime — a durable
    /// engine reopens with whatever config the caller passes here.
    pub planner: PlannerConfig,
    /// The session layer's admission queue: per-class capacity, batch
    /// size per dispatch pass, and whether a background dispatcher
    /// thread runs.
    pub admission: AdmissionConfig,
    /// The telemetry layer: metrics registry, per-query traces, and the
    /// slow-query log. Enabled by default (see
    /// [`TelemetryConfig::enabled`] for what disabling turns off).
    pub telemetry: TelemetryConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            cache_bytes: 8 << 20,
            compact_fraction: 0.25,
            shard_debt_factor: Some(4.0),
            planner: PlannerConfig::default(),
            admission: AdmissionConfig::default(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// The outcome of one mutation batch applied through the engine.
#[derive(Debug, Clone)]
pub struct MutationReport {
    /// The dataset's new version.
    pub version: u64,
    /// Stable row ids assigned to the inserted rows, in input order.
    pub inserted_ids: Vec<u32>,
    /// Number of rows deleted.
    pub deleted: usize,
    /// Whether the batch compacted the dataset: surviving rows were
    /// renumbered contiguously (previously returned ids are void) and
    /// every prior cached result was invalidated.
    pub compacted: bool,
    /// Cached results patched forward to the new version by applying
    /// the delta kernels instead of recomputing.
    pub cache_patched: usize,
    /// Cached results dropped by this batch: the delta was too large
    /// to ever patch through, the delta log rotated past their
    /// version, or a compaction voided everything. (Deletes within
    /// the patchable window drop nothing — their entries stay for
    /// query-time delta plans.)
    pub cache_dropped: usize,
}

/// A thread-safe skyline query engine over **mutable** datasets.
///
/// Owns a dataset [catalog](Catalog), an adaptive [planner](Planner),
/// a byte-bounded LRU [result cache](ResultCache), and one shared
/// [`ThreadPool`] that every query executes on — concurrent callers
/// share the pool (the pool serialises parallel regions internally)
/// instead of oversubscribing the machine with per-query pools.
///
/// Datasets evolve in place through [`insert`](Engine::insert),
/// [`delete`](Engine::delete), and
/// [`update_batch`](Engine::update_batch): each batch bumps the
/// version, patches the catalog's statistics incrementally, and
/// carries cached results forward through the delta kernels instead of
/// discarding them.
///
/// ```
/// use skyline_engine::{Engine, SkylineQuery};
/// use skyline_data::Dataset;
///
/// let engine = Engine::new();
/// let hotels = Dataset::from_rows(&[
///     vec![120.0, 2.0],
///     vec![90.0, 5.0],
///     vec![130.0, 1.0],
///     vec![150.0, 4.0], // dominated
/// ])
/// .unwrap();
/// engine.register("hotels", hotels);
///
/// let result = engine.execute(&SkylineQuery::new("hotels")).unwrap();
/// assert_eq!(result.indices(), &[0, 1, 2]);
///
/// // Same query again: served from the cache.
/// let again = engine.execute(&SkylineQuery::new("hotels")).unwrap();
/// assert!(again.cache_hit);
///
/// // A new hotel joins the skyline without recomputation: the cached
/// // result is patched forward and the next query still hits.
/// let report = engine.insert("hotels", &[vec![100.0, 3.0]]).unwrap();
/// assert_eq!(report.inserted_ids, vec![4]);
/// let fresh = engine.execute(&SkylineQuery::new("hotels")).unwrap();
/// assert!(fresh.cache_hit);
/// assert_eq!(fresh.indices(), &[0, 1, 2, 4]);
/// ```
#[derive(Debug)]
pub struct Engine {
    shared: Arc<EngineShared>,
    sessions: Arc<SessionRuntime>,
    /// The engine's own session, backing the blocking
    /// [`execute`](Engine::execute)/[`execute_batch`](Engine::execute_batch)
    /// wrappers: anonymous tenant, [`Priority::Normal`](crate::Priority::Normal),
    /// no quotas.
    direct: Session,
}

/// Everything the engine's execution paths touch, shared between the
/// public [`Engine`] handle, its [`Session`]s and tickets, and the
/// dispatcher thread.
#[derive(Debug)]
pub(crate) struct EngineShared {
    pub(crate) pool: Arc<ThreadPool>,
    pub(crate) catalog: Catalog,
    pub(crate) cache: ResultCache,
    pub(crate) planner: Planner,
    pub(crate) compact_fraction: f32,
    pub(crate) shard_debt_factor: Option<f32>,
    /// The engine's time source: drives deadline expiry, quota windows,
    /// queue-wait timing and trace spans. A
    /// [`ManualClock`](crate::ManualClock) makes all of them
    /// deterministic under test.
    pub(crate) clock: Arc<dyn Clock>,
    /// Present iff [`TelemetryConfig::enabled`]: the metrics registry,
    /// trace machinery, and slow-query ring.
    pub(crate) telemetry: Option<Arc<Telemetry>>,
    /// The per-class `session.queue_wait` histograms, exposed through
    /// the registry when telemetry is enabled. Always recorded: three
    /// lock-free histograms cost nothing measurable.
    pub(crate) queue_waits: Arc<QueueWaitHistograms>,
    /// Set once by [`Engine::open_durable`] **after** recovery replay
    /// completes: while unset, registrations and mutations skip the
    /// WAL (which is exactly what replay needs), afterwards every
    /// mutation is logged before it is acknowledged.
    pub(crate) durability: OnceLock<Arc<Durability>>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Close admission and drain whatever is queued, so the
        // dispatcher thread exits and every outstanding ticket reaches
        // a terminal outcome. Idempotent after an explicit shutdown.
        self.sessions.shutdown(&self.shared);
    }
}

/// A query resolved against the catalog and canonicalised, ready to
/// probe the cache or execute. Holds the dataset entry `Arc` — an
/// immutable snapshot — so a queued ticket observes a consistent
/// version no matter what mutations land while it waits.
#[derive(Debug)]
pub(crate) struct Prepared {
    pub(crate) entry: Arc<DatasetEntry>,
    pub(crate) key: CacheKey,
    pub(crate) dims: Vec<usize>,
    pub(crate) max_mask: u32,
    pub(crate) limit: Option<usize>,
}

impl Engine {
    /// An engine with default configuration (all cores, 8 MiB result
    /// cache).
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// An engine with explicit configuration.
    pub fn with_config(cfg: EngineConfig) -> Self {
        Self::with_clock(cfg, Arc::new(MonotonicClock::new()))
    }

    /// An engine with explicit configuration and time source. The
    /// clock drives deadlines, quota windows, queue-wait timing and
    /// trace spans; hand in a [`ManualClock`](crate::ManualClock) to
    /// test them deterministically.
    pub fn with_clock(cfg: EngineConfig, clock: Arc<dyn Clock>) -> Self {
        let threads = if cfg.threads == 0 {
            available_threads()
        } else {
            cfg.threads
        };
        Self::build(cfg, Arc::new(ThreadPool::new(threads)), clock)
    }

    /// An engine sharing an existing pool (e.g. with a surrounding
    /// application that also runs parallel work).
    pub fn with_pool(cfg: EngineConfig, pool: Arc<ThreadPool>) -> Self {
        Self::build(cfg, pool, Arc::new(MonotonicClock::new()))
    }

    /// Opens (or creates) a **durable** engine rooted at `dir`:
    /// recovers every dataset from its snapshot + write-ahead log,
    /// truncates torn WAL tails, quarantines datasets with real
    /// corruption (the engine still boots and serves the healthy
    /// ones), and from then on makes every registration and mutation
    /// durable before acknowledging it. The report says what recovery
    /// found.
    ///
    /// See [`crate::recovery`] for the durability contract and the
    /// corruption taxonomy.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        cfg: EngineConfig,
    ) -> Result<(Self, RecoveryReport), EngineError> {
        Self::open_durable_with_io(dir, cfg, Arc::new(StdIo))
    }

    /// [`open_durable`](Self::open_durable) over an explicit
    /// [`WalIo`] — the fault-injection seam: hand in a
    /// [`MemIo`](skyline_data::persist::MemIo) or a
    /// [`FaultInjector`](skyline_data::persist::FaultInjector) to
    /// exercise crash and corruption schedules deterministically.
    pub fn open_durable_with_io(
        dir: impl AsRef<Path>,
        cfg: EngineConfig,
        io: Arc<dyn WalIo>,
    ) -> Result<(Self, RecoveryReport), EngineError> {
        Self::open_durable_with_options(dir, cfg, io, DurabilityOptions::default())
    }

    /// [`open_durable_with_io`](Self::open_durable_with_io) with
    /// explicit [`DurabilityOptions`] (checkpoint cadence).
    pub fn open_durable_with_options(
        dir: impl AsRef<Path>,
        cfg: EngineConfig,
        io: Arc<dyn WalIo>,
        opts: DurabilityOptions,
    ) -> Result<(Self, RecoveryReport), EngineError> {
        let engine = Self::with_config(cfg);
        crate::recovery::open(engine, dir.as_ref(), io, opts)
    }

    fn build(cfg: EngineConfig, pool: Arc<ThreadPool>, clock: Arc<dyn Clock>) -> Self {
        let queue_waits = Arc::new(QueueWaitHistograms::new());
        let telemetry = cfg
            .telemetry
            .enabled
            .then(|| Arc::new(Telemetry::new(cfg.telemetry.clone(), &queue_waits)));
        let shared = Arc::new(EngineShared {
            pool,
            catalog: Catalog::new(),
            cache: ResultCache::new(cfg.cache_bytes),
            planner: Planner::new(cfg.planner),
            compact_fraction: cfg.compact_fraction,
            shard_debt_factor: cfg.shard_debt_factor,
            clock,
            telemetry,
            queue_waits,
            durability: OnceLock::new(),
        });
        let sessions = Arc::new(SessionRuntime::new(cfg.admission));
        sessions.spawn_worker(&shared);
        let direct = Session::open_internal(&shared, &sessions, SessionOptions::new(""));
        Self {
            shared,
            sessions,
            direct,
        }
    }

    /// Lanes of the shared pool.
    pub fn threads(&self) -> usize {
        self.shared.threads()
    }

    /// Opens a [`Session`] for a tenant: the non-blocking submission
    /// surface with priority classes, quotas, and tickets. See the
    /// [`session`](crate::session) module for the full walkthrough.
    pub fn open_session(&self, options: SessionOptions) -> Session {
        Session::open(&self.shared, &self.sessions, options)
    }

    /// [`open_session`](Self::open_session) with default options:
    /// normal priority, no quotas.
    pub fn session(&self, tenant: impl Into<String>) -> Session {
        self.open_session(SessionOptions::new(tenant))
    }

    /// Closes admission and drains the queue: submissions from this
    /// point are rejected with
    /// [`RejectReason::Shutdown`](crate::RejectReason::Shutdown), while
    /// every ticket already admitted runs to a terminal outcome before
    /// this returns. Idempotent; also invoked on drop.
    pub fn shutdown(&self) {
        self.sessions.shutdown(&self.shared);
    }

    /// Runs one dispatch pass on the calling thread: pops up to
    /// [`AdmissionConfig::max_batch`] tickets (highest priority class
    /// first) and executes them. Returns how many tickets terminated.
    /// The deterministic-dispatch primitive for engines configured with
    /// [`AdmissionConfig::background_dispatcher`] `= false`.
    pub fn pump(&self) -> usize {
        self.sessions.dispatch_batch(&self.shared)
    }

    /// Dispatches until the admission queue is empty, returning how
    /// many tickets terminated.
    pub fn dispatch_now(&self) -> usize {
        let mut n = 0;
        loop {
            let step = self.pump();
            if step == 0 {
                return n;
            }
            n += step;
        }
    }

    /// Admission-queue activity counters.
    pub fn session_stats(&self) -> SessionStats {
        self.sessions.stats()
    }

    /// Registers (or replaces) a dataset under `name`, precomputing
    /// per-dimension statistics and sorted projections. Returns the
    /// dataset's new version. Re-registration invalidates every cached
    /// result of older versions (results a concurrent query already
    /// computed against the *new* version survive).
    /// On a durable engine this panics if the registration snapshot
    /// cannot be persisted; use [`try_register`](Self::try_register)
    /// to handle that failure.
    pub fn register(&self, name: &str, data: Dataset) -> u64 {
        self.try_register(name, data)
            .expect("durable registration failed; use try_register to handle persistence errors")
    }

    /// [`register`](Self::register) returning persistence failures
    /// instead of panicking. On a non-durable engine this never fails.
    /// On a durable engine the snapshot write is the commit point: it
    /// happens (atomically) before the catalog swap, so on `Err` the
    /// previous registration of `name`, if any, is untouched both in
    /// memory and on disk. A successful re-registration also lifts any
    /// quarantine on `name`.
    pub fn try_register(&self, name: &str, data: Dataset) -> Result<u64, EngineError> {
        let shared = &self.shared;
        if let Some(d) = shared.durability.get() {
            d.persist_register(name, &data, None)?;
        }
        let entry = shared.catalog.register(name, data, &shared.pool);
        shared
            .cache
            .purge_dataset_below(entry.id(), entry.version());
        Ok(entry.version())
    }

    /// Registers (or replaces) a dataset under `name` **sharded**: the
    /// rows are additionally split into `k` partitions under
    /// `partitioner`, each with its own cache-resident tile layout,
    /// append segment, and tombstones. Mutations touch exactly the
    /// shards their rows route to, and the planner answers large
    /// queries by computing per-shard skylines and merging them by
    /// rerunning the same operator over their union
    /// ([`Strategy::Sharded`]). Returns the dataset's new version.
    pub fn register_sharded(
        &self,
        name: &str,
        data: Dataset,
        k: usize,
        partitioner: PartitionerKind,
    ) -> u64 {
        self.try_register_sharded(name, data, k, partitioner)
            .expect(
            "durable registration failed; use try_register_sharded to handle persistence errors",
        )
    }

    /// [`register_sharded`](Self::register_sharded) returning
    /// persistence failures instead of panicking; semantics otherwise
    /// as [`try_register`](Self::try_register). The shard spec is
    /// persisted in the snapshot, so recovery rebuilds the dataset
    /// sharded the same way.
    pub fn try_register_sharded(
        &self,
        name: &str,
        data: Dataset,
        k: usize,
        partitioner: PartitionerKind,
    ) -> Result<u64, EngineError> {
        let shared = &self.shared;
        if let Some(d) = shared.durability.get() {
            d.persist_register(name, &data, Some((k, partitioner)))?;
        }
        let entry = shared
            .catalog
            .register_sharded(name, data, k, partitioner, &shared.pool);
        shared
            .cache
            .purge_dataset_below(entry.id(), entry.version());
        Ok(entry.version())
    }

    /// Appends `rows` to a registered dataset; equivalent to
    /// [`update_batch`](Self::update_batch) with no deletes.
    pub fn insert(&self, name: &str, rows: &[Vec<f32>]) -> Result<MutationReport, EngineError> {
        self.update_batch(name, rows, &[])
    }

    /// Deletes rows by stable id; equivalent to
    /// [`update_batch`](Self::update_batch) with no inserts.
    pub fn delete(&self, name: &str, ids: &[u32]) -> Result<MutationReport, EngineError> {
        self.update_batch(name, &[], ids)
    }

    /// Applies one mutation batch to a registered dataset: `deletes`
    /// are tombstoned, then `inserts` appended (the report carries
    /// their assigned stable ids). One version bump covers the batch.
    ///
    /// Catalog statistics and sorted projections are patched
    /// incrementally. Cached results are carried across the version:
    /// insert-only batches under the planner's
    /// [`delta_cap`](PlannerConfig::delta_cap) are patched **eagerly**
    /// (the next identical query is a hit); batches with deletes leave
    /// prior results in place for the planner's query-time
    /// [`Strategy::Delta`] — the repair pass then runs only for
    /// subspaces actually queried again. When tombstones exceed
    /// [`EngineConfig::compact_fraction`], the batch compacts the
    /// dataset instead: surviving rows are renumbered and prior cached
    /// results (keyed to the old ids) are invalidated.
    pub fn update_batch(
        &self,
        name: &str,
        inserts: &[Vec<f32>],
        deletes: &[u32],
    ) -> Result<MutationReport, EngineError> {
        let shared = &self.shared;
        let durability = shared.durability.get();
        if let Some(d) = durability {
            d.check_available(name)?;
        }
        if inserts.is_empty() && deletes.is_empty() {
            // An empty batch must not bump the version (that would
            // orphan every cached result for nothing).
            let entry = shared
                .catalog
                .get(name)
                .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))?;
            return Ok(MutationReport {
                version: entry.version(),
                inserted_ids: Vec::new(),
                deleted: 0,
                compacted: false,
                cache_patched: 0,
                cache_dropped: 0,
            });
        }
        let mutate = || match durability {
            Some(d) => {
                // Durable path: the WAL append runs inside the writer
                // critical section, after validation and before any
                // state change — log order is apply order, and a
                // failed append aborts the batch unapplied.
                let mut hook = || d.log_mutation(name, inserts, deletes);
                shared.catalog.mutate_logged(
                    name,
                    inserts,
                    deletes,
                    &shared.pool,
                    shared.compact_fraction,
                    shared.shard_debt_factor,
                    Some(&mut hook),
                )
            }
            None => shared.catalog.mutate_with_shard_policy(
                name,
                inserts,
                deletes,
                &shared.pool,
                shared.compact_fraction,
                shared.shard_debt_factor,
            ),
        };
        // A panic anywhere in the mutation path (a poisoned kernel, an
        // injected fault) must not wedge the dataset: the writer lock
        // recovers from poisoning, and the caller gets a structured
        // error instead of an unwind. State is safe because mutations
        // publish a new entry only at the very end — an unwind midway
        // leaves the previous immutable entry in place.
        let out = match catch_unwind(AssertUnwindSafe(mutate)) {
            Ok(result) => result?,
            Err(_) => return Err(EngineError::Internal),
        };
        let (patched, dropped) = if out.compacted {
            let dropped = shared
                .cache
                .purge_dataset_below(out.entry.id(), out.entry.version());
            (0, dropped)
        } else {
            let (patched, dropped) = shared.patch_cache_forward(&out);
            // Entries older than the delta log's reach can never be
            // patched again; stop them squatting in the budget.
            let horizon = out
                .entry
                .oldest_delta_version()
                .unwrap_or_else(|| out.entry.version());
            let rotated = shared.cache.purge_dataset_below(out.entry.id(), horizon);
            (patched, dropped + rotated)
        };
        let report = MutationReport {
            version: out.entry.version(),
            inserted_ids: out.inserted_ids,
            deleted: out.deleted_ids.len(),
            compacted: out.compacted,
            cache_patched: patched,
            cache_dropped: dropped,
        };
        if let Some(d) = durability {
            if d.wants_checkpoint(name) {
                // Best effort: the batch is already durable in the
                // WAL, so a failed checkpoint costs replay time, not
                // correctness.
                let _ = self.checkpoint(name);
            }
        }
        Ok(report)
    }

    /// Rewrites a durable dataset's snapshot at the current WAL
    /// watermark and resets its log, bounding replay work after a
    /// crash. Runs automatically once a dataset's WAL outgrows
    /// [`DurabilityOptions::checkpoint_wal_bytes`]; call it directly
    /// for an orderly shutdown.
    ///
    /// # Errors
    /// [`EngineError::Persist`] on a non-durable engine or when the
    /// snapshot cannot be written (the WAL is left intact, so nothing
    /// acknowledged is at risk); [`EngineError::DatasetQuarantined`]
    /// or [`EngineError::UnknownDataset`] per the usual gates.
    pub fn checkpoint(&self, name: &str) -> Result<(), EngineError> {
        let d = self
            .shared
            .durability
            .get()
            .ok_or_else(|| EngineError::Persist("engine is not durable".into()))?;
        d.check_available(name)?;
        self.shared
            .catalog
            .with_writer(name, |entry| d.checkpoint(name, entry))
    }

    /// Whether this engine persists its state (built via
    /// [`open_durable`](Self::open_durable)).
    pub fn is_durable(&self) -> bool {
        self.shared.durability.get().is_some()
    }

    /// Datasets currently quarantined by recovery, as sorted
    /// `(name, reason)` pairs. Always empty on a non-durable engine.
    /// Quarantined datasets reject queries and mutations with
    /// [`EngineError::DatasetQuarantined`] until re-registered.
    pub fn quarantined(&self) -> Vec<(String, String)> {
        self.shared
            .durability
            .get()
            .map(|d| d.quarantined())
            .unwrap_or_default()
    }

    pub(crate) fn shared(&self) -> &Arc<EngineShared> {
        &self.shared
    }

    /// Removes a dataset; its cached results are dropped too. Returns
    /// whether it was registered.
    pub fn evict(&self, name: &str) -> bool {
        match self.shared.catalog.evict(name) {
            Some(entry) => {
                self.shared.cache.purge_dataset(entry.id());
                true
            }
            None => false,
        }
    }

    /// The catalog entry for `name`, if registered.
    pub fn dataset(&self, name: &str) -> Option<Arc<DatasetEntry>> {
        self.shared.catalog.get(name)
    }

    /// Names, versions, and live cardinalities of all registered
    /// datasets.
    pub fn datasets(&self) -> Vec<(String, u64, usize)> {
        self.shared.catalog.list()
    }

    /// Cache effectiveness counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// The planner's thresholds: exactly the
    /// [`EngineConfig::planner`] the engine was built with.
    pub fn planner_config(&self) -> &PlannerConfig {
        self.shared.planner.config()
    }

    /// A merged snapshot of every telemetry instrument — query latency,
    /// per-class queue waits, per-algorithm dominance-test counters,
    /// session activity — plus the derived `cache.*` family. Empty when telemetry is disabled;
    /// [`MetricsSnapshot::render`] turns it into the text exposition.
    pub fn metrics(&self) -> MetricsSnapshot {
        let Some(tel) = &self.shared.telemetry else {
            return MetricsSnapshot::default();
        };
        let mut snap = tel.registry().snapshot();
        let c = self.cache_stats();
        snap.push_counter("cache.hits", &[], c.hits);
        snap.push_counter("cache.misses", &[], c.misses);
        snap.push_counter("cache.insertions", &[], c.insertions);
        snap.push_counter("cache.evictions", &[], c.evictions);
        snap.push_counter("cache.invalidations", &[], c.invalidations);
        snap.push_counter("cache.patches", &[], c.patches);
        snap.push_gauge("cache.entries", &[], c.entries as f64);
        snap.push_gauge("cache.bytes", &[], c.bytes as f64);
        snap.push_gauge("cache.budget_bytes", &[], c.budget_bytes as f64);
        snap.samples
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        snap
    }

    /// The engine's live metrics registry, for embedders that want
    /// their own instruments in the same exposition: a serving tier
    /// registers its per-connection counters and request histograms
    /// here, and one [`metrics`](Self::metrics) snapshot (and its
    /// [`MetricsSnapshot::render`] text) covers the whole process.
    /// `None` when telemetry is disabled.
    pub fn metrics_registry(&self) -> Option<Arc<MetricsRegistry>> {
        self.shared
            .telemetry
            .as_ref()
            .map(|tel| tel.registry_handle())
    }

    /// Removes and returns every trace retained by the slow-query ring
    /// (queries whose end-to-end latency met
    /// [`TelemetryConfig::slow_query_threshold`]), oldest first. Empty
    /// when telemetry is disabled.
    pub fn slow_queries(&self) -> Vec<Arc<QueryTrace>> {
        self.shared
            .telemetry
            .as_ref()
            .map(|tel| tel.slow_log().drain())
            .unwrap_or_default()
    }

    /// Executes one query and returns its result **with** the full
    /// execution trace: per-stage spans timed on the engine clock, the
    /// planner's decision and rejected candidates, and per-span
    /// dominance-test counts.
    ///
    /// The query runs exactly as [`execute`](Self::execute) runs it
    /// (same session, cache, and scheduling), so the trace reflects
    /// production behaviour rather than an instrumented replay.
    ///
    /// # Errors
    /// [`EngineError::TelemetryDisabled`] when the engine was built
    /// with [`TelemetryConfig::enabled`] `= false`, plus anything
    /// [`execute`](Self::execute) can fail with.
    pub fn explain_analyze(
        &self,
        query: &SkylineQuery,
    ) -> Result<(QueryResult, Arc<QueryTrace>), EngineError> {
        if self.shared.telemetry.is_none() {
            return Err(EngineError::TelemetryDisabled);
        }
        let ticket = self.submit_direct_blocking(query)?;
        let result = ticket.wait()?;
        let trace = ticket
            .trace()
            .expect("telemetry is enabled: successful tickets carry a trace");
        Ok((result, trace))
    }

    /// Plans a query without executing it (introspection; no cache
    /// probe beyond the prior-version lookup, no side effects beyond
    /// the planner's sampling pass).
    pub fn plan(&self, query: &SkylineQuery) -> Result<QueryPlan, EngineError> {
        let prepared = self.shared.prepare(query)?;
        Ok(self.shared.plan_prepared(&prepared, self.threads()))
    }

    /// Executes one query and blocks for its result.
    ///
    /// A thin submit-and-wait wrapper over the [session
    /// layer](crate::session): the query goes through the engine's own
    /// session (anonymous tenant, normal priority, no quotas), so cache
    /// hits are answered at submission and misses take one trip through
    /// the admission queue. Equivalent to
    /// `engine.session("").submit(query)?.wait()`.
    pub fn execute(&self, query: &SkylineQuery) -> Result<QueryResult, EngineError> {
        self.submit_direct_blocking(query)?.wait()
    }

    /// Submits through the engine's own session, absorbing transient
    /// `QueueFull` backpressure by helping drain the queue — the
    /// blocking wrappers must not surface a rejection the caller never
    /// opted into. (Quota rejections cannot occur: the direct session
    /// bypasses quota enforcement, even if a user session caps the
    /// same tenant name. Shutdown still surfaces.)
    fn submit_direct_blocking(
        &self,
        query: &SkylineQuery,
    ) -> Result<crate::session::QueryTicket, EngineError> {
        loop {
            match self.direct.submit(query) {
                Ok(ticket) => return Ok(ticket),
                Err(EngineError::Rejected(crate::error::RejectReason::QueueFull { .. })) => {
                    if self.pump() == 0 {
                        // The dispatcher owns everything queued; give
                        // it a moment to free a slot.
                        std::thread::yield_now();
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Executes a batch of queries and returns per-query results in
    /// order: every query is submitted through the engine's own session
    /// first, then the tickets are awaited together.
    ///
    /// Scheduling (inside the dispatcher's batch core): cache hits are
    /// answered at submission; misses whose plan is sequential
    /// (BNL/SFS/BSkyTree/min-scan/delta) run **next to each other**,
    /// one query per lane, so the pool is saturated by inter-query
    /// parallelism; misses with parallel plans (Q-Flow/Hybrid) then run
    /// one at a time, each spanning the whole pool. Either way the pool
    /// is never oversubscribed.
    ///
    /// Each query is planned once and probes the cache once for the
    /// effectiveness counters; the extra de-duplication re-probe before
    /// a plan runs (an identical earlier query in the batch may have
    /// filled the cache already) is uncounted.
    pub fn execute_batch(&self, queries: &[SkylineQuery]) -> Vec<Result<QueryResult, EngineError>> {
        // Blocking submission: a batch larger than the queue capacity
        // drains itself instead of partially failing.
        let tickets: Vec<Result<crate::session::QueryTicket, EngineError>> = queries
            .iter()
            .map(|q| self.submit_direct_blocking(q))
            .collect();
        tickets
            .into_iter()
            .map(|ticket| ticket.and_then(|t| t.wait()))
            .collect()
    }
}

impl EngineShared {
    /// Lanes of the shared pool.
    pub(crate) fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Carries cached results of the pre-mutation version forward to
    /// the new one. Insert-only deltas are cheap (the batch is offered
    /// to the cached skyline only, through the tile kernels when it is
    /// large); anything involving deletes is left at the old version
    /// for the query-time delta strategy, so the repair scan runs only
    /// for subspaces that are queried again.
    pub(crate) fn patch_cache_forward(&self, out: &MutationOutcome) -> (usize, usize) {
        let entry = &out.entry;
        let delta = out.inserted_ids.len() + out.deleted_ids.len();
        if delta > self.planner.config().delta_cap {
            // Cumulative deltas only grow, so no future query can
            // patch across this batch either: drop every prior entry
            // now instead of letting it squat until the log rotates.
            let dropped = self.cache.purge_dataset_below(entry.id(), entry.version());
            return (0, dropped);
        }
        if !out.deleted_ids.is_empty() {
            // Deletes defer to Strategy::Delta: the repair pass over
            // the live rows then runs only for subspaces that are
            // actually queried again. The old-version entries stay.
            return (0, 0);
        }
        let stale = self.cache.take_dataset_version(entry.id(), out.old_version);
        let mut patched = 0usize;
        for (key, value) in stale {
            let dims = mask_dims(key.dim_mask);
            let mut sky = (*value).clone();
            maintain::insert_points(
                entry.as_ref(),
                &mut sky,
                &out.inserted_ids,
                &dims,
                key.max_mask,
            );
            self.cache.insert_patched(
                CacheKey {
                    version: entry.version(),
                    ..key
                },
                CachedValue::ids_only(Arc::new(sky)),
            );
            patched += 1;
        }
        (patched, 0)
    }

    /// Executes one dispatch batch of admitted tickets against the
    /// shared pool — the batch core behind both
    /// [`Engine::execute_batch`] and the session dispatcher.
    ///
    /// Per ticket: cancellation and deadline are checked **at dequeue**
    /// (an expired or cancelled ticket terminates without planning),
    /// then an uncounted de-duplication cache probe (the counted probe
    /// ran at submission), then the plan. Sequential plans run one per
    /// pool lane, parallel plans span the whole pool afterwards; both
    /// re-check cancellation/deadline **between the plan and the run**.
    ///
    /// With `steal` set, the loop over pool-wide parallel plans
    /// re-checks the admission queues before each one and runs any
    /// ticket whose effective class is strictly higher first — a High
    /// submission arriving (or a Low one aging up) mid-batch waits for
    /// at most one plan, not the whole batch. Stolen sub-batches run
    /// with `steal` off, so the pre-emption nests at most once.
    pub(crate) fn run_ticket_batch(
        &self,
        runtime: &SessionRuntime,
        batch: Vec<Arc<TicketState>>,
        steal: bool,
    ) {
        type Planned = (
            Arc<TicketState>,
            QueryPlan,
            Duration,
            Option<Arc<ActiveTrace>>,
        );
        let mut seq: Vec<Planned> = Vec::new();
        let mut par: Vec<Planned> = Vec::new();
        for ticket in batch {
            let wait = self.clock.now().saturating_sub(ticket.submitted_at);
            if let Some(outcome) = self.preflight(&ticket) {
                self.complete_ticket(runtime, &ticket, outcome, wait, None);
                continue;
            }
            let trace = self.begin_trace(&ticket, wait);
            if let Some(full) = self.cache.get_uncounted(&ticket.prepared.key) {
                let hit_started = self.clock.now();
                let hit = self.hit_result(&ticket.prepared, full, Instant::now());
                if let Some(tr) = &trace {
                    tr.add_span(
                        SpanKind::CacheHit,
                        hit_started,
                        self.clock.now().saturating_sub(hit_started),
                        0,
                    );
                }
                let sealed = self.seal_trace(trace, &ticket, &hit, wait);
                self.complete_ticket(runtime, &ticket, Ok(hit), wait, sealed);
                continue;
            }
            if let Some(hit) = self.try_ancestor(&ticket.prepared, Instant::now(), trace.as_ref()) {
                let sealed = self.seal_trace(trace, &ticket, &hit, wait);
                self.complete_ticket(runtime, &ticket, Ok(hit), wait, sealed);
                continue;
            }
            let plan_started = self.clock.now();
            let plan = self.plan_prepared(&ticket.prepared, self.threads());
            if let Some(tr) = &trace {
                tr.add_span(
                    SpanKind::Plan,
                    plan_started,
                    self.clock.now().saturating_sub(plan_started),
                    0,
                );
            }
            let parallel = matches!(plan.strategy, Strategy::Algorithm(a) if a.is_parallel())
                || matches!(plan.strategy, Strategy::Sharded { .. });
            if parallel {
                par.push((ticket, plan, wait, trace));
            } else {
                seq.push((ticket, plan, wait, trace));
            }
        }

        // Sequential plans: a lone one runs directly on the shared pool
        // (the single-query fast path); several run one per lane, each
        // on a single-threaded pool, so total concurrency stays at
        // `threads()`.
        if seq.len() == 1 {
            let (ticket, plan, wait, trace) = seq.pop().expect("len checked");
            self.finish_ticket(runtime, &ticket, plan, wait, &self.pool, trace);
        } else if !seq.is_empty() {
            let mut slots = seq;
            par_chunks_mut(&self.pool, &mut slots, 1, |_, chunk| {
                let lane_pool = ThreadPool::new(1);
                for (ticket, plan, wait, trace) in chunk.iter_mut() {
                    self.finish_ticket(
                        runtime,
                        ticket,
                        plan.clone(),
                        *wait,
                        &lane_pool,
                        trace.clone(),
                    );
                }
            });
        }

        // Parallel plans: whole pool, one at a time, reusing the plan
        // from classification.
        for (ticket, plan, wait, trace) in par {
            if steal {
                let higher = runtime.pop_higher(self.clock.now(), ticket.priority);
                if !higher.is_empty() {
                    runtime.run_batch_guarded(self, higher, false);
                }
            }
            self.finish_ticket(runtime, &ticket, plan, wait, &self.pool, trace);
        }
    }

    /// Starts a trace for an admitted ticket (telemetry enabled only),
    /// seeded with its admission-wait span.
    fn begin_trace(&self, ticket: &TicketState, wait: Duration) -> Option<Arc<ActiveTrace>> {
        self.telemetry.as_ref().map(|_| {
            let tr = Arc::new(ActiveTrace::new(Arc::clone(&self.clock)));
            tr.add_span(SpanKind::AdmissionWait, ticket.submitted_at, wait, 0);
            tr
        })
    }

    /// Seals an active trace against the finished result.
    fn seal_trace(
        &self,
        trace: Option<Arc<ActiveTrace>>,
        ticket: &TicketState,
        result: &QueryResult,
        queue_wait: Duration,
    ) -> Option<Arc<QueryTrace>> {
        trace.map(|tr| {
            tr.finish(
                ticket.id,
                ticket.prepared.entry.name(),
                PlanKind::from(&result.plan.strategy).name(),
                result.plan.reason,
                result.plan.candidates.clone(),
                queue_wait,
                self.clock.now().saturating_sub(ticket.submitted_at),
                result.cache_hit,
            )
        })
    }

    /// Terminates a ticket: records its queue wait and (on success) the
    /// completion counters, end-to-end latency, and slow-log offer,
    /// then publishes the outcome and trace to the waiter.
    fn complete_ticket(
        &self,
        runtime: &SessionRuntime,
        ticket: &TicketState,
        outcome: Result<QueryResult, EngineError>,
        queue_wait: Duration,
        trace: Option<Arc<QueryTrace>>,
    ) {
        if outcome.is_ok() {
            self.queue_waits.record(ticket.priority, queue_wait);
            if let Some(tel) = &self.telemetry {
                tel.on_completed(ticket.priority);
                tel.record_latency(self.clock.now().saturating_sub(ticket.submitted_at));
                if let Some(tr) = &trace {
                    tel.slow_log().offer(tr);
                }
            }
        }
        runtime.complete(ticket, outcome, queue_wait, trace);
    }

    /// Terminal outcome for a ticket that must not run: cancelled, or
    /// past its deadline on the engine clock.
    fn preflight(&self, ticket: &TicketState) -> Option<Result<QueryResult, EngineError>> {
        if ticket.cancelled.load(Ordering::SeqCst) {
            return Some(Err(EngineError::Cancelled));
        }
        if ticket.expired(self.clock.now()) {
            return Some(Err(EngineError::DeadlineExceeded));
        }
        None
    }

    /// Runs one planned ticket on `pool` after the between-phases
    /// cancellation/deadline re-check, with an uncounted de-duplication
    /// probe first.
    fn finish_ticket(
        &self,
        runtime: &SessionRuntime,
        ticket: &TicketState,
        plan: QueryPlan,
        queue_wait: Duration,
        pool: &ThreadPool,
        trace: Option<Arc<ActiveTrace>>,
    ) {
        if let Some(outcome) = self.preflight(ticket) {
            self.complete_ticket(runtime, ticket, outcome, queue_wait, None);
            return;
        }
        let outcome = match self.cache.get_uncounted(&ticket.prepared.key) {
            Some(full) => {
                let hit_started = self.clock.now();
                let hit = self.hit_result(&ticket.prepared, full, Instant::now());
                if let Some(tr) = &trace {
                    tr.add_span(
                        SpanKind::CacheHit,
                        hit_started,
                        self.clock.now().saturating_sub(hit_started),
                        0,
                    );
                }
                hit
            }
            None => match self.try_ancestor(&ticket.prepared, Instant::now(), trace.as_ref()) {
                Some(hit) => hit,
                None => self.run_plan(&ticket.prepared, plan, pool, trace.as_ref()),
            },
        };
        let sealed = self.seal_trace(trace, ticket, &outcome, queue_wait);
        self.complete_ticket(runtime, ticket, Ok(outcome), queue_wait, sealed);
    }

    /// Resolves the dataset and canonicalises the query.
    pub(crate) fn prepare(&self, query: &SkylineQuery) -> Result<Prepared, EngineError> {
        // Quarantine outranks "unknown": a corrupt dataset was evicted
        // from the catalog, but callers should hear *why* it is gone.
        if let Some(d) = self.durability.get() {
            d.check_available(query.dataset())?;
        }
        let entry = self
            .catalog
            .get(query.dataset())
            .ok_or_else(|| EngineError::UnknownDataset(query.dataset().to_string()))?;
        let (dims, max_mask) = query.canonicalize(entry.dims())?;
        let dim_mask = dims.iter().fold(0u32, |m, &d| m | (1 << d));
        let key = CacheKey {
            dataset_id: entry.id(),
            version: entry.version(),
            dim_mask,
            max_mask,
            kind: query.query_kind(),
        };
        Ok(Prepared {
            entry,
            key,
            dims,
            max_mask,
            limit: query.result_limit(),
        })
    }

    /// Plans a prepared query, offering the planner any prior-version
    /// cached result that the dataset's delta log can still reach and
    /// any same-version cached **subspace** skyline usable as a
    /// superspace pre-filter.
    pub(crate) fn plan_prepared(&self, prepared: &Prepared, threads: usize) -> QueryPlan {
        let kind = prepared.key.kind;
        // A cached subspace skyline at this exact version can pre-filter
        // the superspace scan; cap the seed size so the filter's
        // O(n × seed) worst case stays well under the main computation.
        // Skyline only: pruned rows may still carry non-zero counts.
        let seed = if kind.is_skyline() {
            self.cache
                .find_superspace_seed(&prepared.key)
                .filter(|&(_, len)| len > 0 && len <= 4096)
                .map(|(dim_mask, len)| SuperspaceSeed { dim_mask, len })
        } else {
            None
        };
        // Only pay the prior-version cache scan when a delta could
        // exist at all: unmutated datasets (the common case) have an
        // empty log. Skyline only: the maintenance kernels patch
        // membership, not dominator counts.
        let prior = if !kind.is_skyline() || prepared.entry.oldest_delta_version().is_none() {
            None
        } else {
            self.cache.find_prior(&prepared.key).and_then(|(ver, len)| {
                let delta = prepared.entry.delta_since(ver)?;
                let inserted = prepared.entry.inserted_since(delta.bound).len();
                Some(PriorResult {
                    from_version: ver,
                    len,
                    inserted,
                    deleted: delta.deleted.len(),
                })
            })
        };
        self.planner.plan_kind(
            &prepared.entry,
            &prepared.dims,
            prepared.max_mask,
            threads,
            kind,
            prior,
            seed,
        )
    }

    /// Counted cache probe; on a hit builds the full result without
    /// planning.
    pub(crate) fn probe(&self, prepared: &Prepared, started: Instant) -> Option<QueryResult> {
        let value = self.cache.get(&prepared.key)?;
        Some(self.hit_result(prepared, value, started))
    }

    /// Wraps a cached value as a hit result.
    fn hit_result(&self, prepared: &Prepared, value: CachedValue, started: Instant) -> QueryResult {
        QueryResult {
            full: value.ids,
            counts: value.counts,
            limit: prepared.limit,
            plan: QueryPlan::trivial("").cached(),
            cache_hit: true,
            stats: None,
            shard_merge: None,
            dataset_version: prepared.entry.version(),
            elapsed: started.elapsed(),
        }
    }

    /// Serves a query from a cached **ancestor** entry when one exists:
    /// a k'-skyband (k' ≥ k) with stored dominator counts answers any
    /// smaller skyband — and the skyline itself (count = 0) — by
    /// filtering those counts, and a cached top-k' dominating answers
    /// any smaller top-k by truncation. No dataset scan happens; the
    /// derivation is a pass over the cached vectors. The derived result
    /// is inserted at its own key so the next identical query is an
    /// exact hit, and the work lands on the trace as a
    /// [`SpanKind::CacheAncestor`] span.
    fn try_ancestor(
        &self,
        prepared: &Prepared,
        started: Instant,
        trace: Option<&Arc<ActiveTrace>>,
    ) -> Option<QueryResult> {
        let kind = prepared.key.kind;
        if matches!(
            kind,
            QueryKind::Skyband { k: 0 } | QueryKind::TopKDominating { k: 0 }
        ) {
            // Definitionally empty; let the trivial plan answer it.
            return None;
        }
        let (_, anc) = self.cache.find_ancestor(&prepared.key)?;
        let span_t0 = trace.map(|_| self.clock.now());
        let (value, reason) = match kind {
            QueryKind::Skyline | QueryKind::Skyband { .. } => {
                let counts = anc.counts.as_ref()?;
                debug_assert_eq!(counts.len(), anc.ids.len());
                let keep_below = kind.k();
                let mut ids = Vec::new();
                let mut kept = Vec::new();
                for (&id, &c) in anc.ids.iter().zip(counts.iter()) {
                    if c < keep_below {
                        ids.push(id);
                        kept.push(c);
                    }
                }
                let value = CachedValue {
                    ids: Arc::new(ids),
                    counts: (!kind.is_skyline()).then(|| Arc::new(kept)),
                };
                (value, "skyband ancestor cache hit")
            }
            QueryKind::TopKDominating { k } => {
                let take = (k as usize).min(anc.ids.len());
                let value = CachedValue {
                    ids: Arc::new(anc.ids[..take].to_vec()),
                    counts: anc
                        .counts
                        .as_ref()
                        .map(|c| Arc::new(c[..take.min(c.len())].to_vec())),
                };
                (value, "top-k ancestor cache hit")
            }
        };
        self.cache.insert(prepared.key, value.clone());
        if let (Some(tr), Some(t0)) = (trace, span_t0) {
            tr.add_span(
                SpanKind::CacheAncestor,
                t0,
                self.clock.now().saturating_sub(t0),
                0,
            );
        }
        let mut hit = self.hit_result(prepared, value, started);
        hit.plan.reason = reason;
        Some(hit)
    }

    /// Applies a `Strategy::Delta` plan: seeds from the prior cached
    /// skyline and replays the accumulated delta through the
    /// maintenance kernels. `None` when the prior result or the delta
    /// window vanished between planning and execution.
    fn run_delta(&self, prepared: &Prepared, from_version: u64) -> Option<Vec<u32>> {
        let entry = &prepared.entry;
        let prior = self
            .cache
            .get_uncounted(&CacheKey {
                version: from_version,
                ..prepared.key
            })?
            .ids;
        let delta = entry.delta_since(from_version)?;
        let inserted = entry.inserted_since(delta.bound);
        // Rows live now and below the bound are exactly the prior
        // version's survivors — the live set the repair scan needs.
        let survivors = entry
            .live_ids()
            .iter()
            .copied()
            .take_while(|&id| id < delta.bound);
        Some(maintain::apply_delta(
            entry.as_ref(),
            survivors,
            &prior,
            &delta.deleted,
            inserted,
            &prepared.dims,
            prepared.max_mask,
        ))
    }

    /// Runs an already-made plan on `pool` (the shared pool, or a
    /// lane-local single-threaded pool inside a dispatch batch) and
    /// fills the cache with the result.
    fn run_plan(
        &self,
        prepared: &Prepared,
        mut plan: QueryPlan,
        pool: &ThreadPool,
        trace: Option<&Arc<ActiveTrace>>,
    ) -> QueryResult {
        let started = Instant::now();
        if let Some(tr) = trace {
            // Give the algorithm a query-scoped dominance tally and the
            // span sink, and re-base the trace's phase mark so the
            // first phase is not charged for engine-side time.
            plan.config.dt_counters = Some(Arc::new(LaneCounters::new(pool.threads())));
            plan.config.span_sink = Some(Arc::clone(tr) as Arc<dyn SpanSink>);
            tr.set_mark();
        }
        let exec_started = trace.map(|_| self.clock.now());
        let entry = &prepared.entry;
        let kind = prepared.key.kind;
        let mut shard_merge = None;
        let mut counts: Option<Vec<u32>> = None;
        let (indices, stats) = match &plan.strategy {
            Strategy::Cached => unreachable!("planner never emits Cached"),
            Strategy::Trivial => {
                // No discriminating dimension: nothing strictly
                // dominates anything, so every live row is in the
                // skyline (and in any k ≥ 1 skyband, with count 0),
                // and top-k dominating is the first k live rows with
                // score 0. Empty dataset or k = 0: empty.
                let ids: Vec<u32> = if kind.k() == 0 {
                    Vec::new()
                } else if let QueryKind::TopKDominating { k } = kind {
                    entry.live_ids().iter().copied().take(k as usize).collect()
                } else {
                    (**entry.live_ids()).clone()
                };
                if !kind.is_skyline() {
                    counts = Some(vec![0; ids.len()]);
                }
                (ids, None)
            }
            Strategy::MinScan { dim } => {
                let max = prepared.max_mask & (1 << dim) != 0;
                (entry.extreme_rows(*dim, max), None)
            }
            Strategy::Delta { from_version } => match self.run_delta(prepared, *from_version) {
                Some(indices) => (indices, None),
                None => {
                    // The prior entry was evicted (or the log rotated)
                    // between planning and execution: replan without
                    // it. A fresh plan can never be Delta again.
                    let plan =
                        self.planner
                            .plan(entry, &prepared.dims, prepared.max_mask, pool.threads());
                    return self.run_plan(prepared, plan, pool, trace);
                }
            },
            Strategy::Sharded { .. } => {
                let store = Arc::clone(
                    entry
                        .sharded()
                        .expect("planner emits Sharded only for entries with a store attached"),
                );
                let (ids, cnts, stats, merge) =
                    self.run_sharded(prepared, &plan, &store, pool, trace);
                shard_merge = Some(merge);
                counts = cnts;
                (ids, Some(stats))
            }
            Strategy::Algorithm(algo) if !kind.is_skyline() => {
                // Counting kinds: fold the live rows onto the effective
                // dimensions and run a counting kernel — the pooled
                // block flow for skybands, the sequential scan for
                // top-k dominating — whatever the nominal algorithm.
                let exec_t0 = trace.map(|_| self.clock.now());
                let width = plan.effective_dims.len();
                let (view, id_map) =
                    self.algorithm_input(entry, &plan.effective_dims, prepared.max_mask, pool);
                let rows = view.as_ref().unwrap_or(entry.base_data()).values();
                let mut dts = 0u64;
                let pairs = match kind {
                    QueryKind::Skyband { k } => {
                        let alpha = plan.config.alpha_qflow;
                        skyband_blockflow(rows, width, k, alpha, pool, &mut dts)
                    }
                    QueryKind::TopKDominating { k } => top_k_dominating(rows, width, k, &mut dts),
                    QueryKind::Skyline => unreachable!("guarded by the match arm"),
                };
                let mut ids = Vec::with_capacity(pairs.len());
                let mut cnts = Vec::with_capacity(pairs.len());
                for (pos, c) in pairs {
                    ids.push(id_map.as_ref().map_or(pos, |live| live[pos as usize]));
                    cnts.push(c);
                }
                if let (Some(tr), Some(t0)) = (trace, exec_t0) {
                    tr.add_span(
                        SpanKind::Execute,
                        t0,
                        self.clock.now().saturating_sub(t0),
                        dts,
                    );
                }
                if let Some(tel) = &self.telemetry {
                    tel.record_dominance(*algo, dts);
                }
                counts = Some(cnts);
                let stats = RunStats {
                    dominance_tests: dts,
                    skyline_size: ids.len(),
                    ..RunStats::default()
                };
                (ids, Some(stats))
            }
            Strategy::Algorithm(algo) => {
                // A cached same-version subspace skyline (the planner's
                // superspace seed) pre-filters the input: rows strictly
                // dominated by a member on the query dimensions cannot
                // be in the skyline and never reach the algorithm.
                let seeded = plan.superspace_seed.and_then(|seed| {
                    self.superspace_prefilter(prepared, &plan.effective_dims, seed.dim_mask, trace)
                });
                let (indices, stats) = match seeded {
                    Some((view, kept, seed_dts)) => {
                        let result = algo.run(&view, pool, &plan.config);
                        let indices = result.indices.iter().map(|&i| kept[i as usize]).collect();
                        let mut stats = result.stats;
                        // The filter's tests are part of this query's
                        // work: keep the stats equal to the trace's
                        // span-summed total.
                        stats.dominance_tests += seed_dts;
                        (indices, stats)
                    }
                    None => {
                        let (view, id_map) = self.algorithm_input(
                            entry,
                            &plan.effective_dims,
                            prepared.max_mask,
                            pool,
                        );
                        let result = match &view {
                            Some(projected) => algo.run(projected, pool, &plan.config),
                            None => algo.run(entry.base_data(), pool, &plan.config),
                        };
                        let indices = match id_map {
                            // Positions in the materialized live view map
                            // back to stable ids; `live` ascending keeps
                            // order.
                            Some(live) => {
                                result.indices.iter().map(|&i| live[i as usize]).collect()
                            }
                            None => result.indices,
                        };
                        (indices, result.stats)
                    }
                };
                if let Some(tel) = &self.telemetry {
                    tel.record_dominance(*algo, stats.dominance_tests);
                }
                (indices, Some(stats))
            }
        };

        if let (Some(tr), Some(t0)) = (trace, exec_started) {
            // Algorithms stream their own phase spans through the sink;
            // the non-algorithmic strategies get one covering span here.
            let kind = match &plan.strategy {
                Strategy::Trivial | Strategy::MinScan { .. } => Some(SpanKind::Execute),
                Strategy::Delta { .. } => Some(SpanKind::CachePatch),
                _ => None,
            };
            if let Some(kind) = kind {
                tr.add_span(kind, t0, self.clock.now().saturating_sub(t0), 0);
            }
        }

        let full = Arc::new(indices);
        let counts = counts.map(Arc::new);
        // Don't cache results for a version that was replaced or
        // evicted while we computed: versioned keys make such entries
        // unservable, so they would only squat in LRU slots. (Best
        // effort — a purge racing between this check and the insert
        // can still let one dead entry in; LRU pressure reclaims it.)
        let still_current = self
            .catalog
            .get(entry.name())
            .is_some_and(|current| current.version() == entry.version());
        if still_current {
            let insert_started = trace.map(|_| self.clock.now());
            self.cache.insert(
                prepared.key,
                CachedValue {
                    ids: Arc::clone(&full),
                    counts: counts.clone(),
                },
            );
            if let (Some(tr), Some(t0)) = (trace, insert_started) {
                tr.add_span(
                    SpanKind::CacheInsert,
                    t0,
                    self.clock.now().saturating_sub(t0),
                    0,
                );
            }
        }
        QueryResult {
            full,
            counts,
            limit: prepared.limit,
            plan,
            cache_hit: false,
            stats,
            shard_merge,
            dataset_version: entry.version(),
            elapsed: started.elapsed(),
        }
    }

    /// Builds the dataset a plan's algorithm runs on, plus the
    /// position → stable-id map when rows had to be gathered.
    ///
    /// Returns `(None, None)` when the stored base rows can be used
    /// as-is (pristine entry, all dimensions selected, all minimised);
    /// otherwise materializes the live rows projected onto `dims` with
    /// maximised dimensions negated. The id map is `None` whenever
    /// positions already equal stable ids.
    fn algorithm_input(
        &self,
        entry: &Arc<DatasetEntry>,
        dims: &[usize],
        max_mask: u32,
        pool: &ThreadPool,
    ) -> (Option<Dataset>, Option<Arc<Vec<u32>>>) {
        let d = entry.dims();
        let pristine = entry.is_pristine();
        if pristine && dims.len() == d && max_mask == 0 {
            return (None, None);
        }
        let live = Arc::clone(entry.live_ids());
        let n = live.len();
        let width = dims.len();
        let mut values = vec![0.0f32; n * width];
        par_chunks_mut(pool, &mut values, 4096 * width.max(1), |offset, chunk| {
            debug_assert_eq!(offset % width, 0);
            let first_row = offset / width;
            for (k, out) in chunk.chunks_mut(width).enumerate() {
                let src = entry.point(live[first_row + k]);
                for (slot, &c) in out.iter_mut().zip(dims) {
                    let v = src[c];
                    *slot = if max_mask & (1 << c) != 0 { -v } else { v };
                }
            }
        });
        let view =
            Dataset::from_flat(values, width).expect("projection of a valid dataset is valid");
        // In a pristine entry live[i] == i: positions are stable ids.
        (Some(view), if pristine { None } else { Some(live) })
    }

    /// Materializes the live rows surviving the superspace-seed
    /// pre-filter: folded onto `dims`, minus every row strictly
    /// dominated (on the query dimensions) by a member of the cached
    /// subspace skyline `seed_mask` refers to. Such rows cannot be in
    /// the query's skyline, and since the cached members are live rows
    /// themselves, the survivors' skyline equals the full skyline.
    /// Returns `None` when the cached entry was evicted between
    /// planning and execution — the algorithm then runs unfiltered.
    fn superspace_prefilter(
        &self,
        prepared: &Prepared,
        dims: &[usize],
        seed_mask: u32,
        trace: Option<&Arc<ActiveTrace>>,
    ) -> Option<(Dataset, Vec<u32>, u64)> {
        let entry = &prepared.entry;
        let members = self
            .cache
            .get_uncounted(&CacheKey {
                dataset_id: entry.id(),
                version: entry.version(),
                dim_mask: seed_mask,
                max_mask: prepared.max_mask & seed_mask,
                kind: QueryKind::Skyline,
            })?
            .ids;
        if members.is_empty() {
            return None;
        }
        let width = dims.len();
        let started = trace.map(|_| self.clock.now());
        let fold = |row: &[f32], out: &mut [f32]| {
            for (slot, &c) in out.iter_mut().zip(dims) {
                *slot = flip_pref(row[c], prepared.max_mask & (1 << c) != 0);
            }
        };
        let mut filter = TileStore::with_capacity(width, members.len());
        let mut folded = vec![0.0f32; width];
        for &id in members.iter() {
            fold(entry.point(id), &mut folded);
            filter.push(&folded);
        }
        let live = entry.live_ids();
        let mut kept = Vec::new();
        let mut values = Vec::new();
        let mut dts = 0u64;
        for &id in live.iter() {
            fold(entry.point(id), &mut folded);
            if !filter.any_dominates(&folded, &mut dts) {
                kept.push(id);
                values.extend_from_slice(&folded);
            }
        }
        if let (Some(tr), Some(t0)) = (trace, started) {
            tr.add_span(
                SpanKind::CacheSeed,
                t0,
                self.clock.now().saturating_sub(t0),
                dts,
            );
        }
        let view = Dataset::from_flat(values, width).expect("folded projection of a valid dataset");
        Some((view, kept, dts))
    }

    /// Executes a [`Strategy::Sharded`] plan: folds each shard's live
    /// rows into a per-shard working set (*scatter*), runs the query's
    /// operator on every shard — fanned out one shard per pool lane
    /// when the pool has more than one thread — and merges by running
    /// the same operator over the union of the local results on the
    /// whole pool. Per-shard spans and dominance-test counts land on
    /// the trace under [`SpanKind::ShardLocal`], keyed by shard index.
    /// Returns the member ids in ascending order, with exact dominator
    /// counts for a k-skyband.
    fn run_sharded(
        &self,
        prepared: &Prepared,
        plan: &QueryPlan,
        store: &ShardedStore,
        pool: &ThreadPool,
        trace: Option<&Arc<ActiveTrace>>,
    ) -> (Vec<u32>, Option<Vec<u32>>, RunStats, MergeStats) {
        /// One shard's fan-out slot: shard index, stable ids, folded
        /// coordinates, and the local result filled in by its lane.
        type ShardSlot = (usize, Vec<u32>, Vec<f32>, Option<(Local, RunStats)>);

        let dims = &plan.effective_dims;
        let width = dims.len();
        let max_mask = prepared.max_mask;
        let kind = prepared.key.kind;
        let k = store.k();

        // Scatter: one pass per shard over its tile base + append
        // segment, folding preferences and projecting onto the
        // effective dimensions. Dead slots skipped here are charged as
        // scan debt — the observed cost driving the adaptive
        // compaction trigger.
        let scatter_t0 = trace.map(|_| self.clock.now());
        let mut work: Vec<ShardSlot> = Vec::with_capacity(k);
        for i in 0..k {
            let shard = store.shard(i);
            let mut ids = Vec::with_capacity(shard.live_len());
            let mut values = Vec::with_capacity(shard.live_len() * width);
            shard.for_each_live(|id, row| {
                ids.push(id);
                for &c in dims {
                    values.push(flip_pref(row[c], max_mask & (1 << c) != 0));
                }
            });
            store.add_scan_debt(i, shard.dead() as u64);
            work.push((i, ids, values, None));
        }
        if let (Some(tr), Some(t0)) = (trace, scatter_t0) {
            tr.add_span(
                SpanKind::ShardScatter,
                t0,
                self.clock.now().saturating_sub(t0),
                0,
            );
        }

        // Local results: each shard runs the operator tuned to its own
        // cardinality, on a working set small enough to stay
        // cache-resident.
        let mut cfg = plan.config.clone();
        cfg.span_sink = None;
        cfg.dt_counters = None;
        let run_local = |lane: &ThreadPool, i: usize, ids: Vec<u32>, values: Vec<f32>| {
            let started = self.clock.now();
            let data =
                Dataset::from_flat(values, width).expect("folded projection of a valid dataset");
            let answer = operator(kind, &data, lane, &cfg);
            if let Some(tr) = trace {
                tr.add_span_sharded(
                    SpanKind::ShardLocal,
                    Some(i as u32),
                    started,
                    self.clock.now().saturating_sub(started),
                    answer.stats.dominance_tests,
                );
            }
            let mut local = Local {
                ids: Vec::with_capacity(answer.positions.len()),
                rows: Vec::with_capacity(answer.positions.len() * width),
            };
            for &pos in &answer.positions {
                local.ids.push(ids[pos as usize]);
                local.rows.extend_from_slice(data.row(pos as usize));
            }
            (local, answer.stats)
        };
        if pool.threads() > 1 && k > 1 {
            par_chunks_mut(pool, &mut work, 1, |_, chunk| {
                let lane = ThreadPool::new(1);
                for slot in chunk.iter_mut() {
                    let ids = std::mem::take(&mut slot.1);
                    let values = std::mem::take(&mut slot.2);
                    slot.3 = Some(run_local(&lane, slot.0, ids, values));
                }
            });
        } else {
            for slot in work.iter_mut() {
                let ids = std::mem::take(&mut slot.1);
                let values = std::mem::take(&mut slot.2);
                slot.3 = Some(run_local(pool, slot.0, ids, values));
            }
        }
        let mut locals = Vec::with_capacity(k);
        let mut stats = RunStats::default();
        for (_, _, _, out) in work {
            let (local, s) = out.expect("every shard ran");
            stats.dominance_tests += s.dominance_tests;
            stats.init += s.init;
            stats.phase1 += s.phase1;
            stats.phase2 += s.phase2;
            stats.total += s.total;
            locals.push(local);
        }

        // Merge: the same operator over the union of the local
        // results, on the whole pool; never revisits base data.
        let merge_t0 = trace.map(|_| self.clock.now());
        let (merged, counts, mstats) = merge(kind, width, locals, pool);
        if let (Some(tr), Some(t0)) = (trace, merge_t0) {
            tr.add_span(
                SpanKind::ShardMerge,
                t0,
                self.clock.now().saturating_sub(t0),
                mstats.dominance_tests,
            );
        }
        stats.dominance_tests += mstats.dominance_tests;
        stats.skyline_size = merged.len();
        (merged, counts, stats, mstats)
    }
}

/// Decodes a dimension bitmask into the ascending dimension list.
fn mask_dims(dim_mask: u32) -> Vec<usize> {
    (0..32).filter(|c| dim_mask & (1 << c) != 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use skyline_core::verify;
    use skyline_data::{generate, Distribution, Preference};

    fn small_engine() -> Engine {
        Engine::with_config(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
    }

    #[test]
    fn unknown_dataset_errors() {
        let engine = small_engine();
        assert_eq!(
            engine.execute(&SkylineQuery::new("nope")).unwrap_err(),
            EngineError::UnknownDataset("nope".into())
        );
        assert_eq!(
            engine.insert("nope", &[vec![1.0]]).unwrap_err(),
            EngineError::UnknownDataset("nope".into())
        );
    }

    #[test]
    fn full_space_query_matches_reference() {
        let engine = small_engine();
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Independent, 3_000, 4, 3, &pool);
        let expect = verify::naive_skyline(&data);
        engine.register("d", data);
        let r = engine.execute(&SkylineQuery::new("d")).unwrap();
        assert_eq!(r.indices(), expect.as_slice());
        assert!(!r.cache_hit);
        assert!(r.stats.is_some());
    }

    #[test]
    fn preference_max_flips_direction() {
        let engine = small_engine();
        let data = Dataset::from_rows(&[
            vec![1.0, 1.0], // min on both; max on neither
            vec![9.0, 9.0], // max on both
            vec![5.0, 5.0],
        ])
        .unwrap();
        engine.register("d", data);
        let min = engine.execute(&SkylineQuery::new("d")).unwrap();
        assert_eq!(min.indices(), &[0]);
        let max = engine
            .execute(&SkylineQuery::new("d").preference([Preference::Max, Preference::Max]))
            .unwrap();
        assert_eq!(max.indices(), &[1]);
    }

    #[test]
    fn min_scan_handles_ties_and_direction() {
        let engine = small_engine();
        let data = Dataset::from_rows(&[
            vec![2.0, 10.0],
            vec![1.0, 20.0],
            vec![1.0, 30.0],
            vec![3.0, 30.0],
        ])
        .unwrap();
        engine.register("d", data);
        let r = engine.execute(&SkylineQuery::new("d").dims([0])).unwrap();
        assert_eq!(r.plan.strategy, Strategy::MinScan { dim: 0 });
        assert_eq!(r.indices(), &[1, 2]);
        assert!(r.stats.is_none());
        let r = engine
            .execute(
                &SkylineQuery::new("d")
                    .dims([1])
                    .preference([Preference::Max]),
            )
            .unwrap();
        assert_eq!(r.indices(), &[2, 3]);
    }

    #[test]
    fn limit_truncates_but_caches_fully() {
        let engine = small_engine();
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Anticorrelated, 2_000, 3, 5, &pool);
        let expect = verify::naive_skyline(&data);
        assert!(expect.len() > 3);
        engine.register("d", data);
        let r = engine.execute(&SkylineQuery::new("d").limit(3)).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.indices(), &expect[..3]);
        assert_eq!(r.total_skyline_size(), expect.len());
        // A different limit on the same subspace is a cache hit.
        let r2 = engine.execute(&SkylineQuery::new("d")).unwrap();
        assert!(r2.cache_hit);
        assert_eq!(r2.indices(), expect.as_slice());
    }

    #[test]
    fn empty_dataset_yields_empty_result() {
        let engine = small_engine();
        engine.register("empty", Dataset::from_flat(vec![], 3).unwrap());
        let r = engine.execute(&SkylineQuery::new("empty")).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.plan.strategy, Strategy::Trivial);
    }

    #[test]
    fn batch_matches_individual_execution() {
        let engine = small_engine();
        let pool = ThreadPool::new(2);
        engine.register("a", generate(Distribution::Independent, 1_500, 4, 9, &pool));
        engine.register(
            "b",
            generate(Distribution::Anticorrelated, 12_000, 4, 9, &pool),
        );
        let queries = vec![
            SkylineQuery::new("a"),
            SkylineQuery::new("a").dims([0, 1]),
            SkylineQuery::new("b").dims([1, 2, 3]),
            SkylineQuery::new("missing"),
            SkylineQuery::new("b").dims([2]),
        ];
        let batch = engine.execute_batch(&queries);
        for (q, r) in queries.iter().zip(&batch) {
            match r {
                Ok(r) => {
                    let solo = engine.execute(q).unwrap();
                    assert_eq!(solo.indices(), r.indices(), "query {q:?}");
                }
                Err(e) => assert_eq!(*e, EngineError::UnknownDataset("missing".into())),
            }
        }
    }

    #[test]
    fn batch_counts_each_query_probe_exactly_once() {
        let engine = small_engine();
        let pool = ThreadPool::new(2);
        engine.register(
            "d",
            generate(Distribution::Independent, 2_000, 3, 17, &pool),
        );
        let queries = vec![
            SkylineQuery::new("d"),
            SkylineQuery::new("d").dims([0, 1]),
            SkylineQuery::new("d").dims([1, 2]),
        ];
        engine.execute_batch(&queries);
        let s = engine.cache_stats();
        assert_eq!((s.hits, s.misses), (0, 3), "{s:?}");
        engine.execute_batch(&queries);
        let s = engine.cache_stats();
        assert_eq!((s.hits, s.misses), (3, 3), "{s:?}");
    }

    #[test]
    fn engine_algorithm_results_match_reference_per_subspace() {
        let engine = small_engine();
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Independent, 9_000, 4, 13, &pool);
        let reference = data.clone();
        engine.register("d", data);
        for dims in [&[0usize, 1][..], &[1, 3], &[0, 2, 3], &[0, 1, 2, 3]] {
            let r = engine
                .execute(&SkylineQuery::new("d").dims(dims.iter().copied()))
                .unwrap();
            let expect = verify::naive_skyline_on(&reference, dims);
            assert_eq!(r.indices(), expect.as_slice(), "{dims:?}");
        }
    }

    #[test]
    fn insert_patches_cached_results_eagerly() {
        let engine = small_engine();
        let data = Dataset::from_rows(&[
            vec![1.0, 9.0],
            vec![9.0, 1.0],
            vec![5.0, 5.0], // skyline (incomparable)
        ])
        .unwrap();
        engine.register("d", data);
        let cold = engine.execute(&SkylineQuery::new("d")).unwrap();
        assert_eq!(cold.indices(), &[0, 1, 2]);

        // New point dominates row 2 and joins.
        let report = engine.insert("d", &[vec![4.0, 4.0]]).unwrap();
        assert_eq!(report.inserted_ids, vec![3]);
        assert_eq!(report.cache_patched, 1);
        assert!(!report.compacted);

        let warm = engine.execute(&SkylineQuery::new("d")).unwrap();
        assert!(warm.cache_hit, "patched entry must serve the new version");
        assert_eq!(warm.indices(), &[0, 1, 3]);
        assert_eq!(warm.dataset_version, report.version);
        assert_eq!(engine.cache_stats().patches, 1);
    }

    #[test]
    fn delete_defers_to_query_time_delta() {
        let engine = small_engine();
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Independent, 20_000, 4, 19, &pool);
        let reference = data.clone();
        engine.register("d", data);
        let cold = engine.execute(&SkylineQuery::new("d")).unwrap();
        assert!(!cold.cache_hit);

        // Delete one skyline member: the cached entry stays at the old
        // version and the next query patches it via Strategy::Delta.
        let victim = cold.indices()[0];
        let report = engine.delete("d", &[victim]).unwrap();
        assert_eq!(report.cache_patched, 0);
        assert!(!report.compacted);

        let after = engine.execute(&SkylineQuery::new("d")).unwrap();
        assert!(!after.cache_hit);
        assert!(
            matches!(after.plan.strategy, Strategy::Delta { .. }),
            "{:?}",
            after.plan.strategy
        );
        // Ground truth: naive skyline over the survivors, with stable
        // ids (= original row numbers, no compaction happened).
        let entry = engine.dataset("d").unwrap();
        let expect: Vec<u32> = verify::naive_skyline(&entry.snapshot())
            .iter()
            .map(|&k| entry.live_ids()[k as usize])
            .collect();
        assert_eq!(after.indices(), expect.as_slice());
        let _ = reference;

        // And the delta result is cached at the new version.
        let warm = engine.execute(&SkylineQuery::new("d")).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.indices(), expect.as_slice());
    }

    #[test]
    fn mutations_on_subspace_and_preference_queries_stay_correct() {
        let engine = small_engine();
        let pool = ThreadPool::new(2);
        let data = generate(Distribution::Anticorrelated, 1_000, 3, 23, &pool);
        engine.register("d", data);
        let q = SkylineQuery::new("d")
            .dims([0, 2])
            .preference([Preference::Min, Preference::Max]);
        engine.execute(&q).unwrap();
        engine
            .update_batch("d", &[vec![0.01, 0.5, 0.99], vec![0.5, 0.5, 0.01]], &[3, 8])
            .unwrap();
        let got = engine.execute(&q).unwrap();
        let entry = engine.dataset("d").unwrap();
        let expect: Vec<u32> = verify::naive_skyline_on_pref(&entry.snapshot(), &[0, 2], 0b100)
            .iter()
            .map(|&k| entry.live_ids()[k as usize])
            .collect();
        assert_eq!(got.indices(), expect.as_slice());
    }

    #[test]
    fn compaction_voids_prior_results_and_renumbers() {
        let engine = Engine::with_config(EngineConfig {
            threads: 2,
            compact_fraction: 0.3,
            ..EngineConfig::default()
        });
        let data = Dataset::from_rows(&[
            vec![1.0, 4.0],
            vec![2.0, 3.0],
            vec![3.0, 2.0],
            vec![4.0, 1.0],
        ])
        .unwrap();
        engine.register("d", data);
        engine.execute(&SkylineQuery::new("d")).unwrap();
        // Deleting half the rows trips the 0.3 threshold.
        let report = engine.delete("d", &[0, 2]).unwrap();
        assert!(report.compacted);
        let entry = engine.dataset("d").unwrap();
        assert!(entry.is_pristine());
        assert_eq!(entry.live_len(), 2);
        let r = engine.execute(&SkylineQuery::new("d")).unwrap();
        assert!(!r.cache_hit, "compaction must void prior results");
        // Survivors renumbered 0..n in old id order.
        assert_eq!(r.indices(), &[0, 1]);
    }

    #[test]
    fn mutation_validation_errors_surface() {
        let engine = small_engine();
        engine.register("d", Dataset::from_rows(&[vec![1.0, 2.0]]).unwrap());
        assert_eq!(
            engine.insert("d", &[vec![1.0]]).unwrap_err(),
            EngineError::RowArity {
                row: 0,
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            engine.delete("d", &[5]).unwrap_err(),
            EngineError::UnknownRow { id: 5 }
        );
        assert_eq!(
            engine.insert("d", &[vec![1.0, f32::INFINITY]]).unwrap_err(),
            EngineError::NonFiniteValue { row: 0, col: 1 }
        );
    }

    #[test]
    fn mask_dims_round_trips() {
        assert_eq!(mask_dims(0b1011), vec![0, 1, 3]);
        assert_eq!(mask_dims(0), Vec::<usize>::new());
    }
}

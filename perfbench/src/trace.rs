//! The benchmark's own span recorder: spans around its calls into the
//! program, with the engine's public `QueryTrace` spans attached under
//! the matching call. Spans stay in memory and are written out once,
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use skyline_engine::QueryTrace;

/// One recorded span; times are nanoseconds from the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request the span belongs to; shared by all its spans.
    pub req: u64,
    /// Layer boundary, e.g. `engine.execute` or `engine.phase1`.
    pub name: String,
    /// Start, ns from the epoch.
    pub start: u64,
    /// End, ns from the epoch.
    pub end: u64,
}

/// In-memory span sink; every method is a no-op when disabled, so the
/// untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id, so children can name a parent that is
    /// recorded after them (0 when disabled).
    pub fn reserve(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, req, start, end);
        id
    }

    /// Records a finished span under a reserved id.
    pub fn record_as(
        &self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            req,
            name: name.to_string(),
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans.lock().expect("tracer lock poisoned").push(span);
    }

    /// Times `f` as a span named `name` and returns its result with
    /// the span id.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, req, start, Instant::now());
        (out, id)
    }

    /// Attaches an engine trace under span `parent`, which started at
    /// `parent_start`. The engine times its spans on its own clock, so
    /// they are placed relative to the trace's earliest span, anchored
    /// at the parent's start. Each span is named `engine.<kind>`
    /// (`engine.shard.local` once per shard).
    pub fn attach(&self, parent: u64, req: u64, parent_start: Instant, trace: &QueryTrace) {
        if !self.enabled {
            return;
        }
        let base = trace
            .spans
            .iter()
            .map(|s| s.start)
            .min()
            .unwrap_or_default();
        for s in &trace.spans {
            let start = parent_start + (s.start - base);
            self.record(
                &format!("engine.{}", s.kind.name()),
                Some(parent),
                req,
                start,
                start + s.duration,
            );
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                parent,
                s.req,
                skyline_serve::json::escape(&s.name),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// Total self time per span name: each span's duration minus the part
/// of it that its children cover (children clipped to the parent and
/// overlapping children counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, Duration> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<String, Duration> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.clamp(cursor, s.end);
                let b = b.clamp(a, s.end);
                covered += b - a;
                cursor = cursor.max(b);
            }
        }
        let own = (s.end - s.start).saturating_sub(covered);
        *out.entry(s.name.clone()).or_default() += Duration::from_nanos(own);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: format!("s{id}"),
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),  // overlaps span 2 by 10
            span(4, Some(1), 90, 130), // runs past its parent's end
            span(5, Some(2), 10, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t["s1"], Duration::from_nanos(100 - 50 - 10));
        assert_eq!(t["s2"], Duration::from_nanos(20));
        assert_eq!(t["s3"], Duration::from_nanos(30));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", None, 0, now, now), 0);
        assert!(t.spans().is_empty());
        let on = Tracer::new(true);
        let (v, id) = on.time("y", None, 7, || 42);
        assert_eq!((v, id), (42, 1));
        assert_eq!(on.spans()[0].req, 7);
    }
}

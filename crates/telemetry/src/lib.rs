//! Observability primitives for the LinuxFP reproduction.
//!
//! The paper's central claim is *transparency*: every packet either takes the
//! synthesized eBPF fast path or falls back to the kernel slow path, with no
//! third outcome. That claim is only assertable if both paths are counted by
//! the same machinery, which is what this crate provides:
//!
//! - [`Counter`] / [`Gauge`] — atomic scalars, cloneable handles.
//! - [`LocalCounter`] — a single owner's plain-integer tally in front of a
//!   shared counter, published before every registry read (a per-CPU
//!   counter, summed on read).
//! - [`Histogram`] — lock-free log2-bucketed latency histogram whose
//!   quantiles reuse the interpolation math in `linuxfp_sim::stats`.
//! - [`Registry`] — the metric namespace. There are no globals: the
//!   registry is created by the embedder and threaded through constructors,
//!   so two simulated hosts never share a counter.
//! - [`EventRing`] — fixed-capacity ring of controller trace events
//!   (program swaps, verifier rejections) for post-mortem inspection.
//! - [`render_prometheus`] / [`snapshot_json`] — the two renderers.
//!
//! All handles are `Clone + Send + Sync`; the hot-path increment is a single
//! relaxed atomic add, or a plain add for a [`LocalCounter`].

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use linuxfp_json::{json, Value};
use linuxfp_sim::stats::weighted_percentile;

pub mod trace;

/// Monotonically increasing event counter.
///
/// Cloning shares the underlying cell, so a component can keep a handle while
/// the registry keeps another.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero (not attached to any registry).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A counter handle one owner increments without atomics, the way a
/// per-CPU counter is bumped by its own core only.
///
/// Counts accumulate in a plain integer and reach the shared [`Counter`]
/// on [`LocalCounter::publish`] — which the owner runs from a
/// [`Collector`] (so every registry read sees them) — and on drop. A
/// clone is a new tally, at zero, in front of the same counter.
#[derive(Debug)]
pub struct LocalCounter {
    counter: Counter,
    pending: u64,
}

impl LocalCounter {
    /// A tally in front of `counter`, starting at zero.
    pub fn new(counter: Counter) -> Self {
        LocalCounter {
            counter,
            pending: 0,
        }
    }

    /// Counts one.
    #[inline]
    pub fn inc(&mut self) {
        self.pending += 1;
    }

    /// Counts `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.pending += n;
    }

    /// Moves the counts made since the last publish into the counter.
    pub fn publish(&mut self) {
        if self.pending > 0 {
            self.counter.add(std::mem::take(&mut self.pending));
        }
    }
}

impl Clone for LocalCounter {
    fn clone(&self) -> Self {
        LocalCounter::new(self.counter.clone())
    }
}

impl Drop for LocalCounter {
    fn drop(&mut self) {
        self.publish();
    }
}

/// Publishes an owner's [`LocalCounter`]s. The registry runs every live
/// collector before it reads a value.
pub type Collector = Arc<dyn Fn() + Send + Sync>;

#[derive(Default)]
struct Collectors(Vec<Weak<dyn Fn() + Send + Sync>>);

impl std::fmt::Debug for Collectors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} collectors", self.0.len())
    }
}

/// A value that can go up and down (queue depths, installed-program counts).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero (not attached to any registry).
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// How raw histogram samples map to the rendered unit.
///
/// The controller records reconcile latency in integer nanoseconds (the
/// simulator's native unit) but exports `linuxfp_reconcile_seconds`, so the
/// renderer divides by 1e9. Scaling at render time keeps the hot path
/// integer-only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scale {
    /// Samples are already in the exported unit.
    #[default]
    Identity,
    /// Samples are nanoseconds; render as seconds.
    NanosToSeconds,
}

impl Scale {
    /// Multiplier applied to bucket bounds and sums at render time.
    pub fn factor(self) -> f64 {
        match self {
            Scale::Identity => 1.0,
            Scale::NanosToSeconds => 1e-9,
        }
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i >= 1` holds
/// values in `[2^(i-1), 2^i)`, up to bucket 64 for values `>= 2^63`.
const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// Lock-free log2-bucketed histogram of `u64` samples.
///
/// Recording is wait-free (two relaxed atomic adds plus a bucket add);
/// quantiles are approximate to within the bucket width, computed with the
/// same rank interpolation the simulator's [`linuxfp_sim::Summary`] uses for
/// exact samples.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }
}

/// Index of the log2 bucket for `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper edge of bucket `i`, used as its representative value.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A fresh histogram (not attached to any registry).
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, in the raw (pre-scale) unit.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Snapshot of `(inclusive upper edge, count)` for every non-empty
    /// bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        (0..BUCKETS)
            .filter_map(|i| {
                let c = self.inner.buckets[i].load(Ordering::Relaxed);
                (c > 0).then(|| (bucket_upper(i), c))
            })
            .collect()
    }

    /// Approximate percentile `p` in `[0, 100]` over the bucket upper
    /// edges, sharing the interpolation in
    /// [`linuxfp_sim::stats::weighted_percentile`]. Returns 0.0 when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        let pairs: Vec<(f64, u64)> = self
            .nonzero_buckets()
            .into_iter()
            .map(|(edge, c)| (edge as f64, c))
            .collect();
        weighted_percentile(&pairs, p)
    }
}

/// What kind of metric lives under a name; mixing kinds under one name is a
/// registration bug and panics.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram, Scale),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(..) => "histogram",
        }
    }
}

/// One trace event in the [`EventRing`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number; never reused even after eviction.
    pub seq: u64,
    /// Static category, e.g. `"fp_install"` or `"verifier_reject"`.
    pub kind: &'static str,
    /// Free-form detail, e.g. the interface and program size.
    pub detail: String,
}

#[derive(Debug)]
struct RingInner {
    capacity: usize,
    next_seq: u64,
    events: VecDeque<Event>,
}

/// Fixed-capacity ring buffer of trace events; the oldest entry is evicted
/// when full. Cloning shares the buffer.
#[derive(Clone, Debug)]
pub struct EventRing {
    inner: Arc<Mutex<RingInner>>,
}

impl EventRing {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        EventRing {
            inner: Arc::new(Mutex::new(RingInner {
                capacity: capacity.max(1),
                next_seq: 0,
                events: VecDeque::new(),
            })),
        }
    }

    /// Appends an event, evicting the oldest if the ring is full. Returns
    /// the event's sequence number.
    pub fn push(&self, kind: &'static str, detail: impl Into<String>) -> u64 {
        let mut g = self.inner.lock().expect("event ring lock");
        let seq = g.next_seq;
        g.next_seq += 1;
        if g.events.len() == g.capacity {
            g.events.pop_front();
        }
        g.events.push_back(Event {
            seq,
            kind,
            detail: detail.into(),
        });
        seq
    }

    /// All retained events, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        self.inner
            .lock()
            .expect("event ring lock")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("event ring lock").events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever pushed, including evicted ones.
    pub fn total_pushed(&self) -> u64 {
        self.inner.lock().expect("event ring lock").next_seq
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("event ring lock").capacity
    }
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing::with_capacity(256)
    }
}

/// `(metric name, sorted label pairs)` — the identity of a time series.
type SeriesKey = (String, Vec<(String, String)>);

#[derive(Debug, Default)]
struct RegistryInner {
    series: BTreeMap<SeriesKey, Metric>,
    help: BTreeMap<String, &'static str>,
}

/// The metric namespace for one simulated host.
///
/// Deliberately *not* a global: the embedder creates one and threads clones
/// through constructors (`Kernel::set_telemetry`, `ControllerConfig`, ...),
/// so tests and multi-host simulations get isolated metrics for free.
///
/// Registration is get-or-create: asking twice for the same name and label
/// set returns handles to the same underlying cell.
///
/// # Example
///
/// ```
/// use linuxfp_telemetry::Registry;
///
/// let reg = Registry::new();
/// let hits = reg.counter("linuxfp_fp_hits_total", &[("fpm", "router")]);
/// hits.inc();
/// assert_eq!(
///     reg.counter("linuxfp_fp_hits_total", &[("fpm", "router")]).get(),
///     1
/// );
/// ```
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
    events: EventRing,
    collectors: Arc<Mutex<Collectors>>,
}

impl Registry {
    /// An empty registry with a default-capacity event ring.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Runs `collector` before every read from now on, for as long as the
    /// caller keeps it alive (the registry holds it weakly).
    pub fn add_collector(&self, collector: &Collector) {
        let mut collectors = self.collectors.lock().expect("collector lock");
        collectors.0.retain(|c| c.strong_count() > 0);
        collectors.0.push(Arc::downgrade(collector));
    }

    /// Publishes every live collector's pending counts.
    fn collect(&self) {
        let live: Vec<Collector> = {
            let collectors = self.collectors.lock().expect("collector lock");
            collectors.0.iter().filter_map(Weak::upgrade).collect()
        };
        for collector in live {
            collector();
        }
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut ls: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        ls.sort();
        (name.to_string(), ls)
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut g = self.inner.lock().expect("registry lock");
        let entry = g.series.entry(Self::key(name, labels)).or_insert_with(make);
        entry.clone()
    }

    /// Gets or creates the counter `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the series is already registered as a different kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("{name} is a {}, not a counter", other.kind()),
        }
    }

    /// Gets or creates the gauge `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the series is already registered as a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, labels, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(gauge) => gauge,
            other => panic!("{name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Gets or creates the histogram `name{labels}` with render scale
    /// `scale`.
    ///
    /// # Panics
    ///
    /// Panics if the series is already registered as a different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], scale: Scale) -> Histogram {
        match self.get_or_insert(name, labels, || Metric::Histogram(Histogram::new(), scale)) {
            Metric::Histogram(h, _) => h,
            other => panic!("{name} is a {}, not a histogram", other.kind()),
        }
    }

    /// Attaches help text to a metric name (first call wins), rendered as
    /// `# HELP` by the Prometheus renderer.
    pub fn describe(&self, name: &str, help: &'static str) {
        self.inner
            .lock()
            .expect("registry lock")
            .help
            .entry(name.to_string())
            .or_insert(help);
    }

    /// The registry's trace-event ring.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// All registered series names (deduplicated, sorted).
    pub fn names(&self) -> Vec<String> {
        let g = self.inner.lock().expect("registry lock");
        let mut names: Vec<String> = g.series.keys().map(|(n, _)| n.clone()).collect();
        names.dedup();
        names
    }

    /// Reads the current value of the counter `name{labels}`, or `None` if
    /// no such counter exists. Unlike [`Registry::counter`] this never
    /// creates the series — handy for assertions.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.collect();
        let g = self.inner.lock().expect("registry lock");
        match g.series.get(&Self::key(name, labels)) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Reads the current value of the gauge `name{labels}`, or `None` if
    /// no such gauge exists. Never creates the series.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let g = self.inner.lock().expect("registry lock");
        match g.series.get(&Self::key(name, labels)) {
            Some(Metric::Gauge(gauge)) => Some(gauge.get()),
            _ => None,
        }
    }

    /// All counter series named `name`, as `(sorted label pairs, value)` —
    /// e.g. to tabulate per-FPM hit counts without knowing the label
    /// values up front.
    pub fn counter_series(&self, name: &str) -> Vec<(Vec<(String, String)>, u64)> {
        self.collect();
        let g = self.inner.lock().expect("registry lock");
        g.series
            .iter()
            .filter(|((n, _), _)| n == name)
            .filter_map(|((_, ls), m)| match m {
                Metric::Counter(c) => Some((ls.clone(), c.get())),
                _ => None,
            })
            .collect()
    }

    /// Sum of all counters named `name` across every label set — e.g. the
    /// total fast-path hits over all FPM pipelines.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.collect();
        let g = self.inner.lock().expect("registry lock");
        g.series
            .iter()
            .filter(|((n, _), _)| n == name)
            .filter_map(|(_, m)| match m {
                Metric::Counter(c) => Some(c.get()),
                _ => None,
            })
            .sum()
    }

    fn snapshot(&self) -> Vec<(SeriesKey, Metric)> {
        self.collect();
        let g = self.inner.lock().expect("registry lock");
        g.series
            .iter()
            .map(|(k, m)| (k.clone(), m.clone()))
            .collect()
    }

    fn help_for(&self, name: &str) -> Option<&'static str> {
        self.inner
            .lock()
            .expect("registry lock")
            .help
            .get(name)
            .copied()
    }
}

/// Formats a float the way Prometheus expects (no exponent for the common
/// cases, integral values without a trailing `.0` suffix kept — Prometheus
/// accepts both, so plain `{}` formatting is fine).
fn fmt_f64(v: f64) -> String {
    if v == f64::MAX || v.is_infinite() {
        "+Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn fmt_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            let escaped = v
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            format!("{k}=\"{escaped}\"")
        })
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders the registry in the Prometheus text exposition format (v0.0.4):
/// `# HELP`/`# TYPE` headers, one line per series, `_bucket`/`_sum`/`_count`
/// expansion for histograms with cumulative `le` buckets ending in `+Inf`.
pub fn render_prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    let mut last_name: Option<String> = None;
    for ((name, labels), metric) in registry.snapshot() {
        if last_name.as_deref() != Some(name.as_str()) {
            if let Some(help) = registry.help_for(&name) {
                let _ = writeln!(out, "# HELP {name} {help}");
            }
            let _ = writeln!(out, "# TYPE {name} {}", metric.kind());
            last_name = Some(name.clone());
        }
        match metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "{name}{} {}", fmt_labels(&labels, None), c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "{name}{} {}", fmt_labels(&labels, None), g.get());
            }
            Metric::Histogram(h, scale) => {
                let mut cumulative = 0u64;
                for (edge, count) in h.nonzero_buckets() {
                    cumulative += count;
                    let le = fmt_f64(edge as f64 * scale.factor());
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {cumulative}",
                        fmt_labels(&labels, Some(("le", &le)))
                    );
                }
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {}",
                    fmt_labels(&labels, Some(("le", "+Inf"))),
                    h.count()
                );
                let _ = writeln!(
                    out,
                    "{name}_sum{} {}",
                    fmt_labels(&labels, None),
                    fmt_f64(h.sum() as f64 * scale.factor())
                );
                let _ = writeln!(
                    out,
                    "{name}_count{} {}",
                    fmt_labels(&labels, None),
                    h.count()
                );
            }
        }
    }
    out
}

/// Renders the registry as a JSON snapshot: a `metrics` array (one entry per
/// series, with quantiles for histograms) plus the retained trace `events`.
pub fn snapshot_json(registry: &Registry) -> Value {
    let mut metrics = Vec::new();
    for ((name, labels), metric) in registry.snapshot() {
        let label_obj: linuxfp_json::Map = labels
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(v.as_str())))
            .collect();
        let entry = match metric {
            Metric::Counter(c) => json!({
                "name": name,
                "type": "counter",
                "labels": Value::Object(label_obj),
                "value": c.get(),
            }),
            Metric::Gauge(g) => json!({
                "name": name,
                "type": "gauge",
                "labels": Value::Object(label_obj),
                "value": g.get(),
            }),
            Metric::Histogram(h, scale) => {
                let f = scale.factor();
                let buckets: Vec<Value> = h
                    .nonzero_buckets()
                    .into_iter()
                    .map(|(edge, c)| json!({"le": edge as f64 * f, "count": c}))
                    .collect();
                json!({
                    "name": name,
                    "type": "histogram",
                    "labels": Value::Object(label_obj),
                    "count": h.count(),
                    "sum": h.sum() as f64 * f,
                    "p50": h.quantile(50.0) * f,
                    "p99": h.quantile(99.0) * f,
                    "buckets": buckets,
                })
            }
        };
        metrics.push(entry);
    }
    let events: Vec<Value> = registry
        .events()
        .recent()
        .into_iter()
        .map(|e| json!({"seq": e.seq, "kind": e.kind, "detail": e.detail}))
        .collect();
    json!({ "metrics": metrics, "events": events })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_counts_reach_every_read_through_a_collector_and_on_drop() {
        let reg = Registry::new();
        let shard = Arc::new(Mutex::new(LocalCounter::new(reg.counter("x_total", &[]))));
        shard.lock().unwrap().inc();
        shard.lock().unwrap().add(2);
        // Unpublished: the shared cell has not moved.
        assert_eq!(reg.counter("x_total", &[]).get(), 0);
        let owner = Arc::clone(&shard);
        let collector: Collector = Arc::new(move || owner.lock().unwrap().publish());
        reg.add_collector(&collector);
        assert_eq!(reg.counter_value("x_total", &[]), Some(3));
        shard.lock().unwrap().inc();
        assert_eq!(reg.counter_total("x_total"), 4);
        assert!(render_prometheus(&reg).contains("x_total 4"));
        // A dropped collector is forgotten; the last owner's drop publishes.
        drop(collector);
        shard.lock().unwrap().inc();
        assert_eq!(reg.counter_value("x_total", &[]), Some(4));
        drop(shard);
        assert_eq!(reg.counter_value("x_total", &[]), Some(5));
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn clones_share_the_cell() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.inc();
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1107);
        // All samples fit below the bucket edge for 1024.
        assert!(h.quantile(100.0) <= 1023.0);
        assert_eq!(h.quantile(0.0), 0.0);
        // Median of 7 samples is the 4th (value 2 → bucket edge 3).
        assert_eq!(h.quantile(50.0), 3.0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Histogram::new().quantile(99.0), 0.0);
    }

    #[test]
    fn registry_is_get_or_create() {
        let reg = Registry::new();
        let a = reg.counter("x_total", &[("k", "v")]);
        let b = reg.counter("x_total", &[("k", "v")]);
        a.inc();
        assert_eq!(b.get(), 1);
        // Label order does not matter.
        let c = reg.counter("y_total", &[("a", "1"), ("b", "2")]);
        let d = reg.counter("y_total", &[("b", "2"), ("a", "1")]);
        c.inc();
        assert_eq!(d.get(), 1);
        // Different labels are different series.
        assert_eq!(reg.counter("x_total", &[("k", "other")]).get(), 0);
        assert_eq!(reg.counter_total("y_total"), 1);
        assert_eq!(reg.counter_value("x_total", &[("k", "v")]), Some(1));
        assert_eq!(reg.counter_value("absent", &[]), None);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("m", &[]);
        reg.gauge("m", &[]);
    }

    #[test]
    fn event_ring_evicts_oldest() {
        let ring = EventRing::with_capacity(3);
        for i in 0..5 {
            ring.push("swap", format!("e{i}"));
        }
        let events = ring.recent();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].detail, "e2");
        assert_eq!(events[2].seq, 4);
        assert_eq!(ring.total_pushed(), 5);
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = Registry::new();
        reg.describe("linuxfp_fp_hits_total", "Packets served by the fast path");
        reg.counter("linuxfp_fp_hits_total", &[("fpm", "router")])
            .add(3);
        reg.gauge("linuxfp_programs", &[]).set(2);
        let h = reg.histogram("linuxfp_reconcile_seconds", &[], Scale::NanosToSeconds);
        h.record(1_000_000_000);
        let text = render_prometheus(&reg);
        assert!(text.contains("# HELP linuxfp_fp_hits_total Packets served by the fast path"));
        assert!(text.contains("# TYPE linuxfp_fp_hits_total counter"));
        assert!(text.contains("linuxfp_fp_hits_total{fpm=\"router\"} 3"));
        assert!(text.contains("# TYPE linuxfp_programs gauge"));
        assert!(text.contains("linuxfp_programs 2"));
        assert!(text.contains("# TYPE linuxfp_reconcile_seconds histogram"));
        assert!(text.contains("linuxfp_reconcile_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("linuxfp_reconcile_seconds_sum 1"));
        assert!(text.contains("linuxfp_reconcile_seconds_count 1"));
    }

    #[test]
    fn prometheus_label_escaping() {
        // Backslashes, double quotes and newlines in label values must be
        // escaped per the exposition format, or the scrape line splits.
        let reg = Registry::new();
        reg.counter("weird_total", &[("reason", "path\\to \"x\"\nnext")])
            .inc();
        let text = render_prometheus(&reg);
        assert!(
            text.contains(r#"weird_total{reason="path\\to \"x\"\nnext"} 1"#),
            "bad escaping in: {text}"
        );
        // Every series still renders as exactly one line.
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("weird_total"))
            .collect();
        assert_eq!(lines.len(), 1, "series split across lines: {text}");
    }

    #[test]
    fn histogram_single_bucket_quantiles() {
        // With every sample in one bucket, all percentiles collapse to
        // that bucket's representative edge.
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(5); // bucket edge 7
        }
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.quantile(p), 7.0, "p{p}");
        }
    }

    #[test]
    fn histogram_saturated_bucket_quantile() {
        // The top bucket's edge is u64::MAX; the quantile must surface it
        // rather than overflow or clamp to a smaller edge.
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.quantile(100.0), u64::MAX as f64);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn json_snapshot_shape() {
        let reg = Registry::new();
        reg.counter("hits_total", &[("fpm", "bridge")]).add(2);
        reg.histogram("lat", &[], Scale::Identity).record(5);
        reg.events().push("install", "eth0: 12 insns");
        let snap = snapshot_json(&reg);
        let metrics = snap["metrics"].as_array().unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0]["name"], "hits_total");
        assert_eq!(metrics[0]["labels"]["fpm"], "bridge");
        assert_eq!(metrics[0]["value"], 2u64);
        assert_eq!(metrics[1]["type"], "histogram");
        assert_eq!(metrics[1]["count"], 1u64);
        let events = snap["events"].as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0]["kind"], "install");
    }

    #[test]
    fn histogram_quantile_matches_summary_on_exact_buckets() {
        // When every sample lands exactly on a bucket edge the histogram
        // quantile agrees with the exact Summary percentile.
        use linuxfp_sim::Summary;
        let h = Histogram::new();
        let mut s = Summary::new();
        for v in [1u64, 1, 3, 3, 3, 7] {
            h.record(v);
            s.record(v as f64);
        }
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(h.quantile(p), s.percentile(p), "p{p}");
        }
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Counter>();
        assert_send_sync::<Gauge>();
        assert_send_sync::<Histogram>();
        assert_send_sync::<Registry>();
        assert_send_sync::<EventRing>();
    }
}

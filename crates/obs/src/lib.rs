//! Deterministic observability for the Auric pipeline.
//!
//! The paper's §5 "lessons learned" names operational visibility as a
//! precondition for adoption: operators only trusted recommendations
//! they could audit. This crate is the plumbing for that audit trail —
//! and, unlike an off-the-shelf metrics stack, it is **deterministic by
//! construction** so the chaos and replay tests stay reproducible:
//!
//! - [`Recorder`] — a cheaply cloneable handle holding monotonic
//!   counters, fixed-bucket histograms, and hierarchical [`Span`]s. A
//!   disabled recorder ([`Recorder::disabled`]) is a `None` behind an
//!   `Option<Arc<_>>`: every operation is a branch on a pointer check,
//!   so instrumented hot paths cost nothing when observability is off.
//! - The clock spans run on: real time for benchmarking
//!   ([`Recorder::wall`]), or a manual clock advanced explicitly through
//!   [`Recorder::advance_sim_ms`] (e.g. mirrored from the EMS simulation
//!   clock) so span durations — and therefore report bytes — are
//!   identical across runs regardless of thread scheduling
//!   ([`Recorder::deterministic`]).
//! - [`Recorder::report_json`] — the aggregate as a stable-ordered JSON
//!   document: keys sorted, no timestamps, no floats. Two runs of a
//!   deterministic workload produce byte-identical reports.
//!
//! Zero dependencies: only `std`. The JSON is rendered by hand precisely
//! because the output ordering is part of the contract.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// The time source spans run on, in microseconds since the recorder was
/// made.
#[derive(Debug)]
enum Clock {
    /// Real monotonic time, for overhead measurement and interactive runs;
    /// never in determinism-sensitive tests.
    Wall(Instant),
    /// Moves only through [`Recorder::advance_sim_ms`]. Frozen at zero it
    /// makes every span duration 0 (pure structure); advanced in lockstep
    /// with a simulation clock (e.g. `ems::retry::SimClock`) it makes span
    /// durations report *simulated* time. Either way the report is
    /// byte-for-byte reproducible.
    Manual(AtomicU64),
}

impl Clock {
    fn now_us(&self) -> u64 {
        match self {
            Clock::Wall(origin) => origin.elapsed().as_micros() as u64,
            Clock::Manual(now_us) => now_us.load(Ordering::Relaxed),
        }
    }

    /// Advances a manual clock by `ms` milliseconds, saturating; a wall
    /// clock ignores it.
    fn advance_ms(&self, ms: u64) {
        if let Clock::Manual(now_us) = self {
            let us = ms.saturating_mul(1_000);
            let _ = now_us.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                Some(t.saturating_add(us))
            });
        }
    }
}

/// Number of histogram buckets: one for zero plus one per power of two.
const N_BUCKETS: usize = 65;

/// A fixed-bucket histogram over `u64` values: bucket 0 holds zeros,
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`. Also tracks count,
/// sum, min, and max exactly. All updates are relaxed atomics — counts
/// are exact, and the aggregate is schedule-independent.
#[derive(Debug)]
struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index of a value: 0 for 0, else `floor(log2(v)) + 1`.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The lower bound of bucket `i` (inclusive).
fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Aggregated statistics of one span path.
#[derive(Debug, Default)]
struct SpanStats {
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

type Registry<T> = RwLock<HashMap<String, T>>;

#[derive(Debug)]
struct Inner {
    clock: Clock,
    counters: Registry<AtomicU64>,
    gauges: Registry<AtomicU64>,
    histograms: Registry<Histogram>,
    spans: Registry<SpanStats>,
}

/// The observability handle. Clones share the same registries (an `Arc`
/// internally); the disabled recorder carries nothing and every method
/// returns after one pointer check.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The no-op recorder: near-zero cost, records nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recorder on real wall-clock time, for overhead measurement and
    /// interactive runs.
    pub fn wall() -> Self {
        Self::on(Clock::Wall(Instant::now()))
    }

    /// A recorder on a manual clock frozen at zero: fully deterministic.
    /// Span durations stay 0 unless the clock is advanced through
    /// [`Recorder::advance_sim_ms`].
    pub fn deterministic() -> Self {
        Self::on(Clock::Manual(AtomicU64::new(0)))
    }

    fn on(clock: Clock) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                clock,
                counters: RwLock::new(HashMap::new()),
                gauges: RwLock::new(HashMap::new()),
                histograms: RwLock::new(HashMap::new()),
                spans: RwLock::new(HashMap::new()),
            })),
        }
    }

    /// Whether this recorder records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances the deterministic clock by simulated milliseconds. No-op
    /// on disabled recorders and on non-manual clocks — simulation code
    /// calls this unconditionally.
    #[inline]
    pub fn advance_sim_ms(&self, ms: u64) {
        if let Some(inner) = &self.inner {
            inner.clock.advance_ms(ms);
        }
    }

    /// Increments counter `name` by 1.
    #[inline]
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to counter `name`.
    #[inline]
    pub fn add(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        // Hot path: the counter already exists and a read lock suffices,
        // so concurrent recommendation sweeps never serialize on a write
        // lock after the first touch of each name.
        if let Some(c) = inner.counters.read().unwrap().get(name) {
            c.fetch_add(delta, Ordering::Relaxed);
            return;
        }
        inner
            .counters
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises gauge `name` to `value` if it is higher (monotone
    /// max-gauge). Peaks — arena bytes, cache footprints, high-water
    /// marks — are what the reports need, and a max is deterministic
    /// under concurrent recording where a last-write-wins gauge is not.
    #[inline]
    pub fn gauge_max(&self, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        if let Some(g) = inner.gauges.read().unwrap().get(name) {
            g.fetch_max(value, Ordering::Relaxed);
            return;
        }
        inner
            .gauges
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .fetch_max(value, Ordering::Relaxed);
    }

    /// The current gauge value (0 if never touched).
    pub fn gauge(&self, name: &str) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner
                .gauges
                .read()
                .unwrap()
                .get(name)
                .map_or(0, |g| g.load(Ordering::Relaxed)),
        }
    }

    /// Records `value` into histogram `name`.
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        if let Some(h) = inner.histograms.read().unwrap().get(name) {
            h.observe(value);
            return;
        }
        inner
            .histograms
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Opens the span `name`. Dropping the guard records its duration on
    /// the recorder's clock. A nested stage names itself by its `/` path
    /// (`cf.fit/param`), so the report groups it under its parent.
    pub fn span(&self, name: &str) -> Span {
        Span::open(self.clone(), name.to_string())
    }

    /// The current counter value (0 if never touched). For tests and
    /// report assembly.
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner
                .counters
                .read()
                .unwrap()
                .get(name)
                .map_or(0, |c| c.load(Ordering::Relaxed)),
        }
    }

    /// Observation count of a histogram (0 if never touched).
    pub fn histogram_count(&self, name: &str) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner
                .histograms
                .read()
                .unwrap()
                .get(name)
                .map_or(0, |h| h.count.load(Ordering::Relaxed)),
        }
    }

    fn record_span(&self, path: &str, elapsed_us: u64) {
        let Some(inner) = &self.inner else { return };
        if let Some(s) = inner.spans.read().unwrap().get(path) {
            s.count.fetch_add(1, Ordering::Relaxed);
            s.total_us.fetch_add(elapsed_us, Ordering::Relaxed);
            s.max_us.fetch_max(elapsed_us, Ordering::Relaxed);
            return;
        }
        let mut map = inner.spans.write().unwrap();
        let stats = map.entry(path.to_string()).or_default();
        stats.count.fetch_add(1, Ordering::Relaxed);
        stats.total_us.fetch_add(elapsed_us, Ordering::Relaxed);
        stats.max_us.fetch_max(elapsed_us, Ordering::Relaxed);
    }

    fn now_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_us())
    }

    /// Renders every counter, histogram, and span as a stable-ordered
    /// JSON document. Keys are sorted; a deterministic workload on a
    /// [`Recorder::deterministic`] recorder produces byte-identical output
    /// across runs.
    pub fn report_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        match &self.inner {
            None => {
                out.push_str("},\n  \"gauges\": {},\n  \"histograms\": {},\n  \"spans\": {}\n}");
                return out;
            }
            Some(inner) => {
                let counters: BTreeMap<String, u64> = inner
                    .counters
                    .read()
                    .unwrap()
                    .iter()
                    .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                    .collect();
                for (i, (k, v)) in counters.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\n    {}: {v}", json_string(k));
                }
                if !counters.is_empty() {
                    out.push_str("\n  ");
                }
                out.push_str("},\n  \"gauges\": {");

                let gauges: BTreeMap<String, u64> = inner
                    .gauges
                    .read()
                    .unwrap()
                    .iter()
                    .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                    .collect();
                for (i, (k, v)) in gauges.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\n    {}: {v}", json_string(k));
                }
                if !gauges.is_empty() {
                    out.push_str("\n  ");
                }
                out.push_str("},\n  \"histograms\": {");

                let hists = inner.histograms.read().unwrap();
                let mut hist_keys: Vec<&String> = hists.keys().collect();
                hist_keys.sort();
                for (i, k) in hist_keys.iter().enumerate() {
                    let h = &hists[*k];
                    if i > 0 {
                        out.push(',');
                    }
                    let count = h.count.load(Ordering::Relaxed);
                    let min = h.min.load(Ordering::Relaxed);
                    let _ = write!(
                        out,
                        "\n    {}: {{\"count\": {count}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                        json_string(k),
                        h.sum.load(Ordering::Relaxed),
                        if count == 0 { 0 } else { min },
                        h.max.load(Ordering::Relaxed),
                    );
                    let mut first = true;
                    for (b, slot) in h.buckets.iter().enumerate() {
                        let n = slot.load(Ordering::Relaxed);
                        if n == 0 {
                            continue;
                        }
                        if !first {
                            out.push_str(", ");
                        }
                        first = false;
                        let _ = write!(out, "[{}, {n}]", bucket_lo(b));
                    }
                    out.push_str("]}");
                }
                if !hist_keys.is_empty() {
                    out.push_str("\n  ");
                }
                drop(hists);
                out.push_str("},\n  \"spans\": {");

                let spans = inner.spans.read().unwrap();
                let mut span_keys: Vec<&String> = spans.keys().collect();
                span_keys.sort();
                for (i, k) in span_keys.iter().enumerate() {
                    let s = &spans[*k];
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "\n    {}: {{\"count\": {}, \"total_us\": {}, \"max_us\": {}}}",
                        json_string(k),
                        s.count.load(Ordering::Relaxed),
                        s.total_us.load(Ordering::Relaxed),
                        s.max_us.load(Ordering::Relaxed),
                    );
                }
                if !span_keys.is_empty() {
                    out.push_str("\n  ");
                }
                out.push_str("}\n}");
            }
        }
        out
    }
}

/// A JSON string literal for `s` (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A span guard: records `path` with its duration on drop. Paths nest
/// with `/`, so the report groups naturally (`exp.table5/fit`,
/// `exp.table5/campaign`, ...). On a disabled recorder the guard is
/// inert.
#[derive(Debug)]
pub struct Span {
    rec: Recorder,
    path: String,
    start_us: u64,
    closed: bool,
}

impl Span {
    fn open(rec: Recorder, path: String) -> Self {
        let start_us = rec.now_us();
        Self {
            rec,
            path,
            start_us,
            closed: false,
        }
    }

    /// Closes the span now (instead of at drop), recording its duration.
    pub fn close(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if self.closed || !self.rec.enabled() {
            self.closed = true;
            return;
        }
        self.closed = true;
        let elapsed = self.rec.now_us().saturating_sub(self.start_us);
        self.rec.record_span(&self.path, elapsed);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.enabled());
        r.inc("a");
        r.observe("h", 9);
        r.gauge_max("g", 7);
        let s = r.span("root");
        let c = r.span("root/leaf");
        drop(c);
        drop(s);
        assert_eq!(r.counter("a"), 0);
        assert_eq!(r.gauge("g"), 0);
        assert_eq!(
            r.report_json(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {},\n  \"spans\": {}\n}"
        );
    }

    #[test]
    fn gauges_keep_the_maximum() {
        let r = Recorder::deterministic();
        r.gauge_max("peak", 10);
        r.gauge_max("peak", 4);
        let r2 = r.clone();
        r2.gauge_max("peak", 25);
        assert_eq!(r.gauge("peak"), 25);
        assert_eq!(r.gauge("never"), 0);
        let json = r.report_json();
        assert!(
            json.contains("\"gauges\": {\n    \"peak\": 25\n  }"),
            "{json}"
        );
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let r = Recorder::deterministic();
        let r2 = r.clone();
        r.inc("x");
        r2.add("x", 4);
        r2.inc("y");
        assert_eq!(r.counter("x"), 5);
        assert_eq!(r.counter("y"), 1);
        assert_eq!(r.counter("never"), 0);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(64), 1u64 << 63);

        let r = Recorder::deterministic();
        for v in [0, 1, 3, 3, 8] {
            r.observe("h", v);
        }
        assert_eq!(r.histogram_count("h"), 5);
        let json = r.report_json();
        assert!(
            json.contains("\"count\": 5, \"sum\": 15, \"min\": 0, \"max\": 8"),
            "{json}"
        );
        assert!(json.contains("[0, 1], [1, 1], [2, 2], [8, 1]"), "{json}");
    }

    #[test]
    fn spans_nest_and_use_the_manual_clock() {
        let r = Recorder::deterministic();
        {
            let _root = r.span("exp");
            r.advance_sim_ms(3);
            {
                let child = r.span("exp/stage");
                r.advance_sim_ms(2);
                drop(child);
            }
        }
        let json = r.report_json();
        assert!(
            json.contains("\"exp\": {\"count\": 1, \"total_us\": 5000, \"max_us\": 5000}"),
            "{json}"
        );
        assert!(
            json.contains("\"exp/stage\": {\"count\": 1, \"total_us\": 2000, \"max_us\": 2000}"),
            "{json}"
        );
    }

    #[test]
    fn deterministic_reports_are_byte_identical() {
        let run = || {
            let r = Recorder::deterministic();
            // Touch names in two different orders; the report must not care.
            for name in ["b", "a", "c"] {
                r.inc(name);
            }
            for v in [7u64, 0, 1 << 20] {
                r.observe("lat", v);
            }
            let s = r.span("root");
            r.span("root/z").close();
            r.span("root/a").close();
            drop(s);
            r.report_json()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.find("\"a\": 1") < a.find("\"b\": 1"), "sorted keys: {a}");
    }

    #[test]
    fn wall_clock_spans_measure_something() {
        let r = Recorder::wall();
        let s = r.span("sleep");
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(s);
        let json = r.report_json();
        assert!(json.contains("\"sleep\""), "{json}");
        // At least 1ms must have elapsed.
        let total: u64 = json
            .split("\"total_us\": ")
            .nth(1)
            .and_then(|t| t.split(',').next())
            .and_then(|t| t.trim().parse().ok())
            .unwrap();
        assert!(total >= 1_000, "slept 2ms but measured {total}us");
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let r = Recorder::deterministic();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let r = r.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        r.inc("n");
                        r.observe("h", 2);
                    }
                });
            }
        });
        assert_eq!(r.counter("n"), 8_000);
        assert_eq!(r.histogram_count("h"), 8_000);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn manual_clock_saturates() {
        let r = Recorder::deterministic();
        r.advance_sim_ms(u64::MAX / 1_000);
        assert!(r.now_us() < u64::MAX);
        r.advance_sim_ms(1);
        assert_eq!(r.now_us(), u64::MAX);
        r.advance_sim_ms(u64::MAX);
        assert_eq!(r.now_us(), u64::MAX);
    }

    #[test]
    fn wall_clock_ignores_simulated_time() {
        let r = Recorder::wall();
        r.advance_sim_ms(u64::MAX);
        assert!(r.now_us() < u64::MAX);
    }
}

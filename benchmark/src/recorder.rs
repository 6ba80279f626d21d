//! The benchmark's span recorder.
//!
//! The benchmark records one span around each call it makes into a layer
//! of the simulator. A traced sweep also runs under a
//! [`HostProfiler`](sortmid::HostProfiler), whose spans are grafted under
//! the benchmark's span around the call, so the simulator's own phases nest
//! in the same tree. Spans stay in memory until the run ends and are then
//! written out in Chrome-trace format.

use sortmid::HostProfile;
use sortmid_devharness::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call or simulator phase.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Host-thread lane: 0 is the benchmark's thread, higher lanes are the
    /// sweep's worker threads.
    pub thread: u32,
    /// Every span of one call (or one set-up) shares a trace id.
    pub trace_id: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Records nested spans on the benchmark's thread; a disabled recorder
/// records nothing, which is how the untraced windows run.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace_id: u64,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace_id: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        crate::elapsed_ns(self.origin)
    }

    /// Starts a new trace: spans opened from now on carry a fresh id.
    pub fn next_trace(&mut self) -> u64 {
        self.trace_id += 1;
        self.trace_id
    }

    /// The id spans opened now carry.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            thread: 0,
            trace_id: self.trace_id,
            start_ns: self.now_ns(),
            end_ns: u64::MAX,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    /// Adds the spans of a sealed host profile under the innermost open
    /// span. `origin_ns` is this recorder's clock when the profiler was
    /// created; the profiler's thread lanes become this recorder's lanes
    /// (its lane 0 is the calling thread).
    pub fn graft(&mut self, profile: &HostProfile, origin_ns: u64) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len();
        let parent = self.open.last().copied();
        for s in &profile.spans {
            self.spans.push(Span {
                name: s.name,
                parent: s.parent.map(|p| base + p as usize).or(parent),
                thread: s.thread,
                trace_id: self.trace_id,
                start_ns: origin_ns + s.start_ns,
                end_ns: origin_ns + s.end_ns,
            });
        }
    }

    /// Every recorded span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome-trace document (timestamps in microseconds).
    pub fn to_chrome_trace(&self) -> Json {
        let threads = self
            .spans
            .iter()
            .map(|s| s.thread)
            .max()
            .map_or(0, |t| t + 1);
        let names = (0..threads).map(|t| {
            let label = if t == 0 {
                "benchmark".to_string()
            } else {
                format!("sweep worker {t}")
            };
            Json::obj([
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(t as u64)),
                ("args", Json::obj([("name", Json::str(label))])),
            ])
        });
        let events = self.spans.iter().enumerate().map(|(i, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(s.thread as u64)),
                ("ts", Json::F64(s.start_ns as f64 / 1e3)),
                ("dur", Json::F64((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::U64(i as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("trace_id", Json::U64(s.trace_id)),
                    ]),
                ),
            ])
        });
        Json::obj([
            ("traceEvents", Json::arr(names.chain(events))),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// Self time summed by span name over the spans `keep` selects: each
/// span's duration minus the part of it that its children cover. Children
/// on other threads may overlap each other, so coverage is the union of
/// their intervals, not the sum.
pub fn self_times(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if !keep(s) {
            continue;
        }
        let mut cover: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.max(s.start_ns),
                    spans[c].end_ns.min(s.end_ns),
                )
            })
            .filter(|(a, b)| a < b)
            .collect();
        cover.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for (a, b) in cover {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *totals.entry(s.name).or_default() += (s.end_ns - s.start_ns) - covered;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, thread: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            thread,
            trace_id: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", None, 0, 0, 100),
            // Two sequential children on the same thread: 10 + 20 covered.
            span("call", Some(0), 0, 10, 20),
            span("call", Some(0), 0, 30, 50),
            // A worker-thread child overlapping the second call by 10:
            // the union adds 60..80 only.
            span("worker", Some(0), 1, 40, 80),
            // A grandchild counts against its own parent, not the pass.
            span("inner", Some(1), 0, 12, 18),
        ];
        let totals = self_times(&spans, |_| true);
        assert_eq!(totals["pass"], 100 - (10 + 20 + 30));
        assert_eq!(totals["call"], (10 - 6) + 20);
        assert_eq!(totals["worker"], 40);
        assert_eq!(totals["inner"], 6);
        let only_calls = self_times(&spans, |s| s.name == "call");
        assert_eq!(only_calls.len(), 1);
    }

    #[test]
    fn self_time_clamps_children_to_the_parent() {
        let spans = vec![
            span("outer", None, 0, 10, 20),
            span("late", Some(0), 1, 15, 40),
        ];
        assert_eq!(self_times(&spans, |_| true)["outer"], 5);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let v = rec.span("call", |r| r.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_the_trace_id() {
        let mut rec = Recorder::new(true);
        let id = rec.next_trace();
        rec.span("pass", |r| r.span("call", |_| ()));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.trace_id == id && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = rec.to_chrome_trace();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1 + 2, "one thread-name record plus the spans");
    }
}

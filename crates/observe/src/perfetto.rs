//! Chrome-trace-event (Perfetto) export of a recorded run.
//!
//! The JSON this module emits follows the Trace Event Format that
//! `ui.perfetto.dev` and `chrome://tracing` load directly: a top-level
//! `traceEvents` array of `M` (metadata), `X` (complete/duration), `i`
//! (instant) and `C` (counter) events. The mapping:
//!
//! * each simulated **node is a process** (`pid` = node id), named via
//!   `process_name` metadata;
//! * `tid` 0 is the node's **scan engine** (triangle spans, discard
//!   instants), `tid` 1 its **texture bus** (line-fill spans);
//! * the **FIFO depth** is a per-node counter track, stepped at every
//!   push/pop;
//! * one simulated **cycle is rendered as one microsecond** (`ts`/`dur`
//!   are µs in the trace format; cycle counts read directly off the
//!   Perfetto timeline).
//!
//! Given a [`HostProfile`], [`chrome_trace`] also renders its
//! wall-time phase spans as one extra process ([`HOST_PID`], well above
//! any node id) with one thread track per host-thread lane. Host spans
//! keep their **nanosecond** integers verbatim in `ts`/`dur` (so 1 ns
//! renders as 1 µs and wall nanoseconds read directly off the timeline);
//! host and simulated tracks are different time domains that merely
//! coexist in one document.

use crate::artifact::{Artifact, Omit};
use crate::host::HostProfile;
use crate::provenance::Provenance;
use crate::record;
use crate::sink::TraceRecorder;
use crate::TraceEvent;
use sortmid_devharness::json::Json;

/// The `pid` of the synthetic "host" process in a combined trace — far
/// above any simulated node id (the paper's grids top out at 64 nodes).
pub const HOST_PID: u32 = 1000;

record! {
    /// One trace event. Its phase `ph` says which members it carries: `M`
    /// (metadata naming process `pid`, or its thread `tid`, after
    /// `args.name`), `X` (a span of `dur` from `ts` on thread `tid`), `i`
    /// (a thread-scoped instant at `ts`) or `C` (a counter sample at
    /// `ts`, the values in `args`).
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ChromeEvent {
        pub name: String,
        pub cat: Omit<String>,
        pub ph: String,
        pub ts: Omit<u64>,
        pub dur: Omit<u64>,
        pub pid: u64,
        pub tid: Omit<u64>,
        pub args: Omit<Json>,
        pub s: Omit<String>,
    }
    check |e: &ChromeEvent| {
        let need = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{} event without {what}", e.ph))
            }
        };
        match e.ph.as_str() {
            "M" => Ok(()),
            "X" => need(e.ts.0.is_some() && e.dur.0.is_some(), "integer 'ts' and 'dur'"),
            "i" => need(e.ts.0.is_some(), "integer 'ts'"),
            "C" => need(matches!(e.args.0, Some(Json::Obj(_))), "an 'args' object"),
            other => Err(format!("unexpected phase '{other}'")),
        }
    };
}

impl ChromeEvent {
    /// `M` metadata: `name` (`process_name` or `thread_name`) of process
    /// `pid`, or of its thread `tid`, is `label`.
    fn meta(name: &str, pid: u32, tid: Option<u32>, label: &str) -> ChromeEvent {
        ChromeEvent {
            name: name.to_string(),
            ph: "M".to_string(),
            pid: pid.into(),
            tid: Omit(tid.map(u64::from)),
            args: Omit(Some(Json::obj([("name", Json::str(label))]))),
            ..ChromeEvent::default()
        }
    }

    /// An `X` span of `dur` from `ts` on thread `tid` of `pid`, with one
    /// integer argument.
    fn span(
        name: String,
        cat: &str,
        (pid, tid): (u32, u32),
        (ts, dur): (u64, u64),
        arg: (&str, u64),
    ) -> ChromeEvent {
        ChromeEvent {
            name,
            cat: Omit(Some(cat.to_string())),
            ph: "X".to_string(),
            ts: Omit(Some(ts)),
            dur: Omit(Some(dur)),
            pid: pid.into(),
            tid: Omit(Some(tid.into())),
            args: Omit(Some(Json::obj([(arg.0, Json::U64(arg.1))]))),
            ..ChromeEvent::default()
        }
    }
}

record! {
    /// A `TRACE_<preset>.json` document: the Chrome trace events, the
    /// unit the viewer displays, and the run's provenance.
    /// The fields carry the format's camel-case keys.
    #[derive(Debug, Clone, PartialEq)]
    #[allow(non_snake_case)]
    pub struct ChromeTrace {
        pub traceEvents: Vec<ChromeEvent>,
        pub displayTimeUnit: String,
        pub provenance: Provenance,
    }
}

impl Artifact for ChromeTrace {
    /// The event list is non-empty and names at least one track (`M`).
    fn verify(&self) -> Vec<String> {
        if self.traceEvents.is_empty() {
            vec!["'traceEvents' is empty".to_string()]
        } else if !self.traceEvents.iter().any(|e| e.ph == "M") {
            vec!["no metadata (M) events naming tracks".to_string()]
        } else {
            Vec::new()
        }
    }
}

/// Exports a recorded run as a Chrome-trace-event document stamped with
/// `provenance`: the simulated node tracks and, given a sealed `host`
/// profile, one thread track per host-thread lane under process
/// [`HOST_PID`] carrying the profile's phase spans (`ts`/`dur` are the
/// span's wall nanoseconds, verbatim — see the module docs).
///
/// `node_labels[i]` names node `i`'s process track (e.g. its cache model);
/// nodes beyond the slice fall back to `node <i>`.
///
/// # Examples
///
/// ```
/// use sortmid_observe::{chrome_trace, HostProfiler, HostSink, Provenance, TraceEvent,
///                       TraceRecorder, TraceSink, HOST_PID};
///
/// let mut rec = TraceRecorder::new();
/// rec.record(TraceEvent::TriStart { node: 0, tri: 0, at: 0, frags: 2 });
/// rec.record(TraceEvent::TriRetire { node: 0, tri: 0, at: 25 });
/// let prof = HostProfiler::new();
/// { let _s = prof.span("plan-build"); }
/// let doc = chrome_trace(&rec, &[], Some(&prof.finish()), Provenance::collect(0, 0));
/// let spans = |pid| doc.traceEvents.iter().filter(move |e| e.ph == "X" && e.pid == pid);
/// assert_eq!((spans(0).count(), spans(HOST_PID as u64).count()), (1, 1));
/// ```
pub fn chrome_trace(
    rec: &TraceRecorder,
    node_labels: &[String],
    host: Option<&HostProfile>,
    provenance: Provenance,
) -> ChromeTrace {
    let mut events: Vec<ChromeEvent> = Vec::new();
    let nodes = rec.node_count();

    for node in 0..nodes {
        let label = node_labels
            .get(node as usize)
            .cloned()
            .unwrap_or_else(|| format!("node {node}"));
        events.push(ChromeEvent::meta("process_name", node, None, &label));
        events.push(ChromeEvent::meta("thread_name", node, Some(0), "engine"));
        events.push(ChromeEvent::meta("thread_name", node, Some(1), "texture-bus"));
    }

    // Engine and bus spans, plus discard instants, straight from events.
    for e in rec.events() {
        match *e {
            TraceEvent::BusFill { node, line, at, cost } => {
                let (name, arg) = (format!("fill L{line}"), ("line", line.into()));
                events.push(ChromeEvent::span(name, "bus", (node, 1), (at, cost), arg));
            }
            TraceEvent::TriDiscard { node, tri, at } => events.push(ChromeEvent {
                name: format!("discard tri {tri}"),
                cat: Omit(Some("discard".to_string())),
                ph: "i".to_string(),
                ts: Omit(Some(at)),
                pid: node.into(),
                tid: Omit(Some(0)),
                s: Omit(Some("t".to_string())),
                ..ChromeEvent::default()
            }),
            _ => {}
        }
    }

    // Triangle spans need start/retire pairing per node.
    for node in 0..nodes {
        for (start, end, tri) in rec.triangle_spans(node) {
            let (name, arg) = (format!("tri {tri}"), ("tri", tri.into()));
            events.push(ChromeEvent::span(name, "triangle", (node, 0), (start, end - start), arg));
        }

        // FIFO depth as a counter track, one sample per change.
        let mut depth: i64 = 0;
        let mut last_at: Option<u64> = None;
        for (at, step) in rec.fifo_steps(node) {
            depth += step;
            let args = Omit(Some(Json::obj([("triangles", Json::U64(depth.max(0) as u64))])));
            // Coalesce simultaneous steps into the final value at `at`.
            if last_at == Some(at) {
                if let Some(last) = events.last_mut().filter(|e| e.ph == "C") {
                    last.args = args;
                    continue;
                }
            }
            last_at = Some(at);
            events.push(ChromeEvent {
                name: "fifo-depth".to_string(),
                ph: "C".to_string(),
                ts: Omit(Some(at)),
                pid: node.into(),
                args,
                ..ChromeEvent::default()
            });
        }
    }

    if let Some(host) = host {
        events.push(ChromeEvent::meta("process_name", HOST_PID, None, "host"));
        let lanes = host.spans.iter().map(|s| s.thread).max().map_or(0, |max| max + 1);
        for lane in 0..lanes {
            let label = if lane == 0 {
                "host-main".to_string()
            } else {
                format!("host-worker {lane}")
            };
            events.push(ChromeEvent::meta("thread_name", HOST_PID, Some(lane), &label));
        }
        for span in &host.spans {
            let (at, arg) = ((span.start_ns, span.dur_ns()), ("depth", span.depth.into()));
            let name = span.name.to_string();
            events.push(ChromeEvent::span(name, "host", (HOST_PID, span.thread), at, arg));
        }
    }

    ChromeTrace { traceEvents: events, displayTimeUnit: "ms".to_string(), provenance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Schema;
    use crate::TraceSink;

    fn sample_recorder() -> TraceRecorder {
        let mut rec = TraceRecorder::new();
        rec.record(TraceEvent::FifoPush { node: 0, at: 0 });
        rec.record(TraceEvent::FifoPop { node: 0, at: 5 });
        rec.record(TraceEvent::TriStart { node: 0, tri: 3, at: 5, frags: 2 });
        rec.record(TraceEvent::BusFill { node: 0, line: 9, at: 6, cost: 16 });
        rec.record(TraceEvent::TriRetire { node: 0, tri: 3, at: 30 });
        rec.record(TraceEvent::TriDiscard { node: 1, tri: 3, at: 5 });
        rec
    }

    fn trace(host: Option<&HostProfile>) -> ChromeTrace {
        chrome_trace(&sample_recorder(), &["16KB".to_string()], host, Provenance::collect(1, 2))
    }

    /// Decodes the rendered document and demands the same bytes back.
    fn round_trip(doc: &ChromeTrace) -> ChromeTrace {
        let text = doc.to_json().render();
        let back = ChromeTrace::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().render(), text);
        assert!(back.verify().is_empty(), "{:?}", back.verify());
        back
    }

    /// Every `X` span in category `cat`.
    fn spans<'a>(doc: &'a ChromeTrace, cat: &'a str) -> impl Iterator<Item = &'a ChromeEvent> {
        doc.traceEvents.iter().filter(move |e| e.ph == "X" && e.cat.0.as_deref() == Some(cat))
    }

    #[test]
    fn document_round_trips_through_its_owner() {
        assert_eq!(round_trip(&trace(None)), trace(None));
    }

    #[test]
    fn has_metadata_spans_counters_and_instants() {
        let doc = trace(None);
        let phase = |ph: &str| doc.traceEvents.iter().filter(|e| e.ph == ph).count();
        assert_eq!(phase("M"), 6, "2 nodes x (process + 2 thread names)");
        assert_eq!(phase("X"), 2, "one triangle span + one bus fill");
        assert_eq!(phase("C"), 2, "fifo push + pop samples");
        assert_eq!(phase("i"), 1, "one discard instant");
    }

    #[test]
    fn decoding_rejects_what_the_viewer_cannot_load() {
        let decode = |text: &str| ChromeEvent::from_json(&Json::parse(text).unwrap());
        let err = |text: &str| decode(text).unwrap_err();
        assert_eq!(err(r#"{"name":"a","ph":"B","pid":0}"#), "unexpected phase 'B'");
        let x = err(r#"{"name":"a","ph":"X","pid":0,"cat":"c","dur":1}"#);
        assert_eq!(x, "X event without integer 'ts' and 'dur'");
        let c = err(r#"{"name":"a","ph":"C","pid":0,"ts":1}"#);
        assert_eq!(c, "C event without an 'args' object");
        assert_eq!(err(r#"{"name":"a","ph":"i","pid":0}"#), "i event without integer 'ts'");
        assert_eq!(err(r#"{"name":"a","ph":"M"}"#), "missing 'pid'");
        assert_eq!(err(r#"{"ph":"M","pid":0}"#), "missing 'name'");
        let text = r#"{"name":"a","ph":"M","pid":0,"args":{"name":"n"}}"#;
        assert_eq!(decode(text).unwrap().to_json().render(), text);

        let mut doc = trace(None);
        doc.traceEvents.retain(|e| e.ph != "M");
        assert_eq!(doc.verify(), ["no metadata (M) events naming tracks"]);
        doc.traceEvents.clear();
        assert_eq!(doc.verify(), ["'traceEvents' is empty"]);
    }

    #[test]
    fn host_tracks_coexist_with_simulated_tracks() {
        use crate::host::{HostProfiler, HostSink};

        let prof = HostProfiler::new();
        {
            let _outer = prof.span("run-sweep");
            let _inner = prof.span("plan-build");
        }
        let profile = prof.finish();
        let doc = round_trip(&trace(Some(&profile)));
        let host_spans: Vec<_> = spans(&doc, "host").collect();
        assert_eq!(host_spans.len(), 2);
        assert!(host_spans.iter().all(|e| e.pid == HOST_PID as u64));
        // Simulated tracks are untouched: same events as plain chrome_trace.
        let plain = trace(None).traceEvents;
        assert_eq!(doc.traceEvents[..plain.len()], plain[..]);
        // host additions: 1 process meta + 1 thread meta + 2 spans
        assert_eq!(doc.traceEvents.len(), plain.len() + 4);
        // Nanosecond integers survive verbatim.
        let rec = profile.spans.iter().find(|s| s.name == "plan-build").unwrap();
        let inner = host_spans.iter().find(|e| e.name == "plan-build").unwrap();
        assert_eq!((inner.ts.0, inner.dur.0), (Some(rec.start_ns), Some(rec.dur_ns())));
    }

    #[test]
    fn triangle_span_duration_matches_retire() {
        let doc = trace(None);
        let tri = spans(&doc, "triangle").next().unwrap();
        assert_eq!((tri.ts.0, tri.dur.0), (Some(5), Some(25)));
    }
}

//! Integration tests of the tracing subsystem: tracing must observe the
//! simulation without perturbing it, and the exported artefacts must be
//! internally consistent with the run report.

use sortmid::reference::run_reference;
use sortmid::{
    CacheKind, Distribution, Machine, MachineConfig, NullSink, SpatialCollector, TraceRecorder,
    TraceSink,
};
use sortmid_observe::{chrome_trace, Artifact, ChromeTrace, Provenance, Schema, TimeSeries};
use sortmid_raster::FragmentStream;
use sortmid_scene::{Benchmark, SceneBuilder};

fn stream() -> FragmentStream {
    SceneBuilder::benchmark(Benchmark::Quake)
        .scale(0.08)
        .build()
        .rasterize()
}

fn config(procs: u32, buffer: usize) -> MachineConfig {
    MachineConfig::builder()
        .processors(procs)
        .distribution(Distribution::block(16))
        .cache(CacheKind::PaperL1)
        .bus_ratio(1.0)
        .triangle_buffer(buffer)
        .build()
        .expect("valid config")
}

/// Tracing is a pure observer: the traced report equals the untraced one,
/// and both equal the reference oracle's.
#[test]
fn tracing_does_not_perturb_the_run() {
    let s = stream();
    let machine = Machine::new(config(8, 100));
    let untraced = machine.run(&s);
    let mut rec = TraceRecorder::new();
    let traced = machine.run_traced(&s, &mut rec);
    assert_eq!(untraced, traced);
    assert!(!rec.is_empty());

    assert_eq!(untraced, run_reference(machine.config(), &s, &mut NullSink));
}

/// Event counts cross-check the report's counters: one start per routed
/// triangle, one discard per discarded one, a push and a pop per FIFO
/// slot, and one bus fill per L1 miss.
#[test]
fn event_counts_match_the_report() {
    let s = stream();
    let live = s.triangles().iter().filter(|t| !t.is_culled()).count() as u64;
    let machine = Machine::new(config(8, 100));
    let mut rec = TraceRecorder::new();
    let report = machine.run_traced(&s, &mut rec);

    let (starts, retires, discards, pushes, pops, fills) = rec.counts();
    let routed: u64 = report.nodes().iter().map(|n| n.triangles).sum();
    let discarded: u64 = report.nodes().iter().map(|n| n.discarded).sum();
    assert_eq!(starts, routed);
    assert_eq!(retires, routed, "every started triangle retires");
    assert_eq!(discards, discarded);
    assert_eq!(pushes, live * 8, "every broadcast occupies every FIFO");
    assert_eq!(pops, pushes, "every slot is eventually drained");
    assert_eq!(fills, report.cache_totals().misses(), "one fill per L1 miss");

    // The trace horizon is bounded by the machine's finish (the engine may
    // outlive the last fill, never the other way round).
    assert!(rec.horizon() <= report.total_cycles());
}

/// The Perfetto export round-trips through the JSON parser and contains
/// the tracks the machine promises: per-node process metadata, triangle
/// and bus spans, FIFO-depth counters.
#[test]
fn perfetto_export_is_structurally_sound() {
    use sortmid_devharness::Json;

    let s = stream();
    let machine = Machine::new(config(4, 100));
    let mut rec = TraceRecorder::new();
    let report = machine.run_traced(&s, &mut rec);

    let labels = machine.node_labels();
    assert_eq!(labels.len(), 4);
    assert!(labels[0].contains("set-assoc"), "{labels:?}");

    let doc = chrome_trace(&rec, &labels, None, Provenance::collect(0, 0));
    let parsed = Json::parse(&doc.to_json().render()).expect("export must be valid JSON");
    let owned = ChromeTrace::from_json(&parsed).expect("export decodes through its owner");
    assert!(owned == doc && owned.verify().is_empty(), "{:?}", owned.verify());
    let events = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");

    let count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .count() as u64
    };
    assert_eq!(count("M"), 3 * 4, "process + 2 thread names per node");
    let routed: u64 = report.nodes().iter().map(|n| n.triangles).sum();
    let fills = report.cache_totals().misses();
    assert_eq!(count("X"), routed + fills, "triangle spans + bus-fill spans");
    assert!(count("C") > 0, "FIFO depth counter samples");

    // Every span stays within the machine's lifetime.
    for e in events {
        if e.get("ph").and_then(Json::as_str) == Some("X") {
            let ts = e.get("ts").and_then(Json::as_u64).expect("ts");
            let dur = e.get("dur").and_then(Json::as_u64).expect("dur");
            assert!(ts + dur <= report.total_cycles());
        }
    }
}

/// The sampled series agree with the report: integrated bus utilization
/// matches bus-busy cycles, and a tiny FIFO shows deeper starvation than
/// an ideal one.
#[test]
fn series_and_starvation_agree_with_reports() {
    let s = stream();

    let machine = Machine::new(config(8, 100));
    let mut rec = TraceRecorder::new();
    let report = machine.run_traced(&s, &mut rec);
    let horizon = report.total_cycles();
    for (i, node) in report.nodes().iter().enumerate() {
        let util = TimeSeries::utilization(&rec.bus_spans(i as u32), 1.max(horizon / 50), horizon);
        let integrated: f64 = util.bins().iter().sum::<f64>() * util.cadence() as f64;
        let expected = node.bus_busy_cycles as f64;
        assert!(
            (integrated - expected).abs() < 1e-6 * expected.max(1.0),
            "node {i}: integrated {integrated} vs busy {expected}"
        );
    }

    let starved = |buffer: usize| {
        Machine::new(config(8, buffer))
            .run(&s)
            .total_starved()
    };
    assert!(
        starved(1) > starved(10_000),
        "head-of-line blocking must show up as starvation"
    );
}

/// A custom sink sees the same stream `TraceRecorder` stores.
#[test]
fn custom_sinks_plug_in() {
    struct CountingSink(u64);
    impl TraceSink for CountingSink {
        fn record(&mut self, _event: sortmid::TraceEvent) {
            self.0 += 1;
        }
    }

    let s = stream();
    let machine = Machine::new(config(4, 100));
    let mut counter = CountingSink(0);
    machine.run_traced(&s, &mut counter);
    let mut rec = TraceRecorder::new();
    machine.run_traced(&s, &mut rec);
    assert_eq!(counter.0, rec.len() as u64);
    assert!(counter.0 > 0);
}

/// The spatial collector is a pure observer too, and the reference oracle
/// produces exactly the same spatial attribution as the engine: identical
/// tile stats, per-node fragment/setup totals and miss classes.
#[test]
fn spatial_collection_agrees_between_engine_and_reference() {
    let s = stream();
    let machine = Machine::new(config(8, 100));
    let untraced = machine.run(&s);
    let screen = s.screen();
    let collector =
        || SpatialCollector::new(screen.width(), screen.height(), 16, 8);

    let mut direct = collector();
    assert_eq!(untraced, machine.run_traced(&s, &mut direct));

    let mut replay = collector();
    assert_eq!(untraced, run_reference(machine.config(), &s, &mut replay));

    assert_eq!(direct.grid().cells(), replay.grid().cells());
    assert_eq!(direct.node_fragments(), replay.node_fragments());
    assert_eq!(direct.node_lines(), replay.node_lines());
    assert_eq!(direct.node_setup(), replay.node_setup());
    assert_eq!(direct.node_misses(), replay.node_misses());
    assert!(direct.fragment_total() > 0, "the scene draws fragments");
}

/// The heatmap JSON artefact round-trips through the devharness parser
/// with its conservation and three-C identities intact.
#[test]
fn heatmap_json_roundtrips_through_the_devharness_parser() {
    use sortmid_devharness::json::Json;

    let s = stream();
    let machine = Machine::new(
        MachineConfig::builder()
            .processors(8)
            .distribution(Distribution::block(16))
            .cache(CacheKind::Classifying(
                sortmid_cache::CacheGeometry::paper_l1(),
            ))
            .bus_ratio(1.0)
            .build()
            .expect("valid config"),
    );
    let screen = s.screen();
    let mut col = SpatialCollector::new(screen.width(), screen.height(), 32, 8);
    let report = machine.run_traced(&s, &mut col);

    use sortmid_observe::{Provenance, Schema};
    let provenance = Provenance::collect(0, 0);
    let text = col.document("roundtrip", report.summary(), provenance).to_json().render();
    let doc = Json::parse(&text).expect("rendered JSON must parse back");

    assert_eq!(
        doc.get("preset").and_then(Json::as_str),
        Some("roundtrip")
    );
    assert_eq!(
        doc.get("config").and_then(Json::as_str),
        Some(report.summary())
    );
    assert_eq!(
        doc.get("fragments").and_then(Json::as_u64),
        Some(report.fragments())
    );
    let rows = doc.get("rows").and_then(Json::as_u64).unwrap();
    let cols = doc.get("cols").and_then(Json::as_u64).unwrap();
    let planes = doc.get("tiles").unwrap();
    let mut tile_sum = 0;
    let fragment_rows = planes.get("fragments").and_then(Json::as_arr).unwrap();
    assert_eq!(fragment_rows.len() as u64, rows);
    for row in fragment_rows {
        let cells = row.as_arr().unwrap();
        assert_eq!(cells.len() as u64, cols);
        tile_sum += cells.iter().filter_map(Json::as_u64).sum::<u64>();
    }
    assert_eq!(tile_sum, report.fragments());
    for node in doc.get("nodes").and_then(Json::as_arr).unwrap() {
        let get = |k: &str| node.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(
            get("compulsory") + get("capacity") + get("conflict"),
            get("misses"),
            "three-C identity must survive the round trip"
        );
    }
}

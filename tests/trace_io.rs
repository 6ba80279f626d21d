//! Capture/replay round trips through the on-disk trace formats, and the
//! Perfetto export combining simulated-cycle tracks with host wall-time
//! tracks.

use sortmid::{CacheKind, Distribution, Machine, MachineConfig};
use sortmid_devharness::Json;
use sortmid_observe::{
    chrome_trace, HostProfiler, HostSink, Provenance, Schema, TraceRecorder, HOST_PID,
};
use sortmid_raster::{read_stream, write_stream};
use sortmid_scene::{read_scene, write_scene, Benchmark, SceneBuilder};

#[test]
fn scene_file_round_trip_replays_identically() {
    let scene = SceneBuilder::benchmark(Benchmark::Massive11255).scale(0.08).build();
    let dir = std::env::temp_dir().join("sortmid_trace_io_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scene.smsc");

    let file = std::fs::File::create(&path).unwrap();
    write_scene(std::io::BufWriter::new(file), &scene).unwrap();
    let back = read_scene(std::io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();

    let config = MachineConfig::builder()
        .processors(8)
        .distribution(Distribution::block(16))
        .cache(CacheKind::PaperL1)
        .build()
        .unwrap();
    let a = Machine::new(config.clone()).run(&scene.rasterize());
    let b = Machine::new(config).run(&back.rasterize());
    assert_eq!(a.total_cycles(), b.total_cycles());
    assert_eq!(a.cache_totals().misses(), b.cache_totals().misses());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_file_round_trip_replays_identically() {
    let stream = SceneBuilder::benchmark(Benchmark::Quake)
        .scale(0.08)
        .build()
        .rasterize();
    let mut buf = Vec::new();
    write_stream(&mut buf, &stream).unwrap();
    let back = read_stream(buf.as_slice()).unwrap();

    let config = MachineConfig::builder()
        .processors(16)
        .distribution(Distribution::sli(4))
        .cache(CacheKind::PaperL1)
        .triangle_buffer(50)
        .build()
        .unwrap();
    let a = Machine::new(config.clone()).run(&stream);
    let b = Machine::new(config).run(&back);
    assert_eq!(a.total_cycles(), b.total_cycles());
    assert_eq!(a.texel_to_fragment(), b.texel_to_fragment());
}

#[test]
fn stream_files_are_compact() {
    // 40-byte fragments plus small fixed overhead: the format should not
    // balloon beyond ~44 bytes per fragment.
    let stream = SceneBuilder::benchmark(Benchmark::Blowout775)
        .scale(0.08)
        .build()
        .rasterize();
    let mut buf = Vec::new();
    write_stream(&mut buf, &stream).unwrap();
    let per_fragment = buf.len() as f64 / stream.fragment_count() as f64;
    assert!(per_fragment < 44.0, "{per_fragment:.1} bytes/fragment");
}

#[test]
fn chrome_trace_host_tracks_round_trip_and_stay_well_formed() {
    // Build the document the `trace` bench writes: a traced simulated run
    // plus a host profile with nested spans across two host threads.
    let prof = HostProfiler::new();
    let (rec, labels) = {
        let _root = prof.span("trace-preset");
        let stream = {
            let _s = prof.span("rasterize");
            SceneBuilder::benchmark(Benchmark::Quake).scale(0.08).build().rasterize()
        };
        let config = MachineConfig::builder()
            .processors(4)
            .distribution(Distribution::block(16))
            .cache(CacheKind::PaperL1)
            .build()
            .unwrap();
        let machine = Machine::new(config);
        let mut rec = TraceRecorder::new();
        {
            let _s = prof.span("run-traced");
            machine.run_traced(&stream, &mut rec);
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _w = prof.span("worker-run");
                let _inner = prof.span("pivot-plan");
            });
        });
        (rec, machine.node_labels())
    };
    let profile = prof.finish();
    profile.verify().unwrap();

    let text = chrome_trace(&rec, &labels, Some(&profile), Provenance::collect(0, 0))
        .to_json()
        .render();
    let doc = Json::parse(&text).expect("export is valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");

    // Partition complete ("X") events into host and simulated tracks.
    let mut host: Vec<(u64, u64, u64)> = Vec::new(); // (tid, ts, dur)
    let mut simulated = 0usize;
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let pid = ev.get("pid").and_then(Json::as_u64).unwrap();
        if pid == u64::from(HOST_PID) {
            assert_eq!(ev.get("cat").and_then(Json::as_str), Some("host"));
            host.push((
                ev.get("tid").and_then(Json::as_u64).unwrap(),
                ev.get("ts").and_then(Json::as_u64).unwrap(),
                ev.get("dur").and_then(Json::as_u64).unwrap(),
            ));
        } else {
            simulated += 1;
        }
    }
    // Both worlds coexist in one document.
    assert_eq!(host.len(), profile.spans.len());
    assert!(host.len() >= 5, "expected the five named spans, got {}", host.len());
    assert!(simulated > 0, "simulated-cycle tracks must survive the merge");

    // Host timestamps are nanosecond integers carried verbatim, so the
    // profile's invariants must survive the JSON round trip exactly:
    // within a thread any two spans either nest or are disjoint.
    assert!(host.iter().any(|&(tid, ..)| tid != host[0].0), "two host threads");
    for (i, &(tid_a, ts_a, dur_a)) in host.iter().enumerate() {
        for &(tid_b, ts_b, dur_b) in &host[i + 1..] {
            if tid_a != tid_b {
                continue;
            }
            let (ea, eb) = (ts_a + dur_a, ts_b + dur_b);
            let disjoint = ea <= ts_b || eb <= ts_a;
            let nested = (ts_a <= ts_b && eb <= ea) || (ts_b <= ts_a && ea <= eb);
            assert!(
                disjoint || nested,
                "host spans partially overlap on tid {tid_a}: \
                 [{ts_a}, {ea}) vs [{ts_b}, {eb})"
            );
        }
    }

    // The host process and its threads are named for the Perfetto UI.
    let metas: Vec<&Json> = events
        .iter()
        .filter(|ev| {
            ev.get("pid").and_then(Json::as_u64) == Some(u64::from(HOST_PID))
                && ev.get("ph").and_then(Json::as_str) == Some("M")
        })
        .collect();
    assert!(metas
        .iter()
        .any(|ev| ev.get("name").and_then(Json::as_str) == Some("process_name")));
    assert!(metas
        .iter()
        .filter(|ev| ev.get("name").and_then(Json::as_str) == Some("thread_name"))
        .count() >= 2);
}

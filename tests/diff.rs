//! Differential observability: on artefacts produced by *real* runs,
//! `diff(run, run)` must be exactly zero at every level the diff engine
//! reports — per-config cycles, five-way breakdown categories, tile
//! planes, owner assignments, miss classes, host phases — and a
//! synthetic regression injected into one artefact must be attributed
//! to the precise config, breakdown category, miss class or phase it
//! was planted in. The injection test is a devharness property: the
//! config, category and magnitude are all randomized.

use sortmid::{
    grid_hash, run_sweep, run_sweep_profiled, CacheKind, Distribution, HostProfile, Machine,
    MachineConfig, RunReport, SpatialCollector, SweepGrid, SweepOptions,
};
use sortmid_cache::CacheGeometry;
use sortmid_devharness::json::Json;
use sortmid_devharness::prop::{check, Config, Gen};
use sortmid_observe::breakdown::CATEGORY_NAMES;
use sortmid_observe::{
    Artifact, HeatmapDiff, HeatmapDoc, MetricsDiff, MetricsDoc, Provenance, Schema,
    SweepBreakdowns, SweepDiff,
};
use sortmid_raster::FragmentStream;
use sortmid_scene::{Benchmark, SceneBuilder};

fn stream() -> FragmentStream {
    SceneBuilder::benchmark(Benchmark::Quake)
        .scale(0.1)
        .build()
        .rasterize()
}

/// A small reference grid: two processor counts crossed with the paper's
/// balance-vs-locality distribution pair.
fn small_grid() -> Vec<MachineConfig> {
    SweepGrid::new()
        .processors([2, 4])
        .distributions([Distribution::block(16), Distribution::sli(2)])
        .caches([CacheKind::PaperL1])
        .buffers([8])
        .build()
}

/// The provenance every bench emitter stamps: the scene seed plus the
/// FNV hash of the config grid.
fn provenance(configs: &[MachineConfig]) -> Provenance {
    Provenance::collect(
        SceneBuilder::benchmark(Benchmark::Quake).config().seed,
        grid_hash(configs),
    )
}

/// Builds the `BENCH_sweep.json` shape the sweep bin emits: per config
/// the summary string, the machine time, and per node the
/// `[setup, busy, bus_stall, starved, idle, finish]` row.
fn sweep_doc(reports: &[RunReport], prov: &Provenance) -> Json {
    let mut doc = Json::obj([(
        "cycle_breakdowns",
        Json::arr(reports.iter().map(|r| {
            Json::obj([
                ("config", Json::str(r.summary())),
                ("total_cycles", Json::U64(r.total_cycles())),
                (
                    "nodes",
                    Json::arr(r.nodes().iter().map(|n| {
                        let b = n.cycle_breakdown();
                        b.verify(n.finish).expect("cycle identity must hold");
                        let mut row: Vec<Json> =
                            b.as_array().iter().map(|&c| Json::U64(c)).collect();
                        row.push(Json::U64(n.finish));
                        Json::Arr(row)
                    })),
                ),
            ])
        })),
    )]);
    doc.set("provenance", prov.to_json());
    doc
}

/// Decodes an artefact document with its owner type.
fn decode<A: Artifact>(doc: &Json) -> A {
    A::from_json(doc).expect("artefact decodes")
}

/// Mutable access to an object member (panics if absent — these tests
/// mutate documents they just built).
fn field<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(pairs) = doc else { panic!("not an object") };
    &mut pairs
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing key '{key}'"))
        .1
}

fn elems(doc: &mut Json) -> &mut Vec<Json> {
    let Json::Arr(items) = doc else { panic!("not an array") };
    items
}

fn bump(value: &mut Json, by: u64) {
    let Json::U64(n) = value else { panic!("not a u64") };
    *n += by;
}

/// Adds `extra` cycles of breakdown category `cat` to every node of
/// config `idx`, keeping both identities intact (each row's first five
/// entries still sum to its finish; the machine time still equals the
/// slowest node's finish).
fn inject_sweep(doc: &mut Json, idx: usize, cat: usize, extra: u64) -> String {
    let entry = &mut elems(field(doc, "cycle_breakdowns"))[idx];
    bump(field(entry, "total_cycles"), extra);
    for row in elems(field(entry, "nodes")) {
        let row = elems(row);
        bump(&mut row[cat], extra);
        bump(&mut row[5], extra);
    }
    let Json::Str(name) = field(entry, "config") else { panic!("config not a string") };
    name.clone()
}

#[test]
fn self_diff_of_a_real_sweep_is_exactly_zero() {
    let configs = small_grid();
    let reports = run_sweep(&stream(), &configs);
    let doc = sweep_doc(&reports, &provenance(&configs));

    let d = SweepDiff::between(&decode::<SweepBreakdowns>(&doc), &decode(&doc))
        .expect("same run must be comparable");
    assert!(d.is_zero(), "diff(run, run) must be zero");
    assert_eq!(d.configs.len(), configs.len());
    assert!(d.only_base.is_empty() && d.only_current.is_empty());
    for c in &d.configs {
        assert_eq!(c.delta(), 0, "{}: machine-cycle delta must be zero", c.config);
        assert!(c.breakdown.is_zero(), "{}: every category delta must be zero", c.config);
    }
    assert!(d.ranked().is_empty(), "no config may rank as changed");
    let text = d.explanation(10).join("\n");
    assert!(
        text.contains("no differences"),
        "self-diff explanation should say so: {text}"
    );
}

#[test]
fn injected_regression_is_attributed_to_config_and_category() {
    let configs = small_grid();
    let reports = run_sweep(&stream(), &configs);
    let base = sweep_doc(&reports, &provenance(&configs));

    check(
        "injected sweep regression is attributed",
        &Config::with_cases(48),
        |g: &mut Gen| {
            let idx = g.choice(reports.len());
            let cat = g.choice(CATEGORY_NAMES.len());
            let extra = g.u64_below(100_000) + 1;
            (idx, cat, extra)
        },
        |&(idx, cat, extra)| {
            let mut cur = base.clone();
            let name = inject_sweep(&mut cur, idx, cat, extra);
            let nodes = reports[idx].nodes().len() as i64;

            let d = SweepDiff::between(&decode::<SweepBreakdowns>(&base), &decode(&cur))
                .map_err(|e| e.to_string())?;
            if d.is_zero() {
                return Err("injection must produce a nonzero diff".into());
            }
            let ranked = d.ranked();
            let top = ranked.first().ok_or("no ranked configs")?;
            if top.config != name {
                return Err(format!("top-ranked '{}', injected '{name}'", top.config));
            }
            if top.delta() != extra as i64 {
                return Err(format!("machine delta {} != injected {extra}", top.delta()));
            }
            match top.breakdown.dominant() {
                Some((dom, total)) if dom == CATEGORY_NAMES[cat] && total == extra as i64 * nodes => {
                    Ok(())
                }
                other => Err(format!(
                    "dominant {other:?}, expected ({}, {})",
                    CATEGORY_NAMES[cat],
                    extra as i64 * nodes
                )),
            }
        },
    );
}

#[test]
fn diffs_refuse_incomparable_runs() {
    let configs = small_grid();
    let reports = run_sweep(&stream(), &configs);
    let prov = provenance(&configs);
    let base = sweep_doc(&reports, &prov);

    // Same reports, different grid hash: a run over a different config
    // grid must not be attributed against this one.
    let other = Provenance::collect(prov.seed, prov.grid_hash ^ 1);
    let cur = sweep_doc(&reports, &other);
    let err = SweepDiff::between(&decode::<SweepBreakdowns>(&base), &decode(&cur))
        .expect_err("must refuse");
    assert!(err.contains("grid"), "error should name the grid: {err}");
}

/// The heatmap preset the CI smoke lane uses: 4 processors so the owner
/// plane is nontrivial, classifying cache so the three-C planes fill.
fn heatmap_doc() -> Json {
    let config = MachineConfig::builder()
        .processors(4)
        .distribution(Distribution::block(16))
        .cache(CacheKind::Classifying(CacheGeometry::paper_l1()))
        .build()
        .expect("valid config");
    let s = stream();
    let screen = s.screen();
    let machine = Machine::new(config.clone());
    let mut col = SpatialCollector::new(
        screen.width().max(1),
        screen.height().max(1),
        16,
        config.processors,
    );
    let report = machine.run_traced(&s, &mut col);
    col.document("tiny", report.summary(), provenance(std::slice::from_ref(&config)))
        .to_json()
}

#[test]
fn heatmap_self_diff_is_zero_on_every_plane_tile_and_node() {
    let doc = heatmap_doc();
    let d = HeatmapDiff::between(&decode::<HeatmapDoc>(&doc), &decode(&doc))
        .expect("same run must be comparable");
    assert!(d.is_zero());
    assert_eq!(d.owner_flips, 0, "owner plane must not flip against itself");
    for plane in &d.planes {
        assert_eq!(plane.max_abs(), 0, "plane {} must be all zero", plane.metric);
        assert_eq!(plane.changed_tiles(), 0);
        assert!(plane.deltas.iter().all(|&v| v == 0));
        // An all-zero plane renders as an all-white (unchanged) map.
        let img = plane.render(1);
        for y in 0..img.height() {
            for x in 0..img.width() {
                assert_eq!(img.get(x, y), [255, 255, 255]);
            }
        }
    }
    for node in &d.nodes {
        assert!(node.is_zero(), "node {} misses must be unchanged", node.node);
    }
}

#[test]
fn injected_conflict_misses_are_attributed_to_tile_and_node() {
    let base = heatmap_doc();
    let mut cur = base.clone();
    // Plant 7 extra conflict misses in one tile, charged to node 0.
    {
        let rows = elems(field(field(&mut cur, "tiles"), "miss_conflict"));
        bump(&mut elems(&mut rows[0])[0], 7);
        let node0 = &mut elems(field(&mut cur, "nodes"))[0];
        bump(field(node0, "conflict"), 7);
        bump(field(node0, "misses"), 7);
    }

    let d =
        HeatmapDiff::between(&decode::<HeatmapDoc>(&base), &decode(&cur)).expect("comparable");
    assert!(!d.is_zero());
    let plane = d
        .planes
        .iter()
        .find(|p| p.metric == "miss_conflict")
        .expect("conflict plane present");
    assert_eq!(plane.max_abs(), 7);
    assert_eq!(plane.changed_tiles(), 1);
    assert_eq!(plane.hottest().map(|(_, _, v)| v), Some(7));
    // Only the planted tile moved; every other plane is untouched.
    for other in d.planes.iter().filter(|p| p.metric != "miss_conflict") {
        assert_eq!(other.max_abs(), 0, "plane {} must be untouched", other.metric);
    }
    let node0 = d.nodes.iter().find(|n| n.node == 0).expect("node 0");
    assert_eq!((node0.conflict, node0.misses), (7, 7));
    assert!(node0.compulsory == 0 && node0.capacity == 0);
    let text = d.explanation().join("\n");
    assert!(text.contains("conflict"), "explanation must name the class: {text}");
}

/// A real host profile from a (tiny) profiled sweep.
fn metrics_doc() -> (Json, HostProfile) {
    let configs = small_grid();
    let prof = sortmid::HostProfiler::new();
    let options = SweepOptions { threads: 2 };
    run_sweep_profiled(&stream(), &configs, options, &prof);
    let profile = prof.finish();
    profile.verify().expect("profile invariants must hold");
    let doc = profile.document("sweep", provenance(&configs)).to_json();
    (doc, profile)
}

#[test]
fn metrics_self_diff_is_zero_across_phases_counters_and_histograms() {
    let (doc, profile) = metrics_doc();
    let d = MetricsDiff::between(&decode::<MetricsDoc>(&doc), &decode(&doc))
        .expect("same run must be comparable");
    assert!(d.is_zero());
    assert!(!d.phases.is_empty(), "a profiled sweep has phases");
    for p in &d.phases {
        assert_eq!((p.count, p.total_ns, p.self_ns), (0, 0, 0), "phase {}", p.name);
    }
    assert!(d.one_sided_phases.is_empty());
    assert!(d.counters.iter().all(|(_, delta)| *delta == 0));
    for h in &d.histograms {
        assert!(h.is_zero(), "histogram {} must not shift", h.name);
    }
    assert_eq!(d.peak_rss_delta, 0);
    drop(profile);
}

#[test]
fn injected_phase_slowdown_is_ranked_first() {
    let (base, _profile) = metrics_doc();
    let mut cur = base.clone();
    let slow = 987_654_321u64;
    let name = {
        let phases = elems(field(&mut cur, "phases"));
        let phase = phases.last_mut().expect("at least one phase");
        bump(field(phase, "total_ns"), slow);
        bump(field(phase, "self_ns"), slow);
        let Json::Str(name) = field(phase, "name") else { panic!("name not a string") };
        name.clone()
    };

    let d =
        MetricsDiff::between(&decode::<MetricsDoc>(&base), &decode(&cur)).expect("comparable");
    assert!(!d.is_zero());
    let ranked = d.ranked_phases();
    let top = ranked.first().expect("a ranked phase");
    assert_eq!(top.name, name);
    assert_eq!(top.self_ns, slow as i64);
    let text = d.explanation(3).join("\n");
    assert!(text.contains(&name), "explanation must name the phase: {text}");
}

//! The sortmid benchmark: four workloads that time the simulator end to
//! end and, in a traced run, attribute the time to its layers.
//!
//! One process runs one workload through four phases: an untimed set-up
//! that generates the scenes from the seed, an untimed warm-up, the timed
//! calls, and the untimed output checks after each call. See `README.md`
//! for the workloads and the layer map.

pub mod recorder;
pub mod speed;
pub mod stats;
pub mod workload;

use sortmid_devharness::Json;

fn benchmark_json() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is JSON")
}

/// The metrics `BENCHMARK.json` declares under `kind` (`"end_to_end"` or
/// `"per_layer"`), as `(name, unit)` pairs in declaration order. A run
/// prints exactly these.
pub fn declared(kind: &str) -> Vec<(String, String)> {
    let doc = benchmark_json();
    let metrics = doc.get(kind).and_then(Json::as_arr);
    let metrics = metrics.unwrap_or_else(|| panic!("BENCHMARK.json lists no '{kind}' metrics"));
    metrics
        .iter()
        .map(|m| {
            let field = |key| match m.get(key).and_then(Json::as_str) {
                Some(v) => v.to_string(),
                None => panic!("a '{kind}' metric in BENCHMARK.json has no {key}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// How many seconds of calls a run measures: `run_seconds` in
/// `BENCHMARK.json`.
pub fn run_seconds() -> u64 {
    benchmark_json()
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("BENCHMARK.json gives run_seconds as a whole number")
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: std::time::Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        let mut names: Vec<String> = ["end_to_end", "per_layer"]
            .iter()
            .flat_map(|kind| declared(kind))
            .map(|(name, _)| name)
            .collect();
        for name in &names {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            let allowed = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(name.chars().all(allowed), "{name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "metric names are unique");
        assert!(run_seconds() > 0);
    }
}

//! Deterministic work-stealing task scheduler for the sweep pipeline.
//!
//! Task cost varies by an order of magnitude across the sweep's frame
//! groups — a lone config's against a Mattson walk pricing a hundred
//! geometries — so a static chunked schedule leaves the wall clock
//! hostage to its slowest chunk. This module schedules the tasks
//! dynamically while keeping the *results* bit-for-bit deterministic:
//!
//! * **Preassigned output slots.** A task never returns a value through
//!   the scheduler — it writes its own slots (the sweep uses one
//!   [`std::sync::OnceLock`] per report). Which worker runs a task, and in
//!   which order, changes only wall time.
//! * **Independent tasks.** A [`TaskGraph`] is a batch of costed tasks
//!   with no edges between them, so [`run_graph`] can never deadlock.
//! * **LPT dispatch.** Tasks carry cost estimates (see [`CostModel`]) and
//!   are seeded greedily, longest first, onto the least-loaded worker
//!   ([`lpt_order`]). Longest-Processing-Time-first shrinks the idle tail
//!   that static chunking suffers.
//! * **Work stealing.** Each worker owns a deque: it pops its own back
//!   (its longest seed), and when empty steals from the front of the
//!   deepest victim queue. Tasks are coarse (a frame group — milliseconds
//!   and up), so a mutex per deque is nowhere near any hot path and keeps
//!   the pool dependency-free safe `std`.
//!
//! Instrumentation (all folded away under
//! [`NullHostSink`](sortmid_observe::NullHostSink)): a `scheduler` span
//! around each batch, a `worker-run` span plus a `sched-pool` utilization
//! record per worker, `sweep.claims`/`sweep.steals` counters, and
//! per-worker `sweep.queue_depth.*` high-water gauges.

use sortmid_observe::HostSink;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-worker queue-depth gauge names ([`HostSink::gauge_max`] needs
/// `&'static str`); workers past the table share the last name.
const QUEUE_DEPTH_GAUGES: [&str; 16] = [
    "sweep.queue_depth.w00",
    "sweep.queue_depth.w01",
    "sweep.queue_depth.w02",
    "sweep.queue_depth.w03",
    "sweep.queue_depth.w04",
    "sweep.queue_depth.w05",
    "sweep.queue_depth.w06",
    "sweep.queue_depth.w07",
    "sweep.queue_depth.w08",
    "sweep.queue_depth.w09",
    "sweep.queue_depth.w10",
    "sweep.queue_depth.w11",
    "sweep.queue_depth.w12",
    "sweep.queue_depth.w13",
    "sweep.queue_depth.w14",
    "sweep.queue_depth.w15",
];

fn queue_gauge(worker: usize) -> &'static str {
    QUEUE_DEPTH_GAUGES[worker.min(QUEUE_DEPTH_GAUGES.len() - 1)]
}

/// Task indices ordered longest-estimated-first: descending cost, ties
/// broken by ascending index so the order is a deterministic permutation
/// of `0..costs.len()`.
pub fn lpt_order(costs: &[u64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..costs.len() as u32).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i as usize]), i));
    order
}

/// A batch of independent costed tasks for [`run_graph`], identified by
/// their insertion index.
#[derive(Debug, Default)]
pub struct TaskGraph {
    costs: Vec<u64>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// An empty graph with room for `n` tasks.
    pub fn with_capacity(n: usize) -> Self {
        TaskGraph { costs: Vec::with_capacity(n) }
    }

    /// Adds a task with estimated cost `cost` (any unit, used only for
    /// LPT ordering) and returns its index.
    pub fn add(&mut self, cost: u64) -> usize {
        self.costs.push(cost);
        self.costs.len() - 1
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Whether the graph holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// The estimated cost `task` was added with.
    pub fn cost(&self, task: usize) -> u64 {
        self.costs[task]
    }
}

/// Sets the abort flag when its worker unwinds, so sibling workers stop
/// spinning instead of waiting for tasks that will never complete.
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Executes every task in `graph` exactly once across `workers` host
/// threads (the calling thread is worker 0). `exec(task, worker)` runs
/// the task body; results must go into the task's preassigned output
/// slot, never through the scheduler — that is what keeps the output
/// independent of the steal interleaving.
///
/// Runs under a `scheduler` span; each worker runs under a `worker-run`
/// span and reports a `sched-pool` utilization record plus its share of
/// the `sweep.claims`/`sweep.steals` counters.
///
/// # Panics
///
/// Propagates task panics (sibling workers drain and stop early).
pub fn run_graph<S: HostSink>(
    graph: TaskGraph,
    workers: usize,
    sink: &S,
    exec: &(impl Fn(usize, usize) + Sync),
) {
    let n = graph.len();
    if n == 0 {
        return;
    }
    let _sched = sink.span("scheduler");
    let workers = workers.clamp(1, n);
    if S::ENABLED {
        sink.count("sweep.tasks", n as u64);
    }

    // Seed the tasks greedily, longest first, onto the least-loaded
    // worker. push_front keeps each deque's *back* — the owner's pop end —
    // holding its longest seed.
    let mut seeds: Vec<VecDeque<u32>> = (0..workers).map(|_| VecDeque::new()).collect();
    let mut load = vec![0u64; workers];
    for t in lpt_order(&graph.costs) {
        let w = (0..workers)
            .min_by_key(|&w| (load[w], w))
            .expect("at least one worker");
        load[w] += graph.costs[t as usize].max(1);
        seeds[w].push_front(t);
    }
    if S::ENABLED {
        for (w, seed) in seeds.iter().enumerate() {
            sink.gauge_max(queue_gauge(w), seed.len() as u64);
        }
    }
    let queues: Vec<Mutex<VecDeque<u32>>> = seeds.into_iter().map(Mutex::new).collect();
    let remaining = AtomicUsize::new(n);
    let abort = AtomicBool::new(false);

    let worker_loop = |widx: usize| {
        let _bail = AbortOnPanic(&abort);
        let _span = sink.span("worker-run");
        let t_start = S::ENABLED.then(Instant::now);
        let (mut busy, mut items, mut claims, mut steals) = (0u64, 0u64, 0u64, 0u64);
        loop {
            if abort.load(Ordering::Acquire) || remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            // Own queue first; otherwise steal from the deepest victim's
            // front (its oldest seed), leaving the owner its pop end.
            let mut task = queues[widx].lock().expect("queue poisoned").pop_back();
            let mut stolen = false;
            if task.is_none() {
                let victim = (0..queues.len())
                    .filter(|&v| v != widx)
                    .map(|v| (queues[v].lock().expect("queue poisoned").len(), v))
                    .filter(|&(len, _)| len > 0)
                    .max_by_key(|&(len, v)| (len, usize::MAX - v));
                if let Some((_, v)) = victim {
                    task = queues[v].lock().expect("queue poisoned").pop_front();
                    stolen = task.is_some();
                }
            }
            let Some(t) = task else {
                // No task is queued after the seeding, so once every queue
                // is empty the tasks left are in flight on other workers;
                // otherwise another thief won the race, and this one
                // looks again.
                if queues.iter().all(|q| q.lock().expect("queue poisoned").is_empty()) {
                    break;
                }
                continue;
            };
            if stolen {
                steals += 1;
            } else {
                claims += 1;
            }
            let t0 = S::ENABLED.then(Instant::now);
            exec(t as usize, widx);
            if let Some(t0) = t0 {
                busy += t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            }
            items += 1;
            remaining.fetch_sub(1, Ordering::AcqRel);
        }
        if let Some(t_start) = t_start {
            let wall = t_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            sink.worker("sched-pool", widx as u32, wall, busy, items);
            sink.count("sweep.claims", claims);
            sink.count("sweep.steals", steals);
        }
    };

    if workers == 1 {
        worker_loop(0);
    } else {
        let worker_loop = &worker_loop;
        std::thread::scope(|scope| {
            for w in 1..workers {
                scope.spawn(move || worker_loop(w));
            }
            worker_loop(0);
        });
    }
    assert_eq!(
        remaining.load(Ordering::Acquire),
        0,
        "the scheduler must drain the whole task graph"
    );
}

/// Host-cost estimates for the sweep's task kinds, in nanoseconds,
/// scaled by the stream's fragment count.
///
/// The per-fragment rates are seeded from the committed
/// `METRICS_sweep.json` `host.run_ns.*` histograms and phase totals
/// (reference grid + dense replay lane on the bench host). Absolute
/// accuracy is not the point — LPT only needs the *ordering* to be right,
/// and the profiled sweep records the model's predicted-vs-actual error
/// as the `sweep.cost_err_pct` histogram so drift stays visible.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    fragments: u64,
}

/// Per-fragment nanosecond rates (see [`CostModel`]). Kept together so a
/// recalibration against a fresh `METRICS_sweep.json` is one edit;
/// current values come from the bench-host phase totals and
/// `host.run_ns.*` means over the 27k-fragment reference scene.
mod rates {
    /// One engine/FIFO timing walk over a cache model's misses (the
    /// former `host.run_ns.captured` mean). A frame group costs
    /// `PLAN + probing models·CAPTURE + distinct walks·CAPTURED`, plus its
    /// Mattson walk's `TRACE_PASS · weight` when it has one; for a lone
    /// config (29.3) that is near a `grid/per-config` lane `Machine::run`
    /// (33).
    pub const CAPTURED: f64 = 6.2;
    /// Routing-plan build (owner LUT + counting sort; `plan-build`
    /// phase total / count).
    pub const PLAN: f64 = 7.9;
    /// One probing cache model's capture pass over a plan's buckets (a
    /// perfect model's pass only counts hits and is not priced): the
    /// benchmark's traced `design-sweep` rounds (seed 0, 2-vCPU Xeon)
    /// spent 884–1,041 ms, median 1,024, in `capture` spans over one
    /// probing pass per plan, 36 plans per scene, on 7 scenes of
    /// 1,869,687 fragments in all.
    pub const CAPTURE: f64 = 15.2;
    /// One cache pass over a frame's accesses, multiplied by
    /// [`sortmid_cache::evaluation_cost_weight`]'s pass count for the
    /// Mattson walk (`mattson-walk` span / weight(requests)): on a
    /// 2-vCPU Xeon the dense replay lane's walk took 10.5–13.4 ms for 102
    /// geometries over 27,009 fragments, weight 13.
    pub const TRACE_PASS: f64 = 38.0;
}

impl CostModel {
    /// A model scaled to a stream of `fragments` fragments.
    pub fn for_stream(fragments: u64) -> Self {
        CostModel { fragments }
    }

    fn scaled(&self, rate: f64) -> u64 {
        ((self.fragments as f64 * rate) as u64).max(1)
    }

    /// Estimated cost of building one routing plan.
    pub fn plan_build(&self) -> u64 {
        self.scaled(rates::PLAN)
    }

    /// Estimated cost of one (plan, probing cache model) capture pass.
    pub fn capture(&self) -> u64 {
        self.scaled(rates::CAPTURE)
    }

    /// Estimated cost of one Mattson walk pricing `requests` geometries
    /// over a frame.
    pub fn trace_eval(&self, requests: usize) -> u64 {
        self.scaled(rates::TRACE_PASS)
            .saturating_mul(sortmid_cache::evaluation_cost_weight(requests))
    }

    /// Estimated cost of one timing walk over a cache model's misses.
    pub fn run_captured(&self) -> u64 {
        self.scaled(rates::CAPTURED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortmid_observe::{HostProfiler, NullHostSink};
    use std::sync::atomic::AtomicU64;

    /// Deterministic pseudo-random costs (no external RNG in the
    /// workspace by design).
    fn lcg_costs(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 40
            })
            .collect()
    }

    #[test]
    fn lpt_order_is_a_permutation_sorted_by_descending_cost() {
        for seed in [1u64, 7, 42, 1 << 33] {
            let costs = lcg_costs(257, seed);
            let order = lpt_order(&costs);
            assert_eq!(order.len(), costs.len());
            // Never drops or duplicates an index: sorting the permutation
            // back must give exactly 0..n.
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert!(
                sorted.iter().enumerate().all(|(i, &t)| i as u32 == t),
                "lpt_order dropped or duplicated an index (seed {seed})"
            );
            for pair in order.windows(2) {
                let (a, b) = (costs[pair[0] as usize], costs[pair[1] as usize]);
                assert!(a > b || (a == b && pair[0] < pair[1]), "descending, ties by index");
            }
        }
    }

    #[test]
    fn lpt_order_of_equal_costs_is_identity() {
        assert_eq!(lpt_order(&[5, 5, 5, 5]), vec![0, 1, 2, 3]);
        assert_eq!(lpt_order(&[]), Vec::<u32>::new());
    }

    #[test]
    fn run_graph_executes_every_task_exactly_once() {
        for workers in [1usize, 2, 3, 8] {
            let costs = lcg_costs(100, 9);
            let mut graph = TaskGraph::with_capacity(costs.len());
            for &c in &costs {
                graph.add(c);
            }
            let runs: Vec<AtomicU64> = (0..costs.len()).map(|_| AtomicU64::new(0)).collect();
            run_graph(graph, workers, &NullHostSink, &|t, _w| {
                runs[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "every task ran exactly once on {workers} workers"
            );
        }
    }

    #[test]
    fn pool_accounting_covers_every_task() {
        let prof = HostProfiler::new();
        let mut graph = TaskGraph::new();
        for i in 0..40 {
            graph.add(i + 1);
        }
        run_graph(graph, 3, &prof, &|_, _| {});
        let profile = prof.finish();
        profile.verify().expect("scheduler spans and records are well-formed");

        let pool: Vec<_> = profile.workers.iter().filter(|w| w.lane == "sched-pool").collect();
        assert_eq!(pool.len(), 3, "one sched-pool record per worker");
        assert_eq!(pool.iter().map(|w| w.items).sum::<u64>(), 40);

        let counters = profile.metrics.get("counters").expect("counters object");
        let counter =
            |name: &str| counters.get(name).and_then(sortmid_devharness::Json::as_u64).unwrap_or(0);
        assert_eq!(counter("sweep.tasks"), 40);
        assert_eq!(
            counter("sweep.claims") + counter("sweep.steals"),
            40,
            "every task is either claimed or stolen"
        );
        assert!(
            profile.spans.iter().any(|s| s.name == "scheduler"),
            "the batch runs under a scheduler span"
        );
        assert_eq!(
            profile.spans.iter().filter(|s| s.name == "worker-run").count(),
            3,
            "one worker-run span per worker"
        );
        let gauges = profile.metrics.get("gauges").expect("gauges object");
        assert!(gauges.get("sweep.queue_depth.w00").is_some(), "seeded queue depths");
    }

    #[test]
    fn cost_model_orders_paths_sanely() {
        let model = CostModel::for_stream(100_000);
        // A cache pass costs more than routing or one timing walk, and a
        // walk pricing a dense grid more than a lone config's whole frame
        // group (route, capture, timing walk) — the LPT seed must
        // front-load the walk's group.
        assert!(model.capture() > model.plan_build());
        assert!(model.capture() > model.run_captured());
        assert!(model.trace_eval(102) > model.trace_eval(12));
        let lone_group = model.plan_build() + model.capture() + model.run_captured();
        assert!(model.trace_eval(sortmid_cache::STACKDIST_MIN_REQUESTS) > lone_group);
    }
}

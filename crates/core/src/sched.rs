//! Deterministic longest-first task pool for the sweep pipeline.
//!
//! Task cost varies by an order of magnitude across the sweep's frame
//! groups — a lone config's against a Mattson walk pricing a hundred
//! geometries — so a static chunked schedule leaves the wall clock
//! hostage to its slowest chunk. This module hands the tasks out
//! dynamically while keeping the *results* bit-for-bit deterministic:
//!
//! * **Preassigned output slots.** A task never returns a value through
//!   the pool — it writes its own slots (the sweep uses one
//!   [`std::sync::OnceLock`] per report). Which worker runs a task, and in
//!   which order, changes only wall time.
//! * **Independent tasks.** Every task is known and costed before any
//!   runs, and no task waits on another, so [`run_tasks`] can never
//!   deadlock.
//! * **One longest-first queue.** Tasks carry cost estimates (see
//!   [`CostModel`]) and are ordered longest first once ([`lpt_order`]);
//!   each worker then claims the next task of that order through one
//!   shared atomic cursor until the order is used up. A worker that
//!   finishes early takes the longest task left, which is greedy
//!   Longest-Processing-Time-first list scheduling. Tasks are coarse (a
//!   frame group — milliseconds and up), so one atomic add per task is
//!   nowhere near any hot path.
//!
//! Instrumentation (all folded away under
//! [`NullHostSink`](sortmid_observe::NullHostSink)): a `scheduler` span
//! around each batch, a `sweep.tasks` counter, and a `worker-run` span
//! plus a `sched-pool` utilization record per worker.

use sortmid_observe::HostSink;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Task indices ordered longest-estimated-first: descending cost, ties
/// broken by ascending index so the order is a deterministic permutation
/// of `0..costs.len()`.
pub fn lpt_order(costs: &[u64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..costs.len() as u32).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i as usize]), i));
    order
}

/// Executes every task `0..costs.len()` exactly once across `workers`
/// host threads (the calling thread is worker 0), claimed in
/// [`lpt_order`] of `costs` (any unit, used only for ordering).
/// `exec(task)` runs the task body; results must go into the task's
/// preassigned output slot, never through the pool — that is what keeps
/// the output independent of which worker claimed which task.
///
/// Runs under a `scheduler` span; each worker runs under a `worker-run`
/// span and reports one `sched-pool` utilization record: its own wall
/// time, the time inside `exec`, and the tasks it ran.
///
/// # Panics
///
/// Propagates a task's panic once every worker has stopped; the other
/// workers finish the tasks left, since none of them waits on another.
pub fn run_tasks<S: HostSink>(
    costs: &[u64],
    workers: usize,
    sink: &S,
    exec: &(impl Fn(usize) + Sync),
) {
    let n = costs.len();
    if n == 0 {
        return;
    }
    let _sched = sink.span("scheduler");
    let workers = workers.clamp(1, n);
    if S::ENABLED {
        sink.count("sweep.tasks", n as u64);
    }
    let order = lpt_order(costs);
    // The cursor publishes no data: each task writes its own slot, and
    // the scope's join orders those writes before the caller reads them.
    let next = AtomicUsize::new(0);
    let nanos = |since: Instant| since.elapsed().as_nanos().min(u64::MAX as u128) as u64;

    let worker_loop = |widx: usize| {
        let _span = sink.span("worker-run");
        let t_start = S::ENABLED.then(Instant::now);
        let (mut busy, mut items) = (0u64, 0u64);
        while let Some(&t) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            let t0 = S::ENABLED.then(Instant::now);
            exec(t as usize);
            if let Some(t0) = t0 {
                busy += nanos(t0);
            }
            items += 1;
        }
        if let Some(t_start) = t_start {
            sink.worker("sched-pool", widx as u32, nanos(t_start), busy, items);
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
    /// Mattson walk's `TRACE_PASS · weight` when it has one (20.5 for a
    /// lone probing config).
    pub const CAPTURED: f64 = 6.2;
    /// Routing-plan build (owner LUT + owner runs): the benchmark's
    /// traced `design-sweep` rounds (seed 0, 2-vCPU Xeon) spent 223–229
    /// ms, median 229, in `plan-build` spans over 36 plans per scene, on
    /// 7 scenes of 1,869,687 fragments in all.
    pub const PLAN: f64 = 3.4;
    /// One probing cache model's capture pass over a plan's runs (a
    /// perfect model's pass only counts hits and is not priced): the
    /// same rounds spent 727–736 ms, median 735, in `capture` spans over
    /// one probing pass per plan.
    pub const CAPTURE: f64 = 10.9;
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
    use std::sync::atomic::{AtomicU32, AtomicU64};
    use std::sync::mpsc;
    use std::time::Duration;

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
    fn one_worker_runs_tasks_in_lpt_order() {
        let costs = lcg_costs(100, 3);
        let claimed = AtomicUsize::new(0);
        let ran: Vec<AtomicU32> = (0..costs.len()).map(|_| AtomicU32::new(0)).collect();
        run_tasks(&costs, 1, &NullHostSink, &|t| {
            ran[claimed.fetch_add(1, Ordering::Relaxed)].store(t as u32, Ordering::Relaxed);
        });
        let ran: Vec<u32> = ran.into_iter().map(AtomicU32::into_inner).collect();
        assert_eq!(ran, lpt_order(&costs));
    }

    #[test]
    fn every_task_runs_exactly_once_and_the_pool_accounts_for_it() {
        for workers in [1usize, 2, 3, 8] {
            let costs = lcg_costs(100, 9);
            let runs: Vec<AtomicU64> = (0..costs.len()).map(|_| AtomicU64::new(0)).collect();
            let prof = HostProfiler::new();
            run_tasks(&costs, workers, &prof, &|t| {
                runs[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "every task ran exactly once on {workers} workers"
            );

            let profile = prof.finish();
            profile.verify().expect("pool spans and records are well-formed");
            let pool: Vec<_> = profile.workers.iter().filter(|w| w.lane == "sched-pool").collect();
            assert_eq!(pool.len(), workers, "one sched-pool record per worker");
            assert_eq!(pool.iter().map(|w| w.items).sum::<u64>(), costs.len() as u64);
            let counters = profile.metrics.get("counters").expect("counters object");
            let tasks = counters.get("sweep.tasks").and_then(sortmid_devharness::Json::as_u64);
            assert_eq!(tasks, Some(costs.len() as u64));
            let spans = |name: &str| profile.spans.iter().filter(|s| s.name == name).count();
            assert_eq!(spans("scheduler"), 1, "the batch runs under a scheduler span");
            assert_eq!(spans("worker-run"), workers, "one worker-run span per worker");
        }
    }

    #[test]
    fn a_task_panic_propagates_without_hanging() {
        for workers in [1usize, 3] {
            let (tx, rx) = mpsc::channel();
            // Detached, so that a hung pool fails the timeout below
            // instead of hanging the test.
            std::thread::spawn(move || {
                let costs = lcg_costs(40, 5);
                let outcome = std::panic::catch_unwind(|| {
                    run_tasks(&costs, workers, &NullHostSink, &|t| assert_ne!(t, 17, "task 17"));
                });
                tx.send(outcome.is_err()).unwrap();
            });
            let panicked = rx.recv_timeout(Duration::from_secs(60)).expect("run_tasks hung");
            assert!(panicked, "a task's panic must reach the caller at {workers} workers");
        }
    }

    #[test]
    fn cost_model_orders_paths_sanely() {
        let model = CostModel::for_stream(100_000);
        // A cache pass costs more than routing or one timing walk, and a
        // walk pricing a dense grid more than a lone config's whole frame
        // group (route, capture, timing walk) — the longest-first order
        // must put the walk's group first.
        assert!(model.capture() > model.plan_build());
        assert!(model.capture() > model.run_captured());
        assert!(model.trace_eval(102) > model.trace_eval(12));
        let lone_group = model.plan_build() + model.capture() + model.run_captured();
        assert!(model.trace_eval(sortmid_cache::STACKDIST_MIN_REQUESTS) > lone_group);
    }
}

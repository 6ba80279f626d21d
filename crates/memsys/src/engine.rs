//! Per-node timing: scan engine + texture bus + prefetch window.
//!
//! The model follows Section 3.1 of the paper:
//!
//! * the engine scans **one pixel per cycle**;
//! * every triangle occupies the engine for at least
//!   [`SETUP_CYCLES`](crate::SETUP_CYCLES) cycles;
//! * cache misses queue **line fills** on the node's private bus, each
//!   occupying it for [`BusConfig::line_cost`] cycles;
//! * "the cache access is pipelined enough to absorb all the memory
//!   latency": an Igehy-style fragment FIFO lets the engine run ahead of
//!   outstanding fills, so the engine stalls only when it is more than a
//!   *prefetch window* of fragments ahead — i.e. only when the bus is
//!   genuinely saturated. This is why bursts of misses hurt even when the
//!   *average* bandwidth fits the bus (Section 6, last paragraph).
//!
//! With a window of `w` fragments, fragment *i* cannot issue before
//! fragment *i − w* completes. A fragment without fills completes in its
//! own issue cycle, and issue cycles strictly increase, so it never holds
//! a later fragment back. The window therefore keeps only the fragments
//! whose fills outlast their issue cycle, each tagged with the issue index
//! it gates: timing a run of all-hit fragments costs one step per kept
//! fill it passes, not one per fragment.

use crate::bus::BusConfig;
use crate::dram::{DramConfig, DramState};
use crate::Cycle;
use sortmid_observe::{NullSink, TraceEvent, TraceSink};
use std::collections::VecDeque;

/// The cycle-level timing state of one texture-mapping node.
///
/// Drive it triangle by triangle:
///
/// 1. [`start_triangle`](Self::start_triangle) with the triangle's arrival
///    time (it cannot start before the FIFO delivered it);
/// 2. [`fragment`](Self::fragment) once per fragment, passing how many of
///    its 8 texel reads missed the cache;
/// 3. [`finish_triangle`](Self::finish_triangle) with the minimum occupancy
///    (25 cycles), which returns when the engine becomes free.
///
/// [`finish_time`](Self::finish_time) is when the node's last pixel is
/// actually complete (its fills may outlive the engine's scan).
///
/// # Examples
///
/// ```
/// use sortmid_memsys::{BusConfig, EngineTiming};
///
/// let mut node = EngineTiming::new(BusConfig::ratio(1.0), Some(32));
/// node.start_triangle(100);
/// for _ in 0..30 {
///     node.fragment(0);
/// }
/// let engine_free = node.finish_triangle(25);
/// assert_eq!(engine_free, 130); // 30 pixels > 25-cycle setup floor
/// ```
#[derive(Debug, Clone)]
pub struct EngineTiming {
    line_cost: Cycle,
    dram: Option<(DramConfig, DramState)>,
    engine_t: Cycle,
    bus_free: Cycle,
    /// The prefetch window in fragments (`None` = unbounded).
    window: Option<u64>,
    /// The in-flight fills that can still stall the engine, oldest first:
    /// `(gate, completion)`, where fragment number `gate` may not issue
    /// before `completion`. Holds at most `window` entries and allocates
    /// on the first one.
    fills: VecDeque<(u64, Cycle)>,
    tri_start: Cycle,
    last_completion: Cycle,
    busy_cycles: u64,
    stall_cycles: u64,
    setup_floor_cycles: u64,
    last_setup_padding: Cycle,
    starved_cycles: u64,
    bus_busy: u64,
    fragments: u64,
    triangles: u64,
    lines_fetched: u64,
}

impl EngineTiming {
    /// Creates a node timer.
    ///
    /// `prefetch_window` is the number of fragments the engine may run ahead
    /// of outstanding line fills; `None` models an unbounded fragment FIFO
    /// (the engine never stalls, fills just complete late).
    ///
    /// # Panics
    ///
    /// Panics if `prefetch_window` is `Some(0)`.
    pub fn new(bus: BusConfig, prefetch_window: Option<usize>) -> Self {
        if let Some(w) = prefetch_window {
            assert!(w > 0, "prefetch window must hold at least one fragment");
        }
        EngineTiming {
            line_cost: bus.line_cost(),
            dram: None,
            engine_t: 0,
            bus_free: 0,
            window: prefetch_window.map(|w| w as u64),
            fills: VecDeque::new(),
            tri_start: 0,
            last_completion: 0,
            busy_cycles: 0,
            stall_cycles: 0,
            setup_floor_cycles: 0,
            last_setup_padding: 0,
            starved_cycles: 0,
            bus_busy: 0,
            fragments: 0,
            triangles: 0,
            lines_fetched: 0,
        }
    }

    /// Like [`new`](Self::new) but with an SDRAM page-mode model: line
    /// fills that hit the open DRAM row cost `dram.row_hit_cost`, others
    /// `dram.row_miss_cost` (use with
    /// [`fragment_lines`](Self::fragment_lines), which sees the
    /// addresses).
    pub fn with_dram(bus: BusConfig, prefetch_window: Option<usize>, dram: DramConfig) -> Self {
        let mut engine = Self::new(bus, prefetch_window);
        engine.dram = Some((dram, DramState::new()));
        engine
    }

    /// Begins a triangle that arrived (via the FIFO) at `arrival`; returns
    /// the cycle the engine actually starts it.
    ///
    /// Any gap between the engine going idle and the arrival is *FIFO
    /// starvation*: the engine had nothing queued and waited on the
    /// geometry stage — the paper's local load imbalance, surfaced in the
    /// cycle breakdown as `starved`.
    pub fn start_triangle(&mut self, arrival: Cycle) -> Cycle {
        if arrival > self.engine_t {
            self.starved_cycles += arrival - self.engine_t;
            self.engine_t = arrival;
        }
        self.tri_start = self.engine_t;
        self.triangles += 1;
        self.engine_t
    }

    /// Issues the next fragment and returns its issue cycle: the engine
    /// wants the next cycle, but if the fill a window of fragments back is
    /// still in flight it must wait for it.
    #[inline]
    fn issue(&mut self) -> Cycle {
        let mut t = self.engine_t + 1;
        if let Some(&(gate, completion)) = self.fills.front() {
            if gate == self.fragments {
                self.fills.pop_front();
                if completion > t {
                    self.stall_cycles += completion - t;
                    t = completion;
                }
            }
        }
        self.engine_t = t;
        self.busy_cycles += 1;
        self.fragments += 1;
        t
    }

    /// Records that the fragment just issued at `t` completes at `done`;
    /// only a completion later than `t` can stall a later fragment.
    #[inline]
    fn complete(&mut self, t: Cycle, done: Cycle) {
        if done > t {
            if let Some(window) = self.window {
                debug_assert!((self.fills.len() as u64) < window);
                self.fills.push_back((self.fragments - 1 + window, done));
            }
        }
        if done > self.last_completion {
            self.last_completion = done;
        }
    }

    /// Scans one fragment whose texel reads produced `misses` line fills.
    #[inline]
    pub fn fragment(&mut self, misses: u32) {
        let t = self.issue();
        let mut done = t;
        if misses > 0 && self.line_cost > 0 {
            for _ in 0..misses {
                self.bus_free = self.bus_free.max(t) + self.line_cost;
                self.bus_busy += self.line_cost;
            }
            done = self.bus_free;
        }
        self.lines_fetched += misses as u64;
        self.complete(t, done);
    }

    /// Scans one fragment whose texel reads missed on the given cache-line
    /// addresses. Identical to [`fragment`](Self::fragment) on a flat bus;
    /// with [`with_dram`](Self::with_dram) the per-fill cost depends on
    /// DRAM row locality of the addresses.
    #[inline]
    pub fn fragment_lines(&mut self, miss_lines: &[u32]) {
        self.fragment_lines_sink(miss_lines, 0, &mut NullSink);
    }

    /// [`fragment_lines`](Self::fragment_lines) with a [`TraceSink`]: each
    /// line fill is reported as a [`TraceEvent::BusFill`] on `node` with
    /// its exact bus slot and cost. With [`NullSink`] the event code
    /// monomorphizes away entirely — the untraced hot path is unchanged.
    #[inline]
    pub fn fragment_lines_sink<S: TraceSink>(
        &mut self,
        miss_lines: &[u32],
        node: u32,
        sink: &mut S,
    ) {
        let t = self.issue();
        let mut done = t;
        match &mut self.dram {
            None => {
                if self.line_cost > 0 && !miss_lines.is_empty() {
                    for &line in miss_lines {
                        let slot = self.bus_free.max(t);
                        self.bus_free = slot + self.line_cost;
                        self.bus_busy += self.line_cost;
                        if S::ENABLED {
                            sink.record(TraceEvent::BusFill {
                                node,
                                line,
                                at: slot,
                                cost: self.line_cost,
                            });
                        }
                    }
                    done = self.bus_free;
                }
            }
            Some((config, state)) => {
                for &line in miss_lines {
                    let cost = state.fill_cost(line, config);
                    let slot = self.bus_free.max(t);
                    self.bus_free = slot + cost;
                    self.bus_busy += cost;
                    if S::ENABLED {
                        sink.record(TraceEvent::BusFill { node, line, at: slot, cost });
                    }
                }
                if !miss_lines.is_empty() {
                    done = self.bus_free;
                }
            }
        }
        self.lines_fetched += miss_lines.len() as u64;
        self.complete(t, done);
    }

    /// Scans `n` consecutive fragments that all hit the cache — exactly
    /// equivalent to `n` calls of [`fragment`](Self::fragment)`(0)`, in
    /// bulk.
    ///
    /// An all-hit fragment issues the cycle after its predecessor unless it
    /// is the gate of a kept fill, and it keeps no fill of its own. So the
    /// run steps through the kept fills whose gates fall inside it, then
    /// adds the rest of its fragments in one step: O(1 + fills retired).
    pub fn fragments_clean(&mut self, n: u64) {
        let end = self.fragments + n;
        while let Some(&(gate, _)) = self.fills.front() {
            if gate >= end {
                break;
            }
            self.issue_unstalled(gate - self.fragments);
            self.issue();
        }
        self.issue_unstalled(end - self.fragments);
        if self.engine_t > self.last_completion {
            self.last_completion = self.engine_t;
        }
    }

    /// Issues `k` all-hit fragments that no kept fill gates: one cycle
    /// each.
    #[inline]
    fn issue_unstalled(&mut self, k: u64) {
        self.engine_t += k;
        self.busy_cycles += k;
        self.fragments += k;
    }

    /// Ends the current triangle, enforcing the minimum engine occupancy
    /// (the 25-cycle setup floor); returns the cycle the engine is free.
    pub fn finish_triangle(&mut self, min_occupancy: Cycle) -> Cycle {
        let floor = self.tri_start + min_occupancy;
        self.last_setup_padding = 0;
        if self.engine_t < floor {
            let padding = floor - self.engine_t;
            self.busy_cycles += padding;
            self.setup_floor_cycles += padding;
            self.last_setup_padding = padding;
            self.engine_t = floor;
        }
        self.engine_t
    }

    /// Setup-floor padding added by the most recent
    /// [`finish_triangle`](Self::finish_triangle) (0 when the scan covered
    /// the floor). The spatial attribution layer reads this to charge the
    /// padding to the triangle's screen tile.
    pub fn last_setup_padding(&self) -> Cycle {
        self.last_setup_padding
    }

    /// The cycle the engine becomes free (scan side only).
    pub fn engine_free(&self) -> Cycle {
        self.engine_t
    }

    /// The cycle the node's last fragment is fully complete (including its
    /// outstanding line fills).
    pub fn finish_time(&self) -> Cycle {
        self.engine_t.max(self.last_completion)
    }

    /// Cycles the engine spent scanning or in the setup floor.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Cycles the engine stalled waiting for the bus (prefetch window full).
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Cycles spent padding the per-triangle setup floor (a subset of
    /// [`busy_cycles`](Self::busy_cycles)).
    pub fn setup_floor_cycles(&self) -> u64 {
        self.setup_floor_cycles
    }

    /// Cycles the engine sat idle with an empty FIFO waiting for the next
    /// triangle to arrive.
    pub fn starved_cycles(&self) -> u64 {
        self.starved_cycles
    }

    /// Cycles between the engine's last scan and the last fill completing
    /// (the fill tail).
    pub fn fill_tail_cycles(&self) -> u64 {
        self.finish_time() - self.engine_t
    }

    /// Fragments scanned.
    pub fn fragments(&self) -> u64 {
        self.fragments
    }

    /// Triangles started.
    pub fn triangles(&self) -> u64 {
        self.triangles
    }

    /// Cache lines fetched over the bus.
    pub fn lines_fetched(&self) -> u64 {
        self.lines_fetched
    }

    /// Cycles the texture bus spent transferring lines (occupancy; compare
    /// against [`finish_time`](Self::finish_time) for utilisation).
    pub fn bus_busy_cycles(&self) -> u64 {
        self.bus_busy
    }

    /// DRAM row hits/misses, when the page-mode model is active.
    pub fn dram_rows(&self) -> Option<(u64, u64)> {
        self.dram.as_ref().map(|(_, s)| (s.row_hits(), s.row_misses()))
    }

    /// Kept fills: the in-flight fills that can still stall the engine.
    #[cfg(test)]
    fn window_len(&self) -> usize {
        self.fills.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(ratio: f64, window: Option<usize>) -> EngineTiming {
        EngineTiming::new(BusConfig::ratio(ratio), window)
    }

    #[test]
    fn all_hit_triangle_takes_one_cycle_per_pixel() {
        let mut n = node(1.0, Some(32));
        n.start_triangle(0);
        for _ in 0..100 {
            n.fragment(0);
        }
        assert_eq!(n.finish_triangle(25), 100);
        assert_eq!(n.finish_time(), 100);
        assert_eq!(n.fragments(), 100);
        assert_eq!(n.stall_cycles(), 0);
    }

    #[test]
    fn setup_floor_applies_to_small_triangles() {
        let mut n = node(1.0, Some(32));
        n.start_triangle(0);
        for _ in 0..5 {
            n.fragment(0);
        }
        assert_eq!(n.finish_triangle(25), 25);
        // A second small triangle starts after the floor.
        n.start_triangle(0);
        n.fragment(0);
        assert_eq!(n.finish_triangle(25), 50);
    }

    #[test]
    fn arrival_delays_start() {
        let mut n = node(1.0, Some(32));
        assert_eq!(n.start_triangle(1000), 1000);
        n.fragment(0);
        assert_eq!(n.finish_triangle(25), 1025);
    }

    #[test]
    fn misses_within_window_do_not_stall_engine() {
        let mut n = node(1.0, Some(32));
        n.start_triangle(0);
        // 10 fragments, 1 miss each: bus needs 160 cycles, engine only 10,
        // but the 32-deep window absorbs the run-ahead.
        for _ in 0..10 {
            n.fragment(1);
        }
        assert_eq!(n.engine_free(), 10);
        // First fragment issues at cycle 1; ten serialized fills follow.
        assert_eq!(n.finish_time(), 1 + 10 * 16, "fills keep the bus busy");
        assert_eq!(n.stall_cycles(), 0);
        assert_eq!(n.lines_fetched(), 10);
        assert_eq!(n.bus_busy_cycles(), 160);
    }

    #[test]
    fn saturated_bus_stalls_engine_beyond_window() {
        let mut n = node(1.0, Some(4));
        n.start_triangle(0);
        // Every fragment misses once: steady state is bus-bound at 16
        // cycles per fragment once the 4-deep window fills.
        for _ in 0..20 {
            n.fragment(1);
        }
        let t = n.finish_time();
        assert!(t >= 20 * 16, "bus-bound time, got {t}");
        assert!(n.stall_cycles() > 0);
    }

    #[test]
    fn wider_bus_is_never_slower() {
        for window in [Some(4usize), Some(32), None] {
            let mut slow = node(1.0, window);
            let mut fast = node(2.0, window);
            for n in [&mut slow, &mut fast] {
                n.start_triangle(0);
                for i in 0..200 {
                    n.fragment(if i % 3 == 0 { 2 } else { 0 });
                }
                n.finish_triangle(25);
            }
            assert!(fast.finish_time() <= slow.finish_time());
        }
    }

    #[test]
    fn unbounded_window_never_stalls() {
        let mut n = node(1.0, None);
        n.start_triangle(0);
        for _ in 0..100 {
            n.fragment(8);
        }
        assert_eq!(n.engine_free(), 100);
        assert_eq!(n.stall_cycles(), 0);
        assert_eq!(n.finish_time(), 1 + 100 * 8 * 16);
    }

    #[test]
    fn infinite_bus_makes_misses_free() {
        let mut n = EngineTiming::new(BusConfig::infinite(), Some(8));
        n.start_triangle(0);
        for _ in 0..50 {
            n.fragment(8);
        }
        assert_eq!(n.finish_time(), 50);
        assert_eq!(n.lines_fetched(), 400, "fetches are counted even if free");
    }

    #[test]
    fn window_occupancy_tracks_in_flight() {
        let mut n = node(1.0, Some(4));
        n.start_triangle(0);
        n.fragment(1);
        assert_eq!(n.window_len(), 1);
        for _ in 0..4 {
            n.fragment(1);
        }
        assert_eq!(n.window_len(), 4, "ring saturates at capacity");
    }

    #[test]
    fn burstiness_hurts_even_at_equal_average_bandwidth() {
        // Section 6: "as the cache misses often happen in bursts, even if
        // the average bandwidth is smaller than the bus, it may often
        // saturate". Same total misses, bursty vs spread.
        // 20 misses over 400 fragments = 320 bus cycles, well under the 400
        // engine cycles: the average fits the bus either way.
        let frags = 400;
        let misses = 20;
        let mut bursty = node(1.0, Some(8));
        bursty.start_triangle(0);
        for i in 0..frags {
            bursty.fragment(if i < misses { 1 } else { 0 });
        }
        let mut spread = node(1.0, Some(8));
        spread.start_triangle(0);
        for i in 0..frags {
            spread.fragment(if i % (frags / misses) == 0 { 1 } else { 0 });
        }
        assert_eq!(bursty.lines_fetched(), spread.lines_fetched());
        assert!(
            bursty.finish_time() > spread.finish_time(),
            "bursty {} vs spread {}",
            bursty.finish_time(),
            spread.finish_time()
        );
    }

    #[test]
    #[should_panic(expected = "at least one fragment")]
    fn zero_window_panics() {
        EngineTiming::new(BusConfig::ratio(1.0), Some(0));
    }

    #[test]
    fn starvation_counts_arrival_gaps() {
        let mut n = node(1.0, Some(8));
        n.start_triangle(100);
        n.fragment(0);
        n.finish_triangle(25);
        // Engine free at 125; next triangle arrives at 200.
        n.start_triangle(200);
        n.fragment(0);
        n.finish_triangle(25);
        assert_eq!(n.starved_cycles(), 100 + 75);
        // An already-queued triangle adds nothing.
        n.start_triangle(0);
        assert_eq!(n.starved_cycles(), 175);
    }

    #[test]
    fn setup_floor_cycles_are_a_subset_of_busy() {
        let mut n = node(1.0, Some(8));
        n.start_triangle(0);
        for _ in 0..5 {
            n.fragment(0);
        }
        n.finish_triangle(25);
        assert_eq!(n.setup_floor_cycles(), 20, "25-cycle floor minus 5 scanned");
        assert_eq!(n.busy_cycles(), 25);
        // A large triangle never pads.
        n.start_triangle(0);
        for _ in 0..40 {
            n.fragment(0);
        }
        n.finish_triangle(25);
        assert_eq!(n.setup_floor_cycles(), 20);
        assert_eq!(n.busy_cycles(), 65);
    }

    #[test]
    fn last_setup_padding_tracks_each_triangle() {
        let mut n = node(1.0, Some(8));
        n.start_triangle(0);
        for _ in 0..5 {
            n.fragment(0);
        }
        n.finish_triangle(25);
        assert_eq!(n.last_setup_padding(), 20, "padded triangle");
        n.start_triangle(0);
        for _ in 0..40 {
            n.fragment(0);
        }
        n.finish_triangle(25);
        assert_eq!(n.last_setup_padding(), 0, "big triangle covers the floor");
    }

    #[test]
    fn engine_time_is_fully_attributed() {
        // engine_free == busy (scan + setup floor) + stall + starved, and
        // finish_time adds only the fill tail: the breakdown identity the
        // observe crate builds on.
        let mut n = node(0.5, Some(4));
        let mut arrival = 0;
        for tri in 0..6u64 {
            arrival += tri * 37;
            n.start_triangle(arrival);
            for i in 0..(tri * 11 % 30) {
                n.fragment(if i % 4 == 0 { 2 } else { 0 });
            }
            n.finish_triangle(25);
        }
        assert_eq!(
            n.engine_free(),
            n.busy_cycles() + n.stall_cycles() + n.starved_cycles()
        );
        assert_eq!(
            n.finish_time(),
            n.engine_free() + n.fill_tail_cycles()
        );
    }

    #[test]
    fn bulk_clean_fragments_match_singles() {
        // fragments_clean(n) must be indistinguishable from n calls of
        // fragment(0), interleaved with missing fragments that load the
        // bus and the prefetch window — including runs shorter than,
        // equal to and longer than the window.
        for window in [Some(2usize), Some(4), Some(32), None] {
            for ratio in [0.25, 1.0] {
                let mut bulk = node(ratio, window);
                let mut single = node(ratio, window);
                for n in [&mut bulk, &mut single] {
                    n.start_triangle(0);
                }
                let runs: [(u32, u64); 7] = [(3, 1), (0, 5), (8, 0), (2, 40), (1, 2), (0, 0), (5, 7)];
                for &(misses, clean) in &runs {
                    bulk.fragment(misses);
                    bulk.fragments_clean(clean);
                    single.fragment(misses);
                    for _ in 0..clean {
                        single.fragment(0);
                    }
                }
                // Force both windows to drain through further misses so a
                // divergent ring state would surface in the timing.
                for _ in 0..40 {
                    bulk.fragment(1);
                    single.fragment(1);
                }
                for n in [&mut bulk, &mut single] {
                    n.finish_triangle(25);
                }
                assert_eq!(bulk.finish_time(), single.finish_time(), "{window:?} {ratio}");
                assert_eq!(bulk.stall_cycles(), single.stall_cycles(), "{window:?} {ratio}");
                assert_eq!(bulk.busy_cycles(), single.busy_cycles());
                assert_eq!(bulk.fragments(), single.fragments());
                assert_eq!(bulk.lines_fetched(), single.lines_fetched());
                assert_eq!(bulk.window_len(), single.window_len());
            }
        }
    }

    #[test]
    fn bulk_clean_preserves_attribution_identity() {
        let mut n = node(0.5, Some(4));
        n.start_triangle(10);
        n.fragment(3);
        n.fragments_clean(100);
        n.fragment(2);
        n.finish_triangle(25);
        assert_eq!(
            n.engine_free(),
            n.busy_cycles() + n.stall_cycles() + n.starved_cycles()
        );
    }

    #[test]
    fn traced_fills_match_untraced_timing() {
        use sortmid_observe::TraceRecorder;

        let lines: Vec<Vec<u32>> = (0..40)
            .map(|i| (0..(i % 3)).map(|j| (i * 7 + j) as u32).collect())
            .collect();

        let mut plain = node(1.0, Some(8));
        plain.start_triangle(0);
        for l in &lines {
            plain.fragment_lines(l);
        }
        plain.finish_triangle(25);

        let mut rec = TraceRecorder::new();
        let mut traced = node(1.0, Some(8));
        traced.start_triangle(0);
        for l in &lines {
            traced.fragment_lines_sink(l, 3, &mut rec);
        }
        traced.finish_triangle(25);

        assert_eq!(plain.finish_time(), traced.finish_time());
        assert_eq!(plain.stall_cycles(), traced.stall_cycles());
        let (.., fills) = rec.counts();
        assert_eq!(fills, traced.lines_fetched());
        // Fill spans tile the bus exactly: total span length == bus_busy.
        let span_total: u64 = rec.bus_spans(3).iter().map(|(s, e)| e - s).sum();
        assert_eq!(span_total, traced.bus_busy_cycles());
    }

    /// The prefetch window as a ring of every in-flight fragment's
    /// completion: once it holds `window` fragments, the next one waits
    /// for the oldest. It reuses an unwindowed `EngineTiming` for the
    /// counters and the triangle calls, which never touch the window.
    struct NaiveEngine {
        engine: EngineTiming,
        window: Option<usize>,
        ring: std::collections::VecDeque<Cycle>,
    }

    impl NaiveEngine {
        /// Scans one fragment that fetches `lines` lines whose bus fills
        /// cost `costs` (none on an infinite bus).
        fn fragment(&mut self, lines: usize, costs: &[Cycle]) {
            let e = &mut self.engine;
            let mut t = e.engine_t + 1;
            if Some(self.ring.len()) == self.window {
                let oldest = self.ring.pop_front().unwrap();
                if oldest > t {
                    e.stall_cycles += oldest - t;
                    t = oldest;
                }
            }
            (e.engine_t, e.busy_cycles, e.fragments) = (t, e.busy_cycles + 1, e.fragments + 1);
            let mut done = t;
            for &cost in costs {
                e.bus_free = e.bus_free.max(t) + cost;
                (e.bus_busy, done) = (e.bus_busy + cost, e.bus_free);
            }
            e.lines_fetched += lines as u64;
            e.last_completion = e.last_completion.max(done);
            if self.window.is_some() {
                self.ring.push_back(done);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Start(Cycle),
        Fragment(u32),
        Lines(Vec<u32>),
        Clean(u64),
        Finish(Cycle),
    }

    #[derive(Debug)]
    struct Case {
        window: Option<usize>,
        ratio: f64,
        dram: bool,
        ops: Vec<Op>,
    }

    fn arb_case(g: &mut sortmid_devharness::prop::Gen) -> Case {
        let window = g.pick(&[Some(1), Some(2), Some(3), Some(7), Some(32), Some(100), None]);
        let ratio = g.pick(&[0.25, 1.0, 2.0, f64::INFINITY]);
        let dram = ratio.is_finite() && g.bool();
        let cap = window.unwrap_or(32) as u64;
        let ops = g.vec(0..120, |g| match g.choice(5) {
            0 => Op::Start(g.u64_below(60)),
            1 => Op::Fragment(g.u32_in(0..4)),
            2 => Op::Lines(g.vec(0..4, |g| g.u32_in(0..64))),
            3 => Op::Clean(g.pick(&[0, 1, cap - 1, cap, cap + 1, 1000])),
            _ => Op::Finish(g.u64_below(40)),
        });
        Case { window, ratio, dram, ops }
    }

    fn counters(e: &EngineTiming) -> [u64; 12] {
        [
            e.engine_free(),
            e.finish_time(),
            e.busy_cycles(),
            e.stall_cycles(),
            e.setup_floor_cycles(),
            e.last_setup_padding(),
            e.starved_cycles(),
            e.fill_tail_cycles(),
            e.fragments(),
            e.triangles(),
            e.lines_fetched(),
            e.bus_busy_cycles(),
        ]
    }

    #[test]
    fn prop_window_matches_naive_ring() {
        // Random operation sequences over every window, bus ratio and the
        // DRAM model: after each operation the engine's public counters
        // equal the naive ring's, and it keeps at most a window of fills.
        use sortmid_devharness::prop::{check, Config};
        use sortmid_devharness::{prop_assert, prop_assert_eq};
        let mut stalled = 0;
        check("window_matches_naive_ring", &Config::with_cases(512), arb_case, |case| {
            let bus = match case.ratio.is_finite() {
                true => BusConfig::ratio(case.ratio),
                false => BusConfig::infinite(),
            };
            let mut engine = match case.dram {
                true => EngineTiming::with_dram(bus, case.window, DramConfig::sdram_like(bus)),
                false => EngineTiming::new(bus, case.window),
            };
            let mut naive = NaiveEngine {
                engine: EngineTiming::new(bus, None),
                window: case.window,
                ring: Default::default(),
            };
            let mut rows = engine.dram.clone();
            let line_cost = bus.line_cost();
            let flat = |k: usize| vec![line_cost; if line_cost > 0 { k } else { 0 }];
            for (i, op) in case.ops.iter().enumerate() {
                match op {
                    Op::Start(back) => {
                        let arrival = (naive.engine.engine_t + 30).saturating_sub(*back);
                        let want = naive.engine.start_triangle(arrival);
                        prop_assert_eq!(engine.start_triangle(arrival), want);
                    }
                    Op::Fragment(k) => {
                        engine.fragment(*k);
                        naive.fragment(*k as usize, &flat(*k as usize));
                    }
                    Op::Lines(lines) => {
                        engine.fragment_lines(lines);
                        let costs = match &mut rows {
                            Some((config, state)) => {
                                lines.iter().map(|&l| state.fill_cost(l, config)).collect()
                            }
                            None => flat(lines.len()),
                        };
                        naive.fragment(lines.len(), &costs);
                    }
                    Op::Clean(n) => {
                        engine.fragments_clean(*n);
                        for _ in 0..*n {
                            naive.fragment(0, &[]);
                        }
                    }
                    Op::Finish(min) => {
                        let want = naive.engine.finish_triangle(*min);
                        prop_assert_eq!(engine.finish_triangle(*min), want);
                    }
                }
                let (got, want) = (counters(&engine), counters(&naive.engine));
                prop_assert!(got == want, "after op {i} {op:?}: {got:?}, naive ring {want:?}");
                let want_rows = rows.as_ref().map(|(_, s)| (s.row_hits(), s.row_misses()));
                prop_assert_eq!(engine.dram_rows(), want_rows);
                let kept = engine.window_len();
                prop_assert!(case.window.is_none_or(|w| kept <= w), "{kept} kept fills");
            }
            stalled += (engine.stall_cycles() > 0) as u32;
            Ok(())
        });
        assert!(stalled > 100, "only {stalled} of 512 cases stall the engine");
    }
}

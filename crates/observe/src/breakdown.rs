//! Per-node cycle accounting.
//!
//! Every cycle between 0 and a node's finish time belongs to exactly one
//! category:
//!
//! * **setup** — padding the 25-cycle triangle-setup floor (Figure 5's
//!   overhead at tiny tiles);
//! * **busy** — the engine scanning fragments (useful shading work);
//! * **bus_stall** — the engine blocked because the prefetch window was
//!   full of outstanding line fills (Section 6's bus saturation);
//! * **starved** — the engine idle with an empty FIFO, waiting for the
//!   geometry stage (Figure 8's head-of-line blocking);
//! * **idle** — after the engine's last scan, while outstanding fills
//!   drain (the fill tail).
//!
//! The identity `setup + busy + bus_stall + starved + idle == finish`
//! holds exactly — the engine attributes each cycle as it advances — and
//! is enforced by [`CycleBreakdown::verify`], a cross-crate property test,
//! and [`SweepBreakdowns`] — the owner of the sweep artefact's
//! `cycle_breakdowns` section, which `bench_check`, the regression gate
//! and `sortmid-diff` all decode.

use crate::artifact::{checked_sum, Artifact};
use crate::provenance::Provenance;
use crate::record;
use crate::Cycle;
use sortmid_util::table::Table;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Where one node's cycles went, category by category.
///
/// # Examples
///
/// ```
/// use sortmid_observe::CycleBreakdown;
///
/// let b = CycleBreakdown { setup: 25, busy: 50, bus_stall: 10, starved: 10, idle: 5 };
/// assert_eq!(b.total(), 100);
/// assert!(b.verify(100).is_ok());
/// assert!(b.verify(99).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleBreakdown {
    /// Cycles padding the per-triangle setup floor.
    pub setup: u64,
    /// Cycles the engine spent scanning fragments.
    pub busy: u64,
    /// Cycles the engine stalled on the saturated texture bus.
    pub bus_stall: u64,
    /// Cycles the engine starved waiting for a triangle from the FIFO.
    pub starved: u64,
    /// Cycles after the engine finished while line fills drained.
    pub idle: u64,
}

/// The category names, in the order the compact JSON arrays use.
pub const CATEGORY_NAMES: [&str; 5] = ["setup", "busy", "bus_stall", "starved", "idle"];

impl CycleBreakdown {
    /// Sum over all categories — equal to the node's finish cycle when
    /// accounting is intact.
    pub fn total(&self) -> u64 {
        self.setup + self.busy + self.bus_stall + self.starved + self.idle
    }

    /// Checks the accounting identity against the node's finish cycle.
    ///
    /// # Errors
    ///
    /// Returns [`CycleIdentityError`] when the categories do not sum to
    /// `finish`.
    pub fn verify(&self, finish: Cycle) -> Result<(), CycleIdentityError> {
        if self.total() == finish {
            Ok(())
        } else {
            Err(CycleIdentityError {
                breakdown: *self,
                finish,
            })
        }
    }

    /// The categories as `[setup, busy, bus_stall, starved, idle]`, in
    /// [`CATEGORY_NAMES`] order.
    pub fn as_array(&self) -> [u64; 5] {
        [self.setup, self.busy, self.bus_stall, self.starved, self.idle]
    }

    /// Each category as a percentage of `finish` (all zeros when `finish`
    /// is zero).
    pub fn percentages(&self, finish: Cycle) -> [f64; 5] {
        if finish == 0 {
            return [0.0; 5];
        }
        self.as_array().map(|c| c as f64 * 100.0 / finish as f64)
    }
}

record! {
    /// The signed change between two sets of [`CycleBreakdown`]s, category
    /// by category (see [`BreakdownDelta::between`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use sortmid_observe::BreakdownDelta;
    ///
    /// // [setup, busy, bus_stall, starved, idle, finish] per node.
    /// let base = [[25, 50, 10, 10, 5, 100]];
    /// let cur = [[25, 50, 40, 5, 5, 125]];
    /// let d = BreakdownDelta::between(&cur, &base).unwrap();
    /// assert_eq!(d.total(), 25);
    /// assert_eq!(d.dominant(), Some(("bus_stall", 30)));
    /// assert!(BreakdownDelta::between(&base, &base).unwrap().is_zero());
    /// ```
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct BreakdownDelta {
        /// Change in setup-floor padding cycles.
        pub setup: i64,
        /// Change in busy (fragment-scanning) cycles.
        pub busy: i64,
        /// Change in bus-stall cycles.
        pub bus_stall: i64,
        /// Change in FIFO-starved cycles.
        pub starved: i64,
        /// Change in fill-tail idle cycles.
        pub idle: i64,
    }
}

impl BreakdownDelta {
    /// The exact five-way change from the `base` to the `cur` node rows
    /// (`[setup, busy, bus_stall, starved, idle, finish]`, paired in
    /// order), summed over the nodes; `None` when a category's change does
    /// not fit an `i64`.
    pub fn between(cur: &[[u64; 6]], base: &[[u64; 6]]) -> Option<BreakdownDelta> {
        let mut sums = [0i128; 5];
        for (c, b) in cur.iter().zip(base) {
            for (k, sum) in sums.iter_mut().enumerate() {
                *sum += c[k] as i128 - b[k] as i128;
            }
        }
        let [setup, busy, bus_stall, starved, idle] = sums.map(|d| i64::try_from(d).ok());
        Some(BreakdownDelta {
            setup: setup?,
            busy: busy?,
            bus_stall: bus_stall?,
            starved: starved?,
            idle: idle?,
        })
    }

    /// Sum over all categories — the net cycle change.
    pub fn total(&self) -> i64 {
        self.setup + self.busy + self.bus_stall + self.starved + self.idle
    }

    /// The categories as `[setup, busy, bus_stall, starved, idle]`, in
    /// [`CATEGORY_NAMES`] order.
    pub fn as_array(&self) -> [i64; 5] {
        [self.setup, self.busy, self.bus_stall, self.starved, self.idle]
    }

    /// True when every category is unchanged.
    pub fn is_zero(&self) -> bool {
        self.as_array() == [0; 5]
    }

    /// The category with the largest absolute change, with its delta
    /// (`None` when all-zero; ties resolve to the earliest category).
    pub fn dominant(&self) -> Option<(&'static str, i64)> {
        let arr = self.as_array();
        // max_by_key keeps the last maximum; reversing makes ties resolve
        // to the earliest category instead.
        let (idx, &delta) = arr
            .iter()
            .enumerate()
            .rev()
            .max_by_key(|(_, d)| d.unsigned_abs())?;
        (delta != 0).then_some((CATEGORY_NAMES[idx], delta))
    }
}

impl fmt::Display for BreakdownDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "setup {:+} / busy {:+} / bus-stall {:+} / starved {:+} / idle {:+}",
            self.setup, self.busy, self.bus_stall, self.starved, self.idle
        )
    }
}

impl Add for CycleBreakdown {
    type Output = CycleBreakdown;

    fn add(self, rhs: CycleBreakdown) -> CycleBreakdown {
        CycleBreakdown {
            setup: self.setup + rhs.setup,
            busy: self.busy + rhs.busy,
            bus_stall: self.bus_stall + rhs.bus_stall,
            starved: self.starved + rhs.starved,
            idle: self.idle + rhs.idle,
        }
    }
}

impl AddAssign for CycleBreakdown {
    fn add_assign(&mut self, rhs: CycleBreakdown) {
        *self = *self + rhs;
    }
}

impl fmt::Display for CycleBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "setup {} / busy {} / bus-stall {} / starved {} / idle {}",
            self.setup, self.busy, self.bus_stall, self.starved, self.idle
        )
    }
}

/// A broken cycle identity: the categories do not sum to the finish time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleIdentityError {
    /// The offending breakdown.
    pub breakdown: CycleBreakdown,
    /// The finish cycle it should have summed to.
    pub finish: Cycle,
}

impl fmt::Display for CycleIdentityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle identity broken: {} sums to {}, finish is {}",
            self.breakdown,
            self.breakdown.total(),
            self.finish
        )
    }
}

impl std::error::Error for CycleIdentityError {}

record! {
    /// One config's entry in a sweep artefact's `cycle_breakdowns`: its
    /// summary (`<procs>p/<distribution>/<cache>/<buffer>...`), its
    /// machine time (the slowest node's finish), and per node
    /// `[setup, busy, bus_stall, starved, idle, finish]` — the five-way
    /// breakdown followed by the finish cycle it sums to.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ConfigBreakdown {
        pub config: String,
        pub total_cycles: u64,
        pub nodes: Vec<[u64; 6]>,
    }
}

record! {
    /// The validated-and-diffed part of `BENCH_sweep.json`: the run's
    /// provenance and per-config cycle breakdowns, in sweep order (the
    /// wall-time lanes around them are bench policy). The sweep bench
    /// appends these fields after the suite's own.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SweepBreakdowns {
        pub provenance: Provenance,
        pub cycle_breakdowns: Vec<ConfigBreakdown>,
    }
}

impl Artifact for SweepBreakdowns {
    /// Each node's five categories sum exactly to its finish, and each
    /// config's `total_cycles` is its slowest node's finish.
    fn verify(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.cycle_breakdowns.is_empty() {
            problems.push("'cycle_breakdowns' is empty".to_string());
        }
        for c in &self.cycle_breakdowns {
            for (n, row) in c.nodes.iter().enumerate() {
                let sum = checked_sum(row[..5].iter().copied());
                if sum != Some(row[5]) {
                    let sum = sum.map_or("more than u64::MAX".to_string(), |s| s.to_string());
                    problems.push(format!(
                        "{}/node{n}: breakdown sums to {sum}, finish is {}",
                        c.config, row[5]
                    ));
                }
            }
            let finishes = c.nodes.iter().map(|row| row[5]);
            if let Some(max) = finishes.max().filter(|&max| max != c.total_cycles) {
                problems.push(format!(
                    "{}: total_cycles {} != max node finish {max}",
                    c.config, c.total_cycles
                ));
            }
        }
        problems
    }
}

/// Renders labelled breakdowns as a table: absolute cycles plus the
/// percentage of each node's finish time, one row per entry.
///
/// # Examples
///
/// ```
/// use sortmid_observe::{breakdown_table, CycleBreakdown};
///
/// let b = CycleBreakdown { setup: 25, busy: 50, bus_stall: 0, starved: 20, idle: 5 };
/// let t = breakdown_table(&[("node 0".to_string(), b, 100)]);
/// assert!(t.to_ascii().contains("starved"));
/// assert!(t.to_csv().contains("20.0"));
/// ```
pub fn breakdown_table(rows: &[(String, CycleBreakdown, Cycle)]) -> Table {
    let mut t = Table::new(&[
        "node", "finish", "setup", "busy", "bus_stall", "starved", "idle", "setup%", "busy%",
        "stall%", "starved%", "idle%",
    ]);
    for (label, b, finish) in rows {
        let pct = b.percentages(*finish);
        let mut row = vec![label.clone(), finish.to_string()];
        row.extend(b.as_array().iter().map(u64::to_string));
        row.extend(pct.iter().map(|p| format!("{p:.1}")));
        t.row_owned(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_and_verifies() {
        let b = CycleBreakdown { setup: 1, busy: 2, bus_stall: 3, starved: 4, idle: 5 };
        assert_eq!(b.total(), 15);
        assert!(b.verify(15).is_ok());
        let err = b.verify(16).unwrap_err();
        assert!(err.to_string().contains("sums to 15"));
    }

    #[test]
    fn addition_is_fieldwise() {
        let a = CycleBreakdown { setup: 1, busy: 2, bus_stall: 3, starved: 4, idle: 5 };
        let mut b = a;
        b += a;
        assert_eq!(b.total(), 30);
        assert_eq!(b.bus_stall, 6);
    }

    #[test]
    fn percentages_split_finish() {
        let b = CycleBreakdown { setup: 25, busy: 25, bus_stall: 25, starved: 25, idle: 0 };
        let pct = b.percentages(100);
        assert_eq!(pct, [25.0, 25.0, 25.0, 25.0, 0.0]);
        assert_eq!(b.percentages(0), [0.0; 5]);
    }

    /// One node's `[setup, busy, bus_stall, starved, idle, finish]` row.
    fn row(b: CycleBreakdown) -> [u64; 6] {
        let [setup, busy, bus_stall, starved, idle] = b.as_array();
        [setup, busy, bus_stall, starved, idle, b.total()]
    }

    #[test]
    fn delta_of_a_breakdown_with_itself_is_zero() {
        let b = row(CycleBreakdown { setup: 7, busy: 11, bus_stall: 13, starved: 17, idle: 19 });
        let d = BreakdownDelta::between(&[b], &[b]).unwrap();
        assert!(d.is_zero());
        assert_eq!(d.total(), 0);
        assert_eq!(d.dominant(), None);
    }

    #[test]
    fn delta_total_matches_breakdown_total_difference() {
        let base = CycleBreakdown { setup: 10, busy: 100, bus_stall: 5, starved: 0, idle: 1 };
        let cur = CycleBreakdown { setup: 12, busy: 90, bus_stall: 45, starved: 3, idle: 0 };
        let d = BreakdownDelta::between(&[row(cur)], &[row(base)]).unwrap();
        assert_eq!(d.total(), cur.total() as i64 - base.total() as i64);
        assert_eq!(d.as_array(), [2, -10, 40, 3, -1]);
        assert_eq!(d.dominant(), Some(("bus_stall", 40)));
        // Antisymmetry: reversing the diff negates every category.
        let r = BreakdownDelta::between(&[row(base)], &[row(cur)]).unwrap();
        assert_eq!(r.as_array().map(|v| -v), d.as_array());
    }

    #[test]
    fn delta_addition_composes_fieldwise() {
        let a = row(CycleBreakdown { setup: 1, busy: 2, bus_stall: 3, starved: 4, idle: 5 });
        let b = row(CycleBreakdown { setup: 5, busy: 4, bus_stall: 3, starved: 2, idle: 1 });
        let c = row(CycleBreakdown { setup: 9, busy: 9, bus_stall: 9, starved: 9, idle: 9 });
        // Summing over nodes composes: (c - b) + (b - a) == c - a.
        let d = BreakdownDelta::between(&[c, b], &[b, a]).unwrap();
        assert_eq!(d, BreakdownDelta::between(&[c], &[a]).unwrap());
        assert!(d.to_string().contains("+8"));
    }

    #[test]
    fn delta_handles_extreme_magnitudes_without_overflow() {
        let zero = [0; 6];
        let huge = [0, 1 << 62, 0, 0, 0, 1 << 62];
        assert_eq!(BreakdownDelta::between(&[huge], &[zero]).unwrap().busy, 1 << 62);
        assert_eq!(BreakdownDelta::between(&[zero], &[huge]).unwrap().busy, -(1i64 << 62));
        // A change past i64 is refused, not wrapped or panicked on.
        let max = [0, u64::MAX, 0, 0, 0, u64::MAX];
        assert_eq!(BreakdownDelta::between(&[max], &[zero]), None);
    }

    #[test]
    fn dominant_tie_resolves_to_the_earliest_category() {
        let d = BreakdownDelta { setup: -5, busy: 0, bus_stall: 5, starved: 0, idle: 0 };
        assert_eq!(d.dominant(), Some(("setup", -5)));
    }

    #[test]
    fn table_has_one_row_per_node() {
        let b = CycleBreakdown { setup: 10, busy: 80, bus_stall: 0, starved: 10, idle: 0 };
        let t = breakdown_table(&[
            ("n0".to_string(), b, 100),
            ("n1".to_string(), b, 100),
        ]);
        assert_eq!(t.len(), 2);
    }
}

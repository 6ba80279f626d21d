//! SDRAM page-mode refinement of the texture bus.
//!
//! The paper's bus is a pure bandwidth ratio ("a ratio of 1 would be
//! equivalent to a machine drawing 400Mpixels/s using 200MHz SDRAM with a
//! 64 bit bus"). Real SDRAM is not flat: a line fill that hits the open
//! row streams at full rate, while one in a different row pays precharge +
//! activate first. Texture blocking keeps consecutive fills in the same
//! row, which is part of why blocked layouts won — this model makes that
//! visible as an ablation.

use crate::Cycle;
use std::fmt;

/// Page-mode timing parameters.
///
/// # Examples
///
/// ```
/// use sortmid_memsys::bus::BusConfig;
/// use sortmid_memsys::dram::DramConfig;
///
/// let dram = DramConfig::sdram_like(BusConfig::ratio(1.0));
/// assert_eq!(dram.row_hit_cost, 16);
/// assert!(dram.row_miss_cost > dram.row_hit_cost);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Cache lines per DRAM row (a 1 KB row of 64-byte lines = 16).
    pub lines_per_row: u32,
    /// Cycles per line fill when the row is already open.
    pub row_hit_cost: Cycle,
    /// Cycles per line fill that must close one row and open another.
    pub row_miss_cost: Cycle,
}

impl DramConfig {
    /// A late-90s SDRAM behind the given bus: row hits stream at the bus
    /// rate, row misses add a precharge + activate penalty of ~12 bus
    /// cycles; 1 KB rows.
    ///
    /// # Panics
    ///
    /// Panics for an infinite bus (page mode is meaningless there).
    pub fn sdram_like(bus: crate::bus::BusConfig) -> Self {
        assert!(!bus.is_infinite(), "page mode needs a finite bus");
        let hit = bus.line_cost();
        DramConfig {
            lines_per_row: 16,
            row_hit_cost: hit,
            row_miss_cost: hit + 12,
        }
    }

    /// The DRAM row containing `line`.
    pub fn row_of(&self, line: u32) -> u32 {
        line / self.lines_per_row
    }
}

impl fmt::Display for DramConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dram({} lines/row, {}/{} cycles)",
            self.lines_per_row, self.row_hit_cost, self.row_miss_cost
        )
    }
}

/// Open-row state of one node's texture SDRAM (single bank — texture
/// memory is a dedicated device in this machine).
#[derive(Debug, Clone, Default)]
pub struct DramState {
    open_row: Option<u32>,
    row_hits: u64,
    row_misses: u64,
}

impl DramState {
    /// Creates a state with all rows closed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cost of filling `line` now, updating the open row.
    pub fn fill_cost(&mut self, line: u32, config: &DramConfig) -> Cycle {
        let row = config.row_of(line);
        if self.open_row == Some(row) {
            self.row_hits += 1;
            config.row_hit_cost
        } else {
            self.open_row = Some(row);
            self.row_misses += 1;
            config.row_miss_cost
        }
    }

    /// Fills that hit the open row.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Fills that had to open a new row.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusConfig;

    fn config() -> DramConfig {
        DramConfig::sdram_like(BusConfig::ratio(1.0))
    }

    #[test]
    fn first_access_misses_then_streams() {
        let cfg = config();
        let mut s = DramState::new();
        assert_eq!(s.fill_cost(0, &cfg), 28);
        assert_eq!(s.fill_cost(1, &cfg), 16);
        assert_eq!(s.fill_cost(15, &cfg), 16);
        assert_eq!(s.fill_cost(16, &cfg), 28, "next row");
        assert_eq!(s.row_hits(), 2);
        assert_eq!(s.row_misses(), 2);
    }

    #[test]
    fn ping_pong_thrashes_rows() {
        let cfg = config();
        let mut s = DramState::new();
        for _ in 0..8 {
            assert_eq!(s.fill_cost(0, &cfg), 28);
            assert_eq!(s.fill_cost(100, &cfg), 28);
        }
        assert_eq!(s.row_hits(), 0);
    }

    #[test]
    #[should_panic(expected = "finite bus")]
    fn infinite_bus_rejected() {
        DramConfig::sdram_like(BusConfig::infinite());
    }
}

//! Screen-space accumulation grids and false-color heatmap rendering.
//!
//! The paper's three interacting effects — load-balance hotspots (Figure
//! 5), setup overhead on tiny tile/triangle intersections, and texture
//! locality loss on thin stripes (Figure 6) — are *spatial* phenomena: they
//! happen at particular places on the screen. [`ScreenGrid`] is the
//! accumulator behind the spatial-metrics layer: per-pixel samples are
//! binned into square tiles of configurable granularity, and the filled
//! grid exports three ways — a false-color PPM heatmap (via
//! `sortmid_util::ppm`), the planes of the `HEATMAP_<preset>.json`
//! artefact ([`crate::attribution::HeatmapDoc`]), and a terminal
//! [`GridSummary`] (max/min tile, imbalance ratio).
//!
//! # Examples
//!
//! ```
//! use sortmid_observe::ScreenGrid;
//!
//! let mut grid: ScreenGrid<u64> = ScreenGrid::new(64, 32, 16);
//! assert_eq!((grid.cols(), grid.rows()), (4, 2));
//! *grid.at(17, 5) += 3; // lands in tile (1, 0)
//! assert_eq!(*grid.cell(1, 0), 3);
//! let s = grid.summarize(|&v| v as f64).unwrap();
//! assert_eq!(s.max, 3.0);
//! assert_eq!(s.max_at, (1, 0));
//! ```

use crate::palette::heat_color;
use sortmid_util::ppm::Image;
use std::fmt;

pub use crate::palette::owner_color;

/// A screen-aligned grid of accumulator cells binned at square `tile`
/// granularity. Generic over the cell type so one structure backs fragment
/// counts, cycle counts and composite per-tile statistics alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenGrid<T> {
    width: u32,
    height: u32,
    tile: u32,
    cols: u32,
    rows: u32,
    cells: Vec<T>,
}

impl<T: Default + Clone> ScreenGrid<T> {
    /// An all-default grid covering a `width`×`height` screen with square
    /// tiles of `tile` pixels (the right/bottom edge tiles may be partial).
    ///
    /// # Panics
    ///
    /// Panics if the screen is empty or `tile` is zero.
    pub fn new(width: u32, height: u32, tile: u32) -> Self {
        assert!(width > 0 && height > 0, "grid needs a non-empty screen");
        assert!(tile > 0, "tile granularity must be positive");
        let cols = width.div_ceil(tile);
        let rows = height.div_ceil(tile);
        ScreenGrid {
            width,
            height,
            tile,
            cols,
            rows,
            cells: vec![T::default(); (cols as usize) * (rows as usize)],
        }
    }
}

impl<T> ScreenGrid<T> {
    /// Screen width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Screen height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Tile edge in pixels.
    pub fn tile(&self) -> u32 {
        self.tile
    }

    /// Number of tile columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of tile rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// All cells in row-major order.
    pub fn cells(&self) -> &[T] {
        &self.cells
    }

    /// The cell of tile `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics if the tile coordinates are out of range.
    pub fn cell(&self, col: u32, row: u32) -> &T {
        assert!(col < self.cols && row < self.rows, "tile out of range");
        &self.cells[(row as usize) * (self.cols as usize) + col as usize]
    }

    /// The cell owning pixel `(x, y)`; coordinates past the screen edge
    /// clamp into the border tile so callers need not pre-clip.
    pub fn at(&mut self, x: u32, y: u32) -> &mut T {
        let col = (x / self.tile).min(self.cols - 1);
        let row = (y / self.tile).min(self.rows - 1);
        &mut self.cells[(row as usize) * (self.cols as usize) + col as usize]
    }

    /// Iterates `(col, row, cell)` in row-major order.
    pub fn enumerate(&self) -> impl Iterator<Item = (u32, u32, &T)> {
        let cols = self.cols;
        self.cells
            .iter()
            .enumerate()
            .map(move |(i, c)| (i as u32 % cols, i as u32 / cols, c))
    }

    /// Max/min/mean of `value` over every tile, with the extreme tiles'
    /// coordinates; `None` only for a grid with no cells (unreachable via
    /// [`new`](Self::new)).
    pub fn summarize(&self, value: impl Fn(&T) -> f64) -> Option<GridSummary> {
        let mut it = self.enumerate();
        let (c0, r0, first) = it.next()?;
        let v0 = value(first);
        let mut s = GridSummary {
            max: v0,
            max_at: (c0, r0),
            min: v0,
            min_at: (c0, r0),
            mean: 0.0,
        };
        let mut sum = v0;
        for (c, r, cell) in it {
            let v = value(cell);
            if v > s.max {
                s.max = v;
                s.max_at = (c, r);
            }
            if v < s.min {
                s.min = v;
                s.min_at = (c, r);
            }
            sum += v;
        }
        s.mean = sum / self.cells.len() as f64;
        Some(s)
    }

    /// Renders `value` as a false-color heatmap, `px_per_tile` image pixels
    /// per tile, normalised by the grid's maximum (an all-zero grid renders
    /// black).
    ///
    /// # Panics
    ///
    /// Panics if `px_per_tile` is zero.
    pub fn render(&self, px_per_tile: u32, value: impl Fn(&T) -> f64) -> Image {
        assert!(px_per_tile > 0, "px_per_tile must be positive");
        let max = self
            .cells
            .iter()
            .map(&value)
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        self.render_rgb(px_per_tile, |cell| heat_color(value(cell) / max))
    }

    /// Renders with an explicit per-tile color (categorical maps such as
    /// tile ownership, where a normalised heat ramp would mislead).
    ///
    /// # Panics
    ///
    /// Panics if `px_per_tile` is zero.
    pub fn render_rgb(&self, px_per_tile: u32, color: impl Fn(&T) -> [u8; 3]) -> Image {
        assert!(px_per_tile > 0, "px_per_tile must be positive");
        let mut img = Image::new(self.cols * px_per_tile, self.rows * px_per_tile);
        for (col, row, cell) in self.enumerate() {
            let rgb = color(cell);
            for dy in 0..px_per_tile {
                for dx in 0..px_per_tile {
                    img.put(col * px_per_tile + dx, row * px_per_tile + dy, rgb);
                }
            }
        }
        img
    }
}

/// Terminal summary of one metric over a [`ScreenGrid`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSummary {
    /// Largest tile value.
    pub max: f64,
    /// `(col, row)` of the largest tile.
    pub max_at: (u32, u32),
    /// Smallest tile value.
    pub min: f64,
    /// `(col, row)` of the smallest tile.
    pub min_at: (u32, u32),
    /// Mean over every tile (empty tiles included).
    pub mean: f64,
}

impl GridSummary {
    /// Hottest tile over the mean tile — the spatial analogue of the
    /// paper's Figure 5 imbalance metric (1.0 = perfectly flat; 0 when the
    /// grid is empty).
    pub fn imbalance_ratio(&self) -> f64 {
        if self.mean <= 0.0 {
            0.0
        } else {
            self.max / self.mean
        }
    }
}

impl fmt::Display for GridSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "max {:.1} @({},{}) min {:.1} @({},{}) mean {:.2} imbalance {:.2}x",
            self.max,
            self.max_at.0,
            self.max_at.1,
            self.min,
            self.min_at.0,
            self.min_at.1,
            self.mean,
            self.imbalance_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_covers_partial_edge_tiles() {
        let mut g: ScreenGrid<u64> = ScreenGrid::new(33, 17, 16);
        assert_eq!((g.cols(), g.rows()), (3, 2));
        *g.at(32, 16) += 1; // bottom-right partial tile
        assert_eq!(*g.cell(2, 1), 1);
        // Past-the-edge samples clamp into the border tile.
        *g.at(1000, 1000) += 1;
        assert_eq!(*g.cell(2, 1), 2);
    }

    #[test]
    fn summarize_finds_extremes_and_mean() {
        let mut g: ScreenGrid<u64> = ScreenGrid::new(32, 32, 16);
        *g.at(0, 0) = 8;
        *g.at(31, 31) = 2;
        let s = g.summarize(|&v| v as f64).unwrap();
        assert_eq!(s.max, 8.0);
        assert_eq!(s.max_at, (0, 0));
        assert_eq!(s.min, 0.0);
        assert_eq!(s.mean, 2.5);
        assert!((s.imbalance_ratio() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn empty_grid_summary_has_zero_imbalance() {
        let g: ScreenGrid<u64> = ScreenGrid::new(16, 16, 16);
        let s = g.summarize(|&v| v as f64).unwrap();
        assert_eq!(s.imbalance_ratio(), 0.0);
    }

    #[test]
    fn render_normalizes_by_max() {
        let mut g: ScreenGrid<u64> = ScreenGrid::new(32, 16, 16);
        *g.at(0, 0) = 10;
        let img = g.render(2, |&v| v as f64);
        assert_eq!((img.width(), img.height()), (4, 2));
        assert_eq!(img.get(0, 0), heat_color(1.0), "hot tile saturates");
        assert_eq!(img.get(2, 0), heat_color(0.0), "cold tile is black");
    }

    #[test]
    fn all_zero_grid_renders_black() {
        let g: ScreenGrid<u64> = ScreenGrid::new(16, 16, 8);
        let img = g.render(1, |&v| v as f64);
        assert_eq!(img.get(0, 0), [0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "tile granularity")]
    fn zero_tile_panics() {
        let _: ScreenGrid<u64> = ScreenGrid::new(16, 16, 0);
    }
}

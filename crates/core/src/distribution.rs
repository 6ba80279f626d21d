//! Screen distributions: square-block and scanline interleaving.
//!
//! Both schemes are *static* and *interleaved*, as the paper requires for a
//! fixed-function chip: the owner of a pixel is a pure function of its
//! coordinates, the block parameter and the processor count.
//!
//! * [`Distribution::Block`] — the screen is a grid of `w × w` tiles; tile
//!   `(tx, ty)` belongs to processor `(tx + s·ty) mod P` with
//!   `s = ceil(sqrt(P))`, which tiles the plane with a dense P-processor
//!   supertile (for square P it is exactly the √P × √P pattern).
//! * [`Distribution::Sli`] — groups of `g` adjacent scanlines dealt
//!   round-robin (the 3dfx Voodoo2 / 3DLabs JetStream scheme).
//! * [`Distribution::DynamicSli`] — the paper's future-work idea: group
//!   boundaries chosen per frame from a measured work profile (see
//!   [`crate::dynamic`]).

use sortmid_geom::Rect;
use std::fmt;
use std::sync::Arc;

/// A static assignment of screen pixels to processors.
///
/// # Examples
///
/// ```
/// use sortmid::Distribution;
///
/// let block = Distribution::block(16);
/// let procs = 4;
/// // Pixels of one 16x16 tile share an owner.
/// let o = block.owner(3, 5, procs);
/// assert_eq!(block.owner(12, 12, procs), o);
/// // The horizontally adjacent tile belongs to someone else.
/// assert_ne!(block.owner(16, 5, procs), o);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Distribution {
    /// Square tiles of the given width, 2-D round-robin interleaved.
    Block {
        /// Tile width and height in pixels.
        width: u32,
    },
    /// Groups of adjacent scanlines, round-robin interleaved.
    Sli {
        /// Scanlines per group.
        lines: u32,
    },
    /// Scanline groups with per-frame boundaries (the dynamic-adjustment
    /// extension). `boundaries[i]` is the first row *after* group `i`;
    /// boundaries are strictly increasing and cover the screen.
    DynamicSli {
        /// Exclusive end row of each group, ascending.
        boundaries: Arc<Vec<u32>>,
    },
    /// Rectangular `width × height` tiles with the same skewed interleave
    /// as [`Distribution::Block`] — the generalisation covering the shape
    /// spectrum between square blocks and scanline groups (an SLI group is
    /// the limit of an infinitely wide tile).
    Tile {
        /// Tile width in pixels.
        width: u32,
        /// Tile height in pixels.
        height: u32,
    },
    /// Square tiles dealt in naive raster-scan round robin — the obvious
    /// interleave a designer might pick first. When the per-row tile count
    /// is a multiple of the processor count this degenerates into vertical
    /// stripes; it exists as the ablation justifying the skewed interleave
    /// of [`Distribution::Block`].
    BlockRaster {
        /// Tile width and height in pixels.
        width: u32,
        /// Tiles per screen row (fixed at construction from the screen
        /// width, since the raster order depends on it).
        tiles_x: u32,
    },
}

impl Distribution {
    /// A block distribution with `width`-pixel square tiles.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn block(width: u32) -> Self {
        assert!(width > 0, "block width must be positive");
        Distribution::Block { width }
    }

    /// An SLI distribution with `lines` scanlines per group.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    pub fn sli(lines: u32) -> Self {
        assert!(lines > 0, "SLI group must have at least one line");
        Distribution::Sli { lines }
    }

    /// A dynamic-SLI distribution from explicit group boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `boundaries` is empty or not strictly increasing.
    pub fn dynamic_sli(boundaries: Vec<u32>) -> Self {
        assert!(!boundaries.is_empty(), "need at least one group");
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly increasing"
        );
        Distribution::DynamicSli {
            boundaries: Arc::new(boundaries),
        }
    }

    /// A rectangular-tile distribution.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn tile(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "tile dimensions must be positive");
        Distribution::Tile { width, height }
    }

    /// A raster-order round-robin block distribution over a screen
    /// `screen_width` pixels wide.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds `screen_width`.
    pub fn block_raster(width: u32, screen_width: u32) -> Self {
        assert!(width > 0, "block width must be positive");
        assert!(screen_width >= width, "screen narrower than one tile");
        Distribution::BlockRaster {
            width,
            tiles_x: screen_width.div_ceil(width),
        }
    }

    /// The skew used by the block interleave.
    fn skew(procs: u32) -> u32 {
        (procs as f64).sqrt().ceil() as u32
    }

    /// The processor owning pixel `(x, y)` in a `procs`-processor machine.
    ///
    /// Coordinates outside the screen still map to a processor (the machine
    /// clips before calling this).
    pub fn owner(&self, x: i32, y: i32, procs: u32) -> u32 {
        debug_assert!(procs >= 1);
        match self {
            Distribution::Block { width } => {
                let w = *width as i32;
                let tx = x.div_euclid(w);
                let ty = y.div_euclid(w);
                let s = Self::skew(procs) as i64;
                ((tx as i64 + s * ty as i64).rem_euclid(procs as i64)) as u32
            }
            Distribution::Tile { width, height } => {
                let tx = x.div_euclid(*width as i32);
                let ty = y.div_euclid(*height as i32);
                let s = Self::skew(procs) as i64;
                ((tx as i64 + s * ty as i64).rem_euclid(procs as i64)) as u32
            }
            Distribution::Sli { lines } => {
                let g = y.div_euclid(*lines as i32);
                g.rem_euclid(procs as i32) as u32
            }
            Distribution::DynamicSli { boundaries } => {
                let y = y.max(0) as u32;
                let g = match boundaries.binary_search(&y) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                (g as u32) % procs
            }
            Distribution::BlockRaster { width, tiles_x } => {
                let w = *width as i32;
                let tx = x.div_euclid(w);
                let ty = y.div_euclid(w);
                let idx = ty as i64 * *tiles_x as i64 + tx as i64;
                idx.rem_euclid(procs as i64) as u32
            }
        }
    }

    /// Bitmask of processors whose regions overlap `bbox` — the set of
    /// nodes the sort-middle network routes a triangle with that bounding
    /// box to (each pays the triangle setup cost).
    ///
    /// # Panics
    ///
    /// Panics if `procs` exceeds [`crate::MAX_PROCESSORS`].
    pub fn overlap_mask(&self, bbox: &Rect, procs: u32) -> u128 {
        assert!(procs <= crate::MAX_PROCESSORS);
        if bbox.is_empty() {
            return 0;
        }
        let full: u128 = if procs == 128 {
            u128::MAX
        } else {
            (1u128 << procs) - 1
        };
        if procs == 1 {
            return 1;
        }
        let mut mask: u128 = 0;
        match self {
            Distribution::Block { width } => {
                return self.skewed_tile_mask(bbox, *width, *width, procs, full);
            }
            Distribution::Tile { width, height } => {
                return self.skewed_tile_mask(bbox, *width, *height, procs, full);
            }
            Distribution::Sli { lines } => {
                let g0 = bbox.y0.div_euclid(*lines as i32) as i64;
                let g1 = (bbox.y1 - 1).div_euclid(*lines as i32) as i64;
                if g1 - g0 + 1 >= procs as i64 {
                    return full;
                }
                for g in g0..=g1 {
                    mask |= 1 << (g.rem_euclid(procs as i64) as u64);
                }
            }
            Distribution::DynamicSli { boundaries } => {
                let find = |y: u32| match boundaries.binary_search(&y) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                let g0 = find(bbox.y0.max(0) as u32);
                let g1 = find((bbox.y1 - 1).max(0) as u32);
                if g1 - g0 + 1 >= procs as usize {
                    return full;
                }
                for g in g0..=g1 {
                    mask |= 1 << ((g as u32) % procs);
                }
            }
            Distribution::BlockRaster { width, tiles_x } => {
                let tiles = bbox.tile_cover(*width, *width);
                let row_len = (tiles.x1 - tiles.x0) as i64;
                for ty in tiles.y0..tiles.y1 {
                    if row_len >= procs as i64 {
                        return full;
                    }
                    let base = (ty as i64 * *tiles_x as i64 + tiles.x0 as i64)
                        .rem_euclid(procs as i64);
                    for k in 0..row_len {
                        mask |= 1 << ((base + k) as u64 % procs as u64);
                    }
                    if mask == full {
                        return full;
                    }
                }
            }
        }
        mask
    }

    /// Shared overlap-mask computation for skew-interleaved tile grids.
    fn skewed_tile_mask(&self, bbox: &Rect, tw: u32, th: u32, procs: u32, full: u128) -> u128 {
        let mut mask: u128 = 0;
        let tiles = bbox.tile_cover(tw, th);
        let s = Self::skew(procs) as i64;
        let row_len = (tiles.x1 - tiles.x0) as i64;
        for ty in tiles.y0..tiles.y1 {
            if row_len >= procs as i64 {
                return full;
            }
            let base = (tiles.x0 as i64 + s * ty as i64).rem_euclid(procs as i64);
            for k in 0..row_len {
                mask |= 1 << ((base + k) as u64 % procs as u64);
            }
            if mask == full {
                return full;
            }
        }
        mask
    }

    /// A short label for tables ("block-16", "sli-4", "dyn-sli").
    pub fn label(&self) -> String {
        match self {
            Distribution::Block { width } => format!("block-{width}"),
            Distribution::Tile { width, height } => format!("tile-{width}x{height}"),
            Distribution::Sli { lines } => format!("sli-{lines}"),
            Distribution::DynamicSli { .. } => "dyn-sli".to_string(),
            Distribution::BlockRaster { width, .. } => format!("block-raster-{width}"),
        }
    }
}

impl fmt::Display for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Error from parsing a distribution label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDistributionError {
    input: String,
}

impl fmt::Display for ParseDistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid distribution '{}' (expected 'block-<width>' or 'sli-<lines>')",
            self.input
        )
    }
}

impl std::error::Error for ParseDistributionError {}

impl std::str::FromStr for Distribution {
    type Err = ParseDistributionError;

    /// Parses the static labels `block-<width>` and `sli-<lines>` (the
    /// forms [`Distribution::label`] prints for them).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseDistributionError { input: s.to_string() };
        if let Some(width) = s.strip_prefix("block-") {
            let width: u32 = width.parse().map_err(|_| err())?;
            if width == 0 {
                return Err(err());
            }
            return Ok(Distribution::block(width));
        }
        if let Some(lines) = s.strip_prefix("sli-") {
            let lines: u32 = lines.parse().map_err(|_| err())?;
            if lines == 0 {
                return Err(err());
            }
            return Ok(Distribution::sli(lines));
        }
        Err(err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortmid_devharness::prop::{check, Config};
    use sortmid_devharness::{prop_assert, prop_assert_eq};

    #[test]
    fn block_partitions_every_pixel() {
        let d = Distribution::block(16);
        for p in [1u32, 2, 4, 7, 16, 64] {
            for (x, y) in [(0, 0), (15, 15), (16, 0), (1599, 1199), (37, 911)] {
                let o = d.owner(x, y, p);
                assert!(o < p, "owner {o} of ({x},{y}) with {p} procs");
            }
        }
    }

    #[test]
    fn block_supertile_is_dense_for_square_p() {
        // With P = 4 and s = 2, a 2x2 tile neighbourhood holds all 4 procs.
        let d = Distribution::block(8);
        let mut seen = std::collections::HashSet::new();
        for ty in 0..2 {
            for tx in 0..2 {
                seen.insert(d.owner(tx * 8, ty * 8, 4));
            }
        }
        assert_eq!(seen.len(), 4);
        // With P = 64 and s = 8, an 8x8 tile neighbourhood holds all 64.
        let mut seen = std::collections::HashSet::new();
        for ty in 0..8 {
            for tx in 0..8 {
                seen.insert(d.owner(tx * 8, ty * 8, 64));
            }
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn block_avoids_vertical_stripes() {
        // Naive raster round-robin would give every row the same owner
        // pattern; the skew must vary owners down a column.
        let d = Distribution::block(16);
        let owners: std::collections::HashSet<u32> =
            (0..8).map(|ty| d.owner(0, ty * 16, 4)).collect();
        assert!(owners.len() >= 2, "column must mix owners: {owners:?}");
    }

    #[test]
    fn sli_rotates_groups() {
        let d = Distribution::sli(4);
        assert_eq!(d.owner(100, 0, 4), 0);
        assert_eq!(d.owner(0, 3, 4), 0);
        assert_eq!(d.owner(0, 4, 4), 1);
        assert_eq!(d.owner(0, 8, 4), 2);
        assert_eq!(d.owner(0, 16, 4), 0);
        // x never matters.
        for x in 0..64 {
            assert_eq!(d.owner(x, 9, 4), d.owner(0, 9, 4));
        }
    }

    #[test]
    fn overlap_mask_block_exact_small_bbox() {
        let d = Distribution::block(16);
        // bbox inside one tile -> exactly one processor.
        let m = d.overlap_mask(&Rect::new(2, 2, 10, 10), 16);
        assert_eq!(m.count_ones(), 1);
        // bbox straddling two tiles horizontally -> two processors.
        let m2 = d.overlap_mask(&Rect::new(10, 2, 20, 10), 16);
        assert_eq!(m2.count_ones(), 2);
    }

    #[test]
    fn overlap_mask_matches_owner_brute_force() {
        let screen = Rect::of_size(128, 128);
        for d in [Distribution::block(8), Distribution::sli(4), Distribution::block(3)] {
            for procs in [2u32, 4, 6, 16] {
                for bbox in [
                    Rect::new(0, 0, 5, 5),
                    Rect::new(7, 7, 41, 23),
                    Rect::new(100, 90, 128, 128),
                    Rect::new(0, 0, 128, 128),
                ] {
                    let mask = d.overlap_mask(&bbox, procs);
                    let mut brute: u128 = 0;
                    for (x, y) in bbox.intersect(&screen).pixels() {
                        brute |= 1 << d.owner(x, y, procs);
                    }
                    // The mask may over-approximate only via whole tiles
                    // that the bbox grazes; for tile-aligned inputs it is
                    // exact, and it must always contain the brute set.
                    assert_eq!(mask & brute, brute, "{d} procs={procs} bbox={bbox}");
                }
            }
        }
    }

    #[test]
    fn full_screen_bbox_touches_everyone() {
        let screen = Rect::of_size(640, 480);
        for d in [Distribution::block(16), Distribution::sli(2)] {
            for procs in [4u32, 64] {
                let m = d.overlap_mask(&screen, procs);
                assert_eq!(m.count_ones(), procs);
            }
        }
    }

    #[test]
    fn dynamic_sli_uses_boundaries() {
        let d = Distribution::dynamic_sli(vec![10, 30, 100]);
        assert_eq!(d.owner(0, 5, 4), 0);
        assert_eq!(d.owner(0, 10, 4), 1);
        assert_eq!(d.owner(0, 29, 4), 1);
        assert_eq!(d.owner(0, 30, 4), 2);
        assert_eq!(d.owner(0, 99, 4), 2);
        assert_eq!(d.owner(0, 100, 4), 3);
        let m = d.overlap_mask(&Rect::new(0, 5, 64, 31), 4);
        assert_eq!(m, 0b0111);
    }

    #[test]
    fn square_tile_matches_block() {
        let block = Distribution::block(16);
        let tile = Distribution::tile(16, 16);
        for procs in [1u32, 4, 7, 64] {
            for (x, y) in [(0, 0), (15, 31), (100, 3), (999, 777)] {
                assert_eq!(block.owner(x, y, procs), tile.owner(x, y, procs));
            }
            let bbox = Rect::new(3, 9, 200, 150);
            assert_eq!(block.overlap_mask(&bbox, procs), tile.overlap_mask(&bbox, procs));
        }
    }

    #[test]
    fn wide_tile_approaches_sli() {
        // A tile spanning the whole screen width owns full bands of rows,
        // like an SLI group (the interleave order differs by the skew).
        let tile = Distribution::tile(4096, 4);
        for x in [0, 100, 4000] {
            assert_eq!(tile.owner(x, 2, 8), tile.owner(0, 2, 8), "x must not matter");
        }
        assert_ne!(tile.owner(0, 2, 8), tile.owner(0, 6, 8), "bands differ");
    }

    #[test]
    fn tile_mask_covers_owners() {
        let d = Distribution::tile(32, 8);
        for procs in [3u32, 16, 64] {
            let bbox = Rect::new(10, 5, 90, 60);
            let mask = d.overlap_mask(&bbox, procs);
            for (x, y) in bbox.pixels() {
                assert!(mask & (1 << d.owner(x, y, procs)) != 0);
            }
        }
    }

    #[test]
    fn tile_labels() {
        assert_eq!(Distribution::tile(64, 4).label(), "tile-64x4");
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_tile_panics() {
        Distribution::tile(16, 0);
    }

    #[test]
    fn block_raster_degenerates_into_stripes() {
        // 64 tiles per row, 4 procs: 64 % 4 == 0, every row repeats the
        // same pattern -> columns are single-owner stripes.
        let d = Distribution::block_raster(16, 1024);
        for tx in 0..8 {
            let owner = d.owner(tx * 16, 0, 4);
            for ty in 1..8 {
                assert_eq!(d.owner(tx * 16, ty * 16, 4), owner, "stripe broken at {tx},{ty}");
            }
        }
        // The skewed interleave does not stripe.
        let skewed = Distribution::block(16);
        let column: std::collections::HashSet<u32> =
            (0..8).map(|ty| skewed.owner(0, ty * 16, 4)).collect();
        assert!(column.len() > 1);
    }

    #[test]
    fn block_raster_mask_covers_owners() {
        let d = Distribution::block_raster(8, 256);
        for procs in [3u32, 4, 16] {
            let bbox = Rect::new(5, 9, 60, 40);
            let mask = d.overlap_mask(&bbox, procs);
            for (x, y) in bbox.pixels() {
                assert!(mask & (1 << d.owner(x, y, procs)) != 0);
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Distribution::block(16).label(), "block-16");
        assert_eq!(Distribution::sli(4).label(), "sli-4");
        assert_eq!(Distribution::dynamic_sli(vec![8]).label(), "dyn-sli");
        assert_eq!(format!("{}", Distribution::block(2)), "block-2");
    }

    #[test]
    fn parse_round_trips_static_labels() {
        for d in [Distribution::block(16), Distribution::block(1), Distribution::sli(4)] {
            let parsed: Distribution = d.label().parse().unwrap();
            assert_eq!(parsed, d);
        }
        assert!("block-0".parse::<Distribution>().is_err());
        assert!("sli-".parse::<Distribution>().is_err());
        assert!("mosaic-3".parse::<Distribution>().is_err());
        let err = "nope".parse::<Distribution>().unwrap_err();
        assert!(err.to_string().contains("invalid distribution"));
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_block_panics() {
        Distribution::block(0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_boundaries_panic() {
        Distribution::dynamic_sli(vec![10, 10]);
    }

    /// Every pixel has exactly one owner below the processor count, and
    /// single-processor machines own everything.
    #[test]
    fn prop_owner_in_range() {
        check(
            "owner_in_range",
            &Config::default(),
            |g| {
                (
                    g.i32_in(0..2048),
                    g.i32_in(0..2048),
                    g.u32_in(1..129),
                    g.u32_in(1..64),
                )
            },
            |&(x, y, procs, width)| {
                let b = Distribution::block(width);
                prop_assert!(b.owner(x, y, procs) < procs);
                prop_assert_eq!(b.owner(x, y, 1), 0);
                let s = Distribution::sli(width);
                prop_assert!(s.owner(x, y, procs) < procs);
                Ok(())
            },
        );
    }

    /// The overlap mask always contains the owner of every pixel in the
    /// bbox (no triangle is ever dropped).
    #[test]
    fn prop_mask_covers_owners() {
        check(
            "mask_covers_owners",
            &Config::default(),
            |g| {
                (
                    (g.i32_in(0..200), g.i32_in(0..200)),
                    (g.i32_in(1..60), g.i32_in(1..60)),
                    g.u32_in(1..129),
                    g.u32_in(1..40),
                )
            },
            |&((x0, y0), (w, h), procs, param)| {
                let bbox = Rect::new(x0, y0, x0 + w, y0 + h);
                for d in [Distribution::block(param), Distribution::sli(param)] {
                    let mask = d.overlap_mask(&bbox, procs);
                    for (x, y) in bbox.pixels() {
                        prop_assert!(mask & (1 << d.owner(x, y, procs)) != 0);
                    }
                }
                Ok(())
            },
        );
    }
}

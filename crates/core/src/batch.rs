//! Struct-of-arrays fragment lanes: the batched core's input format.
//!
//! The batched core resolves a fragment's whole footprint with one
//! [`LineCache::access_lane`](sortmid_cache::LineCache::access_lane) call,
//! so it reads fragments as dense arrays — 8 footprint line ids per
//! fragment plus pixel coordinates — instead of 40-byte [`Fragment`]s.
//! The direct engine fills one [`LaneScratch`] per node with that node's
//! fragments of the triangle in flight, in stream order, and clears it
//! once the node has scanned them, so memory stays O(triangle) whatever
//! the stream.

use sortmid_raster::Fragment;
use sortmid_texture::footprint_lines;

/// One node's fragments of one triangle, as lanes: `lines` holds
/// `TEXELS_PER_FRAGMENT` line ids per fragment, `xs`/`ys` one coordinate
/// pair per fragment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TriangleLanes<'a> {
    pub(crate) lines: &'a [u32],
    pub(crate) xs: &'a [u16],
    pub(crate) ys: &'a [u16],
}

impl TriangleLanes<'_> {
    /// Number of fragments in the slice.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.xs.len()
    }
}

/// One node's fragments of the triangle in flight, as lanes: the direct
/// engine appends each owned fragment, hands the node a [`TriangleLanes`]
/// view, then clears — the allocation is reused for the next triangle.
#[derive(Debug, Default)]
pub(crate) struct LaneScratch {
    lines: Vec<u32>,
    xs: Vec<u16>,
    ys: Vec<u16>,
}

impl LaneScratch {
    /// Appends one fragment's footprint lines and pixel coordinates.
    #[inline]
    pub(crate) fn push(&mut self, frag: &Fragment) {
        self.lines.extend_from_slice(&footprint_lines(&frag.texels));
        self.xs.push(frag.x);
        self.ys.push(frag.y);
    }

    /// The fragments appended since the last [`clear`](Self::clear).
    #[inline]
    pub(crate) fn lanes(&self) -> TriangleLanes<'_> {
        TriangleLanes {
            lines: &self.lines,
            xs: &self.xs,
            ys: &self.ys,
        }
    }

    /// Empties the buffer, keeping its capacity.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.lines.clear();
        self.xs.clear();
        self.ys.clear();
    }
}

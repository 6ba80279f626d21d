//! Rasterizing a scene into a replayable fragment stream.

use crate::fragment::{Fragment, TriangleRecord};
use crate::setup::TriangleSetup;
use sortmid_geom::{Rect, Triangle};
use sortmid_texture::{TextureId, TextureRegistry, TrilinearSampler};

/// Error from [`FragmentStream::from_parts`]: parts the rasterizer could
/// never have emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamPartsError {
    /// The triangle records do not tile the fragment array contiguously
    /// and in order.
    Untiled,
    /// Fragment `fragment` lies outside the screen.
    OffScreen {
        /// Index of the fragment.
        fragment: usize,
    },
    /// Fragment `fragment` lies outside the bounding box of `triangle`,
    /// the triangle that owns it. A culled triangle's box is empty, so it
    /// owns no fragment.
    OutsideBox {
        /// Index of the owning triangle.
        triangle: usize,
        /// Index of the fragment.
        fragment: usize,
    },
}

impl std::fmt::Display for StreamPartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamPartsError::Untiled => {
                write!(f, "triangle records do not tile the fragment array")
            }
            StreamPartsError::OffScreen { fragment } => {
                write!(f, "fragment {fragment} lies outside the screen")
            }
            StreamPartsError::OutsideBox { triangle, fragment } => write!(
                f,
                "fragment {fragment} lies outside the bounding box of its triangle {triangle}"
            ),
        }
    }
}

impl std::error::Error for StreamPartsError {}

/// The rasterized form of a scene: triangles in stream order, each with its
/// covered fragments and their precomputed trilinear footprints.
///
/// # Examples
///
/// See [`rasterize`].
#[derive(Debug, Clone)]
pub struct FragmentStream {
    screen: Rect,
    triangles: Vec<TriangleRecord>,
    fragments: Vec<Fragment>,
}

impl FragmentStream {
    /// Reassembles a stream from its parts (deserialization); validates
    /// that the triangle records tile the fragment array contiguously and
    /// in order, and that every fragment lies on the screen and inside its
    /// triangle's bounding box, as the rasterizer emits them.
    ///
    /// # Errors
    ///
    /// Returns the first [`StreamPartsError`] found: records that do not
    /// partition `fragments` exactly, then the first fragment off the
    /// screen or outside its triangle's box.
    pub fn from_parts(
        screen: Rect,
        triangles: Vec<TriangleRecord>,
        fragments: Vec<Fragment>,
    ) -> Result<Self, StreamPartsError> {
        let mut cursor = 0u32;
        for t in &triangles {
            if t.frag_start != cursor || t.frag_end < t.frag_start {
                return Err(StreamPartsError::Untiled);
            }
            cursor = t.frag_end;
        }
        if cursor as usize != fragments.len() {
            return Err(StreamPartsError::Untiled);
        }
        for (triangle, t) in triangles.iter().enumerate() {
            let range = t.frag_start as usize..t.frag_end as usize;
            for (fragment, f) in range.clone().zip(&fragments[range]) {
                let (x, y) = (f.x as i32, f.y as i32);
                if !screen.contains(x, y) {
                    return Err(StreamPartsError::OffScreen { fragment });
                }
                if !t.bbox.contains(x, y) {
                    return Err(StreamPartsError::OutsideBox { triangle, fragment });
                }
            }
        }
        Ok(FragmentStream {
            screen,
            triangles,
            fragments,
        })
    }

    /// The screen the stream was rasterized against.
    #[inline]
    pub fn screen(&self) -> Rect {
        self.screen
    }

    /// All triangle records, in the geometry stage's stream order.
    #[inline]
    pub fn triangles(&self) -> &[TriangleRecord] {
        &self.triangles
    }

    /// All fragments, grouped by triangle in stream order.
    #[inline]
    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    /// The fragments of one triangle.
    #[inline]
    pub fn fragments_of(&self, tri: &TriangleRecord) -> &[Fragment] {
        &self.fragments[tri.frag_start as usize..tri.frag_end as usize]
    }

    /// Total fragments (the paper's "pixels rendered").
    pub fn fragment_count(&self) -> u64 {
        self.fragments.len() as u64
    }

    /// Number of triangles (including culled ones).
    pub fn triangle_count(&self) -> usize {
        self.triangles.len()
    }

    /// Average depth complexity: fragments per screen pixel.
    pub fn depth_complexity(&self) -> f64 {
        let area = self.screen.area();
        if area == 0 {
            0.0
        } else {
            self.fragments.len() as f64 / area as f64
        }
    }
}

/// Rasterizes a triangle stream against `screen`, resolving every
/// fragment's 8-texel trilinear footprint through `registry`.
///
/// Culled triangles (degenerate or fully off screen) keep a record with an
/// empty bounding box so stream order is preserved, but produce no
/// fragments and will not be routed to any node.
///
/// # Panics
///
/// Panics if a triangle references a texture id not present in `registry`,
/// or if the screen exceeds 65 536 pixels on a side (fragment coordinates
/// are stored as `u16`).
///
/// # Examples
///
/// ```
/// use sortmid_geom::{Rect, Triangle, Vertex};
/// use sortmid_texture::{TextureDesc, TextureRegistry};
/// use sortmid_raster::rasterize;
///
/// # fn main() -> Result<(), sortmid_texture::TextureError> {
/// let mut reg = TextureRegistry::new();
/// let tex = reg.register(TextureDesc::new(32, 32)?)?;
/// let tri = Triangle::new(
///     tex.0,
///     [
///         Vertex::new(0.0, 0.0, 0.0, 0.0),
///         Vertex::new(8.0, 0.0, 8.0, 0.0),
///         Vertex::new(0.0, 8.0, 0.0, 8.0),
///     ],
/// );
/// let stream = rasterize(&[tri], &reg, Rect::of_size(32, 32));
/// assert_eq!(stream.triangle_count(), 1);
/// assert_eq!(stream.fragment_count(), 36);
/// # Ok(())
/// # }
/// ```
pub fn rasterize(triangles: &[Triangle], registry: &TextureRegistry, screen: Rect) -> FragmentStream {
    assert!(
        screen.width() <= u16::MAX as u32 + 1 && screen.height() <= u16::MAX as u32 + 1,
        "screen too large for u16 fragment coordinates"
    );
    let sampler = TrilinearSampler::new(registry);
    let mut records = Vec::with_capacity(triangles.len());
    let mut fragments: Vec<Fragment> = Vec::new();
    for tri in triangles {
        let texture = TextureId(tri.texture());
        let frag_start = fragments.len() as u32;
        match TriangleSetup::new(tri, screen) {
            Some(setup) => {
                let lod = setup.lod();
                setup.scan(|x, y, u, v| {
                    fragments.push(Fragment {
                        x: x as u16,
                        y: y as u16,
                        texels: sampler.footprint(texture, u, v, lod),
                    });
                });
                records.push(TriangleRecord {
                    texture,
                    bbox: setup.bbox(),
                    frag_start,
                    frag_end: fragments.len() as u32,
                });
            }
            None => {
                records.push(TriangleRecord {
                    texture,
                    bbox: Rect::EMPTY,
                    frag_start,
                    frag_end: frag_start,
                });
            }
        }
    }
    FragmentStream {
        screen,
        triangles: records,
        fragments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortmid_devharness::prop::{check, Config};
    use sortmid_devharness::prop_assert_eq;
    use sortmid_geom::Vertex;
    use sortmid_texture::TextureDesc;

    fn registry() -> TextureRegistry {
        let mut reg = TextureRegistry::new();
        reg.register(TextureDesc::new(64, 64).unwrap()).unwrap();
        reg.register(TextureDesc::new(32, 32).unwrap()).unwrap();
        reg
    }

    fn tri(tex: u32, coords: [(f32, f32); 3]) -> Triangle {
        Triangle::new(
            tex,
            [
                Vertex::new(coords[0].0, coords[0].1, coords[0].0, coords[0].1),
                Vertex::new(coords[1].0, coords[1].1, coords[1].0, coords[1].1),
                Vertex::new(coords[2].0, coords[2].1, coords[2].0, coords[2].1),
            ],
        )
    }

    #[test]
    fn stream_preserves_order_and_ranges() {
        let reg = registry();
        let tris = vec![
            tri(0, [(0.0, 0.0), (8.0, 0.0), (0.0, 8.0)]),
            tri(1, [(10.0, 10.0), (14.0, 10.0), (10.0, 14.0)]),
        ];
        let s = rasterize(&tris, &reg, Rect::of_size(64, 64));
        assert_eq!(s.triangle_count(), 2);
        let r0 = s.triangles()[0];
        let r1 = s.triangles()[1];
        assert_eq!(r0.frag_start, 0);
        assert_eq!(r0.frag_end, r1.frag_start);
        assert_eq!(r1.frag_end as u64, s.fragment_count());
        assert_eq!(r0.texture, TextureId(0));
        assert_eq!(r1.texture, TextureId(1));
        assert_eq!(s.fragments_of(&r0).len(), r0.fragment_count() as usize);
    }

    #[test]
    fn culled_triangles_keep_their_slot() {
        let reg = registry();
        let tris = vec![
            tri(0, [(100.0, 100.0), (120.0, 100.0), (100.0, 120.0)]), // off screen
            tri(0, [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]),
        ];
        let s = rasterize(&tris, &reg, Rect::of_size(64, 64));
        assert_eq!(s.triangle_count(), 2);
        assert!(s.triangles()[0].is_culled());
        assert_eq!(s.triangles()[0].fragment_count(), 0);
        assert!(!s.triangles()[1].is_culled());
    }

    /// The parts of a 64×64 stream: a culled triangle, then one covering
    /// (0, 0)–(4, 4).
    fn parts() -> (Rect, Vec<TriangleRecord>, Vec<Fragment>) {
        let tris = vec![
            tri(0, [(100.0, 100.0), (120.0, 100.0), (100.0, 120.0)]), // off screen
            tri(0, [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]),
        ];
        let s = rasterize(&tris, &registry(), Rect::of_size(64, 64));
        assert!(s.fragment_count() > 1);
        (s.screen(), s.triangles().to_vec(), s.fragments().to_vec())
    }

    #[test]
    fn from_parts_accepts_what_the_rasterizer_emits() {
        let (screen, triangles, fragments) = parts();
        let s = FragmentStream::from_parts(screen, triangles.clone(), fragments.clone()).unwrap();
        assert_eq!((s.triangles(), s.fragments()), (&triangles[..], &fragments[..]));
    }

    #[test]
    fn from_parts_rejects_records_that_do_not_tile() {
        let (screen, mut triangles, fragments) = parts();
        triangles[1].frag_end -= 1;
        let err = FragmentStream::from_parts(screen, triangles, fragments).unwrap_err();
        assert_eq!(err, StreamPartsError::Untiled);
    }

    #[test]
    fn from_parts_rejects_a_fragment_off_screen() {
        let (screen, triangles, mut fragments) = parts();
        fragments[1].x = 200;
        let err = FragmentStream::from_parts(screen, triangles, fragments).unwrap_err();
        assert_eq!(err, StreamPartsError::OffScreen { fragment: 1 });
    }

    #[test]
    fn from_parts_rejects_a_fragment_outside_its_box() {
        let (screen, triangles, mut fragments) = parts();
        (fragments[0].x, fragments[0].y) = (20, 40);
        let err = FragmentStream::from_parts(screen, triangles, fragments).unwrap_err();
        assert_eq!(err, StreamPartsError::OutsideBox { triangle: 1, fragment: 0 });
        assert!(err.to_string().contains("bounding box"), "{err}");
    }

    #[test]
    fn from_parts_rejects_a_culled_triangle_that_owns_fragments() {
        let (screen, mut triangles, fragments) = parts();
        assert!(triangles[0].is_culled());
        triangles[0].frag_end = 1;
        triangles[1].frag_start = 1;
        let err = FragmentStream::from_parts(screen, triangles, fragments).unwrap_err();
        assert_eq!(err, StreamPartsError::OutsideBox { triangle: 0, fragment: 0 });
    }

    #[test]
    fn depth_complexity_counts_overdraw() {
        let reg = registry();
        // The same triangle drawn 3 times on a 16x16 screen.
        let one = tri(0, [(0.0, 0.0), (16.0, 0.0), (0.0, 16.0)]);
        let s = rasterize(&[one, one, one], &reg, Rect::of_size(16, 16));
        let single = rasterize(&[one], &reg, Rect::of_size(16, 16));
        assert_eq!(s.fragment_count(), 3 * single.fragment_count());
        assert!((s.depth_complexity() - 3.0 * single.depth_complexity()).abs() < 1e-9);
    }

    #[test]
    fn fragments_lie_in_bbox_and_screen() {
        let reg = registry();
        let t = tri(0, [(-5.0, 3.0), (70.0, 10.0), (20.0, 90.0)]);
        let s = rasterize(&[t], &reg, Rect::of_size(64, 64));
        let rec = s.triangles()[0];
        for f in s.fragments_of(&rec) {
            assert!(rec.bbox.contains(f.x as i32, f.y as i32));
            assert!(s.screen().contains(f.x as i32, f.y as i32));
        }
        assert!(s.fragment_count() > 0);
    }

    #[test]
    fn magnified_texture_footprint_stays_on_base_level() {
        let mut reg = TextureRegistry::new();
        let id = reg.register(TextureDesc::new(64, 64).unwrap()).unwrap();
        // 32x32 pixels sampling only 8x8 texels: strong magnification.
        let t = Triangle::new(
            id.0,
            [
                Vertex::new(0.0, 0.0, 0.0, 0.0),
                Vertex::new(32.0, 0.0, 8.0, 0.0),
                Vertex::new(0.0, 32.0, 0.0, 8.0),
            ],
        );
        let s = rasterize(&[t], &reg, Rect::of_size(64, 64));
        // LOD 0: first 4 texels on level 0, whose addresses are below the
        // level-1 base.
        let level1_base = reg.texel_addr(id, 1, 0, 0).index();
        for f in s.fragments() {
            for t in &f.texels[0..4] {
                assert!(t.index() < level1_base);
            }
        }
    }

    /// Fragment count is invariant under triangle order permutation
    /// (rasterization is per-triangle), and every fragment's pixel is
    /// covered by its triangle's bbox.
    #[test]
    fn prop_fragment_totals_are_per_triangle() {
        check(
            "fragment_totals_are_per_triangle",
            &Config::default(),
            |g| g.vec(3..12, |g| (g.f32_in(0.0, 56.0), g.f32_in(0.0, 56.0))),
            |xs| {
                let reg = registry();
                let tris: Vec<Triangle> = xs
                    .windows(3)
                    .map(|w| {
                        tri(0, [(w[0].0, w[0].1), (w[1].0 + 4.0, w[1].1), (w[2].0, w[2].1 + 4.0)])
                    })
                    .collect();
                let forward = rasterize(&tris, &reg, Rect::of_size(64, 64));
                let mut reversed_tris = tris.clone();
                reversed_tris.reverse();
                let backward = rasterize(&reversed_tris, &reg, Rect::of_size(64, 64));
                prop_assert_eq!(forward.fragment_count(), backward.fragment_count());
                Ok(())
            },
        );
    }
}

//! Trilinear filtering footprints: the 8 texels a fragment reads.

use crate::layout::{TexelAddr, TextureId, TextureRegistry};
use crate::TEXELS_PER_FRAGMENT;

/// Computes the 8-texel trilinear footprint of fragments.
///
/// The paper's engine performs trilinear mip-mapped filtering: each fragment
/// reads a 2×2 bilinear neighbourhood on each of the two mip levels
/// bracketing its LOD λ (`floor(λ)` and `floor(λ)+1`, clamped to the chain).
/// At the top of the chain the same level is read twice — the engine still
/// issues 8 reads, which is what the cache's 8-accesses-per-cycle port
/// sustains.
///
/// # Examples
///
/// ```
/// use sortmid_texture::{TextureDesc, TextureRegistry, TrilinearSampler};
///
/// let mut reg = TextureRegistry::new();
/// let id = reg.register(TextureDesc::new(64, 64)?)?;
/// let sampler = TrilinearSampler::new(&reg);
/// let addrs = sampler.footprint(id, 10.0, 20.0, 0.0);
/// assert_eq!(addrs.len(), 8);
/// # Ok::<(), sortmid_texture::TextureError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TrilinearSampler<'a> {
    registry: &'a TextureRegistry,
}

impl<'a> TrilinearSampler<'a> {
    /// Creates a sampler over `registry`.
    pub fn new(registry: &'a TextureRegistry) -> Self {
        TrilinearSampler { registry }
    }

    /// The registry this sampler resolves addresses against.
    pub fn registry(&self) -> &'a TextureRegistry {
        self.registry
    }

    /// The two mip levels bracketing a continuous LOD for texture `id`.
    pub fn mip_pair(&self, id: TextureId, lod: f32) -> (u32, u32) {
        let max = self.registry.mip_levels(id) - 1;
        let l0 = (lod.max(0.0).floor() as u32).min(max);
        (l0, (l0 + 1).min(max))
    }

    /// The 8 texel addresses a fragment at base-level coordinate `(u, v)`
    /// (texels) with LOD `lod` reads.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not registered.
    pub fn footprint(&self, id: TextureId, u: f32, v: f32, lod: f32) -> [TexelAddr; TEXELS_PER_FRAGMENT] {
        let (l0, l1) = self.mip_pair(id, lod);
        let mut out = [TexelAddr::from_index(0); TEXELS_PER_FRAGMENT];
        self.bilinear_quad(id, l0, u, v, &mut out[0..4]);
        self.bilinear_quad(id, l1, u, v, &mut out[4..8]);
        out
    }

    /// The 2×2 bilinear neighbourhood on one level; `(u, v)` are base-level
    /// texel coordinates, scaled down to the level.
    fn bilinear_quad(&self, id: TextureId, level: u32, u: f32, v: f32, out: &mut [TexelAddr]) {
        debug_assert_eq!(out.len(), 4);
        let scale = 1.0 / (1u32 << level) as f32;
        // Sample point in this level's texel space; the -0.5 centres the
        // 2x2 footprint on the sample as OpenGL does.
        let lu = u * scale - 0.5;
        let lv = v * scale - 0.5;
        let i0 = lu.floor() as i32;
        let j0 = lv.floor() as i32;
        out[0] = self.registry.texel_addr(id, level, i0, j0);
        out[1] = self.registry.texel_addr(id, level, i0 + 1, j0);
        out[2] = self.registry.texel_addr(id, level, i0, j0 + 1);
        out[3] = self.registry.texel_addr(id, level, i0 + 1, j0 + 1);
    }
}

/// Converts a fragment's 8-texel trilinear footprint into its 8 cache-line
/// ids, in probe order.
///
/// The machine only ever probes the cache at *line* granularity, so its
/// batched fragment core reads each footprint as one 8-wide line-id lane.
/// Each 2×2 bilinear quad usually sits inside one or two 4×4 blocks, so
/// lanes carry runs of equal line ids: a repeat is its set's MRU way,
/// which the set-associative probe hits on its first compare, and the
/// three-C classifier's lane skips.
#[inline]
pub fn footprint_lines(texels: &[TexelAddr; TEXELS_PER_FRAGMENT]) -> [u32; TEXELS_PER_FRAGMENT] {
    let mut out = [0u32; TEXELS_PER_FRAGMENT];
    for (slot, t) in out.iter_mut().zip(texels) {
        *slot = t.line();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TextureDesc;
    use std::collections::HashSet;

    fn setup(w: u32, h: u32) -> (TextureRegistry, TextureId) {
        let mut reg = TextureRegistry::new();
        let id = reg.register(TextureDesc::new(w, h).unwrap()).unwrap();
        (reg, id)
    }

    #[test]
    fn mip_pair_brackets_lod() {
        let (reg, id) = setup(64, 64); // 7 levels: 0..=6
        let s = TrilinearSampler::new(&reg);
        assert_eq!(s.mip_pair(id, 0.0), (0, 1));
        assert_eq!(s.mip_pair(id, 2.7), (2, 3));
        assert_eq!(s.mip_pair(id, 6.0), (6, 6));
        assert_eq!(s.mip_pair(id, 99.0), (6, 6));
        assert_eq!(s.mip_pair(id, -3.0), (0, 1));
    }

    #[test]
    fn footprint_is_eight_addrs_two_levels() {
        let (reg, id) = setup(64, 64);
        let s = TrilinearSampler::new(&reg);
        let fp = s.footprint(id, 32.0, 32.0, 1.5);
        assert_eq!(fp.len(), 8);
        // First four on level 1, last four on level 2: disjoint ranges.
        let l1: HashSet<_> = fp[0..4].iter().collect();
        let l2: HashSet<_> = fp[4..8].iter().collect();
        assert!(l1.is_disjoint(&l2));
    }

    #[test]
    fn interior_footprint_covers_2x2() {
        let (reg, id) = setup(64, 64);
        let s = TrilinearSampler::new(&reg);
        let fp = s.footprint(id, 10.5, 20.5, 0.0);
        // At a texel center +0.5, the quad is texels (10,20)..(11,21).
        let expect: HashSet<_> = [(10, 20), (11, 20), (10, 21), (11, 21)]
            .iter()
            .map(|&(u, v)| reg.texel_addr(id, 0, u, v))
            .collect();
        let got: HashSet<_> = fp[0..4].iter().copied().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn adjacent_fragments_share_texels() {
        // The essence of texture-cache locality: neighbouring pixels at
        // ~1 texel/pixel share most of their footprint.
        let (reg, id) = setup(64, 64);
        let s = TrilinearSampler::new(&reg);
        let a: HashSet<_> = s.footprint(id, 10.5, 20.5, 0.0).into_iter().collect();
        let b: HashSet<_> = s.footprint(id, 11.5, 20.5, 0.0).into_iter().collect();
        let shared = a.intersection(&b).count();
        assert!(shared >= 3, "expected sharing, got {shared}");
    }

    #[test]
    fn top_of_chain_duplicates_level() {
        let (reg, id) = setup(4, 4); // 3 levels: 0,1,2
        let s = TrilinearSampler::new(&reg);
        let fp = s.footprint(id, 1.0, 1.0, 10.0);
        // Both halves sample level 2 (1x1): all eight addresses equal.
        let uniq: HashSet<_> = fp.iter().collect();
        assert_eq!(uniq.len(), 1);
    }

    #[test]
    fn footprints_stay_inside_the_registry() {
        use sortmid_devharness::prop::{check, Config};
        use sortmid_devharness::prop_assert;
        let (reg, id) = setup(128, 32);
        let total = reg.total_texels() as u32;
        let s = TrilinearSampler::new(&reg);
        check(
            "footprints_stay_inside_the_registry",
            &Config::default(),
            |g| {
                (
                    g.f32_in(-500.0, 500.0),
                    g.f32_in(-500.0, 500.0),
                    g.f32_in(-2.0, 12.0),
                )
            },
            |&(u, v, lod)| {
                for addr in s.footprint(id, u, v, lod) {
                    prop_assert!(addr.index() < total);
                }
                Ok(())
            },
        );
    }

    #[test]
    fn footprint_lines_matches_per_texel_line() {
        let (reg, id) = setup(64, 64);
        let s = TrilinearSampler::new(&reg);
        let fp = s.footprint(id, 13.7, 41.2, 0.8);
        let lines = footprint_lines(&fp);
        for (i, t) in fp.iter().enumerate() {
            assert_eq!(lines[i], t.line());
        }
    }

    #[test]
    fn footprint_wraps_at_edges() {
        let (reg, id) = setup(16, 16);
        let s = TrilinearSampler::new(&reg);
        // Sampling at u=0.0 puts i0 at -1, which must wrap to 15.
        let fp = s.footprint(id, 0.0, 8.5, 0.0);
        let wrapped = reg.texel_addr(id, 0, 15, 8);
        assert!(fp[0..4].contains(&wrapped));
    }
}

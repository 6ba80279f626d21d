//! Run provenance: the stamp that makes artefacts comparable.
//!
//! Every artefact the bench bins emit (`BENCH_sweep.json`,
//! `TRACE_*.json`, `HEATMAP_*.json`, `METRICS_*.json`) carries a
//! `provenance` block recording what produced it: the artefact schema
//! version, the scene RNG seed, a hash of the machine-config grid, the
//! build profile and a host fingerprint. The artefact differ
//! ([`crate::diff`]) refuses to compare documents whose provenance is
//! incomparable — a diff between different schemas, scenes or config
//! grids would attribute phantom deltas to the code under test.
//!
//! Comparability is deliberately asymmetric across the fields:
//!
//! * `schema`, `seed` and `grid_hash` must match **exactly** — they pin
//!   what was measured;
//! * `build` and `host` are *informational* — simulated cycles are
//!   deterministic across hosts and build profiles (the regression gate
//!   relies on that), so a mismatch is reported in diff headers but does
//!   not reject the comparison.
//!
//! # Examples
//!
//! ```
//! use sortmid_observe::Provenance;
//!
//! let a = Provenance::collect(42, 0xfeed);
//! let mut b = Provenance::collect(42, 0xfeed);
//! assert!(a.comparable(&b).is_ok());
//! b.grid_hash = 0xdead;
//! assert!(a.comparable(&b).unwrap_err().contains("grid_hash"));
//! ```

use crate::artifact::{member, Schema};
use sortmid_devharness::json::Json;

/// Version of the artefact schemas this workspace emits. Bump when a
/// field changes meaning; the differ refuses cross-version comparisons.
pub const SCHEMA_VERSION: u64 = 1;

/// 64-bit FNV-1a over a byte stream — the deterministic, dependency-free
/// hash behind [`Provenance::grid_hash`] (and anything else that needs a
/// stable content fingerprint across runs and hosts).
pub fn fnv1a_64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What produced an artefact: schema version, scene seed, config-grid
/// hash, build profile and host fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Artefact schema version ([`SCHEMA_VERSION`] at emit time).
    pub schema: u64,
    /// RNG seed of the scene the run rendered.
    pub seed: u64,
    /// Hash of the machine-config grid (see `sortmid::grid_hash`).
    pub grid_hash: u64,
    /// Build profile: `"release"` or `"debug"`.
    pub build: String,
    /// Host fingerprint: `<os>-<arch>/<hostname>`.
    pub host: String,
}

impl Provenance {
    /// A provenance block for the current build and host, stamping the
    /// given scene seed and config-grid hash.
    pub fn collect(seed: u64, grid_hash: u64) -> Provenance {
        Provenance {
            schema: SCHEMA_VERSION,
            seed,
            grid_hash,
            build: if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
            host: host_fingerprint(),
        }
    }

    /// The block as the JSON object artefacts embed under `"provenance"`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::U64(self.schema)),
            ("seed", Json::U64(self.seed)),
            ("grid_hash", Json::str(format!("{:016x}", self.grid_hash))),
            ("build", Json::str(&self.build)),
            ("host", Json::str(&self.host)),
        ])
    }

    /// Reads the `"provenance"` block out of an artefact document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field; a document
    /// without any block reports `missing provenance block` (the pre-PR-9
    /// artefact generation — regenerate it).
    pub fn from_doc(doc: &Json) -> Result<Provenance, String> {
        member(doc, "provenance")
    }

    /// Whether a diff between artefacts carrying `self` and `other` is
    /// meaningful: schema, seed and grid hash must match exactly.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first incomparable field and both
    /// values.
    pub fn comparable(&self, other: &Provenance) -> Result<(), String> {
        if self.schema != other.schema {
            return Err(format!(
                "incomparable artefacts: schema {} vs {}",
                self.schema, other.schema
            ));
        }
        if self.seed != other.seed {
            return Err(format!(
                "incomparable artefacts: scene seed {} vs {}",
                self.seed, other.seed
            ));
        }
        if self.grid_hash != other.grid_hash {
            return Err(format!(
                "incomparable artefacts: grid_hash {:016x} vs {:016x} (different config grids)",
                self.grid_hash, other.grid_hash
            ));
        }
        Ok(())
    }

    /// Informational build/host drift between two comparable blocks —
    /// worth a header line in a diff (wall times are not portable across
    /// hosts), but never a rejection.
    pub fn environment_drift(&self, other: &Provenance) -> Option<String> {
        let mut notes = Vec::new();
        if self.build != other.build {
            notes.push(format!("build {} vs {}", self.build, other.build));
        }
        if self.host != other.host {
            notes.push(format!("host {} vs {}", self.host, other.host));
        }
        (!notes.is_empty()).then(|| notes.join(", "))
    }
}

/// The block artefacts embed under `"provenance"`.
impl Schema for Provenance {
    fn to_json(&self) -> Json {
        Provenance::to_json(self)
    }

    fn from_json(block: &Json) -> Result<Provenance, String> {
        let grid_hex: String = member(block, "grid_hash")?;
        let grid_hash = u64::from_str_radix(&grid_hex, 16)
            .map_err(|_| format!("'grid_hash' is not a hex hash: '{grid_hex}'"))?;
        Ok(Provenance {
            schema: member(block, "schema")?,
            seed: member(block, "seed")?,
            grid_hash,
            build: member(block, "build")?,
            host: member(block, "host")?,
        })
    }

    fn missing(key: &str) -> String {
        format!("missing {key} block (artefact predates provenance stamping; regenerate it)")
    }
}

/// `<os>-<arch>/<hostname>`, with the hostname read from `/etc/hostname`
/// (then `$HOSTNAME`), falling back to `unknown`.
pub fn host_fingerprint() -> String {
    let hostname = std::fs::read_to_string("/etc/hostname")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok().filter(|s| !s.is_empty()))
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{}-{}/{}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        hostname
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64([]), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(*b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(*b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn provenance_round_trips_through_json() {
        let p = Provenance::collect(1234, 0xdead_beef_cafe_f00d);
        let doc = Json::obj([("provenance", p.to_json())]);
        let back = Provenance::from_doc(&doc).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.schema, SCHEMA_VERSION);
    }

    #[test]
    fn missing_block_and_bad_fields_report_clearly() {
        let e = Provenance::from_doc(&Json::obj::<&str>([])).unwrap_err();
        assert!(e.contains("missing provenance"), "{e}");
        let doc = Json::obj([(
            "provenance",
            Json::obj([("schema", Json::str("one"))]),
        )]);
        let e = Provenance::from_doc(&doc).unwrap_err();
        assert!(e.contains("grid_hash") || e.contains("schema"), "{e}");
    }

    #[test]
    fn comparability_pins_schema_seed_and_grid() {
        let a = Provenance::collect(7, 99);
        assert!(a.comparable(&a).is_ok());
        let mut b = a.clone();
        b.schema += 1;
        assert!(a.comparable(&b).unwrap_err().contains("schema"));
        let mut b = a.clone();
        b.seed = 8;
        assert!(a.comparable(&b).unwrap_err().contains("seed"));
        let mut b = a.clone();
        b.grid_hash = 100;
        assert!(a.comparable(&b).unwrap_err().contains("grid_hash"));
    }

    #[test]
    fn build_and_host_drift_is_informational_only() {
        let a = Provenance::collect(7, 99);
        let mut b = a.clone();
        b.build = format!("{}-lto", a.build);
        b.host = "plan9-mips/elsewhere".to_string();
        assert!(a.comparable(&b).is_ok());
        let drift = a.environment_drift(&b).unwrap();
        assert!(drift.contains("build") && drift.contains("host"), "{drift}");
        assert_eq!(a.environment_drift(&a), None);
    }

    #[test]
    fn host_fingerprint_names_os_and_arch() {
        let f = host_fingerprint();
        assert!(f.starts_with(std::env::consts::OS), "{f}");
        assert!(f.contains(std::env::consts::ARCH), "{f}");
    }
}

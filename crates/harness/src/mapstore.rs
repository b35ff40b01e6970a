//! Persistent mapping cache: Phase I/II paid once per sparsity pattern
//! *ever*.
//!
//! Computing a [`Mapping`] (Algorithm 1 row assignment plus the Formula 1
//! placement hierarchy) dominates the cost of small-matrix workloads, yet
//! it depends only on the matrix's sparsity *pattern*, the mapping kind and
//! the machine shape — none of which change between processes. A
//! [`MappingStore`] keys mappings by [`pattern_key`] (dimensions, row
//! pointers and column indices, no values) and persists each computed
//! mapping as one JSON file under `<dir>/<key>.json`, so a daemon restart
//! (or a fresh sweep process) warms the in-process memo from disk instead
//! of re-running Phase I/II, and a matrix shares its artifact with every
//! copy of its pattern: the unit-valued footprints of its CSR, COO and
//! SELL layouts, or the same matrix with other values. That is sound
//! because a [`MappingStrategy`](spacea_mapping::MappingStrategy) reads
//! only the pattern. [`matrix_key`], which hashes the values too, stays
//! the identity of a registered matrix.
//!
//! Robustness mirrors [`crate::store::ResultStore`]: both read their files
//! through one reader, writes go through a tmp-file + atomic rename so
//! concurrent processes never read a torn file, and a corrupt or stale
//! artifact falls back to a fresh compute, which overwrites it and is
//! counted in [`MappingStats::healed`] and listed by
//! [`MappingStore::healed_paths`].

use crate::job::Fnv;
use crate::lock;
use crate::store::{read_artifact, write_atomic, Artifact};
use spacea_mapping::{MachineShape, MapKind, Mapping, Placement, RowAssignment};
use spacea_matrix::Csr;
use spacea_obs::json::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many mappings a store computed versus warmed from disk. Zero
/// `computed` on a restarted daemon is the warm-cache acceptance check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MappingStats {
    /// Mappings computed from scratch (Phase I/II actually ran).
    pub computed: u64,
    /// Mappings loaded from a persisted artifact.
    pub disk_hits: u64,
    /// Recomputes that *replaced a present-but-bad artifact* (corrupt,
    /// truncated, or failing its cross-check) — a subset of `computed`.
    /// Nonzero `healed` means the store repaired damage, not that it
    /// merely ran cold; [`MappingStore::healed_paths`] names the artifacts.
    pub healed: u64,
}

/// A mapping cache, optionally backed by a directory of JSON artifacts.
#[derive(Debug, Default)]
pub struct MappingStore {
    dir: Option<PathBuf>,
    computed: AtomicU64,
    disk_hits: AtomicU64,
    /// The artifacts found damaged and recomputed, in the order healed.
    healed: Mutex<Vec<PathBuf>>,
}

/// Content hash of a CSR matrix: dimensions plus every structural array,
/// values as exact IEEE-754 bit patterns. Two matrices with equal content
/// get one key regardless of how they were constructed; serve registers
/// matrices under it.
pub fn matrix_key(a: &Csr) -> u64 {
    let mut h = Fnv::new();
    h.str("spacea-matrix-v1");
    h.usize(a.rows());
    h.usize(a.cols());
    for &p in a.row_ptr() {
        h.usize(p);
    }
    for &c in a.col_idx() {
        h.u64(c as u64);
    }
    for &v in a.vals() {
        h.f64(v);
    }
    h.finish()
}

/// Hash of a CSR matrix's sparsity pattern: dimensions, row pointers and
/// column indices (as 4-byte words), but no values. Every input a
/// [`MappingStrategy`](spacea_mapping::MappingStrategy) reads, so two
/// matrices with one key map identically.
pub fn pattern_key(a: &Csr) -> u64 {
    let mut h = Fnv::new();
    h.str("spacea-pattern-v1");
    h.usize(a.rows());
    h.usize(a.cols());
    for &p in a.row_ptr() {
        h.usize(p);
    }
    for &c in a.col_idx() {
        h.bytes(&c.to_le_bytes());
    }
    h.finish()
}

/// Cache key of one mapping artifact: a [`pattern_key`] × mapping kind ×
/// machine shape.
fn mapping_key(pattern_key: u64, kind: MapKind, shape: &MachineShape) -> u64 {
    let mut h = Fnv::new();
    h.str("spacea-mapping-v1");
    h.u64(pattern_key);
    h.u8(match kind {
        MapKind::Naive => 0,
        MapKind::Proposed => 1,
    });
    h.usize(shape.cubes);
    h.usize(shape.vaults_per_cube);
    h.usize(shape.product_bgs_per_vault);
    h.usize(shape.banks_per_bg);
    h.finish()
}

impl MappingStore {
    /// A store with no disk backing: every first request computes.
    pub fn in_memory() -> Self {
        MappingStore::default()
    }

    /// A store persisting artifacts under `dir` (created on first write).
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        MappingStore { dir: Some(dir.into()), ..MappingStore::default() }
    }

    /// The artifact directory, if disk-backed.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Compute-vs-warm counters so far.
    pub fn stats(&self) -> MappingStats {
        MappingStats {
            computed: self.computed.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            healed: lock(&self.healed).len() as u64,
        }
    }

    /// Paths of the damaged artifacts this store recomputed and rewrote.
    pub fn healed_paths(&self) -> Vec<PathBuf> {
        lock(&self.healed).clone()
    }

    /// The artifact path for one mapping key (when disk-backed).
    pub fn path_for(&self, key: u64) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key:016x}.json")))
    }

    /// The mapping of `a` onto `shape` under `kind`: loaded from disk when
    /// a valid artifact for `a`'s pattern exists, computed (and persisted)
    /// otherwise.
    pub fn get_or_compute(&self, a: &Csr, kind: MapKind, shape: &MachineShape) -> Mapping {
        let key = mapping_key(pattern_key(a), kind, shape);
        let path = self.path_for(key);
        let mut damaged = false;
        if let Some(path) = &path {
            let decode = |v: &Json| {
                decode_mapping(v, a, shape).ok_or_else(|| "fails its cross-check".into())
            };
            match read_artifact(path, decode) {
                Artifact::Valid(m) => {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return m;
                }
                // A present-but-undecodable artifact (torn write from a
                // crashed peer, damaged file, hand edit) is healed by the
                // recompute below, which overwrites it atomically.
                Artifact::Corrupt(reason) => {
                    eprintln!(
                        "spacea-harness: corrupt mapping artifact {} ({reason}); recomputing",
                        path.display()
                    );
                    damaged = true;
                }
                Artifact::Absent => {}
            }
        }
        let m = kind.strategy().map(a, shape);
        self.computed.fetch_add(1, Ordering::Relaxed);
        if let Some(path) = path {
            if let Err(e) = write_atomic(&path, &encode_mapping(&m).to_text()) {
                eprintln!("spacea-harness: could not persist mapping {key:016x}: {e}");
            }
            if damaged {
                lock(&self.healed).push(path);
            }
        }
        m
    }
}

/// Encodes a mapping as JSON (row and slot indices as `U64`).
fn encode_mapping(m: &Mapping) -> Json {
    let rows_of: Vec<Json> = (0..m.assignment.num_pes())
        .map(|p| Json::Arr(m.assignment.rows_of(p).iter().map(|&r| Json::U64(r as u64)).collect()))
        .collect();
    let table: Vec<Json> =
        (0..m.placement.len()).map(|s| Json::U64(m.placement.logical_at_slot(s) as u64)).collect();
    Json::obj(vec![
        ("version", Json::U64(1)),
        ("total_rows", Json::U64(m.assignment.total_rows() as u64)),
        ("rows_of", Json::Arr(rows_of)),
        ("placement", Json::Arr(table)),
    ])
}

/// Decodes and cross-checks a persisted mapping. `None` on any mismatch —
/// wrong version, malformed JSON, a non-permutation placement table, an
/// assignment that fails its partition invariant, or a shape/matrix
/// disagreement (a hash collision or a hand-edited file).
fn decode_mapping(v: &Json, a: &Csr, shape: &MachineShape) -> Option<Mapping> {
    if v.get("version")?.as_u64()? != 1 {
        return None;
    }
    let total_rows = v.get("total_rows")?.as_u64()? as usize;
    let mut rows_of = Vec::new();
    for pe in v.get("rows_of")?.as_arr()? {
        let mut rows = Vec::new();
        for r in pe.as_arr()? {
            rows.push(u32::try_from(r.as_u64()?).ok()?);
        }
        rows_of.push(rows);
    }
    let mut table = Vec::new();
    for s in v.get("placement")?.as_arr()? {
        table.push(u32::try_from(s.as_u64()?).ok()?);
    }
    // Placement::from_table panics on a non-permutation, so screen first.
    let mut seen = vec![false; table.len()];
    for &l in &table {
        let l = l as usize;
        if l >= seen.len() || seen[l] {
            return None;
        }
        seen[l] = true;
    }
    let assignment = RowAssignment::new(rows_of, total_rows);
    assignment.validate().ok()?;
    if total_rows != a.rows()
        || assignment.num_pes() != shape.product_pes()
        || table.len() != shape.product_pes()
    {
        return None;
    }
    Some(Mapping { assignment, placement: Placement::from_table(table) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacea_matrix::gen::{banded, rmat, BandedConfig, RmatConfig};

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("spacea-mapstore-{tag}-{}", std::process::id()))
    }

    /// `a`'s pattern in a `cols`-wide matrix holding `vals`.
    fn with_vals(a: &Csr, cols: usize, vals: Vec<f64>) -> Csr {
        Csr::from_parts(a.rows(), cols, a.row_ptr().to_vec(), a.col_idx().to_vec(), vals).unwrap()
    }

    #[test]
    fn matrix_key_tracks_content_not_identity() {
        let a = banded(&BandedConfig { n: 64, ..Default::default() });
        let b = banded(&BandedConfig { n: 64, ..Default::default() });
        assert_eq!(matrix_key(&a), matrix_key(&b));
        let c = banded(&BandedConfig { n: 65, ..Default::default() });
        assert_ne!(matrix_key(&a), matrix_key(&c));
    }

    #[test]
    fn pattern_key_ignores_values_but_not_structure() {
        let a = banded(&BandedConfig { n: 64, ..Default::default() });
        let scaled = with_vals(&a, a.cols(), a.vals().iter().map(|v| v * 2.0).collect());
        assert_eq!(pattern_key(&a), pattern_key(&scaled));
        assert_ne!(matrix_key(&a), matrix_key(&scaled));
        let wider = with_vals(&a, a.cols() + 1, a.vals().to_vec());
        assert_ne!(pattern_key(&a), pattern_key(&wider));
        let c = banded(&BandedConfig { n: 65, ..Default::default() });
        assert_ne!(pattern_key(&a), pattern_key(&c));
    }

    #[test]
    fn a_matrix_and_its_unit_pattern_share_one_artifact() {
        let dir = tmp_dir("pattern");
        let _ = std::fs::remove_dir_all(&dir);
        let a = rmat(&RmatConfig { n: 128, edges: 600, ..Default::default() });
        let unit = with_vals(&a, a.cols(), vec![1.0; a.nnz()]);
        assert_ne!(matrix_key(&a), matrix_key(&unit), "serve still tells them apart");
        let shape = MachineShape::tiny();
        let store = MappingStore::with_dir(&dir);
        let m = store.get_or_compute(&a, MapKind::Proposed, &shape);
        let from_pattern = store.get_or_compute(&unit, MapKind::Proposed, &shape);
        assert_eq!(store.stats(), MappingStats { computed: 1, disk_hits: 1, healed: 0 });
        assert_eq!(m, from_pattern);
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 1, "one artifact for the pattern");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapping_key_depends_on_kind_and_shape() {
        let k = 7u64;
        let shape = MachineShape::tiny();
        let base = mapping_key(k, MapKind::Proposed, &shape);
        assert_ne!(base, mapping_key(k, MapKind::Naive, &shape));
        let mut other = shape;
        other.banks_per_bg += 1;
        assert_ne!(base, mapping_key(k, MapKind::Proposed, &other));
    }

    #[test]
    fn in_memory_store_always_computes() {
        let a = banded(&BandedConfig { n: 64, ..Default::default() });
        let store = MappingStore::in_memory();
        let shape = MachineShape::tiny();
        let m1 = store.get_or_compute(&a, MapKind::Proposed, &shape);
        let m2 = store.get_or_compute(&a, MapKind::Proposed, &shape);
        assert_eq!(m1, m2);
        assert_eq!(store.stats(), MappingStats { computed: 2, disk_hits: 0, healed: 0 });
    }

    #[test]
    fn disk_store_warms_across_instances() {
        let dir = tmp_dir("warm");
        let _ = std::fs::remove_dir_all(&dir);
        let a = rmat(&RmatConfig { n: 128, edges: 600, ..Default::default() });
        let shape = MachineShape::tiny();

        let first = MappingStore::with_dir(&dir);
        let m1 = first.get_or_compute(&a, MapKind::Proposed, &shape);
        assert_eq!(first.stats(), MappingStats { computed: 1, disk_hits: 0, healed: 0 });

        // A "restarted process": a fresh store over the same directory must
        // perform zero Phase I/II computations.
        let second = MappingStore::with_dir(&dir);
        let m2 = second.get_or_compute(&a, MapKind::Proposed, &shape);
        assert_eq!(second.stats(), MappingStats { computed: 0, disk_hits: 1, healed: 0 });
        assert_eq!(m1, m2, "warmed mapping must equal the computed one exactly");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifact_falls_back_to_compute_and_heals() {
        let dir = tmp_dir("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let a = banded(&BandedConfig { n: 96, ..Default::default() });
        let shape = MachineShape::tiny();
        let key = mapping_key(pattern_key(&a), MapKind::Proposed, &shape);
        let good = encode_mapping(&MapKind::Proposed.strategy().map(&a, &shape)).to_text();
        // Malformed JSON, and valid JSON behind bytes that are not UTF-8.
        for bad in [b"{ not json".to_vec(), [&[0xff, 0xfe], good.as_bytes()].concat()] {
            let store = MappingStore::with_dir(&dir);
            let path = store.path_for(key).unwrap();
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, bad).unwrap();
            let m = store.get_or_compute(&a, MapKind::Proposed, &shape);
            assert_eq!(store.stats(), MappingStats { computed: 1, disk_hits: 0, healed: 1 });
            assert_eq!(
                store.healed_paths(),
                std::slice::from_ref(&path),
                "the healed artifact is named"
            );
            // The recompute overwrote the corrupt artifact; a fresh store hits.
            let again = MappingStore::with_dir(&dir);
            let m2 = again.get_or_compute(&a, MapKind::Proposed, &shape);
            assert_eq!(again.stats(), MappingStats { computed: 0, disk_hits: 1, healed: 0 });
            assert_eq!(m, m2);
            assert_eq!(std::fs::read_to_string(&path).unwrap(), good);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_artifact_for_different_shape_is_rejected() {
        let dir = tmp_dir("stale");
        let _ = std::fs::remove_dir_all(&dir);
        let a = banded(&BandedConfig { n: 64, ..Default::default() });
        let shape = MachineShape::tiny();
        let store = MappingStore::with_dir(&dir);
        let m = store.get_or_compute(&a, MapKind::Proposed, &shape);
        // Copy the artifact onto the key of a *different* shape (simulating
        // a collision / stale file); the cross-check must reject it.
        let key = mapping_key(pattern_key(&a), MapKind::Proposed, &shape);
        let mut other = shape;
        other.vaults_per_cube *= 2;
        let other_key = mapping_key(pattern_key(&a), MapKind::Proposed, &other);
        std::fs::copy(store.path_for(key).unwrap(), store.path_for(other_key).unwrap()).unwrap();
        let m2 = store.get_or_compute(&a, MapKind::Proposed, &other);
        assert_eq!(store.stats().computed, 2, "mismatched artifact must recompute");
        assert_ne!(m.assignment.num_pes(), 0);
        assert_eq!(m2.assignment.num_pes(), other.product_pes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn encode_decode_round_trips() {
        let a = rmat(&RmatConfig { n: 100, edges: 400, ..Default::default() });
        let shape = MachineShape::tiny();
        let m = MapKind::Proposed.strategy().map(&a, &shape);
        let back = decode_mapping(&encode_mapping(&m), &a, &shape).unwrap();
        assert_eq!(m, back);
    }
}

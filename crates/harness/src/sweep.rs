//! Grid parameter sweeps: a [`SweepSpec`] names axes over the design
//! space the paper evaluates pointwise — matrix, scale, mapping, machine
//! variant, cube count, CAM capacity — and deterministically enumerates
//! their cartesian product into deduplicated, content-addressed [`JobSpec`]
//! lists.
//!
//! Sharding ([`shard_range`]) partitions the enumerated points into N
//! disjoint, union-complete contiguous slices, so N processes sharing the
//! disk cache can split a grid (`--shard K/N`) and together reproduce the
//! unsharded run byte-for-byte: every point is computed by exactly one
//! shard, results meet in `target/spacea-cache/`, and rendering is pure
//! cache lookup.

use crate::job::{JobSpec, MatrixSource};
use spacea_arch::HwConfig;
use spacea_backend::{BackendKind, HbmSpec, Partition};
use spacea_gpu::spec::TitanXpSpec;
use spacea_mapping::MapKind;
use spacea_matrix::formats::FormatKind;
use spacea_matrix::suite;
use spacea_model::EnergyParams;

/// The baseline values a sweep falls back to for axes the spec leaves
/// empty: the session's machine, energy parameters, matrix scale, and GPU
/// baseline spec (normally derived from `ExpConfig` by the sweep binary).
#[derive(Debug, Clone)]
pub struct SweepBase {
    /// Display name of the base machine (`"default"` unless overridden).
    pub hw_name: String,
    /// The base machine configuration.
    pub hw: HwConfig,
    /// The base energy parameters.
    pub energy: EnergyParams,
    /// The base Table I matrix scale.
    pub scale: usize,
    /// The GPU baseline spec used for `gpu = true` grids.
    pub gpu_spec: TitanXpSpec,
    /// The HBM accelerator spec used for scenario cells on the `hbm` backend.
    pub hbm_spec: HbmSpec,
}

impl Default for SweepBase {
    fn default() -> Self {
        SweepBase {
            hw_name: "default".into(),
            hw: HwConfig::default(),
            energy: EnergyParams::default(),
            scale: suite::DEFAULT_SCALE,
            gpu_spec: TitanXpSpec::default(),
            hbm_spec: HbmSpec::default(),
        }
    }
}

/// A sweep grid: one `Vec` per axis. An empty axis means "the base value
/// only", so a spec with every axis empty is the empty grid (nothing to do)
/// — callers should reject it with a usage hint.
///
/// Axes are set either programmatically or through [`SweepSpec::set`],
/// which the sweep binary's axis flags call with their key and value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepSpec {
    /// Table I matrix ids (axis key `ids`; `all` expands to the whole suite).
    pub ids: Vec<u8>,
    /// Matrix down-scale factors (axis key `scales`).
    pub scales: Vec<usize>,
    /// Mapping algorithms (axis key `kinds`: `naive`, `proposed`).
    pub kinds: Vec<MapKind>,
    /// Named machine variants (axis key `hw`: see [`HwConfig::variant_names`]).
    pub hw: Vec<(String, HwConfig)>,
    /// Cube-count overrides applied to each machine variant (axis key `cubes`).
    pub cubes: Vec<usize>,
    /// L1 CAM set-count overrides (axis key `l1-sets`).
    pub l1_sets: Vec<usize>,
    /// L2 CAM set-count overrides (axis key `l2-sets`).
    pub l2_sets: Vec<usize>,
    /// Also enumerate the GPU baseline per (matrix, scale) point (key `gpu`).
    pub gpu: bool,
    /// Scenario-matrix backends (axis key `backends`; `all` expands to every
    /// backend). Setting any scenario axis appends one [`JobSpec::Scenario`]
    /// cell per (matrix, scale, backend, format, partition); leaving all
    /// three empty keeps the legacy sim/GPU enumeration byte-identical.
    pub backends: Vec<BackendKind>,
    /// Scenario-matrix storage formats (axis key `formats`; `all` expands
    /// to every format). Defaults to CSR when another scenario axis is set.
    pub formats: Vec<FormatKind>,
    /// Scenario-matrix stream partitionings (axis key `partitions`).
    /// Defaults to row-split when another scenario axis is set.
    pub partitions: Vec<Partition>,
}

impl SweepSpec {
    /// Whether no axis has been set (the empty grid).
    pub fn is_empty(&self) -> bool {
        self == &SweepSpec::default()
    }

    /// Sets one axis from its key (`ids`, `scales`, `kinds`, `hw`, `cubes`,
    /// `l1-sets`, `l2-sets`, `gpu`, `backends`, `formats`, `partitions`)
    /// and its comma-separated value.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "ids" => {
                self.ids = if value.trim() == "all" {
                    suite::entries().iter().map(|e| e.id).collect()
                } else {
                    let ids = parse_list::<u8>(key, value)?;
                    for &id in &ids {
                        if suite::entry_by_id(id).is_none() {
                            return Err(format!("ids: {id} is not a Table I matrix id"));
                        }
                    }
                    ids
                }
            }
            "scales" => self.scales = parse_positive_list(key, value)?,
            "kinds" => {
                self.kinds = split(value)
                    .map(|k| match k {
                        "naive" => Ok(MapKind::Naive),
                        "proposed" => Ok(MapKind::Proposed),
                        other => Err(format!("kinds: unknown mapping '{other}'")),
                    })
                    .collect::<Result<_, _>>()?
            }
            "hw" => {
                self.hw = split(value)
                    .map(|name| {
                        HwConfig::by_name(name).map(|c| (name.to_string(), c)).ok_or_else(|| {
                            format!(
                                "hw: unknown variant '{name}' (expected one of {})",
                                HwConfig::variant_names().join(", ")
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?
            }
            "cubes" => self.cubes = parse_positive_list(key, value)?,
            "l1-sets" => self.l1_sets = parse_positive_list(key, value)?,
            "l2-sets" => self.l2_sets = parse_positive_list(key, value)?,
            "gpu" => {
                self.gpu = match value.trim() {
                    "true" | "1" | "yes" => true,
                    "false" | "0" | "no" => false,
                    other => return Err(format!("gpu: expected true/false, got '{other}'")),
                }
            }
            "backends" => {
                self.backends = if value.trim() == "all" {
                    BackendKind::ALL.to_vec()
                } else {
                    split(value)
                        .map(|v| {
                            BackendKind::parse(v)
                                .ok_or_else(|| format!("backends: unknown backend '{v}'"))
                        })
                        .collect::<Result<_, _>>()?
                }
            }
            "formats" => {
                self.formats = if value.trim() == "all" {
                    FormatKind::ALL.to_vec()
                } else {
                    split(value)
                        .map(|v| {
                            FormatKind::parse(v)
                                .ok_or_else(|| format!("formats: unknown format '{v}'"))
                        })
                        .collect::<Result<_, _>>()?
                }
            }
            "partitions" => {
                self.partitions = if value.trim() == "all" {
                    Partition::ALL.to_vec()
                } else {
                    split(value)
                        .map(|v| {
                            Partition::parse(v)
                                .ok_or_else(|| format!("partitions: unknown partitioning '{v}'"))
                        })
                        .collect::<Result<_, _>>()?
                }
            }
            other => {
                return Err(format!(
                    "unknown sweep key '{other}' (expected ids, scales, kinds, hw, cubes, \
                     l1-sets, l2-sets, gpu, backends, formats, partitions)"
                ))
            }
        }
        Ok(())
    }

    /// Enumerates the grid into concrete points, in a fixed nesting order
    /// (ids outermost, L2 sets innermost, GPU baselines last), with
    /// duplicate job keys removed (first occurrence wins). Deterministic:
    /// the same spec and base always yield the same list, which is what
    /// makes sharded execution reproducible.
    pub fn points(&self, base: &SweepBase) -> Vec<SweepPoint> {
        fn axis<T: Clone>(values: &[T], default: T) -> Vec<T> {
            if values.is_empty() {
                vec![default]
            } else {
                values.to_vec()
            }
        }
        let ids = axis(&self.ids, 1);
        let scales = axis(&self.scales, base.scale);
        let kinds = axis(&self.kinds, MapKind::Proposed);
        let hw = axis(&self.hw, (base.hw_name.clone(), base.hw.clone()));
        let cubes: Vec<Option<usize>> = if self.cubes.is_empty() {
            vec![None]
        } else {
            self.cubes.iter().map(|&c| Some(c)).collect()
        };
        let l1: Vec<Option<usize>> = if self.l1_sets.is_empty() {
            vec![None]
        } else {
            self.l1_sets.iter().map(|&s| Some(s)).collect()
        };
        let l2: Vec<Option<usize>> = if self.l2_sets.is_empty() {
            vec![None]
        } else {
            self.l2_sets.iter().map(|&s| Some(s)).collect()
        };

        let mut points = Vec::new();
        for &id in &ids {
            for &scale in &scales {
                for &kind in &kinds {
                    for (hw_name, hw_base) in &hw {
                        for &cube in &cubes {
                            for &l1_sets in &l1 {
                                for &l2_sets in &l2 {
                                    let mut machine = hw_base.clone();
                                    if let Some(c) = cube {
                                        machine = machine.with_cubes(c);
                                    }
                                    if let Some(s) = l1_sets {
                                        machine = machine.with_l1_cam_sets(s);
                                    }
                                    if let Some(s) = l2_sets {
                                        machine = machine.with_l2_cam_sets(s);
                                    }
                                    points.push(SweepPoint {
                                        job: JobSpec::Sim {
                                            source: MatrixSource::Suite { id, scale },
                                            kind,
                                            hw: machine,
                                            energy: base.energy,
                                        },
                                        hw_name: hw_name.clone(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        if self.gpu {
            for &id in &ids {
                for &scale in &scales {
                    points.push(SweepPoint {
                        job: JobSpec::Gpu {
                            source: MatrixSource::Suite { id, scale },
                            spec: base.gpu_spec,
                        },
                        hw_name: "titan-xp".into(),
                    });
                }
            }
        }
        // Scenario cells enumerate only when at least one scenario axis is
        // set, so legacy grids stay byte-identical. The mapping algorithm
        // and machine variant are pinned to the first value of their axes
        // (they only matter to the SpaceA backend); unset scenario axes
        // default to the canonical cell (spacea, csr, row).
        if !(self.backends.is_empty() && self.formats.is_empty() && self.partitions.is_empty()) {
            let backends = axis(&self.backends, BackendKind::Spacea);
            let formats = axis(&self.formats, FormatKind::Csr);
            let partitions = axis(&self.partitions, Partition::RowSplit);
            let kind = kinds[0];
            let (hw_name, hw_base) = &hw[0];
            for &id in &ids {
                for &scale in &scales {
                    for &backend in &backends {
                        for &format in &formats {
                            for &partition in &partitions {
                                points.push(SweepPoint {
                                    job: JobSpec::Scenario {
                                        source: MatrixSource::Suite { id, scale },
                                        backend,
                                        format,
                                        partition,
                                        kind,
                                        hw: hw_base.clone(),
                                        gpu: base.gpu_spec,
                                        hbm: base.hbm_spec,
                                    },
                                    hw_name: hw_name.clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
        dedup_points(points)
    }
}

fn split(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty())
}

fn parse_list<T: std::str::FromStr>(key: &str, value: &str) -> Result<Vec<T>, String> {
    split(value).map(|v| v.parse::<T>().map_err(|_| format!("{key}: cannot parse '{v}'"))).collect()
}

fn parse_positive_list(key: &str, value: &str) -> Result<Vec<usize>, String> {
    let list = parse_list::<usize>(key, value)?;
    if list.contains(&0) {
        return Err(format!("{key}: values must be positive"));
    }
    Ok(list)
}

/// One concrete grid point: the job it runs on a Table I matrix, plus the
/// display fields the job does not carry.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The content-addressed job computing this point.
    pub job: JobSpec,
    /// Name of the machine variant the point runs on (`titan-xp` for the
    /// GPU baseline).
    pub hw_name: String,
}

impl SweepPoint {
    /// An owned copy of the point's job, for building job lists.
    pub fn job(&self) -> JobSpec {
        self.job.clone()
    }

    /// The Table I matrix name (`?` for any other source).
    pub fn matrix_name(&self) -> &'static str {
        match self.job.source() {
            MatrixSource::Suite { id, .. } => suite::entry_by_id(*id).map_or("?", |e| e.name),
            MatrixSource::Graph { .. } => "?",
        }
    }
}

/// Removes points whose job key already appeared earlier, preserving order
/// — duplicate axis values (`--scales 8,8`) or overrides that resolve to
/// the same machine must not run (or render) twice.
pub fn dedup_points(points: Vec<SweepPoint>) -> Vec<SweepPoint> {
    let mut seen = std::collections::HashSet::new();
    points.into_iter().filter(|p| seen.insert(p.job.key())).collect()
}

/// The contiguous slice of `total` grid points that shard `k` of `n` owns:
/// `total*k/n .. total*(k+1)/n`. For every `n ≥ 1` the shards are disjoint,
/// their union is `0..total`, sizes differ by at most one, and slices are
/// contiguous — so concatenating the shard outputs in shard order
/// reproduces the unsharded row order exactly.
///
/// # Panics
/// If `k >= n` or `n == 0`.
pub fn shard_range(total: usize, k: usize, n: usize) -> std::ops::Range<usize> {
    assert!(n > 0, "shard count must be positive");
    assert!(k < n, "shard index {k} out of range for {n} shards");
    (total * k / n)..(total * (k + 1) / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_base() -> SweepBase {
        SweepBase {
            hw_name: "tiny".into(),
            hw: HwConfig::tiny(),
            scale: 256,
            ..SweepBase::default()
        }
    }

    #[test]
    fn empty_spec_is_empty_and_one_axis_is_not() {
        assert!(SweepSpec::default().is_empty());
        let mut s = SweepSpec::default();
        s.set("ids", "1").unwrap();
        assert!(!s.is_empty());
    }

    #[test]
    fn set_parses_every_axis() {
        let mut s = SweepSpec::default();
        s.set("ids", "1, 2,3").unwrap();
        s.set("scales", "8,16").unwrap();
        s.set("kinds", "naive,proposed").unwrap();
        s.set("hw", "scaled,hbm").unwrap();
        s.set("cubes", "1,2,4").unwrap();
        s.set("l1-sets", "16,32").unwrap();
        s.set("l2-sets", "1024").unwrap();
        s.set("gpu", "true").unwrap();
        assert_eq!(s.ids, vec![1, 2, 3]);
        assert_eq!(s.scales, vec![8, 16]);
        assert_eq!(s.kinds, vec![MapKind::Naive, MapKind::Proposed]);
        assert_eq!(s.hw.len(), 2);
        assert_eq!(s.hw[1].1, HwConfig::hbm_like());
        assert_eq!(s.cubes, vec![1, 2, 4]);
        assert!(s.gpu);
    }

    #[test]
    fn set_rejects_bad_values() {
        let mut s = SweepSpec::default();
        assert!(s.set("ids", "99").is_err(), "id 99 is not in Table I");
        assert!(s.set("scales", "0").is_err(), "scale must be positive");
        assert!(s.set("kinds", "quantum").is_err());
        assert!(s.set("hw", "warp-drive").is_err());
        assert!(s.set("warp", "9").is_err(), "unknown keys are errors");
    }

    #[test]
    fn ids_all_expands_to_the_suite() {
        let mut s = SweepSpec::default();
        s.set("ids", "all").unwrap();
        assert_eq!(s.ids.len(), suite::entries().len());
    }

    #[test]
    fn enumeration_is_deterministic() {
        let mut s = SweepSpec::default();
        s.set("ids", "1,2").unwrap();
        s.set("kinds", "naive,proposed").unwrap();
        s.set("cubes", "1,2").unwrap();
        let base = quick_base();
        let a = s.points(&base);
        let b = s.points(&base);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        let keys: Vec<_> = a.iter().map(|p| p.job().key()).collect();
        let keys2: Vec<_> = b.iter().map(|p| p.job().key()).collect();
        assert_eq!(keys, keys2);
    }

    #[test]
    fn enumeration_dedups_duplicate_axis_values() {
        let mut s = SweepSpec::default();
        s.set("ids", "1,1").unwrap();
        s.set("scales", "256,256").unwrap();
        let base = quick_base();
        assert_eq!(s.points(&base).len(), 1);
        // A cube override equal to the variant's own cube count collapses too.
        let mut s = SweepSpec::default();
        s.set("ids", "1").unwrap();
        s.set("hw", "tiny").unwrap();
        s.set("cubes", &format!("{}", HwConfig::tiny().shape.cubes)).unwrap();
        let with_override = s.points(&base);
        s.cubes.clear();
        assert_eq!(with_override, s.points(&base));
    }

    #[test]
    fn empty_axes_fall_back_to_the_base() {
        let mut s = SweepSpec::default();
        s.set("ids", "3").unwrap();
        let base = quick_base();
        let points = s.points(&base);
        assert_eq!(points.len(), 1);
        let SweepPoint { job: JobSpec::Sim { source, kind, hw, .. }, hw_name, .. } = &points[0]
        else {
            panic!("expected a sim point")
        };
        assert_eq!(*source, MatrixSource::Suite { id: 3, scale: 256 });
        assert_eq!(*kind, MapKind::Proposed);
        assert_eq!(hw_name, "tiny");
        assert_eq!(*hw, HwConfig::tiny());
    }

    #[test]
    fn gpu_axis_appends_one_baseline_per_matrix_scale() {
        let mut s = SweepSpec::default();
        s.set("ids", "1,2").unwrap();
        s.set("kinds", "naive,proposed").unwrap();
        s.set("gpu", "true").unwrap();
        let points = s.points(&quick_base());
        assert_eq!(points.len(), 2 * 2 + 2);
        let gpus: Vec<_> = points.iter().filter(|p| matches!(p.job, JobSpec::Gpu { .. })).collect();
        assert_eq!(gpus.len(), 2);
        assert!(
            points[points.len() - 2..].iter().all(|p| matches!(p.job, JobSpec::Gpu { .. })),
            "GPU baselines enumerate last"
        );
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        for total in 0..64 {
            for n in 1..10 {
                let mut covered = Vec::new();
                let mut sizes = Vec::new();
                for k in 0..n {
                    let r = shard_range(total, k, n);
                    sizes.push(r.len());
                    covered.extend(r);
                }
                assert_eq!(covered, (0..total).collect::<Vec<_>>(), "total={total} n={n}");
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "balanced: total={total} n={n} sizes={sizes:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_must_be_in_range() {
        shard_range(10, 3, 3);
    }

    #[test]
    fn scenario_axes_parse_and_reject_bad_values() {
        let mut s = SweepSpec::default();
        s.set("backends", "spacea, gpu,hbm").unwrap();
        s.set("formats", "csr,sell").unwrap();
        s.set("partitions", "row,nnz").unwrap();
        assert_eq!(s.backends, vec![BackendKind::Spacea, BackendKind::Gpu, BackendKind::Hbm]);
        assert_eq!(s.formats, vec![FormatKind::Csr, FormatKind::Sell]);
        assert_eq!(s.partitions, vec![Partition::RowSplit, Partition::NnzSplit]);
        s.set("backends", "all").unwrap();
        assert_eq!(s.backends, BackendKind::ALL.to_vec());
        s.set("formats", "all").unwrap();
        assert_eq!(s.formats, FormatKind::ALL.to_vec());
        assert!(s.set("backends", "fpga").is_err());
        assert!(s.set("formats", "ellpack").is_err());
        assert!(s.set("partitions", "diagonal").is_err());
    }

    #[test]
    fn scenario_axes_append_the_full_grid() {
        let mut s = SweepSpec::default();
        s.set("ids", "1,2").unwrap();
        s.set("backends", "spacea,hbm").unwrap();
        s.set("formats", "csr,sell").unwrap();
        s.set("partitions", "row,nnz").unwrap();
        let points = s.points(&quick_base());
        // 2 legacy sim points (one per id) + 2*2*2*2 scenario cells.
        let cells: Vec<_> =
            points.iter().filter(|p| matches!(p.job, JobSpec::Scenario { .. })).collect();
        assert_eq!(cells.len(), 16);
        assert_eq!(points.len(), 2 + 16);
        let keys: std::collections::HashSet<_> = points.iter().map(|p| p.job().key()).collect();
        assert_eq!(keys.len(), points.len(), "every cell keys distinctly");
    }

    #[test]
    fn partial_scenario_axes_default_to_the_canonical_cell() {
        let mut s = SweepSpec::default();
        s.set("ids", "1").unwrap();
        s.set("backends", "hbm").unwrap();
        let points = s.points(&quick_base());
        let cell = points
            .iter()
            .find_map(|p| match &p.job {
                JobSpec::Scenario { backend, format, partition, .. } => {
                    Some((*backend, *format, *partition))
                }
                _ => None,
            })
            .expect("a scenario cell must enumerate");
        assert_eq!(cell, (BackendKind::Hbm, FormatKind::Csr, Partition::RowSplit));
    }

    #[test]
    fn no_scenario_axes_means_no_scenario_points() {
        let mut s = SweepSpec::default();
        s.set("ids", "1,2").unwrap();
        s.set("kinds", "naive,proposed").unwrap();
        s.set("gpu", "true").unwrap();
        let points = s.points(&quick_base());
        assert!(
            points.iter().all(|p| !matches!(p.job, JobSpec::Scenario { .. })),
            "legacy grids must enumerate byte-identically to before the scenario axes"
        );
    }

    #[test]
    fn point_labels_and_names() {
        let mut s = SweepSpec::default();
        s.set("ids", "13").unwrap();
        let points = s.points(&quick_base());
        assert_eq!(points[0].matrix_name(), "Stanford");
    }
}

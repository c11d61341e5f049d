//! Analytic workload model for huge systems.
//!
//! The timing plane must size halo exchanges for systems up to 23 M atoms
//! (paper Fig 5) without instantiating coordinates. For a homogeneous system
//! (the grappa set is built to be homogeneous) the eighth-shell zone geometry
//! gives exact expected atom counts from the density alone. The model is
//! validated against exact [`crate::plan::build_partition`] index maps in
//! tests.

use crate::bounds::DdBounds;
use crate::grid::DdGrid;
use crate::plan::{pulse_counts, PlanError};
use halox_md::Vec3;
use serde::{Deserialize, Serialize};

/// Expected communication sizes for one pulse, from zone geometry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PulseSizeModel {
    pub global_id: usize,
    pub dim: usize,
    /// Expected atoms sent per rank in this pulse.
    pub send_atoms: f64,
    /// Fraction of sent atoms that are *dependent* (forwarded from earlier
    /// pulses); the paper's depOffset split.
    pub dep_fraction: f64,
}

/// Analytic model of a homogeneous system decomposed over a grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadModel {
    pub n_atoms: usize,
    /// Atom number density (atoms/nm^3).
    pub density: f64,
    /// Halo communication distance (nm).
    pub r_comm: f32,
    pub grid: DdGrid,
    pub box_lengths: Vec3,
}

impl WorkloadModel {
    /// Cubic box sized for `n_atoms` at `density`, decomposed over `grid`.
    pub fn cubic(n_atoms: usize, density: f64, r_comm: f32, grid: DdGrid) -> Self {
        let edge = (n_atoms as f64 / density).cbrt() as f32;
        WorkloadModel {
            n_atoms,
            density,
            r_comm,
            grid,
            box_lengths: Vec3::splat(edge),
        }
    }

    /// A grappa-set system: the benchmark family is built by replicating the
    /// 45k-atom base box, doubling x, then y, then z in turn. This keeps the
    /// per-rank halo cross-section constant at fixed atoms/GPU as rank
    /// counts grow — the property behind the paper's Figs 7/8 observation
    /// that non-local work matches the intra-node runs at equal atoms/GPU.
    /// Sizes that are not `45k * 2^k` fall back to a cubic box.
    pub fn grappa(n_atoms: usize, r_comm: f32, grid: DdGrid) -> Self {
        let density = 100.0;
        WorkloadModel {
            n_atoms,
            density,
            r_comm,
            grid,
            box_lengths: grappa_box(n_atoms, density),
        }
    }

    /// Home atoms per rank.
    pub fn atoms_per_rank(&self) -> f64 {
        self.n_atoms as f64 / self.grid.n_ranks() as f64
    }

    /// Per-rank domain edge lengths.
    pub fn domain_lengths(&self) -> Vec3 {
        self.grid.domain_lengths(self.box_lengths)
    }

    /// Expected per-pulse sizes in global pulse order, assuming uniform
    /// cells. Dimensions whose domains are thinner than `r_comm` get as many
    /// forwarding pulses as the chain needs (GROMACS' multi-neighbour
    /// communication); a geometry the plan refuses panics — use
    /// [`WorkloadModel::try_pulse_sizes_with`] for a typed error.
    pub fn pulse_sizes(&self) -> Vec<PulseSizeModel> {
        self.try_pulse_sizes_with(&DdBounds::uniform(&self.grid))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Expected per-pulse sizes under explicit (possibly non-uniform) cell
    /// boundaries.
    ///
    /// Pulse counts and per-pulse slab thicknesses come from the *thinnest*
    /// cell per dimension — the forwarding chain must carry every rank's
    /// halo across the narrowest cells, so this bounds per-rank traffic from
    /// above (the right direction for admission pricing). Cross-section
    /// factors use the mean cell length (exactly `box / dims`), which is the
    /// expectation over ranks for a homogeneous system under any boundary
    /// placement. Pulse counts and feasibility are the plan's own
    /// ([`pulse_counts`]): a geometry the plan refuses is its typed
    /// [`PlanError`] instead of a silent mis-price.
    pub fn try_pulse_sizes_with(
        &self,
        bounds: &DdBounds,
    ) -> Result<Vec<PulseSizeModel>, PlanError> {
        let l = self.domain_lengths();
        let rc = self.r_comm as f64;
        let dims = self.grid.comm_dims();
        let pulses = pulse_counts(&self.grid, bounds, self.box_lengths, self.r_comm, None)?;
        let mut out = Vec::new();
        let mut gid = 0;
        for (i, &d) in dims.iter().enumerate() {
            // Cross-section factor: dims already fully processed are
            // extended by rc (their total halo depth); later dims span the
            // domain; non-decomposed dims span the box (== domain there).
            let mut cs_total = 1.0f64;
            let mut cs_indep = 1.0f64;
            for (j, &e) in dims.iter().enumerate() {
                if e == d {
                    continue;
                }
                let le = l[e] as f64;
                cs_total *= if j < i { le + rc } else { le };
                cs_indep *= le;
            }
            for e in 0..3 {
                if !dims.contains(&e) {
                    cs_total *= l[e] as f64;
                    cs_indep *= l[e] as f64;
                }
            }
            // Pulse k forwards the slab `[k*l, min((k+1)*l, rc))` measured
            // from the receiving boundary: the first pulse is the only one
            // carrying independent (home) data, every later pulse is all
            // forwarded.
            let ld = bounds.min_cell_len(d, self.box_lengths[d]) as f64;
            for k in 0..pulses[d] {
                let t = (rc - k as f64 * ld).min(ld);
                let v_total = t * cs_total;
                let dep_fraction = if k == 0 {
                    1.0 - (t * cs_indep) / v_total
                } else {
                    1.0
                };
                out.push(PulseSizeModel {
                    global_id: gid,
                    dim: d,
                    send_atoms: v_total * self.density,
                    dep_fraction,
                });
                gid += 1;
            }
        }
        Ok(out)
    }

    /// Expected halo atoms received per rank (sum over pulses).
    pub fn halo_atoms_per_rank(&self) -> f64 {
        self.pulse_sizes().iter().map(|p| p.send_atoms).sum()
    }

    /// Expected non-local pair-interaction work relative to local work:
    /// approximates the non-local non-bonded kernel cost as proportional to
    /// the halo atom count times the pair-search shell overlap.
    pub fn nonlocal_work_fraction(&self) -> f64 {
        self.halo_atoms_per_rank() / self.atoms_per_rank()
    }
}

/// Box edge lengths of a grappa-family system (see [`WorkloadModel::grappa`]).
pub fn grappa_box(n_atoms: usize, density: f64) -> Vec3 {
    const BASE: usize = 45_000;
    let base_edge = (BASE as f64 / density).cbrt();
    if n_atoms >= BASE && n_atoms.is_multiple_of(BASE) && (n_atoms / BASE).is_power_of_two() {
        let k = (n_atoms / BASE).trailing_zeros() as i64;
        let m = |d: i64| 2f64.powi(((k - d + 2) / 3).max(0) as i32);
        Vec3::new(
            (base_edge * m(0)) as f32,
            (base_edge * m(1)) as f32,
            (base_edge * m(2)) as f32,
        )
    } else {
        Vec3::splat((n_atoms as f64 / density).cbrt() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::build_partition;
    use halox_md::GrappaBuilder;

    #[test]
    fn analytic_matches_exact_1d() {
        let sys = GrappaBuilder::new(12000).seed(55).build();
        let grid = DdGrid::new([4, 1, 1]);
        let r_comm = 0.8;
        let part = build_partition(&sys, &grid, r_comm);
        let model = WorkloadModel {
            n_atoms: sys.n_atoms(),
            density: sys.density(),
            r_comm,
            grid,
            box_lengths: sys.pbc.lengths(),
        };
        let sizes = model.pulse_sizes();
        assert_eq!(sizes.len(), 1);
        let mean_send: f64 = part
            .ranks
            .iter()
            .map(|r| r.pulses[0].send_count() as f64)
            .sum::<f64>()
            / part.n_ranks() as f64;
        let rel = (sizes[0].send_atoms - mean_send).abs() / mean_send;
        assert!(
            rel < 0.12,
            "analytic {} vs exact {mean_send}",
            sizes[0].send_atoms
        );
        assert_eq!(sizes[0].dep_fraction, 0.0, "1D has no forwarding");
    }

    #[test]
    fn analytic_matches_exact_2d() {
        let sys = GrappaBuilder::new(24000).seed(56).build();
        let grid = DdGrid::new([2, 2, 1]);
        let r_comm = 0.8;
        let part = build_partition(&sys, &grid, r_comm);
        let model = WorkloadModel {
            n_atoms: sys.n_atoms(),
            density: sys.density(),
            r_comm,
            grid,
            box_lengths: sys.pbc.lengths(),
        };
        let sizes = model.pulse_sizes();
        assert_eq!(sizes.len(), 2);
        for (k, sm) in sizes.iter().enumerate() {
            let mean_send: f64 = part
                .ranks
                .iter()
                .map(|r| r.pulses[k].send_count() as f64)
                .sum::<f64>()
                / part.n_ranks() as f64;
            let rel = (sm.send_atoms - mean_send).abs() / mean_send;
            assert!(
                rel < 0.12,
                "pulse {k}: analytic {} vs exact {mean_send}",
                sm.send_atoms
            );
        }
        // Second pulse (x after y) has a forwarded fraction ~ rc/(l_y + rc).
        let l = model.domain_lengths();
        let expect = 0.8 / (l.y + 0.8);
        let mean_dep: f64 = part
            .ranks
            .iter()
            .map(|r| {
                let p = &r.pulses[1];
                (p.send_count() - p.dep_offset) as f64 / p.send_count().max(1) as f64
            })
            .sum::<f64>()
            / part.n_ranks() as f64;
        assert!(
            (sizes[1].dep_fraction - expect as f64).abs() < 1e-6,
            "model dep fraction {} vs formula {expect}",
            sizes[1].dep_fraction
        );
        assert!(
            (sizes[1].dep_fraction - mean_dep).abs() < 0.1,
            "model dep fraction {} vs exact {mean_dep}",
            sizes[1].dep_fraction
        );
    }

    #[test]
    fn dep_fraction_grows_with_pulse_index_3d() {
        let grid = DdGrid::new([2, 2, 2]);
        let model = WorkloadModel::cubic(48000, 100.0, 1.0, grid);
        let sizes = model.pulse_sizes();
        assert_eq!(sizes.len(), 3);
        assert_eq!(sizes[0].dep_fraction, 0.0);
        assert!(sizes[1].dep_fraction > 0.0);
        assert!(sizes[2].dep_fraction > sizes[1].dep_fraction);
    }

    #[test]
    fn grappa_boxes_replicate_in_x_y_z_order() {
        let e = (450.0f64).cbrt() as f32;
        let close = |a: Vec3, b: Vec3| (a - b).norm() < 1e-3;
        assert!(close(grappa_box(45_000, 100.0), Vec3::new(e, e, e)));
        assert!(close(grappa_box(90_000, 100.0), Vec3::new(2.0 * e, e, e)));
        assert!(close(
            grappa_box(180_000, 100.0),
            Vec3::new(2.0 * e, 2.0 * e, e)
        ));
        assert!(close(grappa_box(360_000, 100.0), Vec3::splat(2.0 * e)));
        assert!(close(
            grappa_box(720_000, 100.0),
            Vec3::new(4.0 * e, 2.0 * e, 2.0 * e)
        ));
        assert!(close(grappa_box(23_040_000, 100.0), Vec3::splat(8.0 * e)));
        // Non-family size: cubic fallback.
        assert!(close(
            grappa_box(100_000, 100.0),
            Vec3::splat((1000.0f64).cbrt() as f32)
        ));
    }

    #[test]
    fn grappa_preserves_halo_cross_section_at_fixed_atoms_per_gpu() {
        // 360k on 4 GPUs (intra-node) and 720k on 8 GPUs (multi-node)
        // both have 90k atoms/GPU and must see the same per-rank halo.
        let a = WorkloadModel::grappa(360_000, 1.05, DdGrid::new([4, 1, 1]));
        let b = WorkloadModel::grappa(720_000, 1.05, DdGrid::new([8, 1, 1]));
        let ha = a.halo_atoms_per_rank();
        let hb = b.halo_atoms_per_rank();
        assert!((ha - hb).abs() / ha < 1e-3, "{ha} vs {hb}");
    }

    #[test]
    fn two_pulse_model_matches_exact_plan() {
        // Domains of ~0.65 nm with r_comm 0.8 force second-neighbour pulses
        // with a second slab thick enough for meaningful statistics.
        let sys = GrappaBuilder::new(6000).seed(57).build();
        let grid = DdGrid::new([6, 1, 1]);
        let r_comm = 0.8;
        let part = build_partition(&sys, &grid, r_comm);
        assert_eq!(part.total_pulses(), 2);
        let model = WorkloadModel {
            n_atoms: sys.n_atoms(),
            density: sys.density(),
            r_comm,
            grid,
            box_lengths: sys.pbc.lengths(),
        };
        let sizes = model.pulse_sizes();
        assert_eq!(sizes.len(), 2);
        assert_eq!(sizes[1].dep_fraction, 1.0, "second pulse is all forwarded");
        for (k, sm) in sizes.iter().enumerate() {
            let mean: f64 = part
                .ranks
                .iter()
                .map(|r| r.pulses[k].send_count() as f64)
                .sum::<f64>()
                / part.n_ranks() as f64;
            let rel = (sm.send_atoms - mean).abs() / mean.max(1.0);
            assert!(
                rel < 0.2,
                "pulse {k}: analytic {} vs exact {mean}",
                sm.send_atoms
            );
        }
    }

    #[test]
    fn three_pulse_model_matches_exact_plan() {
        // ~0.44 nm cells with r_comm 1.1 need third-neighbour forwarding.
        let sys = GrappaBuilder::new(3000).seed(58).build();
        let grid = DdGrid::new([7, 1, 1]);
        let r_comm = 1.1;
        let part = build_partition(&sys, &grid, r_comm);
        assert_eq!(part.total_pulses(), 3);
        let model = WorkloadModel {
            n_atoms: sys.n_atoms(),
            density: sys.density(),
            r_comm,
            grid,
            box_lengths: sys.pbc.lengths(),
        };
        let sizes = model.pulse_sizes();
        assert_eq!(sizes.len(), 3);
        assert_eq!(sizes[1].dep_fraction, 1.0);
        assert_eq!(sizes[2].dep_fraction, 1.0);
        for (k, sm) in sizes.iter().enumerate() {
            let mean: f64 = part
                .ranks
                .iter()
                .map(|r| r.pulses[k].send_count() as f64)
                .sum::<f64>()
                / part.n_ranks() as f64;
            let rel = (sm.send_atoms - mean).abs() / mean.max(1.0);
            assert!(
                rel < 0.25,
                "pulse {k}: analytic {} vs exact {mean}",
                sm.send_atoms
            );
        }
    }

    #[test]
    fn non_uniform_bounds_price_from_thinnest_cell() {
        use crate::bounds::DdBounds;
        let grid = DdGrid::new([4, 1, 1]);
        let model = WorkloadModel::cubic(48_000, 100.0, 1.0, grid);
        let uniform = model.pulse_sizes();
        assert_eq!(uniform.len(), 1);
        // Squeeze one cell below r_comm: pricing must now include the
        // forwarding pulse a skewed job will actually pay for.
        let mut bounds = DdBounds::uniform(&grid);
        bounds.fracs[0] = vec![0.0, 0.1, 0.5, 0.75, 1.0];
        let skewed = model.try_pulse_sizes_with(&bounds).unwrap();
        assert!(skewed.len() > 1, "thin cell must add forwarding pulses");
        assert!(
            skewed.iter().map(|p| p.send_atoms).sum::<f64>()
                >= uniform.iter().map(|p| p.send_atoms).sum::<f64>() - 1e-6,
            "skewed estimate must not under-price the uniform case"
        );
        // And an undecomposable geometry is a typed error, not a bad price.
        let mut bad = DdBounds::uniform(&grid);
        bad.fracs[0] = vec![0.0, 0.02, 0.5, 0.75, 1.0];
        let err = model.try_pulse_sizes_with(&bad).unwrap_err();
        assert!(
            matches!(
                err,
                PlanError::PulsesExceedGrid {
                    dim: 0,
                    cells: 4,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("not decomposable"));
    }

    #[test]
    fn huge_systems_scale_without_materializing() {
        // 23 M atoms, 1152 ranks (the paper's largest Fig 5 config).
        let grid = DdGrid::new([16, 9, 8]);
        let model = WorkloadModel::cubic(23_040_000, 100.0, 1.05, grid);
        assert!((model.atoms_per_rank() - 20_000.0).abs() < 1.0);
        let halo = model.halo_atoms_per_rank();
        assert!(
            halo > 1000.0 && halo < model.atoms_per_rank() * 3.0,
            "halo {halo}"
        );
    }

    #[test]
    fn halo_shrinks_with_larger_domains() {
        let g = DdGrid::new([2, 2, 2]);
        let small = WorkloadModel::cubic(100_000, 100.0, 1.0, g);
        let large = WorkloadModel::cubic(1_000_000, 100.0, 1.0, g);
        assert!(
            large.nonlocal_work_fraction() < small.nonlocal_work_fraction(),
            "relative halo must shrink with domain size"
        );
    }
}

//! Synthetic "grappa"-like benchmark system builder.
//!
//! The paper evaluates on the grappa set: water–ethanol mixtures from 45 k to
//! 46 M atoms at liquid density. We generate equivalent systems: molecules
//! placed on a jittered cubic lattice at a target atom density of
//! ~100 atoms/nm^3 (the density of a water-dominated mixture), with
//! Maxwell–Boltzmann velocities at 300 K.

use crate::pbc::PbcBox;
use crate::topology::{Angle, AtomKind, Bond, MoleculeTemplate};
use crate::vec3::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Boltzmann constant in MD units (kJ/mol/K).
pub const KB: f32 = 0.008_314_462;

/// Atom number density of the grappa-like mixture (atoms/nm^3).
/// Water at 300 K has ~33.4 molecules/nm^3 * 3 sites ~= 100 atoms/nm^3.
pub const GRAPPA_ATOM_DENSITY: f64 = 100.0;

/// Fraction of molecules that are ethanol in the mixture.
pub const ETHANOL_MOLE_FRACTION: f64 = 0.10;

/// Positional jitter applied to lattice sites, as a fraction of spacing.
const LATTICE_JITTER: f32 = 0.15;

/// Size of a skewed system's dense region as a fraction of the box: slab
/// width in x (Interface) or sphere radius (Droplet).
const DENSE_EXTENT: f64 = 0.25;

/// A fully instantiated particle system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct System {
    pub pbc: PbcBox,
    /// Positions in nm, wrapped into the primary cell.
    pub positions: Vec<Vec3>,
    /// Velocities in nm/ps.
    pub velocities: Vec<Vec3>,
    /// Per-atom kind.
    pub kinds: Vec<AtomKind>,
    /// Per-atom inverse mass (1/amu); convenient for integration.
    pub inv_mass: Vec<f32>,
    /// Global-index bonds.
    pub bonds: Vec<Bond>,
    /// Global-index angles.
    pub angles: Vec<Angle>,
    /// Molecule id per atom (atoms of one molecule are contiguous).
    pub molecule_of: Vec<u32>,
    /// Exclusion list: intramolecular pairs excluded from non-bonded
    /// interactions, stored per atom as sorted global indices.
    pub exclusions: Vec<Vec<u32>>,
}

impl System {
    pub fn n_atoms(&self) -> usize {
        self.positions.len()
    }

    /// Atom number density (atoms/nm^3).
    pub fn density(&self) -> f64 {
        self.n_atoms() as f64 / self.pbc.volume()
    }

    /// True if non-bonded pair (i, j) is excluded (intramolecular).
    #[inline]
    pub fn is_excluded(&self, i: usize, j: usize) -> bool {
        self.exclusions[i].binary_search(&(j as u32)).is_ok()
    }

    /// Instantaneous kinetic energy (kJ/mol), accumulated in f64.
    pub fn kinetic_energy(&self) -> f64 {
        self.velocities
            .iter()
            .zip(&self.inv_mass)
            .map(|(v, &im)| 0.5 * (1.0 / im as f64) * v.norm2() as f64)
            .sum()
    }

    /// Instantaneous temperature (K) from kinetic energy, 3N degrees of
    /// freedom (flexible molecules, no constraints).
    pub fn temperature(&self) -> f64 {
        let ndf = 3.0 * self.n_atoms() as f64 - 3.0;
        2.0 * self.kinetic_energy() / (ndf * KB as f64)
    }

    /// Remove net center-of-mass momentum.
    pub fn remove_com_velocity(&mut self) {
        let mut p = Vec3::ZERO;
        let mut m_tot = 0.0f64;
        for (v, &im) in self.velocities.iter().zip(&self.inv_mass) {
            let m = 1.0 / im;
            p += *v * m;
            m_tot += m as f64;
        }
        let v_com = p / m_tot as f32;
        for v in &mut self.velocities {
            *v -= v_com;
        }
    }
}

/// Shared molecule-placement state for the system builders: accumulates
/// per-atom arrays and topology while molecules are pushed one at a time.
struct Assembly {
    positions: Vec<Vec3>,
    velocities: Vec<Vec3>,
    kinds: Vec<AtomKind>,
    inv_mass: Vec<f32>,
    bonds: Vec<Bond>,
    angles: Vec<Angle>,
    molecule_of: Vec<u32>,
    exclusions: Vec<Vec<u32>>,
}

impl Assembly {
    fn with_capacity(n_atoms: usize) -> Self {
        Assembly {
            positions: Vec::with_capacity(n_atoms),
            velocities: Vec::with_capacity(n_atoms),
            kinds: Vec::with_capacity(n_atoms),
            inv_mass: Vec::with_capacity(n_atoms),
            bonds: Vec::new(),
            angles: Vec::new(),
            molecule_of: Vec::with_capacity(n_atoms),
            exclusions: Vec::with_capacity(n_atoms),
        }
    }

    /// Place one molecule at `anchor` (template orientation), drawing site
    /// velocities from the rng in site order — the draw order is part of
    /// the builders' determinism contract.
    fn push_molecule(
        &mut self,
        pbc: &PbcBox,
        tmpl: &MoleculeTemplate,
        anchor: Vec3,
        mol_idx: usize,
        temperature: f32,
        rng: &mut StdRng,
    ) {
        let base = self.positions.len() as u32;
        for (site, &kind) in tmpl.geometry.iter().zip(&tmpl.kinds) {
            self.positions.push(pbc.wrap(anchor + *site));
            self.kinds.push(kind);
            self.inv_mass.push(1.0 / kind.mass());
            self.molecule_of.push(mol_idx as u32);
            self.velocities
                .push(maxwell_boltzmann(rng, kind.mass(), temperature));
        }
        for b in &tmpl.bonds {
            self.bonds.push(Bond {
                i: base + b.i,
                j: base + b.j,
                ..*b
            });
        }
        for a in &tmpl.angles {
            self.angles.push(Angle {
                i: base + a.i,
                j: base + a.j,
                k_atom: base + a.k_atom,
                ..*a
            });
        }
        // Full intramolecular exclusion (3-site molecules).
        let n = tmpl.n_sites() as u32;
        for s in 0..n {
            let mut ex: Vec<u32> = (0..n).filter(|&t| t != s).map(|t| base + t).collect();
            ex.sort_unstable();
            self.exclusions.push(ex);
        }
    }

    fn into_system(self, pbc: PbcBox) -> System {
        let mut sys = System {
            pbc,
            positions: self.positions,
            velocities: self.velocities,
            kinds: self.kinds,
            inv_mass: self.inv_mass,
            bonds: self.bonds,
            angles: self.angles,
            molecule_of: self.molecule_of,
            exclusions: self.exclusions,
        };
        sys.remove_com_velocity();
        sys
    }
}

/// Builder for grappa-like systems.
#[derive(Debug, Clone)]
pub struct GrappaBuilder {
    target_atoms: usize,
    temperature: f32,
    seed: u64,
}

impl GrappaBuilder {
    /// Target roughly `target_atoms` total atoms (rounded to whole molecules).
    pub fn new(target_atoms: usize) -> Self {
        GrappaBuilder {
            target_atoms,
            temperature: 300.0,
            seed: 0x9E3779B97F4A7C15,
        }
    }

    pub fn temperature(mut self, t: f32) -> Self {
        assert!(t >= 0.0);
        self.temperature = t;
        self
    }

    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    pub fn build(&self) -> System {
        let water = MoleculeTemplate::water();
        let ethanol = MoleculeTemplate::ethanol();
        // Both templates have 3 sites, so molecule count is atoms/3.
        let n_mols = (self.target_atoms / 3).max(1);
        let n_eth = ((n_mols as f64) * ETHANOL_MOLE_FRACTION).round() as usize;

        let n_atoms = n_mols * 3;
        let volume = n_atoms as f64 / GRAPPA_ATOM_DENSITY;
        let edge = volume.cbrt() as f32;
        let pbc = PbcBox::cubic(edge);

        // Cubic lattice with at least n_mols sites.
        let n_side = (n_mols as f64).cbrt().ceil() as usize;
        let spacing = edge / n_side as f32;

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut asm = Assembly::with_capacity(n_atoms);

        let mut mol_idx = 0usize;
        'outer: for ix in 0..n_side {
            for iy in 0..n_side {
                for iz in 0..n_side {
                    if mol_idx >= n_mols {
                        break 'outer;
                    }
                    // Interleave ethanol evenly through the lattice.
                    let is_eth =
                        n_eth > 0 && (mol_idx * n_eth) / n_mols != ((mol_idx + 1) * n_eth) / n_mols;
                    let tmpl = if is_eth { &ethanol } else { &water };

                    let jit = Vec3::new(
                        rng.gen_range(-0.5..0.5) * LATTICE_JITTER * spacing,
                        rng.gen_range(-0.5..0.5) * LATTICE_JITTER * spacing,
                        rng.gen_range(-0.5..0.5) * LATTICE_JITTER * spacing,
                    );
                    let anchor = Vec3::new(
                        (ix as f32 + 0.5) * spacing,
                        (iy as f32 + 0.5) * spacing,
                        (iz as f32 + 0.5) * spacing,
                    ) + jit;

                    // Molecules keep the template orientation: at liquid
                    // density, random orientations on this tight lattice
                    // produce steric clashes; a short minimization then
                    // decorrelates the structure (see `minimize`).
                    asm.push_molecule(&pbc, tmpl, anchor, mol_idx, self.temperature, &mut rng);
                    mol_idx += 1;
                }
            }
        }
        assert_eq!(mol_idx, n_mols, "lattice too small for molecule count");
        asm.into_system(pbc)
    }
}

/// Spatial density profile for [`SkewedBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkewProfile {
    /// A dense spherical droplet centered in the box, sparse vapor around
    /// it — loads whichever DD cells hold the sphere.
    Droplet,
    /// A dense liquid slab at low x against a sparse region — the classic
    /// liquid/vapor interface, loading the low-x DD cells of a 1D grid.
    Interface,
}

/// Builder for inhomogeneous (skewed-density) benchmark systems: the same
/// water–ethanol chemistry as [`GrappaBuilder`], but with a configurable
/// fraction of the molecules packed into a sub-region of the box. These are
/// the systems where static uniform DD cells leave one PE doing a multiple
/// of the mean work — the dynamic-load-balancing workload.
#[derive(Debug, Clone)]
pub struct SkewedBuilder {
    target_atoms: usize,
    temperature: f32,
    seed: u64,
    profile: SkewProfile,
    /// Fraction of all molecules placed in the dense region.
    dense_share: f64,
}

impl SkewedBuilder {
    /// Target roughly `target_atoms` total atoms (rounded to whole
    /// molecules) at the usual overall grappa density, with half of them in
    /// a quarter-box dense region (a 2x-liquid slab against a thin vapor).
    pub fn new(target_atoms: usize, profile: SkewProfile) -> Self {
        SkewedBuilder {
            target_atoms,
            temperature: 300.0,
            seed: 0x9E3779B97F4A7C15,
            profile,
            dense_share: 0.5,
        }
    }

    pub fn temperature(mut self, t: f32) -> Self {
        assert!(t >= 0.0);
        self.temperature = t;
        self
    }

    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    pub fn dense_share(mut self, share: f64) -> Self {
        assert!((0.0..=1.0).contains(&share));
        self.dense_share = share;
        self
    }

    pub fn build(&self) -> System {
        let water = MoleculeTemplate::water();
        let ethanol = MoleculeTemplate::ethanol();
        let n_mols = (self.target_atoms / 3).max(1);
        let n_eth = ((n_mols as f64) * ETHANOL_MOLE_FRACTION).round() as usize;
        let n_atoms = n_mols * 3;
        let edge = (n_atoms as f64 / GRAPPA_ATOM_DENSITY).cbrt() as f32;
        let pbc = PbcBox::cubic(edge);

        let n_dense = ((n_mols as f64) * self.dense_share).round() as usize;
        let n_sparse = n_mols - n_dense;
        let center = Vec3::splat(edge * 0.5);
        let radius = (DENSE_EXTENT * edge as f64) as f32;

        // Anchors: dense region first, then the sparse remainder, both on
        // region-fitted lattices enumerated in a fixed order.
        let anchors = match self.profile {
            SkewProfile::Interface => {
                let split = (DENSE_EXTENT * edge as f64) as f32;
                let mut a =
                    lattice_anchors(n_dense, Vec3::ZERO, Vec3::new(split, edge, edge), |_| true);
                a.extend(lattice_anchors(
                    n_sparse,
                    Vec3::new(split, 0.0, 0.0),
                    Vec3::new(edge, edge, edge),
                    |_| true,
                ));
                a
            }
            SkewProfile::Droplet => {
                let mut a = lattice_anchors(
                    n_dense,
                    center - Vec3::splat(radius),
                    center + Vec3::splat(radius),
                    |p| (p - center).norm() <= radius,
                );
                a.extend(lattice_anchors(
                    n_sparse,
                    Vec3::ZERO,
                    Vec3::new(edge, edge, edge),
                    |p| (p - center).norm() > radius,
                ));
                a
            }
        };
        assert_eq!(anchors.len(), n_mols);

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut asm = Assembly::with_capacity(n_atoms);
        for (mol_idx, anchor) in anchors.iter().enumerate() {
            let is_eth =
                n_eth > 0 && (mol_idx * n_eth) / n_mols != ((mol_idx + 1) * n_eth) / n_mols;
            let tmpl = if is_eth { &ethanol } else { &water };
            // Jitter scaled to the local lattice: use a fixed small
            // displacement so dense-region molecules stay inside it.
            let jit_scale = LATTICE_JITTER * 0.3;
            let jit = Vec3::new(
                rng.gen_range(-0.5..0.5) * jit_scale,
                rng.gen_range(-0.5..0.5) * jit_scale,
                rng.gen_range(-0.5..0.5) * jit_scale,
            );
            asm.push_molecule(
                &pbc,
                tmpl,
                *anchor + jit,
                mol_idx,
                self.temperature,
                &mut rng,
            );
        }
        asm.into_system(pbc)
    }
}

/// Deterministically place `count` lattice anchors inside the axis-aligned
/// region `[lo, hi)` restricted by `keep`. The lattice spacing starts at the
/// value matching the accepted sub-volume and shrinks geometrically until
/// enough sites qualify; sites are consumed in (x, y, z)-major order.
fn lattice_anchors(count: usize, lo: Vec3, hi: Vec3, keep: impl Fn(Vec3) -> bool) -> Vec<Vec3> {
    if count == 0 {
        return Vec::new();
    }
    let ext = hi - lo;
    let volume = (ext.x as f64) * (ext.y as f64) * (ext.z as f64);
    let mut spacing = (volume / count as f64).cbrt() as f32;
    loop {
        let nx = ((ext.x / spacing).ceil() as usize).max(1);
        let ny = ((ext.y / spacing).ceil() as usize).max(1);
        let nz = ((ext.z / spacing).ceil() as usize).max(1);
        let (sx, sy, sz) = (ext.x / nx as f32, ext.y / ny as f32, ext.z / nz as f32);
        let mut sites = Vec::with_capacity(count);
        'fill: for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let p = lo
                        + Vec3::new(
                            (ix as f32 + 0.5) * sx,
                            (iy as f32 + 0.5) * sy,
                            (iz as f32 + 0.5) * sz,
                        );
                    if keep(p) {
                        sites.push(p);
                        if sites.len() == count {
                            break 'fill;
                        }
                    }
                }
            }
        }
        if sites.len() == count {
            return sites;
        }
        spacing *= 0.95;
    }
}

/// Draw a velocity from the Maxwell-Boltzmann distribution at temperature
/// `t` (K) for mass `m` (amu), in nm/ps.
fn maxwell_boltzmann(rng: &mut StdRng, m: f32, t: f32) -> Vec3 {
    if t == 0.0 {
        return Vec3::ZERO;
    }
    let sd = (KB * t / m).sqrt();
    Vec3::new(gauss(rng) * sd, gauss(rng) * sd, gauss(rng) * sd)
}

/// Standard normal via Box-Muller.
fn gauss(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_requested_size() {
        let sys = GrappaBuilder::new(3000).seed(7).build();
        assert_eq!(sys.n_atoms(), 3000);
        assert_eq!(sys.molecule_of.len(), 3000);
        assert_eq!(sys.exclusions.len(), 3000);
    }

    #[test]
    fn density_close_to_target() {
        let sys = GrappaBuilder::new(9000).build();
        let d = sys.density();
        assert!(
            (d - GRAPPA_ATOM_DENSITY).abs() / GRAPPA_ATOM_DENSITY < 0.01,
            "{d}"
        );
    }

    #[test]
    fn positions_wrapped() {
        let sys = GrappaBuilder::new(3000).build();
        for &p in &sys.positions {
            assert!(sys.pbc.contains(p), "{p:?}");
        }
    }

    #[test]
    fn com_momentum_removed() {
        let sys = GrappaBuilder::new(3000).build();
        let mut p = Vec3::ZERO;
        for (v, &im) in sys.velocities.iter().zip(&sys.inv_mass) {
            p += *v * (1.0 / im);
        }
        assert!(p.norm() < 1e-2, "{p:?}");
    }

    #[test]
    fn temperature_near_target() {
        let sys = GrappaBuilder::new(30000).temperature(300.0).build();
        let t = sys.temperature();
        assert!((t - 300.0).abs() < 15.0, "T = {t}");
    }

    #[test]
    fn ethanol_fraction_respected() {
        let sys = GrappaBuilder::new(30000).build();
        let n_eth_sites = sys
            .kinds
            .iter()
            .filter(|k| matches!(k, AtomKind::Ch3))
            .count();
        let n_mols = sys.n_atoms() / 3;
        let frac = n_eth_sites as f64 / n_mols as f64;
        assert!((frac - ETHANOL_MOLE_FRACTION).abs() < 0.01, "{frac}");
    }

    #[test]
    fn bonds_reference_same_molecule() {
        let sys = GrappaBuilder::new(3000).build();
        for b in &sys.bonds {
            assert_eq!(sys.molecule_of[b.i as usize], sys.molecule_of[b.j as usize]);
        }
        for a in &sys.angles {
            assert_eq!(sys.molecule_of[a.i as usize], sys.molecule_of[a.j as usize]);
            assert_eq!(
                sys.molecule_of[a.i as usize],
                sys.molecule_of[a.k_atom as usize]
            );
        }
    }

    #[test]
    fn exclusions_symmetric() {
        let sys = GrappaBuilder::new(900).build();
        for i in 0..sys.n_atoms() {
            for &j in &sys.exclusions[i] {
                assert!(
                    sys.is_excluded(j as usize, i),
                    "exclusion not symmetric: {i} {j}"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = GrappaBuilder::new(900).seed(42).build();
        let b = GrappaBuilder::new(900).seed(42).build();
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.velocities, b.velocities);
        let c = GrappaBuilder::new(900).seed(43).build();
        assert_ne!(a.positions, c.positions);
    }

    #[test]
    fn zero_temperature_gives_zero_velocities() {
        let sys = GrappaBuilder::new(300).temperature(0.0).build();
        // COM removal of zeros is still zeros.
        assert!(sys.velocities.iter().all(|v| v.norm() == 0.0));
    }

    #[test]
    fn interface_packs_dense_slab_at_low_x() {
        let sys = SkewedBuilder::new(6000, SkewProfile::Interface)
            .seed(9)
            .build();
        assert_eq!(sys.n_atoms(), 6000);
        // Overall density unchanged; spatial distribution skewed: half the
        // atoms in the first quarter of the box.
        let d = sys.density();
        assert!(
            (d - GRAPPA_ATOM_DENSITY).abs() / GRAPPA_ATOM_DENSITY < 0.01,
            "{d}"
        );
        let split = sys.pbc.lengths().x * 0.25;
        let low = sys.positions.iter().filter(|p| p.x < split).count();
        let frac = low as f64 / sys.n_atoms() as f64;
        assert!((frac - 0.5).abs() < 0.03, "low-x fraction {frac}");
        for &p in &sys.positions {
            assert!(sys.pbc.contains(p), "{p:?}");
        }
    }

    #[test]
    fn droplet_packs_dense_sphere_at_center() {
        let sys = SkewedBuilder::new(6000, SkewProfile::Droplet)
            .seed(9)
            .dense_share(0.6)
            .build();
        let edge = sys.pbc.lengths().x;
        let center = Vec3::splat(edge * 0.5);
        let radius = edge * 0.25;
        let inside = sys
            .positions
            .iter()
            .filter(|p| (**p - center).norm() <= radius + 0.1)
            .count();
        let frac = inside as f64 / sys.n_atoms() as f64;
        assert!((frac - 0.6).abs() < 0.05, "droplet fraction {frac}");
    }

    #[test]
    fn skewed_builder_deterministic_for_seed() {
        let a = SkewedBuilder::new(3000, SkewProfile::Interface)
            .seed(4)
            .build();
        let b = SkewedBuilder::new(3000, SkewProfile::Interface)
            .seed(4)
            .build();
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.velocities, b.velocities);
        let c = SkewedBuilder::new(3000, SkewProfile::Interface)
            .seed(5)
            .build();
        assert_ne!(a.positions, c.positions);
    }

    #[test]
    fn skewed_share_configurable() {
        let sys = SkewedBuilder::new(6000, SkewProfile::Interface)
            .dense_share(0.7)
            .seed(12)
            .build();
        let split = sys.pbc.lengths().x * 0.25;
        let low = sys.positions.iter().filter(|p| p.x < split).count();
        let frac = low as f64 / sys.n_atoms() as f64;
        assert!((frac - 0.7).abs() < 0.03, "low-x fraction {frac}");
    }
}

//! Leapfrog integration and a weak-coupling thermostat.
//!
//! GROMACS' default integrator is leapfrog; in the GPU-resident schedule it
//! is the "Integration, constraints on update stream" step of the paper's
//! Algorithm 2. We use flexible molecules so there is no constraint solve.

use crate::system::KB;
use crate::vec3::Vec3;

/// One leapfrog step: `v(t+dt/2) = v(t-dt/2) + f(t)/m dt`,
/// `x(t+dt) = x(t) + v(t+dt/2) dt`.
///
/// Operates on a slice view so a domain-decomposed rank can update just its
/// home atoms. `dt` is in ps, forces in kJ/mol/nm, masses amu.
pub fn leapfrog_step(
    positions: &mut [Vec3],
    velocities: &mut [Vec3],
    forces: &[Vec3],
    inv_mass: &[f32],
    dt: f32,
) {
    assert_eq!(positions.len(), velocities.len());
    assert_eq!(positions.len(), forces.len());
    assert_eq!(positions.len(), inv_mass.len());
    for i in 0..positions.len() {
        velocities[i] += forces[i] * (inv_mass[i] * dt);
        positions[i] += velocities[i] * dt;
    }
}

/// Berendsen-style weak-coupling velocity scaling toward `t_ref` with
/// coupling time `tau` (ps). Returns the applied scale factor.
///
/// `kinetic` is the current kinetic energy of the atoms in `velocities`
/// (computed by the caller so that, under domain decomposition, a globally
/// reduced value can be supplied to keep ranks consistent).
pub fn berendsen_scale(
    velocities: &mut [Vec3],
    kinetic: f64,
    n_dof: f64,
    t_ref: f64,
    tau: f64,
    dt: f64,
) -> f64 {
    if kinetic <= 0.0 || n_dof <= 0.0 {
        return 1.0;
    }
    let t_now = 2.0 * kinetic / (n_dof * KB as f64);
    let lambda = (1.0 + (dt / tau) * (t_ref / t_now - 1.0)).max(0.64).sqrt();
    let lf = lambda as f32;
    for v in velocities.iter_mut() {
        *v *= lf;
    }
    lambda
}

/// Kinetic energy of a velocity slice (f64 accumulation).
pub fn kinetic_energy(velocities: &[Vec3], inv_mass: &[f32]) -> f64 {
    velocities
        .iter()
        .zip(inv_mass)
        .map(|(v, &im)| 0.5 * v.norm2() as f64 / im as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_particle_moves_linearly() {
        let mut x = vec![Vec3::ZERO];
        let mut v = vec![Vec3::new(1.0, 0.0, 0.0)];
        let f = vec![Vec3::ZERO];
        let im = vec![1.0];
        for _ in 0..10 {
            leapfrog_step(&mut x, &mut v, &f, &im, 0.01);
        }
        assert!((x[0].x - 0.1).abs() < 1e-6);
        assert_eq!(v[0], Vec3::new(1.0, 0.0, 0.0));
    }

    #[test]
    fn constant_force_accelerates() {
        let mut x = vec![Vec3::ZERO];
        let mut v = vec![Vec3::ZERO];
        let f = vec![Vec3::new(2.0, 0.0, 0.0)];
        let im = vec![0.5]; // mass 2
        leapfrog_step(&mut x, &mut v, &f, &im, 0.1);
        // dv = f/m dt = 1 * 0.1
        assert!((v[0].x - 0.1).abs() < 1e-6);
        assert!((x[0].x - 0.01).abs() < 1e-7);
    }

    #[test]
    fn harmonic_oscillator_energy_bounded() {
        // Single particle on a spring: k = 100, m = 1.
        let k = 100.0f32;
        let mut x = vec![Vec3::new(0.1, 0.0, 0.0)];
        let mut v = vec![Vec3::ZERO];
        let im = vec![1.0];
        let dt = 0.001f32;
        let e0 = 0.5 * k * 0.01;
        let mut e_max: f32 = 0.0;
        for _ in 0..10_000 {
            let f = vec![x[0] * -k];
            leapfrog_step(&mut x, &mut v, &f, &im, dt);
            let e = 0.5 * k * x[0].norm2() + 0.5 * v[0].norm2();
            e_max = e_max.max((e - e0).abs() / e0);
        }
        assert!(e_max < 0.01, "relative energy error {e_max}");
    }

    #[test]
    fn leapfrog_time_reversible() {
        let k = 50.0f32;
        let x0 = Vec3::new(0.12, -0.03, 0.07);
        let mut x = vec![x0];
        let mut v = vec![Vec3::new(0.3, 0.1, -0.2)];
        let im = vec![1.0];
        let dt = 0.002f32;
        let steps = 500;
        for _ in 0..steps {
            let f = vec![x[0] * -k];
            leapfrog_step(&mut x, &mut v, &f, &im, dt);
        }
        // Reverse velocities and integrate back.
        v[0] = -v[0];
        for _ in 0..steps {
            let f = vec![x[0] * -k];
            leapfrog_step(&mut x, &mut v, &f, &im, dt);
        }
        // Naive velocity reversal of leapfrog carries a half-step offset,
        // so reversal is approximate at O(dt).
        assert!((x[0] - x0).norm() < 5e-3, "{:?} vs {:?}", x[0], x0);
    }

    #[test]
    fn berendsen_moves_temperature_toward_target() {
        let mut v = vec![Vec3::new(1.0, 0.0, 0.0); 100];
        let im = vec![1.0f32; 100];
        let ke = kinetic_energy(&v, &im);
        let ndf = 300.0;
        let t_now = 2.0 * ke / (ndf * KB as f64);
        let t_ref = t_now * 2.0; // want to heat up
        let lambda = berendsen_scale(&mut v, ke, ndf, t_ref, 0.1, 0.002);
        assert!(lambda > 1.0);
        let ke2 = kinetic_energy(&v, &im);
        assert!(ke2 > ke);
    }

    #[test]
    fn kinetic_energy_formula() {
        let v = vec![Vec3::new(2.0, 0.0, 0.0)];
        let im = vec![0.25]; // mass 4
        assert!((kinetic_energy(&v, &im) - 8.0).abs() < 1e-9);
    }
}

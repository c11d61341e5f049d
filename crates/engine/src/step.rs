//! The per-rank MD step, written once: the GPU-resident skeleton of the
//! paper's Algorithm 2 — coordinate halo, forces, force halo, update —
//! under which only the exchange is swapped.
//!
//! [`run_segment`] advances whatever ranks it is given (one on a PE, all of
//! them under the serial driver) through the same leapfrog step — one force
//! round per step; the two executors differ only in their
//! [`Transport`]: how halos and the kinetic-energy sum travel. Everything
//! else — list staleness decision, tile order, bonded terms, which steps
//! compute energy and virial, DLB work units, thermostat — is shared by
//! construction, so what the equivalence suites prove is exactly the
//! transports (DESIGN.md §3.3).

use crate::config::{EngineConfig, ExchangeBackend};
use crate::devtimer::PhaseTimer;
use halox_core::{exec, CommContext, ExchangeError, FusedBuffers, Watchdog};
use halox_dd::{reference_coordinate_exchange, reference_force_exchange, DdPartition, RankPlan};
use halox_md::forces::{angle_virial, bond_virial, compute_angles, compute_bonds, NonbondedParams};
use halox_md::nb::{NbEvaluator, PhaseClock};
use halox_md::{integrate, EnergyReport, Frame, System, Vec3};
use halox_shmem::{Pe, TwoSidedComm};
use halox_trace::{record_opt, span_opt, Payload, Recorder, Region};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Per-rank state carried across a segment and returned to the gatherer
/// (home atoms in the order of the rank's plan).
pub(crate) struct RankResult {
    pub positions: Vec<Vec3>,
    pub velocities: Vec<Vec3>,
    /// One report per energy step of the segment ([`is_energy_step`]), in
    /// step order.
    pub energies: Vec<EnergyReport>,
    pub phases: PhaseTimer,
    /// Deterministic work units this rank executed over the segment: pair
    /// interactions in its list plus owned atoms, per force round.
    pub work: u64,
}

// Rank results cross the process boundary of the `procs` world backend.
halox_shmem::wire_codec!(struct RankResult {
    positions,
    velocities,
    energies,
    phases,
    work,
});

/// How halos and the kinetic-energy sum travel between the ranks of one
/// [`run_segment`] call. The slices are that call's per-rank state, in rank
/// order. `round` counts the segment's force rounds from 1: coordinate and
/// force slots are disjoint, so a round shares one signal value, which is
/// also the two-sided message tag.
pub(crate) trait Transport {
    /// Fill every rank's halo coordinates from its neighbours' home atoms.
    /// A transport with a post-send / pre-wait gap calls
    /// `overlap(r, positions[r])` inside it, once per rank: arrivals touch
    /// only the halo tail, so home coordinates may be read there.
    fn exchange_coordinates(
        &self,
        round: u64,
        positions: &mut [Vec<Vec3>],
        overlap: impl FnMut(usize, &[Vec3]),
    ) -> Result<(), ExchangeError>;

    /// Accumulate the forces computed on halo copies into their home
    /// entries; on return every home entry is complete.
    fn exchange_forces(&self, round: u64, forces: &mut [Vec<Vec3>]) -> Result<(), ExchangeError>;

    /// Global kinetic energy of the ranks' `energies` of this step (only
    /// their `kinetic` is read): a fold from zero in rank order, so every
    /// rank derives the same (bitwise-identical) thermostat scaling factor.
    fn sum_kinetic(&self, energies: &[EnergyReport]) -> Result<f64, ExchangeError>;

    /// Where this executor's rank-local spans are recorded, if anywhere.
    fn trace(&self) -> Option<&Recorder> {
        None
    }
}

/// One PE's view of the world: the signal-driven exchanges of `halox-core`
/// (or the two-sided baseline) and the deadline-bounded PGAS all-reduce.
pub(crate) struct PeTransport<'a> {
    pub pe: &'a Pe<'a>,
    pub ctx: &'a CommContext,
    pub bufs: &'a FusedBuffers,
    pub comm: &'a TwoSidedComm,
    pub cfg: &'a EngineConfig,
    /// Bounds every wait of the exchanges and the all-reduce.
    pub wd: Watchdog,
}

impl Transport for PeTransport<'_> {
    fn exchange_coordinates(
        &self,
        round: u64,
        positions: &mut [Vec<Vec3>],
        mut overlap: impl FnMut(usize, &[Vec3]),
    ) -> Result<(), ExchangeError> {
        let (pe, ctx, bufs, wd) = (self.pe, self.ctx, self.bufs, &self.wd);
        let (pos, n_home) = (&mut positions[0], ctx.n_home);
        if self.cfg.backend == ExchangeBackend::Mpi {
            // Two-sided blocking exchange: no window to overlap.
            let trace = self.cfg.trace.as_deref();
            return exec::mpi::coordinate_exchange(self.comm, ctx, round, pos, trace);
        }
        bufs.coords.write_slice(ctx.rank, 0, &pos[..n_home]);
        if self.cfg.backend == ExchangeBackend::ThreadMpi {
            exec::tmpi::coordinate_exchange(pe, ctx, bufs, round, wd)?;
        } else {
            exec::fused_pack_comm_x(pe, ctx, bufs, round, wd)?;
        }
        overlap(0, pos);
        exec::wait_coordinate_arrivals(pe, ctx, round, wd)?;
        bufs.coords.read_slice(ctx.rank, n_home, &mut pos[n_home..]);
        // Completion ack: senders may overwrite our halo regions next
        // round only after this (cross-step reuse fence).
        exec::ack_coordinate_consumed(pe, ctx, round);
        Ok(())
    }

    fn exchange_forces(&self, round: u64, forces: &mut [Vec<Vec3>]) -> Result<(), ExchangeError> {
        let (pe, ctx, bufs, wd) = (self.pe, self.ctx, self.bufs, &self.wd);
        let forces = &mut forces[0];
        if self.cfg.backend == ExchangeBackend::Mpi {
            let trace = self.cfg.trace.as_deref();
            return exec::mpi::force_exchange(self.comm, ctx, round, forces, trace);
        }
        // This overwrite of the whole symmetric force buffer is exactly the
        // cross-step hazard the ack protocol fences: the previous round's
        // exchange returned only after every downstream reader acked.
        record_opt(
            pe.trace(),
            ctx.rank as u32,
            Payload::RegionWrite {
                owner: ctx.rank as u32,
                region: Region::Forces,
                lo: 0,
                hi: forces.len() as u32,
            },
        );
        bufs.forces.load_from(ctx.rank, forces);
        if self.cfg.backend == ExchangeBackend::ThreadMpi {
            exec::tmpi::force_exchange(pe, ctx, bufs, round, wd)?;
        } else {
            exec::fused_comm_unpack_f(pe, ctx, bufs, round, wd)?;
        }
        bufs.forces
            .read_slice(ctx.rank, 0, &mut forces[..ctx.n_home]);
        Ok(())
    }

    /// Bounded like every other wait: a crashed peer expires the collective
    /// instead of hanging the world, so thermostatted runs ride the same
    /// recovery ladder as plain ones.
    fn sum_kinetic(&self, energies: &[EnergyReport]) -> Result<f64, ExchangeError> {
        let armed = Instant::now();
        self.pe
            .allreduce_sum_deadline(energies[0].kinetic, armed + self.wd.deadline)
            .ok_or_else(|| ExchangeError::CollectiveTimeout {
                rank: self.ctx.rank,
                what: "allreduce-sum(kinetic)",
                waited_ms: armed.elapsed().as_millis() as u64,
            })
    }

    fn trace(&self) -> Option<&Recorder> {
        self.pe.trace()
    }
}

/// All ranks on the calling thread: the serial reference exchanges of
/// `halox_dd`. No world, no signal protocol, no chaos deliveries —
/// deterministic by construction.
pub(crate) struct ReferenceTransport<'a> {
    part: &'a DdPartition,
}

impl<'a> ReferenceTransport<'a> {
    pub fn new(part: &'a DdPartition) -> Self {
        ReferenceTransport { part }
    }
}

impl Transport for ReferenceTransport<'_> {
    fn exchange_coordinates(
        &self,
        _round: u64,
        positions: &mut [Vec<Vec3>],
        _overlap: impl FnMut(usize, &[Vec3]),
    ) -> Result<(), ExchangeError> {
        reference_coordinate_exchange(self.part, positions);
        Ok(())
    }

    fn exchange_forces(&self, _round: u64, forces: &mut [Vec<Vec3>]) -> Result<(), ExchangeError> {
        reference_force_exchange(self.part, forces);
        Ok(())
    }

    fn sum_kinetic(&self, energies: &[EnergyReport]) -> Result<f64, ExchangeError> {
        Ok(energies.iter().fold(0.0, |acc, e| acc + e.kinetic))
    }
}

/// Whether absolute step `step` records energies: every `nstlist`-th step
/// from 0, so on runs cut into whole segments each segment's first
/// (search) step. The other steps compute forces only — no potential
/// energy, no virial — which is what the thermostat needs (GROMACS'
/// `nstcalcenergy`, here pinned to `nstlist`).
pub(crate) fn is_energy_step(step: usize, nstlist: usize) -> bool {
    step.is_multiple_of(nstlist.max(1))
}

/// Energy steps in `[0, step)`: the length of an energy history `step`
/// steps long.
pub(crate) fn energy_steps_before(step: usize, nstlist: usize) -> usize {
    step.div_ceil(nstlist.max(1))
}

/// Advance ranks `ranks` of `part` by `steps` MD steps from the gathered
/// `system`, whose absolute step is `first_step`, exchanging halos over
/// `transport`. Returns one [`RankResult`] per rank, in rank order.
pub(crate) fn run_segment<T: Transport>(
    transport: &T,
    part: &DdPartition,
    ranks: Range<usize>,
    system: &System,
    cfg: &EngineConfig,
    first_step: usize,
    steps: usize,
) -> Result<Vec<RankResult>, ExchangeError> {
    let mut seg = Segment::new(&part.ranks[ranks], part.grid.dims, system, cfg, steps);
    for k in 0..steps {
        let energy = is_energy_step(first_step + k, cfg.nstlist);
        seg.force_round(transport, energy)?;
        seg.close_step(transport, energy)?;
        seg.integrate();
    }
    Ok(seg.finish())
}

/// Book one interval spent jointly on every rank (an exchange) in equal
/// shares on their timers: Σ over ranks stays the wall time, and each rank
/// counts one invocation per round whichever transport ran it.
fn share(ranks: &mut [RankResult], phase: &'static str, dt: Duration) {
    let each = dt / ranks.len() as u32;
    for rank in ranks {
        rank.phases.add(phase, each);
    }
}

/// The ranks one [`run_segment`] call advances, as parallel per-rank vectors
/// (length 1 on a PE) — the shape the reference exchanges take.
struct Segment<'a> {
    plans: &'a [RankPlan],
    system: &'a System,
    cfg: &'a EngineConfig,
    frame: Frame,
    params: NonbondedParams,
    /// Force rounds started so far (see [`Transport`]).
    round: u64,
    /// DD-frame positions and forces of all local atoms (home + halo).
    positions: Vec<Vec<Vec3>>,
    forces: Vec<Vec<Vec3>>,
    nbs: Vec<NbEvaluator>,
    /// Potential terms and virial of the latest energy round; `close_step`
    /// adds the kinetic energy and records the step if it is an energy
    /// step (the thermostat reads only the kinetic term).
    step_energy: Vec<EnergyReport>,
    /// Everything else a rank carries accumulates where it is returned:
    /// home velocities, energy-step reports, phase timer, load counters.
    ranks: Vec<RankResult>,
}

impl<'a> Segment<'a> {
    fn new(
        plans: &'a [RankPlan],
        grid_dims: [usize; 3],
        system: &'a System,
        cfg: &'a EngineConfig,
        steps: usize,
    ) -> Self {
        let start = |p: &RankPlan| RankResult {
            positions: Vec::new(),
            velocities: p.global_ids[..p.n_home]
                .iter()
                .map(|&g| system.velocities[g as usize])
                .collect(),
            energies: Vec::with_capacity(steps.div_ceil(cfg.nstlist.max(1))),
            phases: PhaseTimer::new(),
            work: 0,
        };
        Segment {
            plans,
            system,
            cfg,
            frame: Frame::for_decomposition(&system.pbc, grid_dims),
            params: NonbondedParams::new(cfg.cutoff),
            round: 0,
            positions: plans.iter().map(|p| p.build_positions.clone()).collect(),
            forces: plans
                .iter()
                .map(|p| vec![Vec3::ZERO; p.n_local()])
                .collect(),
            nbs: plans.iter().map(|_| NbEvaluator::default()).collect(),
            step_energy: vec![EnergyReport::default(); plans.len()],
            ranks: plans.iter().map(start).collect(),
        }
    }

    /// One step's exchange + force-computation round. With `energy` false
    /// only forces are computed: the force-only kernel, no bonded virials,
    /// `step_energy` untouched.
    fn force_round<T: Transport>(
        &mut self,
        transport: &T,
        energy: bool,
    ) -> Result<(), ExchangeError> {
        self.round += 1;
        let (plans, sys, cfg) = (self.plans, self.system, self.cfg);
        let (frame, params) = (&self.frame, &self.params);
        let trace = transport.trace();

        // --- Coordinate halo exchange. With a retained list the local
        // (home–home) tile partition runs inside the transport's overlap
        // window; its time is booked as `nb_local` / `pack_overlap`, not as
        // exchange time. ---
        let (nbs, ranks) = (&mut self.nbs, &mut self.ranks);
        let mut overlapped = Duration::ZERO;
        let t0 = Instant::now();
        transport.exchange_coordinates(self.round, &mut self.positions, |r, pos| {
            if cfg.nb_overlap && nbs[r].can_overlap() {
                let _s = span_opt(trace, plans[r].rank as u32, "nb_local_overlap", -1);
                let h0 = Instant::now();
                nbs[r].compute_local_overlapped(frame, pos, params, energy, &mut ranks[r].phases);
                overlapped += h0.elapsed();
            }
        })?;
        let exchange = t0.elapsed().saturating_sub(overlapped);
        share(&mut self.ranks, "halo_x", exchange);

        for (r, plan) in plans.iter().enumerate() {
            let (pos, forces) = (&self.positions[r], &mut self.forces[r]);
            let (nb, rank) = (&mut self.nbs[r], &mut self.ranks[r]);
            // --- Forces: the evaluator makes this round's single staleness
            // decision (the list is rebuilt locally if a fast atom exhausts
            // the Verlet buffer early; halo *membership* stays fixed until
            // the next repartition, exactly GROMACS' behaviour between
            // neighbour-search steps), folds any overlapped local partial,
            // and runs the remaining tile partitions. ---
            forces.clear();
            forces.resize(plan.n_local(), Vec3::ZERO);
            let (nonbonded, w_nb) = {
                let _s = span_opt(trace, plan.rank as u32, "nb_forces", -1);
                nb.compute(
                    frame,
                    pos,
                    &plan.kinds,
                    plan.n_home,
                    cfg.r_comm(),
                    cfg.buffer,
                    // Eighth-shell zone pairs minus intramolecular
                    // exclusions, as the plan's precomputed data.
                    &plan.pair_filter,
                    params,
                    energy,
                    forces,
                    &mut rank.phases,
                )
            };
            rank.work += nb.last_pair_count() + plan.n_home as u64;
            let (bonds, angles, w_bonds, w_angles) = rank.phases.time("bonded", || {
                let local_ident = |g: u32| Some(g);
                let bonds = compute_bonds(&sys.pbc, pos, &plan.bonds, &local_ident, forces);
                let angles = compute_angles(&sys.pbc, pos, &plan.angles, &local_ident, forces);
                let (w_bonds, w_angles) = if energy {
                    (
                        bond_virial(&sys.pbc, pos, &plan.bonds),
                        angle_virial(&sys.pbc, pos, &plan.angles),
                    )
                } else {
                    (0.0, 0.0)
                };
                (bonds, angles, w_bonds, w_angles)
            });
            if energy {
                self.step_energy[r] = EnergyReport {
                    nonbonded,
                    bonds,
                    angles,
                    kinetic: 0.0,
                    // Pairs and bonded terms are each computed on exactly
                    // one rank, so per-rank virials sum to the global one.
                    virial: w_nb + w_bonds + w_angles,
                };
            }
        }

        // --- Force halo exchange ---
        let t0 = Instant::now();
        transport.exchange_forces(self.round, &mut self.forces)?;
        share(&mut self.ranks, "halo_f", t0.elapsed());
        Ok(())
    }

    /// Record an energy step's energies and, with a thermostat, rescale
    /// the velocities. Kinetic energy is computed only when one of the two
    /// needs it; thermostat-off steps perform no global sum.
    fn close_step<T: Transport>(
        &mut self,
        transport: &T,
        record: bool,
    ) -> Result<(), ExchangeError> {
        if record || self.cfg.thermostat.is_some() {
            let per_rank = self.plans.iter().zip(&mut self.ranks);
            for ((plan, rank), energy) in per_rank.zip(&mut self.step_energy) {
                energy.kinetic =
                    integrate::kinetic_energy(&rank.velocities, &plan.inv_mass[..plan.n_home]);
                if record {
                    rank.energies.push(*energy);
                }
            }
        }
        if let Some(t) = self.cfg.thermostat {
            let global_ke = transport.sum_kinetic(&self.step_energy)?;
            let ndf = 3.0 * self.system.n_atoms() as f64 - 3.0;
            let dt = self.cfg.dt_ps as f64;
            for rank in &mut self.ranks {
                integrate::berendsen_scale(
                    &mut rank.velocities,
                    global_ke,
                    ndf,
                    t.t_ref,
                    t.tau_ps,
                    dt,
                );
            }
        }
        Ok(())
    }

    /// Advance every rank's home atoms by one leapfrog step.
    fn integrate(&mut self) {
        for (r, (plan, rank)) in self.plans.iter().zip(&mut self.ranks).enumerate() {
            let n = plan.n_home;
            let (pos, forces) = (&mut self.positions[r][..n], &self.forces[r][..n]);
            let (vel, inv_mass, dt) = (&mut rank.velocities, &plan.inv_mass[..n], self.cfg.dt_ps);
            let timer = &mut rank.phases;
            timer.time("integrate", || {
                integrate::leapfrog_step(pos, vel, forces, inv_mass, dt)
            });
        }
    }

    /// Hand each rank its home positions and return the results.
    fn finish(mut self) -> Vec<RankResult> {
        let per_rank = self.plans.iter().zip(&mut self.ranks);
        for ((plan, rank), mut pos) in per_rank.zip(self.positions) {
            pos.truncate(plan.n_home);
            rank.positions = pos;
        }
        self.ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halox_shmem::Wire;

    #[test]
    fn rank_result_round_trips_the_wire() {
        let v = |x: f32| Vec3::new(x, -0.0, f32::from_bits(0x7fc0_1234));
        let mut phases = PhaseTimer::new();
        phases.add("nb_local", Duration::from_micros(1500));
        phases.add("pack", Duration::from_nanos(250));
        let rank = RankResult {
            positions: vec![v(0.5), v(1.25)],
            velocities: vec![v(-3.0)],
            energies: vec![EnergyReport {
                nonbonded: -12.5,
                bonds: 0.25,
                angles: 0.125,
                kinetic: 7.0,
                virial: -3.5,
            }],
            phases,
            work: 123_456,
        };
        let back = RankResult::from_bytes(&rank.to_bytes()).expect("round trip");
        let bits = |xs: &[Vec3]| -> Vec<[u32; 3]> {
            xs.iter()
                .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                .collect()
        };
        assert_eq!(bits(&back.positions), bits(&rank.positions));
        assert_eq!(bits(&back.velocities), bits(&rank.velocities));
        assert_eq!(back.energies, rank.energies);
        assert_eq!(
            back.phases.iter().collect::<Vec<_>>(),
            rank.phases.iter().collect::<Vec<_>>()
        );
        assert_eq!(back.work, rank.work);
    }
}

//! `halo_only`: exchange rounds with no MD compute.
//!
//! One partition, one world, one set of symmetric buffers; inside a single
//! `world.run` each PE loops the fused exchange in engine order
//! (`fused_pack_comm_x` → `wait_coordinate_arrivals` →
//! `ack_coordinate_consumed` → reload forces → `fused_comm_unpack_f`) with a
//! monotone signal value. The unit of work is one exchange round; a timing
//! sample is a chunk of [`CHUNK_ROUNDS`] rounds as PE 0 saw it, a rate
//! sample one block's rounds over the wall of its `world.run`. The
//! serialized two-sided baseline goes through the same partition once, for
//! the reference check; its timing is the traced run's `core.mpi_*_us`.

use super::{repeat_setup, run_rounds, ProbeInputs, MIN_ROUNDS};
use crate::harness::{overhead_frac, Outcome, RunArgs, Sample};
use crate::inputs::{engine_config, relaxed_system, GRID_2PE, R_COMM};
use crate::span::Spans;
use halox_core::{build_contexts, exec, CommContext, ExchangeError, FusedBuffers, Watchdog};
use halox_dd::{
    build_partition, reference_coordinate_exchange, reference_force_exchange, DdGrid, DdPartition,
};
use halox_engine::ExchangeBackend;
use halox_md::{System, Vec3};
use halox_shmem::{ShmemWorld, Topology, TwoSidedComm, WorldBackend};
use std::time::Instant;

const ATOMS: usize = 6_000;
const TEMPERATURE_K: f32 = 250.0;
/// Exchange rounds per timed block: ~0.3 s.
const ROUNDS_PER_BLOCK: u64 = 2_000;
/// Rounds of a traced block whose individual calls become spans (PE 0);
/// the rest only contribute to the per-call totals.
const SPAN_ROUNDS: usize = 64;

/// Names of the four timed calls of a fused round, in call order.
pub const FUSED_CALLS: [&str; 4] = ["core.pack_x", "core.wait_x", "core.ack_x", "core.unpack_f"];
pub const MPI_CALLS: [&str; 2] = ["core.mpi_coord", "core.mpi_force"];

/// A decomposition wired up for exchange-only rounds, plus the reference
/// results every block is checked against.
pub struct HaloRig {
    pub part: DdPartition,
    pub ctxs: Vec<CommContext>,
    pub world: ShmemWorld,
    pub bufs: FusedBuffers,
    pub comm: TwoSidedComm,
    init_forces: Vec<Vec<Vec3>>,
    expect_coords: Vec<Vec<Vec3>>,
    expect_forces: Vec<Vec<Vec3>>,
    /// Fused rounds run so far. Signal values must be contiguous: round
    /// `n` waits for the consumption ack of round `n - 1`.
    fused_rounds: u64,
    /// Two-sided rounds run so far (message tags are monotone).
    mpi_rounds: u64,
}

/// Per-block result of one PE: per-call total seconds, the wall seconds of
/// each chunk of [`CHUNK_ROUNDS`] rounds, and (traced only)
/// `(call index, (start ns, end ns))` of the first rounds.
type PeBlock = (Vec<f64>, Vec<f64>, Vec<(usize, (f64, f64))>);

/// Rounds per timing sample inside a block (~40 ms): short enough that a
/// run has hundreds of samples, long enough to swamp the timer.
const CHUNK_ROUNDS: u64 = 250;

/// Stamps chunk boundaries inside a PE's round loop.
struct ChunkClock {
    last: Instant,
    chunks: Vec<f64>,
}

impl ChunkClock {
    fn start() -> Self {
        ChunkClock {
            last: Instant::now(),
            chunks: Vec::new(),
        }
    }

    /// Call after round `r` (0-based) of `rounds`.
    fn tick(&mut self, r: u64, rounds: u64) {
        if (r + 1).is_multiple_of(CHUNK_ROUNDS) || r + 1 == rounds {
            let now = Instant::now();
            self.chunks.push((now - self.last).as_secs_f64());
            self.last = now;
        }
    }
}

/// One timed block: the slowest PE's wall, the per-chunk samples and the
/// per-call means.
pub struct Block {
    pub round_us: f64,
    /// µs per round of each of the block's chunks, as PE 0 saw them.
    pub chunk_us: Vec<f64>,
    /// Mean seconds per call, averaged over PEs, in call order.
    pub call_us: Vec<f64>,
    pub rounds: u64,
    /// Wall of the whole `world.run` (PE launch and join included), s.
    pub run_wall_s: f64,
}

impl HaloRig {
    pub fn new(
        system: &System,
        grid: [usize; 3],
        topology_of: impl Fn(usize) -> Topology,
        spans: &mut Spans,
    ) -> Self {
        let (part, _) = spans.scope("dd.partition", |_| {
            build_partition(system, &DdGrid::new(grid), R_COMM)
        });
        let (ctxs, _) = spans.scope("core.contexts", |_| build_contexts(&part));
        let n = part.n_ranks();
        let (world, _) = spans.scope("shmem.world_new", |_| {
            ShmemWorld::new_with_backend(
                WorldBackend::Threads,
                topology_of(n),
                CommContext::slots_needed(part.total_pulses()),
            )
        });
        let (bufs, _) = spans.scope("core.buffers", |_| FusedBuffers::alloc(n, &ctxs[0]));
        let comm = TwoSidedComm::new(n);

        let mut expect_coords: Vec<Vec<Vec3>> = part
            .ranks
            .iter()
            .map(|r| r.build_positions.clone())
            .collect();
        reference_coordinate_exchange(&part, &mut expect_coords);
        let init_forces: Vec<Vec<Vec3>> = part
            .ranks
            .iter()
            .map(|r| {
                (0..r.n_local())
                    .map(|i| {
                        Vec3::new(
                            ((r.rank + 1) * (i % 97 + 1)) as f32 * 1e-3,
                            (i % 89) as f32 * 1e-2,
                            1.0,
                        )
                    })
                    .collect()
            })
            .collect();
        let mut expect_forces = init_forces.clone();
        reference_force_exchange(&part, &mut expect_forces);
        for r in &part.ranks {
            bufs.coords.load_from(r.rank, &r.build_positions);
        }
        HaloRig {
            part,
            ctxs,
            world,
            bufs,
            comm,
            init_forces,
            expect_coords,
            expect_forces,
            fused_rounds: 0,
            mpi_rounds: 0,
        }
    }

    /// `rounds` fused exchange rounds inside one `world.run`. With `timed`
    /// every exec call is bracketed by an `Instant` pair on its PE (the
    /// traced layer probe); without, only the block is timed.
    pub fn fused_block(
        &mut self,
        rounds: u64,
        timed: bool,
        spans: &mut Spans,
    ) -> Result<Block, ExchangeError> {
        let base = self.fused_rounds;
        self.fused_rounds += rounds;
        let (ctxs, bufs, init) = (&self.ctxs, &self.bufs, &self.init_forces);
        let wd = Watchdog::default();
        let launch = Instant::now();
        let (per_pe, run_wall_s) = spans.scope("shmem.world_run", |_| {
            self.world.run(|pe| -> Result<PeBlock, ExchangeError> {
                let ctx = &ctxs[pe.id];
                let mut calls = vec![0.0f64; FUSED_CALLS.len()];
                let mut first: Vec<(usize, (f64, f64))> = Vec::new();
                pe.barrier_all();
                let mut clock = ChunkClock::start();
                for r in 0..rounds {
                    let sig = base + r + 1;
                    if timed {
                        let a = Instant::now();
                        exec::fused_pack_comm_x(pe, ctx, bufs, sig, &wd)?;
                        let b = Instant::now();
                        exec::wait_coordinate_arrivals(pe, ctx, sig, &wd)?;
                        let c = Instant::now();
                        exec::ack_coordinate_consumed(pe, ctx, sig);
                        let d = Instant::now();
                        bufs.forces.load_from(ctx.rank, &init[ctx.rank]);
                        let e = Instant::now();
                        exec::fused_comm_unpack_f(pe, ctx, bufs, sig, &wd)?;
                        let f = Instant::now();
                        let marks = [(a, b), (b, c), (c, d), (e, f)];
                        for (k, (s, t)) in marks.iter().enumerate() {
                            calls[k] += (*t - *s).as_secs_f64();
                            if pe.id == 0 && (r as usize) < SPAN_ROUNDS {
                                first.push((
                                    k,
                                    (
                                        (*s - launch).as_nanos() as f64,
                                        (*t - launch).as_nanos() as f64,
                                    ),
                                ));
                            }
                        }
                    } else {
                        exec::fused_pack_comm_x(pe, ctx, bufs, sig, &wd)?;
                        exec::wait_coordinate_arrivals(pe, ctx, sig, &wd)?;
                        exec::ack_coordinate_consumed(pe, ctx, sig);
                        bufs.forces.load_from(ctx.rank, &init[ctx.rank]);
                        exec::fused_comm_unpack_f(pe, ctx, bufs, sig, &wd)?;
                    }
                    clock.tick(r, rounds);
                }
                Ok((calls, clock.chunks, first))
            })
        });
        let per_pe: Vec<PeBlock> = per_pe.into_iter().collect::<Result<_, _>>()?;
        for (k, (s, t)) in &per_pe[0].2 {
            let at = |ns: f64| launch + std::time::Duration::from_nanos(ns as u64);
            spans.leaf_at(FUSED_CALLS[*k], at(*s), at(*t));
        }
        Ok(block_of(&per_pe, rounds, run_wall_s))
    }

    /// The same rounds through `exec::mpi::{coordinate,force}_exchange`.
    /// Returns the block and each rank's final (coords, forces) for the
    /// reference check.
    #[allow(clippy::type_complexity)]
    pub fn mpi_block(
        &mut self,
        rounds: u64,
        spans: &mut Spans,
    ) -> Result<(Block, Vec<(Vec<Vec3>, Vec<Vec3>)>), ExchangeError> {
        let base = self.mpi_rounds;
        self.mpi_rounds += rounds;
        let (ctxs, comm, init, part) = (&self.ctxs, &self.comm, &self.init_forces, &self.part);
        let (per_pe, run_wall_s) = spans.scope("shmem.world_run", |_| {
            self.world.run(
                |pe| -> Result<(PeBlock, (Vec<Vec3>, Vec<Vec3>)), ExchangeError> {
                    let ctx = &ctxs[pe.id];
                    let mut coords = part.ranks[pe.id].build_positions.clone();
                    let mut forces = init[pe.id].clone();
                    let mut calls = vec![0.0f64; MPI_CALLS.len()];
                    pe.barrier_all();
                    let mut clock = ChunkClock::start();
                    for r in 0..rounds {
                        let step = base + r + 1;
                        let a = Instant::now();
                        exec::mpi::coordinate_exchange(comm, ctx, step, &mut coords, None)?;
                        let b = Instant::now();
                        forces.copy_from_slice(&init[pe.id]);
                        let c = Instant::now();
                        exec::mpi::force_exchange(comm, ctx, step, &mut forces, None)?;
                        let d = Instant::now();
                        calls[0] += (b - a).as_secs_f64();
                        calls[1] += (d - c).as_secs_f64();
                        clock.tick(r, rounds);
                    }
                    Ok(((calls, clock.chunks, Vec::new()), (coords, forces)))
                },
            )
        });
        let per_pe: Vec<(PeBlock, (Vec<Vec3>, Vec<Vec3>))> =
            per_pe.into_iter().collect::<Result<_, _>>()?;
        let (blocks, finals): (Vec<PeBlock>, Vec<_>) = per_pe.into_iter().unzip();
        Ok((block_of(&blocks, rounds, run_wall_s), finals))
    }

    /// [`HaloRig::fused_block`] with the bookkeeping every caller wants:
    /// rounds counted as attempted, the buffers checked against the
    /// reference exchanges, an `ExchangeError` counted as failed rounds.
    pub fn checked_fused_block(
        &mut self,
        label: &str,
        rounds: u64,
        timed: bool,
        spans: &mut Spans,
        out: &mut Outcome,
    ) -> Option<Block> {
        out.attempted += rounds;
        match self.fused_block(rounds, timed, spans) {
            Ok(block) => {
                self.check_fused(label, out);
                Some(block)
            }
            Err(e) => {
                out.failed += rounds;
                out.check(false, || format!("{label}: fused block failed: {e}"));
                None
            }
        }
    }

    /// [`HaloRig::mpi_block`] with the same bookkeeping.
    pub fn checked_mpi_block(
        &mut self,
        label: &str,
        rounds: u64,
        spans: &mut Spans,
        out: &mut Outcome,
    ) -> Option<Block> {
        out.attempted += rounds;
        match self.mpi_block(rounds, spans) {
            Ok((block, finals)) => {
                self.check_against_reference(label, &finals, out);
                Some(block)
            }
            Err(e) => {
                out.failed += rounds;
                out.check(false, || format!("{label}: two-sided block failed: {e}"));
                None
            }
        }
    }

    /// Halo coordinates and home forces in the symmetric buffers equal the
    /// serial reference exchanges.
    fn check_fused(&self, label: &str, out: &mut Outcome) {
        let finals: Vec<(Vec<Vec3>, Vec<Vec3>)> = self
            .part
            .ranks
            .iter()
            .map(|r| {
                (
                    self.bufs.coords.snapshot(r.rank),
                    self.bufs.forces.snapshot(r.rank),
                )
            })
            .collect();
        self.check_against_reference(label, &finals, out);
    }

    fn check_against_reference(
        &self,
        label: &str,
        finals: &[(Vec<Vec3>, Vec<Vec3>)],
        out: &mut Outcome,
    ) {
        for r in &self.part.ranks {
            let (coords, forces) = &finals[r.rank];
            let bad_x = (0..r.n_local())
                .find(|&i| (coords[i] - self.expect_coords[r.rank][i]).norm() >= 1e-6);
            out.check(bad_x.is_none(), || {
                format!("{label}: rank {} halo coordinate {bad_x:?} differs from reference_coordinate_exchange", r.rank)
            });
            let bad_f = (0..r.n_home).find(|&i| {
                let want = self.expect_forces[r.rank][i];
                (forces[i] - want).norm() > 1e-4 * want.norm().max(1.0)
            });
            out.check(bad_f.is_none(), || {
                format!(
                    "{label}: rank {} home force {bad_f:?} differs from reference_force_exchange",
                    r.rank
                )
            });
        }
    }

    /// Messages, payload bytes and signal updates of one exchange round,
    /// computed exactly from the pulse metadata: each pulse of each rank is
    /// one coordinate and one force transfer of `send_count` atoms, and four
    /// signal updates (arrival and ack, both directions of the protocol).
    pub fn traffic_per_round(&self) -> (u64, u64, u64) {
        let pulses = self.part.ranks.iter().flat_map(|r| r.pulses.iter());
        let (mut msgs, mut bytes, mut signals) = (0u64, 0u64, 0u64);
        for p in pulses {
            msgs += 2;
            bytes += 2 * p.send_count() as u64 * std::mem::size_of::<Vec3>() as u64;
            signals += 4;
        }
        (msgs, bytes, signals)
    }
}

fn block_of(per_pe: &[PeBlock], rounds: u64, run_wall_s: f64) -> Block {
    let wall = per_pe
        .iter()
        .map(|p| p.1.iter().sum::<f64>())
        .fold(0.0, f64::max);
    let n_calls = per_pe[0].0.len();
    let call_us = (0..n_calls)
        .map(|k| {
            per_pe.iter().map(|p| p.0[k]).sum::<f64>() / per_pe.len() as f64 / rounds as f64 * 1e6
        })
        .collect();
    let chunk_len = |i: usize| (rounds - i as u64 * CHUNK_ROUNDS).min(CHUNK_ROUNDS);
    let chunk_us: Vec<f64> = per_pe[0]
        .1
        .iter()
        .enumerate()
        .map(|(i, s)| s / chunk_len(i) as f64 * 1e6)
        .collect();
    Block {
        round_us: wall / rounds as f64 * 1e6,
        chunk_us,
        call_us,
        rounds,
        run_wall_s,
    }
}

struct Setup {
    system: System,
    rig: HaloRig,
}

fn setup(seed: u64, spans: &mut Spans) -> (Setup, f64) {
    spans.scope("setup", |spans| {
        let system = relaxed_system(ATOMS, seed, TEMPERATURE_K, spans);
        let rig = HaloRig::new(&system, GRID_2PE, Topology::all_nvlink, spans);
        Setup { system, rig }
    })
}

pub fn run(args: &RunArgs, spans: &mut Spans, out: &mut Outcome) -> ProbeInputs {
    let (Setup { system, mut rig }, setup_s) = repeat_setup(args.trace, || setup(args.seed, spans));

    let mut scratch = Spans::new(false);
    // Before anything is timed: a short block of the fused path as warm-up,
    // and one of the two-sided baseline for its reference check.
    rig.checked_fused_block("fused warm-up", 200, false, &mut scratch, out);
    rig.checked_mpi_block("mpi", 200, &mut scratch, out);

    let mut fused_us = Vec::new();
    if args.trace {
        let mut plain_us = Vec::new();
        run_rounds(args.seconds / 2.0, 4, |k| {
            if k % 2 == 0 {
                let (b, _) = spans.scope("round", |spans| {
                    rig.checked_fused_block("fused", ROUNDS_PER_BLOCK, true, spans, out)
                });
                fused_us.extend(b.into_iter().flat_map(|b| b.chunk_us));
            } else {
                let (b, _) = spans.scope("round.unrecorded", |_| {
                    rig.checked_fused_block("fused", ROUNDS_PER_BLOCK, false, &mut scratch, out)
                });
                plain_us.extend(b.into_iter().flat_map(|b| b.chunk_us));
            }
        });
        out.set_value(
            "bench.trace_overhead_frac",
            overhead_frac(&fused_us, &plain_us),
        );
    } else {
        let mut fused_per_s = Vec::new();
        run_rounds(args.seconds, MIN_ROUNDS, |_| {
            if let Some(b) = rig.checked_fused_block("fused", ROUNDS_PER_BLOCK, false, spans, out) {
                fused_per_s.push(b.rounds as f64 / b.run_wall_s);
                fused_us.extend(b.chunk_us);
            }
        });
        let fused_ms: Vec<f64> = fused_us.iter().map(|us| us / 1e3).collect();
        out.set("op_ms", Sample::trimmed(&fused_ms));
        out.set("ops_per_s", Sample::trimmed(&fused_per_s));
        out.set("setup_s", Sample::median_of(&setup_s));
    }
    ProbeInputs {
        system,
        config: engine_config(ExchangeBackend::NvshmemFused, 10, None),
    }
}

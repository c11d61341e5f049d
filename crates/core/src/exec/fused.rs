//! The fused GPU-initiated halo exchange — functional plane.
//!
//! This is the paper's contribution (Algorithms 3-6) executed on the
//! thread-based PGAS runtime. Each call plays the role of one fused kernel
//! launch and runs entirely on the calling PE thread, like a persistent
//! kernel whose per-pulse block groups (`blockIdx.y`) poll their signals:
//! no thread launch or join sits between a signal and the store it
//! releases, and ordering comes only from the fine-grained signal protocol:
//!
//! * **Coordinates** ([`fused_pack_comm_x`], Alg 3/4): a cooperative pulse
//!   scheduler. Each pulse is a state machine (`PulseState`) advanced by
//!   non-blocking signal probes in a round-robin sweep, so *all pulses
//!   advance concurrently*: a pulse packs and sends its *independent*
//!   (home-atom) entries the moment its reuse fence opens; only the
//!   *dependent* (forwarded) tail waits on the arrival signals of the
//!   pulses it forwards from (`packWithDeps`). Transport adapts per peer:
//!   direct remote stores + release signal inside an NVLink island (the
//!   TMA zero-copy path), staged put-with-signal across the network (IBRC
//!   path).
//! * **Forces** ([`fused_comm_unpack_f`], Alg 5/6): pulses run in reverse;
//!   a pulse's force region is released to its upstream neighbour only
//!   after all later pulses' arrivals have been accumulated locally
//!   (`DEP_MGMT`). That chain is total, so the reverse loop *is* the
//!   schedule and this PE the only writer of the entries it accumulates
//!   into: plain load+store in the order of
//!   `halox_dd::reference_force_exchange`, hence bitwise equal to it. Over
//!   NVLink the receiver *gets* from the peer's force buffer (like the TMA
//!   bulk loads); over IB the producer puts into the receiver's staging
//!   buffer.
//!
//! Data moves a whole pulse (or a pulse's independent or dependent part)
//! per call, like the kernel's one coalesced pass over a send index:
//! [`SymVec3::gather_shifted`] packs straight into the receiver's halo
//! region, [`SymVec3::gather_shifted_into`] into the staging payload of the
//! one coarsened put, and [`SymVec3::scatter_add`] folds a pulse's received
//! forces into the home entries. Each is one pass of relaxed word loads and
//! stores in entry order — the same IEEE ops in the same order as an
//! element loop of `get`/`set`, without re-slicing the segment and
//! re-checking its range per element (DESIGN.md §3.5).
//!
//! # Cross-step reuse fencing
//!
//! One fused call only orders *within* a step; nothing in the data-arrival
//! signals orders step `N+1`'s reuse of a symmetric region after the
//! neighbour's step-`N` access of it. Concretely, on the NVLink get path a
//! rank could overwrite its force buffer (`load_from` for the next
//! evaluation) while the downstream neighbour's step-`N` get was still
//! reading it — there was no reverse completion ack. Both exchanges
//! therefore carry per-pulse *completion acks* (see `CommContext` ack
//! slots and DESIGN.md §3):
//!
//! * forces are self-fencing: each pulse acks its producer right after the
//!   reads, and [`fused_comm_unpack_f`] does not return until all of this
//!   PE's published regions are acked — so the caller may immediately
//!   reuse the buffers;
//! * coordinates are acked by the *caller* via [`ack_coordinate_consumed`]
//!   once it has read the halo (the exchange cannot know when the
//!   consumer is done), and [`fused_pack_comm_x`] waits for the previous
//!   step's ack before overwriting a peer's halo region.

use crate::ctx::CommContext;
use crate::error::{ExchangeError, ExchangePhase, Watchdog};
use crate::exec::{wait_or_stall, Wait};
use halox_md::Vec3;
use halox_shmem::{Pe, SignalSet, SymVec3};
use halox_trace::{record_opt, span_opt, Payload, Region, SpanGuard};
use std::time::Instant;

/// Symmetric buffers shared by the fused exchange. Allocation is collective
/// and identically sized on every PE (the NVSHMEM symmetric-heap rule that
/// §5.3 discusses; capacities come from the decomposition maximum plus the
/// usual over-allocation).
#[derive(Clone)]
pub struct FusedBuffers {
    /// Local coordinates (home + halo) per PE.
    pub coords: SymVec3,
    /// Local forces (home + halo) per PE.
    pub forces: SymVec3,
    /// Force staging for the network path, laid out per pulse.
    pub force_stage: SymVec3,
}

impl FusedBuffers {
    pub fn alloc(npes: usize, ctx: &CommContext) -> Self {
        FusedBuffers {
            coords: SymVec3::alloc(npes, ctx.buf_capacity),
            forces: SymVec3::alloc(npes, ctx.buf_capacity),
            force_stage: SymVec3::alloc(npes, ctx.stage_capacity.max(1)),
        }
    }
}

/// Where one coordinate pulse stands in [`fused_pack_comm_x`].
#[derive(Clone, Copy)]
enum PulseState {
    /// Nothing sent: the receiver's previous-step consumption ack is out.
    Fence,
    /// Independent entries sent; the first `k` of `dep_pulses` have arrived.
    Deps(usize),
    /// Dependent tail sent and the receiver notified.
    Done,
}

/// One pulse's slice of the scheduler state.
struct PulseRun<'a> {
    state: PulseState,
    /// The per-pulse `pack_x` span; dropped (recorded) when the pulse is done.
    span: Option<SpanGuard<'a>>,
    /// IB path only: the staging payload of the one coarsened put.
    staged: Vec<Vec3>,
    /// When the scheduler first found this pulse stuck on its current wait.
    stuck_since: Option<Instant>,
}

/// The signal wait pulse `p` is parked on in `state`.
fn pending_wait(ctx: &CommContext, p: usize, state: PulseState, sig_val: u64) -> Option<Wait> {
    match state {
        // Cross-step fence: the halo region this pulse writes on its
        // receiver may still be read by the receiver's previous step.
        PulseState::Fence => Some(Wait::new(ctx, ExchangePhase::CoordAckFence, p, sig_val)),
        PulseState::Deps(k) => {
            let dep = ctx.pulses[p].dep_pulses.get(k)?;
            Some(Wait::dep(ctx, p, *dep, sig_val))
        }
        PulseState::Done => None,
    }
}

/// Fused coordinate halo exchange (one "kernel" per step). On success all
/// of this PE's *sends* are issued; arrivals are signalled per pulse —
/// call [`wait_coordinate_arrivals`] before consuming halo coordinates.
///
/// Every sweep probes each unfinished pulse's pending signal without
/// blocking and moves the pulse as far as its signals allow, so a late
/// signal delays only the pulse that needs it. A sweep that advances
/// nothing walks the signal wait's spin → yield → sleep ladder; past its
/// spin rung (the clock is not read before) each stuck pulse's wait is
/// bounded by `wd` and expires into a [`StallReport`]-carrying error.
///
/// [`StallReport`]: crate::error::StallReport
pub fn fused_pack_comm_x(
    pe: &Pe,
    ctx: &CommContext,
    bufs: &FusedBuffers,
    sig_val: u64,
    wd: &Watchdog,
) -> Result<(), ExchangeError> {
    let rank = ctx.rank as u32;
    let mut runs: Vec<PulseRun> = (0..ctx.total_pulses)
        .map(|p| PulseRun {
            state: PulseState::Fence,
            span: span_opt(pe.trace(), rank, "pack_x", p as i32),
            staged: Vec::new(),
            stuck_since: None,
        })
        .collect();
    let mut unfinished = runs.len();
    let mut idle_sweeps = 0u32;
    while unfinished > 0 {
        let mut progressed = false;
        for (p, run) in runs.iter_mut().enumerate() {
            let pd = &ctx.pulses[p];
            let dst = pd.send_rank;
            // NVLink: zero-copy remote stores, pipelined with packing.
            // IB: pack into the staging payload instead.
            let direct = pe.nvlink_reachable(dst);
            let pack = |entries: &[u32], at: usize, staged: &mut Vec<Vec3>| {
                let coords = &bufs.coords;
                if direct {
                    let at = pd.remote_recv_offset + at;
                    coords.gather_shifted(ctx.rank, entries, pd.shift, coords, dst, at);
                } else {
                    coords.gather_shifted_into(ctx.rank, entries, pd.shift, staged);
                }
            };
            while let Some(wait) = pending_wait(ctx, p, run.state, sig_val) {
                if !pe.try_signal(wait.slot, wait.val) {
                    break;
                }
                progressed = true;
                run.stuck_since = None;
                run.state = match run.state {
                    PulseState::Fence => {
                        record_opt(
                            pe.trace(),
                            rank,
                            Payload::RegionWrite {
                                owner: dst as u32,
                                region: Region::Coords,
                                lo: pd.remote_recv_offset as u32,
                                hi: (pd.remote_recv_offset + pd.send_count()) as u32,
                            },
                        );
                        pack(pd.independent(), 0, &mut run.staged);
                        PulseState::Deps(0)
                    }
                    PulseState::Deps(k) => PulseState::Deps(k + 1),
                    PulseState::Done => unreachable!("a finished pulse has no pending wait"),
                };
                if matches!(run.state, PulseState::Deps(k) if k == pd.dep_pulses.len()) {
                    pack(pd.dependent(), pd.dep_offset, &mut run.staged);
                    if direct {
                        // Fused receiver notification (release publishes stores).
                        pe.signal(dst, ctx.coord_slot(p), sig_val);
                    } else {
                        // One coarsened put-with-signal.
                        pe.put_vec3_signal_nbi(
                            &bufs.coords,
                            dst,
                            pd.remote_recv_offset,
                            &run.staged,
                            ctx.coord_slot(p),
                            sig_val,
                        );
                    }
                    run.state = PulseState::Done;
                    run.span = None;
                    unfinished -= 1;
                }
            }
        }
        if progressed {
            idle_sweeps = 0;
            continue;
        }
        idle_sweeps += 1;
        if !SignalSet::backoff(idle_sweeps) {
            continue;
        }
        // Past the spin rung: every unfinished pulse is stuck on a signal.
        // Arm its deadline on first sight, expire it into a stall report.
        let now = Instant::now();
        for (p, run) in runs.iter_mut().enumerate() {
            let Some(wait) = pending_wait(ctx, p, run.state, sig_val) else {
                continue;
            };
            let armed = *run.stuck_since.get_or_insert(now);
            let observed = pe.my_signals().peek(wait.slot);
            if observed < wait.val && now >= armed + wd.deadline {
                let timeout = Payload::SignalWaitTimeout {
                    slot: wait.slot as u32,
                    required: wait.val,
                    observed,
                };
                record_opt(pe.trace(), rank, timeout);
                return Err(wait.stalled(pe, ctx, observed, armed));
            }
        }
    }
    Ok(())
}

/// Block until all coordinate pulses of this step have arrived (bounded by
/// the watchdog). In the real kernel schedule this wait is what gates the
/// non-local non-bonded kernel's reads of halo data.
pub fn wait_coordinate_arrivals(
    pe: &Pe,
    ctx: &CommContext,
    sig_val: u64,
    wd: &Watchdog,
) -> Result<(), ExchangeError> {
    for p in 0..ctx.total_pulses {
        let arrival = Wait::new(ctx, ExchangePhase::CoordArrival, p, sig_val);
        wait_or_stall(pe, ctx, wd, arrival)?;
    }
    Ok(())
}

/// Tell each coordinate sender that this PE is done reading the halo data
/// of step `sig_val`, releasing their pulse regions for the next step.
///
/// Call after the last read of halo coordinates for this step (after the
/// force kernels that consume them). A driver that skips this will
/// deadlock the *next* [`fused_pack_comm_x`] on the reuse fence — by
/// design: overwriting an unacked halo is exactly the cross-step race the
/// fence exists to prevent.
pub fn ack_coordinate_consumed(pe: &Pe, ctx: &CommContext, sig_val: u64) {
    for (p, pd) in ctx.pulses.iter().enumerate() {
        // The read event marks the *consumer-side* access of the halo
        // region; it is sequenced after the arrival wait and before the
        // ack release, which is what lets the checker pair it with the
        // sender's next-step overwrite.
        record_opt(
            pe.trace(),
            ctx.rank as u32,
            Payload::RegionRead {
                owner: ctx.rank as u32,
                region: Region::Coords,
                lo: pd.recv_offset as u32,
                hi: (pd.recv_offset + pd.recv_count) as u32,
            },
        );
        pe.signal(pd.recv_rank, ctx.coord_ack_slot(p), sig_val);
    }
}

/// Fused force halo exchange + unpack. `forces` (this PE's segment of
/// `bufs.forces`) must already hold the locally computed forces for all
/// local atoms; on return, every *home* entry includes all remote
/// contributions.
///
/// The call is *self-fencing across steps*: it returns only after every
/// region this PE published (its force buffer on the get path, the
/// upstream's staging area on the put path) has been acked by its
/// consumer, so the caller may immediately overwrite the force buffer for
/// the next evaluation. Without that reverse ack, step `N+1`'s
/// `load_from` races the downstream neighbour's still-in-flight step-`N`
/// get.
pub fn fused_comm_unpack_f(
    pe: &Pe,
    ctx: &CommContext,
    bufs: &FusedBuffers,
    sig_val: u64,
    wd: &Watchdog,
) -> Result<(), ExchangeError> {
    let rank = ctx.rank as u32;
    for p in (0..ctx.total_pulses).rev() {
        let pd = &ctx.pulses[p];
        let _span = span_opt(pe.trace(), rank, "unpack_f", p as i32);
        // --- DEP_MGMT: region p is final — every later pulse's
        // contributions were folded in by earlier iterations — so release
        // it upstream.
        let upstream = pd.recv_rank;
        if pe.nvlink_reachable(upstream) {
            // Receiver-driven get path: just publish readiness.
            pe.signal(upstream, ctx.force_slot(p), sig_val);
        } else {
            // Network path: put the region into the upstream rank's
            // staging buffer with a fused signal.
            let mut payload = vec![Vec3::ZERO; pd.recv_count];
            bufs.forces
                .read_slice(ctx.rank, pd.recv_offset, &mut payload);
            record_opt(
                pe.trace(),
                rank,
                Payload::RegionWrite {
                    owner: upstream as u32,
                    region: Region::ForceStage,
                    lo: ctx.remote_stage_offset[p] as u32,
                    hi: (ctx.remote_stage_offset[p] + payload.len()) as u32,
                },
            );
            pe.put_vec3_signal_nbi(
                &bufs.force_stage,
                upstream,
                ctx.remote_stage_offset[p],
                &payload,
                ctx.force_slot(p),
                sig_val,
            );
        }

        // --- DATA: consume the forces computed downstream for the atoms I
        // sent in pulse p. Single writer (see module docs): plain
        // load+store stands in for the kernel's atomicAdd.
        let downstream = pd.send_rank;
        let data = Wait::new(ctx, ExchangePhase::ForceData, p, sig_val);
        wait_or_stall(pe, ctx, wd, data)?;
        // Over NVLink read `downstream`'s force region; over IB my staging
        // area, which `downstream` filled.
        let (src, owner, region, base) = if pe.nvlink_reachable(downstream) {
            (
                &bufs.forces,
                downstream,
                Region::Forces,
                pd.remote_recv_offset,
            )
        } else {
            (
                &bufs.force_stage,
                ctx.rank,
                Region::ForceStage,
                ctx.stage_offset[p],
            )
        };
        record_opt(
            pe.trace(),
            rank,
            Payload::RegionRead {
                owner: owner as u32,
                region,
                lo: base as u32,
                hi: (base + pd.send_index.len()) as u32,
            },
        );
        bufs.forces
            .scatter_add(ctx.rank, &pd.send_index, src, owner, base);
        // Completion ack: the producer of what this pulse just read may
        // reuse it next step.
        pe.signal(downstream, ctx.force_ack_slot(p), sig_val);
    }
    // Epoch fence: do not return until every region *I* published this
    // step has been consumed. My consumer for pulse p is the upstream
    // neighbour, whose DATA phase acks my force_ack slot after its reads.
    for p in 0..ctx.total_pulses {
        let acked = Wait::new(ctx, ExchangePhase::ForceAckFence, p, sig_val);
        wait_or_stall(pe, ctx, wd, acked)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::build_contexts;
    use halox_dd::{
        build_partition, reference_coordinate_exchange, reference_force_exchange, DdGrid,
        DdPartition,
    };
    use halox_md::GrappaBuilder;
    use halox_shmem::{ProxyConfig, ShmemWorld, Topology};
    use halox_trace::Recorder;
    use std::sync::Arc;
    use std::time::Duration;

    fn setup(n: usize, dims: [usize; 3], seed: u64) -> (DdPartition, Vec<CommContext>) {
        let sys = GrappaBuilder::new(n).seed(seed).build();
        let part = build_partition(&sys, &DdGrid::new(dims), 0.8);
        let ctxs = build_contexts(&part);
        (part, ctxs)
    }

    fn run_coordinate_case(
        part: &DdPartition,
        ctxs: &[CommContext],
        topo: Topology,
        proxy: ProxyConfig,
    ) {
        let mut world = ShmemWorld::new(topo, CommContext::slots_needed(part.total_pulses()));
        world.set_proxy_config(proxy);
        let bufs = FusedBuffers::alloc(part.n_ranks(), &ctxs[0]);

        let mut expect: Vec<Vec<Vec3>> = part
            .ranks
            .iter()
            .map(|r| r.build_positions.clone())
            .collect();
        reference_coordinate_exchange(part, &mut expect);

        // Preload home coordinates; poison the halo.
        for r in &part.ranks {
            let mut init = r.build_positions.clone();
            for v in init[r.n_home..].iter_mut() {
                *v = Vec3::splat(-1e9);
            }
            bufs.coords.load_from(r.rank, &init);
        }
        let b = &bufs;
        let wd = Watchdog::default();
        world.run(|pe| {
            fused_pack_comm_x(pe, &ctxs[pe.id], b, 1, &wd).unwrap();
            wait_coordinate_arrivals(pe, &ctxs[pe.id], 1, &wd).unwrap();
        });
        for r in &part.ranks {
            let got = bufs.coords.snapshot(r.rank);
            for i in 0..r.n_local() {
                assert!(
                    (got[i] - expect[r.rank][i]).norm() < 1e-6,
                    "rank {} local {i}: {:?} vs {:?}",
                    r.rank,
                    got[i],
                    expect[r.rank][i]
                );
            }
        }
    }

    fn run_force_case(
        part: &DdPartition,
        ctxs: &[CommContext],
        topo: Topology,
        proxy: ProxyConfig,
    ) {
        let mut world = ShmemWorld::new(topo, CommContext::slots_needed(part.total_pulses()));
        world.set_proxy_config(proxy);
        let bufs = FusedBuffers::alloc(part.n_ranks(), &ctxs[0]);
        let init: Vec<Vec<Vec3>> = part
            .ranks
            .iter()
            .map(|r| {
                (0..r.n_local())
                    .map(|i| Vec3::new((r.rank * 1000 + i) as f32 * 0.001, i as f32 * 0.01, 1.0))
                    .collect()
            })
            .collect();
        let mut expect = init.clone();
        reference_force_exchange(part, &mut expect);

        for r in &part.ranks {
            bufs.forces.load_from(r.rank, &init[r.rank]);
        }
        let b = &bufs;
        let wd = Watchdog::default();
        world.run(|pe| {
            fused_comm_unpack_f(pe, &ctxs[pe.id], b, 1, &wd).unwrap();
        });
        for r in &part.ranks {
            let got = bufs.forces.snapshot(r.rank);
            for i in 0..r.n_home {
                let w = expect[r.rank][i];
                // Same accumulation order as the reference: exact, not close.
                assert_eq!(got[i], w, "rank {} home {i}", r.rank);
            }
        }
    }

    #[test]
    fn coordinates_nvlink_2d() {
        let (part, ctxs) = setup(6000, [2, 2, 1], 41);
        run_coordinate_case(
            &part,
            &ctxs,
            Topology::all_nvlink(4),
            ProxyConfig::default(),
        );
    }

    #[test]
    fn coordinates_mixed_ib_3d() {
        let (part, ctxs) = setup(12000, [2, 2, 2], 42);
        run_coordinate_case(
            &part,
            &ctxs,
            Topology::islands(8, 4),
            ProxyConfig::default(),
        );
    }

    #[test]
    fn coordinates_all_ib_1d() {
        let (part, ctxs) = setup(6000, [4, 1, 1], 43);
        run_coordinate_case(
            &part,
            &ctxs,
            Topology::islands(4, 1),
            ProxyConfig::default(),
        );
    }

    #[test]
    fn forces_nvlink_2d() {
        let (part, ctxs) = setup(6000, [2, 2, 1], 44);
        run_force_case(
            &part,
            &ctxs,
            Topology::all_nvlink(4),
            ProxyConfig::default(),
        );
    }

    #[test]
    fn forces_mixed_ib_3d() {
        let (part, ctxs) = setup(12000, [2, 2, 2], 45);
        run_force_case(
            &part,
            &ctxs,
            Topology::islands(8, 4),
            ProxyConfig::default(),
        );
    }

    #[test]
    fn forces_all_ib_2d() {
        let (part, ctxs) = setup(6000, [2, 2, 1], 46);
        run_force_case(
            &part,
            &ctxs,
            Topology::islands(4, 1),
            ProxyConfig::default(),
        );
    }

    #[test]
    fn slow_proxy_does_not_break_correctness() {
        // §5.5 failure injection: a contended proxy is slow but must stay
        // correct.
        let (part, ctxs) = setup(6000, [2, 2, 1], 47);
        let proxy = ProxyConfig {
            injected_delay: Some(Duration::from_millis(2)),
            ..Default::default()
        };
        run_coordinate_case(&part, &ctxs, Topology::islands(4, 2), proxy);
        run_force_case(&part, &ctxs, Topology::islands(4, 2), proxy);
    }

    #[test]
    fn repeated_steps_with_monotone_sig_vals() {
        let (part, ctxs) = setup(6000, [2, 2, 1], 48);
        let world = ShmemWorld::new(
            Topology::all_nvlink(part.n_ranks()),
            CommContext::slots_needed(part.total_pulses()),
        );
        let bufs = FusedBuffers::alloc(part.n_ranks(), &ctxs[0]);
        for r in &part.ranks {
            bufs.coords.load_from(r.rank, &r.build_positions);
        }
        let b = &bufs;
        let c = &ctxs;
        let wd = Watchdog::default();
        world.run(|pe| {
            for step in 1..=5u64 {
                fused_pack_comm_x(pe, &c[pe.id], b, step, &wd).unwrap();
                wait_coordinate_arrivals(pe, &c[pe.id], step, &wd).unwrap();
                // Release the senders' halo regions for the next step; the
                // pack fence would (deliberately) deadlock without this.
                ack_coordinate_consumed(pe, &c[pe.id], step);
                pe.barrier_all();
            }
        });
        // Idempotent on static coordinates: halo equals build positions.
        for r in &part.ranks {
            let got = bufs.coords.snapshot(r.rank);
            for i in 0..r.n_local() {
                assert!((got[i] - r.build_positions[i]).norm() < 1e-6);
            }
        }
    }

    #[test]
    fn fused_round_records_the_protocols_events() {
        // Per rank and pulse a round records 13 events — pack_x {span,
        // fence wait, region write, arrival set}, arrival wait, consume
        // {region read, ack set}, unpack_f {span, ready set, data wait,
        // region read, ack set}, epoch-fence wait — plus a wait per dep.
        let (part, ctxs) = setup(12000, [2, 2, 2], 51);
        assert_eq!(part.total_pulses(), 3);
        let rec = Arc::new(Recorder::with_capacity(1 << 12));
        let mut world = ShmemWorld::new(
            Topology::all_nvlink(part.n_ranks()),
            CommContext::slots_needed(part.total_pulses()),
        );
        world.set_trace(Some(rec.clone()));
        let bufs = FusedBuffers::alloc(part.n_ranks(), &ctxs[0]);
        let (b, c, wd) = (&bufs, &ctxs, Watchdog::default());
        world.run(|pe| {
            fused_pack_comm_x(pe, &c[pe.id], b, 1, &wd).unwrap();
            wait_coordinate_arrivals(pe, &c[pe.id], 1, &wd).unwrap();
            ack_coordinate_consumed(pe, &c[pe.id], 1);
            fused_comm_unpack_f(pe, &c[pe.id], b, 1, &wd).unwrap();
        });
        let trace = rec.drain();
        let pulses = ctxs.iter().flat_map(|c| &c.pulses);
        let deps: usize = pulses.map(|pd| pd.dep_pulses.len()).sum();
        assert!(deps > 0);
        let world_start = 1;
        assert_eq!(
            trace.events.len(),
            world_start + 13 * part.n_ranks() * 3 + deps
        );
        let report = halox_trace::check(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn missing_ack_diagnosed_as_stall_not_hang() {
        // A driver that skips ack_coordinate_consumed deadlocks the next
        // pack's reuse fence *by design*; the watchdog must turn that into
        // a CoordAckFence stall report on every rank instead of a hang.
        let (part, ctxs) = setup(6000, [2, 2, 1], 50);
        let world = ShmemWorld::new(
            Topology::all_nvlink(part.n_ranks()),
            CommContext::slots_needed(part.total_pulses()),
        );
        let bufs = FusedBuffers::alloc(part.n_ranks(), &ctxs[0]);
        for r in &part.ranks {
            bufs.coords.load_from(r.rank, &r.build_positions);
        }
        let b = &bufs;
        let c = &ctxs;
        let wd = Watchdog::new(Duration::from_millis(100));
        let results = world.run(|pe| -> Result<(), ExchangeError> {
            fused_pack_comm_x(pe, &c[pe.id], b, 1, &wd)?;
            wait_coordinate_arrivals(pe, &c[pe.id], 1, &wd)?;
            // Deliberately no ack_coordinate_consumed.
            pe.barrier_all();
            fused_pack_comm_x(pe, &c[pe.id], b, 2, &wd)
        });
        for (rank, r) in results.into_iter().enumerate() {
            let err = r.expect_err("rank should stall on the reuse fence");
            let stall = err.stall().expect("stall-carrying error");
            assert_eq!(stall.phase, ExchangePhase::CoordAckFence, "rank {rank}");
            assert_eq!(stall.rank, rank);
            assert_eq!(stall.expected, 1);
            assert_eq!(stall.observed, 0);
            assert!(stall.suspect_peer.is_some());
            assert!(!stall.slot_snapshot.is_empty());
        }
    }

    #[test]
    fn two_pulse_dim_fused_exchange() {
        // Thin domains: second-neighbour pulses, fully dependent.
        let sys = GrappaBuilder::new(3000).seed(49).build();
        let part = build_partition(&sys, &DdGrid::new([4, 1, 1]), 0.8);
        assert_eq!(part.total_pulses(), 2);
        let ctxs = build_contexts(&part);
        run_coordinate_case(
            &part,
            &ctxs,
            Topology::all_nvlink(4),
            ProxyConfig::default(),
        );
        run_force_case(
            &part,
            &ctxs,
            Topology::islands(4, 2),
            ProxyConfig::default(),
        );
    }
}

//! Adversarial-timing regression tests for the cross-step signal protocol.
//!
//! The hazard under test: a driver that repeats *force-only* exchanges
//! (`load_from` + `fused_comm_unpack_f` each step) republishes its whole
//! symmetric force buffer every step. Before the completion-ack protocol
//! (`force_ack_slot` / `coord_ack_slot`, DESIGN.md §3) nothing ordered step
//! `N+1`'s overwrite after a neighbour's step-`N` read of the same region,
//! so a fast producer could clobber data a slow consumer was still getting.
//! These tests drive exactly that pattern with deterministic per-(pe, step)
//! jitter and randomized proxy delays, verify every step against the serial
//! reference, and replay the recorded event stream through the protocol
//! checker.

use halox::core::{build_contexts, exec, CommContext, FusedBuffers};
use halox::dd::{build_partition, reference_force_exchange, DdGrid, DdPartition};
use halox::engine::{Engine, EngineConfig, ExchangeBackend};
use halox::md::minimize::{steepest_descent, MinimizeOptions};
use halox::md::{GrappaBuilder, System, Vec3};
use halox::shmem::{ProxyConfig, ShmemWorld, Topology};
use halox::trace::{check, record_opt, Payload, Recorder, Region, Violation};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic per-(pe, step) jitter in [0, max_us): desynchronizes the
/// PE ring so fast producers run ahead of slow consumers. Correctness must
/// not depend on relative thread timing.
fn jitter_us(pe: usize, step: u64, max_us: u64) -> u64 {
    let mut x = (pe as u64 + 1)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(step.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x % max_us
}

fn test_partition(seed: u64) -> (System, DdPartition) {
    let sys = GrappaBuilder::new(4000).seed(seed).build();
    let part = build_partition(&sys, &DdGrid::new([4, 1, 1]), 0.8);
    (sys, part)
}

/// Step-dependent pseudo-forces: every step republishes different values,
/// so consuming a stale (or prematurely overwritten) region is caught by
/// the per-step reference comparison.
fn step_forces(part: &DdPartition, step: u64) -> Vec<Vec<Vec3>> {
    part.ranks
        .iter()
        .map(|r| {
            (0..r.n_local())
                .map(|i| {
                    Vec3::new(
                        (step as f32) * 0.5 + (r.rank * 1000 + i) as f32 * 1e-3,
                        (step as f32) - i as f32 * 1e-3,
                        1.0 + (step % 7) as f32,
                    )
                })
                .collect()
        })
        .collect()
}

/// Drive `steps` force-only exchange rounds on `world`, checking every rank
/// against the serial reference each step, then replay the recorded events
/// through the protocol checker.
fn force_only_loop(part: &DdPartition, mut world: ShmemWorld, steps: u64, jitter_max_us: u64) {
    let ctxs = build_contexts(part);
    let rec = Arc::new(Recorder::new());
    world.set_trace(Some(Arc::clone(&rec)));
    let bufs = FusedBuffers::alloc(part.n_ranks(), &ctxs[0]);

    // Per-step inputs and expected outputs, precomputed serially.
    let inits: Vec<Vec<Vec<Vec3>>> = (1..=steps).map(|s| step_forces(part, s)).collect();
    let expects: Vec<Vec<Vec<Vec3>>> = inits
        .iter()
        .map(|init| {
            let mut e = init.clone();
            reference_force_exchange(part, &mut e);
            e
        })
        .collect();

    let b = &bufs;
    let c = &ctxs;
    let inits_ref = &inits;
    let expects_ref = &expects;
    let wd = halox::core::Watchdog::default();
    let wd = &wd;
    world.run(|pe| {
        let ctx = &c[pe.id];
        let n_local = ctx.n_local;
        let n_home = ctx.n_home;
        for step in 1..=steps {
            std::thread::sleep(Duration::from_micros(jitter_us(pe.id, step, jitter_max_us)));
            // Republish the whole force buffer — the cross-step overwrite
            // the ack protocol must order after all step-(N-1) reads.
            record_opt(
                pe.trace(),
                ctx.rank as u32,
                Payload::RegionWrite {
                    owner: ctx.rank as u32,
                    region: Region::Forces,
                    lo: 0,
                    hi: n_local as u32,
                },
            );
            b.forces
                .load_from(ctx.rank, &inits_ref[step as usize - 1][ctx.rank]);
            exec::fused_comm_unpack_f(pe, ctx, b, step, wd).unwrap();
            let got = b.forces.snapshot(ctx.rank);
            let expect = &expects_ref[step as usize - 1][ctx.rank];
            for i in 0..n_home {
                let w = expect[i];
                assert!(
                    (got[i] - w).norm() <= 1e-4 * w.norm().max(1.0),
                    "rank {} step {step} home atom {i}: got {:?}, want {w:?}",
                    ctx.rank,
                    got[i]
                );
            }
        }
    });

    let trace = rec.drain();
    assert!(trace.events.len() as u64 >= steps * part.n_ranks() as u64);
    let report = check(&trace);
    assert!(report.is_clean(), "protocol violations:\n{report}");
}

/// NVLink transport: receiver-driven gets read the producer's force buffer
/// in place, so a producer racing ahead one step corrupts the consumer's
/// sums. ≥20 steps of jittered repetition must stay bit-correct per step.
#[test]
fn force_only_loop_nvlink_survives_adversarial_jitter() {
    let (_sys, part) = test_partition(211);
    let world = ShmemWorld::new(
        Topology::all_nvlink(part.n_ranks()),
        CommContext::slots_needed(part.total_pulses()),
    );
    force_only_loop(&part, world, 24, 800);
}

/// IB transport: the producer's proxied put lands in the consumer's staging
/// buffer; with randomized proxy delays, step N+1's put can be serviced
/// while the consumer still unpacks step N unless the ack fence holds it
/// back.
#[test]
fn force_only_loop_ib_survives_random_proxy_delay() {
    let (_sys, part) = test_partition(212);
    let mut world = ShmemWorld::new(
        Topology::islands(part.n_ranks(), 1),
        CommContext::slots_needed(part.total_pulses()),
    );
    world.set_proxy_config(ProxyConfig {
        random_delay: Some((0xc0ff_ee11, 500)),
        ..ProxyConfig::default()
    });
    force_only_loop(&part, world, 20, 400);
}

/// Full engine loop (coordinates + forces + acks) with the recorder
/// attached: the checker must report zero violations on both symmetric-heap
/// transports.
#[test]
fn engine_trace_is_checker_clean_on_both_transports() {
    let mut sys = GrappaBuilder::new(3000)
        .seed(213)
        .temperature(200.0)
        .build();
    steepest_descent(&mut sys, MinimizeOptions::default());
    for (backend, gpus_per_node) in [
        (ExchangeBackend::NvshmemFused, Some(2)), // mixed NVLink + IB proxy
        (ExchangeBackend::ThreadMpi, None),       // all-NVLink direct copies
    ] {
        let rec = Arc::new(Recorder::new());
        let mut cfg = EngineConfig::new(backend);
        cfg.nstlist = 5;
        cfg.topology_gpus_per_node = gpus_per_node;
        cfg.trace = Some(Arc::clone(&rec));
        let mut engine = Engine::new(sys.clone(), DdGrid::new([4, 1, 1]), cfg);
        engine.run(10);
        let trace = rec.drain();
        assert!(!trace.events.is_empty(), "{backend:?}: no events recorded");
        assert_eq!(trace.dropped, 0, "{backend:?}: recorder overflowed");
        let report = check(&trace);
        assert!(
            report.is_clean(),
            "{backend:?} protocol violations:\n{report}"
        );
    }
}

/// Negative control: replaying the *pre-fix* pattern — publish, signal,
/// remote read, then republish with no completion ack — must be flagged.
/// The checker works on recorded orderings, so the verdict is deterministic
/// regardless of how the threads actually interleaved.
#[test]
fn checker_flags_unfenced_cross_step_reuse() {
    let rec = Arc::new(Recorder::new());
    let mut world = ShmemWorld::new(Topology::all_nvlink(2), 1);
    world.set_trace(Some(Arc::clone(&rec)));
    world.run(|pe| {
        if pe.id == 0 {
            record_opt(
                pe.trace(),
                0,
                Payload::RegionWrite {
                    owner: 0,
                    region: Region::Forces,
                    lo: 0,
                    hi: 8,
                },
            );
            pe.signal(1, 0, 1);
            // Step 2 republishes immediately: no ack edge orders this after
            // PE 1's read.
            record_opt(
                pe.trace(),
                0,
                Payload::RegionWrite {
                    owner: 0,
                    region: Region::Forces,
                    lo: 0,
                    hi: 8,
                },
            );
        } else {
            pe.wait_signal(0, 1);
            record_opt(
                pe.trace(),
                1,
                Payload::RegionRead {
                    owner: 0,
                    region: Region::Forces,
                    lo: 0,
                    hi: 8,
                },
            );
        }
    });
    let report = check(&rec.drain());
    assert!(!report.is_clean(), "unfenced reuse must be flagged");
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::RacingRegionAccess { .. })),
        "expected RacingRegionAccess, got: {report}"
    );
}

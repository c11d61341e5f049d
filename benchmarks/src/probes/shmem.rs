//! `halox-shmem` primitives on 2 PEs, threads backend: the put-with-signal /
//! wait / barrier microbenchmark set of *Demystifying NVSHMEM* transplanted
//! onto this runtime. Procs-backend rows come from [`super::procs`].

use crate::harness::{median, time_reps, Outcome};
use crate::span::Spans;
use halox_md::Vec3;
use halox_shmem::{ShmemWorld, SymVec3, Topology, TwoSidedComm, WorldBackend, WorldKey, WorldPool};
use std::time::Instant;

fn world(topology: Topology, slots: usize) -> ShmemWorld {
    ShmemWorld::new_with_backend(WorldBackend::Threads, topology, slots)
}

/// Ping-pong `iters` put-with-signal round trips between PE 0 and PE 1;
/// mean round trip in µs, measured on PE 0 after a warm-up tenth.
pub fn ping_pong(backend: WorldBackend, topology: Topology, vec3s: usize, iters: u64) -> f64 {
    let w = ShmemWorld::new_with_backend(backend, topology, 1);
    let buf = SymVec3::alloc(2, vec3s);
    let warm = iters / 10 + 1;
    let out = w.run(|pe| {
        let payload = vec![Vec3::splat(pe.id as f32 + 1.0); vec3s];
        let peer = 1 - pe.id;
        let mut t0 = Instant::now();
        for i in 0..warm + iters {
            if i == warm {
                t0 = Instant::now();
            }
            if pe.id == 0 {
                pe.put_vec3_signal_nbi(&buf, peer, 0, &payload, 0, i + 1);
                pe.quiet();
                pe.wait_signal(0, i + 1);
            } else {
                pe.wait_signal(0, i + 1);
                pe.put_vec3_signal_nbi(&buf, peer, 0, &payload, 0, i + 1);
                pe.quiet();
            }
        }
        t0.elapsed().as_secs_f64()
    });
    out[0] / iters as f64 * 1e6
}

/// Mean µs per call of `op` looped `iters` times on both PEs of a world.
fn collective_us(iters: u64, op: impl Fn(&halox_shmem::Pe, u64) + Sync) -> f64 {
    let w = world(Topology::all_nvlink(2), 1);
    let per_pe = w.run(|pe| {
        for i in 0..iters / 10 + 1 {
            op(pe, i);
        }
        pe.barrier_all();
        let t0 = Instant::now();
        for i in 0..iters {
            op(pe, i);
        }
        t0.elapsed().as_secs_f64()
    });
    per_pe.iter().copied().fold(0.0, f64::max) / iters as f64 * 1e6
}

/// Wall (s) of up to `reps` empty `world.run`s — the per-segment launch and
/// join cost of the threads backend.
///
/// Measured on a helper thread that main only waits on with a timeout: an
/// empty PE closure drops the last proxy `Sender` while the proxy thread is
/// still entering `recv`, and the vendored crossbeam stub notifies without
/// holding the queue lock, so roughly one launch in a few thousand loses the
/// wake-up and never returns. A hung helper stays parked until the process
/// exits; the samples it delivered before are kept, and one fresh helper
/// tops them up.
fn empty_runs(reps: usize) -> Vec<f64> {
    let mut samples = Vec::with_capacity(reps);
    for _attempt in 0..2 {
        let want = reps - samples.len();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let w = world(Topology::all_nvlink(2), 4);
            for _ in 0..want {
                let t = Instant::now();
                w.run(|_| ());
                if tx.send(t.elapsed().as_secs_f64()).is_err() {
                    break;
                }
            }
        });
        while let Ok(s) = rx.recv_timeout(std::time::Duration::from_secs(2)) {
            samples.push(s);
        }
        if samples.len() == reps {
            break;
        }
    }
    samples
}

pub fn run(spans: &mut Spans, out: &mut Outcome) {
    spans.scope("probe.shmem", |spans| {
        for (name, bandwidth, proxied, n, iters) in RTT_ROWS {
            let topo = if proxied {
                Topology::islands(2, 1)
            } else {
                Topology::all_nvlink(2)
            };
            let (rtt, _) = spans.scope("shmem.world_run", |_| {
                ping_pong(WorldBackend::Threads, topo, n, iters)
            });
            out.set_value(name, rtt);
            if let Some(bandwidth) = bandwidth {
                // Computed bytes: one payload each way per round trip.
                let bytes = 2.0 * (n * std::mem::size_of::<Vec3>()) as f64;
                out.set_value(bandwidth, bytes / rtt);
            }
        }

        // Acquire-wait on an already satisfied slot: the hit path every
        // exchange wait takes when the data beat the consumer.
        let w = world(Topology::all_nvlink(2), 1);
        let hit = w.run(|pe| {
            pe.signal(pe.id, 0, 1);
            pe.wait_signal(0, 1);
            let iters = 200_000u32;
            let t0 = Instant::now();
            for _ in 0..iters {
                pe.wait_signal(0, 1);
            }
            t0.elapsed().as_secs_f64() / f64::from(iters) * 1e9
        });
        out.set_value("shmem.signal_wait_hit_ns", median(&hit));

        out.set_value(
            "shmem.barrier_us.pe2",
            collective_us(20_000, |pe, _| pe.barrier_all()),
        );
        let (us, _) = spans.scope("shmem.allreduce", |_| {
            collective_us(20_000, |pe, i| {
                std::hint::black_box(pe.allreduce_sum(i as f64 + pe.id as f64));
            })
        });
        out.set_value("shmem.allreduce_sum_us.pe2", us);

        let comm = TwoSidedComm::new(2);
        let payload = vec![Vec3::splat(1.0); 1_000];
        let iters = 3_000u64;
        let secs: Vec<f64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..2usize)
                .map(|me| {
                    let (comm, payload) = (&comm, &payload);
                    s.spawn(move || {
                        let peer = 1 - me;
                        let t0 = Instant::now();
                        for i in 0..iters {
                            std::hint::black_box(comm.sendrecv(
                                me,
                                peer,
                                i,
                                payload.clone(),
                                peer,
                                i,
                            ));
                        }
                        t0.elapsed().as_secs_f64()
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("sendrecv thread"))
                .collect()
        });
        out.set_value(
            "shmem.twosided_sendrecv_us.n1k",
            secs.iter().copied().fold(0.0, f64::max) / iters as f64 * 1e6,
        );

        out.set_value(
            "shmem.symvec3_alloc_us.n16k",
            median(&time_reps(60, || SymVec3::alloc(2, 16_000))) * 1e6,
        );
        let (news, _) = spans.scope("shmem.world_new", |_| {
            time_reps(300, || world(Topology::all_nvlink(2), 4))
        });
        out.set_value("shmem.world_new_us", median(&news) * 1e6);
        let (runs, _) = spans.scope("shmem.world_run", |_| empty_runs(300));
        out.check(runs.len() >= 30, || {
            format!(
                "only {} empty world.run samples before a launch hung",
                runs.len()
            )
        });
        if !runs.is_empty() {
            out.set_value("shmem.world_run_empty_us.threads", median(&runs) * 1e6);
        }

        // Lease → world_for → return on a warm pool: what every service
        // slice pays instead of a world build.
        let pool = WorldPool::with_capacity(2);
        let key = WorldKey {
            backend: WorldBackend::Threads,
            topology: Topology::all_nvlink(2),
            n_signal_slots: 4,
        };
        pool.lease(key).world_for(key);
        let leases = time_reps(300, || {
            let mut lease = pool.lease(key);
            lease.world_for(key).npes()
        });
        out.set_value("shmem.pool_lease_reuse_us", median(&leases) * 1e6);
    });
}

/// Ping-pong rows: metric, bandwidth metric derived from it, proxied
/// fabric?, payload in `Vec3`s, round trips. Proxied rows run 4 threads
/// (2 PEs + 2 proxies) on 2 cores: oversubscribed by construction.
type RttRow = (&'static str, Option<&'static str>, bool, usize, u64);
const RTT_ROWS: [RttRow; 6] = [
    ("shmem.put_signal_rtt_us.direct.n16", None, false, 16, 4_000),
    (
        "shmem.put_signal_rtt_us.direct.n1k",
        None,
        false,
        1_000,
        2_000,
    ),
    (
        "shmem.put_signal_rtt_us.direct.n16k",
        Some("shmem.put_bw_mb_s.direct.n16k"),
        false,
        16_000,
        300,
    ),
    ("shmem.put_signal_rtt_us.proxy.n16", None, true, 16, 1_000),
    ("shmem.put_signal_rtt_us.proxy.n1k", None, true, 1_000, 500),
    (
        "shmem.put_signal_rtt_us.proxy.n16k",
        Some("shmem.put_bw_mb_s.proxy.n16k"),
        true,
        16_000,
        75,
    ),
];

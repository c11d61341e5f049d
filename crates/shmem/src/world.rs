//! The PGAS world: PEs, cluster topology, signals, transports.
//!
//! The world stands in for `nvshmem_init` + the NVSHMEM runtime:
//!
//! * PEs are launched by [`ShmemWorld::run`] — OS threads, or forked
//!   processes ([`WorldBackend`], `HALOX_BACKEND={threads,procs}`);
//! * `nvshmem_ptr()` reachability becomes [`Pe::nvlink_reachable`] — true
//!   within an NVLink island (node, or the whole machine for MNNVL), false
//!   across the network, where puts go through a *proxy* per PE, just like
//!   NVSHMEM's IBRC transport (paper §5.5);
//! * `nvshmem_float_put_signal_nbi` becomes [`Pe::put_vec3_signal_nbi`]:
//!   direct relaxed stores + release signal over "NVLink", or a staged
//!   payload handed to the proxy over "InfiniBand";
//! * `nvshmem_quiet` becomes [`Pe::quiet`].
//!
//! # One delivery route
//!
//! Every put and signal is routed by one rule, written once (`Pe::route`):
//! *if the peer is not NVLink-reachable, or a chaos engine is attached,
//! submit the delivery to this PE's proxy; otherwise store and `release_max`
//! in place.*
//! Each PE has one link to one proxy — a thread running `serve` — and that
//! thread alone decides and lands everything the PE submits, in program
//! order: under chaos the engine's per-source op counter and held-delivery
//! cell are only ever touched by the source PE's proxy, so a fault schedule
//! is a function of (plan, program) on either backend. The proxy pays the
//! [`ProxyConfig`] stress delays for genuinely network-proxied deliveries
//! only — never for a flush or a chaos-routed NVLink op.
//!
//! The backend chooses how PEs are launched and what carries the link, and
//! nothing else. Threads: the link is a channel of `ProxyCmd`s. Procs:
//! the same commands cross a Unix domain socket to the parent as their
//! declared `Wire` bytes (real kernel-mediated I/O, the IBRC analog), the
//! last one being the PE's result; the parent reaps every child with
//! `waitpid`. A frame is input from another process, so it is validated
//! when decoded and a PE whose frame does not check out is cut off
//! ([`PeFailure::Died`]).
//! Symmetric memory (signal slots, collective deposit slots, barriers,
//! `SymVec3` segments) and the trace recorder are fork-shared mappings on
//! both, so anything made before a run is visible to that run's PEs. See
//! DESIGN.md §3.2 and §3.5.

use crate::barrier::SenseBarrier;
use crate::chaos::{ChaosEngine, Decision, Delivery, OpKind};
use crate::collectives::Collectives;
use crate::shared;
use crate::signal::SignalSet;
use crate::sym::SymVec3;
use crate::wire::Wire;
use crossbeam::channel::{unbounded, Receiver, Sender};
use halox_md::Vec3;
use halox_trace::{Payload, Recorder, DRIVER_PE};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Which execution substrate hosts the PEs of a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorldBackend {
    /// One OS thread per PE in this process (the default).
    #[default]
    Threads,
    /// One forked child process per PE, with the proxy path carried over
    /// Unix domain sockets.
    Procs,
}

impl WorldBackend {
    /// The `HALOX_BACKEND` lever. Panics on a value it does not accept: a
    /// mistyped lever must not quietly run the default.
    pub fn from_env() -> Self {
        Self::lever(std::env::var("HALOX_BACKEND").ok().as_deref())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// `HALOX_BACKEND`'s value to a backend: unset or empty is threads,
    /// labels match ASCII case-insensitively.
    fn lever(raw: Option<&str>) -> Result<Self, String> {
        let all = [WorldBackend::Threads, WorldBackend::Procs];
        match raw.filter(|v| !v.is_empty()) {
            None => Ok(WorldBackend::Threads),
            Some(v) => all
                .into_iter()
                .find(|b| v.eq_ignore_ascii_case(b.label()))
                .ok_or_else(|| {
                    format!("HALOX_BACKEND={v:?} is not accepted (expected one of: threads, procs)")
                }),
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            WorldBackend::Threads => "threads",
            WorldBackend::Procs => "procs",
        }
    }
}

/// Why one PE failed to produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeFailure {
    /// The PE's closure panicked (threads: caught at join; procs: caught in
    /// the child and reported over the socket).
    Panic(String),
    /// The PE's process died without reporting a result; carries the raw
    /// `waitpid` status.
    Died { status: i32 },
}

impl std::fmt::Display for PeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeFailure::Panic(msg) => write!(f, "panicked: {msg}"),
            PeFailure::Died { status } => {
                write!(
                    f,
                    "died without result ({})",
                    shared::describe_wait_status(*status)
                )
            }
        }
    }
}

/// One or more PEs of a world run failed. The surviving PEs' results are
/// discarded — a world run is all-or-nothing, like a job-step launcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldError {
    /// `(pe, cause)` for every failed PE, in PE order.
    pub failures: Vec<(usize, PeFailure)>,
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "world run failed: ")?;
        for (i, (pe, cause)) in self.failures.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "PE {pe} {cause}")?;
        }
        Ok(())
    }
}

impl std::error::Error for WorldError {}

/// Interconnect shape of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// Every PE pair is NVLink-reachable (single node, or GB200-style
    /// multi-node NVLink).
    AllNvlink,
    /// NVLink only within islands of `gpus_per_node` consecutive PEs;
    /// the network (InfiniBand) connects islands.
    NvlinkIslands { gpus_per_node: usize },
}

/// Cluster topology: PE count plus fabric shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    pub npes: usize,
    pub fabric: Fabric,
}

impl Topology {
    pub fn all_nvlink(npes: usize) -> Self {
        Topology {
            npes,
            fabric: Fabric::AllNvlink,
        }
    }

    pub fn islands(npes: usize, gpus_per_node: usize) -> Self {
        assert!(gpus_per_node >= 1);
        Topology {
            npes,
            fabric: Fabric::NvlinkIslands { gpus_per_node },
        }
    }

    /// True if `a` can load/store `b`'s memory directly (`nvshmem_ptr`
    /// non-null).
    pub fn nvlink_reachable(&self, a: usize, b: usize) -> bool {
        match self.fabric {
            Fabric::AllNvlink => true,
            Fabric::NvlinkIslands { gpus_per_node } => a / gpus_per_node == b / gpus_per_node,
        }
    }

    /// Node index of a PE.
    pub fn node_of(&self, pe: usize) -> usize {
        match self.fabric {
            Fabric::AllNvlink => 0,
            Fabric::NvlinkIslands { gpus_per_node } => pe / gpus_per_node,
        }
    }
}

/// Configuration knobs for the per-PE proxy.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProxyConfig {
    /// Artificial delay per proxied operation — failure-injection hook
    /// emulating a contended proxy core (paper §5.5 reports up to 50x
    /// slowdowns from proxy-thread pinning mistakes).
    pub injected_delay: Option<Duration>,
    /// Randomized per-operation delay up to `max_us` microseconds, seeded
    /// per proxy — adversarial-timing stress for the signal protocol
    /// (correctness must not depend on message timing).
    pub random_delay: Option<(u64, u64)>,
}

/// What a PE sends down its link: values on a thread's channel, their
/// declared bytes on a forked PE's socket.
enum ProxyCmd {
    /// A staged delivery: a put (+ optional signal on the destination PE's
    /// signal set) or a pure remote signal.
    Deliver {
        d: Delivery,
        /// Genuinely network-proxied, as opposed to an NVLink op that only
        /// takes this route to face the chaos engine.
        proxied: bool,
        /// Recorder timestamp at the issuing PE's submit (0 when tracing is
        /// off); lets the proxy report time-in-queue, a socket's included —
        /// a forked PE's recorder shares the parent's origin.
        enqueued_us: u64,
    },
    /// Completion fence: ack when everything sent before has been applied.
    Flush,
    /// A forked PE's last command: its `Wire`-encoded result.
    Returned(Vec<u8>),
    /// A forked PE's last command: it panicked with this message.
    Panicked(String),
}

crate::wire_codec!(enum ProxyCmd {
    0 => Deliver { d, proxied, enqueued_us },
    1 => Flush,
    2 => Returned(result),
    3 => Panicked(msg),
});

/// The stress knobs of a [`ProxyConfig`], paid once per network-proxied
/// delivery.
struct ProxyDelays {
    cfg: ProxyConfig,
    /// Tiny xorshift so the random knob needs no external RNG dependency.
    rng: u64,
}

impl ProxyDelays {
    fn new(cfg: ProxyConfig, salt: u64) -> Self {
        let rng = cfg.random_delay.map_or(1, |(seed, _)| (seed ^ salt) | 1);
        ProxyDelays { cfg, rng }
    }

    fn pay(&mut self) {
        if let Some(d) = self.cfg.injected_delay {
            std::thread::sleep(d);
        }
        if let Some((_, max_us)) = self.cfg.random_delay.filter(|&(_, max_us)| max_us > 0) {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            std::thread::sleep(Duration::from_micros(self.rng % max_us));
        }
    }
}

/// The shared world state.
pub struct ShmemWorld {
    pub topology: Topology,
    backend: WorldBackend,
    signals: Vec<Arc<SignalSet>>,
    barrier: SenseBarrier,
    collectives: Collectives,
    proxy_config: ProxyConfig,
    trace: Option<Arc<Recorder>>,
    chaos: Option<Arc<ChaosEngine>>,
}

impl ShmemWorld {
    /// Create a world with `n_signal_slots` signal slots per PE, on the
    /// backend `HALOX_BACKEND` selects (threads by default).
    pub fn new(topology: Topology, n_signal_slots: usize) -> Self {
        Self::new_with_backend(WorldBackend::from_env(), topology, n_signal_slots)
    }

    /// Create a world on an explicit backend. Symmetric buffers its PEs
    /// will touch may be allocated before or after this call — only before
    /// the run that uses them.
    pub fn new_with_backend(
        backend: WorldBackend,
        topology: Topology,
        n_signal_slots: usize,
    ) -> Self {
        let signals = (0..topology.npes)
            .map(|_| Arc::new(SignalSet::new(n_signal_slots)))
            .collect();
        ShmemWorld {
            barrier: SenseBarrier::new(topology.npes),
            collectives: Collectives::new(topology.npes),
            signals,
            topology,
            backend,
            proxy_config: ProxyConfig::default(),
            trace: None,
            chaos: None,
        }
    }

    /// Which backend this world launches PEs on.
    pub fn backend(&self) -> WorldBackend {
        self.backend
    }

    pub fn with_proxy_config(mut self, cfg: ProxyConfig) -> Self {
        self.proxy_config = cfg;
        self
    }

    /// Attach a chaos engine: every delivery — NVLink *and* network — is
    /// submitted to its source PE's proxy and faces the engine's fault
    /// decision there before it lands. With no engine attached (the
    /// default) the direct path stays store-and-signal with zero extra work.
    pub fn with_chaos(mut self, chaos: Arc<ChaosEngine>) -> Self {
        assert_eq!(
            chaos.npes(),
            self.topology.npes,
            "chaos engine sized for a different world"
        );
        self.chaos = Some(chaos);
        self
    }

    /// The attached chaos engine, if any.
    pub fn chaos(&self) -> Option<&Arc<ChaosEngine>> {
        self.chaos.as_ref()
    }

    /// Attach a functional-plane event recorder: signal sets/waits,
    /// barriers and proxy service get recorded for `halox-trace`'s Chrome
    /// export and protocol checker. Tracing is off (zero-cost `None`
    /// checks) unless this is called.
    pub fn with_trace(mut self, rec: Arc<Recorder>) -> Self {
        self.trace = Some(rec);
        self
    }

    /// The attached recorder, if any.
    pub fn trace(&self) -> Option<&Recorder> {
        self.trace.as_deref()
    }

    /// In-place form of [`ShmemWorld::with_proxy_config`], for worlds that
    /// outlive a single owner (pool leases re-attach per run).
    pub fn set_proxy_config(&mut self, cfg: ProxyConfig) {
        self.proxy_config = cfg;
    }

    /// In-place form of [`ShmemWorld::with_chaos`]; `None` detaches. A
    /// leased world must not carry a previous tenant's fault plan into the
    /// next run, so the pool clears this on return.
    pub fn set_chaos(&mut self, chaos: Option<Arc<ChaosEngine>>) {
        if let Some(c) = &chaos {
            assert_eq!(
                c.npes(),
                self.topology.npes,
                "chaos engine sized for a different world"
            );
        }
        self.chaos = chaos;
    }

    /// In-place form of [`ShmemWorld::with_trace`]; `None` detaches.
    pub fn set_trace(&mut self, rec: Option<Arc<Recorder>>) {
        self.trace = rec;
    }

    pub fn npes(&self) -> usize {
        self.topology.npes
    }

    /// Signal set of a PE (for diagnostics; PEs use [`Pe`] methods).
    pub fn signal_set(&self, pe: usize) -> &SignalSet {
        &self.signals[pe]
    }

    /// Reset all signal slots (between independent runs on one world).
    pub fn reset_signals(&self) {
        for s in &self.signals {
            s.reset();
        }
    }

    /// Launch one PE per rank running `f` (threads or forked processes,
    /// per the backend) and return the per-PE results in PE order. Panics
    /// if any PE fails — the panic-free form is [`ShmemWorld::try_run`].
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send + Wire,
        F: Fn(&Pe) -> R + Sync,
    {
        self.try_run(f).unwrap_or_else(|e| panic!("PE failed: {e}"))
    }

    /// Launch one PE per rank running `f`; PE failures (panics, dead child
    /// processes) come back as a [`WorldError`] value naming every failed
    /// PE instead of unwinding the caller.
    ///
    /// `R: Wire` is what keeps the backends interchangeable: under
    /// [`WorldBackend::Procs`] each PE's result crosses the process
    /// boundary over its socket.
    pub fn try_run<R, F>(&self, f: F) -> Result<Vec<R>, WorldError>
    where
        R: Send + Wire,
        F: Fn(&Pe) -> R + Sync,
    {
        // A fresh world run is a global synchronisation point (this thread
        // spawns every PE below and joins them before returning); the
        // protocol checker uses this to scope per-world signal state.
        if let Some(t) = &self.trace {
            t.record(
                DRIVER_PE,
                Payload::WorldStart {
                    pes: self.npes() as u32,
                },
            );
        }
        // World boundary: a delivery held for reordering must never leak
        // into this run — its monotone signal value from a previous attempt
        // would pre-satisfy fresh slots.
        if let Some(c) = &self.chaos {
            c.begin_world();
        }
        match self.backend {
            WorldBackend::Threads => self.run_threads(&f),
            WorldBackend::Procs => self.run_procs(&f),
        }
    }

    /// The threaded backend: one OS thread per PE plus one proxy thread
    /// per PE, joined by a channel, all inside this process.
    fn run_threads<R, F>(&self, f: &F) -> Result<Vec<R>, WorldError>
    where
        R: Send,
        F: Fn(&Pe) -> R + Sync,
    {
        let outcomes: Vec<Result<R, PeFailure>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.npes())
                .map(|id| {
                    let (tx, rx) = unbounded();
                    let (acked, ack) = unbounded();
                    // The proxy exits when its PE drops the link, and is
                    // joined by the scope.
                    scope.spawn(move || serve(self, id, &mut ChanEnd { rx, acked }));
                    scope.spawn(move || {
                        let link = PeLink::Thread { tx, ack };
                        f(&Pe {
                            id,
                            world: self,
                            link,
                        })
                    })
                })
                .collect();
            // Joining explicitly consumes any panic, so one dead PE
            // becomes a value here instead of re-panicking the scope.
            handles
                .into_iter()
                .map(|h| h.join().map_err(|p| PeFailure::Panic(panic_message(p))))
                .collect()
        });
        collect_outcomes(outcomes)
    }

    /// The process backend: fork one child per PE, joined to a proxy thread
    /// in the parent by a socket (the per-node proxy of DESIGN.md §3.5),
    /// then reap every child via `waitpid` — a dead child is a reported
    /// failure, never a hang on the parent side.
    fn run_procs<R, F>(&self, f: &F) -> Result<Vec<R>, WorldError>
    where
        R: Send + Wire,
        F: Fn(&Pe) -> R + Sync,
    {
        let npes = self.npes();
        let mut child_socks: Vec<Option<UnixStream>> = Vec::with_capacity(npes);
        let mut parent_socks: Vec<UnixStream> = Vec::with_capacity(npes);
        for _ in 0..npes {
            let (a, b) = UnixStream::pair().expect("socketpair failed");
            child_socks.push(Some(a));
            parent_socks.push(b);
        }
        let mut pids = Vec::with_capacity(npes);
        for id in 0..npes {
            let pid = unsafe { shared::fork_pe() };
            if pid == 0 {
                // Child: keep only our socket — dropping every other pair
                // end closes the inherited fds, so the parent sees EOF the
                // moment any child dies (no stray keep-alive references).
                let sock = child_socks[id].take().expect("child sock present");
                child_socks.clear();
                parent_socks.clear();
                let exit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    child_main(self, id, sock, f)
                }));
                // Never unwind out of a forked child: leave via _exit so
                // no destructor touches the copied heap.
                shared::exit_now(if exit.is_ok() { 0 } else { 101 });
            }
            if pid < 0 {
                // Fork failed mid-spawn: kill and reap the children already
                // forked before surfacing the error, so an aborted world
                // leaves no zombies behind the panicking parent.
                for &p in &pids {
                    shared::kill_child(p);
                }
                for &p in &pids {
                    shared::wait_child(p);
                }
                panic!("fork() failed for PE {id} (after {} children)", pids.len());
            }
            pids.push(pid);
            child_socks[id] = None; // parent closes its copy of the child end
        }
        drop(child_socks);
        let outcomes: Vec<Result<R, Option<String>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parent_socks
                .into_iter()
                .enumerate()
                .map(|(id, sock)| {
                    let mut end = SockEnd {
                        signals: &self.signals,
                        sock: Some(sock),
                    };
                    scope.spawn(move || outcome(serve(self, id, &mut end)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("socket proxy thread panicked"))
                .collect()
        });
        // Reap all children. Sockets are closed by now, so every child has
        // exited (or dies on its next socket op); waitpid cannot hang on a
        // live worker.
        let statuses: Vec<Option<i32>> = pids.iter().map(|&p| shared::wait_child(p)).collect();
        let outcomes = outcomes
            .into_iter()
            .enumerate()
            .map(|(pe, o)| {
                o.map_err(|cause| match cause {
                    Some(msg) => PeFailure::Panic(msg),
                    None => PeFailure::Died {
                        status: statuses[pe].unwrap_or(-1),
                    },
                })
            })
            .collect();
        collect_outcomes(outcomes)
    }
}

/// Fold per-PE outcomes into all-results or a [`WorldError`].
fn collect_outcomes<R>(outcomes: Vec<Result<R, PeFailure>>) -> Result<Vec<R>, WorldError> {
    let mut results = Vec::with_capacity(outcomes.len());
    let mut failures = Vec::new();
    for (pe, o) in outcomes.into_iter().enumerate() {
        match o {
            Ok(r) => results.push(r),
            Err(cause) => failures.push((pe, cause)),
        }
    }
    if failures.is_empty() {
        Ok(results)
    } else {
        Err(WorldError { failures })
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The chaos choke point: decide one delivery's fate and apply it. Called
/// from [`serve`] only, so all of a source PE's deliveries are decided by
/// one thread, in the order the PE issued them.
///
/// Reordering contract: a held delivery is released *after* the source
/// PE's next decided operation (whatever its own fate), so "reorder" swaps
/// two adjacent operations rather than parking one forever. A second hold
/// before the first is flushed displaces it — the displaced op is
/// delivered immediately, keeping at most one op in flight per PE.
/// Returns `true` when the source PE's link must be severed: the decision
/// was [`Decision::Kill`] (the delivery was swallowed and the PE is now
/// dead), or a delivery it landed — this one, a displaced one or a
/// flushed one — named a target that is not live.
fn chaos_deliver(
    chaos: &ChaosEngine,
    signals: &[Arc<SignalSet>],
    src_pe: usize,
    d: Delivery,
) -> bool {
    let decision = chaos.decide(src_pe, d.op_kind());
    let mut landed = match decision {
        Decision::Deliver => d.apply(signals, false),
        Decision::DropSignal => d.apply(signals, true),
        Decision::Drop | Decision::Kill => true,
        Decision::Delay(dur) => {
            std::thread::sleep(dur);
            d.apply(signals, false)
        }
        Decision::Hold => {
            // The held op flushes on the *next* operation.
            let displaced = chaos.hold(src_pe, d);
            return displaced.is_some_and(|displaced| !displaced.apply(signals, false));
        }
    };
    if let Some(held) = chaos.take_held(src_pe) {
        landed &= held.apply(signals, false);
    }
    decision == Decision::Kill || !landed
}

/// Land one delivery — through the chaos choke point when an engine is
/// attached, straight otherwise — with the monotone release, so a proxied
/// signal can never regress a slot a direct NVLink sender already advanced.
/// True when the source PE's link must be severed (see [`chaos_deliver`]).
fn deliver(
    chaos: Option<&ChaosEngine>,
    signals: &[Arc<SignalSet>],
    src_pe: usize,
    d: Delivery,
) -> bool {
    match chaos {
        Some(c) => chaos_deliver(c, signals, src_pe, d),
        None => !d.apply(signals, false),
    }
}

/// The proxy's end of one PE's link.
trait ProxyEnd {
    /// The next command, or `None` once the link is closed: a PE thread
    /// returned, or a PE died or was severed.
    fn recv(&mut self) -> Option<ProxyCmd>;
    /// Commands waiting behind the one just received, where the link can
    /// tell.
    fn backlog(&self) -> Option<u32>;
    /// Answer a [`ProxyCmd::Flush`]. A PE that is gone misses nothing.
    fn ack_flush(&mut self);
    /// Cut the PE off: a process dies for real on its next link operation
    /// (`PeFailure::Died` after `waitpid` — the cross-process analogue of a
    /// PE being OOM-killed mid-run). A thread cannot be killed; what severed
    /// it already drops everything it sends from here on (crash semantics),
    /// so its link stays up and its flushes are still answered.
    fn sever(&mut self);
}

/// One PE's proxy, on either backend: serve the link until the PE is done.
/// Everything the PE submits is landed here, in order, through the single
/// [`deliver`] choke point. Returns the command that ended the stream, if
/// one did: a forked PE's result or panic.
fn serve(world: &ShmemWorld, pe: usize, end: &mut impl ProxyEnd) -> Option<ProxyCmd> {
    let trace = world.trace.as_deref();
    let mut delays = ProxyDelays::new(world.proxy_config, (pe as u64) << 32);
    while let Some(cmd) = end.recv() {
        if let (Some(t), Some(depth)) = (trace, end.backlog()) {
            t.record(pe as u32, Payload::ProxyDepth { depth });
        }
        match cmd {
            ProxyCmd::Deliver {
                d,
                proxied,
                enqueued_us,
            } => {
                if proxied {
                    delays.pay();
                }
                let kind = match d.op_kind() {
                    OpKind::Put => "put",
                    OpKind::Signal => "signal",
                };
                let sever = deliver(world.chaos.as_deref(), &world.signals, pe, d);
                if let Some(t) = trace {
                    let now = t.now_us();
                    let queued_us = now.saturating_sub(enqueued_us);
                    t.record_timed(pe as u32, now, 0, Payload::ProxyService { kind, queued_us });
                }
                if sever {
                    end.sever();
                }
            }
            // The link is FIFO and this loop is serial, so everything sent
            // before the flush has been applied: the ack *is* the quiet()
            // completion.
            ProxyCmd::Flush => end.ack_flush(),
            last => return Some(last),
        }
    }
    None
}

/// Proxy end of a thread PE's channel link.
struct ChanEnd {
    rx: Receiver<ProxyCmd>,
    acked: Sender<()>,
}

impl ProxyEnd for ChanEnd {
    fn recv(&mut self) -> Option<ProxyCmd> {
        self.rx.recv().ok()
    }

    fn backlog(&self) -> Option<u32> {
        Some(self.rx.len() as u32)
    }

    fn ack_flush(&mut self) {
        let _ = self.acked.send(());
    }

    fn sever(&mut self) {}
}

// ---------------------------------------------------------------------------
// Socket frames (procs backend): `[len u64 LE]` then one `ProxyCmd`'s
// declared bytes. See DESIGN.md §3.5.
// ---------------------------------------------------------------------------

/// The single byte answering a [`ProxyCmd::Flush`] frame.
const FLUSH_ACK: u8 = 0xA5;
/// Upper bound on a frame — a corrupt length must not OOM the parent.
const MAX_FRAME: u64 = 1 << 28;

fn write_frame(w: &mut impl Write, cmd: &ProxyCmd) -> std::io::Result<()> {
    let mut frame = vec![0u8; 8];
    cmd.encode(&mut frame);
    let len = (frame.len() - 8) as u64;
    frame[..8].copy_from_slice(&len.to_le_bytes());
    w.write_all(&frame)
}

fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 8];
    r.read_exact(&mut len)?;
    let len = u64::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte bound"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Decode a frame from another process into the command it carries. `None`
/// for bytes that are not exactly one command and for a delivery that
/// names a PE, a signal slot or a segment range the world does not have.
/// The segment name itself is validated against the live mappings when
/// the delivery is applied.
fn decode_cmd(frame: &[u8], signals: &[Arc<SignalSet>]) -> Option<ProxyCmd> {
    ProxyCmd::from_bytes(frame).ok().filter(|cmd| match cmd {
        ProxyCmd::Deliver { d, .. } => d.in_bounds(signals),
        _ => true,
    })
}

/// Proxy end of a forked PE's socket link, in the parent.
struct SockEnd<'w> {
    signals: &'w [Arc<SignalSet>],
    /// `None` once severed: closing our end is what kills the child — Rust
    /// ignores SIGPIPE, so its next write errors → panic → `_exit`.
    sock: Option<UnixStream>,
}

impl ProxyEnd for SockEnd<'_> {
    fn recv(&mut self) -> Option<ProxyCmd> {
        // EOF before the PE's last command: the child died.
        let frame = read_frame(self.sock.as_mut()?).ok()?;
        let cmd = decode_cmd(&frame, self.signals);
        if cmd.is_none() {
            self.sever();
        }
        cmd
    }

    fn backlog(&self) -> Option<u32> {
        None
    }

    fn ack_flush(&mut self) {
        if let Some(sock) = &mut self.sock {
            let _ = sock.write_all(&[FLUSH_ACK]);
        }
    }

    fn sever(&mut self) {
        self.sock = None;
    }
}

/// What a forked PE reported, given the command that ended its stream: its
/// result, `Err(Some(msg))` for a panic it caught and sent, `Err(None)` when
/// it died (or was severed) without either.
fn outcome<R: Wire>(last: Option<ProxyCmd>) -> Result<R, Option<String>> {
    match last {
        Some(ProxyCmd::Returned(bytes)) => {
            R::from_bytes(&bytes).map_err(|e| Some(format!("PE result decode failed: {e}")))
        }
        Some(ProxyCmd::Panicked(msg)) => Err(Some(msg)),
        _ => Err(None),
    }
}

/// Child-process body for one PE: run `f` under `catch_unwind` and send the
/// outcome as the last command on the socket. Runs inside the fork — only
/// symmetric atomics, the socket, and plain malloc are touched.
fn child_main<R, F>(world: &ShmemWorld, id: usize, sock: UnixStream, f: &F)
where
    R: Wire,
    F: Fn(&Pe) -> R,
{
    let pe = Pe {
        id,
        world,
        link: PeLink::Proc(Mutex::new(sock)),
    };
    let last = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&pe))) {
        Ok(r) => ProxyCmd::Returned(r.to_bytes()),
        Err(p) => ProxyCmd::Panicked(panic_message(p)),
    };
    let PeLink::Proc(sock) = &pe.link else {
        unreachable!()
    };
    // A severed PE has nobody left to tell.
    let _ = write_frame(&mut *sock.lock().unwrap_or_else(|p| p.into_inner()), &last);
}

/// A PE's end of its link to its proxy: a channel to the in-process proxy
/// thread, or a Unix socket to the parent. Two operations, and the only
/// place a PE knows which backend launched it.
enum PeLink {
    Thread {
        tx: Sender<ProxyCmd>,
        ack: Receiver<()>,
    },
    /// Locked per command, and across a flush and its ack.
    Proc(Mutex<UnixStream>),
}

impl PeLink {
    /// Hand a command to the proxy. Panics (a PE failure) if it is gone.
    fn send(&self, cmd: ProxyCmd) {
        match self {
            PeLink::Thread { tx, .. } => tx.send(cmd).expect("proxy gone"),
            PeLink::Proc(sock) => {
                let mut sock = sock.lock().unwrap_or_else(|p| p.into_inner());
                write_frame(&mut *sock, &cmd).expect("proxy gone");
            }
        }
    }

    /// Return once everything submitted before has been applied. Panics (a
    /// PE failure) if the proxy is gone — never waits on a dead one.
    fn flush(&self) {
        match self {
            PeLink::Thread { tx, ack } => {
                tx.send(ProxyCmd::Flush).expect("proxy gone");
                ack.recv().expect("proxy gone");
            }
            PeLink::Proc(sock) => {
                let mut sock = sock.lock().unwrap_or_else(|p| p.into_inner());
                write_frame(&mut *sock, &ProxyCmd::Flush).expect("proxy gone");
                let mut ack = [0u8; 1];
                sock.read_exact(&mut ack).expect("proxy gone");
                assert_eq!(ack[0], FLUSH_ACK, "corrupt flush ack");
            }
        }
    }
}

/// A processing element: the per-PE handle to the world (held by a thread
/// or a forked process, depending on the backend).
pub struct Pe<'w> {
    pub id: usize,
    world: &'w ShmemWorld,
    link: PeLink,
}

impl<'w> Pe<'w> {
    pub fn npes(&self) -> usize {
        self.world.npes()
    }

    pub fn topology(&self) -> &Topology {
        &self.world.topology
    }

    /// `nvshmem_ptr(peer) != null`: can we load/store the peer directly?
    pub fn nvlink_reachable(&self, peer: usize) -> bool {
        self.world.topology.nvlink_reachable(self.id, peer)
    }

    /// This PE's own signal set (waits happen here).
    pub fn my_signals(&self) -> &SignalSet {
        &self.world.signals[self.id]
    }

    /// The world's functional-plane recorder, if tracing is attached.
    /// Exchange algorithms use this to record pack/unpack spans and
    /// symmetric-region accesses alongside the signal edges the world
    /// records itself.
    pub fn trace(&self) -> Option<&Recorder> {
        self.world.trace.as_deref()
    }

    /// The routing rule, shared by the two ops: `Some(proxied)` when the
    /// delivery must be submitted to this PE's proxy — the peer is across
    /// the network (`proxied`), or a chaos engine must see it — and `None`
    /// when it is stored in place. Records the `SignalSet` event either way,
    /// before the release store / the submit, so it is sequenced before the
    /// matching wait-done (halox-trace recorder docs).
    fn route(&self, dst_pe: usize, slot: usize, val: u64) -> Option<bool> {
        let via_proxy = !self.nvlink_reachable(dst_pe);
        let set = Payload::SignalSet {
            dst_pe: dst_pe as u32,
            slot: slot as u32,
            value: val,
            via_proxy,
        };
        halox_trace::record_opt(self.trace(), self.id as u32, set);
        (via_proxy || self.world.chaos.is_some()).then_some(via_proxy)
    }

    /// Submit a delivery to this PE's proxy. One that names a PE, slot or
    /// segment range outside the world is this PE's bug and fails this PE
    /// here, before it can reach anything shared.
    fn submit(&self, d: Delivery, proxied: bool) {
        assert!(
            d.in_bounds(&self.world.signals),
            "PE {}: delivery names a PE, signal slot or segment range outside the world",
            self.id
        );
        let enqueued_us = self.trace().map_or(0, |t| t.now_us());
        self.link.send(ProxyCmd::Deliver {
            d,
            proxied,
            enqueued_us,
        });
    }

    /// Put-with-signal, non-blocking-interface: over NVLink this is direct
    /// stores + a release signal (the paper's TMA store + `st.release.sys`
    /// notification); across the network it stages the payload and hands it
    /// to the proxy (`nvshmem_float_put_signal_nbi` on IBRC).
    pub fn put_vec3_signal_nbi(
        &self,
        buf: &SymVec3,
        dst_pe: usize,
        offset: usize,
        src: &[Vec3],
        slot: usize,
        val: u64,
    ) {
        match self.route(dst_pe, slot, val) {
            Some(proxied) => {
                // The one payload copy: the proxy's staging buffer. The
                // target travels as its segment name.
                let (addr, words) = buf.seg_addr(dst_pe);
                let d = Delivery::Put {
                    addr,
                    words,
                    dst_pe,
                    offset,
                    payload: src.to_vec(),
                    signal: Some((slot, val)),
                };
                self.submit(d, proxied);
            }
            None => {
                buf.write_slice(dst_pe, offset, src);
                self.world.signals[dst_pe].release_max(slot, val);
            }
        }
    }

    /// Remote notification without data (release ordering: publishes all of
    /// this thread's prior relaxed writes).
    ///
    /// Note: the paper distinguishes `system_relaxed_store` for signals with
    /// no preceding data writes; in our memory model the release upgrade is
    /// free on x86 and required for cross-thread publication, so both map
    /// here (the relaxed/release distinction is retained in the *timing*
    /// plane cost model instead).
    pub fn signal(&self, dst_pe: usize, slot: usize, val: u64) {
        match self.route(dst_pe, slot, val) {
            Some(proxied) => self.submit(Delivery::Signal { dst_pe, slot, val }, proxied),
            None => self.world.signals[dst_pe].release_max(slot, val),
        }
    }

    /// Run an acquire wait on one of *my* slots, recording its outcome —
    /// `SignalWaitDone` for `Ok(observed)`, `SignalWaitTimeout` for
    /// `Err(stale)` — as a span over the wait when tracing is attached.
    fn traced_wait(
        &self,
        slot: usize,
        val: u64,
        wait: impl FnOnce(&SignalSet) -> Result<u64, u64>,
    ) -> Result<u64, u64> {
        let sigs = &self.world.signals[self.id];
        let Some(t) = self.trace() else {
            return wait(sigs);
        };
        let start = t.now_us();
        let result = wait(sigs);
        let dur = t.now_us().saturating_sub(start);
        let (slot, required) = (slot as u32, val);
        let payload = match result {
            Ok(observed) => Payload::SignalWaitDone {
                slot,
                required,
                observed,
            },
            Err(observed) => Payload::SignalWaitTimeout {
                slot,
                required,
                observed,
            },
        };
        t.record_timed(self.id as u32, start, dur, payload);
        result
    }

    /// Acquire-wait on one of *my* signal slots.
    pub fn wait_signal(&self, slot: usize, val: u64) {
        let _ = self.traced_wait(slot, val, |s| Ok(s.acquire_wait(slot, val)));
    }

    /// Watchdog acquire-wait on one of *my* slots: blocks until `val` or
    /// the deadline. `Ok(observed)` on success; `Err(last_observed)` if the
    /// deadline expired first — the caller turns the stale value into a
    /// stall diagnosis. Records `SignalWaitDone` / `SignalWaitTimeout`
    /// accordingly when tracing is attached.
    pub fn wait_signal_deadline(
        &self,
        slot: usize,
        val: u64,
        deadline: std::time::Instant,
    ) -> Result<u64, u64> {
        self.traced_wait(slot, val, |s| s.acquire_wait_deadline(slot, val, deadline))
    }

    /// Non-blocking probe of one of my slots. A successful probe is a
    /// completed acquire, so it records the same `SignalWaitDone` a blocking
    /// wait would; a failed one records nothing.
    pub fn try_signal(&self, slot: usize, val: u64) -> bool {
        let observed = self.world.signals[self.id].probe(slot, val);
        if let Some(observed) = observed {
            let done = Payload::SignalWaitDone {
                slot: slot as u32,
                required: val,
                observed,
            };
            halox_trace::record_opt(self.trace(), self.id as u32, done);
        }
        observed.is_some()
    }

    /// Device-initiated get: read a peer's segment directly. NVLink only —
    /// panics across the network, where `nvshmem_ptr` would return null and
    /// the algorithm must use the put path (exactly the paper's transport
    /// split in Algorithm 6).
    pub fn get_vec3(&self, buf: &SymVec3, src_pe: usize, offset: usize, dst: &mut [Vec3]) {
        assert!(
            self.nvlink_reachable(src_pe),
            "get from PE {src_pe} requires NVLink reachability (use put-with-signal over IB)"
        );
        buf.read_slice(src_pe, offset, dst);
    }

    /// `nvshmem_quiet`: wait until everything this PE submitted to its proxy
    /// has been applied remotely. (Operations stored in place complete
    /// immediately.)
    pub fn quiet(&self) {
        self.link.flush();
    }

    /// Run a global rendezvous between its `BarrierArrive` and — if it
    /// `completed` — `BarrierDepart` events. Collectives are global
    /// synchronisation points too, so the protocol checker sees them all as
    /// barriers.
    fn rendezvous<T>(&self, f: impl FnOnce() -> T, completed: impl FnOnce(&T) -> bool) -> T {
        halox_trace::record_opt(self.trace(), self.id as u32, Payload::BarrierArrive);
        let r = f();
        if completed(&r) {
            halox_trace::record_opt(self.trace(), self.id as u32, Payload::BarrierDepart);
        }
        r
    }

    /// `shmem_barrier_all`.
    pub fn barrier_all(&self) {
        self.rendezvous(|| self.world.barrier.wait(), |_| true);
    }

    /// Sum all-reduce across all PEs (every PE must participate). The
    /// reduction is performed in PE index order on every PE, so the result
    /// is bitwise identical across PEs, runs and thread schedules.
    pub fn allreduce_sum(&self, v: f64) -> f64 {
        self.rendezvous(
            || self.world.collectives.allreduce_sum(self.id, v),
            |_| true,
        )
    }

    /// Max all-reduce across all PEs.
    pub fn allreduce_max(&self, v: f64) -> f64 {
        self.rendezvous(
            || self.world.collectives.allreduce_max(self.id, v),
            |_| true,
        )
    }

    /// Deadline-bounded [`Pe::allreduce_sum`]: `None` if the world did not
    /// complete the collective in time (a peer crashed or stalled — every
    /// surviving PE's wait expires instead of hanging). The world's
    /// collective state is poisoned afterwards; callers must abandon the
    /// run, as with an expired exchange wait.
    pub fn allreduce_sum_deadline(&self, v: f64, deadline: std::time::Instant) -> Option<f64> {
        let c = &self.world.collectives;
        self.rendezvous(
            || c.allreduce_sum_deadline(self.id, v, deadline),
            Option::is_some,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultKind, FaultOp, FaultPlan, FaultRule};
    use crate::shared::Slots;
    use crate::wire::WireError;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn topology_reachability() {
        let t = Topology::islands(8, 4);
        assert!(t.nvlink_reachable(0, 3));
        assert!(!t.nvlink_reachable(3, 4));
        assert!(t.nvlink_reachable(5, 7));
        assert_eq!(t.node_of(5), 1);
        let all = Topology::all_nvlink(8);
        assert!(all.nvlink_reachable(0, 7));
        assert_eq!(all.node_of(7), 0);
    }

    #[test]
    fn backend_lever_rejects_a_mistyped_value() {
        assert_eq!(WorldBackend::lever(None), Ok(WorldBackend::Threads));
        assert_eq!(WorldBackend::lever(Some("")), Ok(WorldBackend::Threads));
        for b in [WorldBackend::Threads, WorldBackend::Procs] {
            assert_eq!(WorldBackend::lever(Some(b.label())), Ok(b));
        }
        assert_eq!(WorldBackend::lever(Some("PROCS")), Ok(WorldBackend::Procs));
        let err = WorldBackend::lever(Some("proc")).unwrap_err();
        assert!(
            err.contains("HALOX_BACKEND") && err.contains("\"proc\"") && err.contains("procs"),
            "{err}"
        );
    }

    #[test]
    fn run_returns_per_pe_results() {
        let w = ShmemWorld::new(Topology::all_nvlink(4), 1);
        let out = w.run(|pe| pe.id * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn nvlink_put_with_signal_is_visible_after_wait() {
        let w = ShmemWorld::new(Topology::all_nvlink(2), 1);
        let buf = SymVec3::alloc(2, 4);
        let b = &buf;
        w.run(|pe| {
            if pe.id == 0 {
                let data = [Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)];
                pe.put_vec3_signal_nbi(b, 1, 1, &data, 0, 1);
            } else {
                pe.wait_signal(0, 1);
                let mut got = [Vec3::ZERO; 2];
                pe.get_vec3(b, 1, 1, &mut got);
                assert_eq!(got[0], Vec3::new(1.0, 2.0, 3.0));
                assert_eq!(got[1], Vec3::new(4.0, 5.0, 6.0));
            }
        });
    }

    #[test]
    fn ib_put_goes_through_proxy_and_signals() {
        let w = ShmemWorld::new(Topology::islands(2, 1), 1);
        let buf = SymVec3::alloc(2, 4);
        let b = &buf;
        w.run(|pe| {
            if pe.id == 0 {
                assert!(!pe.nvlink_reachable(1));
                let data = [Vec3::splat(7.0)];
                pe.put_vec3_signal_nbi(b, 1, 2, &data, 0, 5);
                pe.quiet();
            } else {
                pe.wait_signal(0, 5);
                assert_eq!(b.get(1, 2), Vec3::splat(7.0));
            }
        });
    }

    #[test]
    #[should_panic]
    fn get_across_network_panics() {
        let w = ShmemWorld::new(Topology::islands(2, 1), 1);
        let buf = SymVec3::alloc(2, 1);
        let b = &buf;
        w.run(|pe| {
            if pe.id == 0 {
                let mut dst = [Vec3::ZERO];
                pe.get_vec3(b, 1, 0, &mut dst);
            }
        });
    }

    #[test]
    fn quiet_fences_proxied_puts() {
        // With an injected proxy delay, data must still be there after
        // quiet() + a peer barrier.
        let w = ShmemWorld::new(Topology::islands(2, 1), 1).with_proxy_config(ProxyConfig {
            injected_delay: Some(Duration::from_millis(5)),
            ..Default::default()
        });
        let buf = SymVec3::alloc(2, 1);
        let b = &buf;
        w.run(|pe| {
            if pe.id == 0 {
                b.write_slice(0, 0, &[Vec3::splat(1.0)]); // warm-up direct
                pe.put_vec3_signal_nbi(b, 1, 0, &[Vec3::splat(9.0)], 0, 1);
                pe.quiet();
            }
            pe.barrier_all();
            if pe.id == 1 {
                assert_eq!(b.get(1, 0), Vec3::splat(9.0));
            }
        });
    }

    #[test]
    fn barrier_all_synchronizes_pes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let w = ShmemWorld::new(Topology::all_nvlink(4), 1);
        let counter = AtomicUsize::new(0);
        let c = &counter;
        w.run(|pe| {
            c.fetch_add(1, Ordering::SeqCst);
            pe.barrier_all();
            assert_eq!(c.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn allreduce_through_pe_handles() {
        let w = ShmemWorld::new(Topology::all_nvlink(4), 1);
        w.run(|pe| {
            let total = pe.allreduce_sum(pe.id as f64);
            assert_eq!(total, 6.0);
            let m = pe.allreduce_max(pe.id as f64);
            assert_eq!(m, 3.0);
        });
    }

    #[test]
    fn empty_runs_never_lose_the_proxy_wakeup() {
        // Regression: the vendored channel's `Sender::drop` notified without
        // the queue lock, so a proxy between its `senders` check and its
        // park slept forever — about one launch in a few thousand when the
        // PE closure returns at once. On a helper thread, so that a relapse
        // fails here instead of hanging the suite.
        let (done, finished) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let w = ShmemWorld::new(Topology::all_nvlink(2), 1);
            for _ in 0..20_000 {
                w.run(|_| ());
            }
            done.send(()).expect("test thread waits for the helper");
        });
        finished
            .recv_timeout(Duration::from_secs(120))
            .expect("an empty world.run hung: lost wake-up on proxy disconnect");
        helper.join().expect("helper panicked");
    }

    #[test]
    fn reset_signals_allows_world_reuse() {
        // Reusing one world for several independent runs: each run restarts
        // sigVals at 1, which is only sound if the slots were reset in
        // between (monotone `>=` waits would otherwise pass on stale values
        // from the previous run).
        let w = ShmemWorld::new(Topology::islands(2, 1), 2);
        for _run in 0..3 {
            w.run(|pe| {
                let peer = 1 - pe.id;
                pe.signal(peer, 0, 1);
                pe.wait_signal(0, 1);
                pe.barrier_all();
                pe.signal(peer, 1, 2);
                pe.wait_signal(1, 2);
                pe.quiet();
            });
            assert_eq!(w.signal_set(0).peek(0), 1);
            assert_eq!(w.signal_set(1).peek(1), 2);
            w.reset_signals();
            for pe in 0..2 {
                for slot in 0..2 {
                    assert_eq!(w.signal_set(pe).peek(slot), 0);
                }
            }
        }
    }

    #[test]
    fn mixed_direct_and_proxied_signals_one_slot_never_regress() {
        // One destination slot fed by BOTH transports at once: pe0 signals
        // pe1 directly over NVLink while pe2 signals the same slot through
        // its (randomly delayed) proxy. The slot must never move backwards
        // — a late-arriving proxied value below the current one has to be
        // absorbed, not stored (release_max delivery).
        let w = ShmemWorld::new(Topology::islands(4, 2), 1).with_proxy_config(ProxyConfig {
            random_delay: Some((0xfeed_beef, 300)),
            ..Default::default()
        });
        w.run(|pe| {
            for round in 0..50u64 {
                let lo = round * 2 + 1;
                let hi = round * 2 + 2;
                match pe.id {
                    2 => pe.signal(1, 0, lo), // cross-island: proxied, delayed
                    0 => pe.signal(1, 0, hi), // same island: direct store
                    _ => {}
                }
                if pe.id == 1 {
                    pe.wait_signal(0, hi);
                    // Give the delayed proxy time to land its (smaller)
                    // value, then check it did not regress the slot.
                    std::thread::sleep(Duration::from_micros(500));
                    assert!(
                        pe.my_signals().peek(0) >= hi,
                        "slot regressed below {hi} at round {round}"
                    );
                }
                pe.barrier_all();
            }
        });
    }

    #[test]
    fn attached_recorder_captures_signal_edges_and_checks_clean() {
        let rec = Arc::new(Recorder::new());
        let w = ShmemWorld::new(Topology::islands(2, 1), 1).with_trace(Arc::clone(&rec));
        let buf = SymVec3::alloc(2, 4);
        let b = &buf;
        w.run(|pe| {
            if pe.id == 0 {
                pe.put_vec3_signal_nbi(b, 1, 0, &[Vec3::splat(3.0)], 0, 1);
            } else {
                pe.wait_signal(0, 1);
                assert_eq!(b.get(1, 0), Vec3::splat(3.0));
            }
            pe.barrier_all();
        });
        let trace = rec.drain();
        assert!(trace.events.iter().any(|e| matches!(
            e.payload,
            Payload::SignalSet {
                via_proxy: true,
                value: 1,
                ..
            }
        )));
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.payload, Payload::SignalWaitDone { observed: 1, .. })));
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.payload, Payload::WorldStart { pes: 2 })));
        let report = halox_trace::check(&trace);
        assert!(report.is_clean(), "{report}");
    }

    fn one_shot_plan(pe: usize, op: FaultOp, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            name: "test".into(),
            seed: 0,
            rules: vec![FaultRule {
                pe: Some(pe),
                op,
                after_ops: 0,
                every: None,
                kind,
            }],
        }
    }

    #[test]
    fn chaos_drop_signal_on_direct_path_is_detected_not_hung() {
        // NVLink (direct-store) deliveries must face the fault plan too:
        // drop the fused signal of pe0's first put; the data still lands,
        // and the watchdog wait reports the missing doorbell instead of
        // hanging.
        let chaos = Arc::new(ChaosEngine::new(
            one_shot_plan(0, FaultOp::Put, FaultKind::DropSignalOnce),
            2,
        ));
        let w = ShmemWorld::new(Topology::all_nvlink(2), 1).with_chaos(Arc::clone(&chaos));
        let buf = SymVec3::alloc(2, 1);
        let b = &buf;
        w.run(|pe| {
            if pe.id == 0 {
                pe.put_vec3_signal_nbi(b, 1, 0, &[Vec3::splat(4.0)], 0, 1);
                pe.quiet();
            }
            pe.barrier_all();
            if pe.id == 1 {
                let r = pe.wait_signal_deadline(
                    0,
                    1,
                    std::time::Instant::now() + Duration::from_millis(20),
                );
                assert_eq!(r, Err(0), "signal should have been swallowed");
                assert_eq!(b.get(1, 0), Vec3::splat(4.0), "data must still land");
            }
        });
        assert_eq!(chaos.report().dropped_signals, 1);
    }

    #[test]
    fn chaos_crash_drops_everything_from_victim() {
        let chaos = Arc::new(ChaosEngine::new(
            one_shot_plan(0, FaultOp::Any, FaultKind::CrashPe),
            2,
        ));
        let w = ShmemWorld::new(Topology::islands(2, 1), 1).with_chaos(Arc::clone(&chaos));
        let buf = SymVec3::alloc(2, 1);
        let b = &buf;
        w.run(|pe| {
            if pe.id == 0 {
                // Proxied put from a crashed PE: nothing may arrive.
                pe.put_vec3_signal_nbi(b, 1, 0, &[Vec3::splat(9.0)], 0, 1);
                pe.quiet();
            }
            pe.barrier_all();
            if pe.id == 1 {
                let r = pe.wait_signal_deadline(
                    0,
                    1,
                    std::time::Instant::now() + Duration::from_millis(20),
                );
                assert_eq!(r, Err(0));
                assert_eq!(b.get(1, 0), Vec3::ZERO, "payload from crashed PE leaked");
            }
        });
        assert!(chaos.is_crashed(0));
        assert!(chaos.report().crash_drops >= 1);
    }

    #[test]
    fn chaos_reorder_swaps_adjacent_signals() {
        // pe0's first signal (val 1, slot 0) is held and must be released
        // by its second (val 1, slot 1): after waiting for slot 1, slot 0
        // is guaranteed present without ever waiting on it.
        let chaos = Arc::new(ChaosEngine::new(
            one_shot_plan(0, FaultOp::Signal, FaultKind::ReorderNext),
            2,
        ));
        let w = ShmemWorld::new(Topology::all_nvlink(2), 2).with_chaos(Arc::clone(&chaos));
        w.run(|pe| {
            if pe.id == 0 {
                pe.signal(1, 0, 1); // held
                pe.signal(1, 1, 1); // delivered, then flushes the held one
            } else {
                pe.wait_signal(1, 1);
                pe.wait_signal(0, 1);
            }
        });
        assert_eq!(chaos.report().reorders, 1);
    }

    #[test]
    fn reset_signals_while_watchdog_wait_armed_stays_coherent() {
        // A deadline wait armed across a reset_signals() call must still
        // resolve cleanly: timeout with a coherent (below-target) value,
        // and the slot usable again afterwards.
        let w = ShmemWorld::new(Topology::all_nvlink(2), 2);
        let wref = &w;
        w.run(|pe| {
            if pe.id == 0 {
                pe.signal(1, 0, 3);
                pe.wait_signal(1, 1); // pe1 has consumed the 3
                std::thread::sleep(Duration::from_millis(5)); // let the wait arm
                wref.reset_signals();
            } else {
                pe.wait_signal(0, 3);
                pe.signal(0, 1, 1);
                let r = pe.wait_signal_deadline(
                    0,
                    5,
                    std::time::Instant::now() + Duration::from_millis(30),
                );
                let v = r.expect_err("val 5 was never sent");
                assert!(v < 5, "observed {v} is not below the awaited value");
            }
            pe.barrier_all();
            if pe.id == 0 {
                pe.signal(1, 0, 5);
            } else {
                pe.wait_signal(0, 5); // slot works again after the reset
            }
        });
    }

    #[test]
    fn chaos_world_mismatched_sizes_rejected() {
        let chaos = Arc::new(ChaosEngine::new(FaultPlan::quiescent(), 4));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ShmemWorld::new(Topology::all_nvlink(2), 1).with_chaos(chaos)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn signal_only_notification() {
        let w = ShmemWorld::new(Topology::islands(4, 2), 2);
        w.run(|pe| {
            let peer = (pe.id + 2) % 4; // cross-island
            pe.signal(peer, 1, (pe.id + 1) as u64);
            pe.wait_signal(1, ((peer) + 1) as u64);
        });
    }

    // ---------------------------------------------------------------
    // Procs backend: PEs are forked processes.
    // ---------------------------------------------------------------

    fn procs_world(topology: Topology, slots: usize) -> ShmemWorld {
        ShmemWorld::new_with_backend(WorldBackend::Procs, topology, slots)
    }

    #[test]
    fn procs_backend_runs_and_returns_results() {
        let w = procs_world(Topology::all_nvlink(4), 1);
        let out = w.run(|pe| pe.id as u64 * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn procs_direct_put_with_signal_crosses_processes() {
        let w = procs_world(Topology::all_nvlink(2), 1);
        let buf = SymVec3::alloc(2, 4);
        let b = &buf;
        w.run(|pe| {
            if pe.id == 0 {
                let data = [Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)];
                pe.put_vec3_signal_nbi(b, 1, 1, &data, 0, 1);
            } else {
                pe.wait_signal(0, 1);
                let mut got = [Vec3::ZERO; 2];
                pe.get_vec3(b, 1, 1, &mut got);
                assert_eq!(got[0], Vec3::new(1.0, 2.0, 3.0));
                assert_eq!(got[1], Vec3::new(4.0, 5.0, 6.0));
            }
        });
    }

    #[test]
    fn procs_proxied_put_over_socket_and_quiet() {
        let w = procs_world(Topology::islands(2, 1), 1);
        let buf = SymVec3::alloc(2, 4);
        let b = &buf;
        w.run(|pe| {
            if pe.id == 0 {
                assert!(!pe.nvlink_reachable(1));
                pe.put_vec3_signal_nbi(b, 1, 2, &[Vec3::splat(7.0)], 0, 5);
                pe.quiet();
            } else {
                pe.wait_signal(0, 5);
                assert_eq!(b.get(1, 2), Vec3::splat(7.0));
            }
        });
    }

    #[test]
    fn procs_collectives_and_barrier() {
        let w = procs_world(Topology::all_nvlink(4), 1);
        let sums = w.run(|pe| {
            pe.barrier_all();
            let total = pe.allreduce_sum(pe.id as f64 + 1.0);
            let m = pe.allreduce_max(pe.id as f64);
            pe.barrier_all();
            (total, m)
        });
        for (total, m) in sums {
            assert_eq!(total, 10.0);
            assert_eq!(m, 3.0);
        }
    }

    #[test]
    fn procs_panic_surfaces_as_world_error() {
        let w = procs_world(Topology::all_nvlink(2), 1);
        let r = w.try_run(|pe| {
            if pe.id == 1 {
                panic!("deliberate child panic");
            }
            pe.id as u64
        });
        let err = r.expect_err("PE 1 panicked");
        assert_eq!(err.failures.len(), 1);
        let (pe, cause) = &err.failures[0];
        assert_eq!(*pe, 1);
        match cause {
            PeFailure::Panic(msg) => assert!(msg.contains("deliberate child panic"), "{msg}"),
            other => panic!("expected Panic, got {other}"),
        }
    }

    #[test]
    fn procs_dead_child_is_reported_not_hung() {
        let w = procs_world(Topology::all_nvlink(2), 1);
        let r = w.try_run(|pe| {
            if pe.id == 1 {
                // Die without a result frame — like a segfaulted rank.
                shared::exit_now(7);
            }
            pe.id as u64
        });
        let err = r.expect_err("PE 1 died");
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].0, 1);
        match &err.failures[0].1 {
            PeFailure::Died { status } => {
                assert!(
                    shared::describe_wait_status(*status).contains('7'),
                    "status {status}"
                );
            }
            other => panic!("expected Died, got {other}"),
        }
    }

    #[test]
    fn procs_chaos_drop_signal_detected_not_hung() {
        // Under procs, chaos routes every delivery through the socket to
        // the parent-owned engine; the dropped doorbell must be observed
        // as a bounded-wait timeout in the child, with the data landed.
        let chaos = Arc::new(ChaosEngine::new(
            one_shot_plan(0, FaultOp::Put, FaultKind::DropSignalOnce),
            2,
        ));
        let w = procs_world(Topology::all_nvlink(2), 1).with_chaos(Arc::clone(&chaos));
        let buf = SymVec3::alloc(2, 1);
        let b = &buf;
        w.run(|pe| {
            if pe.id == 0 {
                pe.put_vec3_signal_nbi(b, 1, 0, &[Vec3::splat(4.0)], 0, 1);
                pe.quiet();
            }
            pe.barrier_all();
            if pe.id == 1 {
                let r = pe.wait_signal_deadline(
                    0,
                    1,
                    std::time::Instant::now() + Duration::from_millis(50),
                );
                assert_eq!(r, Err(0), "signal should have been swallowed");
                assert_eq!(b.get(1, 0), Vec3::splat(4.0), "data must still land");
            }
        });
        assert_eq!(chaos.report().dropped_signals, 1);
    }

    #[test]
    fn forked_pes_and_their_proxies_append_to_the_one_recorder() {
        // The recorder's storage is fork-shared: the children's signal
        // edges, the parent-side proxy's service event and the driver's
        // world boundary land in one log, in an order the checker accepts.
        let rec = Arc::new(Recorder::with_capacity(256));
        let w = procs_world(Topology::islands(2, 1), 1).with_trace(Arc::clone(&rec));
        let buf = SymVec3::alloc(2, 1);
        let b = &buf;
        w.run(|pe| {
            if pe.id == 0 {
                pe.put_vec3_signal_nbi(b, 1, 0, &[Vec3::splat(3.0)], 0, 1);
            } else {
                pe.wait_signal(0, 1);
            }
            pe.barrier_all();
        });
        let trace = rec.drain();
        let has = |f: &dyn Fn(&Payload) -> bool| trace.events.iter().any(|e| f(&e.payload));
        assert!(has(&|p| matches!(p, Payload::WorldStart { pes: 2 })));
        assert!(has(&|p| matches!(p, Payload::SignalSet { value: 1, .. })));
        assert!(has(&|p| matches!(
            p,
            Payload::ProxyService { kind: "put", .. }
        )));
        assert!(has(&|p| matches!(
            p,
            Payload::SignalWaitDone { observed: 1, .. }
        )));
        let report = halox_trace::check(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn backends_mix_in_one_process_over_buffers_allocated_first() {
        // Symmetric memory allocated before any world exists serves forked
        // PEs and then PE threads: the backend only picks the launcher.
        let buf = SymVec3::alloc(2, 4);
        let comm = crate::TwoSidedComm::new(2);
        let (b, c) = (&buf, &comm);
        for (round, backend) in [
            WorldBackend::Procs,
            WorldBackend::Threads,
            WorldBackend::Procs,
        ]
        .into_iter()
        .enumerate()
        {
            let v = Vec3::splat(round as f32 + 1.0);
            let w = ShmemWorld::new_with_backend(backend, Topology::all_nvlink(2), 1);
            let got = w.run(|pe| {
                let peer = 1 - pe.id;
                pe.put_vec3_signal_nbi(b, peer, pe.id, &[v], 0, 1);
                pe.wait_signal(0, 1);
                let echoed = c.sendrecv(pe.id, peer, 9, vec![b.get(pe.id, peer)], peer, 9);
                echoed[0].x as f64
            });
            assert_eq!(
                got,
                vec![v.x as f64; 2],
                "{} round {round}",
                backend.label()
            );
            assert_eq!(b.get(0, 1), v, "forked stores land in the parent's words");
        }
    }

    #[test]
    fn symmetric_allocation_inside_a_forked_pe_is_refused() {
        let w = procs_world(Topology::all_nvlink(2), 1);
        let refused = w.run(|_| {
            let r = Slots::<AtomicU64>::alloc(8);
            matches!(r, Err(shared::SymAllocError::InForkedPe)) as u64
        });
        assert_eq!(refused, vec![1, 1]);
        // The wrappers turn the refusal into a reported PE panic.
        let err = w
            .try_run(|pe| SymVec3::alloc(2, 1).len() as u64 + pe.id as u64)
            .expect_err("ghost buffers must not be handed out");
        assert!(
            matches!(&err.failures[0].1, PeFailure::Panic(m) if m.contains("forked PE")),
            "{err}"
        );
        // The parent itself is not sealed.
        assert!(Slots::<AtomicU64>::alloc(8).is_ok());
    }

    /// A put to PE 1, slot 0, naming a segment that is no longer live.
    /// 12 MiB a segment (never touched): larger than any one mapping a
    /// concurrently running test makes, so nothing can revive the name.
    fn put_to_a_dropped_segment() -> Delivery {
        let dead = SymVec3::alloc(2, 1 << 20);
        let (addr, words) = dead.seg_addr(1);
        drop(dead);
        Delivery::Put {
            addr,
            words,
            dst_pe: 1,
            offset: 0,
            payload: vec![Vec3::splat(9.0)],
            signal: Some((0, 1)),
        }
    }

    /// `d` as a network-proxied command, untraced.
    fn proxied(d: Delivery) -> ProxyCmd {
        ProxyCmd::Deliver {
            d,
            proxied: true,
            enqueued_us: 0,
        }
    }

    #[test]
    fn proxied_put_naming_a_dropped_buffer_is_rejected() {
        let put = put_to_a_dropped_segment();
        let w = procs_world(Topology::islands(2, 1), 1);
        let err = w
            .try_run(|pe| {
                if pe.id == 0 {
                    // A put as `Pe::submit` would send it, but for a
                    // segment name that is no longer live.
                    pe.link.send(proxied(put.clone()));
                }
                pe.id as u64
            })
            .expect_err("the proxy must refuse the frame");
        assert_eq!(err.failures.len(), 1, "{err}");
        assert_eq!(err.failures[0].0, 0);
        assert!(matches!(err.failures[0].1, PeFailure::Died { .. }), "{err}");
        assert_eq!(w.signal_set(1).peek(0), 0, "a rejected put signals nobody");
    }

    #[test]
    fn reordered_put_naming_a_dropped_buffer_severs_its_pe() {
        // The held put lands only when pe0's next delivery flushes it; a
        // dead name must sever pe0 then, as it does without the reorder.
        let put = put_to_a_dropped_segment();
        let chaos = Arc::new(ChaosEngine::new(
            one_shot_plan(0, FaultOp::Put, FaultKind::ReorderNext),
            2,
        ));
        let w = procs_world(Topology::islands(2, 1), 1).with_chaos(Arc::clone(&chaos));
        let err = w
            .try_run(|pe| {
                if pe.id == 0 {
                    pe.link.send(proxied(put.clone())); // held
                    pe.signal(1, 0, 1); // delivered, then flushes the held put
                    pe.quiet();
                }
                pe.id as u64
            })
            .expect_err("the flushed put names no live segment");
        assert_eq!(chaos.report().reorders, 1);
        assert_eq!(err.failures.len(), 1, "{err}");
        assert!(
            matches!(err.failures[0], (0, PeFailure::Died { .. })),
            "{err}"
        );
    }

    #[test]
    fn proxy_queue_time_counts_from_the_issuing_pe() {
        // Three puts queue behind a 2 ms proxy delay each, so the last one
        // waits about 6 ms from its submit to its landing — socket included
        // on the procs backend. A lower bound only: a slow host passes.
        for backend in [WorldBackend::Threads, WorldBackend::Procs] {
            let rec = Arc::new(Recorder::with_capacity(256));
            let w = ShmemWorld::new_with_backend(backend, Topology::islands(2, 1), 1)
                .with_proxy_config(ProxyConfig {
                    injected_delay: Some(Duration::from_millis(2)),
                    ..Default::default()
                })
                .with_trace(Arc::clone(&rec));
            let buf = SymVec3::alloc(2, 3);
            let b = &buf;
            w.run(|pe| {
                if pe.id == 0 {
                    for i in 0..3 {
                        pe.put_vec3_signal_nbi(b, 1, i, &[Vec3::splat(1.0)], 0, i as u64 + 1);
                    }
                    pe.quiet();
                }
            });
            let trace = rec.drain();
            let queued = trace.events.iter().filter_map(|e| match e.payload {
                Payload::ProxyService { queued_us, .. } => Some(queued_us),
                _ => None,
            });
            let longest = queued.max().expect("the proxy serviced the puts");
            assert!(longest >= 4_000, "{}: {longest} us", backend.label());
        }
    }

    /// CRC32 of `cmd`'s declared bytes, after checking that they decode to
    /// a command that re-encodes to the same bytes and that every strict
    /// prefix is a typed error, never `Trailing`.
    fn wire_crc(what: &'static str, cmd: &ProxyCmd) -> (&'static str, u32) {
        let bytes = cmd.to_bytes();
        let back = ProxyCmd::from_bytes(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(back.to_bytes(), bytes, "{what}: re-encoding differs");
        for cut in 0..bytes.len() {
            match ProxyCmd::from_bytes(&bytes[..cut]) {
                Ok(_) => panic!("{what}: strict prefix {cut}/{} decoded", bytes.len()),
                Err(WireError::Trailing { .. }) => {
                    panic!("{what}: prefix {cut}/{} reported Trailing", bytes.len())
                }
                Err(_) => {}
            }
        }
        (what, crate::wire::crc32(&bytes))
    }

    /// The socket's byte layout, pinned by CRC32 like the checkpoint
    /// formats: a reordered, inserted or retyped field of `ProxyCmd` or
    /// `Delivery` fails here.
    #[test]
    fn every_socket_command_is_pinned() {
        let put = |signal, proxied| ProxyCmd::Deliver {
            d: Delivery::Put {
                addr: 0x7f3a_5c00_1000,
                words: 96,
                dst_pe: 1,
                offset: 2,
                payload: vec![Vec3::new(1.0, -2.5, 3.25), Vec3::splat(0.5)],
                signal,
            },
            proxied,
            enqueued_us: 1_234,
        };
        let got = vec![
            wire_crc("put + signal", &put(Some((3, 7)), true)),
            wire_crc("put", &put(None, false)),
            wire_crc(
                "signal",
                &ProxyCmd::Deliver {
                    d: Delivery::Signal {
                        dst_pe: 2,
                        slot: 5,
                        val: 9,
                    },
                    proxied: true,
                    enqueued_us: 55,
                },
            ),
            wire_crc("flush", &ProxyCmd::Flush),
            wire_crc("returned", &ProxyCmd::Returned(42u64.to_bytes())),
            wire_crc("panicked", &ProxyCmd::Panicked("PE 1 gave up".into())),
        ];
        let pinned = vec![
            ("put + signal", 0xE4E7_A0B6),
            ("put", 0x8A0A_BEEA),
            ("signal", 0xE76C_37E8),
            ("flush", 0xA505_DF1B),
            ("returned", 0x0676_80AB),
            ("panicked", 0x30FA_2690),
        ];
        assert_eq!(got, pinned);
    }

    #[test]
    fn delivery_outside_the_world_fails_its_pe_not_the_world() {
        // One signal slot, and pe0 rings slot 7 (then a PE that does not
        // exist) across the network. The bad delivery is pe0's bug: pe0
        // fails, within a bounded time, pe1 is untouched, and the next
        // world is clean. On a helper thread so a relapse into the old
        // hang fails here instead of stalling the suite.
        let (done, finished) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            for backend in [WorldBackend::Threads, WorldBackend::Procs] {
                for (dst_pe, slot) in [(1usize, 7usize), (9, 0)] {
                    let topo = Topology::islands(2, 1);
                    let w = ShmemWorld::new_with_backend(backend, topo, 1);
                    let t = std::time::Instant::now();
                    let err = w
                        .try_run(|pe| {
                            if pe.id == 0 {
                                pe.signal(dst_pe, slot, 1);
                                pe.quiet();
                            }
                            pe.id as u64
                        })
                        .expect_err("pe0 named a target outside the world");
                    assert!(t.elapsed() < Duration::from_secs(1), "{:?}", t.elapsed());
                    assert_eq!(err.failures.len(), 1, "{}: {err}", backend.label());
                    assert!(
                        matches!(&err.failures[0], (0, PeFailure::Panic(m)) if m.contains("outside the world")),
                        "{}: {err}",
                        backend.label()
                    );
                    assert_eq!(w.signal_set(1).peek(0), 0);
                    let fresh = ShmemWorld::new_with_backend(backend, topo, 1);
                    assert_eq!(fresh.run(|pe| pe.id as u64), vec![0, 1]);
                }
            }
            done.send(()).expect("test thread waits for the helper");
        });
        finished
            .recv_timeout(Duration::from_secs(8))
            .expect("a delivery outside the world hung try_run");
        helper.join().expect("helper panicked");
    }

    #[test]
    fn out_of_range_frame_from_another_process_severs_that_pe() {
        // The PE-side check keeps a well-behaved PE from framing a bad
        // delivery; a frame is still input from another process, so the
        // parent checks again. Hand-frame a signal on slot 7 of 1.
        let w = procs_world(Topology::islands(2, 1), 1);
        let err = w
            .try_run(|pe| {
                if pe.id == 0 {
                    pe.link.send(proxied(Delivery::Signal {
                        dst_pe: 1,
                        slot: 7,
                        val: 1,
                    }));
                    pe.quiet();
                }
                pe.id as u64
            })
            .expect_err("the proxy must refuse the frame");
        assert_eq!(err.failures.len(), 1, "{err}");
        assert!(
            matches!(err.failures[0], (0, PeFailure::Died { .. })),
            "{err}"
        );
    }

    #[test]
    fn garbage_frames_never_panic_the_decoder_or_the_apply() {
        // A frame is bytes from another process. Whatever they are,
        // `decode_cmd` + `Delivery::apply` return; nothing indexes out
        // of range. Three generators: raw noise; frames whose fields are
        // drawn from in-range, just-out-of-range and huge values, some cut
        // short; and such frames with a noise tail (segment names stay this
        // test's own buffer, or dead, so a frame that does land lands here).
        let w = ShmemWorld::new(Topology::islands(2, 1), 2);
        let buf = SymVec3::alloc(2, 4);
        let (addr, words) = buf.seg_addr(1);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut landed = 0;
        for round in 0..20_000u64 {
            let wild = |r: u64| match r % 4 {
                0 => (r >> 8) as usize % 4,
                1 => (r >> 8) as usize % 64,
                2 => usize::MAX - (r >> 8) as usize % 4,
                _ => (r >> 8) as usize,
            };
            let mut body = Vec::new();
            if round % 3 != 0 {
                let d = if rng() % 2 == 0 {
                    Delivery::Signal {
                        dst_pe: wild(rng()),
                        slot: wild(rng()),
                        val: rng(),
                    }
                } else {
                    Delivery::Put {
                        dst_pe: wild(rng()),
                        offset: wild(rng()),
                        addr: [addr, 0, 8][rng() as usize % 3],
                        words: [words, wild(rng())][rng() as usize % 2],
                        signal: (rng() % 2 == 0).then(|| (wild(rng()), rng())),
                        payload: vec![Vec3::splat(1.0); rng() as usize % 6],
                    }
                };
                let cmd = ProxyCmd::Deliver {
                    d,
                    proxied: rng() % 2 == 0,
                    enqueued_us: rng(),
                };
                cmd.encode(&mut body);
            }
            if round % 3 != 1 {
                // Noise: the whole body, or a tail behind a whole frame...
                body.extend((0..rng() % 40).map(|_| rng() as u8));
            } else if rng() % 4 == 0 {
                // ...or a frame cut short.
                body.truncate(rng() as usize % (body.len() + 1));
            }
            if let Some(ProxyCmd::Deliver { d, .. }) = decode_cmd(&body, &w.signals) {
                landed += d.apply(&w.signals, false) as u32;
            }
        }
        assert!(landed > 0, "the generator never produced a valid frame");
    }
}

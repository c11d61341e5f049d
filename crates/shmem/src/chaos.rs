//! Deterministic fault injection for the PGAS transport (the chaos engine).
//!
//! The fused exchange trades MPI's host-side safety net for raw
//! device-visible signal waits, exactly the shape where a stalled PE or a
//! lost signal becomes a silent whole-run hang. This module generalizes the
//! blunt [`crate::ProxyConfig`] delay knobs into a seeded, deterministic
//! [`FaultPlan`]: per-PE, per-operation faults injected at the world's
//! *delivery choke point* — the source PE's proxy, which every delivery,
//! NVLink or network, is submitted to while an engine is attached.
//!
//! Faults are adversarial-delivery scenarios from the NVSHMEM systems
//! literature plus hard partial failures:
//!
//! * [`FaultKind::Delay`] — a slow / contended transport (the paper's §5.5
//!   mispinned-proxy pathology, now on either path);
//! * [`FaultKind::ReorderNext`] — one operation overtakes the next one from
//!   the same PE (correctness must not depend on delivery order);
//! * [`FaultKind::DropSignalOnce`] — data lands, its fused signal is lost
//!   (the classic "lost doorbell");
//! * [`FaultKind::TransientPutFailure`] — one put vanishes entirely
//!   (payload and signal), as a transient link error would;
//! * [`FaultKind::StallPe`] — the PE's sends freeze for a bounded period;
//! * [`FaultKind::CrashPe`] — from the trigger on, every send from the PE
//!   is dropped forever (permanent PE death).
//!
//! Determinism: each rule counts *matching operations per source PE* and
//! fires on exact counts, and one thread — the source PE's proxy — decides
//! all of that PE's operations in the order it issued them, so a fixed
//! `(plan, PE program)` pair injects the same faults at the same protocol
//! positions on every run and on either world backend — delivery *timing*
//! still varies with scheduling, which is the point of the exercise. The
//! engine never blocks a fault-free operation: with no chaos attached the
//! hot paths are untouched.

use crate::shared;
use crate::signal::SignalSet;
use crate::sym::store_vec3s;
use halox_md::Vec3;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Which transport operations a [`FaultRule`] matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Any delivery (puts and bare signals).
    Any,
    /// Bare signal deliveries only.
    Signal,
    /// Put / put-with-signal deliveries only.
    Put,
}

/// The fault injected when a [`FaultRule`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Delay delivery of the matching operation.
    Delay(Duration),
    /// Deliver the data but swallow the fused signal (once).
    DropSignalOnce,
    /// Drop the whole put — payload and signal — once.
    TransientPutFailure,
    /// The source PE's delivery path freezes for the given duration (once).
    StallPe(Duration),
    /// From the trigger onward, every delivery from the source PE is
    /// dropped — the PE is dead to its peers.
    CrashPe,
    /// Kill the source PE outright: its proxy severs the link. A PE that is
    /// a process actually dies and surfaces as `PeFailure::Died` → `PeDied`;
    /// a PE that is a thread cannot be killed, so there it degrades to
    /// [`FaultKind::CrashPe`] semantics — drop everything from the trigger
    /// on. Cleared by [`ChaosEngine::revive_all`], the supervised-recovery
    /// hook.
    KillPe,
    /// Hold this operation and deliver it *after* the source PE's next
    /// delivery (adversarial reordering).
    ReorderNext,
}

impl FaultKind {
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Delay(_) => "delay",
            FaultKind::DropSignalOnce => "drop-signal",
            FaultKind::TransientPutFailure => "drop-put",
            FaultKind::StallPe(_) => "stall",
            FaultKind::CrashPe => "crash",
            FaultKind::KillPe => "kill",
            FaultKind::ReorderNext => "reorder",
        }
    }
}

/// One deterministic fault trigger.
#[derive(Debug, Clone, Copy)]
pub struct FaultRule {
    /// Source PE the rule applies to (`None` = every PE).
    pub pe: Option<usize>,
    /// Operation filter.
    pub op: FaultOp,
    /// Fire when the source PE's matching-op count reaches this value
    /// (0-based: `after_ops == 0` fires on the very first matching op).
    pub after_ops: u64,
    /// `Some(k)`: keep firing every `k` matching ops after the trigger
    /// (periodic faults — only meaningful for [`FaultKind::Delay`]).
    pub every: Option<u64>,
    pub kind: FaultKind,
}

impl FaultRule {
    fn matches(&self, pe: usize, op: OpKind) -> bool {
        self.pe.is_none_or(|p| p == pe)
            && match self.op {
                FaultOp::Any => true,
                FaultOp::Signal => op == OpKind::Signal,
                FaultOp::Put => op == OpKind::Put,
            }
    }

    fn fires_at(&self, n: u64) -> bool {
        match self.every {
            None => n == self.after_ops,
            Some(k) => n >= self.after_ops && (n - self.after_ops).is_multiple_of(k.max(1)),
        }
    }
}

/// A named, seeded set of fault rules — the unit the chaos suite sweeps.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    pub name: String,
    pub seed: u64,
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan with no rules (useful as a control).
    pub fn quiescent() -> Self {
        FaultPlan {
            name: "quiescent".into(),
            seed: 0,
            rules: Vec::new(),
        }
    }

    /// The fault-plan seed the test suites sweep: `HALOX_CHAOS_SEED`, or 1.
    /// The only reader of that variable; panics on a value that is not a
    /// `u64`, since a mistyped seed must not quietly sweep seed 1.
    pub fn env_seed() -> u64 {
        Self::seed_lever(std::env::var("HALOX_CHAOS_SEED").ok().as_deref())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn seed_lever(raw: Option<&str>) -> Result<u64, String> {
        match raw.filter(|v| !v.is_empty()) {
            None => Ok(1),
            Some(v) => v.parse().map_err(|_| {
                format!("HALOX_CHAOS_SEED={v:?} is not accepted (expected an unsigned integer)")
            }),
        }
    }

    /// The built-in adversarial sweep: one plan per fault class, with the
    /// victim PE and trigger position derived deterministically from
    /// `seed`. `stall` sizes the bounded-stall plans; pass a value above
    /// the watchdog deadline to exercise stall *diagnosis* and below it to
    /// exercise transparent recovery.
    pub fn builtins(seed: u64, npes: usize, stall: Duration) -> Vec<FaultPlan> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let victim = (rng() as usize) % npes.max(1);
        // Early enough that every exchange phase still follows the fault,
        // late enough that the protocol is mid-flight when it fires.
        let trigger = 2 + rng() % 8;
        let once = |name: &str, op: FaultOp, kind: FaultKind| FaultPlan {
            name: name.into(),
            seed,
            rules: vec![FaultRule {
                pe: Some(victim),
                op,
                after_ops: trigger,
                every: None,
                kind,
            }],
        };
        vec![
            FaultPlan {
                name: "delay-storm".into(),
                seed,
                rules: vec![FaultRule {
                    pe: None,
                    op: FaultOp::Any,
                    after_ops: 0,
                    every: Some(2 + rng() % 3),
                    kind: FaultKind::Delay(Duration::from_micros(100 + rng() % 400)),
                }],
            },
            once("reorder-once", FaultOp::Any, FaultKind::ReorderNext),
            once("drop-signal-once", FaultOp::Any, FaultKind::DropSignalOnce),
            once(
                "transient-put-failure",
                FaultOp::Put,
                FaultKind::TransientPutFailure,
            ),
            once("pe-stall", FaultOp::Any, FaultKind::StallPe(stall)),
            once("pe-crash", FaultOp::Any, FaultKind::CrashPe),
            once("pe-kill", FaultOp::Any, FaultKind::KillPe),
        ]
    }
}

/// What kind of delivery is being intercepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Signal,
    Put,
}

/// A transport delivery as a PE submits it to its proxy, so it can be held
/// for reordering and replayed later. NVLink ops (when chaos is attached)
/// and network ops reduce to this one form, on either link.
#[derive(Clone)]
pub enum Delivery {
    /// A put (+ optional fused signal). The target is a symmetric segment
    /// *name* (`SymVec3::seg_addr`: base address + word count), resolved
    /// against the live mappings at the moment of the write, because a
    /// delivery held for reordering can outlive its target.
    Put {
        addr: usize,
        words: usize,
        dst_pe: usize,
        offset: usize,
        payload: Vec<Vec3>,
        signal: Option<(usize, u64)>,
    },
    Signal {
        dst_pe: usize,
        slot: usize,
        val: u64,
    },
}

crate::wire_codec!(enum Delivery {
    0 => Put { dst_pe, offset, addr, words, signal, payload },
    1 => Signal { dst_pe, slot, val },
});

impl Delivery {
    pub fn op_kind(&self) -> OpKind {
        match self {
            Delivery::Put { .. } => OpKind::Put,
            Delivery::Signal { .. } => OpKind::Signal,
        }
    }

    /// True when everything this delivery indexes exists in a world with
    /// these signal sets: the destination PE, the signal slot, and the
    /// payload's place in the segment it is stored to. Checked where a
    /// delivery enters the route — at the issuing PE, and again where a
    /// frame from another process is decoded — so [`Delivery::apply`] can
    /// index without looking. (Whether a segment *name* is live is a
    /// separate question, answered when the delivery is applied.)
    pub fn in_bounds(&self, signals: &[Arc<SignalSet>]) -> bool {
        let (dst_pe, signal) = match self {
            Delivery::Put {
                words,
                dst_pe,
                offset,
                payload,
                signal,
                ..
            } if (offset.checked_add(payload.len())).is_some_and(|end| end <= words / 3) => {
                (*dst_pe, *signal)
            }
            Delivery::Signal { dst_pe, slot, val } => (*dst_pe, Some((*slot, *val))),
            _ => return false,
        };
        signals
            .get(dst_pe)
            .is_some_and(|s| signal.is_none_or(|(slot, _)| slot < s.n_slots()))
    }

    /// Apply this delivery to the destination PE's memory and signal set.
    /// `drop_signal` swallows the signal component (lost-doorbell faults).
    /// False for a put whose target is not (or no longer) live: it lands
    /// nowhere, signal included.
    pub fn apply(self, signals: &[Arc<SignalSet>], drop_signal: bool) -> bool {
        let (dst_pe, signal) = match self {
            Delivery::Put {
                addr,
                words,
                dst_pe,
                offset,
                payload,
                signal,
            } => {
                let write = |seg: &[AtomicU32]| store_vec3s(&seg[offset * 3..], &payload);
                if shared::with_live_words(addr, words, write).is_none() {
                    return false;
                }
                (dst_pe, signal)
            }
            Delivery::Signal { dst_pe, slot, val } => (dst_pe, Some((slot, val))),
        };
        if let (Some((slot, val)), false) = (signal, drop_signal) {
            signals[dst_pe].release_max(slot, val);
        }
        true
    }
}

/// What the chaos engine decided to do with one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Deliver normally.
    Deliver,
    /// Swallow the delivery entirely.
    Drop,
    /// Deliver the data, swallow the signal.
    DropSignal,
    /// Sleep for the duration on the delivering thread, then deliver.
    Delay(Duration),
    /// Hold the delivery; release it after the source PE's next delivery.
    Hold,
    /// Swallow the delivery and kill the source PE: the proxy severs its
    /// link (see [`FaultKind::KillPe`]).
    Kill,
}

/// Counters of injected faults, for chaos-run reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosReport {
    pub delays: u64,
    pub dropped_signals: u64,
    pub dropped_puts: u64,
    pub reorders: u64,
    pub stalls: u64,
    /// Deliveries dropped because the source PE is crashed (includes the
    /// triggering op).
    pub crash_drops: u64,
    /// PE kills delivered (`FaultKind::KillPe` triggers).
    pub kills: u64,
    /// Held (reordered) deliveries discarded at a world boundary because no
    /// later op flushed them.
    pub abandoned_holds: u64,
}

impl ChaosReport {
    pub fn total(&self) -> u64 {
        self.delays
            + self.dropped_signals
            + self.dropped_puts
            + self.reorders
            + self.stalls
            + self.crash_drops
            + self.kills
    }
}

#[derive(Default)]
struct Stats {
    delays: AtomicU64,
    dropped_signals: AtomicU64,
    dropped_puts: AtomicU64,
    reorders: AtomicU64,
    stalls: AtomicU64,
    crash_drops: AtomicU64,
    kills: AtomicU64,
    abandoned_holds: AtomicU64,
}

/// Runtime state of one [`FaultPlan`] over the PEs of a world. Create once
/// per run (or per engine) and attach via `ShmemWorld::set_chaos`; op
/// counters persist across worlds so trigger positions are stable over a
/// whole multi-segment run.
pub struct ChaosEngine {
    plan: FaultPlan,
    npes: usize,
    /// Matching-op counters, `[rule][source PE]`.
    counts: Vec<Vec<AtomicU64>>,
    crashed: Vec<AtomicBool>,
    held: Vec<Mutex<Option<Delivery>>>,
    stats: Stats,
}

impl std::fmt::Debug for ChaosEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosEngine")
            .field("plan", &self.plan.name)
            .field("npes", &self.npes)
            .field("report", &self.report())
            .finish()
    }
}

impl ChaosEngine {
    pub fn new(plan: FaultPlan, npes: usize) -> Self {
        let counts = plan
            .rules
            .iter()
            .map(|_| (0..npes).map(|_| AtomicU64::new(0)).collect())
            .collect();
        ChaosEngine {
            npes,
            counts,
            crashed: (0..npes).map(|_| AtomicBool::new(false)).collect(),
            held: (0..npes).map(|_| Mutex::new(None)).collect(),
            stats: Stats::default(),
            plan,
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn npes(&self) -> usize {
        self.npes
    }

    /// True once `pe` has been killed by a [`FaultKind::CrashPe`] or
    /// [`FaultKind::KillPe`] rule.
    pub fn is_crashed(&self, pe: usize) -> bool {
        self.crashed[pe].load(Ordering::Acquire)
    }

    /// Supervised-recovery hook: clear every crash/kill flag, modeling
    /// replacement PEs joining after the runner rewound to a checkpoint and
    /// rebuilt the world (fresh forks under the procs backend). Op counters
    /// and one-shot triggers are deliberately NOT reset — a fired rule stays
    /// consumed, so a kill schedule advances monotonically across recoveries
    /// instead of re-killing the fresh world at the same op. Returns how
    /// many PEs were revived.
    pub fn revive_all(&self) -> usize {
        let mut revived = 0;
        for flag in &self.crashed {
            if flag.swap(false, Ordering::AcqRel) {
                revived += 1;
            }
        }
        revived
    }

    /// Decide the fate of one delivery from `src_pe`. Counts every matching
    /// rule's op counter; the first rule whose trigger fires wins.
    pub fn decide(&self, src_pe: usize, op: OpKind) -> Decision {
        if self.is_crashed(src_pe) {
            self.stats.crash_drops.fetch_add(1, Ordering::Relaxed);
            return Decision::Drop;
        }
        let mut decision = Decision::Deliver;
        for (ri, rule) in self.plan.rules.iter().enumerate() {
            if !rule.matches(src_pe, op) {
                continue;
            }
            let n = self.counts[ri][src_pe].fetch_add(1, Ordering::AcqRel);
            if decision != Decision::Deliver || !rule.fires_at(n) {
                continue;
            }
            decision = match rule.kind {
                FaultKind::Delay(d) => {
                    self.stats.delays.fetch_add(1, Ordering::Relaxed);
                    Decision::Delay(d)
                }
                FaultKind::DropSignalOnce => {
                    self.stats.dropped_signals.fetch_add(1, Ordering::Relaxed);
                    Decision::DropSignal
                }
                FaultKind::TransientPutFailure => {
                    self.stats.dropped_puts.fetch_add(1, Ordering::Relaxed);
                    Decision::Drop
                }
                FaultKind::StallPe(d) => {
                    self.stats.stalls.fetch_add(1, Ordering::Relaxed);
                    Decision::Delay(d)
                }
                FaultKind::CrashPe => {
                    self.crashed[src_pe].store(true, Ordering::Release);
                    self.stats.crash_drops.fetch_add(1, Ordering::Relaxed);
                    Decision::Drop
                }
                FaultKind::KillPe => {
                    self.crashed[src_pe].store(true, Ordering::Release);
                    self.stats.kills.fetch_add(1, Ordering::Relaxed);
                    Decision::Kill
                }
                FaultKind::ReorderNext => {
                    self.stats.reorders.fetch_add(1, Ordering::Relaxed);
                    Decision::Hold
                }
            };
        }
        decision
    }

    /// Lock one PE's held-delivery cell, recovering from poisoning. A PE
    /// that panics while parking a delivery poisons its mutex; the guarded
    /// state is a plain `Option<Delivery>` (always coherent — `replace`
    /// and `take` can't leave it half-written), so surviving PEs take the
    /// value through the `PoisonError` instead of turning one diagnosed
    /// fault into a panic cascade across the world.
    fn held_lock(&self, src_pe: usize) -> std::sync::MutexGuard<'_, Option<Delivery>> {
        self.held[src_pe]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Park a delivery for reordering. If a delivery is already held the
    /// previous one is returned so the caller delivers it (holds never
    /// accumulate unboundedly).
    pub fn hold(&self, src_pe: usize, d: Delivery) -> Option<Delivery> {
        self.held_lock(src_pe).replace(d)
    }

    /// Take the delivery held for `src_pe`, if any (flushed after the PE's
    /// next successful delivery).
    pub fn take_held(&self, src_pe: usize) -> Option<Delivery> {
        self.held_lock(src_pe).take()
    }

    /// World boundary: discard parked deliveries. A held op must never leak
    /// into a *new* world — its (monotone) signal value from the previous
    /// attempt would pre-satisfy fresh slots and break the protocol.
    pub fn begin_world(&self) {
        for pe in 0..self.npes {
            if self.held_lock(pe).take().is_some() {
                self.stats.abandoned_holds.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot of the fault counters.
    pub fn report(&self) -> ChaosReport {
        ChaosReport {
            delays: self.stats.delays.load(Ordering::Relaxed),
            dropped_signals: self.stats.dropped_signals.load(Ordering::Relaxed),
            dropped_puts: self.stats.dropped_puts.load(Ordering::Relaxed),
            reorders: self.stats.reorders.load(Ordering::Relaxed),
            stalls: self.stats.stalls.load(Ordering::Relaxed),
            crash_drops: self.stats.crash_drops.load(Ordering::Relaxed),
            kills: self.stats.kills.load(Ordering::Relaxed),
            abandoned_holds: self.stats.abandoned_holds.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn once_rule(pe: usize, after: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            name: "t".into(),
            seed: 0,
            rules: vec![FaultRule {
                pe: Some(pe),
                op: FaultOp::Any,
                after_ops: after,
                every: None,
                kind,
            }],
        }
    }

    #[test]
    fn seed_lever_rejects_a_non_integer() {
        assert_eq!(FaultPlan::seed_lever(None), Ok(1));
        assert_eq!(FaultPlan::seed_lever(Some("")), Ok(1));
        assert_eq!(FaultPlan::seed_lever(Some("3")), Ok(3));
        let err = FaultPlan::seed_lever(Some("abc")).unwrap_err();
        assert!(
            err.contains("HALOX_CHAOS_SEED") && err.contains("\"abc\""),
            "{err}"
        );
    }

    #[test]
    fn once_rules_fire_exactly_once_at_trigger() {
        let e = ChaosEngine::new(once_rule(1, 2, FaultKind::DropSignalOnce), 4);
        // PE 0 never matches.
        for _ in 0..5 {
            assert_eq!(e.decide(0, OpKind::Signal), Decision::Deliver);
        }
        assert_eq!(e.decide(1, OpKind::Signal), Decision::Deliver); // n=0
        assert_eq!(e.decide(1, OpKind::Put), Decision::Deliver); // n=1
        assert_eq!(e.decide(1, OpKind::Signal), Decision::DropSignal); // n=2
        assert_eq!(e.decide(1, OpKind::Signal), Decision::Deliver); // n=3
        assert_eq!(e.report().dropped_signals, 1);
    }

    #[test]
    fn crash_is_permanent_and_counts_drops() {
        let e = ChaosEngine::new(once_rule(2, 0, FaultKind::CrashPe), 4);
        assert_eq!(e.decide(2, OpKind::Put), Decision::Drop);
        assert!(e.is_crashed(2));
        for _ in 0..3 {
            assert_eq!(e.decide(2, OpKind::Signal), Decision::Drop);
        }
        assert!(!e.is_crashed(1));
        assert_eq!(e.decide(1, OpKind::Signal), Decision::Deliver);
        assert_eq!(e.report().crash_drops, 4);
    }

    #[test]
    fn kill_fires_once_then_drops_until_revived() {
        let e = ChaosEngine::new(once_rule(2, 1, FaultKind::KillPe), 4);
        assert_eq!(e.decide(2, OpKind::Put), Decision::Deliver); // n=0
        assert_eq!(e.decide(2, OpKind::Put), Decision::Kill); // n=1: trigger
        assert!(e.is_crashed(2));
        // Dead until revived: everything from the victim is swallowed.
        assert_eq!(e.decide(2, OpKind::Signal), Decision::Drop);
        assert_eq!(e.decide(1, OpKind::Signal), Decision::Deliver);
        // Supervised recovery replaces the PE; the one-shot trigger stays
        // consumed, so the replacement is NOT re-killed at the same op.
        assert_eq!(e.revive_all(), 1);
        assert!(!e.is_crashed(2));
        assert_eq!(e.decide(2, OpKind::Put), Decision::Deliver);
        let r = e.report();
        assert_eq!(r.kills, 1);
        assert_eq!(r.crash_drops, 1);
        assert!(r.total() >= 2);
        // Idempotent when nobody is dead.
        assert_eq!(e.revive_all(), 0);
    }

    #[test]
    fn periodic_delay_fires_on_schedule() {
        let plan = FaultPlan {
            name: "periodic".into(),
            seed: 0,
            rules: vec![FaultRule {
                pe: None,
                op: FaultOp::Any,
                after_ops: 1,
                every: Some(2),
                kind: FaultKind::Delay(Duration::from_micros(5)),
            }],
        };
        let e = ChaosEngine::new(plan, 2);
        let fired: Vec<bool> = (0..6)
            .map(|_| e.decide(0, OpKind::Put) != Decision::Deliver)
            .collect();
        assert_eq!(fired, vec![false, true, false, true, false, true]);
        assert_eq!(e.report().delays, 3);
    }

    #[test]
    fn put_filter_ignores_bare_signals() {
        let plan = FaultPlan {
            name: "putonly".into(),
            seed: 0,
            rules: vec![FaultRule {
                pe: Some(0),
                op: FaultOp::Put,
                after_ops: 0,
                every: None,
                kind: FaultKind::TransientPutFailure,
            }],
        };
        let e = ChaosEngine::new(plan, 2);
        assert_eq!(e.decide(0, OpKind::Signal), Decision::Deliver);
        assert_eq!(e.decide(0, OpKind::Put), Decision::Drop);
        assert_eq!(e.decide(0, OpKind::Put), Decision::Deliver);
    }

    #[test]
    fn hold_replace_and_world_boundary_discard() {
        let e = ChaosEngine::new(once_rule(0, 0, FaultKind::ReorderNext), 2);
        assert!(e
            .hold(
                0,
                Delivery::Signal {
                    dst_pe: 1,
                    slot: 0,
                    val: 1
                }
            )
            .is_none());
        // Second hold returns the first for immediate delivery.
        let prev = e.hold(
            0,
            Delivery::Signal {
                dst_pe: 1,
                slot: 0,
                val: 2,
            },
        );
        assert!(matches!(prev, Some(Delivery::Signal { val: 1, .. })));
        e.begin_world();
        assert!(e.take_held(0).is_none());
        assert_eq!(e.report().abandoned_holds, 1);
    }

    #[test]
    fn builtins_are_deterministic_per_seed() {
        let a = FaultPlan::builtins(7, 8, Duration::from_millis(10));
        let b = FaultPlan::builtins(7, 8, Duration::from_millis(10));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.rules.len(), y.rules.len());
            for (rx, ry) in x.rules.iter().zip(&y.rules) {
                assert_eq!(rx.pe, ry.pe);
                assert_eq!(rx.after_ops, ry.after_ops);
                assert_eq!(rx.kind, ry.kind);
            }
        }
        let c = FaultPlan::builtins(8, 8, Duration::from_millis(10));
        // A different seed must move at least one trigger or victim.
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.rules[0].after_ops != y.rules[0].after_ops
                || x.rules[0].pe != y.rules[0].pe));
    }

    #[test]
    fn poisoned_hold_lock_recovers_instead_of_cascading() {
        // A PE panicking while it holds the chaos hold lock poisons the
        // mutex. Every later hold/take/begin_world on that cell used to
        // `unwrap()` the poison and re-panic — one diagnosed fault became
        // a panic cascade across all surviving PEs. The held state is a
        // plain Option, so recovery through the PoisonError is safe.
        let e = ChaosEngine::new(FaultPlan::quiescent(), 2);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = e.held[0].lock().unwrap();
            panic!("PE dies while parking a delivery");
        }));
        assert!(poison.is_err());
        assert!(e.held[0].is_poisoned());
        // Survivors keep draining cleanly through the poisoned cell.
        assert!(e
            .hold(
                0,
                Delivery::Signal {
                    dst_pe: 1,
                    slot: 0,
                    val: 3,
                },
            )
            .is_none());
        assert!(matches!(
            e.take_held(0),
            Some(Delivery::Signal { val: 3, .. })
        ));
        e.begin_world(); // must not panic either
        assert!(e.take_held(0).is_none());
    }
}

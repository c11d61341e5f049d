//! Lock-free per-PE event recorder.
//!
//! The recorder is a fixed-capacity slot array claimed with a single
//! `fetch_add` per event, so PE threads, proxy threads and the driver can
//! all record concurrently without ever blocking each other or taking a
//! lock on the hot path. Once full it counts drops instead of blocking —
//! observability must never perturb the protocol it observes.
//!
//! # Sequence-order soundness
//!
//! The checker ([`crate::check`]) replays events in slot (`seq`) order and
//! treats that order as consistent with the runtime's happens-before
//! relation. That holds because slot indices come from a single atomic
//! counter, whose modification order respects happens-before, *provided
//! call sites follow the recording discipline*:
//!
//! - record [`Payload::SignalSet`] *before* performing the release store
//!   (or before enqueueing the command on the proxy channel);
//! - record [`Payload::SignalWaitDone`] *after* the acquire wait returns;
//! - record [`Payload::BarrierArrive`] before entering the barrier and
//!   [`Payload::BarrierDepart`] after it returns;
//! - record [`Payload::RegionWrite`] / [`Payload::RegionRead`] adjacent to
//!   the access with no synchronisation edge in between (write events
//!   before the stores, read events after the data wait).
//!
//! With that discipline, if event A happens-before event B then
//! `A.seq < B.seq`, so the replay never reorders a release after the
//! acquire that observed it.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Pseudo-PE id used for events recorded by the driver thread (world
/// setup, segment boundaries) rather than a PE or proxy thread.
pub const DRIVER_PE: u32 = u32::MAX;

/// Symmetric-heap region touched by a [`Payload::RegionWrite`] /
/// [`Payload::RegionRead`] event. Identifies which buffer of the owning
/// PE the access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Coordinate buffer (`FusedBuffers::coords`).
    Coords,
    /// Force accumulation buffer (`FusedBuffers::forces`).
    Forces,
    /// IB staging area for remote force payloads (`FusedBuffers::force_stage`).
    ForceStage,
}

impl Region {
    pub fn name(self) -> &'static str {
        match self {
            Region::Coords => "coords",
            Region::Forces => "forces",
            Region::ForceStage => "force_stage",
        }
    }
}

/// What happened. All variants are `Copy` so recording never allocates.
#[derive(Debug, Clone, Copy)]
pub enum Payload {
    /// A named duration (pack, wait, unpack, compute, ...) on one PE.
    /// `pulse` is the pulse index the span belongs to, or -1 for
    /// whole-step spans.
    Span { name: &'static str, pulse: i32 },
    /// The recording PE released a signal towards `dst_pe`. Recorded at
    /// the *initiation* point (before the store, or before handing the
    /// command to the proxy), so it is sequenced before the matching
    /// [`Payload::SignalWaitDone`].
    SignalSet {
        dst_pe: u32,
        slot: u32,
        value: u64,
        via_proxy: bool,
    },
    /// The recording PE's acquire wait on its own `slot` returned.
    /// `required` is the threshold waited for, `observed` the slot value
    /// actually seen (>= required).
    SignalWaitDone {
        slot: u32,
        required: u64,
        observed: u64,
    },
    /// A watchdog (deadline-bounded) acquire wait on the recording PE's
    /// own `slot` *expired*: the slot never reached `required`; `observed`
    /// is the stale value seen at the deadline (< required). Feeds stall
    /// diagnosis — the checker does not treat it as a synchronisation
    /// edge, because no release was observed.
    SignalWaitTimeout {
        slot: u32,
        required: u64,
        observed: u64,
    },
    /// Proxy queue depth sampled by the proxy thread when it dequeued a
    /// command (commands still waiting behind it).
    ProxyDepth { depth: u32 },
    /// The proxy serviced one command; `queued_us` is the time the
    /// command spent in the queue plus injected network delay.
    ProxyService { kind: &'static str, queued_us: u64 },
    /// The recording PE wrote `owner`'s `region` words `[lo, hi)`.
    RegionWrite {
        owner: u32,
        region: Region,
        lo: u32,
        hi: u32,
    },
    /// The recording PE read `owner`'s `region` words `[lo, hi)`.
    RegionRead {
        owner: u32,
        region: Region,
        lo: u32,
        hi: u32,
    },
    /// The recording PE is about to enter a global barrier / collective.
    BarrierArrive,
    /// The recording PE returned from a global barrier / collective.
    BarrierDepart,
    /// A new `ShmemWorld` run began (fresh signal sets, fresh threads).
    /// Recorded by the driver before PE threads spawn; the checker treats
    /// it as a global synchronisation point and resets per-slot state.
    WorldStart { pes: u32 },
}

/// One recorded event. `seq` is the global slot index (total order
/// consistent with happens-before, see module docs); timestamps are
/// microseconds since the recorder was created.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub seq: u64,
    pub pe: u32,
    pub ts_us: u64,
    pub dur_us: u64,
    pub payload: Payload,
}

/// Immutable snapshot of everything recorded so far.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Events in `seq` order.
    pub events: Vec<Event>,
    /// Number of events that did not fit in the recorder's capacity.
    pub dropped: usize,
}

struct Slot {
    ready: AtomicBool,
    cell: UnsafeCell<MaybeUninit<(u32, u64, u64, Payload)>>,
}

// Safety: the cell is written exactly once, by the thread that won the
// slot index from the cursor, and only read after `ready` is observed
// true with Acquire ordering (which synchronises with the Release store
// made after the write).
unsafe impl Sync for Slot {}

/// Counters preceding the slot array in caller-provided shared storage.
/// `repr(C)` so the layout is identical in every process mapping it.
#[repr(C)]
struct SharedHdr {
    cursor: AtomicUsize,
    dropped: AtomicUsize,
}

/// Where the cursor, drop counter and slot array live: owned process
/// memory (the default) or a caller-provided mapping — e.g. a
/// `MAP_SHARED` region, so processes forked after construction append to
/// one log through the same `fetch_add` cursor as threads would.
enum Storage {
    Owned {
        cursor: AtomicUsize,
        dropped: AtomicUsize,
        slots: Box<[Slot]>,
    },
    Shared(SharedPtrs),
}

/// Raw, not `&'static`: the storage is only promised to outlive the
/// recorder ([`Recorder::from_shared_zeroed`]'s contract).
struct SharedPtrs {
    hdr: *const SharedHdr,
    slots: *const [Slot],
}

// SAFETY: the pointers name storage the constructor's caller keeps alive
// for the recorder's lifetime; what they point at — atomics and `Slot`s —
// is `Sync`, like the owned variant's fields.
unsafe impl Send for SharedPtrs {}
unsafe impl Sync for SharedPtrs {}

/// Lock-free fixed-capacity event recorder. See module docs.
pub struct Recorder {
    origin: Instant,
    storage: Storage,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.slots().len())
            .field("recorded", &self.cursor().load(Ordering::Relaxed))
            .field("dropped", &self.dropped_ctr().load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Default capacity: 256Ki events (~12 MiB). A fused-exchange step on
    /// 8 PEs records a few hundred events, so this covers thousands of
    /// steps before dropping.
    pub fn new() -> Self {
        Self::with_capacity(1 << 18)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (0..capacity)
            .map(|_| Slot {
                ready: AtomicBool::new(false),
                cell: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Recorder {
            origin: Instant::now(),
            storage: Storage::Owned {
                cursor: AtomicUsize::new(0),
                dropped: AtomicUsize::new(0),
                slots,
            },
        }
    }

    /// Bytes of caller-provided storage [`Recorder::from_shared_zeroed`]
    /// needs for `capacity` events: a [`SharedHdr`] rounded up to the slot
    /// alignment, then the slot array. The base pointer must be aligned to
    /// at least `align_of::<usize>()` / `align_of::<Slot>()` (16 is always
    /// enough).
    pub fn shared_layout_bytes(capacity: usize) -> usize {
        Self::shared_slots_offset() + capacity * std::mem::size_of::<Slot>()
    }

    fn shared_slots_offset() -> usize {
        let a = std::mem::align_of::<Slot>();
        std::mem::size_of::<SharedHdr>().div_ceil(a) * a
    }

    /// Build a recorder whose cursor, drop counter and slot array live in
    /// caller-provided zeroed memory — e.g. a `MAP_SHARED` mapping, so
    /// that processes forked *after* this call all append to one log via
    /// the shared `fetch_add` cursor, preserving the happens-before ⇒
    /// seq-order guarantee (module docs) across address spaces. All-zero
    /// bytes are a valid empty state (`cursor == 0`, every `ready` false),
    /// so no initialisation store is needed.
    ///
    /// `Payload` carries `&'static str` pointers; they remain valid in
    /// every process only because `fork()` preserves the address-space
    /// layout. Do not read a shared recorder from an unrelated process.
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for reads and writes of
    /// [`Recorder::shared_layout_bytes`]`(capacity)` bytes, zero-filled,
    /// aligned to `align_of::<SharedHdr>()` and `align_of::<Slot>()`, and
    /// must stay mapped (and not be reused) until the returned recorder —
    /// and every fork-inherited copy of it — has been dropped: whoever owns
    /// the mapping owns the recorder and drops it first.
    pub unsafe fn from_shared_zeroed(capacity: usize, ptr: *mut u8) -> Self {
        debug_assert!(!ptr.is_null());
        debug_assert_eq!(ptr as usize % std::mem::align_of::<SharedHdr>(), 0);
        debug_assert_eq!(ptr as usize % std::mem::align_of::<Slot>(), 0);
        let hdr = ptr as *const SharedHdr;
        // SAFETY: the caller vouches for `shared_layout_bytes(capacity)`
        // bytes at `ptr`, so the slot array starts inside them.
        let first = unsafe { ptr.add(Self::shared_slots_offset()) } as *const Slot;
        let slots = std::ptr::slice_from_raw_parts(first, capacity);
        Recorder {
            origin: Instant::now(),
            storage: Storage::Shared(SharedPtrs { hdr, slots }),
        }
    }

    // SAFETY (the three accessors below): `from_shared_zeroed`'s caller
    // keeps the shared storage valid, zero-initialised and aligned for as
    // long as `self` exists, and the borrows handed out end with `&self`.
    fn cursor(&self) -> &AtomicUsize {
        match &self.storage {
            Storage::Owned { cursor, .. } => cursor,
            Storage::Shared(p) => unsafe { &(*p.hdr).cursor },
        }
    }

    fn dropped_ctr(&self) -> &AtomicUsize {
        match &self.storage {
            Storage::Owned { dropped, .. } => dropped,
            Storage::Shared(p) => unsafe { &(*p.hdr).dropped },
        }
    }

    fn slots(&self) -> &[Slot] {
        match &self.storage {
            Storage::Owned { slots, .. } => slots,
            Storage::Shared(p) => unsafe { &*p.slots },
        }
    }

    /// Add `n` to the drop counter. Used when events are forwarded from
    /// another recorder that itself overflowed, so the loss stays visible
    /// to `drain()` callers.
    pub fn note_dropped(&self, n: usize) {
        if n > 0 {
            self.dropped_ctr().fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Microseconds since the recorder was created.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Record an instantaneous event stamped with the current time.
    pub fn record(&self, pe: u32, payload: Payload) {
        self.record_timed(pe, self.now_us(), 0, payload);
    }

    /// Record an event with an explicit timestamp and duration (used by
    /// span guards, which know when the span started).
    pub fn record_timed(&self, pe: u32, ts_us: u64, dur_us: u64, payload: Payload) {
        let idx = self.cursor().fetch_add(1, Ordering::AcqRel);
        if idx >= self.slots().len() {
            self.dropped_ctr().fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = &self.slots()[idx];
        // Safety: this thread owns index `idx` exclusively (unique
        // fetch_add result) and readers gate on `ready`.
        unsafe {
            (*slot.cell.get()).write((pe, ts_us, dur_us, payload));
        }
        slot.ready.store(true, Ordering::Release);
    }

    /// Open a duration span; the event is recorded when the guard drops.
    pub fn span(&self, pe: u32, name: &'static str, pulse: i32) -> SpanGuard<'_> {
        SpanGuard {
            rec: self,
            pe,
            name,
            pulse,
            start: Instant::now(),
            start_us: self.now_us(),
        }
    }

    /// Number of events recorded (capped at capacity).
    pub fn len(&self) -> usize {
        self.cursor()
            .load(Ordering::Acquire)
            .min(self.slots().len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot all recorded events in sequence order.
    ///
    /// Call after the recorded activity has quiesced (e.g. after
    /// `ShmemWorld::run` has joined its threads). If a slot was claimed
    /// but its payload store has not been published yet, this spins
    /// briefly and, failing that, skips the slot.
    pub fn drain(&self) -> Trace {
        let count = self.len();
        let mut events = Vec::with_capacity(count);
        for (idx, slot) in self.slots().iter().take(count).enumerate() {
            let mut spins = 0u32;
            while !slot.ready.load(Ordering::Acquire) {
                spins += 1;
                if spins > 1_000 {
                    break;
                }
                std::hint::spin_loop();
            }
            if !slot.ready.load(Ordering::Acquire) {
                continue; // claimed but never published; drop it
            }
            // Safety: ready==true (Acquire) synchronises with the
            // publishing Release store, and slots are written once.
            let (pe, ts_us, dur_us, payload) = unsafe { (*slot.cell.get()).assume_init() };
            events.push(Event {
                seq: idx as u64,
                pe,
                ts_us,
                dur_us,
                payload,
            });
        }
        Trace {
            events,
            dropped: self.dropped_ctr().load(Ordering::Relaxed),
        }
    }

    /// The last `n` published events in sequence order, without draining.
    ///
    /// Safe to call while other threads are still recording — a claimed
    /// but not-yet-published slot is skipped rather than waited on, so
    /// this never blocks. Used by stall diagnosis to attach the recent
    /// event history to a `StallReport` while the world is still live.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        let count = self.len();
        let start = count.saturating_sub(n);
        let mut events = Vec::with_capacity(count - start);
        for idx in start..count {
            let slot = &self.slots()[idx];
            if !slot.ready.load(Ordering::Acquire) {
                continue; // in-flight write; skip, don't block
            }
            // Safety: ready==true (Acquire) synchronises with the
            // publishing Release store, and slots are written once.
            let (pe, ts_us, dur_us, payload) = unsafe { (*slot.cell.get()).assume_init() };
            events.push(Event {
                seq: idx as u64,
                pe,
                ts_us,
                dur_us,
                payload,
            });
        }
        events
    }
}

/// RAII guard that records a [`Payload::Span`] covering its lifetime.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    pe: u32,
    name: &'static str,
    pulse: i32,
    start: Instant,
    start_us: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur_us = self.start.elapsed().as_micros() as u64;
        self.rec.record_timed(
            self.pe,
            self.start_us,
            dur_us,
            Payload::Span {
                name: self.name,
                pulse: self.pulse,
            },
        );
    }
}

/// Open a span on an optional recorder — the idiom for instrumented code
/// paths where tracing is off by default:
///
/// ```ignore
/// let _s = span_opt(pe.trace(), pe.id() as u32, "pack", p as i32);
/// ```
pub fn span_opt<'a>(
    rec: Option<&'a Recorder>,
    pe: u32,
    name: &'static str,
    pulse: i32,
) -> Option<SpanGuard<'a>> {
    rec.map(|r| r.span(pe, name, pulse))
}

/// Record an instantaneous event on an optional recorder.
pub fn record_opt(rec: Option<&Recorder>, pe: u32, payload: Payload) {
    if let Some(r) = rec {
        r.record(pe, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_in_claim_order_across_threads() {
        let rec = Arc::new(Recorder::with_capacity(4096));
        let mut handles = Vec::new();
        for pe in 0..4u32 {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..256u64 {
                    rec.record(
                        pe,
                        Payload::SignalSet {
                            dst_pe: pe ^ 1,
                            slot: pe,
                            value: i,
                            via_proxy: false,
                        },
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let trace = rec.drain();
        assert_eq!(trace.events.len(), 1024);
        assert_eq!(trace.dropped, 0);
        // seq is dense and ascending, and per-PE values appear in program
        // order (the cursor's modification order respects each thread's
        // program order).
        let mut last_val = [None::<u64>; 4];
        for (i, ev) in trace.events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            if let Payload::SignalSet { value, .. } = ev.payload {
                if let Some(prev) = last_val[ev.pe as usize] {
                    assert!(
                        value > prev,
                        "pe {} reordered: {} after {}",
                        ev.pe,
                        value,
                        prev
                    );
                }
                last_val[ev.pe as usize] = Some(value);
            }
        }
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let rec = Recorder::with_capacity(8);
        for i in 0..20u64 {
            rec.record(
                0,
                Payload::SignalSet {
                    dst_pe: 0,
                    slot: 0,
                    value: i,
                    via_proxy: false,
                },
            );
        }
        let trace = rec.drain();
        assert_eq!(trace.events.len(), 8);
        assert_eq!(trace.dropped, 12);
    }

    #[test]
    fn span_guard_records_duration() {
        let rec = Recorder::new();
        {
            let _g = rec.span(3, "pack", 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let trace = rec.drain();
        assert_eq!(trace.events.len(), 1);
        let ev = trace.events[0];
        assert_eq!(ev.pe, 3);
        assert!(
            ev.dur_us >= 1_000,
            "span duration {}us too short",
            ev.dur_us
        );
        match ev.payload {
            Payload::Span { name, pulse } => {
                assert_eq!(name, "pack");
                assert_eq!(pulse, 1);
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }
}

//! Lock-free per-PE event recorder.
//!
//! The recorder is a fixed-capacity slot array claimed with a single
//! `fetch_add` per event, so PEs, proxy threads and the driver can all
//! record concurrently without ever blocking each other or taking a lock on
//! the hot path. Once full it counts drops instead of blocking —
//! observability must never perturb the protocol it observes.
//!
//! There is one storage: a fork-shared anonymous mapping the recorder owns.
//! A PE that is a thread and a PE that is a process forked after the
//! recorder was made claim slots from the same cursor, so there is one log
//! and nothing to merge.
//!
//! # Sequence-order soundness
//!
//! The checker ([`crate::check()`]) replays events in slot (`seq`) order and
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
//! acquire that observed it. The argument does not care whether A and B
//! were recorded in one address space: the cursor is one atomic word in
//! shared memory, and a happens-before chain that crosses processes
//! (sender claims a slot → socket frame → proxy applies → waiter observes →
//! waiter claims a slot) orders the two `fetch_add`s just as a chain
//! through a channel does.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr::NonNull;
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
    /// The proxy serviced one command; `queued_us` runs from the issuing
    /// PE's submit to the landing: time in the link (a forked PE's socket
    /// included), injected network delay and the apply.
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

/// Head of a recorder's mapping; the slot array follows at
/// [`SLOTS_OFFSET`]. `repr(C)` so every process sharing the mapping agrees
/// on the layout.
#[repr(C)]
struct Hdr {
    cursor: AtomicUsize,
    dropped: AtomicUsize,
}

/// Byte offset of the slot array: the header rounded up to slot alignment.
const SLOTS_OFFSET: usize =
    std::mem::size_of::<Hdr>().next_multiple_of(std::mem::align_of::<Slot>());

mod ffi {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ_WRITE: c_int = 1 | 2;
    pub const MAP_SHARED_ANONYMOUS: c_int = 1 | 0x20;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// Lock-free fixed-capacity event recorder. See module docs.
///
/// The header and slot array live in one `mmap(MAP_SHARED | MAP_ANONYMOUS)`
/// region the recorder owns and unmaps on drop, so processes forked while it
/// exists append to the same log through the same `fetch_add` cursor as
/// threads do. `Payload` carries `&'static str` pointers; they stay valid
/// in every such process because `fork()` preserves the address-space
/// layout. `origin` is copied by the fork and reads the one monotonic
/// clock, so timestamps agree across them too.
pub struct Recorder {
    origin: Instant,
    map: NonNull<Hdr>,
    capacity: usize,
}

// SAFETY: the mapping is owned (unmapped only by `Drop`), and everything in
// it — the header's atomics and the `Slot`s — is `Sync`.
unsafe impl Send for Recorder {}
unsafe impl Sync for Recorder {}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.capacity)
            .field("recorded", &self.hdr().cursor.load(Ordering::Relaxed))
            .field("dropped", &self.hdr().dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        // SAFETY: exactly the range `with_capacity` mapped; `&mut self`
        // proves no borrow of it is left. (In a forked child this unmaps
        // the child's view only.)
        unsafe { ffi::munmap(self.map.as_ptr().cast(), Self::map_bytes(self.capacity)) };
    }
}

impl Recorder {
    /// Default capacity: 256Ki events (~12 MiB of address space, touched
    /// only as events land). A fused-exchange step on 8 PEs records a few
    /// hundred events, so this covers thousands of steps before dropping.
    pub fn new() -> Self {
        Self::with_capacity(1 << 18)
    }

    /// Panics if the kernel refuses the mapping (address space exhausted).
    pub fn with_capacity(capacity: usize) -> Self {
        let bytes = Self::map_bytes(capacity);
        // SAFETY: a fresh anonymous mapping at a kernel-chosen address
        // aliases nothing this process owns.
        let p = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                bytes,
                ffi::PROT_READ_WRITE,
                ffi::MAP_SHARED_ANONYMOUS,
                -1,
                0,
            )
        };
        let map = NonNull::new(p.cast::<Hdr>())
            .filter(|_| p as isize != -1)
            .unwrap_or_else(|| panic!("Recorder: mmap of {bytes} bytes failed"));
        Recorder {
            origin: Instant::now(),
            map,
            capacity,
        }
    }

    fn map_bytes(capacity: usize) -> usize {
        SLOTS_OFFSET + capacity * std::mem::size_of::<Slot>()
    }

    fn hdr(&self) -> &Hdr {
        // SAFETY: the mapping is page-aligned, at least `SLOTS_OFFSET` bytes
        // and lives until `Drop`; all-zero bytes are a valid `Hdr`.
        unsafe { self.map.as_ref() }
    }

    fn slots(&self) -> &[Slot] {
        // SAFETY: `capacity` slots follow the header inside the mapping, at
        // an offset aligned for `Slot`; all-zero bytes are a valid empty
        // `Slot` (`ready == false`, cell uninitialised), which is how the
        // kernel hands the pages over.
        unsafe {
            let first = self
                .map
                .as_ptr()
                .cast::<u8>()
                .add(SLOTS_OFFSET)
                .cast::<Slot>();
            std::slice::from_raw_parts(first, self.capacity)
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
        let idx = self.hdr().cursor.fetch_add(1, Ordering::AcqRel);
        if idx >= self.capacity {
            self.hdr().dropped.fetch_add(1, Ordering::Relaxed);
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
        self.hdr().cursor.load(Ordering::Acquire).min(self.capacity)
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
            dropped: self.hdr().dropped.load(Ordering::Relaxed),
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

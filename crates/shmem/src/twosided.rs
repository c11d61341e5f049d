//! A minimal two-sided message-passing fabric: the stand-in for GPU-aware
//! MPI in the baseline halo exchange.
//!
//! Semantics follow MPI point-to-point ordering: messages between one
//! (sender, receiver) pair are non-overtaking; `recv` matches the next
//! message from the given source and asserts the expected tag, which is how
//! the serialized-pulse baseline consumes them.
//!
//! The transport is one SPSC word-ring per ordered (src, dst) pair, all in
//! one symmetric mapping ([`crate::shared::Slots`]), so the same comm serves
//! PE threads and forked PE processes. Each rank is driven by one thread or
//! process at a time (single producer, single consumer per ring). A message
//! longer than one chunk travels in pieces, and a ring holds two chunks, so
//! a plain `send` may wait for its receiver like a rendezvous `MPI_Send`;
//! `sendrecv` moves both directions chunk by chunk in one loop, so partners
//! (or a whole periodic ring of ranks) that all send first cannot deadlock
//! whatever the message size. Waits are bounded: a peer that dies
//! mid-exchange produces a panic (reported as a PE failure by the world),
//! never a hang.

use crate::shared::{Slots, Zeroable};
use halox_md::Vec3;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Ring capacity in u32 words (power of two): 64 KiB per ring, touched only
/// where a pair actually talks; larger messages are chunked transparently.
const RING_CAP_WORDS: usize = 1 << 14;
/// Max payload `Vec3`s per chunk: header (4 words) + 3 * chunk must fit
/// with room to spare so sender and receiver can always make progress.
const MAX_CHUNK_VECS: usize = (RING_CAP_WORDS / 2 - 4) / 3;
/// Words in a chunk header: tag_lo, tag_hi, total_len, chunk_len.
const HDR_WORDS: usize = 4;
/// Bounded wait without progress before declaring the peer dead.
const RING_WAIT: Duration = Duration::from_secs(15);

/// One SPSC ring: `words` is the circular payload buffer, `head` the
/// sender-advanced and `tail` the receiver-advanced position (both monotone;
/// the index is `pos % RING_CAP_WORDS`). Line-aligned so neighbouring rings
/// never false-share.
#[repr(C, align(128))]
struct Ring {
    head: AtomicUsize,
    tail: AtomicUsize,
    words: [AtomicU32; RING_CAP_WORDS],
}

// SAFETY: atomics only — all-zero is the empty ring, shared access is what
// they are for, and nothing needs dropping.
unsafe impl Zeroable for Ring {}

impl Ring {
    #[inline]
    fn word(&self, pos: usize) -> &AtomicU32 {
        &self.words[pos % RING_CAP_WORDS]
    }

    /// Push the next chunk of a `total`-long message whose unsent part is
    /// `rest`, if the ring has room for it; returns the `Vec3`s it took.
    fn try_send(&self, tag: u64, total: usize, rest: &[Vec3]) -> Option<usize> {
        let chunk = rest.len().min(MAX_CHUNK_VECS);
        let frame = HDR_WORDS + 3 * chunk;
        let head = self.head.load(Ordering::Relaxed);
        if head + frame - self.tail.load(Ordering::Acquire) > RING_CAP_WORDS {
            return None;
        }
        self.word(head).store(tag as u32, Ordering::Relaxed);
        self.word(head + 1)
            .store((tag >> 32) as u32, Ordering::Relaxed);
        self.word(head + 2).store(total as u32, Ordering::Relaxed);
        self.word(head + 3).store(chunk as u32, Ordering::Relaxed);
        for (k, v) in rest[..chunk].iter().enumerate() {
            let base = head + HDR_WORDS + 3 * k;
            self.word(base).store(v.x.to_bits(), Ordering::Relaxed);
            self.word(base + 1).store(v.y.to_bits(), Ordering::Relaxed);
            self.word(base + 2).store(v.z.to_bits(), Ordering::Relaxed);
        }
        self.head.store(head + frame, Ordering::Release);
        Some(chunk)
    }

    /// Pop the next chunk, if one has arrived, onto `out`; asserts the tag
    /// and returns the length of the whole message.
    fn try_recv(&self, tag: u64, out: &mut Vec<Vec3>) -> Option<usize> {
        let tail = self.tail.load(Ordering::Relaxed);
        if self.head.load(Ordering::Acquire) < tail + HDR_WORDS {
            return None;
        }
        let got_tag = self.word(tail).load(Ordering::Relaxed) as u64
            | (self.word(tail + 1).load(Ordering::Relaxed) as u64) << 32;
        assert_eq!(
            got_tag, tag,
            "message order violation: got tag {got_tag}, want {tag}"
        );
        let total = self.word(tail + 2).load(Ordering::Relaxed) as usize;
        let chunk = self.word(tail + 3).load(Ordering::Relaxed) as usize;
        out.reserve(total.saturating_sub(out.len()));
        for k in 0..chunk {
            let base = tail + HDR_WORDS + 3 * k;
            out.push(Vec3::new(
                f32::from_bits(self.word(base).load(Ordering::Relaxed)),
                f32::from_bits(self.word(base + 1).load(Ordering::Relaxed)),
                f32::from_bits(self.word(base + 2).load(Ordering::Relaxed)),
            ));
        }
        self.tail
            .store(tail + HDR_WORDS + 3 * chunk, Ordering::Release);
        Some(total)
    }
}

/// A fully connected two-sided communicator over `n` ranks.
pub struct TwoSidedComm {
    n: usize,
    /// `rings[src * n + dst]`
    rings: Slots<Ring>,
}

impl TwoSidedComm {
    /// Panics where [`Slots::alloc`] refuses (inside a forked PE, or out of
    /// address space).
    pub fn new(n: usize) -> Self {
        let rings = Slots::alloc(n * n).unwrap_or_else(|e| panic!("TwoSidedComm::new({n}): {e}"));
        TwoSidedComm { n, rings }
    }

    pub fn n_ranks(&self) -> usize {
        self.n
    }

    /// Rank `me` moves its outgoing message `(dst, tag, data)` and/or its
    /// incoming one `(src, tag)` to completion, a chunk of either at a time.
    /// Panics after [`RING_WAIT`] without a chunk moving either way.
    fn pump(
        &self,
        me: usize,
        outgoing: Option<(usize, u64, &[Vec3])>,
        incoming: Option<(usize, u64)>,
    ) -> Vec<Vec3> {
        let (mut sent, mut sending) = (0, outgoing.is_some());
        let (mut got, mut receiving) = (Vec::new(), incoming.is_some());
        let mut deadline = None;
        while sending || receiving {
            let mut moved = false;
            if let Some((dst, tag, data)) = outgoing.filter(|_| sending) {
                if let Some(n) =
                    self.rings[me * self.n + dst].try_send(tag, data.len(), &data[sent..])
                {
                    sent += n;
                    sending = sent < data.len();
                    moved = true;
                }
            }
            if let Some((src, tag)) = incoming.filter(|_| receiving) {
                if let Some(total) = self.rings[src * self.n + me].try_recv(tag, &mut got) {
                    receiving = got.len() < total;
                    moved = true;
                }
            }
            if moved {
                deadline = None;
            } else if Instant::now() > *deadline.get_or_insert_with(|| Instant::now() + RING_WAIT) {
                panic!(
                    "two-sided exchange timed out: PE {me} moved nothing for {RING_WAIT:?} \
                     (send {outgoing:?} pending: {sending}, recv {incoming:?} pending: \
                     {receiving}; peer dead?)",
                    outgoing = outgoing.map(|(dst, tag, _)| (dst, tag)),
                );
            } else {
                std::thread::yield_now();
            }
        }
        got
    }

    /// Send `data` from `src` to `dst` with `tag`; returns once it is in the
    /// ring (at once, unless the receiver is more than a ring behind).
    pub fn send(&self, src: usize, dst: usize, tag: u64, data: Vec<Vec3>) {
        self.pump(src, Some((dst, tag, &data)), None);
    }

    /// Blocking receive of the next message from `src` to `dst`; asserts the
    /// tag matches (MPI non-overtaking order makes this deterministic).
    pub fn recv(&self, dst: usize, src: usize, tag: u64) -> Vec<Vec3> {
        self.pump(dst, None, Some((src, tag)))
    }

    /// Combined send+recv (the classic halo `MPI_Sendrecv`): both directions
    /// progress together, so it completes for any message size even when
    /// every rank calls it at once.
    pub fn sendrecv(
        &self,
        me: usize,
        dst: usize,
        send_tag: u64,
        data: Vec<Vec3>,
        src: usize,
        recv_tag: u64,
    ) -> Vec<Vec3> {
        self.pump(me, Some((dst, send_tag, &data)), Some((src, recv_tag)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_delivery() {
        let c = TwoSidedComm::new(2);
        c.send(0, 1, 7, vec![Vec3::splat(1.0)]);
        let got = c.recv(1, 0, 7);
        assert_eq!(got, vec![Vec3::splat(1.0)]);
        // Empty payloads round-trip too.
        c.send(1, 0, 3, vec![]);
        assert!(c.recv(0, 1, 3).is_empty());
    }

    #[test]
    fn per_pair_ordering_preserved() {
        let c = TwoSidedComm::new(2);
        for t in 0..10 {
            c.send(0, 1, t, vec![Vec3::splat(t as f32)]);
        }
        for t in 0..10 {
            let got = c.recv(1, 0, t);
            assert_eq!(got[0], Vec3::splat(t as f32));
        }
    }

    #[test]
    fn ring_sendrecv_across_threads() {
        let n = 4;
        let c = TwoSidedComm::new(n);
        let cref = &c;
        std::thread::scope(|s| {
            for me in 0..n {
                s.spawn(move || {
                    let dst = (me + n - 1) % n; // send down
                    let src = (me + 1) % n; // receive from up
                    let got = cref.sendrecv(me, dst, 0, vec![Vec3::splat(me as f32)], src, 0);
                    assert_eq!(got[0], Vec3::splat(src as f32));
                });
            }
        });
    }

    #[test]
    #[should_panic]
    fn tag_mismatch_is_detected() {
        let c = TwoSidedComm::new(2);
        c.send(0, 1, 1, vec![]);
        let _ = c.recv(1, 0, 2);
    }

    #[test]
    fn rings_chunk_large_messages_bitwise() {
        let c = TwoSidedComm::new(2);
        // Larger than one chunk and larger than the whole ring: must arrive
        // intact and bit-exact through the chunking path.
        let big: Vec<Vec3> = (0..3 * MAX_CHUNK_VECS + 17)
            .map(|i| Vec3::new(i as f32 * 0.1, -(i as f32), 1.0 / (i + 1) as f32))
            .collect();
        let (tx, rx) = (0usize, 1usize);
        let cref = &c;
        let bref = &big;
        std::thread::scope(|s| {
            s.spawn(move || cref.send(tx, rx, 42, bref.clone()));
            let got = cref.recv(rx, tx, 42);
            assert_eq!(&got, bref);
        });
    }

    /// Every rank sends more than the rings hold before anyone receives —
    /// what `exec::mpi` does with a halo pulse above 2 × `MAX_CHUNK_VECS`.
    fn big_sendrecv_all_at_once(c: &TwoSidedComm, me: usize) -> u64 {
        let n = c.n_ranks();
        let msg = |from: usize| -> Vec<Vec3> {
            (0..3 * MAX_CHUNK_VECS + 17 + from)
                .map(|i| Vec3::new(from as f32, i as f32, -(i as f32)))
                .collect()
        };
        let (dst, src) = ((me + n - 1) % n, (me + 1) % n);
        let got = c.sendrecv(me, dst, me as u64, msg(me), src, src as u64);
        (got == msg(src)) as u64
    }

    #[test]
    fn sendrecv_larger_than_the_rings_cannot_deadlock() {
        use crate::world::{ShmemWorld, Topology, WorldBackend};
        for n in [2, 4] {
            let c = TwoSidedComm::new(n);
            for backend in [WorldBackend::Threads, WorldBackend::Procs] {
                let world = ShmemWorld::new_with_backend(backend, Topology::all_nvlink(n), 1);
                let ok = world.run(|pe| big_sendrecv_all_at_once(&c, pe.id));
                assert_eq!(ok, vec![1; n], "{} x{n}", backend.label());
            }
        }
    }

    #[test]
    fn comms_give_their_rings_back() {
        // What `[2,2,2]` procs with `nstlist = 1` asks of the heap: one
        // 8-rank comm (64 rings, 4 MiB) per segment. 300 of them outran the
        // old never-freeing 1 GiB arena.
        for round in 0..300u64 {
            let c = TwoSidedComm::new(8);
            c.send(7, 0, round, vec![Vec3::splat(round as f32)]);
            assert_eq!(c.recv(0, 7, round), vec![Vec3::splat(round as f32)]);
        }
    }

    #[test]
    fn rings_cross_process() {
        use crate::world::{ShmemWorld, Topology, WorldBackend};
        let world = ShmemWorld::new_with_backend(WorldBackend::Procs, Topology::islands(2, 1), 1);
        let c = TwoSidedComm::new(2);
        let cref = &c;
        let sums = world.run(move |pe| {
            let other = 1 - pe.id;
            let got = cref.sendrecv(
                pe.id,
                other,
                pe.id as u64,
                vec![Vec3::splat((pe.id + 1) as f32)],
                other,
                other as u64,
            );
            got[0].x as f64
        });
        assert_eq!(sums, vec![2.0, 1.0]);
    }
}

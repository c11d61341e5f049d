//! Symmetric buffers: the PGAS global address space.
//!
//! NVSHMEM requires collective symmetric allocation — every PE allocates the
//! same buffer at the same (virtual) offset, and any PE can address any
//! peer's copy ([`SymVec3::set`]/[`get`] ≙ `nvshmem_ptr` direct access over
//! NVLink). A symmetric buffer here is one [`Slots`] mapping holding every
//! PE's segment of relaxed `AtomicU32` words: every remote access is a
//! relaxed atomic on the word, and ordering/visibility come exclusively from
//! the signal protocol (release store after data, acquire wait before reads)
//! — the same discipline the paper's kernels follow via PTX
//! `st.release.sys` et al.
//!
//! The symmetric-allocation constraint the paper hits with rank
//! specialization (§5.3) is enforced here too: a buffer always has a segment
//! on *every* PE of the world, sized identically.

use crate::shared::Slots;
use halox_md::Vec3;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Segments start on distinct 128-byte lines, so neighbouring PEs' edge
/// elements never false-share.
const SEG_ALIGN_CELLS: usize = 32;

/// A symmetric array of `Vec3` (3 words per element), one segment per PE.
///
/// Cloning is cheap (Arc); all clones address the same storage, which is
/// unmapped when the last clone drops. PEs forked while it lives address
/// the same physical words at the same virtual address.
#[derive(Clone)]
pub struct SymVec3 {
    /// PE `p`'s segment is `cells[p * stride..][..3 * len]`.
    cells: Arc<Slots<AtomicU32>>,
    stride: usize,
    npes: usize,
    len: usize,
}

impl SymVec3 {
    /// Collectively allocate `len` elements on each of `npes` PEs,
    /// zero-initialized. Panics where [`Slots::alloc`] refuses (inside a
    /// forked PE, or out of address space).
    pub fn alloc(npes: usize, len: usize) -> Self {
        let stride = (len * 3).next_multiple_of(SEG_ALIGN_CELLS);
        let cells = Slots::alloc(npes * stride)
            .unwrap_or_else(|e| panic!("SymVec3::alloc({npes}, {len}): {e}"));
        SymVec3 {
            cells: Arc::new(cells),
            stride,
            npes,
            len,
        }
    }

    #[inline]
    fn seg(&self, pe: usize) -> &[AtomicU32] {
        &self.cells[pe * self.stride..][..self.len * 3]
    }

    /// Cross-process name of PE `pe`'s segment: (base address, word count).
    /// The socket proxy validates it against the live mappings before
    /// writing through it.
    pub fn seg_addr(&self, pe: usize) -> (usize, usize) {
        let s = self.seg(pe);
        (s.as_ptr() as usize, s.len())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn npes(&self) -> usize {
        self.npes
    }

    /// Read element `idx` on PE `pe` (relaxed).
    #[inline]
    pub fn get(&self, pe: usize, idx: usize) -> Vec3 {
        load_vec3(&self.seg(pe)[idx * 3..][..3])
    }

    /// Write element `idx` on PE `pe` (relaxed).
    #[inline]
    pub fn set(&self, pe: usize, idx: usize, v: Vec3) {
        store_vec3s(&self.seg(pe)[idx * 3..], &[v]);
    }

    /// Bulk copy `src` into PE `pe` starting at `offset` (relaxed stores) —
    /// the data half of a put.
    pub fn write_slice(&self, pe: usize, offset: usize, src: &[Vec3]) {
        store_vec3s(&self.seg(pe)[offset * 3..], src);
    }

    /// Bulk copy from PE `pe` starting at `offset` into `dst` (relaxed
    /// loads) — the data half of a get.
    pub fn read_slice(&self, pe: usize, offset: usize, dst: &mut [Vec3]) {
        let words = &self.seg(pe)[offset * 3..][..dst.len() * 3];
        for (w, v) in words.chunks_exact(3).zip(dst) {
            *v = load_vec3(w);
        }
    }

    /// Snapshot a PE's whole segment into a plain vector.
    pub fn snapshot(&self, pe: usize) -> Vec<Vec3> {
        let mut out = vec![Vec3::ZERO; self.len];
        self.read_slice(pe, 0, &mut out);
        out
    }

    /// Overwrite a PE's whole segment from a plain slice (len-checked).
    pub fn load_from(&self, pe: usize, src: &[Vec3]) {
        assert!(
            src.len() <= self.len,
            "source larger than symmetric segment"
        );
        self.write_slice(pe, 0, src);
    }

    /// Zero a PE's segment.
    pub fn clear(&self, pe: usize) {
        for w in self.seg(pe) {
            w.store(0, Ordering::Relaxed);
        }
    }
}

/// Relaxed-load the element at the head of `words`.
#[inline]
fn load_vec3(words: &[AtomicU32]) -> Vec3 {
    Vec3::new(
        f32::from_bits(words[0].load(Ordering::Relaxed)),
        f32::from_bits(words[1].load(Ordering::Relaxed)),
        f32::from_bits(words[2].load(Ordering::Relaxed)),
    )
}

/// Relaxed-store `src` into the head of `words` (3 per element; panics if
/// they do not fit) — what a put does to its target, whether that is named
/// by a [`SymVec3`] handle or by a validated cross-process address.
#[inline]
pub(crate) fn store_vec3s(words: &[AtomicU32], src: &[Vec3]) {
    for (w, v) in words[..src.len() * 3].chunks_exact(3).zip(src) {
        w[0].store(v.x.to_bits(), Ordering::Relaxed);
        w[1].store(v.y.to_bits(), Ordering::Relaxed);
        w[2].store(v.z.to_bits(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_allocation_on_all_pes() {
        let b = SymVec3::alloc(4, 10);
        assert_eq!(b.npes(), 4);
        assert_eq!(b.len(), 10);
        for pe in 0..4 {
            assert_eq!(b.get(pe, 9), Vec3::ZERO);
        }
    }

    #[test]
    fn remote_write_visible_to_owner() {
        let b = SymVec3::alloc(2, 4);
        b.set(1, 2, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.get(1, 2), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.get(0, 2), Vec3::ZERO, "segments are independent");
    }

    #[test]
    fn slice_round_trip() {
        let b = SymVec3::alloc(2, 8);
        let src: Vec<Vec3> = (0..5).map(|i| Vec3::splat(i as f32)).collect();
        b.write_slice(1, 3, &src);
        let mut dst = vec![Vec3::ZERO; 5];
        b.read_slice(1, 3, &mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    fn clear_and_snapshot() {
        let b = SymVec3::alloc(2, 3);
        b.load_from(0, &[Vec3::splat(1.0), Vec3::splat(2.0), Vec3::splat(3.0)]);
        assert_eq!(b.snapshot(0)[1], Vec3::splat(2.0));
        b.clear(0);
        assert!(b.snapshot(0).iter().all(|v| *v == Vec3::ZERO));
    }

    #[test]
    #[should_panic]
    fn load_from_checks_length() {
        let b = SymVec3::alloc(1, 2);
        b.load_from(0, &[Vec3::ZERO; 3]);
    }
}

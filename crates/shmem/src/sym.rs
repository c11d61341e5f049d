//! Symmetric buffers: the PGAS global address space.
//!
//! NVSHMEM requires collective symmetric allocation — every PE allocates the
//! same buffer at the same (virtual) offset, and any PE can address any
//! peer's copy ([`SymVec3::set`]/[`get`] ≙ `nvshmem_ptr` direct access over
//! NVLink). We realize the symmetric heap as one `Vec` of per-PE segments of
//! relaxed `AtomicU32` words: every remote access is a relaxed atomic on the
//! word, and ordering/visibility come exclusively from the signal protocol
//! (release store after data, acquire wait before reads) — the same
//! discipline the paper's kernels follow via PTX `st.release.sys` et al.
//!
//! The symmetric-allocation constraint the paper hits with rank
//! specialization (§5.3) is enforced here too: a buffer always has a segment
//! on *every* PE of the world, sized identically.

use crate::atomicf32::AtomicF32;
use crate::shared::Slots;
use halox_md::Vec3;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A symmetric array of `Vec3` (3 words per element), one segment per PE.
///
/// Cloning is cheap (Arc); all clones address the same storage. When the
/// process backend is selected, segments live in the shared mapping
/// (`shared::Slots`), so forked PEs address the same physical words at the
/// same virtual address.
#[derive(Clone)]
pub struct SymVec3 {
    segs: Arc<Vec<Slots<AtomicU32>>>,
    len: usize,
}

impl SymVec3 {
    /// Collectively allocate `len` elements on each of `npes` PEs,
    /// zero-initialized.
    pub fn alloc(npes: usize, len: usize) -> Self {
        let segs = (0..npes).map(|_| Slots::alloc(len * 3)).collect();
        SymVec3 {
            segs: Arc::new(segs),
            len,
        }
    }

    /// True when the segments live in the cross-process shared mapping.
    pub fn is_shared(&self) -> bool {
        self.segs.iter().all(|s| s.is_shared())
    }

    /// Cross-process name of PE `pe`'s segment: (base address, word count).
    /// Only meaningful for shared-backed buffers — the proxy validates the
    /// address against the arena before writing through it.
    pub fn seg_addr(&self, pe: usize) -> (usize, usize) {
        let s: &[AtomicU32] = &self.segs[pe];
        (s.as_ptr() as usize, s.len())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn npes(&self) -> usize {
        self.segs.len()
    }

    /// Read element `idx` on PE `pe` (relaxed).
    #[inline]
    pub fn get(&self, pe: usize, idx: usize) -> Vec3 {
        let s = &self.segs[pe];
        let b = idx * 3;
        Vec3::new(
            f32::from_bits(s[b].load(Ordering::Relaxed)),
            f32::from_bits(s[b + 1].load(Ordering::Relaxed)),
            f32::from_bits(s[b + 2].load(Ordering::Relaxed)),
        )
    }

    /// Write element `idx` on PE `pe` (relaxed).
    #[inline]
    pub fn set(&self, pe: usize, idx: usize, v: Vec3) {
        let s = &self.segs[pe];
        let b = idx * 3;
        s[b].store(v.x.to_bits(), Ordering::Relaxed);
        s[b + 1].store(v.y.to_bits(), Ordering::Relaxed);
        s[b + 2].store(v.z.to_bits(), Ordering::Relaxed);
    }

    /// Bulk copy `src` into PE `pe` starting at `offset` (relaxed stores) —
    /// the data half of a put.
    pub fn write_slice(&self, pe: usize, offset: usize, src: &[Vec3]) {
        for (k, &v) in src.iter().enumerate() {
            self.set(pe, offset + k, v);
        }
    }

    /// Bulk copy from PE `pe` starting at `offset` into `dst` (relaxed
    /// loads) — the data half of a get.
    pub fn read_slice(&self, pe: usize, offset: usize, dst: &mut [Vec3]) {
        for (k, v) in dst.iter_mut().enumerate() {
            *v = self.get(pe, offset + k);
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
        for i in 0..self.len * 3 {
            self.segs[pe][i].store(0, Ordering::Relaxed);
        }
    }
}

/// A symmetric array of independent atomic floats (per-component force
/// accumulators when the paper's `atomicAdd` unpack path is exercised
/// standalone).
#[derive(Clone)]
pub struct SymF32 {
    segs: Arc<Vec<Slots<AtomicF32>>>,
    len: usize,
}

impl SymF32 {
    pub fn alloc(npes: usize, len: usize) -> Self {
        let segs = (0..npes).map(|_| Slots::alloc(len)).collect();
        SymF32 {
            segs: Arc::new(segs),
            len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn load(&self, pe: usize, idx: usize) -> f32 {
        self.segs[pe][idx].load(Ordering::Relaxed)
    }

    #[inline]
    pub fn store(&self, pe: usize, idx: usize, v: f32) {
        self.segs[pe][idx].store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn fetch_add(&self, pe: usize, idx: usize, v: f32) -> f32 {
        self.segs[pe][idx].fetch_add(v, Ordering::Relaxed)
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
    fn symf32_fetch_add() {
        let f = SymF32::alloc(2, 2);
        assert_eq!(f.fetch_add(1, 0, 2.5), 0.0);
        assert_eq!(f.fetch_add(1, 0, 1.0), 2.5);
        assert_eq!(f.load(1, 0), 3.5);
        assert_eq!(f.load(0, 0), 0.0);
    }

    #[test]
    #[should_panic]
    fn load_from_checks_length() {
        let b = SymVec3::alloc(1, 2);
        b.load_from(0, &[Vec3::ZERO; 3]);
    }
}

//! Symmetric buffers: the PGAS global address space.
//!
//! NVSHMEM requires collective symmetric allocation — every PE allocates the
//! same buffer at the same (virtual) offset, and any PE can address any
//! peer's copy ([`SymVec3::set`]/[`get`](SymVec3::get) ≙ `nvshmem_ptr`
//! direct access over NVLink). A symmetric buffer here is one [`Slots`] mapping holding every
//! PE's segment of relaxed `AtomicU32` words: every remote access is a
//! relaxed atomic on the word, and ordering/visibility come exclusively from
//! the signal protocol (release store after data, acquire wait before reads)
//! — the same discipline the paper's kernels follow via PTX
//! `st.release.sys` et al.
//!
//! The halo exchange moves a whole pulse per call
//! ([`SymVec3::gather_shifted`], [`SymVec3::gather_shifted_into`],
//! [`SymVec3::scatter_add`]): still one relaxed access per word, but the
//! segments are sliced and range-checked once per call instead of once per
//! element.
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

    /// PE `pe`'s segment as `len` elements of three words each.
    #[inline]
    fn elems(&self, pe: usize) -> &[[AtomicU32; 3]] {
        self.seg(pe).as_chunks().0
    }

    /// Cross-process name of PE `pe`'s segment: (base address, word count)
    /// — how a put names its target on either link. The proxy validates it
    /// against the live mappings before writing through it.
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
        load_vec3(&self.elems(pe)[idx])
    }

    /// Write element `idx` on PE `pe` (relaxed).
    #[inline]
    pub fn set(&self, pe: usize, idx: usize, v: Vec3) {
        store_vec3(&self.elems(pe)[idx], v);
    }

    /// Bulk copy `src` into PE `pe` starting at `offset` (relaxed stores) —
    /// the data half of a put.
    pub fn write_slice(&self, pe: usize, offset: usize, src: &[Vec3]) {
        store_vec3s(&self.seg(pe)[offset * 3..], src);
    }

    /// Bulk copy from PE `pe` starting at `offset` into `dst` (relaxed
    /// loads) — the data half of a get.
    pub fn read_slice(&self, pe: usize, offset: usize, dst: &mut [Vec3]) {
        let elems = &self.elems(pe)[offset..][..dst.len()];
        for (w, v) in elems.iter().zip(dst) {
            *v = load_vec3(w);
        }
    }

    /// Pack with a put: for every `k`, in ascending `k`,
    /// `dst[dst_pe][dst_offset + k] = self[src_pe][index[k]] + shift`
    /// (relaxed loads and stores). `dst` may be `self`. Panics, before any
    /// store, if the destination range does not fit; an out-of-range index
    /// panics at that element.
    pub fn gather_shifted(
        &self,
        src_pe: usize,
        index: &[u32],
        shift: Vec3,
        dst: &SymVec3,
        dst_pe: usize,
        dst_offset: usize,
    ) {
        let src = self.elems(src_pe);
        let out = &dst.elems(dst_pe)[dst_offset..][..index.len()];
        for (w, &i) in out.iter().zip(index) {
            store_vec3(w, load_vec3(&src[i as usize]) + shift);
        }
    }

    /// Pack into a staging payload: append `self[src_pe][index[k]] + shift`
    /// to `out` for every `k`, in ascending `k` (relaxed loads).
    pub fn gather_shifted_into(
        &self,
        src_pe: usize,
        index: &[u32],
        shift: Vec3,
        out: &mut Vec<Vec3>,
    ) {
        let src = self.elems(src_pe);
        out.extend(index.iter().map(|&i| load_vec3(&src[i as usize]) + shift));
    }

    /// Unpack: `self[dst_pe][index[k]] += src[src_pe][src_offset + k]` for
    /// every `k`, in ascending `k`, one relaxed load, add and store per
    /// element — so a repeated index accumulates in index order. `src` may
    /// be `self`. Panics, before any store, if the source range does not
    /// fit; an out-of-range index panics at that element.
    pub fn scatter_add(
        &self,
        dst_pe: usize,
        index: &[u32],
        src: &SymVec3,
        src_pe: usize,
        src_offset: usize,
    ) {
        let acc = self.elems(dst_pe);
        let from = &src.elems(src_pe)[src_offset..][..index.len()];
        for (w, &i) in from.iter().zip(index) {
            let a = &acc[i as usize];
            store_vec3(a, load_vec3(a) + load_vec3(w));
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

/// Relaxed-load one element.
#[inline]
fn load_vec3(w: &[AtomicU32; 3]) -> Vec3 {
    Vec3::new(
        f32::from_bits(w[0].load(Ordering::Relaxed)),
        f32::from_bits(w[1].load(Ordering::Relaxed)),
        f32::from_bits(w[2].load(Ordering::Relaxed)),
    )
}

/// Relaxed-store one element.
#[inline]
fn store_vec3(w: &[AtomicU32; 3], v: Vec3) {
    w[0].store(v.x.to_bits(), Ordering::Relaxed);
    w[1].store(v.y.to_bits(), Ordering::Relaxed);
    w[2].store(v.z.to_bits(), Ordering::Relaxed);
}

/// Relaxed-store `src` into the head of `words` (3 per element; panics if
/// they do not fit) — what a put does to its target, whether that is named
/// by a [`SymVec3`] handle or by a validated cross-process address.
#[inline]
pub(crate) fn store_vec3s(words: &[AtomicU32], src: &[Vec3]) {
    for (w, &v) in words[..src.len() * 3].as_chunks().0.iter().zip(src) {
        store_vec3(w, v);
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

    /// Word patterns a bulk op must carry bit for bit: signed zeros,
    /// subnormals, infinities and NaNs with payloads, then random words.
    fn bit_patterns(n: usize, seed: u64) -> Vec<Vec3> {
        const SPECIAL: [u32; 8] = [
            0x8000_0000, // -0.0
            0x0000_0000, // +0.0
            0x0000_0001, // smallest subnormal
            0x807f_ffff, // largest negative subnormal
            0x7f80_0000, // +inf
            0x7fc0_1234, // quiet NaN with payload
            0xff80_0042, // negative signalling NaN with payload
            0x3f80_0000, // 1.0
        ];
        let mut state = seed;
        let mut word = |k: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let r = (z ^ (z >> 31)) as u32;
            f32::from_bits(if k < 3 * SPECIAL.len() {
                SPECIAL[k / 3]
            } else {
                r
            })
        };
        (0..n)
            .map(|e| Vec3::new(word(3 * e), word(3 * e + 1), word(3 * e + 2)))
            .collect()
    }

    fn bits(vs: &[Vec3]) -> Vec<[u32; 3]> {
        vs.iter()
            .map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
            .collect()
    }

    /// Two identical 3-PE buffers filled with [`bit_patterns`].
    fn twin_buffers(len: usize) -> (SymVec3, SymVec3) {
        let (a, b) = (SymVec3::alloc(3, len), SymVec3::alloc(3, len));
        for pe in 0..3 {
            let init = bit_patterns(len, 7 + pe as u64);
            a.load_from(pe, &init);
            b.load_from(pe, &init);
        }
        (a, b)
    }

    fn assert_same_bits(a: &SymVec3, b: &SymVec3) {
        for pe in 0..a.npes() {
            assert_eq!(bits(&a.snapshot(pe)), bits(&b.snapshot(pe)), "PE {pe}");
        }
    }

    /// Indices into a `len`-element segment, repeats and all.
    fn scattered_index(n: usize, len: usize) -> Vec<u32> {
        (0..n).map(|k| ((k * 7 + 3) % len) as u32).collect()
    }

    #[test]
    fn bulk_gather_equals_element_loop_bitwise() {
        let len = 40;
        let index = scattered_index(25, len);
        let shift = Vec3::new(-4.5, f32::MIN_POSITIVE / 8.0, 3.25);
        for (dst_pe, offset) in [(1, 0), (2, 15), (0, 11)] {
            let (bulk, elem) = twin_buffers(len);
            bulk.gather_shifted(0, &index, shift, &bulk, dst_pe, offset);
            for (k, &i) in index.iter().enumerate() {
                let v = elem.get(0, i as usize) + shift;
                elem.set(dst_pe, offset + k, v);
            }
            assert_same_bits(&bulk, &elem);

            let mut staged = bit_patterns(2, 3);
            let mut want = staged.clone();
            bulk.gather_shifted_into(2, &index, shift, &mut staged);
            want.extend(index.iter().map(|&i| elem.get(2, i as usize) + shift));
            assert_eq!(bits(&staged), bits(&want));
        }
    }

    #[test]
    fn bulk_gather_into_another_buffer_and_empty_index() {
        let (src, other) = twin_buffers(16);
        let (dst, want) = twin_buffers(16);
        let index = [3u32, 0, 15, 3];
        let shift = Vec3::new(1.0, -0.0, f32::MIN_POSITIVE);
        src.gather_shifted(1, &index, shift, &dst, 2, 9);
        for (k, &i) in index.iter().enumerate() {
            want.set(2, 9 + k, other.get(1, i as usize) + shift);
        }
        assert_same_bits(&dst, &want);
        assert_same_bits(&src, &other);

        // An empty index touches nothing, even at the segment's end.
        src.gather_shifted(0, &[], shift, &dst, 1, 16);
        dst.scatter_add(1, &[], &src, 0, 16);
        let mut staged = Vec::new();
        src.gather_shifted_into(0, &[], shift, &mut staged);
        assert!(staged.is_empty());
        assert_same_bits(&dst, &want);
    }

    #[test]
    fn bulk_scatter_add_equals_element_loop_bitwise() {
        let len = 60;
        // 40 entries over 30 elements: repeats accumulate in index order.
        let index = scattered_index(40, 30);
        for (src_pe, offset, other_buffer) in [(1, 0, false), (2, 14, false), (0, 0, true)] {
            let (bulk, elem) = twin_buffers(len);
            let (src_b, src_e) = if other_buffer {
                twin_buffers(len + 20)
            } else {
                (bulk.clone(), elem.clone())
            };
            bulk.scatter_add(0, &index, &src_b, src_pe, offset);
            for (k, &i) in index.iter().enumerate() {
                let sum = elem.get(0, i as usize) + src_e.get(src_pe, offset + k);
                elem.set(0, i as usize, sum);
            }
            assert_same_bits(&bulk, &elem);
            assert_same_bits(&src_b, &src_e);
        }
    }

    #[test]
    fn bulk_scatter_add_sums_a_repeated_index_in_order() {
        let b = SymVec3::alloc(2, 4);
        let big = Vec3::splat(1.0e8);
        b.write_slice(1, 0, &[Vec3::splat(1.0), big, -big]);
        b.scatter_add(0, &[2, 2, 2], &b, 1, 0);
        // ((0 + 1) + 1e8) - 1e8: the 1 is absorbed. In reverse order,
        // ((0 - 1e8) + 1e8) + 1, it would survive.
        assert_eq!(b.get(0, 2), Vec3::ZERO);
    }

    #[test]
    #[should_panic]
    fn bulk_gather_checks_the_index() {
        let b = SymVec3::alloc(2, 4);
        b.gather_shifted(0, &[1, 4], Vec3::ZERO, &b, 1, 0);
    }

    #[test]
    #[should_panic]
    fn bulk_gather_checks_the_destination_range() {
        let b = SymVec3::alloc(2, 4);
        b.gather_shifted(0, &[0, 1], Vec3::ZERO, &b, 1, 3);
    }

    #[test]
    #[should_panic]
    fn bulk_gather_into_checks_the_index() {
        let b = SymVec3::alloc(2, 4);
        b.gather_shifted_into(0, &[9], Vec3::ZERO, &mut Vec::new());
    }

    #[test]
    #[should_panic]
    fn bulk_scatter_add_checks_the_index() {
        let b = SymVec3::alloc(2, 4);
        b.scatter_add(0, &[0, 4], &b, 1, 0);
    }

    #[test]
    #[should_panic]
    fn bulk_scatter_add_checks_the_source_range() {
        let b = SymVec3::alloc(2, 4);
        b.scatter_add(0, &[0, 1], &b, 1, 3);
    }

    #[test]
    #[should_panic]
    fn load_from_checks_length() {
        let b = SymVec3::alloc(1, 2);
        b.load_from(0, &[Vec3::ZERO; 3]);
    }
}

//! `f32` SIMD lane types for the cluster-pair kernel: [`F4`] (four lanes)
//! and, on `x86_64`, [`F8`] (eight, AVX2).
//!
//! The cluster kernel's 4×4 micro-tile is written against these types so
//! the inner loop compiles to packed vector arithmetic instead of relying
//! on LLVM's SLP vectorizer (which gives up on the unrolled scalar form once
//! parameter gathers and mask logic are mixed into the chain — measured as
//! ~3.5× scalar-`ss` over packed-`ps` instructions in the emitted code).
//!
//! Both are *row packs*: a pack holds the four j-lane terms of `ROWS`
//! consecutive tile rows (`F4`: one, `F8`: two), and besides lane
//! arithmetic offers the operations in which the widths differ — `rows`
//! (per-row splat of i-data), `dup` (j-data for every row), `join`
//! (per-row vectors into a pack), `half` (one row back out), `ROWS` and
//! `LANES` themselves, and `compact` (the list build's left-pack of one
//! pack of candidate indices). The kernel body and the list build's tile
//! pass in `crate::cluster` are each written once against that surface,
//! in method-call form because `F8`'s operations are `#[target_feature]`
//! functions and cannot implement operator traits.
//!
//! On `x86_64` `F4` wraps SSE2 intrinsics, which are part of the baseline
//! ISA — no runtime feature detection needed. Everywhere else a portable
//! array implementation provides the same per-lane semantics. Both paths
//! perform identical IEEE-754 single-precision operations in the same
//! order, so results are bitwise reproducible across backends: `addps`,
//! `mulps`, `divps` and `sqrtps` are correctly rounded per lane, exactly
//! like their scalar counterparts.
//!
//! Comparison results are represented GROMACS/SSE-style as lane *bitmasks*
//! (all-ones or all-zeros) combined with [`F4::and`]; `mask.and(value)`
//! yields `value` in true lanes and `+0.0` in false lanes, which matches
//! the multiplicative `sel * value` selection used by the scalar oracle
//! bit for bit (for finite `value`).

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

/// Four packed `f32` lanes.
#[derive(Clone, Copy)]
pub struct F4(Repr);

#[cfg(target_arch = "x86_64")]
type Repr = __m128;
#[cfg(not(target_arch = "x86_64"))]
type Repr = [f32; 4];

#[cfg(target_arch = "x86_64")]
impl F4 {
    /// All four lanes set to `x`.
    #[inline(always)]
    pub fn splat(x: f32) -> Self {
        // SAFETY: SSE2 is unconditionally available on x86_64.
        unsafe { F4(_mm_set1_ps(x)) }
    }

    /// Load lanes `src[base..base + 4]` (unaligned).
    #[inline(always)]
    pub fn load(src: &[f32], base: usize) -> Self {
        let s: &[f32] = &src[base..base + 4];
        // SAFETY: the slice above bounds-checks the 4-lane window.
        unsafe { F4(_mm_loadu_ps(s.as_ptr())) }
    }

    #[inline(always)]
    pub fn from_array(a: [f32; 4]) -> Self {
        // SAFETY: `a` is a 16-byte f32x4 source; loadu is unaligned.
        unsafe { F4(_mm_loadu_ps(a.as_ptr())) }
    }

    #[inline(always)]
    pub fn to_array(self) -> [f32; 4] {
        let mut out = [0.0f32; 4];
        // SAFETY: `out` is a 16-byte f32x4 destination; storeu is unaligned.
        unsafe { _mm_storeu_ps(out.as_mut_ptr(), self.0) };
        out
    }

    /// Lane-wise IEEE square root (correctly rounded, like `f32::sqrt`).
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        // SAFETY: SSE2 baseline.
        unsafe { F4(_mm_sqrt_ps(self.0)) }
    }

    /// Lane-wise maximum with `f32::max`'s NaN rule on the left operand:
    /// a NaN lane of `self` yields `rhs`.
    #[inline(always)]
    pub fn max(self, rhs: Self) -> Self {
        // SAFETY: SSE2 baseline. maxps returns its second operand when
        // either is NaN.
        unsafe { F4(_mm_max_ps(self.0, rhs.0)) }
    }

    /// Lane mask: all-ones where `self < rhs`, all-zeros elsewhere.
    #[inline(always)]
    pub fn lt(self, rhs: Self) -> Self {
        // SAFETY: SSE2 baseline.
        unsafe { F4(_mm_cmplt_ps(self.0, rhs.0)) }
    }

    /// Lane mask: all-ones where `self > rhs`, all-zeros elsewhere.
    #[inline(always)]
    pub fn gt(self, rhs: Self) -> Self {
        // SAFETY: SSE2 baseline.
        unsafe { F4(_mm_cmpgt_ps(self.0, rhs.0)) }
    }

    /// Bitwise AND — combines masks, or selects `rhs` lanes under a mask
    /// (`mask.and(x)` is `x` in true lanes, `+0.0` in false lanes).
    #[inline(always)]
    pub fn and(self, rhs: Self) -> Self {
        // SAFETY: SSE2 baseline.
        unsafe { F4(_mm_and_ps(self.0, rhs.0)) }
    }

    /// Lane sign bits packed into the low four bits: bit `v` is set when
    /// lane `v` of a comparison mask is true.
    #[inline(always)]
    pub(crate) fn movemask(self) -> u32 {
        // SAFETY: SSE2 baseline.
        unsafe { _mm_movemask_ps(self.0) as u32 }
    }
}

#[cfg(not(target_arch = "x86_64"))]
impl F4 {
    /// All four lanes set to `x`.
    #[inline(always)]
    pub fn splat(x: f32) -> Self {
        F4([x; 4])
    }

    /// Load lanes `src[base..base + 4]`.
    #[inline(always)]
    pub fn load(src: &[f32], base: usize) -> Self {
        F4([src[base], src[base + 1], src[base + 2], src[base + 3]])
    }

    #[inline(always)]
    pub fn from_array(a: [f32; 4]) -> Self {
        F4(a)
    }

    #[inline(always)]
    pub fn to_array(self) -> [f32; 4] {
        self.0
    }

    /// Lane-wise IEEE square root (correctly rounded, like `f32::sqrt`).
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        F4(self.0.map(f32::sqrt))
    }

    /// Lane-wise maximum with `f32::max`'s NaN rule on the left operand:
    /// a NaN lane of `self` yields `rhs`.
    #[inline(always)]
    pub fn max(self, rhs: Self) -> Self {
        F4(lanes(|v| {
            if self.0[v] > rhs.0[v] {
                self.0[v]
            } else {
                rhs.0[v]
            }
        }))
    }

    /// Lane mask: all-ones where `self < rhs`, all-zeros elsewhere.
    #[inline(always)]
    pub fn lt(self, rhs: Self) -> Self {
        F4(lanes(|v| mask_bits(self.0[v] < rhs.0[v])))
    }

    /// Lane mask: all-ones where `self > rhs`, all-zeros elsewhere.
    #[inline(always)]
    pub fn gt(self, rhs: Self) -> Self {
        F4(lanes(|v| mask_bits(self.0[v] > rhs.0[v])))
    }

    /// Bitwise AND — combines masks, or selects `rhs` lanes under a mask.
    #[inline(always)]
    pub fn and(self, rhs: Self) -> Self {
        F4(lanes(|v| {
            f32::from_bits(self.0[v].to_bits() & rhs.0[v].to_bits())
        }))
    }

    /// Lane sign bits packed into the low four bits: bit `v` is set when
    /// lane `v` of a comparison mask is true.
    #[inline(always)]
    pub(crate) fn movemask(self) -> u32 {
        (0..4).fold(0, |m, v| m | (self.0[v].to_bits() >> 31) << v)
    }
}

/// The row-pack view of [`F4`]: one tile row per operation. The cluster
/// kernel and tile pass (`crate::cluster`) are written once against these
/// items plus the lane arithmetic, and instantiated for `F4` and for
/// [`F8`].
impl F4 {
    /// Tile rows one pack carries.
    pub const ROWS: usize = 1;

    /// Consecutive array elements one [`F4::load`] covers.
    pub const LANES: usize = 4;

    /// Per-row splat of i-cluster data: all lanes `data[first]`.
    #[inline(always)]
    pub fn rows(data: &[f32; 4], first: usize) -> Self {
        F4::splat(data[first])
    }

    /// j-cluster data as every row of the pack sees it.
    #[inline(always)]
    pub fn dup(j: F4) -> Self {
        j
    }

    /// Pack per-row vectors (LJ rows, mask lanes), lowest row first.
    #[inline(always)]
    pub fn join(rows: [F4; 1]) -> Self {
        rows[0]
    }

    /// Row `h` of the pack.
    #[inline(always)]
    pub fn half(self, _h: usize) -> F4 {
        self
    }

    /// Left-pack one pack of candidates: store `base + v` for every set bit
    /// `v` of `mask` (a [`F4::movemask`]), lowest first, at `out[len..]`,
    /// and return `len` plus their count. Writes all `LANES` entries with no
    /// branch on `mask`; the ones past the returned length are scratch, so
    /// `out` needs room for them.
    #[inline(always)]
    pub(crate) fn compact(mask: u32, base: u32, out: &mut [u32], len: usize) -> usize {
        let packed = LEFT_PACK[(mask & 0xF) as usize];
        let lanes = [0, 1, 2, 3].map(|k| base + ((packed >> (4 * k)) as u32 & 0xF));
        out[len..len + 4].copy_from_slice(&lanes);
        len + (packed >> 32) as usize
    }
}

/// Per 8-bit lane mask `m`: the indices of its set bits, lowest first, one
/// nibble each from bit 0 up, and their count in bits 32 and above — the
/// table both widths' `compact` left-pack through.
const LEFT_PACK: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        let (mut entry, mut n, mut v) = (0u64, 0u64, 0u64);
        while v < 8 {
            if m >> v & 1 == 1 {
                entry |= v << (4 * n);
                n += 1;
            }
            v += 1;
        }
        table[m] = entry | n << 32;
        m += 1;
    }
    table
};

/// Eight packed `f32` lanes — the AVX2 row pack. It carries two tile rows
/// per operation: lanes 0–3 hold row `u`'s four j-lane terms and lanes 4–7
/// hold row `u+1`'s, so each 256-bit operation is exactly two of [`F4`]'s
/// 128-bit operations.
///
/// Methods are safe `#[target_feature(enable = "avx2")]` functions: the
/// AVX2 kernel instantiation (compiled with the same feature) calls them
/// without `unsafe` and they inline to single VEX instructions there.
/// Callers *outside* an AVX2 context must go through the runtime-detected
/// dispatcher. Per-lane semantics are exactly [`F4`]'s — IEEE-754
/// correctly rounded, and the comparison predicates mirror the SSE
/// encodings (`lt`/`gt` ordered-signaling) — so every 8-wide op is
/// bitwise two 4-wide ops.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub struct F8(__m256);

// Safety contract is shared by every method and documented once on the
// type: callers outside an `avx2`-enabled function must have verified the
// feature at runtime (the kernel dispatcher does).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::missing_safety_doc)]
impl F8 {
    /// Tile rows one pack carries.
    pub const ROWS: usize = 2;

    /// Consecutive array elements one [`F8::load`] covers.
    pub const LANES: usize = 8;

    /// All eight lanes set to `x`.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn splat(x: f32) -> Self {
        F8(_mm256_set1_ps(x))
    }

    /// Load lanes `src[base..base + 8]` (unaligned).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn load(src: &[f32], base: usize) -> Self {
        let s: &[f32] = &src[base..base + 8];
        // SAFETY: the slice above bounds-checks the 8-lane window.
        unsafe { F8(_mm256_loadu_ps(s.as_ptr())) }
    }

    /// Per-row splat of i-cluster data: lanes 0–3 = `data[first]`, lanes
    /// 4–7 = `data[first + 1]`.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn rows(data: &[f32; 4], first: usize) -> Self {
        Self::join([F4::splat(data[first]), F4::splat(data[first + 1])])
    }

    /// The same 4-lane vector in both halves (shared j-cluster data).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn dup(j: F4) -> Self {
        Self::join([j, j])
    }

    /// Two row-halves side by side: lanes 0–3 from `rows[0]`, 4–7 from
    /// `rows[1]`.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn join(rows: [F4; 2]) -> Self {
        F8(_mm256_set_m128(rows[1].0, rows[0].0))
    }

    /// Row `h` of the pack: lanes 0–3 (`h == 0`) or 4–7.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn half(self, h: usize) -> F4 {
        if h == 0 {
            F4(_mm256_castps256_ps128(self.0))
        } else {
            F4(_mm256_extractf128_ps::<1>(self.0))
        }
    }

    /// Lane-wise IEEE square root (correctly rounded, like `f32::sqrt`).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn sqrt(self) -> Self {
        F8(_mm256_sqrt_ps(self.0))
    }

    /// Lane mask: all-ones where `self < rhs` (same predicate as SSE
    /// `cmpltps`).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn lt(self, rhs: Self) -> Self {
        F8(_mm256_cmp_ps::<_CMP_LT_OS>(self.0, rhs.0))
    }

    /// Lane mask: all-ones where `self > rhs` (same predicate as SSE
    /// `cmpgtps`).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn gt(self, rhs: Self) -> Self {
        F8(_mm256_cmp_ps::<_CMP_GT_OS>(self.0, rhs.0))
    }

    /// Bitwise AND — combines masks, or selects `rhs` lanes under a mask
    /// (`mask.and(x)` is `x` in true lanes, `+0.0` in false lanes).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn and(self, rhs: Self) -> Self {
        F8(_mm256_and_ps(self.0, rhs.0))
    }

    /// Lane sign bits packed into the low eight bits (row `h`'s four in
    /// nibble `h`).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn movemask(self) -> u32 {
        _mm256_movemask_ps(self.0) as u32
    }

    /// Lane-wise maximum, NaN rule as [`F4::max`] (`vmaxps` ≡ `maxps`).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn max(self, rhs: Self) -> Self {
        F8(_mm256_max_ps(self.0, rhs.0))
    }

    /// [`F4::compact`] over eight lanes: the mask's nibble-packed indices
    /// are shifted into place per lane (`vpsrlvd`), offset by `base` and
    /// stored as one 8-lane write.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) fn compact(mask: u32, base: u32, out: &mut [u32], len: usize) -> usize {
        let packed = LEFT_PACK[(mask & 0xFF) as usize];
        let shifts = _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
        let lanes = _mm256_srlv_epi32(_mm256_set1_epi32(packed as i32), shifts);
        let lanes = _mm256_and_si256(lanes, _mm256_set1_epi32(0xF));
        let lanes = _mm256_add_epi32(lanes, _mm256_set1_epi32(base as i32));
        let dst = &mut out[len..len + 8];
        // SAFETY: the slice above bounds-checks the 8-lane window.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), lanes) };
        len + (packed >> 32) as usize
    }

    /// Lane-wise add.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn add(self, rhs: Self) -> Self {
        F8(_mm256_add_ps(self.0, rhs.0))
    }

    /// Lane-wise subtract.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn sub(self, rhs: Self) -> Self {
        F8(_mm256_sub_ps(self.0, rhs.0))
    }

    /// Lane-wise multiply.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn mul(self, rhs: Self) -> Self {
        F8(_mm256_mul_ps(self.0, rhs.0))
    }

    /// Lane-wise divide.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn div(self, rhs: Self) -> Self {
        F8(_mm256_div_ps(self.0, rhs.0))
    }
}

/// Two packed `f64` lanes — the accumulator side of the kernel: per-lane
/// `f32` partials are widened pairwise ([`F4::to_f64_lo`]/[`F4::to_f64_hi`])
/// and summed in f64 without leaving vector registers.
#[derive(Clone, Copy)]
pub struct D2(ReprD);

#[cfg(target_arch = "x86_64")]
type ReprD = __m128d;
#[cfg(not(target_arch = "x86_64"))]
type ReprD = [f64; 2];

#[cfg(target_arch = "x86_64")]
impl F4 {
    /// Widen lanes 0 and 1 to `f64`.
    #[inline(always)]
    pub fn to_f64_lo(self) -> D2 {
        // SAFETY: SSE2 baseline.
        unsafe { D2(_mm_cvtps_pd(self.0)) }
    }

    /// Widen lanes 2 and 3 to `f64`.
    #[inline(always)]
    pub fn to_f64_hi(self) -> D2 {
        // SAFETY: SSE2 baseline.
        unsafe { D2(_mm_cvtps_pd(_mm_movehl_ps(self.0, self.0))) }
    }
}

#[cfg(not(target_arch = "x86_64"))]
impl F4 {
    /// Widen lanes 0 and 1 to `f64`.
    #[inline(always)]
    pub fn to_f64_lo(self) -> D2 {
        D2([self.0[0] as f64, self.0[1] as f64])
    }

    /// Widen lanes 2 and 3 to `f64`.
    #[inline(always)]
    pub fn to_f64_hi(self) -> D2 {
        D2([self.0[2] as f64, self.0[3] as f64])
    }
}

impl D2 {
    /// Both lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 baseline.
        return unsafe { D2(_mm_setzero_pd()) };
        #[cfg(not(target_arch = "x86_64"))]
        return D2([0.0; 2]);
    }

    #[inline(always)]
    pub fn to_array(self) -> [f64; 2] {
        #[cfg(target_arch = "x86_64")]
        {
            let mut out = [0.0f64; 2];
            // SAFETY: `out` is a 16-byte f64x2 destination; storeu is
            // unaligned.
            unsafe { _mm_storeu_pd(out.as_mut_ptr(), self.0) };
            out
        }
        #[cfg(not(target_arch = "x86_64"))]
        self.0
    }
}

impl core::ops::Add for D2 {
    type Output = D2;
    #[inline(always)]
    fn add(self, rhs: D2) -> D2 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 baseline.
        return unsafe { D2(_mm_add_pd(self.0, rhs.0)) };
        #[cfg(not(target_arch = "x86_64"))]
        return D2([self.0[0] + rhs.0[0], self.0[1] + rhs.0[1]]);
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn lanes(f: impl Fn(usize) -> f32) -> [f32; 4] {
    [f(0), f(1), f(2), f(3)]
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn mask_bits(cond: bool) -> f32 {
    f32::from_bits(if cond { u32::MAX } else { 0 })
}

macro_rules! lane_op {
    ($trait:ident, $method:ident, $intrinsic:ident, $op:tt) => {
        impl core::ops::$trait for F4 {
            type Output = F4;
            #[inline(always)]
            fn $method(self, rhs: F4) -> F4 {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: SSE2 is unconditionally available on x86_64.
                return unsafe { F4($intrinsic(self.0, rhs.0)) };
                #[cfg(not(target_arch = "x86_64"))]
                return F4(lanes(|v| self.0[v] $op rhs.0[v]));
            }
        }
    };
}

lane_op!(Add, add, _mm_add_ps, +);
lane_op!(Sub, sub, _mm_sub_ps, -);
lane_op!(Mul, mul, _mm_mul_ps, *);
lane_op!(Div, div, _mm_div_ps, /);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_matches_scalar_bitwise() {
        let a = [1.5f32, -2.25, 1e-8, 3.75e6];
        let b = [0.3f32, 7.0, -4.5e3, 0.125];
        let va = F4::from_array(a);
        let vb = F4::from_array(b);
        for (vec, scl) in [
            ((va + vb).to_array(), [0, 1, 2, 3].map(|v| a[v] + b[v])),
            ((va - vb).to_array(), [0, 1, 2, 3].map(|v| a[v] - b[v])),
            ((va * vb).to_array(), [0, 1, 2, 3].map(|v| a[v] * b[v])),
            ((va / vb).to_array(), [0, 1, 2, 3].map(|v| a[v] / b[v])),
        ] {
            for v in 0..4 {
                assert_eq!(vec[v].to_bits(), scl[v].to_bits());
            }
        }
        let sq = F4::from_array([2.0, 0.5, 9.0, 1e-12]).sqrt().to_array();
        for (got, x) in sq.iter().zip([2.0f32, 0.5, 9.0, 1e-12]) {
            assert_eq!(got.to_bits(), x.sqrt().to_bits());
        }
    }

    #[test]
    fn masks_select_value_or_positive_zero() {
        let lo = F4::from_array([1.0, 5.0, 2.0, 0.0]);
        let hi = F4::from_array([3.0, 3.0, 3.0, 3.0]);
        let m = lo.lt(hi); // true, false, true, true
        let picked = m.and(F4::from_array([7.0, 7.0, -7.0, 7.0])).to_array();
        assert_eq!(picked[0].to_bits(), 7.0f32.to_bits());
        assert_eq!(picked[1].to_bits(), 0.0f32.to_bits());
        assert_eq!(picked[2].to_bits(), (-7.0f32).to_bits());
        assert_eq!(picked[3].to_bits(), 7.0f32.to_bits());
        let both = lo.gt(F4::splat(0.5)).and(m).and(F4::splat(1.0)).to_array();
        assert_eq!(both, [1.0, 0.0, 1.0, 0.0]);
        assert_eq!(m.movemask(), 0b1101);
        // `max` is `f32::max` on a NaN left operand, as the box sweep's
        // `(gap).max(0.0)` needs.
        let nan_left = F4::from_array([f32::NAN, -1.0, 2.0, -0.0]).max(F4::splat(0.0));
        assert_eq!(nan_left.to_array(), [0.0, 0.0, 2.0, 0.0]);
        assert_eq!(F4::splat(f32::NAN).lt(hi).movemask(), 0);
    }

    #[test]
    fn f64_widening_matches_scalar_casts() {
        let a = [1.5f32, -2.25e7, 3.0e-20, 0.1];
        let v = F4::from_array(a);
        let lo = (D2::zero() + v.to_f64_lo()).to_array();
        let hi = (v.to_f64_hi() + v.to_f64_hi()).to_array();
        assert_eq!(lo[0].to_bits(), (a[0] as f64).to_bits());
        assert_eq!(lo[1].to_bits(), (a[1] as f64).to_bits());
        assert_eq!(hi[0].to_bits(), (a[2] as f64 + a[2] as f64).to_bits());
        assert_eq!(hi[1].to_bits(), (a[3] as f64 + a[3] as f64).to_bits());
    }

    #[test]
    fn compact_left_packs_every_mask() {
        // Each width, every mask its movemask can produce: the set lanes'
        // `base + v` ascending at `len`, the rest of the window scratch.
        let naive = |mask: u32, lanes: u32| (0..lanes).filter(move |v| mask >> v & 1 == 1);
        for mask in 0..16u32 {
            let mut out = [7u32; 7];
            let len = F4::compact(mask, 100, &mut out, 2);
            assert_eq!(len, 2 + mask.count_ones() as usize);
            assert_eq!(out[..2], [7, 7]);
            let want: Vec<u32> = naive(mask, 4).map(|v| 100 + v).collect();
            assert_eq!(out[2..len], want[..]);
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            for mask in 0..256u32 {
                let mut out = [7u32; 11];
                // SAFETY: AVX2 presence checked above.
                let len = unsafe { F8::compact(mask, 1000, &mut out, 3) };
                assert_eq!(len, 3 + mask.count_ones() as usize);
                assert_eq!(out[..3], [7, 7, 7]);
                let want: Vec<u32> = naive(mask, 8).map(|v| 1000 + v).collect();
                assert_eq!(out[3..len], want[..]);
            }
        }
    }

    #[test]
    fn load_reads_windowed_lanes() {
        let src = [0.0f32, 1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(F4::load(&src, 2).to_array(), [2.0, 3.0, 4.0, 5.0]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn f8_halves_match_f4_ops_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let bits = |v: F4| v.to_array().map(f32::to_bits);
        // SAFETY: AVX2 presence checked above.
        unsafe {
            let a = F4::from_array([1.5, -2.25, 1e-8, 3.75e6]);
            let b = F4::from_array([0.3, 7.0, -4.5e3, 0.125]);
            let c = F4::from_array([9.0, 0.5, 2.0, -1.0]);
            let v = F8::join([a, b]);
            assert_eq!(bits(v.half(0)), bits(a));
            assert_eq!(bits(v.half(1)), bits(b));
            let w = F8::dup(c);
            assert_eq!(bits(w.half(0)), bits(c));
            assert_eq!(bits(w.half(1)), bits(c));
            let s = F8::rows(&[1.0, 4.0, -8.0, 2.0], 1);
            assert_eq!(bits(s.half(0)), bits(F4::rows(&[1.0, 4.0, -8.0, 2.0], 1)));
            assert_eq!(bits(s.half(1)), bits(F4::splat(-8.0)));

            for (got, lo, hi) in [
                (v.add(w), a + c, b + c),
                (v.sub(w), a - c, b - c),
                (v.mul(w), a * c, b * c),
                (v.div(w), a / c, b / c),
                (v.sqrt(), a.sqrt(), b.sqrt()),
                (v.lt(w), a.lt(c), b.lt(c)),
                (v.gt(w), a.gt(c), b.gt(c)),
                (v.lt(w).and(w), a.lt(c).and(c), b.lt(c).and(c)),
                (v.max(w), a.max(c), b.max(c)),
            ] {
                assert_eq!(bits(got.half(0)), bits(lo));
                assert_eq!(bits(got.half(1)), bits(hi));
            }

            assert_eq!(
                v.lt(w).movemask(),
                a.lt(c).movemask() | b.lt(c).movemask() << 4
            );
            let src = [0.0f32, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
            let loaded = F8::load(&src, 1);
            assert_eq!(bits(loaded.half(0)), bits(F4::load(&src, 1)));
            assert_eq!(bits(loaded.half(1)), bits(F4::load(&src, 5)));
        }
    }
}

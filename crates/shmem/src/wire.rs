//! Byte-level encoding for values that cross the process boundary.
//!
//! The `procs` world backend forks its PEs, so per-PE results (and the
//! socket proxy frames) can no longer be moved through memory — they are
//! encoded over a Unix domain socket instead. [`Wire`] is a deliberately
//! tiny, dependency-free, little-endian framing: enough for the exchange
//! layer's result types, not a general serializer. `ShmemWorld::run`
//! requires `R: Wire`, which is what keeps the threaded and process
//! backends interchangeable at every call site.

use halox_md::{Angle, AtomKind, Bond, EnergyReport, PbcBox, System, Vec3};
use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

/// A decode failure: the byte stream did not match the expected shape.
///
/// Decoding untrusted bytes — a socket frame from a dying child, a
/// checkpoint file interrupted mid-write — must never panic; every shape
/// violation maps to one of these variants so callers can distinguish "the
/// stream ended early" (retryable / fall back to an older file) from "the
/// bytes are nonsense" (corrupt, discard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated { needed: usize, have: usize },
    /// A complete value decoded but bytes remained (`from_bytes` only).
    Trailing { extra: usize },
    /// The bytes were present but do not form a valid value (bad
    /// discriminant, malformed UTF-8, out-of-domain field).
    Malformed(String),
}

impl WireError {
    pub fn malformed(msg: impl Into<String>) -> Self {
        WireError::Malformed(msg.into())
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(
                    f,
                    "wire decode error: truncated: need {needed} bytes, have {have}"
                )
            }
            WireError::Trailing { extra } => {
                write!(f, "wire decode error: {extra} trailing bytes after value")
            }
            WireError::Malformed(m) => write!(f, "wire decode error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`). Bitwise,
/// table-free: it guards checkpoint files written once per segment, so
/// simplicity beats throughput.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Cursor over a received byte buffer.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// Encode/decode over the socket proxy framing. Implementations must
/// round-trip: `decode(encode(x)) == x` structurally.
pub trait Wire: Sized {
    fn encode(&self, out: &mut Vec<u8>);
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::new();
        self.encode(&mut v);
        v
    }

    /// Decode a full buffer, requiring it to be consumed exactly.
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::Trailing {
                extra: r.remaining(),
            });
        }
        Ok(v)
    }
}

/// Implement [`Wire`] for a struct or an enum from one list, whose order
/// is the byte format: `encode` and `decode` both expand from it, so they
/// cannot disagree, and the compiler rejects a list that misses a field or
/// a variant.
///
/// - `struct T { a, b }`: the fields, in that order.
/// - `enum T { 0 => A, 1 => B(x, y), 2 => C { a, b } }`: one tag byte, then
///   the variant's fields in the order named (tuple fields are bound to the
///   names given). Any other tag decodes to `Malformed("bad T tag {t}")`.
/// - A struct field whose type has no `Wire` impl names its codec:
///   `f with (encode_f, decode_f)`, taking `(&F, &mut Vec<u8>)` and
///   `&mut WireReader` respectively.
///
/// ```
/// use halox_shmem::{wire_codec, Wire};
///
/// #[derive(Debug, PartialEq)]
/// struct Probe { rank: usize, ns: u64 }
/// wire_codec!(struct Probe { rank, ns });
///
/// #[derive(Debug, PartialEq)]
/// enum Event { Idle, Wait(u32), Done { rank: usize } }
/// wire_codec!(enum Event { 0 => Idle, 1 => Wait(slot), 2 => Done { rank } });
///
/// let p = Probe { rank: 3, ns: 7 };
/// assert_eq!(Probe::from_bytes(&p.to_bytes()), Ok(p));
/// assert_eq!(Event::Wait(5).to_bytes(), [1, 5, 0, 0, 0]);
/// assert!(Event::from_bytes(&[9]).is_err());
/// ```
#[macro_export]
macro_rules! wire_codec {
    (struct $T:ident { $($f:ident $(with ($enc:path, $dec:path))?),+ $(,)? }) => {
        impl $crate::wire::Wire for $T {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::wire_codec!(@encode out, &self.$f $(, $enc)?);)+
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                ::std::result::Result::Ok($T {
                    $($f: $crate::wire_codec!(@decode r $(, $dec)?),)+
                })
            }
        }
    };
    (enum $T:ident {
        $($tag:literal => $V:ident $(($($t:ident),+))? $({ $($f:ident),+ })?),+ $(,)?
    }) => {
        impl $crate::wire::Wire for $T {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $($T::$V $(($($t),+))? $({ $($f),+ })? => {
                        out.push($tag);
                        $($($crate::wire::Wire::encode($t, out);)+)?
                        $($($crate::wire::Wire::encode($f, out);)+)?
                    })+
                }
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                ::std::result::Result::Ok(match <u8 as $crate::wire::Wire>::decode(r)? {
                    $($tag => {
                        $($(let $t = $crate::wire::Wire::decode(r)?;)+)?
                        $($(let $f = $crate::wire::Wire::decode(r)?;)+)?
                        $T::$V $(($($t),+))? $({ $($f),+ })?
                    })+
                    t => {
                        return ::std::result::Result::Err($crate::wire::WireError::malformed(
                            ::std::format!("bad {} tag {t}", ::std::stringify!($T)),
                        ))
                    }
                })
            }
        }
    };
    (@encode $out:ident, $v:expr) => { $crate::wire::Wire::encode($v, $out) };
    (@encode $out:ident, $v:expr, $enc:path) => { $enc($v, $out) };
    (@decode $r:ident) => { $crate::wire::Wire::decode($r)? };
    (@decode $r:ident, $dec:path) => { $dec($r)? };
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                const N: usize = std::mem::size_of::<$t>();
                let b: [u8; N] = r.take(N)?.try_into().map_err(|_| WireError::Truncated {
                    needed: N,
                    have: 0,
                })?;
                Ok(<$t>::from_le_bytes(b))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i32, i64);

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(u64::decode(r)? as usize)
    }
}

impl Wire for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f32::from_bits(u32::decode(r)?))
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::malformed(format!("bad bool byte {b}"))),
        }
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = usize::decode(r)?;
        let b = r.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|e| WireError::malformed(format!("bad utf8: {e}")))
    }
}

/// Labels that are `&'static str` on the encoding side (phase names,
/// backend and collective labels). A decoded label is leaked once into an
/// intern pool and every later decode of the same text returns that same
/// pointer, so the leak is bounded by the set of distinct labels, not by
/// the number of frames. Same bytes as `String`.
impl Wire for &'static str {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
        let name = String::decode(r)?;
        let mut pool = POOL
            .get_or_init(|| Mutex::new(BTreeSet::new()))
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if let Some(&s) = pool.get(name.as_str()) {
            return Ok(s);
        }
        let leaked: &'static str = Box::leak(name.into_boxed_str());
        pool.insert(leaked);
        Ok(leaked)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = usize::decode(r)?;
        // Cap the pre-allocation: a corrupt length must not OOM the parent.
        let mut v = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_ref().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(WireError::malformed(format!("bad Option tag {b}"))),
        }
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.encode(out);
            }
            Err(e) => {
                out.push(1);
                e.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(Ok(T::decode(r)?)),
            1 => Ok(Err(E::decode(r)?)),
            b => Err(WireError::malformed(format!("bad Result tag {b}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl Wire for std::time::Duration {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.as_nanos() as u64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(std::time::Duration::from_nanos(u64::decode(r)?))
    }
}

// halox-md types: implemented here (this crate depends on halox-md, the
// reverse is not true) so every crate above gets them for free.

wire_codec!(struct Vec3 { x, y, z });
wire_codec!(struct EnergyReport { nonbonded, bonds, angles, kinetic, virial });
wire_codec!(enum AtomKind { 0 => Ow, 1 => Hw, 2 => Ch3, 3 => Ch2, 4 => Oh });
wire_codec!(struct Bond { i, j, r0, k });
wire_codec!(struct Angle { i, j, k_atom, theta0, k });

impl Wire for PbcBox {
    fn encode(&self, out: &mut Vec<u8>) {
        self.lengths().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // `PbcBox::new` asserts; corrupt bytes must surface as an error,
        // so validate its invariants here first.
        let l = Vec3::decode(r)?;
        if !l.is_finite() || l.x <= 0.0 || l.y <= 0.0 || l.z <= 0.0 {
            return Err(WireError::malformed(format!("bad box lengths {l:?}")));
        }
        Ok(PbcBox::new(l))
    }
}

wire_codec!(struct System {
    pbc,
    positions,
    velocities,
    kinds,
    inv_mass,
    bonds,
    angles,
    molecule_of,
    exclusions,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    /// Every strict prefix of a valid encoding must decode to a typed
    /// error — never a panic, and never `Trailing` (the buffer is too
    /// short, not too long).
    fn every_prefix_errors<T: Wire + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        for cut in 0..bytes.len() {
            match T::from_bytes(&bytes[..cut]) {
                Ok(_) => panic!("strict prefix {cut}/{} decoded: {v:?}", bytes.len()),
                Err(WireError::Trailing { .. }) => {
                    panic!("prefix {cut}/{} reported Trailing: {v:?}", bytes.len())
                }
                Err(_) => {}
            }
        }
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(-5i64);
        round_trip(1.5f32);
        round_trip(f64::NEG_INFINITY);
        round_trip(true);
        round_trip(());
        round_trip("halo".to_string());
        round_trip(String::new());
    }

    #[test]
    fn float_round_trip_is_bitwise() {
        // NaN payloads and signed zeros must survive: bitwise determinism
        // across backends is asserted on bits, not values.
        let nan = f32::from_bits(0x7fc0_1234);
        let bytes = nan.to_bytes();
        assert_eq!(f32::from_bytes(&bytes).unwrap().to_bits(), nan.to_bits());
        let nz = (-0.0f64).to_bytes();
        assert_eq!(f64::from_bytes(&nz).unwrap().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(7u32));
        round_trip(Option::<String>::None);
        round_trip(Result::<u32, String>::Ok(3));
        round_trip(Result::<u32, String>::Err("boom".into()));
        round_trip((1u32, "x".to_string()));
        round_trip((1u8, 2u16, 3u32));
        round_trip(std::time::Duration::from_micros(1234));
    }

    #[test]
    fn md_types_round_trip() {
        round_trip(Vec3::new(1.0, -2.5, 3.25));
        round_trip(EnergyReport {
            nonbonded: 1.0,
            bonds: 2.0,
            angles: 3.0,
            kinetic: 4.0,
            virial: 5.0,
        });
    }

    #[test]
    fn truncated_and_malformed_inputs_are_errors_not_panics() {
        assert!(matches!(
            u64::from_bytes(&[1, 2, 3]),
            Err(WireError::Truncated { needed: 8, have: 3 })
        ));
        assert!(matches!(
            bool::from_bytes(&[9]),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            Option::<u8>::from_bytes(&[7]),
            Err(WireError::Malformed(_))
        ));
        // Corrupt huge length: must error on truncation, not OOM.
        let mut huge = Vec::new();
        (u64::MAX).encode(&mut huge);
        assert!(matches!(
            Vec::<u8>::from_bytes(&huge),
            Err(WireError::Truncated { .. })
        ));
        // Trailing garbage rejected.
        assert!(matches!(
            u8::from_bytes(&[1, 2]),
            Err(WireError::Trailing { extra: 1 })
        ));
    }

    fn tiny_system() -> System {
        System {
            pbc: PbcBox::new(Vec3::new(3.0, 4.0, 5.0)),
            positions: vec![Vec3::new(0.1, 0.2, 0.3), Vec3::new(1.0, 1.5, 2.0)],
            velocities: vec![Vec3::new(-0.3, 0.0, 0.7), Vec3::new(0.0, -0.0, 4.5)],
            kinds: vec![AtomKind::Ow, AtomKind::Hw],
            inv_mass: vec![0.0625, 0.992],
            bonds: vec![Bond {
                i: 0,
                j: 1,
                r0: 0.1,
                k: 345_000.0,
            }],
            angles: vec![Angle {
                i: 0,
                j: 1,
                k_atom: 0,
                theta0: 1.91,
                k: 383.0,
            }],
            molecule_of: vec![0, 0],
            exclusions: vec![vec![1], vec![0]],
        }
    }

    #[test]
    fn md_topology_types_round_trip() {
        for k in [
            AtomKind::Ow,
            AtomKind::Hw,
            AtomKind::Ch3,
            AtomKind::Ch2,
            AtomKind::Oh,
        ] {
            round_trip(k);
        }
        round_trip(tiny_system().bonds[0]);
        round_trip(tiny_system().angles[0]);
        round_trip(PbcBox::new(Vec3::new(3.0, 4.0, 5.0)));
        round_trip(tiny_system());
    }

    #[test]
    fn every_from_bytes_impl_rejects_all_strict_prefixes() {
        every_prefix_errors(&0xDEAD_BEEF_u32);
        every_prefix_errors(&u64::MAX);
        every_prefix_errors(&-7i64);
        every_prefix_errors(&1.5f32);
        every_prefix_errors(&f64::NEG_INFINITY);
        every_prefix_errors(&true);
        every_prefix_errors(&"halo exchange".to_string());
        every_prefix_errors(&vec![1u32, 2, 3]);
        every_prefix_errors(&Some(7u32));
        every_prefix_errors(&Result::<u32, String>::Err("boom".into()));
        every_prefix_errors(&(1u32, "x".to_string()));
        every_prefix_errors(&(1u8, 2u16, 3u32));
        every_prefix_errors(&std::time::Duration::from_micros(1234));
        every_prefix_errors(&Vec3::new(1.0, -2.5, 3.25));
        every_prefix_errors(&EnergyReport {
            nonbonded: 1.0,
            bonds: 2.0,
            angles: 3.0,
            kinetic: 4.0,
            virial: 5.0,
        });
        every_prefix_errors(&AtomKind::Oh);
        every_prefix_errors(&tiny_system().bonds[0]);
        every_prefix_errors(&tiny_system().angles[0]);
        every_prefix_errors(&PbcBox::cubic(9.0));
        every_prefix_errors(&tiny_system());
    }

    #[test]
    fn garbage_bytes_never_panic_md_decoders() {
        // Bad discriminant / invariant violations are Malformed, not panics.
        assert!(matches!(
            AtomKind::from_bytes(&[200]),
            Err(WireError::Malformed(_))
        ));
        // A box with a negative edge: PbcBox::new would assert; the wire
        // decoder must reject it as data corruption instead.
        let mut bad_box = Vec::new();
        Vec3::new(-1.0, 2.0, 3.0).encode(&mut bad_box);
        assert!(matches!(
            PbcBox::from_bytes(&bad_box),
            Err(WireError::Malformed(_))
        ));
        let mut nan_box = Vec::new();
        Vec3::new(f32::NAN, 2.0, 3.0).encode(&mut nan_box);
        assert!(matches!(
            PbcBox::from_bytes(&nan_box),
            Err(WireError::Malformed(_))
        ));
        // A System whose pbc bytes are garbage.
        let mut sys_bytes = tiny_system().to_bytes();
        sys_bytes[0] = 0xFF;
        sys_bytes[3] = 0xFF;
        assert!(System::from_bytes(&sys_bytes).is_err());
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // The IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // A single flipped bit changes the sum.
        let a = crc32(b"checkpoint");
        let b = crc32(b"checkpoin\x75");
        assert_ne!(a, b);
    }
}

//! Minimal 3-vector math in single precision.
//!
//! GROMACS runs production simulations in mixed precision: coordinates,
//! velocities and forces are `f32` ("rvec"), while energies and other
//! sensitive accumulators use `f64`. We mirror that split: [`Vec3`] is the
//! f32 working type, [`DVec3`] the f64 accumulator type.

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// Single-precision 3-vector (positions, velocities, forces).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[repr(C)]
pub struct Vec3 {
    pub x: f32,
    pub y: f32,
    pub z: f32,
}

/// Double-precision 3-vector (energy/virial style accumulators).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[repr(C)]
pub struct DVec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    #[inline(always)]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// All three components set to `v`.
    #[inline(always)]
    pub const fn splat(v: f32) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    #[inline(always)]
    pub fn dot(self, o: Vec3) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline(always)]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    #[inline(always)]
    pub fn norm2(self) -> f32 {
        self.dot(self)
    }

    #[inline(always)]
    pub fn norm(self) -> f32 {
        self.norm2().sqrt()
    }

    /// Unit vector in the direction of `self`; zero vector maps to zero.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n > 0.0 {
            self / n
        } else {
            Vec3::ZERO
        }
    }

    /// Component-wise minimum.
    #[inline(always)]
    pub fn min(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline(always)]
    pub fn max(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Widen to double precision.
    #[inline(always)]
    pub fn to_dvec(self) -> DVec3 {
        DVec3 {
            x: self.x as f64,
            y: self.y as f64,
            z: self.z as f64,
        }
    }

    /// True if all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl DVec3 {
    pub const ZERO: DVec3 = DVec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    #[inline(always)]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        DVec3 { x, y, z }
    }

    #[inline(always)]
    pub fn dot(self, o: DVec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline(always)]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }
}

macro_rules! impl_vec_ops {
    ($t:ty, $s:ty) => {
        impl Add for $t {
            type Output = $t;
            #[inline(always)]
            fn add(self, o: $t) -> $t {
                <$t>::new(self.x + o.x, self.y + o.y, self.z + o.z)
            }
        }
        impl Sub for $t {
            type Output = $t;
            #[inline(always)]
            fn sub(self, o: $t) -> $t {
                <$t>::new(self.x - o.x, self.y - o.y, self.z - o.z)
            }
        }
        impl Neg for $t {
            type Output = $t;
            #[inline(always)]
            fn neg(self) -> $t {
                <$t>::new(-self.x, -self.y, -self.z)
            }
        }
        impl Mul<$s> for $t {
            type Output = $t;
            #[inline(always)]
            fn mul(self, s: $s) -> $t {
                <$t>::new(self.x * s, self.y * s, self.z * s)
            }
        }
        impl Div<$s> for $t {
            type Output = $t;
            #[inline(always)]
            fn div(self, s: $s) -> $t {
                <$t>::new(self.x / s, self.y / s, self.z / s)
            }
        }
        impl AddAssign for $t {
            #[inline(always)]
            fn add_assign(&mut self, o: $t) {
                *self = *self + o;
            }
        }
        impl SubAssign for $t {
            #[inline(always)]
            fn sub_assign(&mut self, o: $t) {
                *self = *self - o;
            }
        }
        impl MulAssign<$s> for $t {
            #[inline(always)]
            fn mul_assign(&mut self, s: $s) {
                *self = *self * s;
            }
        }
        impl DivAssign<$s> for $t {
            #[inline(always)]
            fn div_assign(&mut self, s: $s) {
                *self = *self / s;
            }
        }
        impl Sum for $t {
            fn sum<I: Iterator<Item = $t>>(iter: I) -> $t {
                iter.fold(<$t>::ZERO, |a, b| a + b)
            }
        }
        impl Index<usize> for $t {
            type Output = $s;
            #[inline(always)]
            fn index(&self, i: usize) -> &$s {
                match i {
                    0 => &self.x,
                    1 => &self.y,
                    2 => &self.z,
                    _ => panic!("Vec3 index out of range: {i}"),
                }
            }
        }
        impl IndexMut<usize> for $t {
            #[inline(always)]
            fn index_mut(&mut self, i: usize) -> &mut $s {
                match i {
                    0 => &mut self.x,
                    1 => &mut self.y,
                    2 => &mut self.z,
                    _ => panic!("Vec3 index out of range: {i}"),
                }
            }
        }
    };
}

impl_vec_ops!(Vec3, f32);
impl_vec_ops!(DVec3, f64);

impl From<[f32; 3]> for Vec3 {
    #[inline]
    fn from(a: [f32; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f32; 3] {
    #[inline]
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::splat(3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(b / 2.0, Vec3::new(2.0, 2.5, 3.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_and_cross() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.cross(y), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(y.cross(x), Vec3::new(0.0, 0.0, -1.0));
        let a = Vec3::new(3.0, -2.0, 0.5);
        // Cross product is orthogonal to both operands.
        let c = a.cross(y);
        assert!(c.dot(a).abs() < 1e-6);
        assert!(c.dot(y).abs() < 1e-6);
    }

    #[test]
    fn norms() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm2(), 25.0);
        assert_eq!(v.norm(), 5.0);
        let n = v.normalized();
        assert!((n.norm() - 1.0).abs() < 1e-6);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn indexing_round_trip() {
        let mut v = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(v[0], 7.0);
        assert_eq!(v[1], 8.0);
        assert_eq!(v[2], 9.0);
        v[1] = -1.0;
        assert_eq!(v.y, -1.0);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let v = Vec3::ZERO;
        let _ = v[3];
    }

    #[test]
    fn precision_conversions() {
        let v = Vec3::new(1.5, -2.25, 3.125);
        let d = v.to_dvec();
        assert_eq!(d, DVec3::new(1.5, -2.25, 3.125));
    }

    #[test]
    fn component_min_max() {
        let a = Vec3::new(1.0, 5.0, 3.0);
        let b = Vec3::new(2.0, 4.0, 3.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 4.0, 3.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, 3.0));
    }

    #[test]
    fn sum_iterator() {
        let vs = [Vec3::splat(1.0), Vec3::splat(2.0), Vec3::splat(3.0)];
        let s: Vec3 = vs.into_iter().sum();
        assert_eq!(s, Vec3::splat(6.0));
    }
}

//! Minimal 3-D geometry primitives shared across the workspace.
//!
//! The paper's pipeline is wall-to-wall 3-D geometry: voxel coordinates,
//! mesh nodes, displacement vectors, rigid transforms. We keep one small,
//! dependency-free implementation here rather than pulling in a linear
//! algebra crate.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-D vector of `f64` components.
///
/// ```
/// use brainshift_imaging::Vec3;
/// let a = Vec3::new(1.0, 2.0, 2.0);
/// assert_eq!(a.norm(), 3.0);
/// assert_eq!(a.cross(Vec3::new(0.0, 0.0, 1.0)).dot(a), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    #[inline]
    /// A vector from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// All components set to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3::new(v, v, v)
    }

    #[inline]
    /// Dot product.
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    /// Cross product.
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    #[inline]
    /// Squared Euclidean norm.
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Unit vector in the same direction; returns `Vec3::ZERO` for the zero
    /// vector rather than producing NaNs.
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
    #[inline]
    pub fn min(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, o: Vec3) -> f64 {
        (self - o).norm()
    }

    /// Linear interpolation: `self + t * (o - self)`.
    #[inline]
    pub fn lerp(self, o: Vec3, t: f64) -> Vec3 {
        self + (o - self) * t
    }

    /// Component access by axis index (0 = x, 1 = y, 2 = z).
    ///
    /// Panics on an index above 2, like indexing a 3-element array: the
    /// axis is always a loop counter or a literal, so an out-of-range
    /// value is a programming error, not bad input.
    #[inline]
    #[allow(clippy::panic)]
    pub fn axis(self, i: usize) -> f64 {
        match i {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("Vec3 axis index {i} out of range"),
        }
    }

    /// True when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A row-major 3×3 matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Row-major entries `m[row][col]`.
    pub m: [[f64; 3]; 3],
}

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3 {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    #[inline]
    /// A matrix from three rows.
    pub const fn from_rows(r0: [f64; 3], r1: [f64; 3], r2: [f64; 3]) -> Self {
        Mat3 { m: [r0, r1, r2] }
    }

    /// Rotation about the x axis by `a` radians.
    pub fn rot_x(a: f64) -> Mat3 {
        let (s, c) = a.sin_cos();
        Mat3::from_rows([1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c])
    }

    /// Rotation about the y axis by `a` radians.
    pub fn rot_y(a: f64) -> Mat3 {
        let (s, c) = a.sin_cos();
        Mat3::from_rows([c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c])
    }

    /// Rotation about the z axis by `a` radians.
    pub fn rot_z(a: f64) -> Mat3 {
        let (s, c) = a.sin_cos();
        Mat3::from_rows([c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0])
    }

    /// Euler-angle rotation Rz(yaw) * Ry(pitch) * Rx(roll).
    pub fn from_euler(roll: f64, pitch: f64, yaw: f64) -> Mat3 {
        Mat3::rot_z(yaw) * Mat3::rot_y(pitch) * Mat3::rot_x(roll)
    }

    #[inline]
    /// Matrix transpose.
    pub fn transpose(self) -> Mat3 {
        let m = self.m;
        Mat3::from_rows(
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        )
    }

    /// Determinant.
    pub fn determinant(self) -> f64 {
        let m = self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Matrix inverse. Returns `None` when the determinant is (near) zero.
    pub fn inverse(self) -> Option<Mat3> {
        let det = self.determinant();
        if det.abs() < 1e-300 {
            return None;
        }
        let m = self.m;
        let inv_det = 1.0 / det;
        let c = |r1: usize, c1: usize, r2: usize, c2: usize| m[r1][c1] * m[r2][c2] - m[r1][c2] * m[r2][c1];
        Some(Mat3::from_rows(
            [c(1, 1, 2, 2) * inv_det, -c(0, 1, 2, 2) * inv_det, c(0, 1, 1, 2) * inv_det],
            [-c(1, 0, 2, 2) * inv_det, c(0, 0, 2, 2) * inv_det, -c(0, 0, 1, 2) * inv_det],
            [c(1, 0, 2, 1) * inv_det, -c(0, 0, 2, 1) * inv_det, c(0, 0, 1, 1) * inv_det],
        ))
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, o: Mat3) -> Mat3 {
        let mut r = [[0.0; 3]; 3];
        for (i, row) in r.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (0..3).map(|k| self.m[i][k] * o.m[k][j]).sum();
            }
        }
        Mat3 { m: r }
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.m[0][0] * v.x + self.m[0][1] * v.y + self.m[0][2] * v.z,
            self.m[1][0] * v.x + self.m[1][1] * v.y + self.m[1][2] * v.z,
            self.m[2][0] * v.x + self.m[2][1] * v.y + self.m[2][2] * v.z,
        )
    }
}

impl brainshift_persist::Persist for Vec3 {
    fn encode(
        &self,
        enc: &mut brainshift_persist::Encoder,
    ) -> Result<(), brainshift_persist::PersistError> {
        enc.put_f64(self.x);
        enc.put_f64(self.y);
        enc.put_f64(self.z);
        Ok(())
    }
    fn decode(
        dec: &mut brainshift_persist::Decoder<'_>,
    ) -> Result<Self, brainshift_persist::PersistError> {
        Ok(Vec3 { x: dec.get_f64()?, y: dec.get_f64()?, z: dec.get_f64()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn vec3_basic_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::splat(3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_close(a.dot(b), 32.0, 1e-12);
    }

    #[test]
    fn vec3_cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 4.0);
        let c = a.cross(b);
        assert_close(c.dot(a), 0.0, 1e-12);
        assert_close(c.dot(b), 0.0, 1e-12);
    }

    #[test]
    fn vec3_normalized_unit_and_zero() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_close(v.normalized().norm(), 1.0, 1e-12);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn vec3_lerp_endpoints_and_midpoint() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn mat3_rotation_preserves_norm() {
        let r = Mat3::from_euler(0.3, -0.7, 1.2);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_close((r * v).norm(), v.norm(), 1e-12);
        assert_close(r.determinant(), 1.0, 1e-12);
    }

    #[test]
    fn mat3_inverse_roundtrip() {
        let r = Mat3::from_euler(0.5, 0.25, -0.9);
        let inv = r.inverse().unwrap();
        let id = r * inv;
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert_close(id.m[i][j], expect, 1e-12);
            }
        }
    }

    #[test]
    fn mat3_rotation_inverse_is_transpose() {
        let r = Mat3::from_euler(0.1, 0.2, 0.3);
        let inv = r.inverse().unwrap();
        let t = r.transpose();
        for i in 0..3 {
            for j in 0..3 {
                assert_close(inv.m[i][j], t.m[i][j], 1e-12);
            }
        }
    }

    #[test]
    fn mat3_singular_has_no_inverse() {
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn vec3_axis_access() {
        let v = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(v.axis(0), 7.0);
        assert_eq!(v.axis(1), 8.0);
        assert_eq!(v.axis(2), 9.0);
    }
}

"""3-D vectors, orientations, and poses for the simulated lab.

The coordinate convention throughout the library mirrors the paper's
experimental setup (Figure 1):

* **x** — horizontal, parallel to the antenna face (the direction carts
  move in the tracking experiments);
* **y** — vertical (height above the floor);
* **z** — boresight, pointing *away* from the reader antenna into the
  read zone.

An :class:`Orientation` stores a full rotation so that both a tag's
dipole axis and its patch normal are well defined; the paper's six tag
orientations (Figure 3) are provided as named constructors in
:mod:`repro.world.tags`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple


@dataclass(frozen=True)
class Vec3:
    """An immutable 3-D vector with the handful of operations we need."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, scalar: float) -> "Vec3":
        return Vec3(self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec3":
        return Vec3(self.x / scalar, self.y / scalar, self.z / scalar)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
        yield self.z

    def dot(self, other: "Vec3") -> float:
        """Scalar (dot) product."""
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        """Vector (cross) product, right-handed."""
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        """Euclidean length."""
        return math.sqrt(self.dot(self))

    def normalized(self) -> "Vec3":
        """Unit vector in the same direction.

        Raises
        ------
        ValueError
            If the vector is (numerically) zero.
        """
        n = self.norm()
        if n < 1e-12:
            raise ValueError("cannot normalize a zero vector")
        return self / n

    def distance_to(self, other: "Vec3") -> float:
        """Euclidean distance to ``other``."""
        return (self - other).norm()

    def angle_to(self, other: "Vec3") -> float:
        """Angle in radians between this vector and ``other`` (0..pi)."""
        denom = self.norm() * other.norm()
        if denom < 1e-24:
            raise ValueError("angle with a zero vector is undefined")
        cosine = max(-1.0, min(1.0, self.dot(other) / denom))
        return math.acos(cosine)

    def is_close(self, other: "Vec3", tol: float = 1e-9) -> bool:
        """True when all components match within ``tol``."""
        return (
            abs(self.x - other.x) <= tol
            and abs(self.y - other.y) <= tol
            and abs(self.z - other.z) <= tol
        )

    @staticmethod
    def zero() -> "Vec3":
        return Vec3(0.0, 0.0, 0.0)

    @staticmethod
    def unit_x() -> "Vec3":
        return Vec3(1.0, 0.0, 0.0)

    @staticmethod
    def unit_y() -> "Vec3":
        return Vec3(0.0, 1.0, 0.0)

    @staticmethod
    def unit_z() -> "Vec3":
        return Vec3(0.0, 0.0, 1.0)


ORIGIN = Vec3.zero()


@dataclass(frozen=True)
class Rotation:
    """A rotation stored as a 3x3 row-major orthonormal matrix."""

    rows: Tuple[Tuple[float, float, float], ...]

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))

    @staticmethod
    def about_axis(axis: Vec3, angle_rad: float) -> "Rotation":
        """Rodrigues rotation about ``axis`` by ``angle_rad`` (right-hand rule)."""
        u = axis.normalized()
        c = math.cos(angle_rad)
        s = math.sin(angle_rad)
        t = 1.0 - c
        return Rotation(
            (
                (c + u.x * u.x * t, u.x * u.y * t - u.z * s, u.x * u.z * t + u.y * s),
                (u.y * u.x * t + u.z * s, c + u.y * u.y * t, u.y * u.z * t - u.x * s),
                (u.z * u.x * t - u.y * s, u.z * u.y * t + u.x * s, c + u.z * u.z * t),
            )
        )

    @staticmethod
    def from_euler(yaw: float, pitch: float, roll: float) -> "Rotation":
        """Compose intrinsic rotations: yaw about y, then pitch about x, then roll about z."""
        r_yaw = Rotation.about_axis(Vec3.unit_y(), yaw)
        r_pitch = Rotation.about_axis(Vec3.unit_x(), pitch)
        r_roll = Rotation.about_axis(Vec3.unit_z(), roll)
        return r_yaw.compose(r_pitch).compose(r_roll)

    def apply(self, v: Vec3) -> Vec3:
        """Rotate vector ``v``."""
        r = self.rows
        return Vec3(
            r[0][0] * v.x + r[0][1] * v.y + r[0][2] * v.z,
            r[1][0] * v.x + r[1][1] * v.y + r[1][2] * v.z,
            r[2][0] * v.x + r[2][1] * v.y + r[2][2] * v.z,
        )

    def compose(self, other: "Rotation") -> "Rotation":
        """Return the rotation equivalent to applying ``other`` first, then ``self``."""
        a = self.rows
        b = other.rows
        rows = tuple(
            tuple(
                sum(a[i][k] * b[k][j] for k in range(3))
                for j in range(3)
            )
            for i in range(3)
        )
        return Rotation(rows)  # type: ignore[arg-type]

    def inverse(self) -> "Rotation":
        """Inverse rotation (transpose, since the matrix is orthonormal)."""
        r = self.rows
        return Rotation(
            (
                (r[0][0], r[1][0], r[2][0]),
                (r[0][1], r[1][1], r[2][1]),
                (r[0][2], r[1][2], r[2][2]),
            )
        )


@dataclass(frozen=True)
class Pose:
    """A rigid-body pose: position plus orientation."""

    position: Vec3
    rotation: Rotation

    @staticmethod
    def at(position: Vec3) -> "Pose":
        """Pose at ``position`` with identity orientation."""
        return Pose(position, Rotation.identity())

    def transform_point(self, local: Vec3) -> Vec3:
        """Map a point from the body frame to the world frame."""
        return self.position + self.rotation.apply(local)

    def transform_direction(self, local: Vec3) -> Vec3:
        """Map a direction (no translation) from body to world frame."""
        return self.rotation.apply(local)

    def translated(self, offset: Vec3) -> "Pose":
        """A copy of this pose shifted by ``offset`` in the world frame."""
        return Pose(self.position + offset, self.rotation)


def segment_sphere_chord_length(
    start: Vec3, end: Vec3, centre: Vec3, radius: float
) -> float:
    """Length of the part of segment ``start``-``end`` inside the sphere.

    Attenuation through lossy material scales with the traversed
    thickness, so occlusion models need the chord length and not just a
    hit/miss answer. Returns 0.0 when the segment misses the sphere.
    """
    d = end - start
    seg_len = d.norm()
    if seg_len < 1e-12:
        return 0.0
    u = d / seg_len
    oc = start - centre
    b = oc.dot(u)
    c = oc.dot(oc) - radius * radius
    disc = b * b - c
    if disc <= 0.0:
        return 0.0
    sqrt_disc = math.sqrt(disc)
    t0 = -b - sqrt_disc
    t1 = -b + sqrt_disc
    # Clip the chord to the segment extent.
    t0 = max(t0, 0.0)
    t1 = min(t1, seg_len)
    return max(0.0, t1 - t0)


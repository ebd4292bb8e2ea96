"""Geometry primitives, cameras, viewcells, and the shared projection math.

Conventions used throughout the package:

* World units are meters, right-handed coordinates.
* A camera basis is an orthonormal (right, up, forward) triple.
* Normalized device coordinates (u, v, w) live in [0, 1]^3 with u along
  the camera's right axis, v along up (row 0 of an image buffer is the
  bottom scanline), and w the depth axis, linear in forward depth z from
  the near plane (w=0) to the far plane (w=1); :func:`depth_to_w` is the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

AREA_EPS = 1e-12      # triangles with area <= this are dropped as degenerate
BASIS_TOL = 1e-6      # orthonormality tolerance for camera bases


@dataclass(frozen=True)
class Vec3:
    """Immutable 3-component vector (meters)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"Vec3 components must be finite, got {(self.x, self.y, self.z)}")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return self * (1.0 / n)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


def rotate_about(v: Vec3, axis: Vec3, angle_deg: float) -> Vec3:
    """Rodrigues rotation of ``v`` around the unit ``axis`` by ``angle_deg``."""
    a = math.radians(angle_deg)
    k = axis.normalized()
    c, s = math.cos(a), math.sin(a)
    return v * c + k.cross(v) * s + k * (k.dot(v) * (1.0 - c))


# ---------------------------------------------------------------------------
# Triangle scenes
# ---------------------------------------------------------------------------

class TriScene:
    """Indexed triangle mesh set with one primitive id per triangle.

    Degenerate triangles (area <= ``AREA_EPS``) are dropped at construction
    and counted in ``dropped_degenerate``.
    """

    def __init__(self, vertices, triangles, primitive_ids=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64).reshape(-1, 3)
        tris = np.ascontiguousarray(triangles, dtype=np.int64).reshape(-1, 3)
        if tris.size and (tris.min() < 0 or tris.max() >= len(self.vertices)):
            raise ValueError("triangle index out of range")
        if primitive_ids is None:
            primitive_ids = np.arange(len(tris), dtype=np.int64)
        pids = np.ascontiguousarray(primitive_ids, dtype=np.int64).reshape(-1)
        if len(pids) != len(tris):
            raise ValueError("primitive_ids must have one entry per triangle")

        keep = self._area_mask(self.vertices, tris)
        self.dropped_degenerate = int(len(tris) - keep.sum())
        self.triangles = tris[keep]
        self.primitive_ids = pids[keep]

    @staticmethod
    def _area_mask(verts, tris):
        if len(tris) == 0:
            return np.zeros(0, dtype=bool)
        p = verts[tris]
        cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        area = 0.5 * np.linalg.norm(cross, axis=1)
        return area > AREA_EPS

    def __len__(self) -> int:
        return len(self.triangles)


class SceneBuilder:
    """Accumulates mesh fragments into one TriScene with per-triangle ids."""

    def __init__(self):
        self._verts = []
        self._tris = []
        self._nv = 0

    def add(self, vertices, triangles):
        vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
        self._verts.append(vertices)
        self._tris.append(triangles + self._nv)
        self._nv += len(vertices)

    def build(self) -> TriScene:
        verts = np.concatenate(self._verts) if self._verts else np.zeros((0, 3))
        tris = np.concatenate(self._tris) if self._tris else np.zeros((0, 3), dtype=np.int64)
        return TriScene(verts, tris)


# ---------------------------------------------------------------------------
# Cameras and viewcells
# ---------------------------------------------------------------------------

@dataclass
class Camera:
    """Pinhole camera with a square (1:1) field of view.

    Renders depth buffers, and, as built by :func:`build_viewcell_frustum`,
    is the viewcell frustum that froxel grids are aligned to.
    """

    position: Vec3
    forward: Vec3
    up: Vec3
    right: Vec3
    fov_deg: float
    near: float
    far: float

    def __post_init__(self):
        if not (0.0 < self.fov_deg < 180.0):
            raise ValueError(f"fov must lie in (0, 180), got {self.fov_deg}")
        if not (0.0 < self.near < self.far):
            raise ValueError(f"need 0 < near < far, got near={self.near} far={self.far}")
        for a, b in ((self.forward, self.up), (self.forward, self.right), (self.up, self.right)):
            if abs(a.dot(b)) > BASIS_TOL:
                raise ValueError("camera basis is not orthogonal")
        for v in (self.forward, self.up, self.right):
            if abs(v.norm() - 1.0) > BASIS_TOL:
                raise ValueError("camera basis vectors must be unit length")

    @classmethod
    def from_forward(cls, position: Vec3, forward: Vec3, fov_deg: float,
                     near: float, far: float) -> "Camera":
        f = forward.normalized()
        r = f.cross(Vec3(0, 1, 0))
        if r.norm() < 1e-9:
            r = f.cross(Vec3(1, 0, 0))
        r = r.normalized()
        u = r.cross(f).normalized()
        return cls(position, f, u, r, fov_deg, near, far)

    def yawed(self, angle_deg: float) -> "Camera":
        """Camera rotated about its up axis (positive = toward +right)."""
        f = rotate_about(self.forward, self.up, -angle_deg)
        r = rotate_about(self.right, self.up, -angle_deg)
        return Camera(self.position, f, self.up, r, self.fov_deg, self.near, self.far)

    @property
    def half_extent(self) -> float:
        """Lateral half width of the image plane at unit depth."""
        return math.tan(math.radians(self.fov_deg) / 2.0)

    @property
    def origin(self) -> np.ndarray:
        """Position as a float64 array."""
        return self.position.as_array()

    @property
    def basis(self) -> np.ndarray:
        """World-to-camera rotation, rows (right, up, forward)."""
        return np.stack([self.right.as_array(), self.up.as_array(), self.forward.as_array()])


@dataclass
class ViewCell:
    """Disc of camera positions for which one PVS stays valid.

    ``radius`` bounds lateral camera motion in the plane spanned by
    (right, up); ``beta_deg`` bounds camera yaw to either side.
    """

    center: Vec3
    radius: float
    fov_deg: float
    beta_deg: float
    forward: Vec3
    up: Vec3
    right: Vec3
    near: float
    far: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("viewcell radius must be positive")
        if self.fov_deg + 2 * self.beta_deg >= 180.0:
            raise ValueError("enlarged fov (fov + 2*beta) must stay below 180 degrees")

    @classmethod
    def from_forward(cls, center: Vec3, radius: float, fov_deg: float, beta_deg: float,
                     forward: Vec3, near: float, far: float) -> "ViewCell":
        cam = Camera.from_forward(center, forward, fov_deg, near, far)
        return cls(center, radius, fov_deg, beta_deg, cam.forward, cam.up, cam.right, near, far)

    @property
    def displacement(self) -> float:
        """Backward offset of the displaced origin: radius / tan(fov/2)."""
        return self.radius / math.tan(math.radians(self.fov_deg) / 2.0)

    @property
    def displaced_origin(self) -> Vec3:
        return self.center - self.forward * self.displacement

    def camera_at(self, position: Vec3, yaw_deg: float = 0.0) -> Camera:
        cam = Camera(position, self.forward, self.up, self.right,
                     self.fov_deg, self.near, self.far)
        return cam.yawed(yaw_deg) if yaw_deg else cam


def build_viewcell_frustum(cell: ViewCell) -> Camera:
    """Enlarged frustum containing every camera view allowed by the cell.

    The viewcell frustum is the cell's camera moved back to the displaced
    origin, radius/tan(fov/2) behind the center, with its fov widened by
    twice the rotation margin. Its near plane passes through the cell center
    (everything a member camera can see lies in front of it) and its far
    plane coincides with the nominal camera's far plane.
    """
    disp = cell.displacement
    return Camera(cell.displaced_origin, cell.forward.normalized(), cell.up.normalized(),
                  cell.right.normalized(), cell.fov_deg + 2 * cell.beta_deg,
                  disp, disp + cell.far)


# ---------------------------------------------------------------------------
# Projection / reprojection
# ---------------------------------------------------------------------------

def depth_to_w(camera: Camera, z):
    """Normalized depth w of forward depths ``z``: 0 on the near plane,
    1 on the far plane, linear in z."""
    return (z - camera.near) / (camera.far - camera.near)


def reproject_fragments(camera: Camera, frustum: Camera, px, py, depth, resolution, out):
    """Unproject depth-buffer fragments of ``camera`` and project them into
    ``frustum``'s NDC cube, bit for bit as the two steps would (reference:
    ``project_points`` in ``tests/reference.py``).

    ``px``/``py`` are integer pixel coordinates inside a (width, height)
    buffer and ``depth`` is forward depth. A fragment sits at the pixel
    center. ``out`` is a C-contiguous float64 array of shape (7, m), m at
    least the fragment count, that the function works in. Returns
    ``(uvw, inside)``, both views of ``out``: (n, 3) coordinates,
    column-major so each axis is a contiguous vector, and a mask that is
    true where the point lies ahead of ``frustum`` with u, v, w in [0, 1].
    """
    w, h = resolution
    he = camera.half_extent
    z = np.asarray(depth, dtype=np.float64)
    n, m = len(z), out.shape[1]
    if out.shape[0] < 7 or m < n or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 (7, >={n}) array")
    cam = out[0:3].reshape(-1)[:3 * n].reshape(n, 3)
    pts = out[3:6].reshape(-1)[:3 * n].reshape(n, 3)
    # camera-space points: (2 (p + 0.5) / n - 1) * he * z, from per-pixel tables
    for a, (p, size) in enumerate(((px, w), (py, h))):
        col = np.take((2.0 * (np.arange(size) + 0.5) / size - 1.0) * he, p, out=out[6, :n],
                      mode="wrap")
        np.multiply(col, z, out=cam[:, a])
    cam[:, 2] = z
    np.matmul(cam, camera.basis, out=pts)
    # per column: a (3,) operand broadcast over rows runs a length-3 inner loop
    for a, (o, f) in enumerate(zip(camera.origin, frustum.origin)):
        pts[:, a] += o
        pts[:, a] -= f
    local = np.matmul(pts, np.ascontiguousarray(frustum.basis.T), out=cam)
    # the projection in place; uvw takes over the buffer of pts, column-major
    uvw = pts.reshape(3, -1).T
    z = local[:, 2]
    inside, test = (out[6].view(np.bool_)[k * m:k * m + n] for k in (0, 1))
    np.greater(z, 0, out=inside)
    np.copyto(z, 1.0, where=np.logical_not(inside, out=test))
    np.subtract(z, frustum.near, out=uvw[:, 2])
    uvw[:, 2] /= frustum.far - frustum.near
    z *= frustum.half_extent
    for a in (0, 1):
        np.multiply(local[:, a], 0.5, out=uvw[:, a])
        uvw[:, a] /= z
        uvw[:, a] += 0.5
    for a in range(3):
        inside &= np.greater_equal(uvw[:, a], 0, out=test)
        inside &= np.less_equal(uvw[:, a], 1, out=test)
    return uvw, inside


# ---------------------------------------------------------------------------
# Scene file I/O
# ---------------------------------------------------------------------------

def load_scene(path) -> TriScene:
    """Load a Wavefront-style ASCII mesh (v/f records, 1-based indices).

    A negative face index i is relative, as in Wavefront OBJ: it names
    vertex ``len(verts) + i`` of the vertices defined above its line.
    Faces with more than three vertices are fan-triangulated; other record
    types, groups (``g``) among them, are ignored. A ``v`` record with fewer
    than 3 coordinates, an ``f`` record with fewer than 3 indices, a
    non-numeric or non-finite value, face index 0 and a face index outside
    the file's vertices raise ValueError naming ``path:line``.
    """
    verts, tris, face_lines = [], [], []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        parts = line.split()
        if not parts or parts[0] not in ("v", "f"):
            continue
        if len(parts) < 4:
            raise ValueError(f"{path}:{lineno}: {parts[0]!r} record needs 3 values, "
                             f"got {len(parts) - 1}")
        try:
            if parts[0] == "v":
                xyz = [float(parts[1]), float(parts[2]), float(parts[3])]
            else:
                idx = [int(tok.split("/")[0]) for tok in parts[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {parts[0]!r} record holds a non-numeric "
                             f"value ({exc})") from None
        if parts[0] == "v":
            if not all(math.isfinite(c) for c in xyz):
                raise ValueError(f"{path}:{lineno}: 'v' record holds a non-finite value")
            verts.append(xyz)
        else:
            # index 0 maps to -1, which the range check below rejects
            idx = [len(verts) + i if i < 0 else i - 1 for i in idx]
            for k in range(1, len(idx) - 1):
                tris.append([idx[0], idx[k], idx[k + 1]])
                face_lines.append(lineno)

    tris = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
    bad = np.flatnonzero(((tris < 0) | (tris >= len(verts))).any(axis=1))
    if len(bad):
        raise ValueError(f"{path}:{face_lines[bad[0]]}: face index out of range "
                         f"for {len(verts)} vertices")
    return TriScene(np.asarray(verts, dtype=np.float64).reshape(-1, 3), tris)


def save_scene(path, scene: TriScene):
    """Write a scene back out in the same Wavefront-style format."""
    lines = [f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}" for v in scene.vertices]
    lines += [f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}" for t in scene.triangles]
    Path(path).write_text("\n".join(lines) + "\n")

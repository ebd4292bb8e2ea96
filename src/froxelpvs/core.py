"""Geometry primitives, cameras, viewcells, and the shared projection math.

Conventions used throughout the package:

* World units are meters, right-handed coordinates.
* A camera basis is an orthonormal (right, up, forward) triple.
* Normalized device coordinates (u, v, w) live in [0, 1]^3 with u along
  the camera's right axis, v along up (row 0 of an image buffer is the
  bottom scanline), and w the depth axis mapped linearly from the near
  plane (w=0) to the far plane (w=1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    @staticmethod
    def from_array(a) -> "Vec3":
        a = np.asarray(a, dtype=np.float64).reshape(3)
        return Vec3(float(a[0]), float(a[1]), float(a[2]))


def rotate_about(v: Vec3, axis: Vec3, angle_deg: float) -> Vec3:
    """Rodrigues rotation of ``v`` around the unit ``axis`` by ``angle_deg``."""
    a = math.radians(angle_deg)
    k = axis.normalized()
    c, s = math.cos(a), math.sin(a)
    return v * c + k.cross(v) * s + k * (k.dot(v) * (1.0 - c))


# ---------------------------------------------------------------------------
# Triangle scenes
# ---------------------------------------------------------------------------

@dataclass
class SceneObject:
    """A contiguous triangle range with an optional constant velocity (m/s)."""

    name: str
    tri_start: int
    tri_stop: int
    velocity: Vec3 | None = None


class TriScene:
    """Indexed triangle mesh set with one primitive id per triangle.

    Degenerate triangles (area <= ``area_eps``) are dropped at construction
    and counted in ``dropped_degenerate``; object ranges are remapped to the
    surviving triangle order.
    """

    def __init__(self, vertices, triangles, primitive_ids=None, objects=None,
                 area_eps: float = AREA_EPS):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64).reshape(-1, 3)
        tris = np.ascontiguousarray(triangles, dtype=np.int64).reshape(-1, 3)
        if tris.size and (tris.min() < 0 or tris.max() >= len(self.vertices)):
            raise ValueError("triangle index out of range")
        if primitive_ids is None:
            primitive_ids = np.arange(len(tris), dtype=np.int64)
        pids = np.ascontiguousarray(primitive_ids, dtype=np.int64).reshape(-1)
        if len(pids) != len(tris):
            raise ValueError("primitive_ids must have one entry per triangle")

        keep = self._area_mask(self.vertices, tris, area_eps)
        self.dropped_degenerate = int(len(tris) - keep.sum())
        self.triangles = tris[keep]
        self.primitive_ids = pids[keep]
        self.objects = self._remap_objects(objects or [], keep)

    @staticmethod
    def _area_mask(verts, tris, eps):
        if len(tris) == 0:
            return np.zeros(0, dtype=bool)
        p = verts[tris]
        cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        area = 0.5 * np.linalg.norm(cross, axis=1)
        return area > eps

    @staticmethod
    def _remap_objects(objects, keep):
        if not objects:
            return []
        new_index = np.cumsum(keep) - 1
        remapped = []
        for obj in objects:
            kept = keep[obj.tri_start:obj.tri_stop]
            if not kept.any():
                continue
            idx = np.nonzero(kept)[0] + obj.tri_start
            remapped.append(SceneObject(obj.name, int(new_index[idx[0]]),
                                        int(new_index[idx[-1]]) + 1, obj.velocity))
        return remapped

    def __len__(self) -> int:
        return len(self.triangles)

    def triangle_vertices(self) -> np.ndarray:
        """Per-triangle vertex positions, shape (T, 3, 3)."""
        return self.vertices[self.triangles]

    def aabb(self):
        if len(self.vertices) == 0:
            raise ValueError("empty scene has no bounds")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def subset(self, keep_ids) -> "TriScene":
        """Scene restricted to triangles whose primitive id is in ``keep_ids``."""
        keep_ids = np.asarray(sorted(set(int(i) for i in keep_ids)), dtype=np.int64)
        mask = np.isin(self.primitive_ids, keep_ids)
        return TriScene(self.vertices, self.triangles[mask], self.primitive_ids[mask])

    def object_aabb(self, obj: SceneObject):
        tris = self.triangles[obj.tri_start:obj.tri_stop]
        pts = self.vertices[np.unique(tris)]
        return pts.min(axis=0), pts.max(axis=0)


class SceneBuilder:
    """Accumulates mesh fragments into one TriScene with per-triangle ids."""

    def __init__(self):
        self._verts = []
        self._tris = []
        self._objects = []
        self._nv = 0
        self._nt = 0

    def add(self, name: str, vertices, triangles, velocity: Vec3 | None = None):
        vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
        self._verts.append(vertices)
        self._tris.append(triangles + self._nv)
        self._objects.append(SceneObject(name, self._nt, self._nt + len(triangles), velocity))
        self._nv += len(vertices)
        self._nt += len(triangles)

    def build(self) -> TriScene:
        verts = np.concatenate(self._verts) if self._verts else np.zeros((0, 3))
        tris = np.concatenate(self._tris) if self._tris else np.zeros((0, 3), dtype=np.int64)
        return TriScene(verts, tris, objects=self._objects)


# ---------------------------------------------------------------------------
# Cameras, viewcells, frusta
# ---------------------------------------------------------------------------

@dataclass
class Camera:
    """Pinhole camera with a square (1:1) field of view."""

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
                     near: float, far: float, up_hint: Vec3 = Vec3(0, 1, 0)) -> "Camera":
        f = forward.normalized()
        r = f.cross(up_hint)
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
                     forward: Vec3, near: float, far: float,
                     up_hint: Vec3 = Vec3(0, 1, 0)) -> "ViewCell":
        cam = Camera.from_forward(center, forward, fov_deg, near, far, up_hint)
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


class Frustum:
    """View frustum defined by an origin, an orthonormal basis, a symmetric
    fov, and near/far distances along the forward axis.

    ``planes`` holds six (normal, offset) rows with inward-facing normals, so
    a point p is inside iff dot(n, p) + offset >= 0 for all rows.
    """

    def __init__(self, origin: Vec3, forward: Vec3, up: Vec3, right: Vec3,
                 fov_deg: float, near: float, far: float):
        if not (0.0 < fov_deg < 180.0):
            raise ValueError(f"frustum fov must lie in (0, 180), got {fov_deg}")
        if not (0.0 < near < far):
            raise ValueError("need 0 < near < far")
        self.origin = origin
        self.forward = forward.normalized()
        self.up = up.normalized()
        self.right = right.normalized()
        self.fov_deg = float(fov_deg)
        self.near = float(near)
        self.far = float(far)
        self._o = self.origin.as_array()
        self._basis = np.stack([self.right.as_array(), self.up.as_array(),
                                self.forward.as_array()])
        self.planes = self._build_planes()

    @property
    def half_extent(self) -> float:
        return math.tan(math.radians(self.fov_deg) / 2.0)

    def _build_planes(self) -> np.ndarray:
        f, r, u = self._basis[2], self._basis[0], self._basis[1]
        h = self.half_extent
        normals = [
            f,                                     # near:  z >= near
            -f,                                    # far:   z <= far
            _unit(f * h - r),                      # right: x <= z*h
            _unit(f * h + r),                      # left:  x >= -z*h
            _unit(f * h - u),                      # top:   y <= z*h
            _unit(f * h + u),                      # bottom:y >= -z*h
        ]
        offsets = [-(f @ self._o) - self.near, (f @ self._o) + self.far]
        offsets += [-(n @ self._o) for n in normals[2:]]
        return np.column_stack([np.stack(normals), np.array(offsets)])

    def contains(self, points, eps: float = 1e-9):
        """Plane-based containment test; accepts one point or an (N, 3) array."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        vals = pts @ self.planes[:, :3].T + self.planes[:, 3]
        inside = (vals >= -eps).all(axis=1)
        return bool(inside[0]) if np.ndim(points) == 1 else inside


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def build_viewcell_frustum(cell: ViewCell) -> Frustum:
    """Enlarged frustum containing every camera view allowed by the cell.

    The origin is displaced backward by radius/tan(fov/2) and the fov is
    widened by twice the rotation margin. The near plane passes through the
    cell center (everything a member camera can see lies in front of it) and
    the far plane coincides with the nominal camera's far plane.
    """
    if cell.fov_deg + 2 * cell.beta_deg >= 180.0:
        raise ValueError("enlarged fov (fov + 2*beta) must stay below 180 degrees")
    disp = cell.displacement
    return Frustum(cell.displaced_origin, cell.forward, cell.up, cell.right,
                   cell.fov_deg + 2 * cell.beta_deg, disp, disp + cell.far)


# ---------------------------------------------------------------------------
# Projection / reprojection
# ---------------------------------------------------------------------------

def project_points(frustum: Frustum, points, depth_mode: str = "linear"):
    """Project world points into the frustum's NDC cube.

    Returns ``(uvw, inside)`` where uvw has shape (N, 3) and inside is a
    boolean mask. Points behind the origin are flagged outside; their uvw
    values are unspecified.
    """
    if depth_mode not in ("linear", "log"):
        raise ValueError(f"unknown depth mode {depth_mode!r}")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    d = pts - frustum._o
    local = d @ frustum._basis.T          # columns: x (right), y (up), z (forward)
    x, y, z = local[:, 0], local[:, 1], local[:, 2]
    ahead = z > 0
    zsafe = np.where(ahead, z, 1.0)
    h = frustum.half_extent
    u = 0.5 + 0.5 * x / (zsafe * h)
    v = 0.5 + 0.5 * y / (zsafe * h)
    if depth_mode == "linear":
        w = (z - frustum.near) / (frustum.far - frustum.near)
    else:
        w = np.log(np.where(ahead, z, frustum.near) / frustum.near) \
            / math.log(frustum.far / frustum.near)
    uvw = np.column_stack([u, v, w])
    inside = ahead & (u >= 0) & (u <= 1) & (v >= 0) & (v <= 1) & (w >= 0) & (w <= 1)
    return uvw, inside


def project_to_ndc(frustum: Frustum, p: Vec3, depth_mode: str = "linear"):
    """Scalar projection; returns an (u, v, w) tuple or None when outside."""
    uvw, inside = project_points(frustum, p.as_array()[None, :], depth_mode)
    if not inside[0]:
        return None
    return float(uvw[0, 0]), float(uvw[0, 1]), float(uvw[0, 2])


def unproject_ndc(frustum: Frustum, uvw, depth_mode: str = "linear") -> np.ndarray:
    """Inverse of :func:`project_points` for in-range coordinates."""
    uvw = np.asarray(uvw, dtype=np.float64).reshape(-1, 3)
    if depth_mode == "linear":
        z = frustum.near + uvw[:, 2] * (frustum.far - frustum.near)
    elif depth_mode == "log":
        z = frustum.near * np.exp(uvw[:, 2] * math.log(frustum.far / frustum.near))
    else:
        raise ValueError(f"unknown depth mode {depth_mode!r}")
    h = frustum.half_extent
    x = (2.0 * uvw[:, 0] - 1.0) * h * z
    y = (2.0 * uvw[:, 1] - 1.0) * h * z
    return frustum._o + np.column_stack([x, y, z]) @ frustum._basis


def unproject_pixels(camera: Camera, px, py, depth, resolution) -> np.ndarray:
    """World positions of pixel-center fragments at the given forward depths.

    ``px``/``py`` are integer pixel coordinates in a (width, height) buffer;
    depth is measured along the camera's forward axis.
    """
    w, h = resolution
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    z = np.asarray(depth, dtype=np.float64)
    he = camera.half_extent
    x = (2.0 * (px + 0.5) / w - 1.0) * he * z
    y = (2.0 * (py + 0.5) / h - 1.0) * he * z
    basis = np.stack([camera.right.as_array(), camera.up.as_array(),
                      camera.forward.as_array()])
    return camera.position.as_array() + np.column_stack([x, y, z]) @ basis


def reproject_fragments(camera: Camera, frustum: Frustum, px, py, depth,
                        resolution, depth_mode: str = "linear"):
    """Unproject depth-buffer fragments and project them into ``frustum``."""
    world = unproject_pixels(camera, px, py, depth, resolution)
    return project_points(frustum, world, depth_mode)


def reproject(camera: Camera, frustum: Frustum, pixel, depth: float,
              resolution, depth_mode: str = "linear"):
    """Scalar fragment reprojection; None when the world point leaves ``frustum``."""
    uvw, inside = reproject_fragments(camera, frustum, [pixel[0]], [pixel[1]],
                                      [depth], resolution, depth_mode)
    if not inside[0]:
        return None
    return float(uvw[0, 0]), float(uvw[0, 1]), float(uvw[0, 2])


# ---------------------------------------------------------------------------
# Scene file I/O
# ---------------------------------------------------------------------------

def load_scene(path, motion_path=None) -> TriScene:
    """Load a Wavefront-style ASCII mesh (v/f records, 1-based indices).

    Named groups (``g``) delimit objects; faces with more than three vertices
    are fan-triangulated. An optional sidecar table assigns per-object
    velocities (see :func:`load_motion_table`).
    """
    verts = []
    tris = []
    objects = []
    current = None

    def _close(upto):
        nonlocal current
        if current is not None:
            name, start = current
            if upto > start:
                objects.append(SceneObject(name, start, upto))
            current = None

    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
        elif parts[0] == "f":
            idx = [int(tok.split("/")[0]) - 1 for tok in parts[1:]]
            for k in range(1, len(idx) - 1):
                tris.append([idx[0], idx[k], idx[k + 1]])
        elif parts[0] == "g":
            _close(len(tris))
            current = (parts[1] if len(parts) > 1 else f"group{len(objects)}", len(tris))
    _close(len(tris))

    scene = TriScene(np.asarray(verts, dtype=np.float64).reshape(-1, 3),
                     np.asarray(tris, dtype=np.int64).reshape(-1, 3),
                     objects=objects)
    if motion_path is not None:
        table = load_motion_table(motion_path)
        for obj in scene.objects:
            if obj.name in table:
                obj.velocity = table[obj.name]
    return scene


def load_motion_table(path) -> dict:
    """Sidecar motion table: one ``name vx vy vz`` record per line."""
    table = {}
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 4:
            raise ValueError(f"bad motion record: {line!r}")
        table[parts[0]] = Vec3(float(parts[1]), float(parts[2]), float(parts[3]))
    return table


def save_scene(path, scene: TriScene):
    """Write a scene back out in the same Wavefront-style format."""
    lines = []
    for v in scene.vertices:
        lines.append(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}")
    covered = np.zeros(len(scene.triangles), dtype=bool)
    for obj in scene.objects:
        covered[obj.tri_start:obj.tri_stop] = True

    def _faces(rng):
        for t in scene.triangles[rng]:
            lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")

    cursor = 0
    for obj in sorted(scene.objects, key=lambda o: o.tri_start):
        if obj.tri_start > cursor:
            _faces(slice(cursor, obj.tri_start))
        lines.append(f"g {obj.name}")
        _faces(slice(obj.tri_start, obj.tri_stop))
        cursor = obj.tri_stop
    if cursor < len(scene.triangles):
        _faces(slice(cursor, len(scene.triangles)))
    Path(path).write_text("\n".join(lines) + "\n")

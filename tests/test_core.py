"""Core geometry: viewcell frusta, projection, reprojection, scene I/O."""

import math

import numpy as np
import pytest

from froxelpvs.core import (Camera, TriScene, Vec3, ViewCell, build_viewcell_frustum,
                            load_scene, reproject_fragments, save_scene)
from froxelpvs.oracle import OracleConfig, sample_viewpoints

from conftest import default_cell
from reference import project_points, subset, unproject_ndc


def _frustum(fov=90.0, near=1.0, far=21.0):
    return Camera(Vec3(0, 0, 0), Vec3(0, 0, 1), Vec3(0, 1, 0), Vec3(1, 0, 0),
                  fov, near, far)


def _unproject_pixels(camera: Camera, px, py, depth, resolution) -> np.ndarray:
    """World positions of pixel-center fragments at the given forward
    depths: the two-step reference for :func:`reproject_fragments`."""
    w, h = resolution
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    z = np.asarray(depth, dtype=np.float64)
    he = camera.half_extent
    x = (2.0 * (px + 0.5) / w - 1.0) * he * z
    y = (2.0 * (py + 0.5) / h - 1.0) * he * z
    return camera.origin + np.column_stack([x, y, z]) @ camera.basis


def _edge_frustum(camera: Camera, width: int) -> Camera:
    """A frustum at ``camera``'s pose whose side planes pass exactly through
    the centers of its first and last pixel columns and rows: the fov is
    stepped one ulp at a time until the half extent matches bit for bit."""
    edge = (2.0 * (width - 0.5) / width - 1.0) * camera.half_extent
    fov = 2.0 * math.degrees(math.atan(edge))
    for _ in range(1000):
        fr = Camera(camera.position, camera.forward, camera.up, camera.right, fov,
                    camera.near, camera.far)
        if fr.half_extent == edge:
            return fr
        fov = math.nextafter(fov, math.inf if fr.half_extent < edge else -math.inf)
    raise AssertionError("no fov gives the edge half extent exactly")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _planes(camera: Camera) -> np.ndarray:
    """Six (normal, offset) rows with inward-facing normals: a point p is
    inside the camera's frustum iff dot(n, p) + offset >= 0 for all rows."""
    r, u, f = camera.basis
    o = camera.origin
    h = camera.half_extent
    normals = [
        f,                                     # near:  z >= near
        -f,                                    # far:   z <= far
        _unit(f * h - r),                      # right: x <= z*h
        _unit(f * h + r),                      # left:  x >= -z*h
        _unit(f * h - u),                      # top:   y <= z*h
        _unit(f * h + u),                      # bottom:y >= -z*h
    ]
    offsets = [-(f @ o) - camera.near, (f @ o) + camera.far]
    offsets += [-(n @ o) for n in normals[2:]]
    return np.column_stack([np.stack(normals), np.array(offsets)])


def _contains(camera: Camera, points, eps: float = 1e-9) -> np.ndarray:
    """Plane-based containment test of (N, 3) points, independent of
    :func:`project_points`."""
    planes = _planes(camera)
    vals = np.asarray(points, dtype=np.float64) @ planes[:, :3].T + planes[:, 3]
    return (vals >= -eps).all(axis=1)


class TestViewCell:
    def test_backward_displacement_matches_tangent(self):
        # r=0.3, fov=90: tan(45 deg) = 1 so the offset equals the radius
        cell = ViewCell.from_forward(Vec3(0, 0, 0), 0.3, 90.0, 0.0,
                                     Vec3(0, 0, 1), 0.3, 20.0)
        assert cell.displacement == pytest.approx(0.3, abs=1e-12)

    def test_displacement_60_degrees(self):
        # 0.3 / tan(30 deg) = 0.3 * sqrt(3) = 0.5196152422706632
        cell = default_cell()
        assert cell.displacement == pytest.approx(0.5196152422706632, rel=1e-12)

    def test_enlarged_fov(self):
        frustum = build_viewcell_frustum(default_cell())
        assert frustum.fov_deg == 60.0 + 2 * 15.0

    def test_frustum_is_displaced_camera(self):
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        assert isinstance(frustum, Camera)
        assert frustum.position == cell.displaced_origin
        assert (frustum.forward, frustum.up, frustum.right) == (cell.forward, cell.up, cell.right)
        assert frustum.near == cell.displacement
        assert np.array_equal(frustum.basis, np.stack([cell.right.as_array(), cell.up.as_array(),
                                                       cell.forward.as_array()]))

    def test_rejects_oversized_enlarged_fov(self):
        with pytest.raises(ValueError):
            ViewCell.from_forward(Vec3(0, 0, 0), 0.3, 160.0, 15.0,
                                  Vec3(0, 0, 1), 0.3, 20.0)

    def test_displaced_origin_behind_center(self):
        cell = default_cell()
        origin = cell.displaced_origin
        assert origin.z == pytest.approx(-cell.displacement)
        assert origin.x == 0.0 and origin.y == 1.5

    def test_far_plane_shared_with_nominal_camera(self):
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        # far plane sits `far` in front of the cell center
        assert frustum.far - cell.displacement == pytest.approx(cell.far)


class TestContainment:
    def test_sample_frustum_corners_inside(self):
        """1000 random member cameras stay inside the enlarged frustum."""
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        gen = np.random.Generator(np.random.PCG64(7))
        shared_far = cell.far   # forward depth of the far plane from the cell plane
        forward = cell.forward.as_array()
        for _ in range(1000):
            rad = cell.radius * math.sqrt(gen.random())
            ang = 2.0 * math.pi * gen.random()
            pos = (cell.center + cell.right * (rad * math.cos(ang))
                   + cell.up * (rad * math.sin(ang)))
            yaw = cell.beta_deg * (2.0 * gen.random() - 1.0)
            cam = cell.camera_at(pos, yaw)
            he = cam.half_extent
            corners = []
            for du in (-1, 1):
                for dv in (-1, 1):
                    d = (cam.forward.as_array() + du * he * cam.right.as_array()
                         + dv * he * cam.up.as_array())
                    near_pt = pos.as_array() + cam.near * d
                    far_pt = pos.as_array() + cam.far * d
                    # clip the edge to the shared far plane
                    zn = (near_pt - cell.center.as_array()) @ forward
                    zf = (far_pt - cell.center.as_array()) @ forward
                    if zf > shared_far:
                        t = (shared_far - zn) / (zf - zn)
                        far_pt = near_pt + t * (far_pt - near_pt)
                    corners += [near_pt, far_pt]
            assert _contains(frustum, np.array(corners), eps=1e-7).all()


class TestProjection:
    def test_axis_points(self):
        fr = _frustum()
        mid = 0.5 * (fr.near + fr.far)
        uvw, inside = project_points(fr, [[0, 0, fr.near], [0, 0, fr.far], [0, 0, mid]])
        assert inside.all()
        assert uvw == pytest.approx(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 1.0],
                                              [0.5, 0.5, 0.5]]))

    def test_behind_origin_flagged(self):
        _, inside = project_points(_frustum(), [[0, 0, -5.0]])
        assert not inside[0]

    def test_outside_lateral_flagged(self):
        _, inside = project_points(_frustum(), [[100.0, 0, 2.0]])
        assert not inside[0]

    def test_round_trip(self, rng):
        fr = _frustum(fov=75.0, near=0.5, far=30.0)
        uvw = rng.random((500, 3))
        pts = unproject_ndc(fr, uvw)
        back, inside = project_points(fr, pts)
        assert inside.all()
        assert np.abs(back - uvw).max() < 1e-10

    def test_round_trip_world(self, rng):
        fr = _frustum(fov=75.0, near=0.5, far=30.0)
        pts = unproject_ndc(fr, rng.random((200, 3)))
        uvw, _ = project_points(fr, pts)
        again = unproject_ndc(fr, uvw)
        rel = np.abs(again - pts).max() / np.abs(pts).max()
        assert rel < 1e-10

    def test_plane_test_agrees_with_ndc(self, rng):
        fr = _frustum(fov=80.0, near=0.7, far=25.0)
        pts = rng.uniform(-30, 30, size=(5000, 3))
        _, inside = project_points(fr, pts)
        assert np.array_equal(inside, _contains(fr, pts))


class TestReproject:
    def test_identity_camera(self):
        """The viewcell frustum is a camera: its own fragments map to their
        pixel centers and depths."""
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        res = (64, 64)
        px, py, w = np.array([10, 33, 0]), np.array([20, 60, 0]), np.array([0.3, 0.8, 0.05])
        depth = frustum.near + w * (frustum.far - frustum.near)
        uvw, inside = reproject_fragments(frustum, frustum, px, py, depth, res, np.empty((7, 3)))
        assert inside.all()
        want = np.column_stack([(px + 0.5) / res[0], (py + 0.5) / res[1], w])
        assert np.abs(uvw - want).max() <= 1e-9

    def test_member_camera_fragments_land_inside(self, rng):
        """Far-plane-limited fragments from member cameras stay in the frustum."""
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        for k in range(20):
            rad = cell.radius * math.sqrt(rng.random())
            ang = 2 * math.pi * rng.random()
            pos = (cell.center + cell.right * (rad * math.cos(ang))
                   + cell.up * (rad * math.sin(ang)))
            cam = cell.camera_at(pos, cell.beta_deg * (2 * rng.random() - 1))
            px = rng.integers(0, 64, size=50)
            py = rng.integers(0, 64, size=50)
            depth = rng.uniform(cam.near, cam.far * 0.7, size=50)
            _, inside = reproject_fragments(cam, frustum, px, py, depth, (64, 64),
                                            np.empty((7, 50)))
            assert inside.all()

    def test_behind_target_flagged(self):
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        back = Camera.from_forward(cell.center, Vec3(0, 0, -1), 60.0, 0.3, 20.0)
        _, inside = reproject_fragments(back, frustum, [32], [32], [10.0], (64, 64),
                                        np.empty((7, 1)))
        assert not inside[0]

    @pytest.mark.parametrize("case", ["members", "behind", "edges", "empty"])
    def test_equals_unproject_then_project(self, case, rng):
        """The fused path equals the two-step reference bit for bit: uvw
        everywhere (behind the origin too) and the inside flags at u, v, w
        exactly 0 and 1."""
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        res = (64, 64)
        n = 3000
        px, py = rng.integers(0, res[0], n), rng.integers(0, res[1], n)
        if case == "members":
            cams = sample_viewpoints(cell, OracleConfig(viewpoints=4))
            depth = rng.uniform(0.3, 30.0, n)
        elif case == "behind":
            # cameras at the frustum origin looking back: every point lies behind it
            cams = [Camera(frustum.position, -frustum.forward, frustum.up, -frustum.right,
                           60.0, 0.3, 20.0)]
            depth = rng.uniform(0.3, 20.0, n)
        elif case == "edges":
            cam = _frustum(fov=60.0, near=1.0, far=21.0)
            frustum = _edge_frustum(cam, res[0])
            cams = [cam]
            px[::3], py[1::3], py[2::3] = 0, res[1] - 1, 0
            px[2::5] = res[0] - 1
            depth = rng.uniform(cam.near, cam.far, n)
            depth[::4], depth[1::4] = cam.near, cam.far
            depth[2::8] = np.nextafter(cam.near, 0.0)
            depth[3::8] = np.nextafter(cam.far, np.inf)
        else:
            cams = [frustum]
            px, py, depth = px[:0], py[:0], np.zeros(0)
        for cam in cams:
            uvw, inside = reproject_fragments(cam, frustum, px, py, depth, res,
                                              np.empty((7, len(depth))))
            want, want_inside = project_points(
                frustum, _unproject_pixels(cam, px, py, depth, res))
            assert uvw.shape == want.shape == (len(depth), 3) and uvw.flags.f_contiguous
            assert np.array_equal(uvw, want) and np.array_equal(inside, want_inside)
        if case == "behind":
            assert not inside.any()
        if case == "edges":
            for a in range(3):
                for bound in (0.0, 1.0):
                    on = uvw[:, a] == bound
                    assert on.sum() > 50 and inside[on].any()
            assert not inside.all()


class TestTriScene:
    def test_degenerate_triangles_dropped(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]])
        tris = np.array([[0, 1, 2], [0, 1, 3]])   # second is collinear
        scene = TriScene(verts, tris)
        assert len(scene) == 1
        assert scene.dropped_degenerate == 1

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TriScene(np.zeros((2, 3)), np.array([[0, 1, 2]]))

    def test_subset_by_primitive_id(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        tris = np.array([[0, 1, 2], [1, 3, 2]])
        scene = TriScene(verts, tris, primitive_ids=[7, 9])
        sub = subset(scene, {9})
        assert len(sub) == 1 and sub.primitive_ids[0] == 9


class TestSceneIO:
    def test_round_trip(self, tmp_path):
        text = """# demo
v 0 0 0
v 1 0 0
v 0 1 0
v 1 1 0
g left
f 1 2 3
g right
f 2 4 3
"""
        path = tmp_path / "scene.obj"
        path.write_text(text)
        scene = load_scene(path)
        assert len(scene) == 2

        out = tmp_path / "copy.obj"
        save_scene(out, scene)
        again = load_scene(out)
        assert np.array_equal(again.triangles, scene.triangles)
        assert np.allclose(again.vertices, scene.vertices)

    def test_quad_faces_triangulated(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        assert len(load_scene(path)) == 2

    def test_relative_face_indices(self, tmp_path):
        path = tmp_path / "rel.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
        assert load_scene(path).triangles.tolist() == [[0, 1, 2]]

    def test_relative_indices_resolve_at_their_line(self, tmp_path):
        path = tmp_path / "rel.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
                        "v 1 1 0\nv 0 0 1\nf -4 -2 -1\nf 1 -1 2\n")
        assert load_scene(path).triangles.tolist() == [[0, 1, 2], [1, 3, 4], [0, 4, 1]]

    @pytest.mark.parametrize("face", ["f 0 1 2", "f -4 -2 -1", "f 1 2 5"])
    def test_face_index_out_of_range_names_its_line(self, face, tmp_path):
        """Index 0, a relative index before the first vertex (though a
        fourth vertex follows) and one past the last vertex."""
        path = tmp_path / "bad.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{face}\nv 1 1 1\n")
        with pytest.raises(ValueError, match=":4: face index out of range"):
            load_scene(path)

    @pytest.mark.parametrize("record", ["v 1 0", "f 1 2"])
    def test_short_records_rejected(self, record, tmp_path):
        path = tmp_path / "short.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{record}\n")
        with pytest.raises(ValueError, match=":4:"):
            load_scene(path)


class TestCameraValidation:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError):
            Camera(Vec3(0, 0, 0), Vec3(0, 0, 1), Vec3(0, 1, 0.1), Vec3(1, 0, 0),
                   60.0, 0.3, 20.0)

    def test_rejects_bad_near_far(self):
        with pytest.raises(ValueError):
            Camera.from_forward(Vec3(0, 0, 0), Vec3(0, 0, 1), 60.0, 5.0, 2.0)

    def test_yawed_keeps_orthonormality(self):
        cam = Camera.from_forward(Vec3(0, 0, 0), Vec3(0, 0, 1), 60.0, 0.3, 20.0)
        y = cam.yawed(14.0)
        assert abs(y.forward.dot(y.right)) < 1e-12
        assert y.forward.norm() == pytest.approx(1.0)

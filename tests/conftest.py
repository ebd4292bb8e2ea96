"""Shared fixtures and the acceptance reporting hook."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from froxelpvs.core import SceneBuilder, Vec3, ViewCell
from froxelpvs.scenegen import primitive_mesh

ACCEPTANCE_RESULTS = []

# froxelize depth modes; linear depth keeps the test id "perspective" it has
# always had
DEPTH_MODES = [pytest.param("linear", id="perspective"), pytest.param("log", id="log")]


@contextlib.contextmanager
def criterion(name: str):
    """Record one acceptance criterion outcome for the terminal summary."""
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((name, False))
        raise
    ACCEPTANCE_RESULTS.append((name, True))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {name}")


def default_cell(height: float = 1.5, far: float = 20.0) -> ViewCell:
    return ViewCell.from_forward(Vec3(0.0, height, 0.0), 0.3, 60.0, 15.0,
                                 Vec3(0.0, 0.0, 1.0), 0.3, far)


def quad_at(z: float, half_w: float, half_h: float, cy: float = 0.0):
    """Axis-facing quad vertices/triangles at forward depth z."""
    verts = np.array([[-half_w, cy - half_h, z], [half_w, cy - half_h, z],
                      [half_w, cy + half_h, z], [-half_w, cy + half_h, z]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return verts, tris


def platform_scene():
    """Low-occlusion pair source: bounded floor platform plus elevated solids.

    Occlusion here is short-range (object back faces, top faces), which a
    local conv stack can represent; used by memorization-style tests.
    """
    b = SceneBuilder()
    pv, pf = primitive_mesh("plane")
    platform = pv[:, [0, 2, 1]] * np.array([20.0, 0.0, 14.0]) + np.array([0.0, 0.0, 7.0])
    b.add("platform", platform, pf)
    cv, cf = primitive_mesh("cube")
    iv, icf = primitive_mesh("icosahedron")
    spots = [(-4.0, 1.8, 7.0, 1.6), (4.2, 2.2, 9.0, 2.0),
             (-1.2, 1.5, 11.0, 1.4), (1.8, 2.6, 5.5, 1.2)]
    shapes = [(cv, cf), (cv, cf), (iv, icf), (cv, cf)]
    for i, ((sv, sf), (px, py, pz, s)) in enumerate(zip(shapes, spots)):
        b.add(f"obj{i}", sv * s + np.array([px, py, pz]), sf)
    return b.build(), default_cell()


@pytest.fixture(scope="session")
def rng():
    return np.random.Generator(np.random.PCG64(20260810))

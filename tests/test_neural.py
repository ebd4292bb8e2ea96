"""Convolution layers, inference precision, gradients, interleaving and
checkpoint files."""

import numpy as np
import pytest

from froxelpvs.froxel import FroxelGrid, froxelize
from froxelpvs.interleave import ChannelTensor, deinterleave, interleave
from froxelpvs.neural import ACTIVATIONS, Conv3d, ConvSpec, ModelConfig, PvsNet, \
    predict_pvs

BAND = 1e-5     # |p - tau| below this may flip between float32 and float64


def _layer(k, cin, cout, act, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    layer = Conv3d(ConvSpec(k, cin, cout, act), rng)
    layer.b = rng.normal(0.0, 0.1, cout)
    return layer


def _float64_chain(net, x):
    for layer in net.layers:
        x, _ = layer.forward(x, keep_cache=True)
    return x


class TestConv3dInference:
    @pytest.mark.parametrize("act", ACTIVATIONS)
    @pytest.mark.parametrize("bsz", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_float64_cached_path(self, k, bsz, act, rng):
        layer = _layer(k, 5, 4, act, seed=k)
        x = rng.normal(0.0, 1.0, (bsz, 4, 5, 6, 5))
        y = layer.forward(x)
        ref, _ = layer.forward(x, keep_cache=True)
        assert y.dtype == np.float32 and ref.dtype == np.float64
        assert y.shape == ref.shape == (bsz, 4, 5, 6, 4)
        np.testing.assert_allclose(y, ref, rtol=0, atol=1e-5)

    def test_rejects_wrong_channel_count(self):
        layer = _layer(3, 4, 4, "relu")
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 4, 4, 4, 3)))

    def test_float64_and_float32_input_agree_bitwise(self, rng):
        layer = _layer(3, 8, 6, "sigmoid")
        x = (rng.random((1, 4, 4, 4, 8)) < 0.3).astype(np.float64)
        assert np.array_equal(layer.forward(x), layer.forward(x.astype(np.float32)))


class TestPredictPvs:
    @pytest.mark.parametrize("init", ["identity", "he"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_no_flips_outside_tolerance_band(self, init, seed):
        from froxelpvs.core import build_viewcell_frustum
        from froxelpvs.scenegen import SceneGenConfig, generate_scene
        scene, cell = generate_scene(SceneGenConfig(seed=seed))
        grid = froxelize(scene, build_viewcell_frustum(cell), (32, 32, 32))
        net = PvsNet(ModelConfig.default(4, hidden=16 if init == "he" else 64, init=init),
                     np.random.Generator(np.random.PCG64(seed)))
        for tau in (0.5, 0.3):
            pred = predict_pvs(grid, net, tau).to_dense()
            x = interleave(grid, 4).values[None]
            p64 = deinterleave(ChannelTensor(_float64_chain(net, x)[0], 4))
            settled = np.abs(p64 - tau) >= BAND
            assert np.array_equal(pred[settled], (p64 >= tau)[settled])

    def test_step_by_step_chain_equals_predict_pvs(self, rng):
        grid = FroxelGrid.from_dense(rng.random((16, 16, 16)) < 0.2)
        net = PvsNet(ModelConfig.default(4, hidden=64, init="identity"),
                     np.random.Generator(np.random.PCG64(0)))
        x = interleave(grid, 4).values[None]
        for layer in net.layers:
            x = layer.forward(x)
        steps = deinterleave(ChannelTensor(x[0], 4), 4, threshold=0.5)
        assert steps.bits.tobytes() == predict_pvs(grid, net).bits.tobytes()


class TestConv3dGradients:
    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_backward_matches_central_differences(self, act, rng):
        layer = _layer(3, 2, 3, act, seed=7)
        x = rng.normal(0.0, 1.0, (2, 3, 2, 3, 2))
        g = rng.normal(0.0, 1.0, (2, 3, 2, 3, 3))

        def loss():
            y, _ = layer.forward(x, keep_cache=True)
            return float((y * g).sum())

        _, cache = layer.forward(x, keep_cache=True)
        dx, dw, db = layer.backward(g, cache)
        eps = 1e-6
        for arr, grad in ((x, dx), (layer.w, dw), (layer.b, db)):
            numeric = np.empty_like(arr)
            for i in np.ndindex(arr.shape):
                keep = arr[i]
                arr[i] = keep + eps
                up = loss()
                arr[i] = keep - eps
                down = loss()
                arr[i] = keep
                numeric[i] = (up - down) / (2 * eps)
            np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-7)

    def test_backward_requires_cache(self):
        with pytest.raises(ValueError):
            _layer(3, 2, 2, "relu").backward(np.zeros((1, 2, 2, 2, 2)), None)


class TestInterleave:
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_round_trip(self, d, rng):
        dense = rng.normal(0.0, 1.0, (4 * d, 2 * d, 3 * d))
        tensor = interleave(dense, d)
        assert tensor.spatial_dims == (4, 2, 3)
        assert tensor.channels == d ** 3
        assert np.array_equal(deinterleave(tensor), dense)

    def test_channel_layout(self):
        d = 2
        dense = np.zeros((4, 4, 4))
        dense[2 + 1, 0 + 1, 2 + 0] = 1.0       # cell (1, 0, 1), local (1, 1, 0)
        values = interleave(dense, d).values
        assert values[1, 0, 1, 1 + d * (1 + d * 0)] == 1.0
        assert values.sum() == 1.0

    def test_threshold_packs_grid(self, rng):
        dense = rng.random((16, 8, 8))
        grid = deinterleave(interleave(dense, 2), threshold=0.7)
        assert grid == FroxelGrid.from_dense(dense >= 0.7, role="predicted_pvs")

    def test_grid_input(self, rng):
        grid = FroxelGrid.from_dense(rng.random((16, 8, 8)) < 0.3)
        assert deinterleave(interleave(grid, 4), threshold=0.5) == \
            FroxelGrid.from_dense(grid.to_dense(), role="predicted_pvs")

    def test_rejects_indivisible_dims(self):
        with pytest.raises(ValueError):
            interleave(np.zeros((8, 8, 6)), 4)


class TestCheckpointFile:
    def _saved(self, tmp_path):
        net = PvsNet(ModelConfig.default(2, hidden=8), np.random.Generator(np.random.PCG64(3)))
        path = tmp_path / "net.fpvw"
        net.save(path)
        return net, path

    def test_round_trip_to_float32(self, tmp_path):
        net, path = self._saved(tmp_path)
        again = PvsNet.load(path)
        assert again.cfg.d == 2 and again.cfg.layers == net.cfg.layers
        for a, b in zip(net.layers, again.layers):
            assert np.array_equal(a.w.astype(np.float32), b.w)
            assert np.array_equal(a.b.astype(np.float32), b.b)

    def test_truncated_weights_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="weights"):
            PvsNet.load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(ValueError, match="weights"):
            PvsNet.load(path)

    def test_missing_d_line_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        raw = path.read_bytes()
        # same-length header with the d= line renamed
        path.write_bytes(raw.replace(b"d=2", b"q=2", 1))
        with pytest.raises(ValueError, match="d="):
            PvsNet.load(path)

    @pytest.mark.parametrize("cut", [8, 16])
    def test_truncated_header_rejected(self, tmp_path, cut):
        _, path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match="truncated"):
            PvsNet.load(path)

"""Convolution layers, inference precision, gradients, interleaving and
checkpoint files."""

import numpy as np
import pytest

from froxelpvs.froxel import FroxelGrid, froxelize
from froxelpvs.interleave import ChannelTensor, deinterleave, interleave
from froxelpvs.neural import ACTIVATIONS, Conv3d, ConvSpec, ModelConfig, PvsNet, \
    TrainConfig, combined_loss, dice_loss, predict_pvs, rvl_loss, train

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


def _cols_reference(x, k):
    """im2col: per cell, its k^3 input windows in weight-row order
    (a*k + b)*k + c, each C_in wide."""
    p = k // 2
    bsz, d, h, w, c = x.shape
    xpad = np.pad(x, ((0, 0), (p, p), (p, p), (p, p), (0, 0)))
    cols = np.empty((bsz, d, h, w, k ** 3, c))
    for j, (a, b, cc) in enumerate(np.ndindex(k, k, k)):
        cols[..., j, :] = xpad[:, a:a + d, b:b + h, cc:cc + w, :]
    return cols


def _im2col_reference(layer, x, dz):
    """Pre-activation ``cols @ w + b`` and its (dx, dw, db), with the column
    gradient scattered back into the padded input."""
    k = layer.spec.kernel
    p = k // 2
    bsz, d, h, w, cin = x.shape
    cols = _cols_reference(x, k).reshape(-1, k ** 3 * cin)
    z = (cols @ layer.w + layer.b).reshape(dz.shape)
    flat_dz = dz.reshape(-1, dz.shape[-1])
    dcols = (flat_dz @ layer.w.T).reshape(bsz, d, h, w, k ** 3, cin)
    dxpad = np.zeros((bsz, d + 2 * p, h + 2 * p, w + 2 * p, cin))
    for j, (a, b, cc) in enumerate(np.ndindex(k, k, k)):
        dxpad[:, a:a + d, b:b + h, cc:cc + w, :] += dcols[..., j, :]
    dx = dxpad[:, p:p + d, p:p + h, p:p + w, :]
    return z, (dx, cols.T @ flat_dz, flat_dz.sum(axis=0))


class TestConv3dGradients:
    @pytest.mark.parametrize("bsz", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_im2col_reference(self, k, bsz, rng):
        """The shifted-GEMM kernel computes what im2col does, so checkpoints
        keep the (a*k + b)*k + c weight-row layout."""
        layer = _layer(k, 3, 4, "none", seed=k)
        x = rng.normal(0.0, 1.0, (bsz, 4, 5, 6, 3))
        dz = rng.normal(0.0, 1.0, (bsz, 4, 5, 6, 4))
        y, cache = layer.forward(x, keep_cache=True)
        got = layer.backward(dz, cache)
        z, want = _im2col_reference(layer, x, dz)
        assert y.dtype == np.float64
        for a, b in zip((y,) + got, (z,) + want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())

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


_LOSSES = {
    "dice": lambda p, g: dice_loss(p, g, 0.1),
    "dice_even": lambda p, g: dice_loss(p, g, 0.5),
    "rvl": rvl_loss,
    "combined": lambda p, g: combined_loss(p, g, TrainConfig(alpha=0.3, lam=0.7)),
}


class TestLosses:
    @pytest.mark.parametrize("empty", [False, True])
    @pytest.mark.parametrize("name", sorted(_LOSSES))
    def test_gradient_matches_central_differences(self, name, empty, rng):
        fn = _LOSSES[name]
        pred = rng.uniform(0.05, 0.95, (2, 3, 2, 2))
        gt = np.zeros(pred.shape) if empty else (rng.random(pred.shape) < 0.4) * 1.0
        _, grad = fn(pred, gt)
        eps = 1e-6
        numeric = np.empty_like(pred)
        for i in np.ndindex(pred.shape):
            keep = pred[i]
            pred[i] = keep + eps
            up, _ = fn(pred, gt)
            pred[i] = keep - eps
            down, _ = fn(pred, gt)
            pred[i] = keep
            numeric[i] = (up - down) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("name", sorted(_LOSSES))
    def test_perfect_prediction_is_zero(self, name, rng):
        gt = (rng.random((3, 4, 2)) < 0.3) * 1.0
        gt[0, 0, 0] = 1.0
        loss, _ = _LOSSES[name](gt.copy(), gt)
        assert loss == 0.0

    def test_empty_ground_truth_conventions(self, rng):
        gt = np.zeros((3, 4, 2))
        pred = rng.uniform(0.05, 0.95, gt.shape)
        for alpha in (0.1, 0.5):
            assert dice_loss(np.zeros_like(gt), gt, alpha)[0] == 0.0
            assert dice_loss(pred, gt, alpha)[0] == 1.0
        for p in (np.zeros_like(gt), pred):
            loss, grad = rvl_loss(p, gt)
            assert loss == 0.0 and not grad.any()


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


class TestTraining:
    def test_deterministic_for_a_fixed_seed(self, rng):
        pairs = []
        for _ in range(3):
            geo = rng.random((8, 8, 8)) < 0.3
            gt = geo & (rng.random(geo.shape) < 0.5)
            pairs.append((FroxelGrid.from_dense(geo),
                          FroxelGrid.from_dense(gt, role="gt_pvs")))
        mcfg = ModelConfig.default(2, hidden=8)
        tcfg = TrainConfig(epochs=3, batch_size=2, lr=1e-2, seed=5)
        net_a, hist_a = train(pairs, mcfg, tcfg)
        net_b, hist_b = train(pairs, mcfg, tcfg)
        assert len(hist_a) == 3 and hist_a == hist_b
        for a, b in zip(net_a.layers, net_b.layers):
            assert a.w.dtype == np.float64
            assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
        net_c, _ = train(pairs, mcfg, TrainConfig(epochs=3, batch_size=2, lr=1e-2, seed=6))
        assert not np.array_equal(net_a.layers[0].w, net_c.layers[0].w)

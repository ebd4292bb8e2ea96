"""Convolution layers, inference precision, gradients, interleaving and
checkpoint files."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from froxelpvs.froxel import FroxelGrid, froxelize
from froxelpvs.interleave import ChannelTensor, deinterleave, interleave
from froxelpvs.neural import ACTIVATIONS, Conv3d, ConvSpec, ModelConfig, PvsNet, \
    TrainConfig, _sigmoid, combined_loss, conv_rules, dilate, evaluate_pairs, predict_pvs, \
    train

from conftest import peak_mb
import reference

BAND = 1e-5     # |p - tau| below this may flip between float32 and float64


def _layer(k, cin, cout, act, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    layer = Conv3d(ConvSpec(k, cin, cout, act), rng)
    layer.b = rng.normal(0.0, 0.1, cout)
    return layer


def _float64_chain(net, x):
    """The dense layer chain in float64: a layer computes in its input's
    precision, so the input is cast first."""
    x = x.astype(np.float64)
    for layer in net.layers:
        x = layer.forward(x)
    assert x.dtype == np.float64
    return x


def _masked_split_sigmoid(z):
    """The logistic function as two masked halves, each in its stable form."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_equals_masked_split_bitwise(dtype, rng):
    info = np.finfo(dtype)
    edges = [0.0, -0.0, np.inf, -np.inf, info.max, -info.max, info.tiny, -info.tiny,
             info.smallest_subnormal, -info.smallest_subnormal, info.eps, -info.eps,
             88.7, -88.7, 103.9, -103.9, 709.8, -709.8, 745.2, -745.2, 1e4, -1e4]
    z = np.concatenate([np.array(edges, dtype=dtype),
                        rng.normal(0.0, 40.0, 2000).astype(dtype)]).reshape(-1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sigmoid(z)
    want = _masked_split_sigmoid(z)
    assert got.dtype == dtype and got.shape == z.shape
    assert got.tobytes() == want.tobytes()


class TestConv3dInference:
    @pytest.mark.parametrize("act", ACTIVATIONS)
    @pytest.mark.parametrize("bsz", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_float64_cached_path(self, k, bsz, act, rng):
        layer = _layer(k, 5, 4, act, seed=k)
        x = rng.normal(0.0, 1.0, (bsz, 4, 5, 6, 5))
        y = layer.forward(x.astype(np.float32))
        ref, _ = layer.forward(x, keep_cache=True)
        assert y.dtype == np.float32 and ref.dtype == np.float64
        assert y.shape == ref.shape == (bsz, 4, 5, 6, 4)
        np.testing.assert_allclose(y, ref, rtol=0, atol=1e-5)

    def test_rejects_wrong_channel_count(self):
        layer = _layer(3, 4, 4, "relu")
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 4, 4, 4, 3)))

    def test_bool_and_float32_input_agree_bitwise(self, rng):
        layer = _layer(3, 8, 6, "sigmoid")
        x = rng.random((1, 4, 4, 4, 8)) < 0.3
        got, want = layer.forward(x), layer.forward(x.astype(np.float32))
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("keep_cache", [False, True])
    @pytest.mark.parametrize("dtype, want", [(bool, np.float32), (np.float32, np.float32),
                                             (np.float64, np.float64)],
                             ids=["bool", "float32", "float64"])
    def test_precision_follows_input(self, dtype, want, keep_cache, rng):
        """float64 rows run in float64 and any other rows in float32;
        ``keep_cache`` changes only whether a cache comes back."""
        layer = _layer(3, 4, 3, "relu")
        x = (rng.random((2, 3, 4, 5, 4)) < 0.4).astype(dtype)
        out = layer.forward(x, keep_cache=keep_cache)
        if keep_cache:
            out, (rows, _, y, _) = out
            assert rows.dtype == y.dtype == want
        assert out.dtype == want and out.shape == (2, 3, 4, 5, 3)


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
            want = (p64 >= tau) & grid.to_dense() if init == "he" else p64 >= tau
            assert np.array_equal(pred[settled], want[settled])

    def test_step_by_step_chain_equals_predict_pvs(self, rng):
        grid = FroxelGrid.from_dense(rng.random((16, 16, 16)) < 0.2)
        net = PvsNet(ModelConfig.default(4, hidden=64, init="identity"),
                     np.random.Generator(np.random.PCG64(0)))
        x = interleave(grid, 4).values[None]
        for layer in net.layers:
            x = layer.forward(x)
        steps = deinterleave(ChannelTensor(x[0], 4), 4, threshold=0.5)
        assert steps.bits.tobytes() == predict_pvs(grid, net).bits.tobytes()

    @pytest.mark.parametrize("tau", [-0.1, 1.5, float("nan")])
    def test_rejects_tau_outside_unit_interval(self, tau):
        """Training rejects these thresholds, so inference does too, rather
        than ship an empty or a full PVS."""
        net = PvsNet(ModelConfig.default(2, hidden=4))
        with pytest.raises(ValueError, match="tau"):
            predict_pvs(FroxelGrid((8, 8, 8)), net, tau)

    def test_dims_not_divisible_by_d_raise_interleave_error(self):
        """``interleave`` owns the rule that d divides every grid dim."""
        net = PvsNet(ModelConfig.default(4, hidden=4))
        with pytest.raises(ValueError, match=r"interleave factor 4 must divide grid dims "
                                             r"\(8, 8, 6\)"):
            predict_pvs(FroxelGrid((8, 8, 6)), net)


def _he_net(d, kernels, seed, hidden=6):
    """He-init net with the given kernel sizes and random nonzero biases."""
    c = d ** 3
    chans = [c] + [hidden] * (len(kernels) - 1) + [c]
    specs = [ConvSpec(k, cin, cout, "relu") for k, cin, cout in
             zip(kernels, chans, chans[1:])]
    specs[-1].activation = "sigmoid"
    rng = np.random.Generator(np.random.PCG64(seed))
    net = PvsNet(ModelConfig(d, specs), rng)
    for layer in net.layers:
        layer.b = rng.normal(0.0, 0.5, layer.b.shape)
    return net


def _dense_masked(grid, net, tau):
    """Float64 dense chain, thresholded and masked by geometry, and the
    dense probabilities."""
    d = net.cfg.d
    x = interleave(grid, d).values[None]
    p64 = deinterleave(ChannelTensor(_float64_chain(net, x)[0], d))
    return (p64 >= tau) & grid.to_dense(), p64


class TestSparseInference:
    @pytest.mark.parametrize("kernels", [(1,), (3,), (5,), (3, 1), (1, 5), (3, 3, 3),
                                         (5, 3, 1, 3)],
                             ids=lambda ks: "k" + "-".join(map(str, ks)))
    @pytest.mark.parametrize("fill", [0.0, 0.03, 1.0])
    def test_equals_dense_masked(self, kernels, fill):
        """Bias-only cells matter: hidden layers compute cells no occupied
        cell reaches, and the next layer reads them."""
        rng = np.random.Generator(np.random.PCG64(len(kernels) * 10 + kernels[0]))
        grid = FroxelGrid.from_dense(rng.random((16, 8, 12)) < fill)
        net = _he_net(2, kernels, seed=sum(kernels))
        for tau in (0.5, 0.3):
            pred = predict_pvs(grid, net, tau)
            want, p64 = _dense_masked(grid, net, tau)
            settled = np.abs(p64 - tau) >= BAND
            assert np.array_equal(pred.to_dense()[settled], want[settled])
            assert pred.subset_of(grid)
            if fill == 0.0:
                assert pred.occupied_count() == 0

    def test_unmasked_dense_output_differs(self):
        """The case above is not vacuous: the dense net marks empty froxels."""
        rng = np.random.Generator(np.random.PCG64(4))
        grid = FroxelGrid.from_dense(rng.random((16, 8, 12)) < 0.03)
        net = _he_net(2, (3, 3, 3), seed=9)
        net.layers[-1].b[:] = 2.0
        want, p64 = _dense_masked(grid, net, 0.5)
        assert (p64 >= 0.5).sum() > want.sum() > 0
        assert np.array_equal(predict_pvs(grid, net).to_dense(), want)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_rules_match_neighbour_loop(self, k, rng):
        shape = (4, 5, 3)
        out_cells = rng.random(shape) < 0.5
        in_cells = rng.random(shape) < 0.4
        rules = conv_rules(out_cells, in_cells, k)
        rows = {tuple(c): r for r, c in enumerate(np.argwhere(in_cells))}
        p = k // 2
        want = np.full((k ** 3, out_cells.sum()), -1)
        for r, (x, y, z) in enumerate(np.argwhere(out_cells)):
            for j, (a, b, c) in enumerate(np.ndindex(k, k, k)):
                want[j, r] = rows.get((x + a - p, y + b - p, z + c - p), -1)
        assert np.array_equal(rules, want)

    @pytest.mark.parametrize("r", [0, 1, 2, 4])
    def test_dilate_matches_neighbour_loop(self, r, rng):
        cells = rng.random((6, 4, 5)) < 0.1
        want = np.zeros_like(cells)
        for x, y, z in np.argwhere(cells):
            want[max(x - r, 0):x + r + 1, max(y - r, 0):y + r + 1, max(z - r, 0):z + r + 1] = True
        assert np.array_equal(dilate(cells, r), want)

    def test_sparse_layer_rejects_bad_shapes(self):
        layer = _layer(3, 4, 2, "relu")
        rules = conv_rules(np.ones((2, 2, 2), bool), np.ones((2, 2, 2), bool), 3)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((8, 3), np.float32), rules=rules)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((8, 4), np.float32), rules=rules[:9])


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


def _check_central_differences(layer, x, g, rules=None):
    """The layer's (dx, dw, db) for the loss sum(y * g) against central
    differences."""
    def loss():
        y, _ = layer.forward(x, keep_cache=True, rules=rules)
        return float((y * g).sum())

    _, cache = layer.forward(x, keep_cache=True, rules=rules)
    dx, dw, db = layer.backward(g, cache)
    assert cache[0].dtype == dx.dtype == dw.dtype == db.dtype == np.float64
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


class TestConv3dGradients:
    @pytest.mark.parametrize("bsz", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_im2col_reference(self, k, bsz, rng):
        """The table kernel computes what im2col does, so checkpoints keep
        the (a*k + b)*k + c weight-row layout."""
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
        _check_central_differences(layer, x, g)

    @pytest.mark.parametrize("k", [1, 3])
    def test_sparse_table_backward_matches_central_differences(self, k, rng):
        """dx, dw and db through a neighbour table whose in and out cell
        sets differ and whose rows miss neighbours."""
        layer = _layer(k, 2, 3, "sigmoid", seed=k)
        out_cells = rng.random((3, 4, 3)) < 0.5
        in_cells = rng.random((3, 4, 3)) < 0.4
        rules = conv_rules(out_cells, in_cells, k)
        assert (rules < 0).any() and not np.array_equal(out_cells, in_cells)
        x = rng.normal(0.0, 1.0, (int(in_cells.sum()), 2))
        g = rng.normal(0.0, 1.0, (int(out_cells.sum()), 3))
        _check_central_differences(layer, x, g, rules)

    def test_relu_mask_from_output_equals_mask_from_preactivation(self, rng):
        """The cache keeps y = max(z, 0), not z; y > 0 is z > 0 at every
        value, signed zeros and NaN included."""
        edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, np.nan]
        x = np.concatenate([edges, rng.normal(0.0, 1.0, 40)])
        layer = Conv3d(ConvSpec(1, 1, 1, "relu"))
        layer.w[:] = 1.0
        layer.b[:] = -0.0
        z = -0.0 + x          # the layer's bias plus x @ w, in its order
        assert np.signbit(z[1]) and not np.signbit(z[0])
        y, cache = layer.forward(x.reshape(1, -1, 1, 1, 1), keep_cache=True)
        assert np.array_equal(y.reshape(-1) > 0, z > 0)
        dx, _, db = layer.backward(np.ones_like(y), cache)
        assert np.array_equal(dx.reshape(-1), (z > 0) * 1.0)
        assert db[0] == np.count_nonzero(z > 0)

    def test_backward_requires_cache(self):
        with pytest.raises(ValueError):
            _layer(3, 2, 2, "relu").backward(np.zeros((1, 2, 2, 2, 2)), None)


class TestForwardCached:
    def test_equals_5d_layer_chain_bitwise(self, rng):
        """One neighbour table per kernel size and batch, shared by the
        layers, gives the 5D per-layer chain's outputs and gradients bit
        for bit."""
        net = _he_net(2, (3, 1, 3), seed=11)
        x = rng.random((2, 4, 3, 5, 8)) < 0.3
        g = rng.normal(0.0, 1.0, (2, 4, 3, 5, 8))
        got, caches = net.forward_cached(x)
        want, chain = x.astype(np.float32), []
        for layer in net.layers:
            want, cache = layer.forward(want, keep_cache=True)
            chain.append(cache)
        assert got.dtype == want.dtype == np.float32
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert caches[0][1] is caches[2][1]
        grads, dy = net.backward(g, caches), g
        for i in reversed(range(len(net.layers))):
            dy, dw, db = net.layers[i].backward(dy, chain[i], need_dx=i > 0)
            assert dw.tobytes() == grads[i][0].tobytes()
            assert db.tobytes() == grads[i][1].tobytes()

    def test_bool_batch_runs_float32(self, rng):
        """Training's bool frames give float32 output, caches and
        gradients; the weights stay float64."""
        net = _he_net(2, (3, 1, 3), seed=11)
        x = rng.random((2, 4, 3, 5, 8)) < 0.3
        out, caches = net.forward_cached(x)
        assert out.dtype == np.float32
        for rows, _, y, _ in caches:
            assert rows.dtype == y.dtype == np.float32
        for layer, (dw, db) in zip(net.layers, net.backward(np.ones_like(out), caches)):
            assert dw.dtype == db.dtype == np.float32
            assert layer.w.dtype == layer.b.dtype == np.float64

    def test_float32_gradients_match_float64(self, rng):
        """On one batch, the float32 step's gradients equal the float64
        step's to within float32 rounding (eps 6e-8) over these sums of up
        to a few hundred terms: 1e-5 of each gradient's largest entry."""
        net = _he_net(2, (3, 1, 3), seed=11)
        x = rng.random((2, 4, 3, 5, 8)) < 0.3
        g = rng.normal(0.0, 1.0, (2, 4, 3, 5, 8))
        p32, c32 = net.forward_cached(x)
        p64, c64 = net.forward_cached(x.astype(np.float64))
        assert p64.dtype == np.float64
        np.testing.assert_allclose(p32, p64, rtol=0, atol=1e-6)
        for got, want in zip(net.backward(g, c32), net.backward(g, c64)):
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-5 * np.abs(b).max())

    def test_float32_step_peaks_below_float64(self, rng):
        """A float32 step's arrays are half the size of a float64 step's,
        so one forward and backward peak well below the float64 copy's,
        and a fallback to float64 caches shows."""
        net = PvsNet(ModelConfig.default(4), np.random.Generator(np.random.PCG64(0)))
        x = rng.random((3, 8, 8, 8, 64)) < 0.3
        x64 = x.astype(np.float64)

        def step(batch):
            pred, caches = net.forward_cached(batch)
            net.backward(np.ones_like(pred), caches)

        assert peak_mb(lambda: step(x)) <= 0.8 * peak_mb(lambda: step(x64))

    def test_rejects_rows(self):
        net = _he_net(2, (3,), seed=1)
        with pytest.raises(ValueError):
            net.forward_cached(np.zeros((8, 8)))


# Dice alone is lam = 1, RVL alone lam = 0.
_LOSSES = {
    "dice": lambda p, g: combined_loss(p, g, TrainConfig(alpha=0.1, lam=1.0)),
    "dice_even": lambda p, g: combined_loss(p, g, TrainConfig(alpha=0.5, lam=1.0)),
    "rvl": lambda p, g: combined_loss(p, g, TrainConfig(lam=0.0)),
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
            dice = TrainConfig(alpha=alpha, lam=1.0)
            assert combined_loss(np.zeros_like(gt), gt, dice)[0] == 0.0
            assert combined_loss(pred, gt, dice)[0] == 1.0
        for p in (np.zeros_like(gt), pred):
            loss, grad = combined_loss(p, gt, TrainConfig(lam=0.0))
            assert loss == 0.0 and not grad.any()

    @pytest.mark.parametrize("shape", [(4, 4, 4, 8), (8, 8, 8, 64)])
    def test_closed_form_equals_elementwise_reference_bitwise(self, shape, rng):
        """The two-valued gradient and the loss equal the elementwise forms
        byte for byte, over alpha, lam, the prediction, ground-truth fill
        and ground-truth dtype."""
        preds = [rng.uniform(0.0, 1.0, shape), np.zeros(shape), np.ones(shape)]
        truths = [rng.random(shape) < 0.3, np.zeros(shape, dtype=bool),
                  np.ones(shape, dtype=bool)]
        for alpha in (0.0, 0.1, 0.5, 1.0):
            for lam in (0.0, 0.5, 0.99, 1.0):
                cfg = TrainConfig(alpha=alpha, lam=lam)
                for pred in preds:
                    for gt in truths:
                        for g in (gt, gt.astype(np.float64)):
                            loss, grad = combined_loss(pred, g, cfg)
                            want, want_grad = reference.combined_loss(pred, g, alpha, lam)
                            assert np.float64(loss).tobytes() == np.float64(want).tobytes()
                            assert grad.dtype == np.float64 and grad.shape == shape
                            assert grad.tobytes() == want_grad.tobytes()

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            combined_loss(np.zeros((2, 2)), np.zeros((2, 3)), TrainConfig())


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


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3])
def test_train_config_rejects_nonpositive_or_nonfinite_lr(lr):
    with pytest.raises(ValueError, match="learning rate"):
        TrainConfig(lr=lr)


# sha256 of (checkpoint bytes, repr of the per-epoch history) of a tiny
# fixed run: two random 16^3 frames, d = 2, hidden 8, 4 epochs of batch 1
GOLDEN_TRAIN = ("3541853e6a9c38595e04a0da77f9364b48ce7b19222c082c8434aa5a51495e4f",
                "3a5380b69a7d929143979c47401c570be488c4422597e2a1fdbbc5342b101c5e")


class TestTraining:
    def test_golden_checkpoint_and_history(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(24))
        pairs = []
        for _ in range(2):
            geo = rng.random((16, 16, 16)) < 0.3
            gt = geo & (rng.random(geo.shape) < 0.5)
            pairs.append((FroxelGrid.from_dense(geo),
                          FroxelGrid.from_dense(gt, role="gt_pvs")))
        path = tmp_path / "net.fpvw"
        _, history = train(pairs, ModelConfig.default(2, hidden=8),
                           TrainConfig(epochs=4, batch_size=1, lr=1e-2),
                           checkpoint_path=path)
        got = (hashlib.sha256(path.read_bytes()).hexdigest(),
               hashlib.sha256(repr(history).encode()).hexdigest())
        assert got == GOLDEN_TRAIN

    def test_float32_training_tracks_float64_reference(self):
        """Training runs in float32 against float64 weights; over a short
        run whose loss falls by a tenth, its epoch losses and final weights
        stay within float32 rounding of the all-float64 loop: 1e-7 on the
        losses, 1e-6 on weights of magnitude up to 0.4."""
        rng = np.random.Generator(np.random.PCG64(24))
        pairs = []
        for _ in range(3):
            geo = rng.random((16, 16, 16)) < 0.3
            gt = geo & (rng.random(geo.shape) < 0.5)
            pairs.append((FroxelGrid.from_dense(geo),
                          FroxelGrid.from_dense(gt, role="gt_pvs")))
        mcfg = ModelConfig.default(2, hidden=8)
        tcfg = TrainConfig(epochs=6, batch_size=2, lr=1e-1)
        net, history = train(pairs, mcfg, tcfg)
        want_net, want = reference.train_float64(pairs, mcfg, tcfg)
        assert want[-1] < 0.95 * want[0]
        np.testing.assert_allclose([e["loss"] for e in history], want, rtol=0, atol=1e-7)
        for got, ref in zip(net.layers, want_net.layers):
            np.testing.assert_allclose(got.w, ref.w, rtol=0, atol=1e-6)
            np.testing.assert_allclose(got.b, ref.b, rtol=0, atol=1e-6)

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

    def test_peak_memory_holds_one_step(self, rng):
        """A step's activations, caches and gradients die before the next
        step starts: four batches peak no higher than one."""
        pairs = []
        for _ in range(4):
            geo = rng.random((16, 16, 16)) < 0.3
            gt = geo & (rng.random(geo.shape) < 0.5)
            pairs.append((FroxelGrid.from_dense(geo),
                          FroxelGrid.from_dense(gt, role="gt_pvs")))
        mcfg = ModelConfig.default(2, hidden=16)
        tcfg = TrainConfig(epochs=1, batch_size=1)
        one = peak_mb(lambda: train(pairs[:1], mcfg, tcfg))
        four = peak_mb(lambda: train(pairs, mcfg, tcfg))
        assert four <= 1.1 * one

    def test_peak_mb_refuses_to_nest(self):
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="nest"):
                peak_mb(lambda: None)
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_validation_rates_are_masked_by_geometry(self, rng):
        """A net that marks every froxel misses nothing, and its false
        positives are the geometry froxels outside the ground truth."""
        geo = rng.random((8, 8, 8)) < 0.3
        gt = geo & (rng.random(geo.shape) < 0.5)
        x = interleave(geo.astype(np.float64), 2).values[None]
        y = interleave(gt.astype(np.float64), 2).values[None]
        net = PvsNet(ModelConfig.default(2, hidden=4))
        net.layers[-1].b[:] = 10.0
        fnr, fpr = evaluate_pairs(net, x, y, 0.5)
        assert fnr == 0.0
        assert fpr == (geo & ~gt).sum() / gt.sum()

    def test_epoch_rates_are_masked_by_geometry(self, rng):
        """At tau = 0 the shipped PVS is the geometry grid, in training as
        in validation."""
        geo = rng.random((8, 8, 8)) < 0.3
        gt = geo & (rng.random(geo.shape) < 0.5)
        pair = (FroxelGrid.from_dense(geo), FroxelGrid.from_dense(gt, role="gt_pvs"))
        _, (entry,) = train([pair], ModelConfig.default(2, hidden=4),
                            TrainConfig(epochs=1, tau=0.0), eval_pairs=[pair])
        assert entry["fnr"] == entry["val_fnr"] == 0.0
        assert entry["fpr"] == entry["val_fpr"] == (geo & ~gt).sum() / gt.sum()

    def test_validation_rates_rate_predict_pvs(self, rng):
        """Validation scores the grids predict_pvs ships, bit for bit."""
        geos = [FroxelGrid.from_dense(rng.random((8, 8, 8)) < 0.3) for _ in range(2)]
        gts = [FroxelGrid.from_dense(g.to_dense() & (rng.random((8, 8, 8)) < 0.5))
               for g in geos]
        net = _he_net(2, (3, 3), seed=3)
        x = np.stack([interleave(g.to_dense().astype(np.float64), 2).values for g in geos])
        y = np.stack([interleave(g.to_dense().astype(np.float64), 2).values for g in gts])
        preds = [predict_pvs(g, net, 0.4).to_dense() for g in geos]
        fn = sum(int((~p & g.to_dense()).sum()) for p, g in zip(preds, gts))
        fp = sum(int((p & ~g.to_dense()).sum()) for p, g in zip(preds, gts))
        gtp = sum(g.occupied_count() for g in gts)
        assert 0 < fn < gtp and fp > 0
        assert evaluate_pairs(net, x, y, 0.4) == (fn / gtp, fp / gtp)

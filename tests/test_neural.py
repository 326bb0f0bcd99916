import base64
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from drlfolio.errors import FormatError, ProtocolError
from drlfolio.neural import (
    Conv2D,
    Dense,
    Flatten,
    Network,
    ReLU,
    build_actor,
    build_critic,
    load_checkpoint,
    minmax_action,
    minmax_action_batch,
    minmax_forward_batch,
    minmax_vjp_batch,
    save_checkpoint,
)
from oracles import (
    central_difference,
    conv2d_backward_naive,
    conv2d_naive,
    critic_input_by_concat,
    dense_naive,
    relative_error,
)

DATA = Path(__file__).parent / "data"


def scalar_loss(net, x, probe):
    """Deterministic scalar head: probe-weighted sum of the network output."""
    return float(np.sum(net.forward(x) * probe))


def _relu_masks(net):
    return [layer._mask.copy() for layer in net.layers if isinstance(layer, ReLU)]


def check_gradients(net, x, rng, coords_per_param=12, h=1e-4, tol=1e-4):
    """Analytic grads vs central differences on sampled parameter coordinates.

    A central difference is only a valid probe where the network is smooth
    across [theta-h, theta+h]; coordinates whose ReLU activation pattern flips
    between the two evaluations are skipped (and counted, so a net that always
    flips cannot silently pass).
    """
    probe = rng.standard_normal(net.forward(x).shape)
    net.forward(x)
    net.backward(probe)
    grads = [g.copy() for g in net.grads()]
    params = net.params()

    worst = 0.0
    checked = skipped = 0
    for p, g in zip(params, grads):
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        picks = rng.choice(flat.size, size=min(coords_per_param, flat.size), replace=False)
        for i in picks:
            old = flat[i]
            flat[i] = old + h
            up = scalar_loss(net, x, probe)
            masks_up = _relu_masks(net)
            flat[i] = old - h
            down = scalar_loss(net, x, probe)
            masks_down = _relu_masks(net)
            flat[i] = old
            if any(np.any(a != b) for a, b in zip(masks_up, masks_down)):
                skipped += 1
                continue
            fd = (up - down) / (2.0 * h)
            worst = max(worst, relative_error(fd, gflat[i]))
            checked += 1

    assert checked >= max(3 * skipped, 10), (
        f"only {checked} checkable coordinates against {skipped} kink-crossing ones"
    )
    return worst


class TestLayersForward:
    def test_zero_parameters_zero_output(self):
        conv = Conv2D(3, 4, 1, 3)
        assert np.all(conv.forward(np.random.default_rng(0).standard_normal((2, 3, 5, 9))) == 0)
        dense = Dense(6, 2)
        assert np.all(dense.forward(np.ones((3, 6))) == 0)

    def test_identity_one_by_one_conv(self, rng):
        conv = Conv2D(3, 3, 1, 1)
        conv.weight[...] = np.eye(3)[:, :, None, None]
        x = rng.standard_normal((2, 3, 4, 7))
        assert np.array_equal(conv.forward(x), x)

    def test_conv_matches_naive_loops(self, rng):
        conv = Conv2D(2, 3, 1, 3, rng)
        x = rng.standard_normal((2, 2, 4, 8))
        expected = conv2d_naive(x, conv.weight, conv.bias)
        assert np.max(np.abs(conv.forward(x) - expected)) < 1e-6

    def test_dense_matches_naive_loops(self, rng):
        dense = Dense(7, 4, rng)
        x = rng.standard_normal((5, 7))
        expected = dense_naive(x, dense.weight, dense.bias)
        assert np.max(np.abs(dense.forward(x) - expected)) < 1e-6

    def test_network_matches_naive_composition(self, rng):
        net = Network([Conv2D(2, 3, 1, 3, rng), ReLU(), Flatten(), Dense(3 * 4 * 6, 5, rng)])
        x = rng.standard_normal((3, 2, 4, 8))
        conv_out = conv2d_naive(x, net.layers[0].weight, net.layers[0].bias)
        relu_out = np.maximum(conv_out, 0.0)
        # The head's rows in memory follow the channels-last flatten, (H, W, C).
        expected = dense_naive(relu_out.transpose(0, 2, 3, 1).reshape(3, -1),
                               net.layers[3].weight, net.layers[3].bias)
        assert np.max(np.abs(net.forward(x) - expected)) < 1e-6

    def test_forward_is_deterministic(self, rng):
        net = build_actor(3, 10, rng)
        x = rng.standard_normal((2, 4, 3, 10))
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            Conv2D(3, 4, 1, 3, rng).forward(rng.standard_normal((1, 2, 5, 9)))
        with pytest.raises(ValueError):
            Dense(6, 2, rng).forward(rng.standard_normal((3, 5)))


def channels_last(x):
    """The same NCHW values held in channels-last memory."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


class TestConvProperties:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), c=st.integers(1, 3), o=st.integers(1, 3),
           kh=st.integers(1, 2), kw=st.integers(1, 4),
           extra_h=st.integers(0, 2), extra_w=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_oracles(self, n, c, o, kh, kw, extra_h, extra_w, seed):
        rng = np.random.default_rng(seed)
        conv = Conv2D(c, o, kh, kw, rng)
        conv.bias[...] = rng.standard_normal(o)
        x = rng.standard_normal((n, c, kh + extra_h, kw + extra_w))
        out = conv.forward(x)
        assert out.shape == (n, o, extra_h + 1, extra_w + 1)
        np.testing.assert_allclose(out, conv2d_naive(x, conv.weight, conv.bias), rtol=0, atol=1e-12)

        dout = rng.standard_normal(out.shape)
        dx = conv.backward(dout)
        d_weight, d_bias, dx_ref = conv2d_backward_naive(x, conv.weight, dout)
        np.testing.assert_allclose(conv.d_weight, d_weight, rtol=0, atol=1e-12)
        np.testing.assert_allclose(conv.d_bias, d_bias, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-12)

        # The memory layout of the arguments does not change a single bit.
        grads = (dx, conv.d_weight.copy(), conv.d_bias.copy())
        assert np.array_equal(conv.forward(channels_last(x)), out)
        again = conv.backward(channels_last(dout))
        assert np.array_equal(again, grads[0])
        assert np.array_equal(conv.d_weight, grads[1]) and np.array_equal(conv.d_bias, grads[2])


class TestBackward:
    def test_backward_before_forward(self, rng):
        net = Network([Dense(3, 2, rng)])
        with pytest.raises(ProtocolError):
            net.backward(np.ones((1, 2)))

    def test_zero_upstream_zero_grads(self, rng):
        net = Network([Conv2D(2, 2, 1, 3, rng), ReLU(), Flatten(), Dense(2 * 3 * 4, 2, rng)])
        x = rng.standard_normal((2, 2, 3, 6))
        net.forward(x)
        net.backward(np.zeros((2, 2)))
        assert all(np.all(g == 0) for g in net.grads())

    def test_backward_linearity(self, rng):
        net = Network([Conv2D(2, 2, 1, 3, rng), ReLU(), Flatten(), Dense(2 * 3 * 4, 2, rng)])
        x = rng.standard_normal((2, 2, 3, 6))
        g = rng.standard_normal((2, 2))
        net.forward(x)
        net.backward(g)
        once = [gr.copy() for gr in net.grads()]
        net.forward(x)
        net.backward(2.0 * g)
        twice = net.grads()
        for a, b in zip(once, twice):
            assert np.allclose(2.0 * a, b, atol=1e-12)

    def test_each_layer_kind_gradient(self, rng):
        layers = {
            "conv2d": Network([Conv2D(2, 3, 1, 3, rng)]),
            "dense": Network([Dense(8, 3, rng)]),
            "relu": Network([Dense(8, 6, rng), ReLU()]),
            "flatten": Network([Conv2D(2, 2, 1, 2, rng), Flatten()]),
        }
        inputs = {
            "conv2d": rng.standard_normal((2, 2, 3, 7)),
            "dense": rng.standard_normal((4, 8)),
            "relu": rng.standard_normal((4, 8)),
            "flatten": rng.standard_normal((2, 2, 3, 7)),
        }
        for kind, net in layers.items():
            worst = check_gradients(net, inputs[kind], rng)
            assert worst < 1e-4, f"{kind}: relative error {worst}"

    def test_input_gradient_matches_fd(self, rng):
        net = Network([Conv2D(2, 2, 1, 3, rng), ReLU(), Flatten(), Dense(2 * 3 * 4, 1, rng)])
        x = rng.standard_normal((1, 2, 3, 6))
        probe = np.ones((1, 1))
        net.forward(x)
        dx = net.backward(probe)
        flat = x.reshape(-1)
        for i in rng.choice(flat.size, size=10, replace=False):
            fd = central_difference(lambda: scalar_loss(net, x, probe), flat, i)
            assert relative_error(fd, dx.reshape(-1)[i]) < 1e-4

    def test_skipped_gradients(self, rng):
        net = Network([Conv2D(2, 2, 1, 3, rng), ReLU(), Flatten(), Dense(2 * 3 * 4, 2, rng)])
        x = rng.standard_normal((2, 2, 3, 6))
        g = rng.standard_normal((2, 2))
        net.forward(x)
        dx = net.backward(g)
        full = net.grad.copy()
        net.grad[...] = 0.0
        net.forward(x)
        assert net.backward(g, input_grad=False) is None
        assert np.array_equal(net.grad, full)
        net.grad[...] = 7.0
        net.forward(x)
        assert np.array_equal(net.backward(g, param_grads=False), dx)
        assert np.all(net.grad == 7.0)

    def test_full_actor_and_critic_gradcheck(self, rng):
        actor = build_actor(5, 50, rng)
        critic = build_critic(5, 50, rng)
        xa = rng.standard_normal((1, 4, 5, 50)) * 0.05 + 1.0
        xc = rng.standard_normal((1, 5, 5, 50)) * 0.05 + 0.5
        assert check_gradients(actor, xa, rng) < 1e-4
        assert check_gradients(critic, xc, rng) < 1e-4


class TestMinmaxAction:
    def test_two_element_chain(self):
        assert minmax_action([1.0, 0.0]).tolist() == [0.5, -0.5]

    def test_all_equal_falls_back_to_cash(self):
        w = minmax_action([0.3, 0.3, 0.3, 0.3])
        assert w.tolist() == [1, 0, 0, 0]

    def test_output_is_always_valid(self, rng):
        raws = rng.standard_normal((20_000, 6)) * 10
        w = minmax_action_batch(raws)
        assert np.max(np.abs(np.abs(w).sum(axis=1) - 1.0)) <= 1e-9
        assert np.all(w[:, 0] >= 0)
        assert np.all(w[:, 0] <= 1)

    def test_affine_invariance(self, rng):
        for _ in range(1_000):
            raw = rng.standard_normal(5)
            a = float(rng.uniform(0.1, 10))
            b = float(rng.uniform(-5, 5))
            assert np.allclose(minmax_action(raw), minmax_action(a * raw + b), atol=1e-12)

    def test_batch_agrees_with_single(self, rng):
        raws = rng.standard_normal((200, 4))
        raws[:10] = raws[:10, :1]  # all-equal rows take the all-cash fallback
        batch = minmax_action_batch(raws)
        for k in range(200):
            assert minmax_action(raws[k]).tobytes() == batch[k].tobytes()

    def test_vjp_matches_fd(self, rng):
        for _ in range(20):
            raw = rng.standard_normal(6)
            dw = rng.standard_normal(6)
            _, cache = minmax_forward_batch(raw[None])
            analytic = minmax_vjp_batch(cache, dw[None])[0]
            h = 1e-6
            for i in range(6):
                rp, rm = raw.copy(), raw.copy()
                rp[i] += h
                rm[i] -= h
                fd = (minmax_action(rp) @ dw - minmax_action(rm) @ dw) / (2 * h)
                assert relative_error(fd, analytic[i], floor=1e-4) < 1e-4


    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
    def test_vjp_matches_central_differences(self, k, seed):
        """At generic points: rows whose span, and whose distance to a kink, are
        bounded away from zero. The kinks are ties at the min or max and an
        entry at the midpoint of the span, where its scaled value crosses 0
        (the cash clamp, and the absolute-value sum)."""
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.1, 10.0) * rng.standard_normal((64, k)) + rng.uniform(-5.0, 5.0)
        ordered = np.sort(raw, axis=1)
        span = ordered[:, -1] - ordered[:, 0]
        z = (ordered - ordered[:, :1]) / span[:, None]
        kink_gap = np.minimum.reduce([z[:, 1], 1.0 - z[:, -2], np.abs(2.0 * z - 1.0).min(axis=1)])
        keep = (span > 1e-3) & (kink_gap > 0.02)
        assume(keep.any())
        raw, span = raw[keep], span[keep]
        dw = rng.standard_normal(raw.shape)
        _, cache = minmax_forward_batch(raw)
        analytic = minmax_vjp_batch(cache, dw)
        h = 1e-6 * span
        for j in range(k):
            step = np.zeros_like(raw)
            step[:, j] = h
            up = minmax_action_batch(raw + step)
            down = minmax_action_batch(raw - step)
            fd = ((up - down) * dw).sum(axis=1) / (2.0 * h)
            # The VJP's scale: |dw| over the span.
            assert np.all(np.abs(fd - analytic[:, j]) <= 1e-6 * np.abs(dw).sum(axis=1) / span)


def relative_gap(got, expected):
    return np.linalg.norm(got - expected) / max(np.linalg.norm(expected), 1e-300)


class TestCriticInput:
    """The critic's first conv reads its action as one patch column; the
    reference builds the fifth channel out and runs the plain conv."""

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 4), window=st.integers(5, 12), batch=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_action_column_matches_five_channel_reference(self, m, window, batch, seed):
        rng = np.random.default_rng(seed)
        critic = build_critic(m, window, rng)
        for p in critic.params():
            if p.ndim == 1:
                p[...] = rng.uniform(-0.1, 0.1, size=p.shape)
        reference = critic.clone()
        states = 1.0 + 0.05 * rng.standard_normal((batch, 4, m, window))
        raw = rng.standard_normal((batch, m + 1))
        weights = raw / np.abs(raw).sum(axis=1, keepdims=True)
        d_q = rng.standard_normal((batch, 1))

        q = critic.forward(states, weights[:, 1:])
        d_action = critic.backward(d_q)
        q_ref = reference.forward(critic_input_by_concat(states, weights))
        d_action_ref = reference.backward(d_q)[:, 4].sum(axis=-1)

        assert d_action.shape == (batch, m)
        assert relative_gap(q, q_ref) <= 1e-12
        assert relative_gap(d_action, d_action_ref) <= 1e-12
        for got, expected in zip(critic.grads(), reference.grads()):
            assert relative_gap(got, expected) <= 1e-12

    def test_zero_risky_weights_zero_channel(self, rng):
        conv = Conv2D(5, 4, 1, 3, rng)
        conv.bias[...] = rng.standard_normal(4)
        prices = Conv2D(4, 4, 1, 3)
        prices.weight[...] = conv.weight[:, :4]
        prices.bias[...] = conv.bias
        x = rng.standard_normal((2, 4, 3, 10))
        np.testing.assert_allclose(conv.forward(x, np.zeros((2, 3))), prices.forward(x),
                                   rtol=0, atol=1e-14)

    def test_rows_carry_risky_weights(self, rng):
        """Risky weight i moves only row i of the output, by itself times the
        action channel's tap sums at every time step."""
        conv = Conv2D(5, 4, 1, 3, rng)
        x = rng.standard_normal((1, 4, 4, 7))
        base = conv.forward(x, np.zeros((1, 4)))
        taps = conv.weight[:, 4, 0, :].sum(axis=1)
        for i, a in enumerate([0.4, -0.3, 0.2, -0.05]):
            action = np.zeros((1, 4))
            action[0, i] = a
            moved = conv.forward(x, action) - base
            expected = np.zeros_like(moved)
            expected[0, :, i, :] = a * taps[:, None]
            np.testing.assert_allclose(moved, expected, rtol=0, atol=1e-14)

    def test_permutation_consistency(self, rng):
        conv = Conv2D(5, 4, 1, 3, rng)
        x = rng.standard_normal((2, 4, 4, 7))
        action = rng.uniform(-0.5, 0.5, size=(2, 4))
        perm = np.array([2, 0, 3, 1])
        direct = conv.forward(x[:, :, perm, :], action[:, perm])
        np.testing.assert_allclose(direct, conv.forward(x, action)[:, :, perm, :],
                                   rtol=0, atol=1e-14)

    def test_length_mismatch(self, rng):
        conv = Conv2D(5, 4, 1, 3, rng)
        # Too few assets, an unbatched action, and the action channel in x too.
        for channels, action_shape in [(4, (1, 2)), (4, (3,)), (5, (1, 3))]:
            with pytest.raises(ValueError):
                conv.forward(rng.standard_normal((1, channels, 3, 10)), np.ones(action_shape))

    def test_action_column_needs_a_1xk_kernel(self, rng):
        with pytest.raises(ValueError, match="1 x k kernel"):
            Conv2D(5, 4, 2, 2, rng).forward(rng.standard_normal((1, 4, 3, 10)), np.ones((1, 3)))


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path, rng):
        actor = build_actor(3, 8, rng)
        critic = build_critic(3, 8, rng)
        meta = {"assets": ["a", "b", "c"], "window": 8}
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, actor, critic, meta)
        actor2, critic2, meta2 = load_checkpoint(path)
        assert meta2 == meta
        for p, q in zip(actor.params(), actor2.params()):
            assert np.array_equal(p, q) and p.dtype == q.dtype
        for p, q in zip(critic.params(), critic2.params()):
            assert np.array_equal(p, q)
        x = rng.standard_normal((2, 4, 3, 8))
        assert np.array_equal(actor.forward(x), actor2.forward(x))

    def test_version_gate(self, tmp_path, rng):
        actor = build_actor(3, 8, rng)
        critic = build_critic(3, 8, rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, actor, critic, {})
        mangled = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(mangled)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_older_checkpoint_loads_bitwise(self, tmp_path):
        """A checkpoint written before parameters moved into flat buffers loads bit for bit.

        ``data/checkpoint_v1.json`` holds two small networks (a 1x2 and a 2x2
        conv, then a dense head) drawn from default_rng(2024) as below, and
        the actor's output on default_rng(7) input as the older code computed
        it. The conv sums its taps in another order now, so that output agrees
        to rounding; everything else agrees bit for bit, including the bytes
        save_checkpoint writes.
        """
        def tiny_net(in_channels, rng):
            return Network([Conv2D(in_channels, 3, 1, 2, rng), ReLU(), Conv2D(3, 2, 2, 2, rng),
                            ReLU(), Flatten(), Dense(12, 3, rng)])

        rng = np.random.default_rng(2024)
        actor, critic = tiny_net(2, rng), tiny_net(3, rng)
        for net in (actor, critic):
            for p in net.params():
                if p.ndim == 1:
                    p[...] = rng.uniform(-0.1, 0.1, size=p.shape)

        path = DATA / "checkpoint_v1.json"
        loaded_actor, loaded_critic, meta = load_checkpoint(path)
        for built, loaded in ((actor, loaded_actor), (critic, loaded_critic)):
            assert loaded.spec() == built.spec()
            assert loaded.flat.tobytes() == built.flat.tobytes()
        x = np.random.default_rng(meta["input_seed"]).standard_normal((2, 2, 3, 5))
        out = loaded_actor.forward(x)
        assert out.tobytes() == actor.forward(x).tobytes()
        np.testing.assert_allclose(out, meta["actor_output"], rtol=0, atol=1e-14)

        save_checkpoint(tmp_path / "again.json", actor, critic, meta)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def stored_arrays(net_payload):
    """A network's parameter arrays exactly as the checkpoint file holds them."""
    return [np.frombuffer(base64.b64decode(e["data"]), dtype="<f8").reshape(e["shape"])
            for e in net_payload["params"]]


def forward_from_stored(arrays, x):
    """conv, ReLU, conv, ReLU, NCHW flatten, dense, ReLU, dense, by the loop oracles."""
    w1, b1, w2, b2, w3, b3, w4, b4 = arrays
    h = np.maximum(conv2d_naive(x, w1, b1), 0.0)
    h = np.maximum(conv2d_naive(h, w2, b2), 0.0)
    h = np.maximum(dense_naive(h.reshape(h.shape[0], -1), w3, b3), 0.0)
    return dense_naive(h, w4, b4)


class TestStoredHeadRows:
    """In memory a head Dense keeps its rows in the channels-last order of the
    Flatten before it; a checkpoint keeps them in (C, H, W) order."""

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m=st.integers(1, 4), window=st.integers(5, 9), seed=st.integers(0, 2**32 - 1))
    def test_file_arrays_compute_the_loaded_forward(self, tmp_path, m, window, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, build_actor(m, window, rng), build_critic(m, window, rng), {})
        payload = json.loads(path.read_text())
        actor, critic, _ = load_checkpoint(path)
        x = 1.0 + 0.05 * rng.standard_normal((2, 5, m, window))
        np.testing.assert_allclose(actor.forward(x[:, :4]),
                                   forward_from_stored(stored_arrays(payload["actor"]), x[:, :4]),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(critic.forward(x),
                                   forward_from_stored(stored_arrays(payload["critic"]), x),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m, window, seed, sha256", [
        (3, 7, 5, "6923e55fd34cb361d50c364eaae49d93a6761a437779aecb16dada5166ec5a3b"),
        (5, 12, 6, "20c7b8d5efc74184afee8c8fe8c6456a8be31d1d1cac2c18c07f38c1baba5217"),
    ])
    def test_same_seed_checkpoint_bytes(self, tmp_path, m, window, seed, sha256):
        """The SHA-256 values are those of the files written while head rows
        were still stored in (C, H, W) order in memory too."""
        rng = np.random.default_rng(seed)
        actor, critic = build_actor(m, window, rng), build_critic(m, window, rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, actor, critic,
                        {"assets": [f"a{i}" for i in range(m)], "window": window})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def _drop(key):
    def mangle(payload):
        del payload[key]
    return mangle


def _drop_last_actor_param(payload):
    payload["actor"]["params"].pop()


def _reshape_first_actor_param(payload):
    entry = payload["actor"]["params"][0]
    entry["shape"] = [int(np.prod(entry["shape"])), 1, 1, 1]


def _truncate_first_critic_param(payload):
    entry = payload["critic"]["params"][0]
    entry["data"] = entry["data"][:8]


class TestMalformedCheckpoint:
    @pytest.fixture
    def payload(self):
        return json.loads((DATA / "checkpoint_v1.json").read_text())

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format_version": 1, "actor": ')
        with pytest.raises(FormatError, match="not a JSON checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mangle, message", [
        (lambda p: p.update(format_version=2), "version"),
        (_drop("format_version"), "version"),
        (_drop("actor"), "lacks actor"),
        (_drop("critic"), "lacks critic"),
        (_drop("meta"), "lacks meta"),
        (_drop_last_actor_param, "parameter arrays for a spec"),
        (_reshape_first_actor_param, "parameter shape"),
        (_truncate_first_critic_param, "malformed critic"),
    ], ids=["version", "no-version", "no-actor", "no-critic", "no-meta",
            "param-count", "param-shape", "param-bytes"])
    def test_rejected_with_format_error(self, tmp_path, payload, mangle, message):
        mangle(payload)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)

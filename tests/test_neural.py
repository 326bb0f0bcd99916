import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    critic_input_batch,
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
        expected = dense_naive(relu_out.reshape(3, -1),
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


def critic_input_row(x, w):
    """The critic input for one price block and one weight vector."""
    return critic_input_batch(x[None], np.asarray(w)[None])[0]


class TestCriticInput:
    def test_zero_risky_weights_zero_channel(self, rng):
        x = rng.standard_normal((4, 3, 10))
        out = critic_input_row(x, [1.0, 0, 0, 0])
        assert out.shape == (5, 3, 10)
        assert np.all(out[4] == 0)

    def test_channel_columns_identical(self, rng):
        x = rng.standard_normal((4, 3, 50))
        w = np.array([0.1, 0.4, -0.3, 0.2])
        out = critic_input_row(x, w)
        assert np.all(out[4] == out[4][:, :1])

    def test_rows_carry_risky_weights(self, rng):
        x = rng.standard_normal((4, 4, 7))
        w = np.array([0.05, 0.4, -0.3, 0.2, -0.05])
        out = critic_input_row(x, w)
        for i in range(4):
            for k in range(7):
                assert out[4, i, k] == w[i + 1]
        assert np.array_equal(out[:4], x)

    def test_permutation_consistency(self, rng):
        x = rng.standard_normal((4, 4, 7))
        w = np.array([0.05, 0.4, -0.3, 0.2, -0.05])
        perm = np.array([2, 0, 3, 1])
        direct = critic_input_row(x[:, perm, :], np.concatenate([[w[0]], w[1:][perm]]))
        assert np.array_equal(direct, critic_input_row(x, w)[:, :, :][:, perm, :])

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            critic_input_batch(rng.standard_normal((1, 4, 3, 10)), np.ones((1, 3)))


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

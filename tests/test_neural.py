import base64
import hashlib
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from drlfolio import neural
from drlfolio.ddpg import Adam

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
    return [layer._out > 0 for layer in net.layers if isinstance(layer, ReLU)]


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


class TestPatchSharing:
    """Each conv gathers its patches a block of images at a time into a worker's
    scratch buffer, for the forward and again for the weight gradient."""

    @pytest.mark.parametrize("channels, with_action", [(4, False), (16, False), (5, True)],
                             ids=["4", "16", "5-action"])
    def test_gather_in_blocks_gives_the_bits_of_one_gemm(self, rng, monkeypatch, channels,
                                                          with_action):
        """A conv that gathers one image at a time gives the forward and input or
        action gradient of one that gathers the whole batch at once, to the bit.
        Its weight and bias gradients sum the blocks in order: they agree to
        1e-12, and to the bit for a batch of one image."""
        conv = Conv2D(channels, 16, 1, 3, rng)
        conv.bias[...] = rng.standard_normal(16)

        def run(gather_bytes, n):
            monkeypatch.setattr(Conv2D, "GATHER_BYTES", gather_bytes)
            data = np.random.default_rng(n)
            c = channels - with_action
            x = data.standard_normal((n, c, 5, 12))
            action = data.uniform(-1, 1, (n, 5)) if with_action else None
            out = conv.forward(x, action)
            dx = conv.backward(data.standard_normal(out.shape))
            return out, dx, conv.d_weight.copy(), conv.d_bias.copy()

        for n in (7, 1):
            whole, blocks = run(1 << 40, n), run(1, n)
            for got, expected in zip(blocks[:2], whole[:2]):
                assert got.tobytes() == expected.tobytes()
            for got, expected in zip(blocks[2:], whole[2:]):
                if n == 1:
                    assert got.tobytes() == expected.tobytes()
                else:
                    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("with_action", [False, True])
    def test_smaller_batch_after_larger_gives_a_fresh_convs_bits(self, rng, with_action):
        """A forward and backward read the first rows of the scratch buffer a larger
        batch grew, and get the output and gradients of a fresh conv to the bit.
        With an action, an earlier forward without one gathered a narrower block."""
        channels = 5 if with_action else 4
        used, fresh = Conv2D(channels, 16, 1, 3, rng), Conv2D(channels, 16, 1, 3)
        used.bias[...] = rng.standard_normal(16)
        fresh.weight[...], fresh.bias[...] = used.weight, used.bias

        def action(n):
            return rng.uniform(-1, 1, (n, 3)) if with_action else None

        if with_action:
            used.forward(rng.standard_normal((9, 5, 3, 7)))
        used.forward(rng.standard_normal((9, 4, 3, 7)), action(9))
        grown = neural._SCRATCH[0]
        x, a, dout = rng.standard_normal((2, 4, 3, 7)), action(2), rng.standard_normal((2, 16, 3, 5))
        assert used.forward(x, a).tobytes() == fresh.forward(x, a).tobytes()
        assert used.backward(dout.copy()).tobytes() == fresh.backward(dout.copy()).tobytes()
        assert neural._SCRATCH[0] is grown
        assert used.d_weight.tobytes() == fresh.d_weight.tobytes()
        assert used.d_bias.tobytes() == fresh.d_bias.tobytes()

    def test_another_convs_forward_between_leaves_the_gradient(self, rng, monkeypatch):
        """``conv.forward; other.forward; conv.backward`` gives the input, weight
        and bias gradient bits of ``conv.forward; conv.backward``, gathering one
        image or the whole batch at a time."""
        conv, other = Conv2D(2, 3, 1, 3, rng), Conv2D(2, 3, 1, 3, rng)
        x, dout = rng.standard_normal((2, 2, 3, 7)), rng.standard_normal((2, 3, 3, 5))
        for gather_bytes in (1, 1 << 40):
            monkeypatch.setattr(Conv2D, "GATHER_BYTES", gather_bytes)
            conv.forward(x)
            alone = conv.backward(dout.copy()), conv.d_weight.copy(), conv.d_bias.copy()
            conv.forward(x)
            other.forward(x + 1.0)
            between = conv.backward(dout.copy()), conv.d_weight, conv.d_bias
            for got, expected in zip(between, alone):
                assert got.tobytes() == expected.tobytes()

    def test_writable_input_is_gathered_every_time(self, rng):
        conv = Conv2D(2, 3, 1, 3, rng)
        x = rng.standard_normal((2, 2, 3, 7))
        first = conv.forward(x)
        x += 1.0
        assert not np.array_equal(conv.forward(x), first)


def _net(with_action: bool, rng) -> Network:
    """Two 4-channel convs and a head Dense whose batch-64 GEMMs reach the split size."""
    return Network([Conv2D(4 + with_action, 4, 1, 3, rng), ReLU(), Conv2D(4, 4, 1, 3, rng),
                    ReLU(), Flatten(), Dense(4 * 8 * 36, 64, rng), ReLU(), Dense(64, 5, rng)])


def _forward_backward(net, x, action, dout):
    out = net.forward(x, action)
    return out, net.backward(dout), net.grad.copy()


class TestTwoWorkers:
    """``split`` runs a loop in two parts on two threads with the bits of one."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(gather_bytes=st.integers(1, 1 << 20), n=st.integers(1, 70), with_action=st.booleans())
    def test_network_bits_for_any_gather_size_and_worker_count(self, gather_bytes, n,
                                                               with_action):
        """At any GATHER_BYTES the outputs and input (or action) gradients equal those of
        one worker at the default size, to the bit, and the parameter gradients equal
        those of one worker at the same size: they sum the conv blocks in block order,
        so across sizes they agree to 1e-12."""
        rng = np.random.default_rng(n)
        net = _net(with_action, rng)
        x = rng.standard_normal((n, 4, 8, 40))
        action = rng.uniform(-1, 1, (n, 8)) if with_action else None
        dout = rng.standard_normal((n, 5))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(neural, "WORKERS", 1)
            reference = _forward_backward(net, x, action, dout)
            patch.setattr(Conv2D, "GATHER_BYTES", gather_bytes)
            runs = []
            for workers in (1, 2):
                patch.setattr(neural, "WORKERS", workers)
                runs.append(_forward_backward(net, x, action, dout))
        for out, dx, grad in runs:
            assert out.tobytes() == reference[0].tobytes()
            assert dx.tobytes() == reference[1].tobytes()
            assert grad.tobytes() == runs[0][2].tobytes()
            assert np.max(np.abs(grad - reference[2])) <= 1e-12 * np.max(np.abs(reference[2]))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(block=st.integers(1, 5000), size=st.integers(1, 12_000))
    def test_adam_bits_for_any_block_and_worker_count(self, block, size):
        rng = np.random.default_rng(size)
        start, grads = rng.standard_normal((2, size)), rng.standard_normal((3, size))

        def three_steps():
            param, target, grad = start[0].copy(), start[1].copy(), np.empty(size)
            adam = Adam(param, grad, target, lr=1e-3, tau=0.01)
            for g in grads:
                grad[...] = g
                adam.step()
            return [a.tobytes() for a in (param, target, adam.m, adam.v)]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(neural, "WORKERS", 1)
            reference = three_steps()
            patch.setattr(Adam, "BLOCK", block)
            for workers in (1, 2):
                patch.setattr(neural, "WORKERS", workers)
                assert three_steps() == reference

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64])
    def test_wide_dense_bits_at_every_batch(self, n, monkeypatch):
        """A Dense wide enough to reach the split size at two rows stays inline below
        four rows, where a part would hold one row, and gives one worker's bits."""
        rng = np.random.default_rng(n)
        dense = Dense(1 << 15, 64, rng)
        x, dout = rng.standard_normal((n, 1 << 15)), rng.standard_normal((n, 64))
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(neural, "WORKERS", workers)
            out = dense.forward(x)
            runs.append([a.tobytes() for a in (out, dense.backward(dout), dense.d_weight,
                                               dense.d_bias)])
        assert runs[0] == runs[1]

    def test_parts_cover_the_units_once(self, monkeypatch):
        monkeypatch.setattr(neural, "WORKERS", 2)
        for units, expected in ((0, [(0, 0, 0)]), (1, [(0, 0, 1)]), (2, [(0, 0, 1), (1, 1, 2)]),
                                (7, [(0, 0, 4), (1, 4, 7)])):
            calls = []
            neural.split(units, lambda *call: calls.append(call))
            assert sorted(calls) == expected
        calls = []
        neural.split(7, lambda *call: calls.append(call), worth=False)
        assert calls == [(0, 0, 7)]

    def test_a_part_error_reaches_the_caller_and_the_helper_goes_on(self, monkeypatch):
        monkeypatch.setattr(neural, "WORKERS", 2)
        monkeypatch.setattr(neural, "_HELPER", neural._Helper())

        def fail(part, lo, hi):
            if part == 1:
                raise ValueError("part 1 failed")

        with pytest.raises(ValueError, match="part 1 failed"):
            neural.split(4, fail)
        calls = []
        neural.split(4, lambda *call: calls.append(call))
        assert sorted(calls) == [(0, 0, 2), (1, 2, 4)]

    def test_callers_on_several_threads_get_their_own_bits(self, monkeypatch):
        """Four threads on two cores each train forward and backward on their own
        network, switching often, and get the bits each gets alone: one loop at a
        time uses the shared scratch buffers."""
        monkeypatch.setattr(neural, "WORKERS", 2)
        cases = []
        for k in range(4):
            rng = np.random.default_rng(k)
            net = _net(k % 2 == 1, rng)
            args = (rng.standard_normal((64, 4, 8, 40)),
                    rng.uniform(-1, 1, (64, 8)) if k % 2 else None, rng.standard_normal((64, 5)))
            cases.append((net, args, [a.tobytes() for a in _forward_backward(net, *args)]))
        failures = []

        def repeat(net, args, expected):
            for _ in range(5):
                if [a.tobytes() for a in _forward_backward(net, *args)] != expected:
                    failures.append(net)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=repeat, args=case) for case in cases]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


def unattached(net):
    """Copies of ``net``'s layers and parameters outside any Network, so no conv runs a ReLU."""
    layers = [type(layer)(**{k: v for k, v in layer.spec().items() if k != "kind"})
              for layer in net.layers]
    for copy, layer in zip(layers, net.layers):
        for name in layer.param_names:
            getattr(copy, name)[...] = getattr(layer, name)
    return layers


def one_at_a_time(layers, x, action, dout, input_grad, param_grads):
    """Output, input (or action) gradient and parameter gradients of ``layers``
    called one by one, each ReLU through its own forward and backward."""
    out = layers[0].forward(x) if action is None else layers[0].forward(x, action)
    for layer in layers[1:]:
        out = layer.forward(out)
    grad = dout.copy()
    for k in reversed(range(len(layers))):
        grad = layers[k].backward(grad, input_grad=input_grad or k > 0, param_grads=param_grads)
    grads = [getattr(layer, "d_" + name) for layer in layers for name in layer.param_names]
    return out, grad, grads


MODES = {"input": (True, False), "params": (False, True), "both": (True, True)}


class TestConvReluFusion:
    """A Network runs the ReLU after a conv inside that conv's block loops and
    gets the bits of the conv alone followed by ReLU.forward and ReLU.backward."""

    def check(self, net, x, action, dout, mode):
        input_grad, param_grads = MODES[mode]
        layers = unattached(net)
        assert all(getattr(layer, "relu", None) is None for layer in layers)
        expected = one_at_a_time(layers, x, action, dout, input_grad, param_grads)
        out = net.forward(x, action)
        grad = net.backward(dout, input_grad=input_grad, param_grads=param_grads)
        assert out.tobytes() == expected[0].tobytes()
        assert (grad is None) == (expected[1] is None)
        if grad is not None:
            assert grad.tobytes() == expected[1].tobytes()
        for got, want in zip(net.grads(), expected[2], strict=True):
            assert got.tobytes() == want.tobytes()
        kept = [layer._out for layer in net.layers if isinstance(layer, ReLU)]
        for got, want in zip(kept, [c._out for c in layers if isinstance(c, ReLU)], strict=True):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gather_bytes", [1, 1 << 40], ids=["image", "batch"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("with_action", [False, True], ids=["price", "action"])
    def test_conv_then_relu(self, rng, monkeypatch, gather_bytes, mode, with_action):
        """A dout holding +0.0 and -0.0, and a channel whose output is exactly 0."""
        monkeypatch.setattr(Conv2D, "GATHER_BYTES", gather_bytes)
        net = Network([Conv2D(5 if with_action else 4, 6, 1, 3, rng), ReLU()])
        conv = net.layers[0]
        assert conv.relu is net.layers[1]
        conv.bias[...] = rng.standard_normal(6)
        conv.weight[2], conv.bias[2] = 0.0, 0.0
        x = rng.standard_normal((7, 4, 5, 12))
        action = rng.uniform(-1, 1, (7, 5)) if with_action else None
        dout = rng.standard_normal((7, 6, 5, 10))
        dout[:, :, :, ::4] = 0.0
        dout[:, :, :, 1::4] = -0.0
        self.check(net, x, action, dout, mode)
        assert np.all(net.layers[1]._out[:, 2] == 0.0)

    @pytest.mark.parametrize("gather_bytes", [1, 1 << 40], ids=["image", "batch"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("critic", [False, True], ids=["actor", "critic"])
    def test_trading_networks(self, rng, monkeypatch, gather_bytes, mode, critic):
        """Both convs of the actor and critic, fed by each other's gradients."""
        monkeypatch.setattr(Conv2D, "GATHER_BYTES", gather_bytes)
        net = (build_critic if critic else build_actor)(3, 9, rng)
        for conv in (layer for layer in net.layers if isinstance(layer, Conv2D)):
            conv.bias[...] = rng.standard_normal(16) * 0.1
            conv.weight[5], conv.bias[5] = 0.0, 0.0
        x = rng.standard_normal((6, 4, 3, 9))
        action = rng.uniform(-1, 1, (6, 3)) if critic else None
        dout = rng.standard_normal((6, 1 if critic else 4))
        self.check(net, x, action, dout, mode)


class TestExactRewrites:
    """Rewrites that must keep the bits of the code they replaced."""

    def test_relu_backward_matches_mask_rule(self):
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.0, 5e-324, -5e-324]
        x, dout = (a.ravel() for a in np.meshgrid(special, special))
        relu = ReLU()
        relu.forward(x.copy())
        with np.errstate(invalid="ignore"):  # inf * 0
            got = relu.backward(dout.copy())
            assert got.tobytes() == (dout * (x > 0)).tobytes()

    @pytest.mark.parametrize("kh, kw", [(1, 3), (2, 2), (3, 1)])
    def test_conv_input_gradient_matches_zero_filled_sum(self, rng, kh, kw):
        conv = Conv2D(3, 4, kh, kw, rng)
        x = rng.standard_normal((2, 3, 5, 8))
        dout = rng.standard_normal((2, 4, 6 - kh, 9 - kw))
        dout[:, :, 0] = 0.0
        conv.forward(x)
        got = conv.backward(dout, param_grads=False)
        ho, wo = dout.shape[2:]
        expected = np.zeros((2, 5, 8 * 3))
        dmat = np.ascontiguousarray(dout.transpose(0, 2, 3, 1)).reshape(-1, 4)
        for i in range(kh):
            for j in range(kw):
                tap = (dmat @ conv.weight[:, :, i, j]).reshape(2, ho, wo * 3)
                expected[:, i : i + ho, j * 3 : (j + wo) * 3] += tap
        assert got.tobytes() == expected.reshape(2, 5, 8, 3).transpose(0, 3, 1, 2).tobytes()


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

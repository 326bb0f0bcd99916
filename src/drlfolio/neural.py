"""Minimal dense/conv network stack with reverse-mode gradients.

Everything is float64 and batch-first. Convolutions are valid (no padding),
stride 1, with kernels spanning the time axis only (1 x k), so the asset
count stays a free dimension. The two trading networks:

    actor:  (N, 4, m, n) price block -> (N, m+1) raw weight logits
    critic: (N, 5, m, n) price block plus replicated-action channel -> (N, 1)

Layout. The public shapes are NCHW: ``Conv2D.forward`` takes and returns
``(N, C, H, W)`` arrays and a conv weight is ``(out, in, kh, kw)``. The memory
underneath is channels-last: a conv output is a transposed view of an
``(N, H, W, C)`` buffer, so the next conv reads it without a copy and gathers
each ``kh x kw`` patch as ``kh`` runs of ``kw * C`` contiguous values.

Parameters. A ``Network`` owns one contiguous parameter vector ``flat`` and
one gradient vector ``grad``; every layer's ``weight``, ``bias``,
``d_weight`` and ``d_bias`` are views into them, so an optimizer step, a
soft target update or a clone is one vector operation. Checkpoints still
store one array per parameter in the layer shapes above (format version 1).

``minmax_forward_batch`` turns rows of raw logits into valid signed weight
vectors and ``minmax_vjp_batch`` is its hand-derived vector-Jacobian
product, so policy gradients can flow through the full deployed policy.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .errors import FormatError, ProtocolError
from .portfolio_math import initial_weights

_F8 = np.dtype(np.float64).itemsize


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Conv2D:
    """Valid stride-1 cross-correlation as one GEMM over channels-last patches.

    The patch matrix has one row per output pixel and columns ordered
    ``(i, j, c)``: kernel row, kernel column, input channel.
    """

    kind = "conv2d"
    param_names = ("weight", "bias")

    def __init__(self, in_channels: int, out_channels: int, kh: int, kw: int,
                 rng: np.random.Generator | None = None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kh, self.kw = kh, kw
        fan_in = in_channels * kh * kw
        fan_out = out_channels * kh * kw
        if rng is None:
            self.weight = np.zeros((out_channels, in_channels, kh, kw))
        else:
            self.weight = glorot_uniform(rng, (out_channels, in_channels, kh, kw), fan_in, fan_out)
        self.bias = np.zeros(out_channels)
        self._cols = None
        self._in_shape = None
        self.d_weight = np.zeros_like(self.weight)
        self.d_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(f"conv expects (N, {self.in_channels}, H, W), got {x.shape}")
        n, c, h, w = x.shape
        kh, kw = self.kh, self.kw
        if h < kh or w < kw:
            raise ValueError(f"input {x.shape} smaller than kernel ({kh}, {kw})")
        ho, wo = h - kh + 1, w - kw + 1
        # Free when x came from a conv; the network input is copied once here.
        xl = np.ascontiguousarray(x.transpose(0, 2, 3, 1), dtype=np.float64)
        # Patch (b, i, j) is kh rows of kw*c contiguous values starting at
        # xl[b, i + r, j, 0]; the reshape copies those runs into the rows.
        row = w * c * _F8
        patches = np.ndarray((n, ho, wo, kh, kw * c), dtype=np.float64, buffer=xl,
                             strides=(h * row, row, c * _F8, row, _F8))
        cols = patches.reshape(n * ho * wo, kh * kw * c)
        self._cols = cols
        self._in_shape = (n, h, w, c)
        out = cols @ self.weight.transpose(2, 3, 1, 0).reshape(-1, self.out_channels)
        out += self.bias
        return out.reshape(n, ho, wo, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, dout: np.ndarray, input_grad: bool = True,
                 param_grads: bool = True) -> np.ndarray | None:
        if self._cols is None:
            raise ProtocolError("backward before forward")
        n, h, w, c = self._in_shape
        kh, kw = self.kh, self.kw
        _, _, ho, wo = dout.shape
        dmat = np.ascontiguousarray(dout.transpose(0, 2, 3, 1)).reshape(n * ho * wo, -1)
        if param_grads:
            dw = dmat.T @ self._cols
            self.d_weight[...] = dw.reshape(self.out_channels, kh, kw, c).transpose(0, 3, 1, 2)
            np.sum(dmat, axis=0, out=self.d_bias)
        if not input_grad:
            return None
        # One GEMM per kernel tap gives that tap's patch gradient as
        # contiguous (ho, wo*c) rows, added into the (N, H, W*c) rows of dx.
        dx = np.zeros((n, h, w * c))
        for i in range(kh):
            for j in range(kw):
                tap = dmat @ self.weight[:, :, i, j]
                dx[:, i : i + ho, j * c : (j + wo) * c] += tap.reshape(n, ho, wo * c)
        return dx.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    def spec(self):
        return {"kind": self.kind, "in_channels": self.in_channels,
                "out_channels": self.out_channels, "kh": self.kh, "kw": self.kw}


class Dense:
    kind = "dense"
    param_names = ("weight", "bias")

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None):
        self.in_dim, self.out_dim = in_dim, out_dim
        if rng is None:
            self.weight = np.zeros((in_dim, out_dim))
        else:
            self.weight = glorot_uniform(rng, (in_dim, out_dim), in_dim, out_dim)
        self.bias = np.zeros(out_dim)
        self._x = None
        self.d_weight = np.zeros_like(self.weight)
        self.d_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"dense expects (N, {self.in_dim}), got {x.shape}")
        self._x = x
        out = x @ self.weight
        out += self.bias
        return out

    def backward(self, dout: np.ndarray, input_grad: bool = True,
                 param_grads: bool = True) -> np.ndarray | None:
        if self._x is None:
            raise ProtocolError("backward before forward")
        if param_grads:
            np.matmul(self._x.T, dout, out=self.d_weight)
            np.sum(dout, axis=0, out=self.d_bias)
        return dout @ self.weight.T if input_grad else None

    def spec(self):
        return {"kind": self.kind, "in_dim": self.in_dim, "out_dim": self.out_dim}


class ReLU:
    """Rectifier that works in place.

    ``forward`` overwrites its input and ``backward`` its upstream gradient,
    so both must be arrays no one else reads: in a ``Network`` a ReLU
    follows a Conv2D or Dense layer, whose outputs and input gradients are
    fresh, and ``Network.backward`` copies the gradient it is handed.
    """

    kind = "relu"
    param_names = ()

    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, 0.0, out=x)

    def backward(self, dout: np.ndarray, input_grad: bool = True,
                 param_grads: bool = True) -> np.ndarray:
        if self._mask is None:
            raise ProtocolError("backward before forward")
        return np.multiply(dout, self._mask, out=dout)

    def spec(self):
        return {"kind": self.kind}


class Flatten:
    kind = "flatten"
    param_names = ()

    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray, input_grad: bool = True,
                 param_grads: bool = True) -> np.ndarray:
        if self._shape is None:
            raise ProtocolError("backward before forward")
        grad = dout.reshape(self._shape)
        if grad.ndim != 4:
            return grad
        # Hand an image gradient back channels-last, the layout Conv2D reads.
        return np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)

    def spec(self):
        return {"kind": self.kind}


_LAYER_KINDS = {"conv2d": Conv2D, "dense": Dense, "relu": ReLU, "flatten": Flatten}


class Network:
    """Plain sequential stack. Forward caches activations for one backward pass.

    ``flat`` holds every parameter and ``grad`` every parameter gradient, in
    layer order; the layers' arrays are views into them.
    """

    def __init__(self, layers: list):
        self.layers = layers
        self._forward_done = False
        owned = [(layer, name) for layer in layers for name in layer.param_names]
        size = sum(getattr(layer, name).size for layer, name in owned)
        self.flat = np.empty(size)
        self.grad = np.zeros(size)
        offset = 0
        for layer, name in owned:
            value = getattr(layer, name)
            end = offset + value.size
            view = self.flat[offset:end].reshape(value.shape)
            view[...] = value
            setattr(layer, name, view)
            setattr(layer, "d_" + name, self.grad[offset:end].reshape(value.shape))
            offset = end

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        if out.ndim == 3:
            out = out[None]
        for layer in self.layers:
            out = layer.forward(out)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("network produced non-finite output")
        self._forward_done = True
        return out

    def backward(self, dout: np.ndarray, *, input_grad: bool = True,
                 param_grads: bool = True) -> np.ndarray | None:
        """Gradient of the input; parameter gradients land in ``grad``.

        ``input_grad=False`` skips the first layer's input gradient and
        returns None; ``param_grads=False`` leaves ``grad`` untouched.
        """
        if not self._forward_done:
            raise ProtocolError("backward before forward")
        grad = np.array(dout, dtype=np.float64)  # layers may overwrite it
        for k in reversed(range(len(self.layers))):
            grad = self.layers[k].backward(grad, input_grad=input_grad or k > 0,
                                           param_grads=param_grads)
        return grad

    def params(self) -> list[np.ndarray]:
        return [getattr(layer, name) for layer in self.layers for name in layer.param_names]

    def grads(self) -> list[np.ndarray]:
        return [getattr(layer, "d_" + name) for layer in self.layers for name in layer.param_names]

    def clone(self) -> "Network":
        twin = Network.from_spec(self.spec())
        twin.flat[...] = self.flat
        return twin

    def spec(self) -> list[dict]:
        return [layer.spec() for layer in self.layers]

    @classmethod
    def from_spec(cls, spec: list[dict]) -> "Network":
        layers = []
        for entry in spec:
            kind = entry["kind"]
            if kind not in _LAYER_KINDS:
                raise ValueError(f"unknown layer kind {kind!r}")
            args = {k: v for k, v in entry.items() if k != "kind"}
            layers.append(_LAYER_KINDS[kind](**args))
        return cls(layers)


def build_actor(num_assets: int, window: int, rng: np.random.Generator) -> Network:
    """Policy network: price block in, m+1 raw weight logits out."""
    if window < 5:
        raise ValueError("window must be >= 5 for two time-axis convolutions")
    flat = 16 * num_assets * (window - 4)
    return Network([
        Conv2D(4, 16, 1, 3, rng),
        ReLU(),
        Conv2D(16, 16, 1, 3, rng),
        ReLU(),
        Flatten(),
        Dense(flat, 64, rng),
        ReLU(),
        Dense(64, num_assets + 1, rng),
    ])


def build_critic(num_assets: int, window: int, rng: np.random.Generator) -> Network:
    """Action-value network: price block plus action channel in, scalar out."""
    if window < 5:
        raise ValueError("window must be >= 5 for two time-axis convolutions")
    flat = 16 * num_assets * (window - 4)
    return Network([
        Conv2D(5, 16, 1, 3, rng),
        ReLU(),
        Conv2D(16, 16, 1, 3, rng),
        ReLU(),
        Flatten(),
        Dense(flat, 64, rng),
        ReLU(),
        Dense(64, 1, rng),
    ])


# ---------------------------------------------------------------------------
# Action activation: min-max rescale to [-1, 1], clamp cash, absolute-sum
# normalize. Differentiable almost everywhere; the cached pieces below give
# the exact vector-Jacobian product at generic points.

def minmax_forward_batch(raw: np.ndarray):
    """(weights, cache) for rows of raw logits; the cache feeds ``minmax_vjp_batch``."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] < 2:
        raise ValueError(f"raw actions must be (N, k>=2), got {raw.shape}")
    n, k = raw.shape
    i_min = np.argmin(raw, axis=1)
    i_max = np.argmax(raw, axis=1)
    mn = raw[np.arange(n), i_min]
    mx = raw[np.arange(n), i_max]
    span = mx - mn
    degenerate = span == 0.0

    safe_span = np.where(degenerate, 1.0, span)
    z = (raw - mn[:, None]) / safe_span[:, None]
    u = 2.0 * z - 1.0
    cash_clamped = u[:, 0] < 0
    u[cash_clamped, 0] = 0.0
    total = np.abs(u).sum(axis=1)
    # A non-degenerate row always keeps its +1 at the argmax, so total >= 1.
    w = u / total[:, None]
    if np.any(degenerate):
        w[degenerate] = initial_weights(k - 1)
    cache = (i_min, i_max, safe_span, z, u, cash_clamped, total, w, degenerate)
    return w, cache


def minmax_vjp_batch(cache, dw: np.ndarray) -> np.ndarray:
    """Gradient of the loss w.r.t. raw logits, given the gradient w.r.t. weights."""
    i_min, i_max, span, z, u, cash_clamped, total, w, degenerate = cache
    n = dw.shape[0]
    rows = np.arange(n)
    # w = u / total, total = sum |u|
    du = dw / total[:, None] - (np.sum(dw * u, axis=1) / total**2)[:, None] * np.sign(u)
    du[cash_clamped, 0] = 0.0
    dz = 2.0 * du
    draw = dz / span[:, None]
    sum_dz = dz.sum(axis=1)
    sum_dz_z = np.sum(dz * z, axis=1)
    np.add.at(draw, (rows, i_max), -sum_dz_z / span)
    np.add.at(draw, (rows, i_min), (sum_dz_z - sum_dz) / span)
    draw[degenerate] = 0.0
    return draw


def minmax_action_batch(raw: np.ndarray) -> np.ndarray:
    """Rows of raw logits to valid signed weight rows; all-equal rows fall back to all-cash."""
    w, _ = minmax_forward_batch(raw)
    return w


def minmax_action(raw: np.ndarray) -> np.ndarray:
    """The min-max activation of one vector of raw logits, through the batch function."""
    return minmax_action_batch(np.asarray(raw, dtype=np.float64)[None])[0]


def critic_input_batch(tensors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Insert each action as a fifth channel: risky weight i fills row i of its block."""
    tensors = np.asarray(tensors, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if tensors.ndim != 4 or tensors.shape[1] != 4:
        raise ValueError(f"expected price blocks (N, 4, m, n), got {tensors.shape}")
    n_batch, _, m, window = tensors.shape
    if weights.shape != (n_batch, m + 1):
        raise ValueError(
            f"weights shape {weights.shape} does not match {m} risky assets"
        )
    channel = np.broadcast_to(weights[:, 1:, None], (n_batch, m, window))
    return np.concatenate([tensors, channel[:, None, :, :]], axis=1)


# ---------------------------------------------------------------------------
# Checkpoints: a versioned JSON manifest with base64 float64 buffers, so the
# exact parameter bits round-trip.

CHECKPOINT_VERSION = 1


def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(data.tobytes()).decode("ascii")}


def _net_payload(net: Network) -> dict:
    return {"spec": net.spec(), "params": [_encode_array(p) for p in net.params()]}


def _net_from_payload(payload: dict, name: str) -> Network:
    """Rebuild a network from its spec and write each stored array into its view."""
    try:
        net = Network.from_spec(payload["spec"])
        entries = payload["params"]
        params = net.params()
        if len(entries) != len(params):
            raise FormatError(f"{len(entries)} parameter arrays for a spec with {len(params)}")
        for target, entry in zip(params, entries):
            arr = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")
            arr = arr.reshape(entry["shape"])
            if arr.shape != target.shape:
                raise FormatError(f"parameter shape {arr.shape} != expected {target.shape}")
            target[...] = arr
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed {name} network in checkpoint: {exc}") from exc
    return net


def save_checkpoint(path: str | Path, actor: Network, critic: Network, meta: dict) -> None:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "meta": meta,
        "actor": _net_payload(actor),
        "critic": _net_payload(critic),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[Network, Network, dict]:
    """Actor, critic and meta of a checkpoint; a malformed file raises FormatError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path} is not a JSON checkpoint: {exc}") from exc
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version!r}")
    missing = [key for key in ("actor", "critic", "meta") if key not in payload]
    if missing:
        raise FormatError(f"checkpoint lacks {', '.join(missing)}")
    if not isinstance(payload["meta"], dict):
        raise FormatError("checkpoint meta is not an object")
    return (
        _net_from_payload(payload["actor"], "actor"),
        _net_from_payload(payload["critic"], "critic"),
        payload["meta"],
    )

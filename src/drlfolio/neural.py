"""Minimal dense/conv network stack with reverse-mode gradients.

Everything is float64 and batch-first. Convolutions are valid (no padding),
stride 1, with kernels spanning the time axis only (1 x k), so the asset
count stays a free dimension. The two trading networks:

    actor:  (N, 4, m, n) price block -> (N, m+1) raw weight logits
    critic: (N, 4, m, n) price block and (N, m) risky weights -> (N, 1)

The critic's first conv has five input channels; the fifth is the action,
risky weight i at every time step of row i, which the conv reads as one
patch column (``Conv2D``) instead of a built channel.

Layout. The public shapes are NCHW: ``Conv2D.forward`` takes and returns
``(N, C, H, W)`` arrays and a conv weight is ``(out, in, kh, kw)``. The memory
underneath is channels-last: a conv output is a transposed view of an
``(N, H, W, C)`` buffer, so the next conv reads it without a copy and gathers
each ``kh x kw`` patch as ``kh`` runs of ``kw * C`` contiguous values. A conv
multiplies a patch matrix whose last column is ones by its weight matrix whose
last row is the bias, so the bias is added, and its gradient summed, by BLAS.
``Flatten`` flattens channels-last, (H, W, C), so it is a reshape view in both
directions, and the head Dense after it keeps its weight rows in that (H, W, C)
order in memory.

Patches. A conv keeps its input, channels-last, from the forward to the
backward and works a few images at a time: it gathers their patch rows into one
small buffer of its own and runs the ReLU after it on that block. No conv
holds a batch-sized patch matrix, and none reads another's buffer.

Parameters. A ``Network`` owns one contiguous parameter vector ``flat`` and
one gradient vector ``grad``; every layer's ``weight``, ``bias``,
``d_weight`` and ``d_bias`` are views into them, so an optimizer step, a
soft target update or a clone is one vector operation. Checkpoints still
store one array per parameter in the layer shapes above, with head rows in
(C, H, W) order (format version 1); ``Network.stored_params`` and
``Network.load_stored`` are the only crossings between the two row orders.

``minmax_forward_batch`` turns rows of raw logits into valid signed weight
vectors and ``minmax_vjp_batch`` is its hand-derived vector-Jacobian
product, so policy gradients can flow through the full deployed policy.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, ProtocolError
from .portfolio_math import initial_weights

_F8 = np.dtype(np.float64).itemsize


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Conv2D:
    """Valid stride-1 cross-correlation as GEMMs over channels-last patches.

    The patch matrix has one row per output pixel and columns ordered
    ``(i, j, c)``: kernel row, kernel column, input channel, then a column of
    ones that meets the bias row of the weight matrix. It is never built
    whole: ``_blocks`` gathers it a few images at a time into one buffer the
    conv owns, from the channels-last input the forward keeps. In a ``Network``,
    ``relu`` is the ReLU after the conv (else None), run on each block: the
    forward clamps and keeps the output in ``relu._out``, the backward masks.

    A 1 x k conv can take its last input channel as an action: one value per
    input row, constant along time. ``forward(x, action)`` then reads the
    other channels from ``x`` and writes the action into one patch column
    before the ones, which meets that channel's tap sums
    ``weight[:, -1].sum(axis=(1, 2))``. After such a forward, ``backward``
    returns the (N, H) action gradient as its input gradient.
    """

    kind = "conv2d"
    param_names = ("weight", "bias")
    # Bytes of patch rows gathered at a time: one block, used while in cache.
    GATHER_BYTES = 1 << 19

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
        self._block = np.empty((0, 0))
        self._x = self._action = self.relu = None
        self.d_weight = np.zeros_like(self.weight)
        self.d_bias = np.zeros_like(self.bias)

    def _blocks(self, gather: bool = True):
        """Yield (image slice, row slice, patch block) over the kept input's patch matrix.

        A block is the rows of a few whole images, at most GATHER_BYTES of them
        (at least one image), gathered into the first rows of ``_block`` unless
        ``gather`` is False (then None). That buffer only grows, up to one block.
        """
        xl, action = self._x, self._action
        n, h, w, c = xl.shape
        kh, kw = self.kh, self.kw
        ho, wo = h - kh + 1, w - kw + 1
        per, k = ho * wo, kh * kw * c
        width = k + (action is not None) + 1
        row, col = w * c * _F8, width * _F8
        step = max(1, self.GATHER_BYTES // (per * col))
        images = min(n, step)
        if self._block.shape[1] != width or len(self._block) < images * per:
            self._block = np.empty((images * per, width))
            self._block[:, -1] = 1.0
        # Patch (b, i, j) is kh rows of kw*c contiguous values starting at
        # xl[b, i + r, j, 0]; the block rows seen as (kh, kw*c) blocks take them.
        shape = (n, ho, wo, kh, kw * c)
        patches = np.ndarray(shape, dtype=np.float64, buffer=xl,
                             strides=(h * row, row, c * _F8, row, _F8))
        blocks = np.ndarray((images, *shape[1:]), dtype=np.float64, buffer=self._block,
                            strides=(per * col, wo * col, col, kw * c * _F8, _F8))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            cols = self._block[: (hi - lo) * per] if gather else None
            if gather:
                blocks[: hi - lo] = patches[lo:hi]
                if action is not None:
                    cols.reshape(hi - lo, ho, wo, width)[..., k] = action[lo:hi, :, None]
            yield slice(lo, hi), slice(lo * per, hi * per), cols

    def forward(self, x: np.ndarray, action: np.ndarray | None = None) -> np.ndarray:
        # c channels come from x; the rest (none, or the action) from action.
        c = self.in_channels - (action is not None)
        if x.ndim != 4 or x.shape[1] != c:
            raise ValueError(f"conv expects (N, {c}, H, W), got {x.shape}")
        n, _, h, w = x.shape
        kh, kw = self.kh, self.kw
        if h < kh or w < kw:
            raise ValueError(f"input {x.shape} smaller than kernel ({kh}, {kw})")
        if action is not None and (kh != 1 or np.shape(action) != (n, h)):
            raise ValueError(f"an action needs a 1 x k kernel and shape {(n, h)}, "
                             f"got a {kh} x {kw} kernel and shape {np.shape(action)}")
        ho, wo = h - kh + 1, w - kw + 1
        # Free when x came from a conv; the network input is copied once here.
        self._x = np.ascontiguousarray(x.transpose(0, 2, 3, 1), dtype=np.float64)
        self._action = None if action is None else np.asarray(action)
        gemm = np.concatenate((self.weight[:, :c].transpose(2, 3, 1, 0).reshape(kh * kw * c, -1),
                               self.weight[:, c:].sum(axis=(2, 3)).T, self.bias[None]))
        # With four or more columns, a row's product does not depend on the rows
        # beside it, so blocks give the bits of one GEMM.
        out = np.empty((n * ho * wo, self.out_channels))
        for _, rows, cols in self._blocks():
            block = np.matmul(cols, gemm, out=out[rows])
            if self.relu is not None:  # clamped as ReLU.forward does, while in cache
                np.maximum(block, 0.0, out=block)
        out = out.reshape(n, ho, wo, self.out_channels).transpose(0, 3, 1, 2)
        if self.relu is not None:
            self.relu._out = out
        return out

    def backward(self, dout: np.ndarray, input_grad: bool = True,
                 param_grads: bool = True) -> np.ndarray | None:
        if self._x is None:
            raise ProtocolError("backward before forward")
        n, h, w, c = self._x.shape
        kh, kw = self.kh, self.kw
        k = kh * kw * c
        _, _, ho, wo = dout.shape
        dmat = np.ascontiguousarray(dout.transpose(0, 2, 3, 1)).reshape(n * ho * wo, -1)
        kept = None if self.relu is None else self.relu._out.transpose(0, 2, 3, 1).reshape(dmat.shape)
        action = c < self.in_channels
        taps = [] if action or not input_grad else [(i, j) for i in range(kh) for j in range(kw)]
        if taps:
            # The first tap is written as 0.0 + tap, the bits adding it into
            # zeros gives, and only the part of dx it misses is zeroed.
            dx = np.empty((n, h, w * c))
            dx[:, ho:] = 0.0
            dx[:, :ho, wo * c :] = 0.0
        # Per block: mask dmat as ReLU.backward does; add the weight-gradient GEMM
        # (the ones column's row is the bias gradient, an action column's that of
        # each of its taps); add one GEMM per kernel tap into the block's dx rows.
        dw = None
        for images, rows, cols in self._blocks(gather=param_grads):
            d = dmat[rows]
            if kept is not None:
                np.multiply(d, kept[rows] > 0, out=d)
            if param_grads:
                part = cols.T @ d
                dw = part if dw is None else np.add(dw, part, out=dw)
            for i, j in taps:
                tap = (d @ self.weight[:, :, i, j]).reshape(-1, ho, wo * c)
                block = dx[images, i : i + ho, j * c : (j + wo) * c]
                if i == j == 0:
                    np.add(tap, 0.0, out=block)
                else:
                    block += tap
        if param_grads:
            self.d_weight[:, :c] = dw[:k].reshape(kh, kw, c, self.out_channels).transpose(3, 2, 0, 1)
            self.d_weight[:, c:] = dw[k:-1].T[:, :, None, None]
            self.d_bias[...] = dw[-1]
        if not input_grad:
            return None
        if action:  # one matrix-vector product: blocks would round its rows differently
            sums = self.weight[:, c:].sum(axis=(2, 3))
            return (dmat @ sums).reshape(n, h, wo).sum(axis=2)
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
    so both must be arrays no one else reads: a ``Network`` runs a ReLU after
    a Dense, whose outputs and input gradients are fresh, and copies the
    gradient it is handed; a Conv2D runs the ReLU after it itself (``relu``).
    Backward passes the gradient where the kept output is positive, which is
    exactly where the input was.
    """

    kind = "relu"
    param_names = ()

    def __init__(self):
        self._out = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.maximum(x, 0.0, out=x)
        return self._out

    def backward(self, dout: np.ndarray, input_grad: bool = True,
                 param_grads: bool = True) -> np.ndarray:
        if self._out is None:
            raise ProtocolError("backward before forward")
        return np.multiply(dout, self._out > 0, out=dout)

    def spec(self):
        return {"kind": self.kind}


class Flatten:
    """Rows of an image flattened channels-last, (H, W, C): a view of a conv's output."""

    kind = "flatten"
    param_names = ()

    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = x.transpose(0, 2, 3, 1)
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray, input_grad: bool = True,
                 param_grads: bool = True) -> np.ndarray:
        if self._shape is None:
            raise ProtocolError("backward before forward")
        return dout.reshape(self._shape).transpose(0, 3, 1, 2)

    def spec(self):
        return {"kind": self.kind}


_LAYER_KINDS = {"conv2d": Conv2D, "dense": Dense, "relu": ReLU, "flatten": Flatten}


def _head_channels(layers: list) -> list[int | None]:
    """Per parameter in layer order: C for the weight of a Dense fed by the
    Flatten of a C-channel conv output, None for every other parameter."""
    result, channels, flattened = [], None, None
    for layer in layers:
        head = flattened if isinstance(layer, Dense) else None
        result += [head if name == "weight" else None for name in layer.param_names]
        if isinstance(layer, Conv2D):
            channels = layer.out_channels
        elif isinstance(layer, Flatten):
            flattened = channels
        elif isinstance(layer, Dense):
            flattened = None
    return result


def _stored_rows(weight: np.ndarray, channels: int | None) -> np.ndarray:
    """``weight`` with its rows in stored order. For a head weight, whose rows
    are (H, W, C) in memory, a (C, H*W, out) view; any other parameter as is."""
    if channels is None:
        return weight
    rows, out = weight.shape
    return weight.reshape(rows // channels, channels, out).transpose(1, 0, 2)


class Network:
    """Plain sequential stack. Forward caches activations for one backward pass.

    ``flat`` holds every parameter and ``grad`` every parameter gradient, in
    layer order; the layers' arrays are views into them. A head Dense (one fed
    by the Flatten of a conv output) keeps its rows in the (H, W, C) order
    Flatten produces; the values its constructor draws, ``stored_params`` and
    ``load_stored`` hold them in (C, H, W) order, as checkpoints do.
    """

    def __init__(self, layers: list):
        self.layers = layers
        self._head = _head_channels(layers)
        # The layers forward and backward call: a conv runs the ReLU after it.
        self._steps = []
        for before, layer in zip([None, *layers], layers):
            if isinstance(before, Conv2D) and isinstance(layer, ReLU):
                before.relu = layer
            else:
                self._steps.append(layer)
        owned = [(layer, name) for layer in layers for name in layer.param_names]
        initial = [getattr(layer, name) for layer, name in owned]
        size = sum(value.size for value in initial)
        self.flat = np.empty(size)
        self.grad = np.zeros(size)
        offset = 0
        for (layer, name), value in zip(owned, initial):
            end = offset + value.size
            setattr(layer, name, self.flat[offset:end].reshape(value.shape))
            setattr(layer, "d_" + name, self.grad[offset:end].reshape(value.shape))
            offset = end
        self.load_stored(initial)

    def forward(self, x: np.ndarray, action: np.ndarray | None = None) -> np.ndarray:
        """Output for a batch of inputs; ``action`` goes to the first layer, a 1 x k conv."""
        out = np.asarray(x, dtype=np.float64)
        first, *rest = self._steps
        out = first.forward(out) if action is None else first.forward(out, action)
        for layer in rest:
            out = layer.forward(out)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("network produced non-finite output")
        return out

    def backward(self, dout: np.ndarray, *, input_grad: bool = True,
                 param_grads: bool = True) -> np.ndarray | None:
        """Gradient of the input, or of the action if the forward had one;
        parameter gradients land in ``grad``.

        ``input_grad=False`` skips the first layer's input gradient and
        returns None; ``param_grads=False`` leaves ``grad`` untouched.
        """
        grad = np.array(dout, dtype=np.float64)  # layers may overwrite it
        for k in reversed(range(len(self._steps))):
            grad = self._steps[k].backward(grad, input_grad=input_grad or k > 0,
                                           param_grads=param_grads)
        return grad

    def params(self) -> list[np.ndarray]:
        return [getattr(layer, name) for layer in self.layers for name in layer.param_names]

    def grads(self) -> list[np.ndarray]:
        return [getattr(layer, "d_" + name) for layer in self.layers for name in layer.param_names]

    def stored_params(self) -> list[np.ndarray]:
        """The parameters as a checkpoint stores them: head rows in (C, H, W) order."""
        return [np.ascontiguousarray(_stored_rows(p, c)).reshape(p.shape)
                for p, c in zip(self.params(), self._head)]

    def load_stored(self, arrays: list[np.ndarray]) -> None:
        """Write parameters given as a checkpoint stores them into ``flat``."""
        for target, value, c in zip(self.params(), arrays, self._head, strict=True):
            view = _stored_rows(target, c)
            view[...] = np.reshape(value, view.shape)

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


def _build(in_channels: int, outputs: int, num_assets: int, window: int,
           rng: np.random.Generator) -> Network:
    """The trading network body: two 1 x 3 convs over time, then a 64-unit dense head."""
    if window < 5:
        raise ConfigError("window must be >= 5 for two time-axis convolutions")
    return Network([
        Conv2D(in_channels, 16, 1, 3, rng),
        ReLU(),
        Conv2D(16, 16, 1, 3, rng),
        ReLU(),
        Flatten(),
        Dense(16 * num_assets * (window - 4), 64, rng),
        ReLU(),
        Dense(64, outputs, rng),
    ])


def build_actor(num_assets: int, window: int, rng: np.random.Generator) -> Network:
    """Policy network: price block in, m+1 raw weight logits out."""
    return _build(4, num_assets + 1, num_assets, window, rng)


def build_critic(num_assets: int, window: int, rng: np.random.Generator) -> Network:
    """Action-value network: ``critic.forward(blocks, weights[:, 1:])`` gives (N, 1) values."""
    return _build(5, 1, num_assets, window, rng)


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
    cache = (i_min, i_max, safe_span, z, u, cash_clamped, total, degenerate)
    return w, cache


def minmax_vjp_batch(cache, dw: np.ndarray) -> np.ndarray:
    """Gradient of the loss w.r.t. raw logits, given the gradient w.r.t. weights."""
    i_min, i_max, span, z, u, cash_clamped, total, degenerate = cache
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


# ---------------------------------------------------------------------------
# Checkpoints: a versioned JSON manifest with base64 float64 buffers, so the
# exact parameter bits round-trip.

CHECKPOINT_VERSION = 1


def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(data.tobytes()).decode("ascii")}


def _net_payload(net: Network) -> dict:
    return {"spec": net.spec(), "params": [_encode_array(p) for p in net.stored_params()]}


def _net_from_payload(payload: dict, name: str) -> Network:
    """Rebuild a network from its spec and write each stored array into its view."""
    try:
        net = Network.from_spec(payload["spec"])
        entries = payload["params"]
        params = net.params()
        if len(entries) != len(params):
            raise FormatError(f"{len(entries)} parameter arrays for a spec with {len(params)}")
        arrays = []
        for target, entry in zip(params, entries):
            arr = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")
            arr = arr.reshape(entry["shape"])
            if arr.shape != target.shape:
                raise FormatError(f"parameter shape {arr.shape} != expected {target.shape}")
            arrays.append(arr)
        net.load_stored(arrays)
    except (KeyError, TypeError, ValueError, MemoryError) as exc:
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

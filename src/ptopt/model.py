"""Encoder-decoder attention network for daily long/short asset allocation.

The network reads two consecutive return windows of length tau: the encoder
sees the older window, the decoder the newer one, so cross-attention only
ever looks further into the past. Each decoder position is mapped to per
asset scores s and then to weights w = sign(s) * softmax(s), which makes
every weight row satisfy sum(|w|) = 1 by construction.

Time is encoded per window position (0-based) with a learned linear-plus
sinusoidal feature vector that is concatenated to the asset returns before
a shared linear projection into model width.

Every layer works on activations of shape ``(..., rows, width)``: a
minibatch of B windows is one ``(B, rows, width)`` tensor, and a single
window is the batch of one.

Each model's constructor ends by packing its parameters, in checkpoint order,
into one float64 vector, ``model.vector``, of which every tensor's data is a
view. Training and checkpoint loads write into it; no tensor is rebound.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

import ptopt.autograd as ag
from ptopt.autograd import ShapeError, Tensor

CHECKPOINT_MAGIC = "PTCKPT1"
_INFER_BLOCK = 64  # default items per gradient-free call of ``blockwise``
_CASTS = {"int": int, "float": float, "str": str}  # config annotations are strings under __future__.annotations


def _cast(name: str, type_name: str, value):
    """``value`` as the type named ``int``, ``float`` or ``str``.

    A space file may give ``8.0`` or ``"2"`` for an int. A bool, or a number
    the type cannot hold exactly (``8.5`` for an int), raises ValueError.
    """
    try:
        cast = _CASTS[type_name](value)
        exact = not isinstance(value, bool) and (isinstance(value, str) or cast == value)
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise ValueError(f"{name} must be {type_name}, got {value!r}")
    return cast


def _cast_fields(config) -> None:
    """Store each int/float/str field of a frozen config as its declared type (see
    ``_cast``), and a ``tuple[int, ...]`` field, given one int or a list, as a tuple of ints."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "tuple[int, ...]":
            items = value if isinstance(value, (list, tuple)) else [value]
            object.__setattr__(config, f.name, tuple(_cast(f.name, "int", v) for v in items))
        elif f.type in _CASTS:
            object.__setattr__(config, f.name, _cast(f.name, f.type, value))


@dataclass(frozen=True)
class WindowConfig:
    """The first fields and check of every window model's config (each subclass declares ``seed`` last)."""

    n_assets: int
    window: int

    def __post_init__(self):
        _cast_fields(self)
        for name in ("n_assets", "window"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")


@dataclass(frozen=True)
class PTConfig(WindowConfig):
    """Architecture hyperparameters of the allocation network; a combo's missing axes take these defaults."""

    d_model: int = 16
    n_heads: int = 2
    t2v_k: int = 3
    n_layers: int = 1
    attention_scale_mode: str = "d_model"
    dropout: float = 0.0
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not (self.d_model >= self.n_heads >= 1):
            raise ValueError(f"need d_model >= n_heads >= 1, got {self.d_model}/{self.n_heads}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"n_heads {self.n_heads} must divide d_model {self.d_model}")
        if self.t2v_k < 1:
            raise ValueError(f"t2v_k must be >= 1, got {self.t2v_k}")
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.attention_scale_mode not in ("d_model", "d_k"):
            raise ValueError(f"attention_scale_mode must be 'd_model' or 'd_k', got {self.attention_scale_mode!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


def _uniform_init(rng: np.random.Generator, fan_in: int, shape) -> Tensor:
    bound = np.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


def _collect(parts: dict) -> dict[str, Tensor]:
    """Name the parameters among ``parts`` in their order, as checkpoints key them: a Tensor
    by its key, a layer's names under ``key.``, a list's under ``key0.``, ...; other values are skipped."""
    out = {}
    for name, part in parts.items():
        if isinstance(part, Tensor):
            out[name] = part
        elif isinstance(part, list):
            out.update(_collect({f"{name}{i}": item for i, item in enumerate(part)}))
        elif isinstance(part, Layer):
            out.update({f"{name}.{k}": v for k, v in part.parameters().items()})
    return out


def _pack(params: dict[str, Tensor]) -> np.ndarray:
    """Copy ``params`` into one float64 vector and make each tensor's data a view of its slice."""
    flat = np.concatenate([p.data for p in params.values()], axis=None)
    for p, part in zip(params.values(), np.split(flat, np.cumsum([p.data.size for p in params.values()])[:-1])):
        p.data = part.reshape(p.shape)
    return flat


class Layer:
    """A layer or model whose parameters are its Tensor, layer and list attributes, each named
    by its attribute, in the order they were set (``config``, ``vector``, ``scale``, ... are not)."""

    def parameters(self) -> dict[str, Tensor]:
        return _collect(vars(self))


class Dense(Layer):
    """Affine map x @ W + b on row-major activations."""

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator):
        self.W = _uniform_init(rng, fan_in, (fan_in, fan_out))
        self.b = Tensor(np.zeros(fan_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ag.dense(x, self.W, self.b)


class Time2VecLayer(Layer):
    """Learned time features: one linear component plus k sinusoids."""

    def __init__(self, k: int, rng: np.random.Generator):
        self.omega = Tensor(rng.uniform(-1.0, 1.0, k + 1), requires_grad=True)
        self.phi = Tensor(rng.uniform(-1.0, 1.0, k + 1), requires_grad=True)


class MHALayer(Layer):
    """Multi-head attention: per-head Q/K/V projections and output mix."""

    def __init__(self, d_model: int, n_heads: int, scale: float, rng: np.random.Generator):
        d_k = d_model // n_heads
        self.n_heads = n_heads
        self.scale = scale
        self.wq = [_uniform_init(rng, d_model, (d_model, d_k)) for _ in range(n_heads)]
        self.wk = [_uniform_init(rng, d_model, (d_model, d_k)) for _ in range(n_heads)]
        self.wv = [_uniform_init(rng, d_model, (d_model, d_k)) for _ in range(n_heads)]
        self.wo = _uniform_init(rng, n_heads * d_k, (n_heads * d_k, d_model))

    def parameters(self) -> dict[str, Tensor]:
        """``q0, k0, v0, q1, ..., o``: checkpoints interleave the heads that the RNG draws q by q, then k, then v."""
        heads = {f"{kind}{i}": ws[i] for i in range(self.n_heads) for kind, ws in zip("qkv", (self.wq, self.wk, self.wv))}
        return {**heads, "o": self.wo}


def multi_head_attention(x: Tensor, memory: Tensor | None, layer: MHALayer, causal: bool = False) -> Tensor:
    """Every head of ``layer`` in one tape node: ``x`` over ``memory``, or over itself if None; ``causal`` as in ``ag.mha``."""
    return ag.mha(x, memory, layer.wq, layer.wk, layer.wv, layer.wo, layer.scale, causal)


class GRNLayer(Layer):
    """Gated residual block: dense pair, GLU gate, residual layer norm."""

    def __init__(self, d_model: int, rng: np.random.Generator):
        self.inner = Dense(d_model, d_model, rng)
        self.outer = Dense(d_model, d_model, rng)
        self.glu_value = Dense(d_model, d_model, rng)
        self.glu_gate = Dense(d_model, d_model, rng)
        self.ln_gain = Tensor(np.ones(d_model), requires_grad=True)
        self.ln_bias = Tensor(np.zeros(d_model), requires_grad=True)


def _no_drop(x: Tensor) -> Tensor:
    """Dropout switched off: the activation itself, with no tape node."""
    return x


def grn(z: Tensor, layer: GRNLayer, drop: Callable[[Tensor], Tensor] = _no_drop) -> Tensor:
    g1 = layer.outer(ag.elu(layer.inner(z)))
    value, gate = layer.glu_value, layer.glu_gate
    gated = drop(ag.glu(g1, value.W, value.b, gate.W, gate.b))
    return ag.residual_layer_norm(z, gated, layer.ln_gain, layer.ln_bias)


class EncoderLayer(Layer):
    def __init__(self, d_model: int, n_heads: int, scale: float, rng: np.random.Generator):
        self.mha = MHALayer(d_model, n_heads, scale, rng)
        self.ln_gain = Tensor(np.ones(d_model), requires_grad=True)
        self.ln_bias = Tensor(np.zeros(d_model), requires_grad=True)
        self.grn = GRNLayer(d_model, rng)

    def forward(self, x: Tensor, drop=_no_drop) -> Tensor:
        attended = drop(multi_head_attention(x, None, self.mha))
        a = ag.residual_layer_norm(x, attended, self.ln_gain, self.ln_bias)
        return grn(a, self.grn, drop)


class DecoderLayer(Layer):
    def __init__(self, d_model: int, n_heads: int, scale: float, rng: np.random.Generator):
        self.self_mha = MHALayer(d_model, n_heads, scale, rng)
        self.ln1_gain = Tensor(np.ones(d_model), requires_grad=True)
        self.ln1_bias = Tensor(np.zeros(d_model), requires_grad=True)
        self.cross_mha = MHALayer(d_model, n_heads, scale, rng)
        self.ln2_gain = Tensor(np.ones(d_model), requires_grad=True)
        self.ln2_bias = Tensor(np.zeros(d_model), requires_grad=True)
        self.grn = GRNLayer(d_model, rng)

    def forward(self, x: Tensor, enc_out: Tensor, drop=_no_drop) -> Tensor:
        self_att = drop(multi_head_attention(x, None, self.self_mha, causal=True))
        a = ag.residual_layer_norm(x, self_att, self.ln1_gain, self.ln1_bias)
        cross = drop(multi_head_attention(a, enc_out, self.cross_mha))
        b = ag.residual_layer_norm(a, cross, self.ln2_gain, self.ln2_bias)
        return grn(b, self.grn, drop)


# ---------------------------------------------------------------------------
# block batching shared by every window model


def batched_weights(model, block: np.ndarray, rng: np.random.Generator | None = None) -> Tensor:
    """Every window model's ``window_weights``: ``model.forward`` on blocks of 2*window return rows.

    ``block`` is one (2*window, n_assets) block or a (B, 2*window, n_assets)
    stack; the result is (window, n_assets) or (B, window, n_assets)
    accordingly. A single block runs as the batch of one.
    """
    block = np.asarray(block, dtype=np.float64)
    want = (2 * model.config.window, model.config.n_assets)
    if block.ndim not in (2, 3) or block.shape[-2:] != want:
        raise ShapeError(f"block shape {block.shape} != {want} or (B, *{want})")
    single = block.ndim == 2
    weights = model.forward(block[None] if single else block, rng)
    return ag.reshape(weights, weights.shape[1:]) if single else weights


def blockwise(fn: Callable, stack, out: np.ndarray, size: int = _INFER_BLOCK) -> np.ndarray:
    """``out`` filled with ``fn`` of ``size`` items of ``stack`` at a time, gradient-free; an
    item's result does not depend on its block, so ``out`` holds the bits of one call over the stack."""
    with ag.no_grad():
        for i in range(0, len(stack), size):
            out[i : i + size] = fn(stack[i : i + size])
    return out


def last_rows(model, block: np.ndarray) -> np.ndarray:
    """Every window model's ``day_weights``: the gradient-free last weight row of a block, or
    of each block of a (B, 2*window, n_assets) stack as one (B, n_assets) array through ``blockwise``."""
    if np.ndim(block) == 2:
        return last_rows(model, np.asarray(block)[None])[0]
    return blockwise(lambda b: model.window_weights(b).data[:, -1], block, np.empty((len(block), model.config.n_assets)))


class PortfolioTransformer(Layer):
    """The full allocation network; see the module docstring for layout."""

    kind = "pt"
    config_class = PTConfig

    def __init__(self, config: PTConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        d, h, k = config.d_model, config.n_heads, config.t2v_k
        scale = np.sqrt(float(d)) if config.attention_scale_mode == "d_model" else np.sqrt(d / h)
        self.t2v = Time2VecLayer(k, rng)
        self.input_proj = Dense(config.n_assets + k + 1, d, rng)
        self.enc = [EncoderLayer(d, h, scale, rng) for _ in range(config.n_layers)]
        self.dec = [DecoderLayer(d, h, scale, rng) for _ in range(config.n_layers)]
        self.head = Dense(d, config.n_assets, rng)
        self.vector = _pack(self.parameters())

    def _drop_fn(self, rng: np.random.Generator | None):
        p = self.config.dropout
        if rng is None or p <= 0.0:
            return _no_drop

        def drop(x: Tensor) -> Tensor:
            keep = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
            return ag.mul(x, Tensor(keep))

        return drop

    def forward(self, blocks: np.ndarray, rng: np.random.Generator | None = None) -> Tensor:
        """Map a (B, 2*window, n_assets) stack of blocks, as ``batched_weights`` checks it, to weight rows.

        The encoder reads each block's older window and the decoder its newer
        one. Output row j is the allocation decided at the j-th position of the
        newer window; only the final row is used for live inference.
        """
        tau = self.config.window
        drop = self._drop_fn(rng)

        enc = drop(embed_window(blocks[:, :tau], self))
        for layer in self.enc:
            enc = layer.forward(enc, drop)

        dec = drop(embed_window(blocks[:, tau:], self))
        for layer in self.dec:
            dec = layer.forward(dec, enc, drop)

        return ag.signed_softmax(self.head(dec))

    window_weights = batched_weights
    day_weights = last_rows


def embed_window(x: np.ndarray, model: PortfolioTransformer) -> Tensor:
    """Project asset returns plus per-position time features to model width.

    ``x`` is one (rows, n_assets) window or a (B, rows, n_assets) stack; ``ag.embed`` checks its width.
    """
    t2v, proj = model.t2v, model.input_proj
    return ag.embed(Tensor(x), t2v.omega, t2v.phi, proj.W, proj.b)


# ---------------------------------------------------------------------------
# checkpointing

def save_checkpoint(model, path) -> None:
    """Write a self-describing parameter snapshot (versioned text format)."""
    doc = {"kind": model.kind, "seed": model.config.seed, "config": asdict(model.config), "params": {}}
    with open(path, "w") as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        # json.dump's bytes, one parameter at a time through the C encoder
        # (json.dump itself runs the pure-Python one): the head up to the open params object ...
        fh.write(json.dumps(doc)[:-2])
        for i, (name, t) in enumerate(model.parameters().items()):
            entry = {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}
            fh.write((", " if i else "") + json.dumps(name) + ": " + json.dumps(entry))
        fh.write("}}")  # ... then the params object and the document closed


def load_checkpoint(path):
    """Rebuild a model from a checkpoint file, restoring every parameter."""
    from ptopt.benchmarks import MODEL_KINDS  # not at the top: benchmarks imports this module
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file (bad magic {magic!r})")
        doc = json.load(fh)
    missing = [key for key in ("kind", "config", "params") if key not in doc]
    if missing:
        raise ValueError(f"checkpoint has no {missing[0]!r} entry")
    cls = MODEL_KINDS.get(doc["kind"])
    if cls is None:
        raise ValueError(f"unknown model kind {doc['kind']!r} in checkpoint")
    try:
        config = cls.config_class(**doc["config"])
    except TypeError as err:  # an unknown field, or a missing required one
        raise ValueError(f"checkpoint config does not fit {doc['kind']!r}: {err}") from None
    model = cls(config)
    params = model.parameters()
    if set(params) != set(doc["params"]):
        raise ValueError("checkpoint parameter names do not match the model")
    for name, t in params.items():
        entry = doc["params"][name]
        try:
            data = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as err:  # no shape or data, not an object, or data that does not fill its shape
            raise ValueError(f"checkpoint parameter {name!r} is malformed: {type(err).__name__}: {err}") from None
        if data.shape != t.shape:
            raise ShapeError(f"checkpoint shape {data.shape} != model shape {t.shape} for {name}")
        t.data[...] = data
    return model

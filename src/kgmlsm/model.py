"""The yield network: a weather-to-soil-moisture (W2S) encoder-decoder and
an attention head that pools one learned weight per input token.

Tokens: one per (series channel, 16-day window) pair plus one per auxiliary
scalar (year, lat, lon, historical average yield). With all ten series
channels that is 10 x 13 + 4 = 134 tokens; without soil-moisture channels,
8 x 13 + 4 = 108.

The head's scores and readout are affine in each token value, so
attention_forward folds the embedding and the key, value and output
projections into four per-token vectors: it costs O(B n), and its
parameters and checkpoints are those of the unfolded (B, n, d_model) head.

The W2S encoder-decoder, the token matrix and the attention head are one
autodiff node each, computed in numpy, with a closed-form backward that
repeats, operation for operation, the arithmetic of the op-by-op chain it
replaced (tests/chain_oracle.py), so their outputs and gradients are bit
for bit those of the chain; the weather is data and gets no gradient.

The network operates in z-scored space: inputs and targets are
standardized with statistics carried in the checkpoint, and predictions
are mapped back to physical units at the boundary (predict()). Inference
runs through forward_blocks, on ParamStore.constants() in blocks of
INFER_ROWS samples, so it builds no gradient graph and its peak does not
grow with the number of samples.
"""

import hashlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import artifacts, ingest
from .autodiff import ParamStore, Tensor, node
from .errors import CheckpointMismatch, NonFiniteError, SchemaError, ShapeError
from .ingest import stack_dataset

T = ingest.N_WINDOWS  # 13


@dataclass
class ModelConfig:
    d_model: int = 32
    d_k: int = 32
    enc_width1: int = 16
    enc_width2: int = 32
    dec_width: int = 16
    use_sm_tokens: bool = True
    use_w2s: bool = True

    def series_channels(self):
        names = list(ingest.WEATHER_CHANNELS) + list(ingest.VI_CHANNELS)
        if self.use_sm_tokens:
            names += list(ingest.SM_CHANNELS)
        return names

    @property
    def n_tokens(self):
        return len(self.series_channels()) * T + len(ingest.AUX_FIELDS)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Exactly the fields to_dict writes: a missing one would silently
        take its default (a wrong d_k rescales every score). Each size is an
        int >= 1 and each flag a bool."""
        expected = sorted(f.name for f in fields(cls))
        if sorted(d) != expected:
            raise ValueError(f"keys {sorted(d)} != {expected}")
        for f in fields(cls):
            if type(d[f.name]) is not f.type or (f.type is int and d[f.name] < 1):
                raise ValueError(f"config {f.name} must be {f.type.__name__}"
                                 f"{' >= 1' * (f.type is int)}, not {d[f.name]!r}")
        return cls(**d)


@dataclass
class Normalization:
    """Per-channel z-score statistics; constant channels keep sd=1 (and
    are flagged) so all-zero channels (field-level VIs) stay exactly zero
    after scaling. The flags let finetuning refresh statistics for
    channels that carried no information at pretraining time."""

    weather_mu: np.ndarray
    weather_sd: np.ndarray
    vi_mu: np.ndarray
    vi_sd: np.ndarray
    sm_mu: np.ndarray
    sm_sd: np.ndarray
    aux_mu: np.ndarray
    aux_sd: np.ndarray
    y_mu: float
    y_sd: float
    vi_const: np.ndarray
    weather_const: np.ndarray
    sm_const: np.ndarray
    aux_const: np.ndarray

    # (statistics group, stack_dataset key, axes reduced per channel)
    GROUPS = (("weather", "w", (0, 1)), ("vi", "v", (0, 1)), ("sm", "s", (0, 1)),
              ("aux", "aux", 0))
    WIDTHS = {"weather": len(ingest.WEATHER_CHANNELS), "vi": len(ingest.VI_CHANNELS),
              "sm": len(ingest.SM_CHANNELS), "aux": len(ingest.AUX_FIELDS)}  # channels per group

    @classmethod
    def from_arrays(cls, arrays):
        """Statistics of stack_dataset arrays."""
        kw = {}
        for group, key, axes in cls.GROUPS:
            sd = arrays[key].std(axis=axes)
            kw[f"{group}_mu"] = arrays[key].mean(axis=axes)
            kw[f"{group}_sd"] = np.where(sd < 1e-12, 1.0, sd)
            kw[f"{group}_const"] = sd < 1e-12
        y_sd = float(arrays["y"].std())
        return cls(**kw, y_mu=float(arrays["y"].mean()), y_sd=(y_sd if y_sd >= 1e-12 else 1.0))

    def refreshed_from(self, arrays):
        """Copy with statistics of constant-at-fit channels replaced by
        those of these stack_dataset arrays; live channels keep their
        original scaling so the pretrained weights still see the feature
        space they learned."""
        fresh = Normalization.from_arrays(arrays)
        out = Normalization.from_dict(self.to_dict())
        for group, _, _ in self.GROUPS:
            mask = getattr(self, f"{group}_const")
            for part in ("mu", "sd", "const"):
                getattr(out, f"{group}_{part}")[mask] = getattr(fresh, f"{group}_{part}")[mask]
        return out

    def to_dict(self):
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        """Exactly the fields to_dict writes: each group's mu, sd and const
        at the group's channel count, and scalar y_mu and y_sd, each finite
        and every sd positive. A missing const would read as all False, a
        short mu would broadcast over every channel, and a NaN or negative
        sd would turn every prediction NaN or flip its sign."""
        shapes = {f"{group}_{part}": (width,) for group, width in cls.WIDTHS.items()
                  for part in ("mu", "sd", "const")} | {"y_mu": (), "y_sd": ()}
        if sorted(d) != sorted(shapes):
            raise ValueError(f"normalization keys {sorted(d)} != {sorted(shapes)}")
        kw = {}
        for key, shape in shapes.items():
            arr, flags, positive = np.asarray(d[key]), key.endswith("_const"), key.endswith("_sd")
            if arr.shape != shape or arr.dtype.kind not in ("b" if flags else "iuf"):
                what = f"{shape[0]} {'flags' if flags else 'numbers'}" if shape else "a number"
                raise ValueError(f"normalization {key} must be {what}, not {d[key]!r}")
            if not (flags or np.isfinite(arr).all() and (np.all(arr > 0) or not positive)):
                raise ValueError(f"normalization {key} must be finite{' and > 0' * positive}, "
                                 f"not {d[key]!r}")
            kw[key] = arr if flags else arr.astype(np.float64) if shape else float(arr)
        return cls(**kw)


# ---------------------------------------------------------------------------
# parameters


def _uniform(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def param_table(config):
    """The parameters a config makes, in their declared order, as (name,
    shape, fan_in); fan_in is None for a bias that starts at zero."""
    c = config
    table = []
    if c.use_w2s:
        for name, fan_in, width in (
                ("enc1", 3 * 4, c.enc_width1),
                ("enc2", 3 * c.enc_width1, c.enc_width2),
                ("mid", c.enc_width2, c.enc_width2),
                ("dec2", 3 * (c.enc_width2 + c.enc_width2), c.dec_width),
                ("dec1", 3 * (c.dec_width + c.enc_width1), c.dec_width),
                ("head", c.dec_width, 2)):
            table += [(f"w2s.{name}.w", (fan_in, width), fan_in),
                      (f"w2s.{name}.b", (width,), None)]
    n = c.n_tokens
    return table + [
        ("att.embed.value", (n, c.d_model), 2),
        ("att.embed.bias", (n, c.d_model), 2),
        ("att.wk", (c.d_model, c.d_k), c.d_model),
        ("att.wv", (c.d_model, c.d_k), c.d_model),
        ("att.q", (c.d_k, 1), c.d_k),
        ("att.out.w", (c.d_k, 1), c.d_k),
        ("att.out.b", (1,), None),
    ]


def init_params(config, seed):
    """Fresh parameter store; weights uniform(+-1/sqrt(fan_in)), biases zero
    except the token-embedding bias, which must be nonzero so equal-valued
    tokens still embed distinctly."""
    rng = np.random.default_rng([seed, 977])
    return ParamStore((name, np.zeros(shape) if fan_in is None else _uniform(rng, fan_in, shape))
                      for name, shape, fan_in in param_table(config))


# ---------------------------------------------------------------------------
# forward pieces


W2S_LAYERS = ("enc1", "enc2", "mid", "dec2", "dec1", "head")
W2S_PARAMS = tuple(f"w2s.{layer}.{part}" for layer in W2S_LAYERS for part in ("w", "b"))
_PAD = 3  # edge steps appended so 13 windows pool twice: 16 -> 8 -> 4


def _windows(parts):
    """(B, L, C_i) parts joined along channels, as (B, L, 3C) rows
    [x[t-1], x[t], x[t+1]] of the joined x, zero past either end."""
    batch, length = parts[0].shape[:2]
    chans = sum(part.shape[2] for part in parts)
    win = np.empty((batch, length, 3 * chans))
    win[:, 0, :chans] = 0.0
    win[:, -1, 2 * chans:] = 0.0
    lo = 0
    for part in parts:
        hi = lo + part.shape[2]
        win[:, 1:, lo:hi] = part[:, :-1]
        win[:, :, chans + lo:chans + hi] = part
        win[:, :-1, 2 * chans + lo:2 * chans + hi] = part[:, 1:]
        lo = hi
    return win


def _windows_grad(gwin):
    """Adjoint of _windows: the three column blocks added back in the order
    t-1, t, t+1, which the sum must keep to stay bit for bit."""
    batch, length, width = gwin.shape
    chans = width // 3
    gp = np.zeros((batch, length + 2, chans))
    for k in range(3):
        gp[:, k:k + length] += gwin[:, :, k * chans:(k + 1) * chans]
    return gp[:, 1:length + 1]


def _relu(z, saved, layer):
    """relu of a layer's pre-activation, which must be finite: a relu
    would turn a -inf into 0 and hide it."""
    if not np.isfinite(z).all():
        raise NonFiniteError(f"non-finite value in w2s.{layer}")
    mask = z > 0
    if saved is not None:
        saved[layer] = mask
    out = z * mask
    out += 0.0  # a negative times 0 is -0.0; relu gives +0.0 there
    return out


def _conv_relu(parts, weights, saved, layer):
    win = _windows(parts)
    if saved is not None:
        saved[layer + ".in"] = win
    w, b = weights[layer]
    z = np.matmul(win, w)
    z += b
    return _relu(z, saved, layer)


def _w2s_arrays(weather, weights, saved):
    """The encoder-decoder on arrays: (B, 13, 4) -> (B, 16, 2) head output.

    saved, when not None, receives each layer's input rows and relu mask
    for _w2s_grads; otherwise each intermediate is freed once used.
    """
    length = weather.shape[1]
    x = np.concatenate([weather] + [weather[:, length - 1:length]] * _PAD, axis=1)
    e1 = _conv_relu([x], weights, saved, "enc1")
    e2 = _conv_relu([0.5 * (e1[:, 0::2] + e1[:, 1::2])], weights, saved, "enc2")
    p2 = 0.5 * (e2[:, 0::2] + e2[:, 1::2])
    mid = _relu(np.matmul(p2, weights["mid"][0]) + weights["mid"][1], saved, "mid")
    if saved is not None:
        saved["mid.in"] = p2
    del p2
    d2 = _conv_relu([np.repeat(mid, 2, axis=1), e2], weights, saved, "dec2")
    del mid, e2
    d1 = _conv_relu([np.repeat(d2, 2, axis=1), e1], weights, saved, "dec1")
    del d2, e1
    if saved is not None:
        saved["head.in"] = d1
    out = np.matmul(d1, weights["head"][0]) + weights["head"][1]
    if not np.isfinite(out).all():
        raise NonFiniteError("non-finite value in w2s.head")
    return out


def _w2s_grads(go, weights, saved):
    """Closed-form backward of _w2s_arrays from the gradient of its
    [:, :13] crop. Each step repeats the arithmetic of the op-by-op chain
    it replaced: relu as go * mask, pool as repeat(go * 0.5), upsample as
    the sum of its even and odd steps, weights as per-sample products
    summed over the batch, biases as repeated sums over axis 0.

    Returns {name: gradient} for every layer parameter; the weather is
    data and gets none.
    """
    grads = {}

    def dense(g, layer, to_input=True):  # a layer's weight and bias gradients, then its input's
        a = saved[layer + ".in"]
        grads[f"w2s.{layer}.w"] = np.matmul(np.swapaxes(a, -1, -2), g).sum(axis=0)
        grads[f"w2s.{layer}.b"] = g.sum(axis=0).sum(axis=0)
        return np.matmul(g, np.swapaxes(weights[layer][0], -1, -2)) if to_input else None

    def split_up(g, width):  # a decoder input's gradient: (upsampled, skip)
        up = g[:, :, :width]
        return up[:, 0::2] + up[:, 1::2], g[:, :, width:]

    g = np.zeros(saved["head.in"].shape[:2] + (go.shape[2],))
    g[:, :T] += go
    g = dense(g, "head") * saved["dec1"]
    g, skip1 = split_up(_windows_grad(dense(g, "dec1")), weights["dec2"][0].shape[1])
    g = g * saved["dec2"]
    g, skip2 = split_up(_windows_grad(dense(g, "dec2")), weights["mid"][0].shape[1])
    g = g * saved["mid"]
    g = (np.repeat(dense(g, "mid") * 0.5, 2, axis=1) + skip2) * saved["enc2"]
    g = (np.repeat(_windows_grad(dense(g, "enc2")) * 0.5, 2, axis=1) + skip1) * saved["enc1"]
    dense(g, "enc1", to_input=False)
    return grads


def w2s_forward(weather, params):
    """(B, 13, 4) standardized weather -> (B, 13, 2) standardized SM.

    Edge-padded to 16 steps so both pooling levels divide evenly, then
    two width-3 convolutions with pair-mean pooling, a dense bottleneck,
    two width-3 convolutions over repeat-upsampled inputs joined with the
    encoder outputs, and a dense head. The whole encoder-decoder is one
    autodiff node over its parameters, with a closed-form backward; on
    constants it keeps no intermediate.
    """
    if weather.shape[1:] != (T, 4):
        raise ShapeError(f"w2s_forward: expected (B, {T}, 4), got {weather.shape}")
    parents = [params[name] for name in W2S_PARAMS]
    weights = {layer: (params[f"w2s.{layer}.w"].data, params[f"w2s.{layer}.b"].data)
               for layer in W2S_LAYERS}
    saved = {} if any(t.requires_grad for t in parents) else None
    out = _w2s_arrays(weather.data, weights, saved)

    def grads(go):
        g = _w2s_grads(go, weights, saved)
        return [g[name] for name in W2S_PARAMS]

    return node(out[:, :T], parents, grads, "w2s")


def assemble_input(w, o, v, sm, config):
    """Token value sequence (B, n_tokens), channel-major then auxiliaries,
    as one autodiff node.

    sm is None when the variant carries no soil-moisture tokens.
    """
    series = [w, v]
    if config.use_sm_tokens:
        if sm is None:
            raise ShapeError("assemble_input: SM tokens requested but no SM given")
        if sm.shape[1:] != (T, 2):
            raise ShapeError(f"assemble_input: expected (B, {T}, 2) SM, got {sm.shape}")
        series.append(sm)
    blocks = [t.data.transpose(0, 2, 1).reshape(t.shape[0], -1) for t in series] + [o.data]
    widths = [b.shape[1] for b in blocks]
    if len({b.shape[0] for b in blocks}) != 1 or sum(widths) != config.n_tokens:
        raise ShapeError(f"assemble_input: built {widths} tokens for batches "
                         f"{[b.shape[0] for b in blocks]}, expected {config.n_tokens}")
    bounds = np.cumsum(widths)[:-1]

    def grads(go):
        parts = np.split(go, bounds, axis=1)
        out = [part.reshape(t.shape[0], t.shape[2], t.shape[1]).transpose(0, 2, 1)
               if t.requires_grad else None for part, t in zip(parts, series)]
        return out + [parts[-1] if o.requires_grad else None]

    return node(np.concatenate(blocks, axis=1), series + [o], grads, "tokens")


def attention_forward(x, params, config):
    """Token values (B, n) -> (yield estimate (B,), weights (B, n)).

    scores = x a + c and y = sum_n alpha_n (x_n a'_n + c'_n) + b, where
    a, c = (Ev, Eb) Wk q / sqrt(d_k) and a', c' = (Ev, Eb) Wv w_out.
    y is one autodiff node whose backward repeats the op-by-op chain's
    arithmetic; the weights are a constant, because no loss reads them.
    """
    n = config.n_tokens
    if x.shape[-1] != n:
        raise ShapeError(f"attention_forward: {x.shape[-1]} tokens, expected {n}")
    parents = [x] + [params[f"att.{name}"] for name in
                     ("embed.value", "embed.bias", "wk", "q", "wv", "out.w", "out.b")]
    xs, ev, eb, wk, q, wv, w_out, b_out = (t.data for t in parents)
    inv_sqrt_dk = float(1.0 / np.sqrt(config.d_k))
    kq, vo = np.matmul(wk, q) * inv_sqrt_dk, np.matmul(wv, w_out)
    a = np.matmul(ev, kq).reshape(n)
    scores = xs * a + np.matmul(eb, kq).reshape(n)
    if not np.isfinite(scores).all():
        raise NonFiniteError("non-finite value in the attention scores")
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)
    ax, ev_vo, eb_vo = alpha * xs, np.matmul(ev, vo), np.matmul(eb, vo)
    y = (np.matmul(ax, ev_vo) + np.matmul(alpha, eb_vo)).reshape(len(xs)) + b_out

    def grads(go):  # a shared gradient is its first use's term plus its second's
        g = go.reshape(len(xs), 1)
        g_ax = np.matmul(g, ev_vo.T)
        g_alpha = g_ax * xs + np.matmul(g, eb_vo.T)
        g_s = alpha * (g_alpha - (g_alpha * alpha).sum(axis=-1, keepdims=True))
        g_a, g_c = (g_s * xs).sum(axis=0).reshape(n, 1), g_s.sum(axis=0).reshape(n, 1)
        g_ev_vo, g_eb_vo = np.matmul(ax.T, g), np.matmul(alpha.T, g)
        g_kq = (np.matmul(ev.T, g_a) + np.matmul(eb.T, g_c)) * inv_sqrt_dk
        g_vo = np.matmul(ev.T, g_ev_vo) + np.matmul(eb.T, g_eb_vo)
        # the tape sums a batch of one into the (1,) bias by a reshape
        g_b = go if len(go) == 1 else go.sum(axis=0, keepdims=True)
        return [g_ax * alpha + g_s * a if x.requires_grad else None,
                np.matmul(g_ev_vo, vo.T) + np.matmul(g_a, kq.T),
                np.matmul(g_c, kq.T) + np.matmul(g_eb_vo, vo.T),
                np.matmul(g_kq, q.T), np.matmul(wk.T, g_kq),
                np.matmul(g_vo, w_out.T), np.matmul(wv.T, g_vo), g_b]

    return node(y, parents, grads, "head"), Tensor(alpha)


def forward_graph(batch, params, config):
    """Standardized batch dict -> (y_std, sm_std or None, alpha) tensors.

    batch keys: "w", "v", "aux" always; "s" when SM enters as tokens or
    supervision. All are plain numpy arrays in z-scored space.
    """
    w = Tensor(batch["w"])
    v = Tensor(batch["v"])
    o = Tensor(batch["aux"])
    sm_hat = None
    sm_tokens = None
    if config.use_w2s:
        sm_hat = w2s_forward(w, params)
        sm_tokens = sm_hat
    elif config.use_sm_tokens:
        sm_tokens = Tensor(batch["s"])
    x = assemble_input(w, o, v, sm_tokens, config)
    y, alpha = attention_forward(x, params, config)
    return y, sm_hat, alpha


# rows per graph-free forward block. A block holds W2S window arrays of
# (rows, 8, 192) and (rows, 16, 96) float64. predict on 4320 county samples
# (2-vCPU host, OpenBLAS 0.3.31) took 208 ms at a 101.2 MB traced peak in one
# batch; in blocks of 16, 64, 256 and 1024 rows it took 153, 106, 93 and
# 105 ms at 12.3, 12.3, 16.6 and 34.7 MB, the input and outputs included.
# Keep it a multiple of 4: OpenBLAS sums a row of the attention readout's
# (B, n) @ (n, 1) product one way inside its groups of four rows and another
# way in a leftover row, so a block starting off that grid moves low bits.
INFER_ROWS = 256


def forward_blocks(batch, params, config):
    """forward_graph on params.constants() over consecutive blocks of
    INFER_ROWS rows: (y_std (N,), sm_std (N, 13, 2) or None, alpha (N, n))
    arrays. A row's outputs depend on that row alone, so with INFER_ROWS a
    multiple of 4 they are bit for bit those of one batch, while the peak
    holds one block's intermediates.
    """
    consts = params.constants()
    n = len(batch["w"])
    outs = None
    for lo in range(0, n, INFER_ROWS):
        block = forward_graph({k: v[lo:lo + INFER_ROWS] for k, v in batch.items()}, consts, config)
        if outs is None:
            outs = [None if t is None else np.empty((n,) + t.shape[1:]) for t in block]
        for out, t in zip(outs, block):
            if t is not None:
                out[lo:lo + INFER_ROWS] = t.data
    return tuple(outs)


# ---------------------------------------------------------------------------
# stack_dataset arrays <-> z-scored space


def standardize(arrays, stats):
    out = dict(arrays)
    for group, key, _ in Normalization.GROUPS:
        out[key] = (arrays[key] - getattr(stats, f"{group}_mu")) / getattr(stats, f"{group}_sd")
    out["y_std"] = (arrays["y"] - stats.y_mu) / stats.y_sd
    return out


@dataclass
class ModelBundle:
    """Everything inference needs: architecture, parameters, statistics."""

    config: ModelConfig
    params: ParamStore
    stats: Normalization
    meta: dict = field(default_factory=dict)

    def predict(self, dataset):
        """Physical-unit predictions for a dataset.

        Returns dict with "y_hat" (t/ha), "sm_hat" ((N, 13, 2) or None),
        and "alpha" ((N, n_tokens)).
        """
        batch = standardize(stack_dataset(dataset), self.stats)
        y, sm_hat, alpha = forward_blocks(batch, self.params, self.config)
        out = {"y_hat": y * self.stats.y_sd + self.stats.y_mu, "alpha": alpha, "sm_hat": None}
        if sm_hat is not None:
            out["sm_hat"] = sm_hat * self.stats.sm_sd + self.stats.sm_mu
        return out


def token_labels(config):
    """(channel, timestep) label per token; auxiliaries get timestep -1."""
    return ([(name, t) for name in config.series_channels() for t in range(T)]
            + [(name, -1) for name in ingest.AUX_FIELDS])


# ---------------------------------------------------------------------------
# checkpoints: manifest JSON + little-endian float64 blob


def save_checkpoint(stem, bundle):
    """stem.json: the format, config, normalization, each parameter's name
    and shape in store order, meta, and the sha256 of stem.bin;
    stem.bin: the bytes of ParamStore.vector, little-endian."""
    stem = str(stem)
    blob = bundle.params.vector.astype("<f8").tobytes()
    manifest = {
        "format": "kgmlsm-checkpoint-v1",
        "config": bundle.config.to_dict(),
        "normalization": bundle.stats.to_dict(),
        "params": [{"name": n, "shape": list(t.data.shape)} for n, t in bundle.params.items()],
        "meta": bundle.meta,
        "bin_sha256": hashlib.sha256(blob).hexdigest(),
    }
    artifacts.write_json(stem + ".json", manifest)
    artifacts.write_bytes(stem + ".bin", blob)
    return stem + ".json", stem + ".bin"


def load_checkpoint(stem):
    """The bundle save_checkpoint wrote. Refuses a file it cannot read, a
    parameter table other than param_table(config)'s, a blob not 8 bytes per
    value it declares, and a blob whose sha256 is not the one recorded."""
    stem = str(stem)
    try:
        manifest = artifacts.read_json(stem + ".json")
        raw = artifacts.read_bytes(stem + ".bin")
    except SchemaError as e:
        raise CheckpointMismatch(str(e)) from None
    if not isinstance(manifest, dict) or manifest.get("format") != "kgmlsm-checkpoint-v1":
        raise CheckpointMismatch(f"unknown checkpoint format in {stem}.json")
    try:
        config = ModelConfig.from_dict(manifest["config"])
        stats = Normalization.from_dict(manifest["normalization"])
        entries = [(entry["name"], tuple(entry["shape"])) for entry in manifest["params"]]
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise CheckpointMismatch(
            f"{stem}.json is not a checkpoint manifest: {type(e).__name__}: {e}") from None
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise CheckpointMismatch(f"{stem}.json: meta must be an object, not {meta!r}")
    made = [(name, shape) for name, shape, _ in param_table(config)]
    if entries != made:
        have, want = entries + [None], made + [None]
        at = next(i for i, (a, b) in enumerate(zip(have, want)) if a != b)
        raise CheckpointMismatch(f"{stem}.json: parameter {at} is {have[at]}, "
                                 f"where its config makes {want[at]}")
    params = ParamStore((name, np.zeros(shape)) for name, shape in made)
    if len(raw) != 8 * params.vector.size:
        raise CheckpointMismatch(f"{stem}.bin holds {len(raw)} bytes, not 8 for each of the "
                                 f"{params.vector.size} float64 values its manifest declares")
    if hashlib.sha256(raw).hexdigest() != manifest.get("bin_sha256"):
        raise CheckpointMismatch(f"{stem}.bin does not match the sha256 its manifest records")
    params.vector[:] = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(params.vector).all():
        raise CheckpointMismatch(f"{stem}.bin holds a non-finite value")
    return ModelBundle(config=config, params=params, stats=stats, meta=meta)

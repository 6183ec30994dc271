"""The yield network: a weather-to-soil-moisture (W2S) encoder-decoder and
an attention head that pools one learned weight per input token.

Tokens: one per (series channel, 16-day window) pair plus one per auxiliary
scalar (year, lat, lon, historical average yield). With all ten series
channels that is 10 x 13 + 4 = 134 tokens; without soil-moisture channels,
8 x 13 + 4 = 108.

The network operates in z-scored space: inputs and targets are
standardized with statistics carried in the checkpoint, and predictions
are mapped back to physical units at the boundary (predict()).
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import ingest
from .autodiff import (ParamStore, Tensor, concat, matmul, mul, pool_mean2, relu,
                       softmax_last, unsqueeze, upsample_repeat2, zeros)
from .errors import CheckpointMismatch, ShapeError

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
        return {
            "d_model": self.d_model, "d_k": self.d_k,
            "enc_width1": self.enc_width1, "enc_width2": self.enc_width2,
            "dec_width": self.dec_width,
            "use_sm_tokens": self.use_sm_tokens, "use_w2s": self.use_w2s,
        }

    @classmethod
    def from_dict(cls, d):
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
    vi_const: np.ndarray = None
    weather_const: np.ndarray = None
    sm_const: np.ndarray = None
    aux_const: np.ndarray = None

    def __post_init__(self):
        for group, size in (("weather", 4), ("vi", 4), ("sm", 2), ("aux", 4)):
            name = f"{group}_const"
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(size, dtype=bool))

    @staticmethod
    def _guard(sd):
        sd = np.asarray(sd, dtype=np.float64)
        return np.where(sd < 1e-12, 1.0, sd)

    @classmethod
    def from_dataset(cls, dataset):
        weather = np.stack([s.weather for s in dataset.samples])  # (N, T, 4)
        vis = np.stack([s.vis for s in dataset.samples])
        sm = np.stack([s.sm for s in dataset.samples])
        aux = np.stack([s.aux for s in dataset.samples])
        y = np.array([s.yield_label for s in dataset.samples])
        y_sd = float(y.std())
        return cls(
            weather_mu=weather.mean(axis=(0, 1)), weather_sd=cls._guard(weather.std(axis=(0, 1))),
            vi_mu=vis.mean(axis=(0, 1)), vi_sd=cls._guard(vis.std(axis=(0, 1))),
            sm_mu=sm.mean(axis=(0, 1)), sm_sd=cls._guard(sm.std(axis=(0, 1))),
            aux_mu=aux.mean(axis=0), aux_sd=cls._guard(aux.std(axis=0)),
            y_mu=float(y.mean()), y_sd=(y_sd if y_sd >= 1e-12 else 1.0),
            weather_const=weather.std(axis=(0, 1)) < 1e-12,
            vi_const=vis.std(axis=(0, 1)) < 1e-12,
            sm_const=sm.std(axis=(0, 1)) < 1e-12,
            aux_const=aux.std(axis=0) < 1e-12,
        )

    def refreshed_from(self, dataset):
        """Copy with statistics of constant-at-fit channels replaced by
        this dataset's; live channels keep their original scaling so the
        pretrained weights still see the feature space they learned."""
        fresh = Normalization.from_dataset(dataset)
        out = Normalization.from_dict(self.to_dict())
        for group in ("weather", "vi", "sm", "aux"):
            mask = getattr(self, f"{group}_const")
            if mask.any():
                getattr(out, f"{group}_mu")[mask] = getattr(fresh, f"{group}_mu")[mask]
                getattr(out, f"{group}_sd")[mask] = getattr(fresh, f"{group}_sd")[mask]
                getattr(out, f"{group}_const")[mask] = getattr(fresh, f"{group}_const")[mask]
        return out

    def to_dict(self):
        out = {}
        for k, v in self.__dict__.items():
            if isinstance(v, np.ndarray):
                out[k] = [bool(x) for x in v] if v.dtype == bool else v.tolist()
            else:
                out[k] = v
        return out

    @classmethod
    def from_dict(cls, d):
        kw = {}
        for k, v in d.items():
            if isinstance(v, list):
                arr = np.asarray(v)
                kw[k] = arr.astype(bool) if k.endswith("_const") else arr.astype(np.float64)
            else:
                kw[k] = float(v)
        return cls(**kw)


# ---------------------------------------------------------------------------
# parameters


def _uniform(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_params(config, seed):
    """Fresh parameter store; weights uniform(+-1/sqrt(fan_in)), biases zero
    except the token-embedding bias, which must be nonzero so equal-valued
    tokens still embed distinctly."""
    rng = np.random.default_rng([seed, 977])
    p = ParamStore()
    c = config
    if c.use_w2s:
        p.add("w2s.enc1.w", _uniform(rng, 3 * 4, (3 * 4, c.enc_width1)))
        p.add("w2s.enc1.b", np.zeros(c.enc_width1))
        p.add("w2s.enc2.w", _uniform(rng, 3 * c.enc_width1, (3 * c.enc_width1, c.enc_width2)))
        p.add("w2s.enc2.b", np.zeros(c.enc_width2))
        p.add("w2s.mid.w", _uniform(rng, c.enc_width2, (c.enc_width2, c.enc_width2)))
        p.add("w2s.mid.b", np.zeros(c.enc_width2))
        d2_in = 3 * (c.enc_width2 + c.enc_width2)
        p.add("w2s.dec2.w", _uniform(rng, d2_in, (d2_in, c.dec_width)))
        p.add("w2s.dec2.b", np.zeros(c.dec_width))
        d1_in = 3 * (c.dec_width + c.enc_width1)
        p.add("w2s.dec1.w", _uniform(rng, d1_in, (d1_in, c.dec_width)))
        p.add("w2s.dec1.b", np.zeros(c.dec_width))
        p.add("w2s.head.w", _uniform(rng, c.dec_width, (c.dec_width, 2)))
        p.add("w2s.head.b", np.zeros(2))
    n = c.n_tokens
    p.add("att.embed.value", _uniform(rng, 2, (n, c.d_model)))
    p.add("att.embed.bias", _uniform(rng, 2, (n, c.d_model)))
    p.add("att.wk", _uniform(rng, c.d_model, (c.d_model, c.d_k)))
    p.add("att.wv", _uniform(rng, c.d_model, (c.d_model, c.d_k)))
    p.add("att.q", _uniform(rng, c.d_k, (c.d_k, 1)))
    p.add("att.out.w", _uniform(rng, c.d_k, (c.d_k, 1)))
    p.add("att.out.b", np.zeros(1))
    return p


# ---------------------------------------------------------------------------
# forward pieces


def _conv3(x, w, b):
    """Width-3 temporal mixing along axis 1, zero-padded to keep length."""
    batch, length, chans = x.shape
    zpad = zeros((batch, 1, chans))
    xp = concat([zpad, x, zpad], axis=1)
    win = concat([xp[:, 0:length, :], xp[:, 1:length + 1, :], xp[:, 2:length + 2, :]], axis=2)
    return matmul(win, w) + b


def _pad_time(x):
    """Edge-replicate axis 1 from 13 to 16 steps."""
    last = x[:, T - 1: T, :]
    return concat([x, last, last, last], axis=1)


def w2s_forward(weather, params):
    """(B, 13, 4) standardized weather -> (B, 13, 2) standardized SM."""
    if weather.shape[1:] != (T, 4):
        raise ShapeError(f"w2s_forward: expected (B, {T}, 4), got {weather.shape}")
    x = _pad_time(weather)
    e1 = relu(_conv3(x, params["w2s.enc1.w"], params["w2s.enc1.b"]))
    p1 = pool_mean2(e1)
    e2 = relu(_conv3(p1, params["w2s.enc2.w"], params["w2s.enc2.b"]))
    p2 = pool_mean2(e2)
    mid = relu(matmul(p2, params["w2s.mid.w"]) + params["w2s.mid.b"])
    u2 = upsample_repeat2(mid)
    d2 = relu(_conv3(concat([u2, e2], axis=2), params["w2s.dec2.w"], params["w2s.dec2.b"]))
    u1 = upsample_repeat2(d2)
    d1 = relu(_conv3(concat([u1, e1], axis=2), params["w2s.dec1.w"], params["w2s.dec1.b"]))
    sm = matmul(d1, params["w2s.head.w"]) + params["w2s.head.b"]
    return sm[:, :T, :]


def assemble_input(w, o, v, sm, config):
    """Token value sequence (B, n_tokens), channel-major then auxiliaries.

    sm is None when the variant carries no soil-moisture tokens.
    """
    cols = [w[:, :, i] for i in range(4)]
    cols += [v[:, :, i] for i in range(4)]
    if config.use_sm_tokens:
        if sm is None:
            raise ShapeError("assemble_input: SM tokens requested but no SM given")
        if sm.shape[1:] != (T, 2):
            raise ShapeError(f"assemble_input: expected (B, {T}, 2) SM, got {sm.shape}")
        cols += [sm[:, :, i] for i in range(2)]
    x = concat(cols + [o], axis=1)
    if x.shape[1] != config.n_tokens:
        raise ShapeError(f"assemble_input: built {x.shape[1]} tokens, expected {config.n_tokens}")
    return x


def attention_forward(x, params, config):
    """Token values (B, n) -> (yield estimate (B,), weights (B, n))."""
    if x.shape[-1] != config.n_tokens:
        raise ShapeError(f"attention_forward: {x.shape[-1]} tokens, expected {config.n_tokens}")
    e = mul(unsqueeze(x, 2), params["att.embed.value"]) + params["att.embed.bias"]
    k = matmul(e, params["att.wk"])
    v = matmul(e, params["att.wv"])
    scores = matmul(k, params["att.q"])[:, :, 0] * (1.0 / np.sqrt(config.d_k))
    alpha = softmax_last(scores)
    pooled = matmul(unsqueeze(alpha, 1), v)[:, 0, :]
    y = matmul(pooled, params["att.out.w"])[:, 0] + params["att.out.b"]
    return y, alpha


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


# ---------------------------------------------------------------------------
# dataset <-> arrays


def stack_dataset(dataset):
    return {
        "w": np.stack([s.weather for s in dataset.samples]),
        "v": np.stack([s.vis for s in dataset.samples]),
        "s": np.stack([s.sm for s in dataset.samples]),
        "aux": np.stack([s.aux for s in dataset.samples]),
        "y": np.array([s.yield_label for s in dataset.samples]),
        "sbar": np.array([s.sbar for s in dataset.samples]),
        "drought": np.array([s.drought_flag for s in dataset.samples], dtype=bool),
        "keys": [(s.sid, s.year) for s in dataset.samples],
    }


def standardize(arrays, stats):
    out = dict(arrays)
    out["w"] = (arrays["w"] - stats.weather_mu) / stats.weather_sd
    out["v"] = (arrays["v"] - stats.vi_mu) / stats.vi_sd
    out["s"] = (arrays["s"] - stats.sm_mu) / stats.sm_sd
    out["aux"] = (arrays["aux"] - stats.aux_mu) / stats.aux_sd
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
        y, sm_hat, alpha = forward_graph(batch, self.params, self.config)
        out = {
            "y_hat": y.data * self.stats.y_sd + self.stats.y_mu,
            "alpha": alpha.data.copy(),
            "sm_hat": None,
        }
        if sm_hat is not None:
            out["sm_hat"] = sm_hat.data * self.stats.sm_sd + self.stats.sm_mu
        return out


def token_labels(config):
    """(channel, timestep) label per token; auxiliaries get timestep -1."""
    labels = []
    for name in config.series_channels():
        for t in range(T):
            labels.append((name, t))
    for name in ingest.AUX_FIELDS:
        labels.append((name, -1))
    return labels


# ---------------------------------------------------------------------------
# checkpoints: manifest JSON + little-endian float64 blob


def save_checkpoint(stem, bundle):
    stem = str(stem)
    order = bundle.params.names()
    manifest = {
        "format": "kgmlsm-checkpoint-v1",
        "config": bundle.config.to_dict(),
        "normalization": bundle.stats.to_dict(),
        "params": [{"name": n, "shape": list(bundle.params[n].data.shape)} for n in order],
        "meta": bundle.meta,
    }
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    blob = np.concatenate([bundle.params[n].data.ravel() for n in order]) if order else np.zeros(0)
    with open(stem + ".bin", "wb") as f:
        f.write(blob.astype("<f8").tobytes())
    return stem + ".json", stem + ".bin"


def load_checkpoint(stem, expect_config=None):
    stem = str(stem)
    if not os.path.exists(stem + ".json") or not os.path.exists(stem + ".bin"):
        raise FileNotFoundError(f"checkpoint {stem} missing .json/.bin")
    with open(stem + ".json", encoding="utf-8") as f:
        manifest = json.load(f)
    if manifest.get("format") != "kgmlsm-checkpoint-v1":
        raise CheckpointMismatch(f"unknown checkpoint format in {stem}.json")
    config = ModelConfig.from_dict(manifest["config"])
    if expect_config is not None and config.to_dict() != expect_config.to_dict():
        raise CheckpointMismatch(
            f"checkpoint architecture {config.to_dict()} != requested {expect_config.to_dict()}")
    stats = Normalization.from_dict(manifest["normalization"])
    with open(stem + ".bin", "rb") as f:
        blob = np.frombuffer(f.read(), dtype="<f8")
    params = ParamStore()
    offset = 0
    for entry in manifest["params"]:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) if shape else 1
        chunk = blob[offset: offset + size]
        if chunk.size != size:
            raise CheckpointMismatch(f"checkpoint blob too short for {entry['name']}")
        params.add(entry["name"], chunk.reshape(shape))
        offset += size
    if offset != blob.size:
        raise CheckpointMismatch(f"checkpoint blob has {blob.size - offset} trailing values")
    return ModelBundle(config=config, params=params, stats=stats, meta=manifest.get("meta", {}))

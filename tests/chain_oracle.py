"""The trained layers as the op-by-op autodiff chains that the package
fuses into one node each: the W2S encoder-decoder and the token matrix
(model.w2s_forward, model.assemble_input), the attention head
(model.attention_forward), the yield loss (losses.yield_loss) and the MLP
baseline's forward (metrics.mlp_forward).

The fused nodes must equal these chains bit for bit, on outputs and on
every gradient, so they are kept here as their oracle, with the
primitives that only they use: the element-wise product, the matrix
product, relu, the last-axis softmax, reshape, basic slicing, the edge
padding, the width-3 convolution, pair-mean pooling, repeat upsampling and
concatenation.
"""

import numpy as np

from kgmlsm import autodiff as ad
from kgmlsm.errors import ShapeError
from kgmlsm.losses import drought_weight

T = 13


def mul(a, b):
    ad._broadcast_shape(a, b, "mul")

    def backward(go):
        if a.requires_grad:
            ad._accumulate(a, ad._unbroadcast(go * b.data, a.data.shape))
        if b.requires_grad:
            ad._accumulate(b, ad._unbroadcast(go * a.data, b.data.shape))

    return ad.Tensor(a.data * b.data, _parents=(a, b), _backward=backward, name="mul")


def matmul(a, b):
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")

    def backward(go):
        if a.requires_grad:
            ga = np.matmul(go, np.swapaxes(b.data, -1, -2))
            ad._accumulate(a, ad._unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), go)
            ad._accumulate(b, ad._unbroadcast(gb, b.data.shape))

    return ad.Tensor(np.matmul(a.data, b.data), _parents=(a, b), _backward=backward, name="matmul")


def relu(a):
    mask = a.data > 0

    def backward(go):
        if a.requires_grad:
            ad._accumulate(a, go * mask)

    return ad.Tensor(np.where(mask, a.data, 0.0), _parents=(a,), _backward=backward, name="relu")


def softmax_last(a):
    """Softmax over the last axis, computed with max subtraction."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(go):
        if a.requires_grad:
            inner = (go * y).sum(axis=-1, keepdims=True)
            ad._accumulate(a, y * (go - inner))

    return ad.Tensor(y, _parents=(a,), _backward=backward, name="softmax")


def reshape(a, shape):
    def backward(go):
        if a.requires_grad:
            ad._accumulate(a, go.reshape(a.data.shape))

    return ad.Tensor(a.data.reshape(shape), _parents=(a,), _backward=backward, name="reshape")


def _is_basic(part):
    return isinstance(part, slice) or (isinstance(part, (int, np.integer))
                                       and not isinstance(part, bool))


def getitem(a, idx):
    """Basic indexing only (ints and slices), so no element is selected
    twice and the backward is a plain add into zeros."""
    if not all(_is_basic(p) for p in (idx if isinstance(idx, tuple) else (idx,))):
        raise ShapeError(f"getitem: only int and slice indices are supported, got {idx!r}")
    out = a.data[idx]

    def backward(go):
        if a.requires_grad:
            g = np.zeros_like(a.data)
            g[idx] += go
            ad._accumulate(a, g)

    return ad.Tensor(out, _parents=(a,), _backward=backward, name="slice")


def concat(tensors, axis):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: no operands")
    ref = tensors[0].data.shape
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(ref) or any(s[i] != ref[i] for i in range(len(ref)) if i != axis % len(ref)):
            raise ShapeError(f"concat: incompatible shapes {ref} vs {s} on axis {axis}")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(go):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * go.ndim
                sl[axis] = slice(lo, hi)
                ad._accumulate(t, go[tuple(sl)])

    return ad.Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  _parents=tuple(tensors), _backward=backward, name="concat")


def pad_edge(a, n):
    """Append n copies of the last step along axis 1."""
    if a.data.ndim < 2 or a.data.shape[1] == 0 or n < 1:
        raise ShapeError(f"pad_edge: need a non-empty axis 1 and n >= 1, got {a.data.shape}, n={n}")
    length = a.data.shape[1]
    out = np.concatenate([a.data] + [a.data[:, length - 1: length]] * n, axis=1)

    def backward(go):
        if a.requires_grad:
            tail = go[:, length].copy()
            for k in range(length + 1, length + n):
                tail += go[:, k]
            g = go[:, :length].copy()
            g[:, length - 1] += tail
            ad._accumulate(a, g)

    return ad.Tensor(out, _parents=(a,), _backward=backward, name="pad_edge")


def conv1d_k3(x, w, b):
    """Width-3 temporal convolution along axis 1, zero-padded to keep length:
    (B, L, C) -> [x[t-1], x[t], x[t+1]] (B, L, 3C) @ w (3C, F) + b (F,)."""
    if x.data.ndim != 3 or w.data.ndim != 2 or w.data.shape[0] != 3 * x.data.shape[2]:
        raise ShapeError(f"conv1d_k3: need (B, L, C) @ (3C, F), got {x.data.shape} @ {w.data.shape}")
    if b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"conv1d_k3: bias {b.data.shape} does not match weight {w.data.shape}")
    batch, length, chans = x.data.shape
    xp = np.zeros((batch, length + 2, chans))
    xp[:, 1:length + 1] = x.data
    win = np.concatenate([xp[:, 0:length], xp[:, 1:length + 1], xp[:, 2:length + 2]], axis=2)

    def backward(go):
        if x.requires_grad:
            gwin = np.matmul(go, np.swapaxes(w.data, -1, -2))
            gp = np.zeros_like(xp)
            for k in range(3):  # t-1, t, t+1: the order the sum must keep
                gp[:, k:k + length] += gwin[:, :, k * chans:(k + 1) * chans]
            ad._accumulate(x, gp[:, 1:length + 1])
        if w.requires_grad:
            ad._accumulate(w, np.matmul(np.swapaxes(win, -1, -2), go).sum(axis=0))
        if b.requires_grad:
            ad._accumulate(b, ad._unbroadcast(go, b.data.shape))

    return ad.Tensor(np.matmul(win, w.data) + b.data, _parents=(x, w, b), _backward=backward,
                  name="conv1d_k3")


def pool_mean2(a):
    """Downsample axis 1 by 2 with pairwise means; length must be even."""
    if a.data.ndim < 2 or a.data.shape[1] % 2 != 0:
        raise ShapeError(f"pool_mean2: axis 1 must have even length, got {a.data.shape}")

    def backward(go):
        if a.requires_grad:
            ad._accumulate(a, np.repeat(go * 0.5, 2, axis=1))

    out = 0.5 * (a.data[:, 0::2] + a.data[:, 1::2])
    return ad.Tensor(out, _parents=(a,), _backward=backward, name="pool_mean2")


def upsample_repeat2(a):
    """Upsample axis 1 by 2 with nearest repeats."""
    if a.data.ndim < 2:
        raise ShapeError(f"upsample_repeat2: need at least 2 dims, got {a.data.shape}")

    def backward(go):
        if a.requires_grad:
            ad._accumulate(a, go[:, 0::2] + go[:, 1::2])

    return ad.Tensor(np.repeat(a.data, 2, axis=1), _parents=(a,), _backward=backward, name="upsample2")


def w2s_chain(weather, params):
    """(B, 13, 4) weather -> (B, 13, 2) SM, one node per op."""
    x = pad_edge(weather, 3)
    e1 = relu(conv1d_k3(x, params["w2s.enc1.w"], params["w2s.enc1.b"]))
    p1 = pool_mean2(e1)
    e2 = relu(conv1d_k3(p1, params["w2s.enc2.w"], params["w2s.enc2.b"]))
    p2 = pool_mean2(e2)
    mid = relu(matmul(p2, params["w2s.mid.w"]) + params["w2s.mid.b"])
    u2 = upsample_repeat2(mid)
    d2 = relu(conv1d_k3(concat([u2, e2], axis=2), params["w2s.dec2.w"], params["w2s.dec2.b"]))
    u1 = upsample_repeat2(d2)
    d1 = relu(conv1d_k3(concat([u1, e1], axis=2), params["w2s.dec1.w"], params["w2s.dec1.b"]))
    sm = matmul(d1, params["w2s.head.w"]) + params["w2s.head.b"]
    return getitem(sm, np.s_[:, :T, :])


def assemble_chain(w, o, v, sm, config):
    """Token values (B, n_tokens) as one slice per channel and a concat."""
    cols = [getitem(t, np.s_[:, :, i]) for t in (w, v) for i in range(4)]
    if config.use_sm_tokens:
        cols += [getitem(sm, np.s_[:, :, i]) for i in range(2)]
    return concat(cols + [o], axis=1)


def head_chain(x, params, config):
    """The folded attention head, (B, n) -> (y (B,), alpha (B, n)), one
    node per op; the scale by 1/sqrt(d_k) is the tape's scale."""
    n = config.n_tokens
    ev, eb = params["att.embed.value"], params["att.embed.bias"]
    kq = ad.scale(matmul(params["att.wk"], params["att.q"]), 1.0 / np.sqrt(config.d_k))
    vo = matmul(params["att.wv"], params["att.out.w"])
    scores = mul(x, reshape(matmul(ev, kq), (n,))) + reshape(matmul(eb, kq), (n,))
    alpha = softmax_last(scores)
    y = matmul(mul(alpha, x), matmul(ev, vo)) + matmul(alpha, matmul(eb, vo))
    return reshape(y, (x.shape[0],)) + params["att.out.b"], alpha


def yield_loss_chain(y, y_hat, sbar, config):
    """The drought-weighted, overestimation-penalized yield loss, one node per op."""
    y_t, y_hat = ad.Tensor(np.asarray(y, dtype=np.float64)), ad._as_tensor(y_hat)
    base = ad.square(y_t - y_hat)
    over = ad.square(relu(y_hat - y_t))
    per_sample = mul(ad.Tensor(drought_weight(sbar, config.epsilon)),
                     base + ad.scale(over, config.lam))
    return ad.mean(per_sample)


def mlp_chain(x, q):
    """The MLP baseline's relu network, (N, d) -> (N,), one node per op."""
    h = relu(matmul(ad.Tensor(x), q["h.w"]) + q["h.b"])
    return reshape(matmul(h, q["o.w"]), (len(x),)) + q["o.b"]

"""Reverse-mode automatic differentiation over dense float64 arrays.

Graphs are built define-by-run: every op returns a new Tensor that records
its parents and a closure distributing the output gradient to them.
``backward`` topologically sorts the recorded graph and visits each node
exactly once. Only the primitives the downstream model needs exist here;
there is no general broadcasting machinery beyond what those ops use.

Every op validates operand shapes up front and rejects non-finite results,
so a NaN surfaces at the op that produced it rather than three modules
later.
"""

import numpy as np

from .errors import GraphError, NonFiniteError, ShapeError


class Tensor:
    """A dense float64 array plus its place in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=None, _parents=(), _backward=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"non-finite value in tensor {name or '<anon>'}")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self.name = name
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars are wrapped as constant tensors
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(_as_tensor(other), scale(self, -1.0))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def tensor(data, requires_grad=False, name=None):
    return Tensor(data, requires_grad=requires_grad, name=name)


def zeros(shape):
    return Tensor(np.zeros(shape, dtype=np.float64))


def _accumulate(t, g):
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)  # copy: g may be a view
    else:
        t.grad += g


def _unbroadcast(g, shape):
    """Sum gradient g down to the given original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _broadcast_shape(a, b, op):
    try:
        return np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast")


def add(a, b):
    _broadcast_shape(a, b, "add")

    def backward(go):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(go, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(go, b.data.shape))

    return Tensor(a.data + b.data, _parents=(a, b), _backward=backward, name="add")


def mul(a, b):
    _broadcast_shape(a, b, "mul")

    def backward(go):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(go * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(go * a.data, b.data.shape))

    return Tensor(a.data * b.data, _parents=(a, b), _backward=backward, name="mul")


def scale(a, c):
    c = float(c)

    def backward(go):
        if a.requires_grad:
            _accumulate(a, go * c)

    return Tensor(a.data * c, _parents=(a,), _backward=backward, name="scale")


def matmul(a, b):
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")

    def backward(go):
        if a.requires_grad:
            ga = np.matmul(go, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), go)
            _accumulate(b, _unbroadcast(gb, b.data.shape))

    return Tensor(np.matmul(a.data, b.data), _parents=(a, b), _backward=backward, name="matmul")


def relu(a):
    mask = a.data > 0

    def backward(go):
        if a.requires_grad:
            _accumulate(a, go * mask)

    return Tensor(np.where(mask, a.data, 0.0), _parents=(a,), _backward=backward, name="relu")


def square(a):
    def backward(go):
        if a.requires_grad:
            _accumulate(a, go * 2.0 * a.data)

    return Tensor(a.data * a.data, _parents=(a,), _backward=backward, name="square")


def mean(a):
    """Mean over all elements, returning a scalar tensor."""
    size = a.data.size
    if size == 0:
        raise ShapeError("mean: empty tensor")

    def backward(go):
        if a.requires_grad:
            _accumulate(a, np.full(a.data.shape, float(go) / size))

    return Tensor(a.data.mean(), _parents=(a,), _backward=backward, name="mean")


def softmax_last(a):
    """Softmax over the last axis, computed with max subtraction."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(go):
        if a.requires_grad:
            inner = (go * y).sum(axis=-1, keepdims=True)
            _accumulate(a, y * (go - inner))

    return Tensor(y, _parents=(a,), _backward=backward, name="softmax")


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
                _accumulate(t, go[tuple(sl)])

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  _parents=tuple(tensors), _backward=backward, name="concat")


def getitem(a, idx):
    out = a.data[idx]

    def backward(go):
        if a.requires_grad:
            g = np.zeros_like(a.data)
            np.add.at(g, idx, go)
            _accumulate(a, g)

    return Tensor(out, _parents=(a,), _backward=backward, name="slice")


def reshape(a, shape):
    def backward(go):
        if a.requires_grad:
            _accumulate(a, go.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), _parents=(a,), _backward=backward, name="reshape")


def unsqueeze(a, axis):
    return reshape(a, a.data.shape[:axis] + (1,) + a.data.shape[axis:])


def pool_mean2(a):
    """Downsample axis 1 by 2 with pairwise means; length must be even."""
    if a.data.ndim < 2 or a.data.shape[1] % 2 != 0:
        raise ShapeError(f"pool_mean2: axis 1 must have even length, got {a.data.shape}")

    def backward(go):
        if a.requires_grad:
            _accumulate(a, np.repeat(go * 0.5, 2, axis=1))

    out = 0.5 * (a.data[:, 0::2] + a.data[:, 1::2])
    return Tensor(out, _parents=(a,), _backward=backward, name="pool_mean2")


def upsample_repeat2(a):
    """Upsample axis 1 by 2 with nearest repeats."""
    if a.data.ndim < 2:
        raise ShapeError(f"upsample_repeat2: need at least 2 dims, got {a.data.shape}")

    def backward(go):
        if a.requires_grad:
            _accumulate(a, go[:, 0::2] + go[:, 1::2])

    return Tensor(np.repeat(a.data, 2, axis=1), _parents=(a,), _backward=backward, name="upsample2")


def backward(loss):
    """Reverse-mode sweep from a scalar loss; fills .grad on the graph."""
    if loss.data.shape != ():
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    for node in topo:
        node.grad = None
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    return loss


class ParamStore:
    """Named trainable tensors with a stable declared ordering."""

    def __init__(self):
        self._params = {}

    def add(self, name, array):
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.array(array, dtype=np.float64), requires_grad=True, name=name)
        self._params[name] = t
        return t

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __iter__(self):
        return iter(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def n_values(self):
        return sum(t.data.size for t in self._params.values())

    def to_arrays(self):
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_arrays(self, arrays):
        for name, t in self._params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ShapeError(f"parameter {name}: expected {t.data.shape}, got {arr.shape}")
            t.data = arr.copy()

    def flat(self):
        if not self._params:
            return np.zeros(0)
        return np.concatenate([t.data.ravel() for t in self._params.values()])


def gradients(loss, store):
    """Backward from loss; return grads keyed by parameter name.

    Parameters that do not appear in the loss graph get zero gradients.
    """
    backward(loss)
    out = {}
    for name, t in store.items():
        out[name] = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
    return out

"""Reverse-mode automatic differentiation over dense float64 arrays.

Graphs are built define-by-run: every op returns a new Tensor that records
its parents and a closure distributing the output gradient to them.
``backward`` topologically sorts the recorded graph and visits each node
exactly once. Every trained layer is one ``node`` whose closed-form
backward its module supplies: the W2S encoder-decoder, the token matrix,
the attention head, the yield loss and the MLP baseline's forward. The
tape itself keeps only add, scale, square and mean, which the
soil-moisture loss, the MLP's loss and the sum of two loss terms use;
there is no general broadcasting machinery beyond what those ops use.
``gradients`` returns one vector laid out like ``ParamStore.vector``.

A result records its parents only when some operand requires grad, so a
forward pass on ``ParamStore.constants()`` builds no graph: each
intermediate array is freed as soon as the next op has used it. The model
runs such passes over fixed blocks of rows (``model.forward_blocks``), so
the largest intermediate is one block's.

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
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"non-finite value in tensor {name or '<anon>'}")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self.name = name
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars are wrapped as constant tensors
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other), -1.0))


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


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


def scale(a, c):
    c = float(c)

    def backward(go):
        if a.requires_grad:
            _accumulate(a, go * c)

    return Tensor(a.data * c, _parents=(a,), _backward=backward, name="scale")


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


def node(data, parents, grads, name):
    """A node whose forward the caller has already computed as data.

    grads(go) returns one gradient per parent, each of the parent's shape,
    or None for a parent that needs none. Its arithmetic is the caller's, so
    a fused layer can repeat an op-by-op chain bit for bit. Only the parents
    that require grad are recorded: the others take no part in backward.
    """
    parents = tuple(parents)

    def backward(go):
        for p, g in zip(parents, grads(go)):
            if g is not None:
                _accumulate(p, g)

    return Tensor(data, _parents=tuple(p for p in parents if p.requires_grad),
                  _backward=backward, name=name)


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
    """Named trainable tensors over one float64 vector, laid out once from
    ordered (name, initial array) pairs: each tensor's data is a reshaped view
    of `vector`. Whatever moves the parameters as a whole (an Adam step, a
    restore, a warm start, a checkpoint) moves `vector` in place."""

    def __init__(self, pairs):
        arrays = {}
        for name, array in pairs:
            if name in arrays:
                raise ValueError(f"duplicate parameter {name!r}")
            arrays[name] = np.asarray(array, dtype=np.float64)
        self.vector = np.concatenate([a.ravel() for a in arrays.values()])
        ends = np.cumsum([a.size for a in arrays.values()])
        self._params = {name: Tensor(self.vector[end - a.size: end].reshape(a.shape),
                                     requires_grad=True, name=name)
                        for (name, a), end in zip(arrays.items(), ends)}

    def __getitem__(self, name):
        return self._params[name]

    def items(self):
        return self._params.items()

    def constants(self):
        """The parameters as tensors outside any graph, for inference."""
        return {name: Tensor(t.data, name=name) for name, t in self._params.items()}


def gradients(loss, store):
    """Backward from loss; return one float64 vector laid out like
    store.vector, with zeros for a parameter the loss graph does not reach.
    A gradient whose shape is not its parameter's is refused."""
    backward(loss)
    for name, t in store.items():
        if t.grad is not None and t.grad.shape != t.data.shape:
            raise ShapeError(f"gradients: grad shape {t.grad.shape} != param shape "
                             f"{t.data.shape} for {name}")
    return np.concatenate([np.zeros(t.data.size) if t.grad is None else t.grad.ravel()
                           for _, t in store.items()])

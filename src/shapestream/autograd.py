"""Minimal dense-tensor engine with reverse-mode differentiation.

Float64 throughout. A forward pass records a graph of closures; calling
``backward()`` on a scalar loss walks it in reverse topological order and
then frees it, so a graph can be consumed exactly once. The operation set
is deliberately small: everything a 3D conv encoder/decoder plus a
kernelized attention block needs, nothing more.
"""

from __future__ import annotations

import contextlib
from itertools import product
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "concat",
    "conv3d",
    "conv_transpose3d",
    "conv3d_output_shape",
    "conv_transpose3d_output_shape",
]

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """N-dimensional float64 value, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ------------------------------------------------------

    def _make_child(self, data: np.ndarray, parents: Sequence["Tensor"], backward) -> "Tensor":
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-mode pass from a scalar. The recorded graph is freed after
        use; a second call without re-running forward is rejected."""
        if self.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward on a tensor that does not require grad")
        if self._backward is None and self._parents == () and self.grad is None:
            # leaf scalar: nothing to do beyond seeding its own grad
            self.grad = np.ones_like(self.data)
            return
        if self._backward is None and self._parents == ():
            raise RuntimeError("backward called twice on the same recorded graph")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
            # free the graph: a consumed node cannot be backpropagated again
            node._parents = ()
            node._backward = None

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return self._make_child(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        return self._make_child(-self.data, (self,), backward)

    def __sub__(self, other):
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g, other.shape))

        return self._make_child(out_data, (self, other), backward)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return self._make_child(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.shape)
                )

        return self._make_child(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __matmul__(self, other):
        other = self._coerce(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ValueError(
                f"matmul expects 2-D operands, got {self.shape} @ {other.shape}"
            )
        out_data = self.data @ other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)

        return self._make_child(out_data, (self, other), backward)

    # -- shape ops -------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(old_shape))

        return self._make_child(out_data, (self,), backward)

    @property
    def T(self):
        if self.ndim != 2:
            raise ValueError("T is defined for 2-D tensors only")

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.T)

        return self._make_child(self.data.T.copy(), (self,), backward)

    def narrow(self, axis: int, start: int, length: int):
        """Contiguous slice along one axis."""
        index = [slice(None)] * self.ndim
        index[axis] = slice(start, start + length)
        index = tuple(index)
        out_data = self.data[index].copy()

        def backward(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                full[index] = g
                self._accumulate(full)

        return self._make_child(out_data, (self,), backward)

    # -- reductions --------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(gg, self.shape).copy())

        return self._make_child(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities ------------------------------------------------

    def relu(self):
        out_data = np.maximum(self.data, 0.0)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (self.data > 0.0))

        return self._make_child(out_data, (self,), backward)

    def sigmoid(self):
        x = self.data
        out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * out_data * (1.0 - out_data))

        return self._make_child(out_data, (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data * out_data))

        return self._make_child(out_data, (self,), backward)

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * out_data)

        return self._make_child(out_data, (self,), backward)

    def log(self):
        out_data = np.log(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g / self.data)

        return self._make_child(out_data, (self,), backward)

    def pow(self, exponent: float):
        out_data = self.data ** exponent

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1.0))

        return self._make_child(out_data, (self,), backward)

    def clip(self, lo: float | None, hi: float | None):
        """Clamp values; gradient flows only strictly inside the bounds."""
        out_data = np.clip(self.data, lo, hi)

        def backward(g):
            if self.requires_grad:
                mask = np.ones_like(self.data, dtype=bool)
                if lo is not None:
                    mask &= self.data > lo
                if hi is not None:
                    mask &= self.data < hi
                self._accumulate(g * mask)

        return self._make_child(out_data, (self,), backward)


# -- multi-tensor ops ------------------------------------------------------------


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of an empty tensor list")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                t._accumulate(g[tuple(index)])

    return tensors[0]._make_child(out_data, tensors, backward)


# -- 3D convolution ------------------------------------------------------------
#
# Layouts: input [N, C, D, H, W]; conv kernels [F, C, k, k, k];
# transposed-conv kernels [C, F, k, k, k]. One shared trio of numpy helpers
# implements forward/grad-input/grad-weight; the transposed variant is the
# adjoint pairing of the same three maps.


def conv3d_output_shape(spatial: tuple, k: int, stride: int, padding: int) -> tuple:
    return tuple((s + 2 * padding - k) // stride + 1 for s in spatial)


def conv_transpose3d_output_shape(spatial: tuple, k: int, stride: int, padding: int) -> tuple:
    return tuple((s - 1) * stride - 2 * padding + k for s in spatial)


def _im2col(x: np.ndarray, k: int, stride: int, padding: int) -> tuple[np.ndarray, tuple]:
    """x [N,C,D,H,W] -> columns [N, C*k^3, P] with P output positions."""
    n, c, d, h, w = x.shape
    do, ho, wo = conv3d_output_shape((d, h, w), k, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2, (padding,) * 2))
    cols = np.empty((n, c, k, k, k, do, ho, wo), dtype=x.dtype)
    for a, b, cc in product(range(k), range(k), range(k)):
        cols[:, :, a, b, cc] = xp[
            :, :,
            a : a + do * stride : stride,
            b : b + ho * stride : stride,
            cc : cc + wo * stride : stride,
        ]
    return cols.reshape(n, c * k**3, do * ho * wo), (do, ho, wo)


def _col2im(cols: np.ndarray, x_shape: tuple, k: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add columns back onto the input layout."""
    n, c, d, h, w = x_shape
    do, ho, wo = conv3d_output_shape((d, h, w), k, stride, padding)
    cols = cols.reshape(n, c, k, k, k, do, ho, wo)
    xp = np.zeros((n, c, d + 2 * padding, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for a, b, cc in product(range(k), range(k), range(k)):
        xp[
            :, :,
            a : a + do * stride : stride,
            b : b + ho * stride : stride,
            cc : cc + wo * stride : stride,
        ] += cols[:, :, a, b, cc]
    if padding:
        xp = xp[:, :, padding:-padding, padding:-padding, padding:-padding]
    return xp


def _conv3d_forward(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    nf, c, k = w.shape[0], w.shape[1], w.shape[2]
    cols, (do, ho, wo) = _im2col(x, k, stride, padding)
    y = np.einsum("fk,nkp->nfp", w.reshape(nf, c * k**3), cols, optimize=True)
    return y.reshape(x.shape[0], nf, do, ho, wo)


def _conv3d_grad_input(gy: np.ndarray, w: np.ndarray, stride: int, padding: int,
                       x_shape: tuple) -> np.ndarray:
    nf, c, k = w.shape[0], w.shape[1], w.shape[2]
    n = gy.shape[0]
    gyf = gy.reshape(n, nf, -1)
    gcols = np.einsum("nfp,fk->nkp", gyf, w.reshape(nf, c * k**3), optimize=True)
    return _col2im(gcols, x_shape, k, stride, padding)


def _conv3d_grad_weight(x: np.ndarray, gy: np.ndarray, stride: int, padding: int,
                        w_shape: tuple) -> np.ndarray:
    nf, c, k = w_shape[0], w_shape[1], w_shape[2]
    cols, _ = _im2col(x, k, stride, padding)
    gyf = gy.reshape(gy.shape[0], nf, -1)
    gw = np.einsum("nfp,nkp->fk", gyf, cols, optimize=True)
    return gw.reshape(w_shape)


def conv3d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of x [N,C,D,H,W] with kernels [F,C,k,k,k]."""
    if x.ndim != 5 or kernels.ndim != 5:
        raise ValueError(f"conv3d expects 5-D input/kernels, got {x.shape}, {kernels.shape}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if x.shape[1] != kernels.shape[1]:
        raise ValueError(
            f"input channels {x.shape[1]} (input shape {x.shape}) do not match "
            f"kernel channels {kernels.shape[1]} (kernel shape {kernels.shape})"
        )
    k = kernels.shape[2]
    if any(k > s + 2 * padding for s in x.shape[2:]):
        raise ValueError(f"kernel size {k} exceeds padded input extent {x.shape[2:]}")

    x_shape, w_shape = x.shape, kernels.shape
    out_data = _conv3d_forward(x.data, kernels.data, stride, padding)

    def backward(g):
        if x.requires_grad:
            x._accumulate(_conv3d_grad_input(g, kernels.data, stride, padding, x_shape))
        if kernels.requires_grad:
            kernels._accumulate(_conv3d_grad_weight(x.data, g, stride, padding, w_shape))

    return x._make_child(out_data, (x, kernels), backward)


def conv_transpose3d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Transposed conv of x [N,C,D,H,W] with kernels [C,F,k,k,k]; inverts the
    conv3d shape map for the same (k, stride, padding)."""
    if x.ndim != 5 or kernels.ndim != 5:
        raise ValueError(f"conv_transpose3d expects 5-D input/kernels, got {x.shape}, {kernels.shape}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if x.shape[1] != kernels.shape[0]:
        raise ValueError(
            f"input channels {x.shape[1]} (input shape {x.shape}) do not match "
            f"kernel input-channel axis {kernels.shape[0]} (kernel shape {kernels.shape})"
        )
    k = kernels.shape[2]
    spatial_out = conv_transpose3d_output_shape(x.shape[2:], k, stride, padding)
    if any(s < 1 for s in spatial_out):
        raise ValueError(f"transposed conv output extent {spatial_out} is empty")
    out_shape = (x.shape[0], kernels.shape[1]) + spatial_out

    x_shape = x.shape
    # forward of the transpose == grad-input of the matching conv
    out_data = _conv3d_grad_input(x.data, kernels.data, stride, padding, out_shape)

    def backward(g):
        if x.requires_grad:
            x._accumulate(_conv3d_forward(g, kernels.data, stride, padding))
        if kernels.requires_grad:
            kernels._accumulate(
                _conv3d_grad_weight(g, x.data, stride, padding, kernels.shape)
            )

    return x._make_child(out_data, (x, kernels), backward)

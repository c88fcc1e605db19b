"""Minimal dense-tensor engine with reverse-mode differentiation.

Float64 throughout. Every op follows one rule: it computes its value and
states, for each input, a vector-Jacobian product (VJP) mapping the output
gradient to that input's gradient. ``_child`` records those (input, vjp)
pairs only when grad mode is on and some input requires grad; otherwise the
result keeps nothing. Calling ``backward()`` on a scalar loss walks the
record in reverse topological order, sums each VJP down to its input's
shape, and then frees the record, so a graph can be consumed exactly once.
The operation set is deliberately small: everything a 3D conv
encoder/decoder plus a kernelized attention block needs, nothing more.
"""

from __future__ import annotations

import contextlib
import functools
from itertools import product
from typing import Iterable

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


def _child(data: np.ndarray, *inputs) -> "Tensor":
    """Result of an op over ``(input, vjp)`` pairs, recorded only when
    grad mode is on and some input requires grad."""
    out = Tensor(data)
    if _grad_enabled and any(t.requires_grad for t, _ in inputs):
        out.requires_grad = True
        out._inputs = inputs
    return out


class Tensor:
    """N-dimensional float64 value, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_inputs")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._inputs: tuple = ()

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

    def __iter__(self):
        """Rows along axis 0, each a tracked slice."""
        if self.ndim == 0:
            raise TypeError("iteration over a 0-d tensor")
        return (self.narrow(0, i, 1).reshape(*self.shape[1:]) for i in range(self.shape[0]))

    # -- graph plumbing ------------------------------------------------------

    def _accumulate(self, grad: np.ndarray):
        if self.grad is None:
            self.grad = np.array(grad)  # a copy: some VJPs return their input
        else:
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
        if not self._inputs:
            if self.grad is not None:
                raise RuntimeError("backward called twice on the same recorded graph")
            # leaf scalar: nothing to do beyond seeding its own grad
            self.grad = np.ones_like(self.data)
            return

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
            for parent, _ in node._inputs:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            for parent, vjp in node._inputs:
                if parent.requires_grad:
                    parent._accumulate(_unbroadcast(vjp(node.grad), parent.shape))
            # free the graph: a consumed node cannot be backpropagated again
            node._inputs = ()

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        return _child(self.data + other.data, (self, lambda g: g), (other, lambda g: g))

    __radd__ = __add__

    def __neg__(self):
        return _child(-self.data, (self, lambda g: -g))

    def __sub__(self, other):
        other = self._coerce(other)
        return _child(self.data - other.data, (self, lambda g: g), (other, lambda g: -g))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return _child(self.data * other.data,
                      (self, lambda g: g * other.data), (other, lambda g: g * self.data))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return _child(self.data / other.data,
                      (self, lambda g: g / other.data),
                      (other, lambda g: -g * self.data / (other.data * other.data)))

    def __matmul__(self, other):
        other = self._coerce(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ValueError(
                f"matmul expects 2-D operands, got {self.shape} @ {other.shape}"
            )
        return _child(self.data @ other.data,
                      (self, lambda g: g @ other.data.T), (other, lambda g: self.data.T @ g))

    # -- shape ops -------------------------------------------------------------

    def reshape(self, *shape):
        old_shape = self.shape
        return _child(self.data.reshape(shape), (self, lambda g: g.reshape(old_shape)))

    @property
    def T(self):
        if self.ndim != 2:
            raise ValueError("T is defined for 2-D tensors only")
        return _child(self.data.T.copy(), (self, lambda g: g.T))

    def narrow(self, axis: int, start: int, length: int):
        """Contiguous slice along one axis; the whole axis is the tensor itself."""
        if start == 0 and length == self.shape[axis]:
            return self
        index = [slice(None)] * self.ndim
        index[axis] = slice(start, start + length)
        index = tuple(index)

        def vjp(g):
            full = np.zeros_like(self.data)
            full[index] = g
            return full

        return _child(self.data[index].copy(), (self, vjp))

    # -- reductions --------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.shape)

        return _child(self.data.sum(axis=axis, keepdims=keepdims), (self, vjp))

    def mean(self, axis=None, keepdims: bool = False):
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities ------------------------------------------------

    def relu(self):
        return _child(np.maximum(self.data, 0.0), (self, lambda g: g * (self.data > 0.0)))

    def sigmoid(self):
        x = self.data
        out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        return _child(out_data, (self, lambda g: g * out_data * (1.0 - out_data)))

    def tanh(self):
        out_data = np.tanh(self.data)
        return _child(out_data, (self, lambda g: g * (1.0 - out_data * out_data)))

    def exp(self):
        out_data = np.exp(self.data)
        return _child(out_data, (self, lambda g: g * out_data))

    def log(self):
        return _child(np.log(self.data), (self, lambda g: g / self.data))

    def pow(self, exponent: float):
        return _child(self.data ** exponent,
                      (self, lambda g: g * exponent * self.data ** (exponent - 1.0)))

    def clip(self, lo: float, hi: float):
        """Clamp values; gradient flows only strictly inside the bounds."""
        return _child(np.clip(self.data, lo, hi),
                      (self, lambda g: g * ((self.data > lo) & (self.data < hi))))


# -- multi-tensor ops ------------------------------------------------------------


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of an empty tensor list")
    if len(tensors) == 1:
        return tensors[0]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def slice_vjp(start, stop):
        index = [slice(None)] * out_data.ndim
        index[axis] = slice(start, stop)
        index = tuple(index)
        return lambda g: g[index]

    return _child(out_data, *((t, slice_vjp(start, stop))
                              for t, start, stop in zip(tensors, offsets[:-1], offsets[1:])))


# -- 3D convolution ------------------------------------------------------------
#
# Layouts: input [N, C, D, H, W]; conv kernels [F, C, k, k, k];
# transposed-conv kernels [C, F, k, k, k]. Each contraction is one np.matmul
# batched over N. conv3d runs w2 @ cols forward, and w2.T @ gy and gy @ cols^T
# summed over N as its VJPs, with w2 the kernels as [F, C*k^3]. The VJPs of
# conv_transpose3d are conv3d's forward and grad-weight on the im2col of its
# output gradient, built once by whichever VJP runs first.
#
# _im2col and _col2im share one cached read-only index (_window_index): for
# each column entry [c*k^3 + offset, position], the flat position in one
# zero-padded [C, D', H', W'] sample that it reads. _im2col is np.take of that
# index; _col2im, its adjoint, serving conv3d's input gradient, is one
# np.bincount of the columns over it. bincount adds in input order, starting
# from zero, and the columns list offsets before positions, while one offset
# reads each voxel at most once; so every voxel sums its contributions in
# offset order, the order of a per-offset scatter-add, bit for bit.
#
# conv_transpose3d's forward gathers by phase instead. With the kernel
# zero-padded to kq = ceil(k/s) taps per phase, output s*j + p (before the crop
# by padding) is sum_q w[s*q + p] x[j - q] over q < kq, for j < M = D + kq - 1.
# The kernels regroup on each call (Adam updates them in place) to
# [kq, kq, kq, C, s^3*F]. Each tap adds its sub-kernel, used transposed like
# w2.T (for the default model, that gives the bits of _col2im of w2.T @ x),
# times the input shifted by q into one zeroed [N, s^3*F, M^3] buffer, in
# offset order. The input sits after kq - 1 zero planes, rows and columns,
# in M x M planes, so read flat a shifted input is a window, not a copy: a
# read past a row's end lands in the next row's leading zeros.
#
# Per channel pair the phase form computes (kq*s)^3 prod(M) products, (kq*s/k)^3
# prod(M/D) times the scatter form's k^3 prod(D). Above PHASE_WASTE_LIMIT times, the
# forward scatters (conv3d's input gradient; equal outputs). The default decoder's
# stages waste 3.375, 1.95, 1.42; us phase -> scatter (2 vCPUs, 1 BLAS thread, warm):
# N=1 130 -> 40, 139 -> 98, 90 -> 83; N=12 800 -> 408, 1227 -> 1432, 791 -> 1185.
PHASE_WASTE_LIMIT = 2.5


def conv3d_output_shape(spatial: tuple, k: int, stride: int, padding: int) -> tuple:
    return tuple((s + 2 * padding - k) // stride + 1 for s in spatial)


def conv_transpose3d_output_shape(spatial: tuple, k: int, stride: int, padding: int) -> tuple:
    return tuple((s - 1) * stride - 2 * padding + k for s in spatial)


@functools.lru_cache(maxsize=64)
def _window_index(c: int, spatial: tuple, k: int, stride: int, padding: int) -> np.ndarray:
    """Flat padded-input position read by each column entry, as [C*k^3, P]."""
    out = conv3d_output_shape(spatial, k, stride, padding)
    ch, *axes = np.ix_(range(c), *[range(k)] * 3, *(range(o) for o in out))
    reads = [a + stride * i for a, i in zip(axes[:3], axes[3:])]
    index = np.ravel_multi_index((ch, *reads), (c, *(e + 2 * padding for e in spatial)))
    index = index.reshape(c * k**3, -1)
    index.flags.writeable = False
    return index


def _im2col(x: np.ndarray, k: int, stride: int, padding: int) -> tuple[np.ndarray, tuple]:
    """x [N,C,D,H,W] -> columns [N, C*k^3, P] with P output positions."""
    n, c, d, h, w = x.shape
    xp = np.zeros((n, c, d + 2 * padding, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + d, padding:padding + h, padding:padding + w] = x
    cols = np.take(xp.reshape(n, -1), _window_index(c, (d, h, w), k, stride, padding), axis=1)
    return cols, conv3d_output_shape((d, h, w), k, stride, padding)


def _col2im(cols: np.ndarray, x_shape: tuple, k: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of _im2col: sum the columns back onto the input layout."""
    n, c, d, h, w = x_shape
    padded = (d + 2 * padding, h + 2 * padding, w + 2 * padding)
    size = c * padded[0] * padded[1] * padded[2]
    index = _window_index(c, (d, h, w), k, stride, padding) + size * np.arange(n)[:, None, None]
    xp = np.bincount(index.ravel(), cols.ravel(), minlength=n * size).reshape(n, c, *padded)
    return xp[:, :, padding:padding + d, padding:padding + h, padding:padding + w]


def _conv3d_forward(w: np.ndarray, cols: np.ndarray, out: tuple) -> np.ndarray:
    """Kernels [F,C,k,k,k] and input columns [N, C*k^3, P] -> output [N, F, *out]."""
    y = w.reshape(w.shape[0], -1) @ cols
    return y.reshape(cols.shape[0], w.shape[0], *out)


def _conv3d_grad_input(gy: np.ndarray, w: np.ndarray, stride: int, padding: int,
                       x_shape: tuple) -> np.ndarray:
    nf, k = w.shape[0], w.shape[2]
    gcols = w.reshape(nf, -1).T @ gy.reshape(gy.shape[0], nf, -1)
    return _col2im(gcols, x_shape, k, stride, padding)


def _conv3d_grad_weight(cols: np.ndarray, gy: np.ndarray, w_shape: tuple) -> np.ndarray:
    gyf = gy.reshape(gy.shape[0], w_shape[0], -1)
    return (gyf @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w_shape)


def _conv_transpose3d_forward(x: np.ndarray, w: np.ndarray, stride: int,
                              padding: int) -> np.ndarray:
    """x [N,C,D,H,W] and kernels [C,F,k,k,k] -> the transposed conv [N, F, *out]."""
    (n, c, *spatial), (f, k), s = x.shape, w.shape[1:3], stride
    kq, out = -(-k // s), conv_transpose3d_output_shape(spatial, k, s, padding)
    e = kq - 1
    ma, mb, mc = (d + e for d in spatial)
    if (kq * s) ** 3 * ma * mb * mc > PHASE_WASTE_LIMIT * k**3 * x[0, 0].size:
        return _conv3d_grad_input(x, w, s, padding, (n, f, *out))
    if k < kq * s:
        w = np.pad(w, ((0, 0), (0, 0)) + ((0, kq * s - k),) * 3)
    taps = w.reshape(c, f, kq, s, kq, s, kq, s).transpose(2, 4, 6, 0, 3, 5, 7, 1)
    taps = taps.reshape(kq, kq, kq, c, s**3 * f)
    xp = np.zeros((n, c, ma + e + 1, mb, mc), dtype=x.dtype)  # 1 plane for reads past the end
    xp[:, :, e:ma, e:, e:] = x
    xp, size = xp.reshape(n, c, -1), ma * mb * mc
    phases = np.zeros((n, s**3 * f, size), dtype=x.dtype)
    for qa, qb, qc in product(range(kq), repeat=3):
        start = ((e - qa) * mb + e - qb) * mc + e - qc
        phases += taps[qa, qb, qc].T @ xp[:, :, start:start + size]
    y = phases.reshape(n, s, s, s, f, ma, mb, mc).transpose(0, 4, 5, 1, 6, 2, 7, 3)
    y = y.reshape(n, f, s * ma, s * mb, s * mc)
    return y[:, :, padding:padding + out[0], padding:padding + out[1], padding:padding + out[2]]


def _check_conv(name: str, x: Tensor, kernels: Tensor, stride: int, padding: int,
                in_axis: int):
    """Reject malformed conv arguments before any numpy op sees them."""
    if x.ndim != 5 or kernels.ndim != 5:
        raise ValueError(f"{name} expects 5-D input/kernels, got {x.shape}, {kernels.shape}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding} "
                         f"(input shape {x.shape}, kernel shape {kernels.shape})")
    if not kernels.shape[2] == kernels.shape[3] == kernels.shape[4]:
        raise ValueError(f"{name} needs a cubic kernel, got kernel shape {kernels.shape} "
                         f"(input shape {x.shape})")
    if x.shape[1] != kernels.shape[in_axis]:
        raise ValueError(
            f"input channels {x.shape[1]} (input shape {x.shape}) do not match "
            f"kernel input channels {kernels.shape[in_axis]} (axis {in_axis} of kernel shape "
            f"{kernels.shape})"
        )


def conv3d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of x [N,C,D,H,W] with kernels [F,C,k,k,k]."""
    _check_conv("conv3d", x, kernels, stride, padding, in_axis=1)
    k = kernels.shape[2]
    if any(k > s + 2 * padding for s in x.shape[2:]):
        raise ValueError(f"kernel size {k} exceeds padded input extent {x.shape[2:]}")

    x_shape, w_shape = x.shape, kernels.shape
    return _child(
        _conv3d_forward(kernels.data, *_im2col(x.data, k, stride, padding)),
        (x, lambda g: _conv3d_grad_input(g, kernels.data, stride, padding, x_shape)),
        (kernels, lambda g: _conv3d_grad_weight(_im2col(x.data, k, stride, padding)[0], g,
                                                w_shape)),
    )


def conv_transpose3d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Transposed conv of x [N,C,D,H,W] with kernels [C,F,k,k,k]; inverts the
    conv3d shape map for the same (k, stride, padding)."""
    _check_conv("conv_transpose3d", x, kernels, stride, padding, in_axis=0)
    k = kernels.shape[2]
    spatial_out = conv_transpose3d_output_shape(x.shape[2:], k, stride, padding)
    if any(s < 1 for s in spatial_out):
        raise ValueError(f"transposed conv output extent {spatial_out} is empty")

    w_shape = kernels.shape
    g_cols = []  # im2col of the output gradient, built by whichever VJP runs first

    def cols_of(g):
        if not g_cols:
            g_cols.append(_im2col(g, k, stride, padding))
        return g_cols[0]

    return _child(
        _conv_transpose3d_forward(x.data, kernels.data, stride, padding),
        (x, lambda g: _conv3d_forward(kernels.data, *cols_of(g))),
        (kernels, lambda g: _conv3d_grad_weight(cols_of(g)[0], x.data, w_shape)),
    )

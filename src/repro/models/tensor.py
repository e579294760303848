"""A small reverse-mode automatic-differentiation engine over NumPy arrays.

This is the numerical substrate on which the GPT-NeoX / LLaMA transformer
variants are built.  The design follows the classic define-by-run tape:
each :class:`Tensor` records the operation that produced it as a backward
closure, and :meth:`Tensor.backward` runs the closures in reverse
topological order.

Only the operations needed by the transformer stack are implemented, but
each supports full NumPy broadcasting with correct gradient reduction.
All heavy lifting is vectorized NumPy; no Python-level loops appear in any
forward or backward path.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction (like torch.no_grad)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _as_array(value, dtype=np.float64) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(dtype, copy=False)
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` by default.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[Tensor], None] | None = None
        self._prev: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a view of the data severed from the autodiff graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[["Tensor"], None] | None) -> "Tensor":
        """Build a result tensor, wiring the graph only if grad is enabled.

        ``backward`` receives the result as its argument rather than
        closing over it, so a node never references itself and a
        finished graph is freed by reference counting alone.
        """
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._prev = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            # Always copy: pass-through backward closures (add, reshape,
            # getitem) hand us a reference to the child's grad buffer, and
            # storing it uncopied would alias gradients across tensors.
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient; defaults to ones (scalar outputs only need the
            default).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))

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
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad)
            if other.requires_grad:
                other._accumulate(out.grad)

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(-out.grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * other.data)
            if other.requires_grad:
                other._accumulate(out.grad * self.data)

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad / other.data)
            if other.requires_grad:
                other._accumulate(-out.grad * self.data / (other.data ** 2))

        return self._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        return self._make(self.data ** exponent, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(out: Tensor) -> None:
            g = out.grad
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.expand_dims(g, -1) * other.data)
                else:
                    self._accumulate(g @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.expand_dims(self.data, -1) * g)
                else:
                    other._accumulate(np.swapaxes(self.data, -1, -2) @ g)

        return self._make(self.data @ other.data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        result = np.exp(self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data)

        return self._make(result, (self,), backward)

    def log(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        result = np.sqrt(self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * 0.5 / out.data)

        return self._make(result, (self,), backward)

    def tanh(self) -> "Tensor":
        result = np.tanh(self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (1.0 - out.data ** 2))

        return self._make(result, (self,), backward)

    def sigmoid(self) -> "Tensor":
        result = 1.0 / (1.0 + np.exp(-self.data))

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data * (1.0 - out.data))

        return self._make(result, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        return self._make(self.data * mask, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation, as in GPT-NeoX)."""
        c = np.sqrt(2.0 / np.pi)
        inner = c * (self.data + 0.044715 * self.data ** 3)
        t = np.tanh(inner)
        result = 0.5 * self.data * (1.0 + t)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                dinner = c * (1.0 + 3 * 0.044715 * self.data ** 2)
                dt = (1.0 - t ** 2) * dinner
                local = 0.5 * (1.0 + t) + 0.5 * self.data * dt
                self._accumulate(out.grad * local)

        return self._make(result, (self,), backward)

    def silu(self) -> "Tensor":
        """Sigmoid linear unit (a.k.a. swish), used by LLaMA's SwiGLU MLP."""
        sig = 1.0 / (1.0 + np.exp(-self.data))
        result = self.data * sig

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                local = sig * (1.0 + self.data * (1.0 - sig))
                self._accumulate(out.grad * local)

        return self._make(result, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        result = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(out: Tensor) -> None:
            if not self.requires_grad:
                return
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make(result, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in np.atleast_1d(axis)])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) ** 2
        return sq.mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        result = self.data.max(axis=axis, keepdims=keepdims)

        def backward(out: Tensor) -> None:
            if not self.requires_grad:
                return
            g = out.grad
            res = out.data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                res = np.expand_dims(res, axis)
            mask = (self.data == res).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g)

        return self._make(result, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.data.shape))

        return self._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad.transpose(inverse))

        return self._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(out.grad, a, b))

        return self._make(np.swapaxes(self.data, a, b), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                g = np.zeros_like(self.data)
                np.add.at(g, index, out.grad)
                self._accumulate(g)

        return self._make(self.data[index], (self,), backward)

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(out: Tensor) -> None:
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * out.grad.ndim
                    sl[axis] = slice(start, stop)
                    t._accumulate(out.grad[tuple(sl)])

        return Tensor._make(data, tensors, backward)

    # ------------------------------------------------------------------
    # Composite ops used by the transformer stack
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        result = e / e.sum(axis=axis, keepdims=True)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                s = out.data
                dot = (out.grad * s).sum(axis=axis, keepdims=True)
                self._accumulate(s * (out.grad - dot))

        return self._make(result, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        result = shifted - lse

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                soft = np.exp(out.data)
                self._accumulate(out.grad - soft * out.grad.sum(axis=axis, keepdims=True))

        return self._make(result, (self,), backward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        mask = np.asarray(mask, dtype=bool)
        data = np.where(mask, value, self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(np.where(mask, 0.0, out.grad))

        return self._make(data, (self,), backward)

    def embedding_lookup(self, indices: np.ndarray) -> "Tensor":
        """Gather rows of a 2-D weight matrix (vocab, dim) by integer index."""
        indices = np.asarray(indices, dtype=np.int64)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                g = np.zeros_like(self.data)
                np.add.at(g, indices.reshape(-1),
                          out.grad.reshape(-1, self.data.shape[-1]))
                self._accumulate(g)

        return self._make(self.data[indices], (self,), backward)

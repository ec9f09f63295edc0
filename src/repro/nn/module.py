"""Minimal neural-network module system (pure NumPy).

This is the training substrate that stands in for PyTorch in this
reproduction: a ``Module`` base class with explicit ``forward``/``backward``
passes over a leading **worker axis**, automatic parameter registration,
and flat-vector parameter access used by the federated-learning layer.

Every layer computes ``R`` models at once.  Activations are
``(R, B, ...)`` arrays, one row of ``B`` samples per model.
:meth:`Module.bind` points a module at an ``(R, n)`` parameter matrix
and an ``(R, n)`` gradient matrix (``n = num_params()``): the layer reads
its weights as zero-copy views of the parameter rows, and ``backward``
writes each row's gradient into the matching gradient row.  A single
model is the ``R = 1`` case.

Each module caches whatever it needs during ``forward`` and consumes it in
the next ``backward`` call, so the intended usage is strictly
bind, then forward, then backward per batch.  :meth:`Module.replica`
copies a module tree without that state, so another thread can run
other rows through the copy (see ``SupervisedModel.gradient_all``).

Flat-vector access is backed by a :class:`FlatParamBuffer`: one contiguous
``(dim,)`` float64 vector with every ``Parameter.data`` rebound to a
reshaped view into it, so ``set_flat_params`` is a single ``np.copyto``
(see docs/architecture.md for the ownership rules).
"""

from __future__ import annotations

import copy

import numpy as np

__all__ = ["Parameter", "Module", "Sequential", "FlatParamBuffer"]


class Parameter:
    """A trainable array: the single-model value of one weight block."""

    __slots__ = ("data", "name", "_owner")

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.name = name
        # The FlatParamBuffer whose storage data currently views,
        # or None while the parameter still owns standalone arrays.
        self._owner: "FlatParamBuffer | None" = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class FlatParamBuffer:
    """Contiguous flat storage backing a parameter list.

    Owns one ``(dim,)`` float64 vector ``data`` and rebinds each
    ``Parameter.data`` to a reshaped view into it, so the parameters and
    the flat FL interface share storage.

    Binding a parameter into a new buffer steals it from any previous
    one; :meth:`owns` lets the previous holder detect that and rebuild.
    Only a ``FlatParamBuffer`` may rebind ``Parameter.data`` — everything
    else must write through the views (``copyto``).
    """

    __slots__ = ("params", "data", "dim")

    def __init__(self, params: list[Parameter]):
        self.params = list(params)
        self.dim = sum(p.size for p in self.params)
        self.data = np.empty(self.dim, dtype=np.float64)
        offset = 0
        for param in self.params:
            end = offset + param.size
            data_view = self.data[offset:end].reshape(param.shape)
            np.copyto(data_view, param.data)
            param.data = data_view
            param._owner = self
            offset = end

    def owns(self) -> bool:
        """True while every bound parameter still views this buffer."""
        for param in self.params:
            if param._owner is not self:
                return False
        return True


class Module:
    """Base class for all layers and models.

    Subclasses implement ``forward(x)`` and ``backward(grad_output)`` on
    ``(R, B, ...)`` arrays; ``backward`` writes each row's parameter
    gradient into the bound gradient matrix and returns the gradient
    with respect to the module input.  A layer with parameters also
    overrides :meth:`bind`.

    Assigning a ``Parameter`` or ``Module`` to an attribute registers it,
    so ``parameters()`` and ``modules()`` walk the tree automatically.
    The parameter list and the flat buffer are cached after the first
    access; registering a new parameter or child anywhere in the tree
    invalidates the caches up the parent chain.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_parent", None)
        object.__setattr__(self, "_param_cache", None)
        object.__setattr__(self, "_module_cache", None)
        object.__setattr__(self, "_flat", None)

    def __setattr__(self, name: str, value):
        # One type check on the common path: layers set their per-pass
        # caches on every forward.
        if isinstance(value, (Parameter, Module)):
            if isinstance(value, Parameter):
                self._params[name] = value
                if not value.name:
                    value.name = name
            else:
                self._children[name] = value
                object.__setattr__(value, "_parent", self)
            self._invalidate_caches()
        object.__setattr__(self, name, value)

    def _invalidate_caches(self) -> None:
        """Drop cached parameter lists/buffers here and in all ancestors."""
        node: Module | None = self
        while node is not None:
            object.__setattr__(node, "_param_cache", None)
            object.__setattr__(node, "_module_cache", None)
            object.__setattr__(node, "_flat", None)
            node = node._parent

    # ------------------------------------------------------------------
    # Tree traversal
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """All parameters of this module and its children, in stable order.

        The list is cached (treat it as read-only); registering new
        parameters or submodules refreshes it automatically.
        """
        cache = self._param_cache
        if cache is None:
            cache = list(self._params.values())
            for child in self._children.values():
                cache.extend(child.parameters())
            object.__setattr__(self, "_param_cache", cache)
        return cache

    def modules(self) -> list["Module"]:
        """This module and all descendants, depth-first.

        Cached like :meth:`parameters` (treat it as read-only) — the
        per-gradient-call ``train()`` switch must not pay a tree walk.
        """
        cache = self._module_cache
        if cache is None:
            cache = [self]
            for child in self._children.values():
                cache.extend(child.modules())
            object.__setattr__(self, "_module_cache", cache)
        return cache

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Switch this module and all children to training mode."""
        for module in self.modules():
            object.__setattr__(module, "training", True)
        return self

    def eval(self) -> "Module":
        """Switch this module and all children to evaluation mode."""
        for module in self.modules():
            object.__setattr__(module, "training", False)
        return self

    # ------------------------------------------------------------------
    # Flat buffer
    # ------------------------------------------------------------------
    def flat_buffer(self) -> FlatParamBuffer:
        """The buffer backing this module's parameters (built lazily).

        Rebuilt automatically when the tree gained parameters or when a
        descendant's buffer stole the bindings (e.g. flat access on a
        child after flat access on the parent).
        """
        flat = self._flat
        if flat is None or not flat.owns():
            flat = FlatParamBuffer(self.parameters())
            object.__setattr__(self, "_flat", flat)
        return flat

    # ------------------------------------------------------------------
    # Flat-vector access (used by the FL algorithms)
    # ------------------------------------------------------------------
    def num_params(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    def get_flat_params(self) -> np.ndarray:
        """Copy all parameters into one flat float64 vector."""
        flat = self.flat_buffer()
        if not flat.params:
            raise ValueError("cannot flatten an empty parameter list")
        return flat.data.copy()

    def set_flat_params(self, flat: np.ndarray) -> None:
        """Overwrite all parameters from a flat vector (copies data in)."""
        buffer = self.flat_buffer()
        flat = np.asarray(flat)
        if flat.size != buffer.dim:
            raise ValueError(
                f"flat vector has {flat.size} elements but model "
                f"needs {buffer.dim}"
            )
        np.copyto(buffer.data, flat.ravel())

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    @property
    def covered(self) -> int:
        """Columns of the parameter matrix :meth:`bind` takes."""
        return self.num_params()

    def bind(self, params: np.ndarray, grads: np.ndarray | None) -> None:
        """Point the module at ``(R, covered)`` parameter/gradient rows.

        Columns follow :meth:`parameters` order, so each child takes the
        next block of ``child.covered`` columns.  ``grads`` may be
        ``None`` for a forward-only pass.
        """
        start = 0
        for child in self._children.values():
            stop = start + child.covered
            child.bind(
                params[:, start:stop],
                None if grads is None else grads[:, start:stop],
            )
            start = stop

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def macs(self, shape: tuple) -> tuple[int, tuple]:
        """``(multiply-adds, output shape)`` of one sample's forward.

        ``shape`` is one sample's input shape (no row or batch axis).
        Only the GEMM layers count (:class:`~repro.nn.linear.Dense` and
        :class:`~repro.nn.conv.Conv2d`); this default is a layer that
        keeps its input's shape and multiplies nothing.
        """
        return 0, shape

    def _reset(self) -> None:
        """Forget the bound rows and every per-pass cache (none here)."""

    def replica(self) -> "Module":
        """A copy of this module tree that shares no per-pass state.

        The copy shares the configuration and the ``Parameter`` objects
        (a pass reads only the rows :meth:`bind` hands it; never take a
        replica's flat buffer, which would steal the bindings) and
        registers a replica of every child of the module tree.  It
        starts with none of this module's bound rows, caches or
        scratch (``_reset``), so a pass on it in another thread touches
        nothing this module's own pass uses.
        """
        clone = copy.copy(self)
        for name in ("_parent", "_param_cache", "_module_cache", "_flat"):
            object.__setattr__(clone, name, None)
        object.__setattr__(clone, "_params", dict(self._params))
        object.__setattr__(clone, "_children", {})
        for name, child in self._children.items():
            setattr(clone, name, child.replica())
        clone._reset()
        return clone

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={child.__class__.__name__}"
            for name, child in self._children.items()
        )
        return f"{self.__class__.__name__}({inner})"


class Sequential(Module):
    """Run child modules in order; backward runs them in reverse."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for index, layer in enumerate(layers):
            setattr(self, f"layer{index}", layer)

    def append(self, layer: Module) -> None:
        """Add a layer at the end of the pipeline."""
        index = len(self.layers)
        self.layers.append(layer)
        setattr(self, f"layer{index}", layer)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def macs(self, shape: tuple) -> tuple[int, tuple]:
        total = 0
        for layer in self.layers:
            count, shape = layer.macs(shape)
            total += count
        return total, shape

    def replica(self) -> "Sequential":
        clone = super().replica()
        clone.layers = list(clone._children.values())
        return clone

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

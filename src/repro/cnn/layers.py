"""CNN layer specifications and the analytic layer math.

Layers here are *specifications* (shapes, parameter counts, MAC counts) —
the inputs to both the hardware generators (:mod:`repro.synth`) and the
analytic workload table (paper Table I).  Nothing here evaluates a
layer: the generated cells are resource cells with no logic function.

The ``needs_memctrl`` flag implements the paper's component-fusion rule
(Sec. IV-B1): consecutive DFG nodes may be pre-implemented as one
component when the data movement between them does not require a memory
controller — e.g. ReLU applies directly to pooled intermediate results,
while conv -> pool needs address generation and FIFO feeding.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

__all__ = [
    "Layer",
    "Input",
    "Conv2D",
    "MaxPool2D",
    "ReLU",
    "Flatten",
    "Dense",
    "Shape",
]

#: Feature-map shape as ``(channels, height, width)``; Dense layers use
#: ``(features,)``.
Shape = tuple[int, ...]


def _conv_out(size: int, kernel: int, stride: int, pad: int) -> int:
    out = floor((size + 2 * pad - kernel) / stride) + 1
    if out <= 0:
        raise ValueError(f"non-positive output size for dim {size}, k={kernel}, s={stride}, p={pad}")
    return out


@dataclass(frozen=True)
class Layer:
    """Base class for layer specifications."""

    name: str

    #: Layers that stream data without an addressable buffer can be fused
    #: into the upstream component (paper Fig. 5 discussion).
    needs_memctrl = True

    kind = "layer"

    def out_shape(self, in_shape: Shape) -> Shape:
        raise NotImplementedError

    def n_weights(self, in_shape: Shape) -> int:
        return 0

    def n_macs(self, in_shape: Shape) -> int:
        return 0

    def signature(self, in_shape: Shape) -> tuple:
        """Hashable component-matching key: layers with equal signatures
        can be served by the same pre-implemented checkpoint."""
        return (self.kind,)


@dataclass(frozen=True)
class Input(Layer):
    """Network input; shape is ``(channels, height, width)``."""

    shape: Shape = (1, 32, 32)
    kind = "input"
    needs_memctrl = False

    def out_shape(self, in_shape: Shape) -> Shape:
        return self.shape

    def signature(self, in_shape: Shape) -> tuple:
        return (self.kind, self.shape)


@dataclass(frozen=True)
class Conv2D(Layer):
    """2-D convolution with square kernel.

    ``padding`` is ``"valid"``, ``"same"`` or an explicit integer.  The
    paper uses valid padding and stride 1 for both benchmark networks.
    """

    filters: int = 1
    kernel: int = 3
    stride: int = 1
    padding: str | int = "valid"
    kind = "conv"

    def pad_amount(self, in_shape: Shape) -> int:
        if isinstance(self.padding, int):
            return self.padding
        if self.padding == "valid":
            return 0
        if self.padding == "same":
            return (self.kernel - 1) // 2
        raise ValueError(f"conv {self.name}: bad padding {self.padding!r}")

    def out_shape(self, in_shape: Shape) -> Shape:
        c, h, w = in_shape
        pad = self.pad_amount(in_shape)
        return (
            self.filters,
            _conv_out(h, self.kernel, self.stride, pad),
            _conv_out(w, self.kernel, self.stride, pad),
        )

    def n_weights(self, in_shape: Shape) -> int:
        cin = in_shape[0]
        return self.kernel * self.kernel * cin * self.filters + self.filters

    def n_macs(self, in_shape: Shape) -> int:
        _, oh, ow = self.out_shape(in_shape)
        cin = in_shape[0]
        return self.kernel * self.kernel * cin * self.filters * oh * ow

    def signature(self, in_shape: Shape) -> tuple:
        return (self.kind, in_shape[0], self.filters, self.kernel, self.stride,
                self.pad_amount(in_shape))


@dataclass(frozen=True)
class MaxPool2D(Layer):
    """Non-overlapping max pooling (stride defaults to the window size)."""

    size: int = 2
    stride: int | None = None
    kind = "pool"

    @property
    def eff_stride(self) -> int:
        return self.stride if self.stride is not None else self.size

    def out_shape(self, in_shape: Shape) -> Shape:
        c, h, w = in_shape
        return (
            c,
            _conv_out(h, self.size, self.eff_stride, 0),
            _conv_out(w, self.size, self.eff_stride, 0),
        )

    def signature(self, in_shape: Shape) -> tuple:
        return (self.kind, in_shape[0], self.size, self.eff_stride)


@dataclass(frozen=True)
class ReLU(Layer):
    """Rectified linear unit; streams in place, no memory controller."""

    kind = "relu"
    needs_memctrl = False

    def out_shape(self, in_shape: Shape) -> Shape:
        return in_shape

    def signature(self, in_shape: Shape) -> tuple:
        return (self.kind,)


@dataclass(frozen=True)
class Flatten(Layer):
    """Reshape feature maps into a vector; free in hardware."""

    kind = "flatten"
    needs_memctrl = False

    def out_shape(self, in_shape: Shape) -> Shape:
        n = 1
        for d in in_shape:
            n *= d
        return (n,)

    def signature(self, in_shape: Shape) -> tuple:
        return (self.kind,)


@dataclass(frozen=True)
class Dense(Layer):
    """Fully connected layer.  The paper implements FC as a convolution
    whose kernel equals the input size; the generator mirrors that."""

    units: int = 10
    kind = "fc"

    def out_shape(self, in_shape: Shape) -> Shape:
        if len(in_shape) != 1:
            raise ValueError(f"dense {self.name}: needs flattened input, got {in_shape}")
        return (self.units,)

    def n_weights(self, in_shape: Shape) -> int:
        return in_shape[0] * self.units + self.units

    def n_macs(self, in_shape: Shape) -> int:
        return in_shape[0] * self.units

    def signature(self, in_shape: Shape) -> tuple:
        return (self.kind, in_shape[0], self.units)

"""Stock network definitions: LeNet-5 variants and VGG-16.

Two LeNet variants are provided because the paper itself uses two:

* :func:`lenet5` — the classic 6/16-filter LeNet-5 whose per-layer
  parameter and MAC counts match the paper's Sec. V-E narrative
  (156 params / 117,600 MACs in conv1; 2,416 / 240,000 in conv2).  Used
  for the Table III performance exploration.
* :func:`lenet5_caffe` — the Caffe 20/50-filter variant whose aggregate
  weights/MACs match the paper's Table I (26 K conv weights, 1.9 M conv
  MACs, 406 K FC weights, ~2.3 M total MACs).

:func:`vgg16` is the standard 13-conv/3-FC VGG-16, matching Table I's
14.7 M conv weights / 15.3 G conv MACs / 124 M FC weights.
"""

from __future__ import annotations

from .graph import DFG
from .layers import Conv2D, Dense, Flatten, Input, MaxPool2D, ReLU

__all__ = ["lenet5", "lenet5_caffe", "vgg16", "MODEL_CATALOG", "get_model", "models_doc"]


def lenet5() -> DFG:
    """Classic LeNet-5 (paper Sec. V-B1 / Table III architecture).

    Two convolutions, two pool+ReLU stages, two FC layers; weights and
    biases hardcoded in ROM (the generator maps them to BRAM).
    """
    return DFG.sequential(
        "lenet5",
        [
            Input("input", shape=(1, 32, 32)),
            Conv2D("conv1", filters=6, kernel=5),
            MaxPool2D("pool1", size=2),
            ReLU("relu1"),
            Conv2D("conv2", filters=16, kernel=5),
            MaxPool2D("pool2", size=2),
            ReLU("relu2"),
            Flatten("flatten"),
            Dense("fc1", units=120),
            Dense("fc2", units=10),
        ],
    )


def lenet5_caffe() -> DFG:
    """Caffe-style LeNet (20/50 filters) matching the paper's Table I."""
    return DFG.sequential(
        "lenet5_caffe",
        [
            Input("input", shape=(1, 28, 28)),
            Conv2D("conv1", filters=20, kernel=5),
            MaxPool2D("pool1", size=2),
            Conv2D("conv2", filters=50, kernel=5),
            MaxPool2D("pool2", size=2),
            Flatten("flatten"),
            Dense("fc1", units=500),
            ReLU("relu1"),
            Dense("fc2", units=10),
        ],
    )


def vgg16(input_size: int = 224) -> DFG:
    """Standard VGG-16: 5 conv blocks (64/128/256/512/512) + 3 FC layers.

    Convolutions are 3x3 stride-1 with same padding; max-pool 2x2 between
    blocks (paper Sec. V-B2).
    """
    layers: list = [Input("input", shape=(3, input_size, input_size))]
    block_filters = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)]
    for b, (filters, reps) in enumerate(block_filters, start=1):
        for r in range(1, reps + 1):
            layers.append(Conv2D(f"conv{b}_{r}", filters=filters, kernel=3, padding="same"))
            layers.append(ReLU(f"relu{b}_{r}"))
        layers.append(MaxPool2D(f"pool{b}", size=2))
    layers += [
        Flatten("flatten"),
        Dense("fc1", units=4096),
        ReLU("relu_fc1"),
        Dense("fc2", units=4096),
        ReLU("relu_fc2"),
        Dense("fc3", units=1000),
    ]
    return DFG.sequential("vgg16", layers)


MODEL_CATALOG = {
    "lenet5": lenet5,
    "lenet5_caffe": lenet5_caffe,
    "vgg16": vgg16,
}


def get_model(name: str) -> DFG:
    """Instantiate a stock model by name."""
    try:
        factory = MODEL_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_CATALOG))
        raise KeyError(f"unknown model {name!r}; known: {known}") from None
    return factory()


def models_doc() -> dict:
    """The stock networks as JSON: ``repro models --json`` and ``GET /v1/models``."""
    models = []
    for name in sorted(MODEL_CATALOG):
        totals = get_model(name).totals()
        models.append({
            "name": name,
            "conv_layers": int(totals["conv_layers"]),
            "fc_layers": int(totals["fc_layers"]),
            "total_weights": int(totals["total_weights"]),
            "total_macs": int(totals["total_macs"]),
        })
    return {"models": models}

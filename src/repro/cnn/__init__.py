"""CNN substrate: layer math, DFGs, stock models, parsing."""

from .graph import Component, DFG, LayerNode, group_components
from .layers import Conv2D, Dense, Flatten, Input, Layer, MaxPool2D, ReLU
from .models import MODEL_CATALOG, get_model, lenet5, lenet5_caffe, models_doc, vgg16
from .parser import ParseError, parse_architecture, render_architecture

__all__ = [
    "Component",
    "DFG",
    "LayerNode",
    "group_components",
    "Conv2D",
    "Dense",
    "Flatten",
    "Input",
    "Layer",
    "MaxPool2D",
    "ReLU",
    "MODEL_CATALOG",
    "models_doc",
    "get_model",
    "lenet5",
    "lenet5_caffe",
    "vgg16",
    "ParseError",
    "parse_architecture",
    "render_architecture",
]

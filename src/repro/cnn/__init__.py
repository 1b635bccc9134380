"""CNN substrate: layer math, DFGs, stock models, parsing, golden model."""

from .graph import Component, DFG, LayerNode, group_components
from .inference import conv2d, dense, maxpool2d, random_weights, relu, run_inference
from .layers import Conv2D, Dense, Flatten, Input, Layer, MaxPool2D, ReLU
from .models import MODEL_CATALOG, get_model, lenet5, lenet5_caffe, models_doc, vgg16
from .parser import ParseError, parse_architecture, render_architecture
from .quantize import FixedPointFormat, Q8_8, dequantize, quantize, quantized_inference

__all__ = [
    "Component",
    "DFG",
    "LayerNode",
    "group_components",
    "conv2d",
    "dense",
    "maxpool2d",
    "random_weights",
    "relu",
    "run_inference",
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
    "FixedPointFormat",
    "Q8_8",
    "dequantize",
    "quantize",
    "quantized_inference",
]

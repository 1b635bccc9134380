"""Analysis: latency model, productivity accounting, reporting."""

from .compare import SOTA_TABLE, SotaEntry, comparison_rows
from .floorplan import module_legend, render_floorplan
from .latency import (SimulationReport, StageTrace, component_cycles, library_parallelism,
                      simulate_stream)
from .productivity import ProductivityReport, compare_productivity
from .report import format_table, pct_str, ratio_str

__all__ = [
    "SOTA_TABLE",
    "render_floorplan",
    "module_legend",
    "SotaEntry",
    "comparison_rows",
    "component_cycles",
    "library_parallelism",
    "ProductivityReport",
    "compare_productivity",
    "format_table",
    "SimulationReport",
    "StageTrace",
    "simulate_stream",
    "pct_str",
    "ratio_str",
]

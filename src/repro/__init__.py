"""repro — layer-based pre-implemented flow for mapping CNNs on FPGA.

A full-stack Python reproduction of Tchuinkou Kwadjo et al., "Exploring a
Layer-based Pre-implemented Flow for Mapping CNN on FPGA" (IPPS 2021):
an UltraScale-like fabric model, netlist/checkpoint infrastructure, a
vendor-tool-style place/route/STA/power backend, and the paper's
RapidWright-style pre-implemented component flow on top.

Quickstart::

    from repro import Device, lenet5, PreImplementedFlow, VivadoFlow

    device = Device.from_name("ku5p-like")
    baseline = VivadoFlow(device).run(lenet5())
    ours = PreImplementedFlow(device).run(lenet5())
    print(baseline.fmax_mhz, "->", ours.fmax_mhz)
"""

import importlib

__version__ = "1.0.0"

#: Home subpackage of every name ``repro`` exports.  Nothing is imported
#: until a name is first used (PEP 562), so ``import repro`` — and with it
#: every ``python -m repro`` start — pays only for what the command at
#: hand touches; ``from repro import Device`` works as ever.
_HOME_OF = {name: home for home, names in {
    "engine": ("Engine",),
    "fabric": ("Device", "PBlock", "RoutingGraph", "TileType", "auto_pblock", "get_part"),
    "netlist": ("Cell", "Design", "DesignError", "Net", "Port",
                "load_checkpoint", "save_checkpoint"),
    "cnn": ("DFG", "group_components", "lenet5", "lenet5_caffe", "vgg16",
            "parse_architecture"),
    "synth": ("gen_conv", "gen_fc", "gen_pool", "gen_relu", "gen_pe_array",
              "synthesize_network"),
    "place": ("place_design",),
    "route": ("Router",),
    "timing": ("IncrementalSta", "analyze", "analyze_reference", "pipeline_to_target"),
    "power": ("estimate_power",),
    "vivado": ("FlowResult", "VivadoFlow"),
    "rapidwright": ("ComponentDatabase", "PreImplementedFlow", "preimplement", "relocate"),
    "drc": ("DrcError", "DrcReport", "Severity", "WaiverSet", "run_drc"),
    "spec": ("JobSpec",),
    "serve": ("ServeClient", "ServeServer", "TenantQuota"),
    "analysis": ("compare_productivity", "simulate_stream"),
}.items() for name in names}


def __getattr__(name: str):
    """Resolve an exported name, or a submodule, on first use."""
    home = _HOME_OF.get(name)
    if home is None and name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    submodule = f"{__name__}.{home or name}"
    try:
        module = importlib.import_module(submodule)
    except ModuleNotFoundError as exc:
        if exc.name != submodule:
            raise  # a dependency of the submodule is missing, not the name
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = module if home is None else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = [*_HOME_OF, "__version__"]

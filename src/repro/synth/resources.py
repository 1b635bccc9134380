"""Resource and parallelism models for the component generators.

"Synthesis" here maps a layer specification to a cluster-level netlist.
The budgets below decide how many LUTs/FFs/DSPs/BRAMs a component uses;
they are calibrated so the stock networks land near the paper's Table II
utilization (LeNet ~32 k LUTs / 144 DSP / 463 BRAM with ROM weights;
VGG-16 ~283 k LUTs / ~216 k FFs / ~2.1 k DSP / 854 BRAM with off-chip
weights).

Two engine styles exist, mirroring the paper's two architectures:

* **rom** (LeNet): weights hardcoded in BRAM ROMs, modest parallelism;
* **stream** (VGG): coefficients staged from off-chip memory through
  double buffers, wide parallelism.

All calibration constants live in :data:`CAL` so calibration is one edit;
the data word is :data:`repro.netlist.net.WORD_BITS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

from ..netlist.net import WORD_BITS

__all__ = [
    "CAL",
    "Parallelism",
    "conv_parallelism",
    "fc_parallelism",
    "ConvBudget",
    "PoolBudget",
    "FcBudget",
    "conv_resources",
    "pool_resources",
    "relu_resources",
    "fc_resources",
    "memctrl_resources",
    "slices_for",
    "addr_bits_for",
]

#: Calibration constants (see module docstring).
CAL = {
    # conv engine parallelism caps per style
    "conv_pf_cap_rom": 8,
    "conv_pf_cap_stream": 24,
    # per-MAC logic
    "lut_per_mac": 36,        # control/pre-add logic per DSP MAC
    "stage_lut_per_mac": 48,  # weight double-buffer mux (stream style only)
    "ff_per_mac": 12,         # pipeline registers per MAC
    "lut_base": 220,          # FSM + handshake per engine
    "out_reg_ff_per_filter": 16,
    "in_reg_ff_per_cin": 8,
    # line buffers: SRL LUTs when small, BRAM when wide
    "lb_lut_div": 2,          # pixels per SRL LUT
    "lb_bram_threshold_bits": 16384,
    "lb_ctl_lut": 100,
    # fully connected engine
    "fc_pu_cap": 16,
    "lut_per_fc_mac": 42,
    "fc_lut_base": 200,
    "fc_addr_lut_div": 4,
    # pooling
    "pool_lut_base": 100,
    "lut_per_comparator": 8,
    # relu
    "relu_lut_per_ch": 4,
    # memory controller (paper Fig. 5 source/sink interface)
    "memctrl_lut": 600,
    "memctrl_ff": 300,
    "memctrl_dsp": 2,
    # storage
    "bram_bits": 36 * 1024,
    "rom_overhead": 2.3,      # port-width/packing inefficiency (Table II)
    "rom_decode_lut_div": 36,
    "stage_words_per_mac": 512,
    # slice packing
    "packing_eff": 1.0,
}


@dataclass(frozen=True)
class Parallelism:
    """Compute-engine unrolling factors; DSP count = ``macs_per_cycle``."""

    pf: int   # output-channel (filter/unit) parallelism
    pk: int   # per-filter MAC parallelism (kernel taps)

    @property
    def macs_per_cycle(self) -> int:
        return self.pf * self.pk


def conv_parallelism(filters: int, kernel: int, rom_weights: bool = True) -> Parallelism:
    """One 1-D systolic MAC column per parallel filter.

    ROM-style engines (LeNet) keep parallelism modest — the paper's LeNet
    uses 144 DSPs total — while streamed engines (VGG) unroll up to 48
    filters."""
    cap = CAL["conv_pf_cap_rom"] if rom_weights else CAL["conv_pf_cap_stream"]
    return Parallelism(pf=min(filters, cap), pk=kernel)


def fc_parallelism(units: int) -> Parallelism:
    """FC is a conv with kernel == input size (paper Sec. V-B1); units are
    processed ``fc_pu_cap`` at a time."""
    return Parallelism(pf=min(units, CAL["fc_pu_cap"]), pk=1)


def slices_for(luts: int, ffs: int) -> int:
    """Slices needed for *luts*/*ffs* at the calibrated packing efficiency."""
    if luts <= 0 and ffs <= 0:
        return 0
    eff = CAL["packing_eff"]
    return max(1, ceil(max(luts / 8.0, ffs / 16.0) / eff))


def addr_bits_for(n_words: int) -> int:
    """Address width needed for *n_words* memory words."""
    return max(1, ceil(log2(max(2, n_words))))


def _brams_for_bits(bits: float) -> int:
    return max(0, ceil(bits / CAL["bram_bits"]))


def _line_buffer(cin: int, taps: int, width: int) -> tuple[int, int]:
    """(LUTs, BRAMs) for a ``cin x taps x width`` pixel line buffer.

    Narrow buffers pack into SRL LUTs; wide ones (VGG's 512-channel rows)
    spill into BRAM with a small addressing controller."""
    bits = cin * taps * width * WORD_BITS
    if bits <= CAL["lb_bram_threshold_bits"]:
        return ceil(cin * taps * width / CAL["lb_lut_div"]), 0
    return CAL["lb_ctl_lut"] + cin // 4, _brams_for_bits(bits)


def _rom(n_weights: int) -> tuple[int, int]:
    """(decode LUTs, BRAMs) for hardcoded ROM weights."""
    if n_weights <= 0:
        return 0, 0
    bits = n_weights * WORD_BITS * CAL["rom_overhead"]
    return ceil(n_weights / CAL["rom_decode_lut_div"]), _brams_for_bits(bits)


@dataclass(frozen=True)
class ConvBudget:
    """Resolved resource budget for one conv engine."""

    par: Parallelism
    comb_terms: int
    lut_mac: int
    lut_lb: int
    lut_weights: int
    lut_base: int
    ff_mac: int
    ff_out: int
    ff_in: int
    bram_lb: int
    bram_weights: int
    bram_obuf: int

    @property
    def lut(self) -> int:
        return self.lut_mac + self.lut_lb + self.lut_weights + self.lut_base

    @property
    def ff(self) -> int:
        return self.ff_mac + self.ff_out + self.ff_in

    @property
    def bram(self) -> int:
        return self.bram_lb + self.bram_weights + self.bram_obuf

    @property
    def dsp(self) -> int:
        return self.par.macs_per_cycle

    def totals(self) -> dict[str, int]:
        return {"LUT": self.lut, "FF": self.ff, "DSP48E2": self.dsp, "RAMB36": self.bram}


def conv_resources(
    cin: int,
    width: int,
    kernel: int,
    filters: int,
    n_weights: int,
    rom_weights: bool,
    out_width: int | None = None,
) -> ConvBudget:
    """Budget for a systolic conv engine (paper Fig. 4a/4b)."""
    par = conv_parallelism(filters, kernel, rom_weights)
    macs = par.macs_per_cycle
    lb_lut, lb_bram = _line_buffer(cin, kernel - 1, width)
    if rom_weights:
        w_lut, w_bram = _rom(n_weights)
        lut_mac = CAL["lut_per_mac"] * macs
    else:
        w_bram = _brams_for_bits(macs * WORD_BITS * CAL["stage_words_per_mac"])
        w_lut = 0
        lut_mac = (CAL["lut_per_mac"] + CAL["stage_lut_per_mac"]) * macs
    ow = out_width if out_width is not None else max(1, width - kernel + 1)
    obuf = _brams_for_bits(filters * ow * WORD_BITS * 2)
    return ConvBudget(
        par=par,
        comb_terms=max(2, ceil(cin * kernel * kernel / max(par.pk, 1))),
        lut_mac=lut_mac,
        lut_lb=lb_lut,
        lut_weights=w_lut,
        lut_base=CAL["lut_base"],
        ff_mac=CAL["ff_per_mac"] * macs,
        ff_out=CAL["out_reg_ff_per_filter"] * filters,
        ff_in=CAL["in_reg_ff_per_cin"] * cin,
        bram_lb=lb_bram,
        bram_weights=max(1, w_bram),
        bram_obuf=obuf,
    )


@dataclass(frozen=True)
class PoolBudget:
    """Resolved resource budget for one max-pool engine."""

    lut_cmp: int
    lut_lb: int
    lut_base: int
    ff: int
    bram_lb: int

    @property
    def lut(self) -> int:
        return self.lut_cmp + self.lut_lb + self.lut_base

    def totals(self) -> dict[str, int]:
        return {"LUT": self.lut, "FF": self.ff, "DSP48E2": 0, "RAMB36": self.bram_lb}


def pool_resources(channels: int, size: int, width: int) -> PoolBudget:
    """Budget for a comparator-tree max-pool engine (paper Fig. 4c)."""
    lb_lut, lb_bram = _line_buffer(channels, size - 1, width)
    return PoolBudget(
        lut_cmp=CAL["lut_per_comparator"] * channels * (size * size - 1),
        lut_lb=lb_lut,
        lut_base=CAL["pool_lut_base"],
        ff=channels * WORD_BITS,
        bram_lb=lb_bram,
    )


def relu_resources(channels: int) -> dict[str, int]:
    """ReLU is a sign mux per streamed channel."""
    return {
        "LUT": max(8, CAL["relu_lut_per_ch"] * channels),
        "FF": channels * 2,
        "DSP48E2": 0,
        "RAMB36": 0,
    }


@dataclass(frozen=True)
class FcBudget:
    """Resolved resource budget for one fully-connected engine."""

    par: Parallelism
    lut_mac: int
    lut_addr: int
    lut_weights: int
    lut_base: int
    ff: int
    bram_weights: int

    @property
    def lut(self) -> int:
        return self.lut_mac + self.lut_addr + self.lut_weights + self.lut_base

    @property
    def dsp(self) -> int:
        return self.par.macs_per_cycle

    def totals(self) -> dict[str, int]:
        return {"LUT": self.lut, "FF": self.ff, "DSP48E2": self.dsp,
                "RAMB36": self.bram_weights}


def fc_resources(in_features: int, units: int, n_weights: int, rom_weights: bool) -> FcBudget:
    """Budget for a fully-connected engine."""
    par = fc_parallelism(units)
    macs = par.macs_per_cycle
    if rom_weights:
        w_lut, w_bram = _rom(n_weights)
        lut_mac = CAL["lut_per_fc_mac"] * macs
    else:
        w_bram = _brams_for_bits(macs * WORD_BITS * CAL["stage_words_per_mac"])
        w_lut = 0
        lut_mac = (CAL["lut_per_fc_mac"] + CAL["stage_lut_per_mac"]) * macs
    return FcBudget(
        par=par,
        lut_mac=lut_mac,
        lut_addr=ceil(in_features / CAL["fc_addr_lut_div"]),
        lut_weights=w_lut,
        lut_base=CAL["fc_lut_base"],
        ff=CAL["ff_per_mac"] * macs + units * 2,
        bram_weights=max(1, w_bram),
    )


def memctrl_resources(addr_bits: int = 20) -> dict[str, int]:
    """Source/sink memory controller (paper Fig. 5)."""
    lut = CAL["memctrl_lut"] + 8 * max(0, addr_bits - 16)
    return {
        "LUT": lut,
        "FF": CAL["memctrl_ff"],
        "DSP48E2": CAL["memctrl_dsp"],
        "RAMB36": 1,  # staging FIFO
    }

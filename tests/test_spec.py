"""One flow definition: every front end compiles a ``JobSpec`` the same way.

The CLI translates its arguments into a :class:`~repro.spec.JobSpec`, the
compile service receives one, and both run it through
:func:`~repro.spec.compile_spec` (and an ECO through
:func:`repro.eco.run_eco`) — so the two report the same numbers for the
same build.  A spec's content key addresses the service's cached
results, so its bytes are pinned here.
"""

from __future__ import annotations

import io
import re

import pytest

from repro.cli import main
from repro.serve.runner import run_job
from repro.spec import JobSpec

#: ``content_key()`` of two fixed specs: serve's cached results are stored
#: under these, so a change to the spec's canonical form must be deliberate.
PINNED_KEYS = [
    (dict(model="lenet5", part="small", effort="low"),
     "8f44847956ce6b42a2644139dfc119aa2565551b9a5d2fd170378208f0b9c283"),
    (dict(model="vgg16", flow="baseline", granularity="block", stream_weights=True,
          pipeline=250.0, effort="medium", seed=7, drc="warn", tenant="t", tags={"x": 1}),
     "9729dc20a48b40d9155b8a2f6b2c901b2c6e6a2c96dccf4696170855a2147aba"),
]


@pytest.mark.parametrize(("fields", "key"), PINNED_KEYS)
def test_content_key_is_pinned(fields, key):
    spec = JobSpec(**fields)
    assert spec.content_key() == key
    assert JobSpec.from_json(spec.to_json()).content_key() == key


def _cli(argv) -> str:
    out = io.StringIO()
    assert main(argv, out=out) == 0, out.getvalue()
    return out.getvalue()


def test_cli_run_and_serve_job_report_the_same_fmax():
    # ``repro run`` builds the library at high effort, the spec's default.
    text = _cli(["run", "--model", "lenet5", "--part", "small", "--flow", "preimpl"])
    row = re.search(r"^preimpl\s+([0-9.]+) MHz", text, re.MULTILINE)
    doc, _ = run_job(JobSpec(model="lenet5", part="small"))
    assert row is not None, text
    assert row.group(1) == f"{doc['fmax_mhz']:.1f}"


def test_cli_eco_and_serve_eco_job_report_the_same_edit():
    text = _cli(["eco", "--model", "lenet5", "--part", "small", "--effort", "low",
                 "--swap-layer", "conv2", "--verify"])
    line = re.search(r"^ECO \S+: (\d+) net\(s\) ripped, (\d+) rerouted .* fmax ([0-9.]+) MHz$",
                     text, re.MULTILINE)
    doc, _ = run_job(JobSpec(model="lenet5", part="small", effort="low",
                             eco={"swap_layer": "conv2", "verify": True}))
    eco = doc["eco"]
    assert line is not None, text
    assert "bit-identical" in text and eco["oracle"] == "bit-identical"
    assert (int(line.group(1)), int(line.group(2))) == (eco["ripped"], eco["rerouted"])
    assert line.group(3) == f"{eco['fmax_after_mhz']:.1f}"


def test_a_library_answered_run_is_the_fresh_run(tmp_path):
    """``compile_spec(library=)``: a LeNet run whose components all come from
    the library re-implements nothing and stitches the same bytes."""
    from repro.netlist import encode_design
    from repro.spec import compile_spec

    spec = JobSpec(model="lenet5", part="small", effort="low")
    fresh = compile_spec(spec, jobs=1, library=tmp_path / "lib")
    warm = compile_spec(spec, jobs=1, library=tmp_path / "lib")
    assert fresh.extras["offline_s"] > 0.0 and warm.extras["offline_s"] == 0.0
    assert encode_design(warm.design) == encode_design(fresh.design)

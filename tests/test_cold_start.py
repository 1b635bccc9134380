"""What a cold ``python -m repro`` process pays before it does any work.

* the import budget — which modules a bare ``import repro.cli`` and each
  light subcommand may load (checked on ``sys.modules`` in a subprocess:
  deterministic, no timing);
* the lazy package namespace still resolves everything it exported;
* a primed native-core cache serves machines that have no C compiler.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import _native

SRC = str(Path(repro.__file__).resolve().parents[1])


def _loaded_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running *code*."""
    done = subprocess.run(
        [sys.executable, "-c",
         f"{code}\nimport sys, json\nprint(json.dumps(sorted(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


#: Never needed to parse arguments or to run a flow from the CLI.
HEAVY = ("scipy", "asyncio", "http.client", "hypothesis",
         "repro.serve", "repro.lint", "repro.eco", "repro.profiling")
#: The implementation back end; ``models``/``info``/``--help`` stay clear of it.
BACKEND = ("repro.route", "repro.place", "repro.timing", "repro.rapidwright",
           "repro.vivado", "repro.engine")


def test_import_repro_cli_stays_within_budget():
    loaded = _loaded_after("import repro.cli")
    assert not [m for m in HEAVY + BACKEND if m in loaded]


@pytest.mark.parametrize("argv", [["models"], ["info", "--part", "small"], ["--help"]])
def test_light_subcommands_never_load_the_backend(argv):
    loaded = _loaded_after(
        "import io, repro.cli\n"
        "try:\n"
        f"    repro.cli.main({argv!r}, out=io.StringIO())\n"
        "except SystemExit:\n"  # --help exits after printing
        "    pass"
    )
    assert not [m for m in HEAVY + BACKEND if m in loaded]


def test_run_loads_no_service_linter_or_eco_code():
    loaded = _loaded_after(
        "import io, repro.cli\n"
        "repro.cli.main(['run', '--model', 'lenet5', '--part', 'small',"
        " '--flow', 'preimpl'], out=io.StringIO())"
    )
    assert not [m for m in HEAVY if m in loaded]
    assert "repro.rapidwright.flow" in loaded


def test_lazy_namespace_resolves_every_export():
    loaded = _loaded_after(
        "import repro\n"
        "assert repro.serve.ServeClient.__name__ == 'ServeClient'\n"
        "from repro import place_design, sanitize\n"
        "assert place_design is repro.place.placer.place_design\n"
        "assert all(getattr(repro, name) is not None for name in repro.__all__)\n"
        "assert set(repro.__all__) <= set(dir(repro))"
    )
    assert "repro.serve.client" in loaded
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        repro.no_such_name
    with pytest.raises(ImportError):
        from repro import no_such_name  # noqa: F401


def test_import_repro_alone_loads_no_subpackage():
    loaded = _loaded_after("import repro")
    assert [m for m in loaded if m.startswith("repro")] == ["repro"]
    assert "numpy" not in loaded


# -- native-core cache ---------------------------------------------------------


C_SOURCE = "long long answer(void) { return 42; }\n"


@pytest.mark.skipif(
    not (shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")),
    reason="priming the cache needs a C compiler",
)
def test_primed_cache_serves_a_machine_without_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    source = tmp_path / "core.c"
    source.write_text(C_SOURCE)
    assert _native.build_library(source, "probe").answer() == 42  # primes the cache
    cached = list(_native.cache_dir().glob("probe-*.so"))
    assert len(cached) == 1

    monkeypatch.setenv("PATH", "")  # no cc, gcc or clang to be found
    assert shutil.which("cc") is None
    lib = _native.build_library(source, "probe")
    assert lib is not None and lib.answer() == 42

    # a cache miss without a compiler still degrades to "unavailable"
    other = tmp_path / "other.c"
    other.write_text(C_SOURCE + "/* different hash */\n")
    assert _native.build_library(other, "probe") is None
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert _native.build_library(source, "probe") is None

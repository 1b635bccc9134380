"""What a cold ``python -m repro`` process pays before it does any work.

* the import budget — which modules a bare ``import repro.cli`` and each
  light subcommand may load (checked on ``sys.modules`` in a subprocess:
  deterministic, no timing);
* the lazy package namespace still resolves everything it exported;
* a primed native-core cache serves machines that have no C compiler;
* a core that was wanted and cannot load says so — one ``RuntimeWarning``
  per core per process, naming the core and the reason — while
  ``REPRO_NATIVE=0`` and a primed cache stay silent.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
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
         "repro.serve", "repro.lint", "repro.eco")
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
    assert "repro.spec" in loaded  # run compiles a JobSpec, like every front end


#: Every ``repro`` module ``import repro.drc`` may load: the netlist and
#: fabric its rules check, the trace hooks of its sweep, and the checker
#: core it shares with lint — never the table renderer in ``repro.analysis``.
DRC_IMPORTS = {
    "repro", "repro.drc", "repro.drc.engine", "repro.drc.rules_builtin",
    "repro.drc.rules_db", "repro.drc.rules_eco", "repro.drc.rules_netlist",
    "repro.drc.rules_place", "repro.drc.rules_route", "repro.reporting",
    "repro.fabric", "repro.fabric.device", "repro.fabric.interconnect",
    "repro.fabric.parts", "repro.fabric.pblock",
    "repro.netlist", "repro.netlist.block", "repro.netlist.cell",
    "repro.netlist.checkpoint", "repro.netlist.codec", "repro.netlist.design",
    "repro.netlist.library", "repro.netlist.net",
    "repro.obs", "repro.obs.collect", "repro.obs.metrics", "repro.obs.report",
    "repro.obs.sinks", "repro.obs.span", "repro.sanitize",
}


def test_import_repro_lint_loads_no_design_stack():
    """The linter reads source files: none of the netlist, the fabric,
    the DRC rules or numpy has any business in its process."""
    loaded = _loaded_after("import repro.lint")
    design_stack = ("repro.netlist", "repro.fabric", "repro.drc", "numpy")
    assert not [m for m in loaded if m.split(".")[0] == "numpy"
                or any(m == p or m.startswith(p + ".") for p in design_stack)]
    assert "repro.reporting" in loaded


def test_import_repro_drc_loads_only_its_own_stack():
    loaded = {m for m in _loaded_after("import repro.drc") if m.split(".")[0] == "repro"}
    assert loaded <= DRC_IMPORTS, sorted(loaded - DRC_IMPORTS)


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


def test_star_import_binds_every_lazy_export():
    namespace = {}
    exec("from repro import *", namespace)
    for name in ("JobSpec", "ServeClient", "ServeServer", "TenantQuota"):
        assert name in dir(repro)
        assert namespace[name] is getattr(repro, name)
    assert set(repro.__all__) == {*repro._HOME_OF, "__version__"}


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a primed cache loads silently
        lib = _native.build_library(source, "probe")
    assert lib is not None and lib.answer() == 42

    # a cache miss without a compiler still degrades to "unavailable", loudly
    other = tmp_path / "other.c"
    other.write_text(C_SOURCE + "/* different hash */\n")
    with pytest.warns(RuntimeWarning, match="'probe' unavailable .no C compiler and no cached"):
        assert _native.build_library(other, "probe") is None
    monkeypatch.setenv("REPRO_NATIVE", "0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # asked for: silent
        assert _native.build_library(source, "probe") is None


@pytest.mark.skipif(
    not (shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")),
    reason="needs a C compiler to fail",
)
def test_failed_build_and_failed_load_name_their_reason(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    broken = tmp_path / "broken.c"
    broken.write_text("long long answer(void) { return no_such_symbol; }\n")
    with pytest.warns(RuntimeWarning, match="'probe' unavailable .compile failed: .+"):
        assert _native.build_library(broken, "probe") is None
    assert not list(_native.cache_dir().glob("*.so"))  # nothing half-built is cached

    source = tmp_path / "core.c"
    source.write_text(C_SOURCE)
    tag = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    (_native.cache_dir() / f"probe-{tag}.so").write_bytes(b"not a shared object")
    with pytest.warns(RuntimeWarning, match="'probe' unavailable .dlopen failed"):
        assert _native.build_library(source, "probe") is None


_PROBE_CORES = (
    "from repro.place import native as p\n"
    "from repro.route import native as r\n"
    "print(*[p.native_available(), r.native_available()] * 2)"  # asked twice each
)


@pytest.mark.parametrize("disabled", [False, True])
def test_unloadable_cores_warn_once_each_unless_disabled(tmp_path, disabled):
    """No compiler on ``PATH`` and nothing cached: each core reports itself
    once per process however often it is asked for (``-W always`` rules out
    the warning filter doing the deduplication); ``REPRO_NATIVE=0`` asked
    for the reference implementations and gets them silently."""
    env = {**os.environ, "PYTHONPATH": SRC, "PATH": "",
           "XDG_CACHE_HOME": str(tmp_path), "REPRO_NATIVE": "0" if disabled else "1"}
    done = subprocess.run(
        [sys.executable, "-W", "always", "-c", _PROBE_CORES],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"] * 4
    warned = [line for line in done.stderr.splitlines() if "RuntimeWarning" in line]
    if disabled:
        assert not warned
    else:
        assert len(warned) == 2, done.stderr
        assert sum("'anneal_core' unavailable" in line for line in warned) == 1
        assert sum("'route_core' unavailable" in line for line in warned) == 1
        assert all("reference implementation will run" in line for line in warned)


@pytest.mark.parametrize("preset", [None, "2"])
def test_the_cli_caps_the_blas_pool_unless_the_user_set_it(preset):
    """No repro path calls BLAS: entering through the CLI caps OpenBLAS's
    pool at one thread before numpy is first imported, and keeps a value
    the user set."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; assert 'numpy' not in sys.modules\n"
         "import repro.cli, os; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env={**env, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [preset or "1"]

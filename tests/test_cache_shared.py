"""The shared component library: concurrent writers, corrupt files, layout.

Every build of every process that opens one directory — the CLI's
``--database-dir``, every worker of every serve process on one data dir —
reads and writes the same ``<build key>.dcpb`` files.  So the directory
must survive writers racing on one key, readers meeting torn, garbage or
misnamed files, and builds killed between a rejected read and its
rebuild.  These tests drive those paths directly, including a real
multi-process run.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from pathlib import Path

import pytest

from repro.cnn import group_components, lenet5
from repro.engine import workers
from repro.engine.cache import write_atomic
from repro.engine.executor import TaskError
from repro.fabric import Device
from repro.netlist import DesignImage
from repro.obs import Tracer
from repro.rapidwright import ComponentDatabase
from repro.rapidwright.database import build_cache_key
from tests.conftest import make_tiny_cnn

OPTIONS = dict(rom_weights=True, effort="low", seed=0)
LOW = dict(OPTIONS, jobs=1)


def _lenet_components():
    return list({c.signature: c for c in group_components(lenet5(), "layer")}.values())


def _stress_worker(directory: str, start: int, rounds: int) -> None:
    """One spawned process: build an overlapping slice of LeNet's components
    into the shared library, *rounds* times from an empty database."""
    picked = _lenet_components()[start:start + 4]
    device = Device.from_name("small")
    for _ in range(rounds):
        ComponentDatabase(device, directory=Path(directory)).build(picked, **LOW)


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _counts(run) -> dict:
    tracer = Tracer()
    with tracer.activate():
        run()
    return {name: tracer.metrics.counter(f"library.{name}").value
            for name in ("hit", "rejected")}


@pytest.fixture(scope="module")
def comp():
    return group_components(make_tiny_cnn(), "layer")[0]


class TestSharedStress:
    def test_multiprocess_put_get_overlapping_keys(self, tmp_path, small_device):
        directory = tmp_path / "farm-library"
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(3) as pool:  # more writers than the CI runners' two cores
            pool.starmap_async(
                _stress_worker, [(str(directory), start, 3) for start in (0, 1, 2)]
            ).get(timeout=300)
        # No half-written temp files survive the race.
        assert list(directory.glob("*.tmp")) == list(directory.glob(".*")) == []
        serial = tmp_path / "serial"
        ComponentDatabase(small_device, directory=serial).build(_lenet_components(), **LOW)
        assert _files(directory) == _files(serial)
        for blob in _files(directory).values():
            DesignImage.from_bytes(blob)

    def test_concurrent_same_key_threads(self, tmp_path, small_device, comp):
        """Threads writing one key while others read it: every read is a hit."""
        built = ComponentDatabase(small_device)
        built.build([comp], **LOW)
        (record,) = built.records.values()
        lib = tmp_path / "lib"
        errors = []

        def hammer():
            try:
                for _ in range(10):
                    db = ComponentDatabase(small_device, directory=lib)
                    db._ingest(comp.signature, record.image, record.build_key)
                    if not ComponentDatabase(small_device, directory=lib)._load(
                            comp.signature, record.build_key):
                        errors.append("rejected")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert _files(lib) == {f"{record.build_key}.dcpb": record.image.to_bytes()}


class TestCorruptBlobs:
    def _library(self, tmp_path, device, comp):
        lib = tmp_path / "lib"
        ComponentDatabase(device, directory=lib).build([comp], **LOW)
        (path,) = lib.iterdir()
        return lib, path, path.read_bytes()

    @pytest.mark.parametrize("garbage", [b"", b"not gzip at all", b"\x1f\x8b\x08trunc"])
    def test_corrupt_blob_is_a_miss(self, tmp_path, small_device, comp, garbage):
        lib, path, good = self._library(tmp_path, small_device, comp)
        path.write_bytes(garbage)
        with pytest.warns(RuntimeWarning, match=f"library file rejected: .*{path.name}"):
            counts = _counts(lambda: ComponentDatabase(small_device, directory=lib).build(
                [comp], **LOW))
        assert counts == {"hit": 0, "rejected": 1}
        assert path.read_bytes() == good

    def test_shared_mode_leaves_corrupt_blob_alone(self, tmp_path, small_device, comp,
                                                   monkeypatch):
        """A rejected file is never unlinked: it stays until a finished
        rebuild replaces it, so a killed rebuild costs nothing more."""
        lib, path, good = self._library(tmp_path, small_device, comp)
        path.write_bytes(b"garbage")

        def killed(*args, **kwargs):
            raise RuntimeError("killed mid-build")

        monkeypatch.setattr(workers, "build_component", killed)
        with pytest.warns(RuntimeWarning), pytest.raises(TaskError):
            ComponentDatabase(small_device, directory=lib).build([comp], **LOW)
        assert path.read_bytes() == b"garbage"
        monkeypatch.undo()
        with pytest.warns(RuntimeWarning):
            ComponentDatabase(small_device, directory=lib).build([comp], **LOW)
        assert path.read_bytes() == good
        assert _counts(lambda: ComponentDatabase(small_device, directory=lib).build(
            [comp], **LOW)) == {"hit": 1, "rejected": 0}

    @pytest.mark.parametrize("stranger", ["other_component", "other_options"])
    def test_file_that_disagrees_with_its_name_is_rebuilt(self, tmp_path, small_device,
                                                          stranger):
        """A well-formed image under the wrong name — another component's,
        or this component's from a build with other options — is rejected."""
        first, second = group_components(make_tiny_cnn(), "layer")[:2]
        lib = tmp_path / "lib"
        ComponentDatabase(small_device, directory=lib).build([first, second], **LOW)
        path = lib / f"{build_cache_key(first, small_device, **OPTIONS)}.dcpb"
        good = path.read_bytes()
        if stranger == "other_component":
            foreign = lib / f"{build_cache_key(second, small_device, **OPTIONS)}.dcpb"
            path.write_bytes(foreign.read_bytes())
        else:
            other = ComponentDatabase(small_device)
            other.build([first], **dict(LOW, seed=1))
            path.write_bytes(next(iter(other.records.values())).image.to_bytes())
        with pytest.warns(RuntimeWarning, match="disagrees with its name"):
            counts = _counts(lambda: ComponentDatabase(small_device, directory=lib).build(
                [first, second], **LOW))
        assert counts == {"hit": 1, "rejected": 1}
        assert path.read_bytes() == good


class TestLayout:
    def test_flat_file_is_not_an_entry(self, tmp_path, small_device, comp):
        """One location per key: the same bytes anywhere else are a miss,
        uncounted and untouched."""
        lib = tmp_path / "lib"
        ComponentDatabase(small_device, directory=lib).build([comp], **LOW)
        (path,) = lib.iterdir()
        (lib / "sub").mkdir()
        moved = path.rename(lib / "sub" / path.name)
        counts = _counts(lambda: ComponentDatabase(small_device, directory=lib).build(
            [comp], **LOW))
        assert counts == {"hit": 0, "rejected": 0}
        assert moved.exists() and path.read_bytes() == moved.read_bytes()

    def test_put_failure_leaves_no_temp_files(self, tmp_path):
        with pytest.raises(TypeError):
            write_atomic(tmp_path / "entry.dcpb", {"not": "bytes"})
        assert list(tmp_path.iterdir()) == []

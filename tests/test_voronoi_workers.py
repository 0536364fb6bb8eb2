"""The 2D Voronoi build in forked workers against the in-process build.

From `PARALLEL_MIN_SITES` sites on, `build_voronoi_mesh` clips the cells
in forked workers, one per allowed CPU.  The mesh must be byte for byte
the one-CPU build, a degenerate cell must be named as in site order, and
a failing worker must reach the caller.  Builds that could hang run in a
subprocess under a timeout.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import gradflow as gf
from gradflow.experiments import _jittered_sites
from gradflow.mesh import PARALLEL_MIN_SITES, MeshError

SRC = str(Path(gf.__file__).resolve().parent.parent)
UNIT_SQUARE = gf.Domain.rectangle(0.0, 0.0, 1.0, 1.0)
pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _run(code: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def forks(monkeypatch):
    """Two allowed CPUs, whatever the machine has, and a count of os.fork
    calls made by this process."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return calls


def _degenerate_sites(*pairs):
    """100 jittered sites; each pair (i, x) puts site i 1e-12 below the
    bottom edge at x and site i + 1 2e-12 above it, so that cell i is a
    strip 5e-13 high, which the vertex merge collapses."""
    sites = _jittered_sites(10, 0.35, 42).copy()
    for i, x in pairs:
        sites[i] = (x, -1e-12)
        sites[i + 1] = (x, 2e-12)
    return sites


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_one_cpu_build_writes_the_same_bytes(tmp_path):
    sites = _jittered_sites(14, 0.35, 42)
    assert len(sites) >= PARALLEL_MIN_SITES
    gf.build_voronoi_mesh(sites, UNIT_SQUARE).write(tmp_path / "default.txt")
    done = _run(f"""
        import os
        import gradflow as gf
        from gradflow.experiments import _jittered_sites
        os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
        def fork():
            raise AssertionError("a one-CPU build forked")
        os.fork = fork
        gf.build_voronoi_mesh(_jittered_sites(14, 0.35, 42),
                              gf.Domain.rectangle(0.0, 0.0, 1.0, 1.0)).write(
            {str(tmp_path / "one-cpu.txt")!r})
    """)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "one-cpu.txt").read_bytes() == \
        (tmp_path / "default.txt").read_bytes()


@pytest.mark.parametrize("count, workers", [(PARALLEL_MIN_SITES - 1, 0),
                                           (PARALLEL_MIN_SITES, 2)])
def test_workers_start_at_the_threshold(forks, count, workers):
    gf.build_voronoi_mesh(np.random.default_rng(5).random((count, 2)), UNIT_SQUARE)
    assert len(forks) == workers


def test_serial_build_imports_no_multiprocessing():
    done = _run("""
        import sys
        import gradflow as gf
        from gradflow.experiments import _jittered_sites
        gf.build_voronoi_mesh(_jittered_sites(7, 0.35, 42),
                              gf.Domain.rectangle(0.0, 0.0, 1.0, 1.0))
        print("multiprocessing" in sys.modules)
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


@pytest.mark.parametrize("pairs, site", [(((71, 0.3), (80, 0.7)), 71),
                                         (((80, 0.7),), 80)])
def test_degenerate_cell_named_in_site_order(forks, monkeypatch, pairs, site):
    # with two workers, site 71 is clipped by the second and 80 by the first
    sites = _degenerate_sites(*pairs)
    message = f"site {site} produced a degenerate Voronoi cell"
    with pytest.raises(MeshError, match=message):
        gf.build_voronoi_mesh(sites, UNIT_SQUARE)
    assert len(forks) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(MeshError, match=message):
        gf.build_voronoi_mesh(sites, UNIT_SQUARE)


@pytest.mark.parametrize("failure, caught", [
    ("raise RuntimeError('clip failed at site 70')", "RuntimeError: clip failed at site 70"),
    ("os._exit(3)", "BrokenProcessPool: "),
])
def test_failing_worker_reaches_the_caller(failure, caught):
    done = _run(f"""
        import os
        import gradflow as gf
        from gradflow import mesh as meshes
        from gradflow.experiments import _jittered_sites
        os.sched_getaffinity = lambda pid: {{0, 1}}
        forks, real_fork = [], os.fork
        os.fork = lambda: forks.append(1) or real_fork()
        clip = meshes._voronoi_cell
        def failing(pts, i, *args):
            if i == 70:
                {failure}
            return clip(pts, i, *args)
        meshes._voronoi_cell = failing
        try:
            gf.build_voronoi_mesh(_jittered_sites(10, 0.35, 42),
                                  gf.Domain.rectangle(0.0, 0.0, 1.0, 1.0))
        except Exception as exc:
            print(f"{{len(forks)}} forks")
            print(f"{{type(exc).__name__}}: {{exc}}")
    """, timeout=60.0)
    assert done.returncode == 0, done.stderr
    forks, error = done.stdout.splitlines()
    assert forks == "2 forks"
    assert error.startswith(caught)

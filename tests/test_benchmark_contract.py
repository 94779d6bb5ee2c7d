"""The benchmark's contract with the package.

Each workload of the benchmark (``perfbench/worker.py``) runs one round at
its own sizes through the public API and passes the benchmark's own
output checks, so a change that breaks what the benchmark calls fails
here, not only in the benchmark.  ``perfbench/`` is only read.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import netlms

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


@pytest.fixture(scope="module")
def worker():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # the worker imports its checks by name
        mp.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("workload", ["regret-batch", "long-run", "excitation-audit"])
def test_one_benchmark_round_passes_its_checks(worker, workload, tmp_path):
    make_config = worker.WORKLOADS[workload][0]
    cfg = make_config(netlms, 601)
    result = worker._round(netlms, workload, cfg, tmp_path / "work")
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["attempted"] == worker.WORKLOADS[workload][2]


def test_traced_round_can_wrap_every_public_name():
    """``Tracer.install`` looks up every ``__all__`` name of every netlms
    module and the traced noise methods, so a stale export crashes each
    ``--trace 1`` round; it runs in a child to keep this process unwrapped.
    The channel-noise layer must count channel draws only, so wrapping
    ``ChannelNoise.sample`` must leave ``MeasurementNoise.sample`` alone."""
    code = (
        "import netlms; from tracer import Tracer; Tracer().install(); "
        "from netlms.noise import ChannelNoise, MeasurementNoise; "
        "assert hasattr(ChannelNoise.sample, '__wrapped__'), 'ChannelNoise.sample not wrapped'; "
        "assert not hasattr(MeasurementNoise.sample, '__wrapped__'), 'MeasurementNoise.sample wrapped'"
    )
    path = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(PERFBENCH)!r}]; "
    done = subprocess.run([sys.executable, "-B", "-c", path + code],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

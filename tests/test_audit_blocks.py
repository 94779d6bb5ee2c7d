"""The excitation audit's bytes, its block edges and its working set.

``pe_diagnostic`` evaluates window 0 alone and later windows in blocks.
These tests pin the bytes of ``excitation.json`` for the graph kinds and
window lengths that the blocks are cut for, check that every series of a
short audit is the start of a longer one across the block edges, and
bound how the audit's traced peak grows with the window count.
"""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from netlms.artifacts import excitation_artifact
from netlms.config import GraphConfig, RegressionConfig, get_preset
from netlms.excitation import pe_diagnostic


def _window(cfg, window):
    return dataclasses.replace(cfg, excitation=dataclasses.replace(cfg.excitation, window=window))


def _markov_bernoulli():
    """The regret preset's gains over a two-state markov-switching graph
    and bernoulli-failure regressors (its coef pattern, active with
    probability 0.6)."""
    cfg = get_preset("regret")
    graph = GraphConfig(
        kind="markov-switching",
        states=(((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
                ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0))),
        transition=((0.6, 0.4), (0.3, 0.7)), initial_state=1)
    regression = RegressionConfig(kind="bernoulli-failure", coef=cfg.regression.coef, active_prob=0.6)
    return dataclasses.replace(cfg, graph=graph, regression=regression)


def _fixed_fixed():
    """setting-i's gains over a fixed balanced cycle, each node observing
    its setting-i base matrix at every step."""
    cfg = get_preset("setting-i")
    graph = GraphConfig(kind="fixed", adjacency=((0.0, 0.5, 0.0), (0.0, 0.0, 0.5), (0.5, 0.0, 0.0)))
    return dataclasses.replace(cfg, graph=graph,
                               regression=RegressionConfig(kind="fixed", h_nodes=cfg.regression.base))


# SHA-256 of excitation_artifact(pe_diagnostic(cfg, windows)) at SCHEMA 5
PINS = [
    pytest.param(get_preset("setting-i"), 2000,
                 "19f40e488c8beecb6832989037e58c234a07e1c494d13862fb1ec8d2c9a1c562",
                 id="setting-i-2000"),
    pytest.param(_window(get_preset("setting-i"), 3), 130,
                 "4e65c7262ff3bb151c58db879b77a093ddf10aeb1841e11f053297162b7422da",
                 id="setting-i-window-3-130"),
    pytest.param(_markov_bernoulli(), 130,
                 "546636451e7f3054f2292a0cff296ed46287ada1842c9d1e6b6fa4d7d8009ad0",
                 id="markov-bernoulli-130"),
    pytest.param(_fixed_fixed(), 65,
                 "8df9993b0ad6927e8b9930fe4823e2583b15fd1dc9a9ede548c91124975c8d45",
                 id="fixed-fixed-65"),
    pytest.param(get_preset("regret"), 500,
                 "02b94f133d2131ba3cf74a3a4e79e17d8a413716ecafc9ba1c8cc3ad75b00693",
                 id="regret-500"),
]


@pytest.mark.parametrize("cfg, windows, digest", PINS)
def test_audit_pins_its_bytes(cfg, windows, digest):
    """The audit of every graph kind, of an odd window and of more windows
    than one gain-table segment holds rounds as it always has."""
    text = excitation_artifact(pe_diagnostic(cfg, windows=windows))
    assert hashlib.sha256(text.encode()).hexdigest() == digest, (
        f"excitation.json changed (a numpy upgrade can also move these "
        f"digests, numpy {np.__version__} here)")


def _series(report):
    return {
        "lambda_series": report.lambda_series,
        "gainless_series": report.gainless_series,
        "cumulative": report.cumulative,
        "r_series": report.r_series,
        "jointly_connected": np.array(report.jointly_connected.values),
        "jointly_observable": np.array(report.jointly_observable.values),
    }


@pytest.mark.parametrize("cfg, windows, digest", PINS)
def test_audit_series_do_not_depend_on_the_window_count(cfg, windows, digest):
    """Window 0 runs alone and blocks of 64 follow, so 1, 63, 64, 65, 66
    and 129 windows end on either side of a block edge; each series is
    the start of the longest audit's, bit for bit."""
    longest = _series(pe_diagnostic(cfg, windows=max(windows, 129)))
    for n in (1, 63, 64, 65, 66, 129):
        for name, values in _series(pe_diagnostic(cfg, windows=n)).items():
            assert values.tobytes() == longest[name][:n].tobytes(), (name, n)


def _traced_peak(cfg, windows):
    pe_diagnostic(cfg, windows=windows)
    tracemalloc.start()
    try:
        pe_diagnostic(cfg, windows=windows)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("window", [2, 50])
def test_audit_holds_one_block_at_a_time(window):
    """The audit's working set is a few blocks of windows, not the
    horizon: from 130 to 2000 windows its traced peak grows by about the
    report's own series (63 KB), far less than a table of every window's
    steps (2.2 MB at window 50)."""
    cfg = _window(get_preset("setting-i"), window)
    growth = _traced_peak(cfg, 2000) - _traced_peak(cfg, 130)
    assert growth <= 128 * 1024, growth

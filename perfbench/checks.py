"""Correctness checks on each workload's outputs.

The checks import nothing from ``netlms``: they read the config object
that ran (plain frozen dataclasses), the returned records and the files
written, and recompute what they compare against with numpy, from the
model's closed forms.  None of them compares against fixed output bytes
or values of one random stream, so they hold for any seed and for any
change of the simulator's random stream.

Every check returns ``(failed, problems)``: ``failed`` is the set of
operation indices whose output failed a check (a run in the simulation
workloads, a window in the audit), ``problems`` a list of messages.  A
check on a shared output (aggregate, manifest, report summary) fails
every operation of the round.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

# Share of the initial squared error that the batch mean must fall below
# by the end of the regret-batch horizon (mean-square convergence).
FINAL_V_SHARE = 0.01
# Floating-point allowance for quantities the program folds in another
# order than the checks recompute them.
RTOL = 1e-12
# Eigenvalue agreement between the audit and the checks' own matrices.
EIG_ATOL = 1e-10


def initial_v(cfg) -> float:
    """Total squared error at step 0: ``sum_i |init_i - x0|^2``."""
    x0 = np.asarray(cfg.x0, dtype=float)
    return float(sum(((np.asarray(row, dtype=float) - x0) ** 2).sum() for row in cfg.init))


def _close(a, b) -> bool:
    return bool(np.allclose(a, b, rtol=RTOL, atol=0.0))


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _table(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _mar(regret: np.ndarray, steps: np.ndarray, tau: float) -> np.ndarray:
    out = np.full(steps.shape, np.nan)
    late = steps >= 2
    out[late] = regret[late].max(axis=1) / (steps[late] ** (1.0 - tau) * np.log(steps[late]))
    return out


def _gram_support_bound(reg) -> float:
    """``max_i sup ||H_i^T H_i||`` over the entrywise-uniform support,
    bounded by the largest squared Frobenius norm a draw can reach."""
    worst = 0.0
    for base, coef in zip(reg.base, reg.coef):
        b, c = np.asarray(base), np.asarray(coef)
        hi = np.maximum(np.abs(b + c * reg.low), np.abs(b + c * reg.high))
        worst = max(worst, float((hi * hi).sum()))
    return worst


def _node_grams(cfg) -> list[np.ndarray]:
    """Closed-form ``E[H_i^T H_i]`` of entrywise-uniform regressors:
    ``M^T M + Var(u) diag(column sums of coef^2)`` with ``M = base + coef E[u]``."""
    reg = cfg.regression
    mean_u = 0.5 * (reg.low + reg.high)
    var_u = (reg.high - reg.low) ** 2 / 12.0
    grams = []
    for base, coef in zip(reg.base, reg.coef):
        b, c = np.asarray(base, dtype=float), np.asarray(coef, dtype=float)
        m = b + c * mean_u
        grams.append(m.T @ m + var_u * np.diag((c**2).sum(axis=0)))
    return grams


def _sym_laplacian(mean_weight: float, nodes: int) -> np.ndarray:
    """Symmetrized Laplacian of the complete digraph with one mean weight."""
    adj = np.full((nodes, nodes), mean_weight)
    np.fill_diagonal(adj, 0.0)
    return np.diag(adj.sum(axis=1)) - adj


# ---------------------------------------------------------------------------
# config.txt


def _parse_config_text(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1].strip(), {})
        else:
            key, _, value = line.partition("=")
            current[key.strip()] = value.strip()
    return sections


def _same_value(text: str, expected) -> bool:
    if isinstance(expected, str):
        return text == expected
    if isinstance(expected, (int, float)):
        return float(text) == expected
    rows = [[float(tok) for tok in part.split()] for part in text.split(";")]
    if expected and isinstance(expected[0], tuple):
        return rows == [list(r) for r in expected]
    return len(rows) == 1 and rows[0] == list(expected)


def config_text_problems(text: str, cfg) -> list[str]:
    """``config.txt`` parsed back must give every field of the config that
    ran: numbered keys (``init_2``, ``base_1``) index tuple fields."""
    sections = _parse_config_text(text)
    owners = {
        "experiment": cfg,
        "model": cfg,
        "graph": cfg.graph,
        "regression": cfg.regression,
        "noise": cfg.noise,
        "gains": cfg.gains,
        "excitation": cfg.excitation,
    }
    problems = []
    seen = set()
    for section, owner in owners.items():
        entries = sections.get(section)
        if entries is None:
            problems.append(f"config.txt lacks [{section}]")
            continue
        for key, text_value in entries.items():
            prefix, _, index = key.rpartition("_")
            if hasattr(owner, key):
                expected = getattr(owner, key)
            elif index.isdigit() and hasattr(owner, prefix):
                expected = getattr(owner, prefix)[int(index) - 1]
                key = prefix
            else:
                problems.append(f"config.txt has unknown key {section}.{key}")
                continue
            seen.add((section, key))
            if not _same_value(text_value, expected):
                problems.append(f"config.txt {section}.{key} = {text_value!r}, ran with {expected!r}")
    must = {("experiment", k) for k in ("name", "seed", "horizon", "runs", "record_every")}
    must |= {("model", k) for k in ("nodes", "dim", "node_dims", "x0", "init")}
    for section in ("noise", "gains", "excitation"):
        must |= {(section, f.name) for f in dataclasses.fields(owners[section])}
    problems += [f"config.txt lacks {s}.{k}" for s, k in sorted(must - seen)]
    return problems


# ---------------------------------------------------------------------------
# regret-batch


def check_regret_batch(cfg, artifacts) -> tuple[set[int], list[str]]:
    runs, rows = cfg.runs, cfg.horizon + 1
    all_runs = set(range(runs))
    failed: set[int] = set()
    problems: list[str] = []
    v0 = initial_v(cfg)

    with open(artifacts.manifest_file) as fh:
        manifest = json.load(fh)
    files = manifest.get("files", {})
    written = [*artifacts.run_files, artifacts.aggregate_file, artifacts.excitation_file, artifacts.config_file]
    if sorted(files) != sorted(os.path.basename(p) for p in written):
        problems.append("manifest does not list exactly the written artifacts")
        failed |= all_runs
    for path in written:
        if files.get(os.path.basename(path)) != _sha256(path):
            problems.append(f"SHA-256 of {os.path.basename(path)} does not match the manifest")
            owner = artifacts.run_files.index(path) if path in artifacts.run_files else None
            failed |= all_runs if owner is None else {owner}
    checks = manifest.get("bound_checks", {})
    if checks != {"steps": runs * rows, "w_violations": 0, "m_violations": 0}:
        problems.append(f"manifest bound checks {checks}, expected {runs * rows} steps and no violations")
        failed |= all_runs

    if len(artifacts.run_files) != runs:
        problems.append(f"{len(artifacts.run_files)} run files for {runs} runs")
        return all_runs, problems
    steps = np.arange(0, rows, cfg.record_every, dtype=float)
    if steps[-1] != cfg.horizon:
        steps = np.append(steps, float(cfg.horizon))
    run_v = []
    for i, path in enumerate(artifacts.run_files):
        header, table = _table(path)
        if header[:2] != ["step", "V"] or not np.array_equal(table[:, 0], steps):
            problems.append(f"run {i}: bad header or recorded steps")
            failed.add(i)
            continue
        if not np.isfinite(table).all():
            problems.append(f"run {i}: non-finite cells")
            failed.add(i)
        elif not math.isclose(table[0, 1], v0, rel_tol=RTOL):
            problems.append(f"run {i}: V at step 0 is {table[0, 1]!r}, expected {v0!r}")
            failed.add(i)
        run_v.append(table[:, 1])

    header, agg = _table(artifacts.aggregate_file)
    n = cfg.nodes
    want = ["step", "mean_V"] + [f"regret_{i + 1}" for i in range(n)] + ["mar"]
    if header != want or not np.array_equal(agg[:, 0], steps):
        problems.append(f"aggregate header {header} or recorded steps unexpected")
        return all_runs, problems
    agg_steps, mean_v, regret, mar = agg[:, 0], agg[:, 1], agg[:, 2 : 2 + n], agg[:, -1]
    shared = []
    if not np.isfinite(agg[:, :-1]).all() or not np.isfinite(mar[agg_steps >= 2]).all():
        shared.append("aggregate has non-finite cells at or past step 2")
    if not math.isclose(mean_v[0], v0, rel_tol=RTOL):
        shared.append(f"mean_V at step 0 is {mean_v[0]!r}, expected {v0!r}")
    if not mean_v[-1] < FINAL_V_SHARE * v0:
        shared.append(f"final mean_V {mean_v[-1]!r} is not below {FINAL_V_SHARE} of {v0!r}")
    # The per-run cumulative sums are exactly monotone; the across-run mean
    # is folded in floating point, hence the relative allowance.
    if (regret < 0).any() or (np.diff(regret, axis=0) < -RTOL * np.abs(regret[1:])).any():
        shared.append("regret columns are negative or decrease")
    if not _close(mar[agg_steps >= 2], _mar(regret, agg_steps, cfg.gains.a_exp)[agg_steps >= 2]):
        shared.append("mar differs from max regret / (t^(1-tau) ln t)")
    if len(run_v) != runs or not _close(mean_v, np.mean(run_v, axis=0)):
        shared.append("mean_V differs from the mean of the per-run V columns")
    with open(artifacts.config_file) as fh:
        shared += config_text_problems(fh.read(), cfg)
    if shared:
        failed |= all_runs
    return failed, problems + shared


# ---------------------------------------------------------------------------
# long-run


def check_long_run(cfg, rec, series, lemma) -> list[str]:
    problems = []
    v0 = initial_v(cfg)
    rows = cfg.horizon + 1
    v = np.asarray(rec.v)
    if v.shape != (rows,) or not np.isfinite(v).all():
        problems.append("V is not finite at every step")
        return problems
    if not math.isclose(v[0], v0, rel_tol=RTOL):
        problems.append(f"V at step 0 is {v[0]!r}, expected {v0!r}")
    br = rec.bound_report
    for name in ("min_w_margin", "min_m_margin"):
        margin = getattr(br, name)
        if not (math.isfinite(margin) and margin >= 0.0):
            problems.append(f"{name} is {margin!r}")
    if br.steps_checked != rows:
        problems.append(f"bound checks cover {br.steps_checked} of {rows} steps")

    # excess_i(t) = 1/2 sum_j |H_j (x_i - x0)|^2 <= 1/2 N rho |x_i - x0|^2
    # <= 1/2 N rho V(t) at every step, so the cumulative sums obey it too.
    rho = _gram_support_bound(cfg.regression)
    cum_excess = np.cumsum(rec.excess_losses, axis=0)
    bound = 0.5 * cfg.nodes * rho * np.cumsum(v)
    if not (cum_excess <= bound[:, None] * (1.0 + RTOL)).all():
        problems.append("cumulative excess loss exceeds 1/2 N rho cumsum(V)")
    if (np.asarray(rec.excess_losses) < 0).any():
        problems.append("negative excess loss")

    steps = np.arange(rows, dtype=float)
    if series.runs != 1 or not _close(series.regret, cum_excess) or not _close(series.mean_v, v):
        problems.append("regret_series differs from the run's own cumulative sums")
    late = steps >= 2
    if not _close(series.mar[late], _mar(cum_excess, steps, cfg.gains.a_exp)[late]):
        problems.append("regret_series mar differs from max regret / (t^(1-tau) ln t)")
    if not lemma.passed or lemma.steps_checked != rows:
        problems.append(f"lemma_regret_bound_check: passed={lemma.passed}, steps={lemma.steps_checked}")
    return problems


# ---------------------------------------------------------------------------
# excitation-audit


def _audit_expectations(cfg, windows: int) -> dict[str, np.ndarray | float]:
    """The audit's eigenvalues from the closed forms of an alternating-
    uniform graph and entrywise-uniform regressors.

    The mean adjacency at a step depends only on its parity, and the mean
    Grams not at all, so window ``k`` has information matrix
    ``sum_s b(s) kron(L_{s mod 2}, I) + a(s) blockdiag(G_i)``.
    """
    g, gains, h = cfg.graph, cfg.gains, cfg.excitation.window
    nodes, dim = cfg.nodes, cfg.dim
    lap = [
        _sym_laplacian(0.5 * (g.even_low + g.even_high), nodes),
        _sym_laplacian(0.5 * (g.odd_low + g.odd_high), nodes),
    ]
    big_lap = [np.kron(l, np.eye(dim)) for l in lap]
    grams = _node_grams(cfg)
    gram_block = np.zeros((nodes * dim, nodes * dim))
    for i, gi in enumerate(grams):
        gram_block[i * dim : (i + 1) * dim, i * dim : (i + 1) * dim] = gi

    steps = np.arange(windows * h).reshape(windows, h)
    a = gains.a_coef * (steps + 1.0) ** -gains.a_exp
    b = gains.b_coef * (steps + 1.0) ** -gains.b_exp
    even = steps % 2 == 0
    weighted = (
        (b * even).sum(axis=1)[:, None, None] * big_lap[0]
        + (b * ~even).sum(axis=1)[:, None, None] * big_lap[1]
        + a.sum(axis=1)[:, None, None] * gram_block
    )
    even_count = even.sum(axis=1)
    gainless = (
        even_count[:, None, None] * big_lap[0]
        + (h - even_count)[:, None, None] * big_lap[1]
        + h * gram_block
    )
    window_lap = even_count[:, None, None] * lap[0] + (h - even_count)[:, None, None] * lap[1]
    pooled_gram = h * sum(grams)
    return {
        "lambda": np.linalg.eigvalsh(weighted)[:, 0],
        "gainless": np.linalg.eigvalsh(gainless)[:, 0],
        "connectivity": np.linalg.eigvalsh(window_lap)[:, 1],
        "observability": float(np.linalg.eigvalsh(pooled_gram)[0]),
    }


def check_excitation_audit(cfg, report, windows: int) -> tuple[set[int], list[str]]:
    all_windows = set(range(windows))
    problems: list[str] = []
    lam = np.asarray(report.lambda_series)
    raw = np.asarray(report.gainless_series)
    if report.windows_checked != windows or lam.shape != (windows,) or raw.shape != (windows,):
        return all_windows, [f"report covers {report.windows_checked} windows, asked for {windows}"]
    want = _audit_expectations(cfg, windows)
    bad = ~(np.abs(lam - want["lambda"]) <= EIG_ATOL * np.maximum(1.0, np.abs(want["lambda"])))
    bad |= ~(np.abs(raw - want["gainless"]) <= EIG_ATOL * np.maximum(1.0, np.abs(want["gainless"])))
    conn = np.asarray(report.jointly_connected.values)
    obs = np.asarray(report.jointly_observable.values)
    bad |= ~(np.abs(conn - want["connectivity"]) <= 1e-12)
    bad |= ~(np.abs(obs - want["observability"]) <= 1e-12)
    cumulative = np.asarray(report.cumulative)
    bad |= ~np.isclose(cumulative, np.cumsum(lam), rtol=RTOL, atol=0.0)
    bad |= ~np.isclose(np.asarray(report.r_series), 1.0 / cumulative, rtol=RTOL, atol=0.0)
    failed = set(np.flatnonzero(bad).tolist())
    if failed:
        problems.append(f"{len(failed)} windows disagree with the closed forms, first {min(failed)}")

    shared = []
    # The benchmark model's constants: lambda2 of the window Laplacian is
    # N * 1/2 = 3/2 and the pooled Gram's smallest eigenvalue is 13/6.
    for label, check, exact in (
        ("connectivity", report.jointly_connected, 1.5),
        ("observability", report.jointly_observable, 13.0 / 6.0),
    ):
        if abs(check.min_value - exact) > 1e-12:
            shared.append(f"{label} minimum {check.min_value!r}, expected {exact!r}")
    bc = report.bound_check
    if bc.violations != 0 or not bc.premise_ok or bc.windows_checked != windows:
        shared.append(f"lower-bound audit: {bc}")
    if shared:
        failed = all_windows
    return failed, problems + shared

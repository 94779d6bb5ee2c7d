"""Online performance: regret growth and its normalized ceiling.

Each node pays, at every step, the network's full quadratic loss
evaluated at its own running estimate; regret compares that bill with
what the true parameter would have paid.  Here we reproduce the regret
preset at reduced scale and check the error-energy bound
Regret(i,T) <= N/2 * rho0 * sum_t mean-V(t) on the way.

Run:  python3 demos/04_regret_benchmark.py
"""

import numpy as np

from netlms import (
    get_preset,
    lemma_regret_bound_check,
    oracle_parameter,
    simulate_regret,
    with_overrides,
)

RUNS = 12
HORIZON = 20_000


def main():
    cfg = with_overrides(get_preset("regret"), runs=RUNS, horizon=HORIZON)
    # the runs are folded into their regret series as they are simulated
    series, _ = simulate_regret(cfg, range(RUNS))
    oracle = oracle_parameter(cfg.model.regression, cfg.model.x0, cfg.horizon)

    print(f"regret preset at reduced scale: {RUNS} runs, horizon {HORIZON}")
    print(f"comparator parameter (equals x0): {np.array2string(oracle, precision=6)}\n")

    print("        T    worst-node regret        MAR(T)")
    for t in (100, 1_000, 5_000, 20_000):
        worst = series.regret[t].max()
        print(f"{t:9d}    {worst:17.2f}    {series.mar[t]:10.3f}")

    # sublinear growth: ten times the steps, much less than ten times the bill
    r1, r2 = series.regret[2_000].max(), series.regret[20_000].max()
    print(f"\nregret grew {r2 / r1:.2f}x while T grew 10x (sublinear)")

    report = lemma_regret_bound_check(series, rho0=cfg.excitation.rho0)
    verdict = "holds" if report.passed else "FAILS"
    print(f"energy bound {verdict} at every step for every node "
          f"(min margin {report.min_margin:.1f} at step {report.worst_step})")


if __name__ == "__main__":
    main()

"""
Gain schedules and what they buy you
====================================

Three nodes estimate x0 = [5, 4, 3] from partial, noisy observations
while talking over a random digraph whose weights are only useful on
average (every odd step the mean graph is empty, and weights can be
negative).  No single node could do this alone: node 1 never sees
anything, node 2 sees two coordinates, node 3 one.

We run the four decaying-gain presets side by side:

    setting-i    a = b = (k+1)^-0.6   lam = (k+1)^-2
    setting-ii   a = b = (k+1)^-0.6   lam = (k+1)^-3
    setting-iii  a = b = (k+1)^-0.8   lam = (k+1)^-2
    setting-iv   a = b = (k+1)^-0.8   lam = (k+1)^-3

The thing to watch: the slowly-decaying gains (tau = 0.6) crush the
initial error much faster, but keep injecting more noise late, so at a
long enough horizon the quickly-decaying gains (tau = 0.8) end up with
the smaller steady error.  Transient speed and noise floor trade off;
neither schedule dominates at every horizon.

Run:
    python3 demos/01_convergence_gain_settings.py [--plot]
"""

import argparse
import sys

import numpy as np

from netlms import get_preset, run_trajectories, with_overrides

SETTINGS = ("setting-i", "setting-ii", "setting-iii", "setting-iv")
SEEDS = 3
HORIZON = 20_000
CHECKPOINTS = (100, 1_000, 5_000, 20_000)


def mean_v_trajectory(name):
    cfg = with_overrides(get_preset(name), horizon=HORIZON)
    records = run_trajectories(cfg, range(SEEDS), check_bounds=False)
    return np.mean([rec.v for rec in records], axis=0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--plot", action="store_true",
                        help="also save mean-V curves to settings_mean_v.png")
    args = parser.parse_args(argv)

    curves = {}
    for name in SETTINGS:
        curves[name] = mean_v_trajectory(name)
        print(f"{name}: done ({SEEDS} runs, horizon {HORIZON})")

    header = "step".rjust(8) + "".join(n.rjust(14) for n in SETTINGS)
    print()
    print("mean V(k) = sum_i |x_i(k) - x0|^2, averaged over seeds")
    print(header)
    for k in CHECKPOINTS:
        row = f"{k:8d}" + "".join(f"{curves[n][k]:14.3e}" for n in SETTINGS)
        print(row)

    fast = min(SETTINGS, key=lambda n: curves[n][1_000])
    low = min(SETTINGS, key=lambda n: curves[n][-1])
    print()
    print(f"fastest at k=1e3: {fast};  lowest at k={HORIZON}: {low}")
    if fast != low:
        print("the early leader is not the final leader: larger gains buy "
              "transient speed at the price of a higher late noise floor")

    if args.plot:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not installed, skipping the plot", file=sys.stderr)
            return
        fig, ax = plt.subplots(figsize=(7, 4.5))
        for name in SETTINGS:
            ax.loglog(np.arange(1, HORIZON + 1), curves[name][1:], label=name)
        ax.set_xlabel("step k")
        ax.set_ylabel("mean V(k)")
        ax.legend()
        fig.tight_layout()
        fig.savefig("settings_mean_v.png", dpi=120)
        print("wrote settings_mean_v.png")


if __name__ == "__main__":
    main()

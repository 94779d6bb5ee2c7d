"""What the decaying Tikhonov term actually does.

Settings v and vi rerun settings i and iii with lam(k) = 0.  Pairing the
runs on the same seed substream makes the comparison noise-for-noise:
both members of a pair see the exact same graphs, regressors and noises,
and differ only in the shrinkage term.  The regularized estimates carry
(slightly) smaller norms all the way to the horizon.

Run:  python3 demos/02_regularization_effect.py
"""

import numpy as np

from netlms import get_preset, run_trajectories, run_trajectory, substream, with_overrides

PAIRS = (("setting-i", "setting-v"), ("setting-iii", "setting-vi"))
SEEDS = 20
HORIZON = 10_000


def final_norms(name):
    cfg = with_overrides(get_preset(name), horizon=HORIZON)
    records = run_trajectories(cfg, range(SEEDS), check_bounds=False)
    return np.array([rec.est_norms[-1].mean() for rec in records])  # node-averaged |x_i(T)|


def main():
    print(f"node-averaged estimate norm at k={HORIZON}, {SEEDS} paired seeds\n")
    for reg_name, plain_name in PAIRS:
        reg = final_norms(reg_name)
        plain = final_norms(plain_name)
        diff = plain - reg
        se = diff.std(ddof=1) / np.sqrt(SEEDS)
        print(f"{reg_name:12s} (regularized)     mean |x| = {reg.mean():.6f}")
        print(f"{plain_name:12s} (lam = 0)         mean |x| = {plain.mean():.6f}")
        print(f"paired difference: {diff.mean():.3e} +- {se:.1e} "
              f"({'regularized is smaller' if diff.mean() > 0 else 'no shrinkage seen'})\n")

    # the effect scales with lam's weight early on: by the horizon both
    # members estimate x0 equally well, shrinkage shows up only in the norm
    cfg = with_overrides(get_preset("setting-i"), horizon=HORIZON)
    cfg0 = with_overrides(get_preset("setting-v"), horizon=HORIZON)
    rec = run_trajectory(cfg, substream(cfg.seed, 0), check_bounds=False)
    rec0 = run_trajectory(cfg0, substream(cfg0.seed, 0), check_bounds=False)
    print(f"seed 0 final V: {rec.v[-1]:.3e} (regularized) vs {rec0.v[-1]:.3e} (plain)")


if __name__ == "__main__":
    main()

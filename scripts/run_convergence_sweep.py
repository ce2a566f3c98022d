#!/usr/bin/env python3
"""Eps sweep of the modified nonlocal solver against the local reference.

Runs the two standard setups (pure spreading and logistic growth) across
eps in {0.2, 0.1, 0.05, 0.025, 0.0125} and writes sweep CSVs plus fitted
rates under results/convergence/.  A nonlocal solve costs about eps^-3, so
the two smallest eps take most of the time: about 80 s per setup, under
three minutes in all, on a 2-core x86 machine.
"""

from pathlib import Path

from frontlab import cli, problem

OUT = Path("results/convergence")


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    configs = {
        "stefan": problem.symmetric_stefan(T=1.0),
        "fisher": problem.fisher_kpp_config(T=1.0),
    }
    for name, config in configs.items():
        cfg_path = OUT / f"{name}.cfg"
        problem.save_config(config, cfg_path)
        code = cli.cmd_converge(
            str(cfg_path),
            [0.2, 0.1, 0.05, 0.025, 0.0125],
            str(OUT / name),
            reference_nx=2048,
            reference_dt=1e-4,
        )
        if code != 0:
            raise SystemExit(code)
        print(f"{name}: wrote {OUT / name}/sweep.csv and ratefit.json")


if __name__ == "__main__":
    main()

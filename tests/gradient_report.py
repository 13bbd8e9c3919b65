"""Per-parameter gradient fidelity report for the attention model.

Compares tape gradients of the cost-adjusted Sharpe loss against central
finite differences for every parameter group and prints the worst relative
error per group. A healthy build stays below 1e-4 everywhere.

    PYTHONPATH=src python3 tests/gradient_report.py --d-model 8 --heads 2 --layers 1

It lives beside ``helpers.py``, whose finite-difference oracle it runs.
"""

import argparse
import sys
import time

import numpy as np

from ptopt.model import PTConfig, PortfolioTransformer
from ptopt.objective import CostModel, ReturnsWindow, sharpe_loss

from helpers import model_grad_errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--assets", type=int, default=3)
    parser.add_argument("--window", type=int, default=8)
    parser.add_argument("--d-model", type=int, default=8)
    parser.add_argument("--heads", type=int, default=2)
    parser.add_argument("--t2v-k", type=int, default=3)
    parser.add_argument("--layers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--step", type=float, default=1e-5)
    args = parser.parse_args()

    model = PortfolioTransformer(
        PTConfig(
            n_assets=args.assets, window=args.window, d_model=args.d_model,
            n_heads=args.heads, t2v_k=args.t2v_k, n_layers=args.layers, seed=args.seed,
        )
    )
    rng = np.random.default_rng(0)
    block = rng.normal(0.0, 0.01, size=(2 * args.window, args.assets))
    realized = rng.normal(0.0005, 0.01, size=(args.window, args.assets))

    def loss_fn():
        return sharpe_loss(model.window_weights(block), ReturnsWindow(realized), CostModel())

    start = time.perf_counter()
    errs = model_grad_errors(model, loss_fn, h=args.step)
    elapsed = time.perf_counter() - start

    width = max(len(n) for n in errs)
    for name, err in sorted(errs.items(), key=lambda kv: -kv[1]):
        shape = model.parameters()[name].data.shape
        print(f"{name.ljust(width)}  {str(shape).ljust(10)}  {err:.3e}")
    worst = max(errs.values())
    print(f"\nworst {worst:.3e} across {len(errs)} groups in {elapsed:.1f}s "
          f"({'OK' if worst < 1e-4 else 'FAIL'})")
    return 0 if worst < 1e-4 else 1


if __name__ == "__main__":
    sys.exit(main())

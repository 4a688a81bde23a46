#!/usr/bin/env python3
"""Search for nonzero representations of the built-in families.

Sweeps random sparse integer candidates over a seed grid and records, per
family and target dimension, whether any candidate satisfies both
representation equations.  Existence is an open question for most of these
families; this script only reports outcomes, it proves nothing negative.

    python scripts/search_representations.py --budget 500 --seeds 8
"""

import argparse

from skewhom.constructions import resolve_algebra
from skewhom.representation import check_representation, search_representation


def targets():
    for ref in ("se4:theta=0", "se4:theta=1", "se4:theta=1/2", "gl2:theta=0", "gl2:theta=1"):
        yield ref, resolve_algebra(ref)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=400, help="candidates per seed")
    parser.add_argument("--seeds", type=int, default=6, help="number of seeds to sweep")
    parser.add_argument("--m", type=int, default=2, help="representation space dimension")
    args = parser.parse_args()

    print(f"{'family':<18} {'seed':>4}  outcome")
    for name, g in targets():
        hit = None
        for seed in range(args.seeds):
            found = search_representation(g, args.m, budget=args.budget, seed=seed)
            if found is not None:
                assert check_representation(found).passed
                hit = (seed, found)
                break
        if hit is None:
            print(f"{name:<18} {'-':>4}  none within {args.seeds} x {args.budget} candidates")
        else:
            seed, found = hit
            print(f"{name:<18} {seed:>4}  nonzero representation found:")
            for i, r in enumerate(found.rho):
                print(f"    rho[e_{i}] = {r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

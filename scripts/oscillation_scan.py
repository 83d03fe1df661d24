#!/usr/bin/env python3
"""Scan the theta oscillation rho_n(y) against its uniform bound.

For moderate y the nome e^{-2 pi^2 / log y} makes rho invisible
(~4e-13 at y = 2); pushing y up to 100 brings it within a factor
two of the bound.  The scan reports the observed extremes over a
dense range of n.

    python3 scripts/oscillation_scan.py --y 10 50 100 --n-max 2000
"""

import argparse

from mpmath import mp

from lacunary_asym import PrecisionContext, as_real, rho


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--y", nargs="+", default=["2", "10", "100"])
    ap.add_argument("--n-max", type=int, default=1000)
    ap.add_argument("--bits", type=int, default=128)
    args = ap.parse_args()

    ctx = PrecisionContext(bits=args.bits)
    print(f"{'y':>8}  {'bound':>12}  {'max rho':>12}  {'min rho':>12}  {'fill':>6}")
    for y in args.y:
        with ctx.prec():
            L = mp.log(as_real(y))
            bound = 2 / (mp.exp(2 * mp.pi**2 / L) - 1)
        values = [rho(n, y, ctx) for n in range(2, args.n_max + 1)]
        hi, lo = max(values), min(values)
        with ctx.prec():
            fill = max(abs(hi), abs(lo)) / bound
            print(f"{y:>8}  {mp.nstr(bound, 6):>12}  {mp.nstr(hi, 6):>12}  "
                  f"{mp.nstr(lo, 6):>12}  {mp.nstr(fill, 3):>6}")


if __name__ == "__main__":
    main()

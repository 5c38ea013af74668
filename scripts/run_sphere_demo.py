#!/usr/bin/env python3
"""Quick demonstration on the unit sphere.

Sweeps gamma for the first few Laplace eigenvalues, prints the convergence
tail, and compares the smallest nonzero branch against its closed form
lambda(gamma) = 4 / (1 + sqrt(1 - 16/gamma^2)).
"""

import math

from kbmlab import gamma_sweep, make_gamma_grid, mixing_report, sphere_spectrum

L_MAX = 2
GRID = make_gamma_grid(1.0, 4.0, 31)


def main():
    spectrum = sphere_spectrum(1.0, L_MAX)
    tables = []
    for entry in spectrum.entries:
        table = gamma_sweep(entry.eta, 1.0, GRID)
        tables.append(table)
        print(f"\neta = {entry.eta:g}  ({entry.label}, multiplicity {entry.multiplicity})")
        print(f"  empirical collision gamma: {table.empirical_r}")
        for i in range(len(GRID) - 5, len(GRID)):
            g = table.gamma_grid[i]
            print(
                f"  gamma = {g:10.2f}   lambda = {table.lam[i].real:.12f}"
                f"   |lambda - eta| = {table.abs_error[i]:.3e}"
            )

    report = mixing_report(spectrum, tables)
    tail = next(t for t in tables if t.eta == report["eta1"]).lam[-1].real
    print(f"\nspectral gap eta_1 = {report['eta1']:g}")
    print(f"Re lambda_eta1 at gamma = {GRID[-1]:g}: {tail:.12f}")
    closed = 4.0 / (1.0 + math.sqrt(1.0 - 16.0 / GRID[-1] ** 2))
    print(f"closed form:                 {closed:.12f}")
    print(f"fitted tail decay exponent:  {report['tail_fitted_rate']:.3f} (empirical)")


if __name__ == "__main__":
    main()

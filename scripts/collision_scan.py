#!/usr/bin/env python3
"""Where does each branch stop being simple, and how fast does the
guaranteed radius shrink with eta?

For a list of blocks this prints the certified collision point, the
equivalent gamma, and the Kato radius min_zeta 1/||X (diag(k^2) - zeta)^-1||
over the circle |zeta| = 1/2 (column kato_radius), whose zero-mode bound in
the last column forces decay like 1/sqrt(eta).  Below the radius the
circle holds exactly one eigenvalue, so every collision lies at or beyond
it; sphere eta = 2 collides on the edge.  Both are computed on the
(truncated) block; nothing is claimed about the infinite ladder's
analyticity threshold.
"""

import math

from kbmlab import Contour, block_at, ladder_coefficients, perturbation_radius, track_branch

CASES = [
    (1.0, 2.0),
    (1.0, 6.0),
    (1.0, 12.0),
    (0.0, 1.0),
    (0.0, 2.0),
    (-1.0, 2.0),
    (-1.0, 5.0),
    (-1.0, 10.0),
]
CONTOUR = Contour(center=0.0, radius=0.5, nodes=64)


def main():
    print(f"{'K':>4} {'eta':>6} {'x_collision':>12} {'gamma_hat':>10} "
          f"{'kato_radius':>11} {'0.5/sqrt(eta/2)':>16}")
    for K, eta in CASES:
        block = block_at(eta, K, 48)
        coeffs = ladder_coefficients(block)
        br = track_branch(block, coeffs, -2.5)
        if br.status == "collision":
            x_col = abs(br.x_collision)
            gamma_hat = 2.0 / x_col
        else:
            x_col, gamma_hat = math.nan, math.nan
        radius = perturbation_radius(block, coeffs, CONTOUR)
        bound = 0.5 / math.sqrt(0.5 * eta)
        print(f"{K:4.0f} {eta:6.1f} {x_col:12.6f} {gamma_hat:10.4f} "
              f"{radius:11.6f} {bound:16.6f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Three-level compression of a 3-D blurring operator.

A K x K x K point-spread function induces a K^3-banded operator on the
voxel grid that is block-Toeplitz at three nested levels.  Its weighted
tensor has order 5; truncating the three middle modes yields sums of
three-fold Kronecker products, one per entry of the truncated core.  The
script compares a separable Gaussian kernel (multilinear rank (1,1,1) -> a
single Kronecker term) against a perturbed nonseparable one at increasing
ranks.

The operator conforms to its pattern by construction, so its relative
error is the tensor's, ||T - T_hat||_F / ||T||_F, and the sweep never forms
the K^3 x K^3 operator.
"""

import argparse

import numpy as np

from blockten import fro_norm, hosvd, psf_weighted_tensor


def gaussian_psf(k: int, width: float) -> np.ndarray:
    g = np.exp(-0.5 * ((np.arange(k) - k // 2) / width) ** 2)
    psf = np.einsum("i,j,k->ijk", g, g, g)
    return psf / psf.sum()


def sweep(label: str, psf: np.ndarray) -> None:
    t, mlp = psf_weighted_tensor(psf)
    k = psf.shape[0]
    print(f"{label}: operator {mlp.shape[0]} x {mlp.shape[1]}")
    print(f"{'rank':>6}  {'relerr_fro':>12}  {'kron terms':>10}")
    for r in range(1, k + 1):
        tk = hosvd(t, (1, r, r, r, 1))
        relerr = fro_norm(t - tk.reconstruct()) / fro_norm(t)
        terms = int(np.prod(tk.ranks[1:-1]))
        print(f"{r:>6}  {relerr:>12.3e}  {terms:>10}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=5, help="kernel extent K (odd)")
    parser.add_argument("--width", type=float, default=1.1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    psf = gaussian_psf(args.size, args.width)
    sweep("separable Gaussian", psf)

    rng = np.random.default_rng(args.seed)
    bumpy = psf + 0.2 * rng.random(psf.shape)
    sweep("nonseparable", bumpy / bumpy.sum())


if __name__ == "__main__":
    main()

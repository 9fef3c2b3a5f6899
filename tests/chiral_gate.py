"""Full-plane gate of the chiral open-chain solve against the dense solve.

For each ``dL`` in ``DIRECTIONS`` (with ``dR = x``, ``t0 = 1``) this runs
``compute_phase_diagram`` on fig1b's plane, ``(0, 4]^2`` at resolution 50
with ``chain_N = 100``, whose open chains go through ``chain_eig``, and
solves every cell's chain again with ``eig_dense`` as the oracle. It prints
one JSON line per direction and a last line with the maxima:

- ``max_dgamma``: largest ``|gamma|`` difference from the dense solve;
- ``nu_changed``: cells whose ``nu`` differs from ``braiding_degree``;
- ``max_residual``: largest chiral residual, recomputed against the
  assembled chain;
- ``min_mu_ratio``: smallest ``min |mu| / ||A B||_F`` (the zero-mode
  fallback fires at or below ``ZERO_MODE_TOL``);
- ``solvers``: cell count per solver route;
- ``beyond``: each cell past the gamma bound, with ``dense_spread``, how
  far the dense solve misses its own mirror identity there: relabeling
  the sites ``x -> N - 1 - x`` swaps the two hoppings and negates gamma
  exactly, so ``|gamma(H) + gamma(mirror H)|`` shows the oracle's own error.

The gate passes when ``max_dgamma <= 1e-12`` and ``nu_changed == 0``; the
exit code says so. It takes several minutes on two cores::

    PYTHONPATH=src python tests/chiral_gate.py [--resolution 50] [--chain-N 100]
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from nahn import GaugeVector, ModelParams, braiding_degree, compute_phase_diagram
from nahn.eigensolve import (
    _chiral_blocks,
    _residuals,
    _single_threaded_blas,
    _tridiagonal_product,
    chain_eig,
)
from nahn.model import BoundaryCondition, chain_blocks, chain_matrix, real_space_hamiltonian
from nahn.skin import eigenstates_from_matrix, gamma

DIRECTIONS = ((0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (0.0, 0.6, 0.8))
DR = GaugeVector(1.0, 0.0, 0.0)
GAMMA_BOUND = 1e-12


def cell(p: ModelParams, N: int) -> dict:
    """One cell's dense-oracle gamma and its chiral solve's diagnostics."""
    blocks = chain_blocks(p)
    M = real_space_hamiltonian(p, N, BoundaryCondition.OBC)
    spec = chain_eig(*blocks, N)
    out = {
        "solver": spec.solver,
        "dense_gamma": gamma(eigenstates_from_matrix(M)),
        "residual": float(np.max(_residuals(M, spec.eigenvalues, spec.right_eigenvectors))),
    }
    chiral = _chiral_blocks(np.stack(blocks))
    if chiral is not None:
        rotated = chiral[1]
        AB = _tridiagonal_product(rotated[:, 0, 1], rotated[:, 1, 0], N)
        out["mu_ratio"] = float(np.min(np.abs(np.linalg.eigvals(AB))) / np.linalg.norm(AB))
    return out


def gate(dL, resolution: int, N: int, threads: int) -> dict:
    d = GaugeVector(*dL)
    diagram = compute_phase_diagram((0.0, 4.0), resolution, N, dL=d, dR=DR, threads=threads)
    params = [
        ModelParams(t0=1.0, tL=float(tL), tR=float(tR), dL=d, dR=DR)
        for tL in diagram.tL_axis for tR in diagram.tR_axis
    ]
    with _single_threaded_blas(), ThreadPoolExecutor(threads) as pool:
        cells = list(pool.map(lambda p: cell(p, N), params))
    dense = np.array([c["dense_gamma"] for c in cells])
    dgamma = np.abs(diagram.gamma.ravel() - dense)
    beyond = []
    for k in np.flatnonzero(dgamma > GAMMA_BOUND):
        on, left, right = chain_blocks(params[k])
        mirror = gamma(eigenstates_from_matrix(chain_matrix(on, right, left, N, BoundaryCondition.OBC)))
        beyond.append({
            "tL": params[k].tL, "tR": params[k].tR, "dgamma": float(dgamma[k]),
            "dense_spread": abs(dense[k] + mirror),
        })
    nu_changed = sum(int(nu) != braiding_degree(p) for nu, p in zip(diagram.nu.ravel(), params))
    solvers: dict = {}
    for c in cells:
        solvers[c["solver"]] = solvers.get(c["solver"], 0) + 1
    ratios = [c["mu_ratio"] for c in cells if "mu_ratio" in c]
    return {
        "dL": list(dL),
        "max_dgamma": float(np.max(dgamma)),
        "nu_changed": nu_changed,
        "max_residual": max(c["residual"] for c in cells),
        "min_mu_ratio": min(ratios) if ratios else None,
        "solvers": solvers,
        "beyond": beyond,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--resolution", type=int, default=50)
    ap.add_argument("--chain-N", type=int, default=100)
    ap.add_argument("--threads", type=int, default=2)
    args = ap.parse_args(argv)
    rows = []
    for dL in DIRECTIONS:
        rows.append(gate(dL, args.resolution, args.chain_N, args.threads))
        print(json.dumps(rows[-1]), flush=True)
    summary = {
        "max_dgamma": max(r["max_dgamma"] for r in rows),
        "nu_changed": sum(r["nu_changed"] for r in rows),
        "max_residual": max(r["max_residual"] for r in rows),
        "min_mu_ratio": min(r["min_mu_ratio"] for r in rows if r["min_mu_ratio"] is not None),
    }
    summary["pass"] = summary["max_dgamma"] <= GAMMA_BOUND and summary["nu_changed"] == 0
    print(json.dumps(summary))
    return 0 if summary["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())

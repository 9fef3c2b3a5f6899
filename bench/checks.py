"""Checks of nahn's outputs, made apart from nahn.

Nothing here imports nahn. Every expected value is recomputed from the
model's algebra with numpy, or is a property any correct answer has:

- The braiding degree ``nu`` and the point-gap winding ``w(E0)`` come from
  the argument principle. With ``z = e^{ik}`` and ``c = dL.dR`` the Bloch
  matrix is traceless and ``z^2 E^2 = P(z)``, where
  ``P(z) = tL^2 z^4 + 2c tL t0 z^3 + (t0^2 + 2c tL tR) z^2 + 2 t0 tR z + tR^2``.
  So ``nu`` is the number of roots of ``P`` inside ``|z| < 1`` minus 2, and
  ``w(E0)`` is the same count for ``E0^2 z^2 - P(z)``.
- Periodic band loci must match per-k eigenvalues of a 2x2 Bloch matrix
  built here.
- An open-chain spectrum has ``2N`` values with ``sum E = tr H`` and
  ``sum E^2 = tr H^2``. Both hold to rounding even where the chain is
  ill-conditioned, so a more accurate solver passes them too.
- Site densities sum to 1 per state, the header ``gamma`` equals ``gamma``
  recomputed from the density rows, and the paper's verdicts hold.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

S0 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
NF = 1e-9
UH = 1e-6

#: A root this close to |z| = 1 would make a root count ambiguous.
ROOT_AMBIGUITY = 1e-7
#: Relative agreement of band loci with the per-k 2x2 solve.
LOCI_TOL = 1e-9
#: Relative tolerance of the trace identities (scaled by ||H||_F).
TRACE_TOL = 1e-10
#: Per-state tolerance on sum(density) = 1.
DENSITY_TOL = 1e-10
#: Agreement of the header gamma with gamma recomputed from the densities.
GAMMA_TOL = 1e-12

WINDOW_FRACTION = 0.2
LOC_THRESHOLD = 0.5
BIPOLAR_FRACTION = 0.1


class CheckError(Exception):
    """An output disagrees with its independent check."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


# --- model algebra ---------------------------------------------------------


def pauli(d) -> np.ndarray:
    return d[0] * SX + d[1] * SY + d[2] * SZ


def quartic(m: dict) -> np.ndarray:
    """Coefficients of P(z), highest power first."""
    t0, tL, tR = m["t0"], m["tL"], m["tR"]
    c = float(np.dot(m["dL"], m["dR"]))
    return np.array(
        [tL * tL, 2 * c * tL * t0, t0 * t0 + 2 * c * tL * tR, 2 * t0 * tR, tR * tR], dtype=complex
    )


def root_margin(coeffs) -> tuple:
    """(roots inside |z| < 1, smallest distance of a root's modulus from 1)."""
    radii = np.abs(np.roots(coeffs))
    return int(np.sum(radii < 1.0)), float(np.min(np.abs(radii - 1.0)))


def _winding_poly(m: dict, E0: complex) -> np.ndarray:
    coeffs = -quartic(m)
    coeffs[2] += E0 * E0
    return coeffs


def braiding_degree(m: dict) -> int:
    inside, margin = root_margin(quartic(m))
    require(margin > ROOT_AMBIGUITY, f"a root of P lies on |z| = 1 (margin {margin:.1e})")
    return inside - 2


def point_gap_winding(m: dict, E0: complex) -> int:
    inside, margin = root_margin(_winding_poly(m, E0))
    require(margin > ROOT_AMBIGUITY, f"{E0} lies on the spectrum (margin {margin:.1e})")
    return inside - 2


def winding_margin(m: dict, E0: complex) -> float:
    return root_margin(_winding_poly(m, E0))[1]


def lattice_blocks(m: dict) -> tuple:
    """(on-site, leftward, rightward) 2x2 blocks of the lattice chain."""
    return m["t0"] * pauli(m["dR"]), m["tL"] * pauli(m["dL"]), m["tR"] * pauli(m["dR"])


def circuit_drive(c: dict) -> float:
    if c.get("omega_rad_s") is not None:
        return float(c["omega_rad_s"])
    return 1.0 / math.sqrt(c["L1_uH"] * UH * c["C1_nF"] * NF)


def circuit_blocks(c: dict) -> tuple:
    """Admittance blocks divided by ``i omega nF``, so in nF.

    ``J(k) = i w [m0 s0 + m1 (s0 - sz) e^{ik} + C0 sx + C1 e^{ik} sz + C2 e^{-ik} sx]``
    with ``m0 = -C2 - 2 C0 + 1/(w^2 L0) - C1 + 1/(w^2 L1) - 1/(i w R0)`` and
    ``m1 = (C1 - 1/(w^2 L1)) / 2``, capacitances in farads.
    """
    w = circuit_drive(c)
    c0, c1, c2 = c["C0_nF"] * NF, c["C1_nF"] * NF, c["C2_nF"] * NF
    l0, l1 = c["L0_uH"] * UH, c["L1_uH"] * UH
    m0 = -c2 - 2 * c0 + 1 / (w * w * l0) - c1 + 1 / (w * w * l1) - 1 / (1j * w * c["R0_ohm"])
    m1 = (c1 - 1 / (w * w * l1)) / 2
    on = (m0 * S0 + c0 * SX) / NF
    left = (m1 * (S0 - SZ) + c1 * SZ) / NF
    right = c2 * SX / NF
    return on, left, right


def circuit_as_lattice(c: dict) -> dict:
    """Lattice parameters with the same traceless Bloch part as the circuit."""
    w = circuit_drive(c)
    m1 = (c["C1_nF"] * NF - 1 / (w * w * c["L1_uH"] * UH)) / 2 / NF
    return {"t0": c["C0_nF"], "tL": c["C1_nF"] - m1, "tR": c["C2_nF"], "dL": [0, 0, 1], "dR": [1, 0, 0]}


def bloch(blocks, k) -> np.ndarray:
    on, left, right = blocks
    phase = np.exp(1j * np.asarray(k, dtype=float))
    return on + np.multiply.outer(phase, left) + np.multiply.outer(1 / phase, right)


def chain(blocks, N: int, periodic: bool = False) -> np.ndarray:
    """Dense 2N x 2N chain: leftward hopping above the diagonal, rightward below."""
    on, left, right = blocks
    up = np.eye(N, k=1)
    down = np.eye(N, k=-1)
    if periodic:
        up[N - 1, 0] = 1
        down[0, N - 1] = 1
    return np.kron(np.eye(N), on) + np.kron(up, left) + np.kron(down, right)


# --- reading outputs -------------------------------------------------------


def read_table(path) -> tuple:
    """(header, {column: values}) of a CSV or JSON table written by nahn."""
    path = Path(path)
    if path.suffix == ".csv":
        with open(path) as f:
            first = f.readline()
            require(first.startswith("# "), f"{path.name}: no provenance header")
            header = json.loads(first[2:])
            columns = f.readline().strip().split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    else:
        doc = json.loads(path.read_text())
        header, columns = doc["header"], doc["columns"]
        data = np.array(doc["rows"], dtype=float).reshape(-1, len(columns))
    require(data.shape[1] == len(columns), f"{path.name}: ragged table")
    return header, {name: data[:, i] for i, name in enumerate(columns)}


def _complex(cols, re="re_E", im="im_E") -> np.ndarray:
    return cols[re] + 1j * cols[im]


# --- checks of one output ---------------------------------------------------


def check_bands(table, blocks, nu: int) -> None:
    """Band loci (k, band, re_E, im_E[, re_j_S, im_j_S]) and the header ``nu``."""
    header, cols = table
    n = int(header["kpoints"])
    require(len(cols["k"]) == 2 * n, "band table does not hold two rows per k")
    k = cols["k"].reshape(n, 2)
    require(np.all(k[:, 0] == k[:, 1]), "band rows are not paired by k")
    require(np.allclose(k[:, 0], 2 * np.pi * np.arange(n) / n, rtol=0, atol=1e-12), "k grid is not uniform")
    require(np.all(cols["band"].reshape(n, 2) == [0, 1]), "band labels are not 0, 1")
    E = _complex(cols).reshape(n, 2)
    own = np.linalg.eigvals(bloch(blocks, k[:, 0]))
    same = np.abs(E - own).max(axis=1)
    swapped = np.abs(E - own[:, ::-1]).max(axis=1)
    scale = np.abs(own).max()
    err = np.minimum(same, swapped).max()
    require(err <= LOCI_TOL * scale, f"band loci differ from the 2x2 solve by {err:.2e} (scale {scale:.2e})")
    if "re_j_S" in cols:
        raw = _complex(cols, "re_j_S", "im_j_S")
        scaled = _complex(cols) * (1j * float(header["omega_rad_s"]) * NF)
        require(np.abs(raw - scaled).max() <= 1e-12 * np.abs(raw).max(), "re_j_S/im_j_S do not match re_E/im_E")
    require(header.get("nu") == nu, f"header nu = {header.get('nu')}, root count gives {nu}")


def check_trace_identities(E: np.ndarray, H: np.ndarray) -> None:
    n = H.shape[0]
    require(len(E) == n, f"{len(E)} eigenvalues for a {n}x{n} chain")
    fro = np.linalg.norm(H)
    err1 = abs(E.sum() - np.trace(H))
    err2 = abs((E * E).sum() - np.sum(H * H.T))
    require(err1 <= TRACE_TOL * fro * math.sqrt(n), f"sum E differs from tr H by {err1:.2e}")
    require(err2 <= TRACE_TOL * fro * fro, f"sum E^2 differs from tr H^2 by {err2:.2e}")


def check_eigenvalues(table, H: np.ndarray) -> None:
    """Open-chain spectrum (index, re_E, im_E[, re_j_S, im_j_S])."""
    _, cols = table
    require(np.array_equal(cols["index"], np.arange(len(cols["index"]))), "indices are not 0..n-1")
    check_trace_identities(_complex(cols), H)


def localization(D: np.ndarray) -> tuple:
    """(gamma, counts of Left/Right states) from an (n_states, N) density array."""
    N = D.shape[1]
    w = math.ceil(WINDOW_FRACTION * N)
    d_left = math.fsum(D[:, :w].ravel())
    d_right = math.fsum(D[:, N - w:].ravel())
    w_left = D[:, :w].sum(axis=1)
    w_right = D[:, N - w:].sum(axis=1)
    left = int(np.sum(w_left > LOC_THRESHOLD))
    right = int(np.sum((w_right > LOC_THRESHOLD) & ~(w_left > LOC_THRESHOLD)))
    return (d_left - d_right) / (d_left + d_right), left, right


def check_states(table, H: np.ndarray, verdict: str | None, gamma_header=None) -> None:
    """Density rows (state_index, re_E, im_E, site, density).

    ``verdict`` is ``"bipolar"``, ``"right"`` or None. ``gamma_header``
    holds ``gamma`` and ``bipolar`` when the density table's own header
    does not carry them.
    """
    header, cols = table
    n = H.shape[0]
    N = n // 2
    require(len(cols["site"]) == n * N, f"{len(cols['site'])} density rows, expected {n * N}")
    idx = cols["state_index"].reshape(n, N)
    require(np.all(idx == np.arange(n)[:, None]), "density rows are not grouped by state")
    require(np.all(cols["site"].reshape(n, N) == np.arange(1, N + 1)), "sites are not 1..N per state")
    D = cols["density"].reshape(n, N)
    require(D.min() >= 0.0, "negative density")
    norm_err = np.abs(D.sum(axis=1) - 1.0).max()
    require(norm_err <= DENSITY_TOL, f"a state's densities sum to 1 +- {norm_err:.2e}")
    E = _complex(cols).reshape(n, N)
    require(np.all(E == E[:, :1]), "a state's eigenvalue changes along its rows")
    check_trace_identities(E[:, 0], H)
    meta = header if gamma_header is None else gamma_header
    if "gamma" not in meta:
        return
    g, left, right = localization(D)
    require(-1.0 <= meta["gamma"] <= 1.0, f"gamma {meta['gamma']} outside [-1, 1]")
    require(abs(meta["gamma"] - g) <= GAMMA_TOL, f"header gamma {meta['gamma']!r}, densities give {g!r}")
    bipolar = left >= BIPOLAR_FRACTION * n and right >= BIPOLAR_FRACTION * n
    require(meta["bipolar"] == bipolar, f"header bipolar {meta['bipolar']}, densities give {bipolar}")
    if verdict == "bipolar":
        require(bipolar, "chain should be bipolar")
    elif verdict == "right":
        require(not bipolar and right > left and g < 0, f"chain should be right-localized (gamma {g:.3f})")


def check_report(path, table) -> None:
    """The skin report agrees with its density table."""
    report = json.loads(Path(path).read_text())
    header, cols = table
    require(report["gamma"] == header["gamma"] and report["bipolar"] == header["bipolar"],
            "report and density header disagree")
    n = len(report["states"])
    D = cols["density"].reshape(n, -1)
    _, left, right = localization(D)
    require(report["counts"]["Left"] == left and report["counts"]["Right"] == right,
            f"report counts {report['counts']}, densities give Left {left}, Right {right}")


def check_sweep(table, t_axis: np.ndarray, model: dict, sentinel: int) -> tuple:
    """Phase-diagram rows; returns (rejected cells, wrong cells)."""
    _, cols = table
    n = len(t_axis)
    require(len(cols["nu"]) == n * n, f"{len(cols['nu'])} cells, expected {n * n}")
    tL = cols["tL"].reshape(n, n)
    tR = cols["tR"].reshape(n, n)
    require(np.allclose(tL, t_axis[:, None], rtol=0, atol=1e-12), "tL column is not the sweep axis")
    require(np.allclose(tR, t_axis[None, :], rtol=0, atol=1e-12), "tR column is not the sweep axis")
    rejected = wrong = 0
    for a, b, nu, g in zip(cols["tL"], cols["tR"], cols["nu"], cols["gamma"]):
        if nu == sentinel or not np.isfinite(g):
            rejected += 1
        elif nu != braiding_degree(dict(model, tL=a, tR=b)) or not -1.0 <= g <= 1.0:
            wrong += 1
    return rejected, wrong

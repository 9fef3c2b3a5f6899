"""The benchmark's four workloads: their inputs, operations and checks.

Each workload function takes the run's seed and returns a :class:`Workload`. Its
``round`` is the list of operations one round runs; a run repeats whole
rounds. ``checks`` maps each operation id to a function that verifies one
output of that operation with :mod:`checks` and returns how many of the
operation's ``weight`` units failed (rejected) and were wrong.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks as C

NAMES = ("sweep", "recipes", "big_chain", "invariants")

#: Sweep: fig1b's parameters at a resolution that keeps one command to seconds.
SWEEP_RESOLUTION = 8
#: Phase-diagram sentinel for a rejected cell (nahn.topology.NU_SENTINEL).
NU_SENTINEL = 127
#: Sweep cells keep this distance between every root of P and |z| = 1.
SWEEP_ROOT_MARGIN = 0.02

#: big_chain: sites per chain (2N x 2N solves, about 1e5 density rows).
BIG_N = 224
#: big_chain: seeded relative jitter of the two hopping amplitudes.
BIG_JITTER = 0.01

#: invariants: parameter sets per round, k points, probes per profile side.
INV_SETS = 16
INV_KPOINTS = 1024
INV_PROFILE_SIDE = 6
#: invariants: roots of P and of E0^2 z^2 - P keep this distance from |z| = 1.
INV_ROOT_MARGIN = 0.03
#: invariants: profile probes skipped within this share of the spectrum's extent.
INV_PROFILE_SKIP = 0.05
#: invariants: probes each profile evaluates (the rest are skipped), so that a
#: round does the same work whatever the seed.
INV_PROFILE_EVALUATED = 20
#: invariants: band gap at least this many times the largest step along k.
INV_GAP_STEPS = 10.0


@dataclass
class Workload:
    round: list
    checks: dict
    warmup: list = field(default_factory=list)
    #: operations per unit of work that one op stands for (cells per sweep command)
    weight: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def read_recipe(path) -> dict:
    """Key-value recipe file as a dict (JSON literals where they parse)."""
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        try:
            out[key.strip()] = json.loads(value.strip())
        except json.JSONDecodeError:
            out[key.strip()] = value.strip()
    return out


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in cfg.items()))
    return path


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(name)])


def _cli(op_id: str, command: str, config: Path, fmt: str, *extra) -> dict:
    return {"id": op_id, "kind": "cli",
            "argv": [command, "--config", str(config), "--format", fmt, *extra], "fmt": fmt}


def _model_of(cfg: dict) -> dict:
    return {k: cfg[k] for k in ("t0", "tL", "tR", "dL", "dR")}


def _blocks(cfg: dict) -> tuple:
    return C.lattice_blocks(cfg) if "t0" in cfg else C.circuit_blocks(cfg)


def _nu(cfg: dict) -> int:
    return C.braiding_degree(_model_of(cfg) if "t0" in cfg else C.circuit_as_lattice(cfg))


def _out(d: Path, fmt: str, tag: str = "") -> Path:
    return d / f"out{tag}.{fmt}"


# --- checks of CLI outputs --------------------------------------------------
# Each returns (rejected, wrong) for an output directory.


def _bands_check(cfg):
    def check(d: Path, fmt: str):
        C.check_bands(C.read_table(_out(d, fmt)), _blocks(cfg), _nu(cfg))
        return 0, 0
    return check


def _spectrum_obc_check(cfg):
    def check(d: Path, fmt: str):
        C.check_eigenvalues(C.read_table(_out(d, fmt)), C.chain(_blocks(cfg), cfg["chain_N"]))
        return 0, 0
    return check


def _skin_check(cfg, verdict):
    def check(d: Path, fmt: str):
        table = C.read_table(_out(d, fmt))
        C.check_states(table, C.chain(_blocks(cfg), cfg["chain_N"]), verdict)
        C.check_report(d / "out.report.json", table)
        return 0, 0
    return check


def _measure_ring_check(cfg):
    def check(d: Path, fmt: str):
        blocks = _blocks(cfg)
        C.check_bands(C.read_table(_out(d, fmt)), blocks, _nu(cfg))
        C.check_states(C.read_table(_out(d, fmt, ".states")), C.chain(blocks, cfg["chain_N"], True), None)
        return 0, 0
    return check


def _measure_open_check(cfg, verdict):
    def check(d: Path, fmt: str):
        H = C.chain(_blocks(cfg), cfg["chain_N"])
        main = C.read_table(_out(d, fmt))
        C.check_eigenvalues(main, H)
        C.check_states(C.read_table(_out(d, fmt, ".states")), H, verdict, gamma_header=main[0])
        return 0, 0
    return check


# --- workloads --------------------------------------------------------------


def recipes(seed: int, root: Path, work: Path) -> Workload:
    """Every shipped recipe but the two 50x50 sweeps, through its documented command."""
    rdir = root / "recipes"
    cfg = {name: read_recipe(rdir / f"{name}.cfg") for name in
           ("fig1c", "fig1d", "fig1f", "fig1g", "fig3b", "fig3c", "fig3d", "fig4abc", "fig4def")}
    measure_seeds = [int(s) for s in _rng(seed, "recipes").integers(0, 1_000_000, size=2)]
    verdicts = {"fig1g": "bipolar", "fig4abc": "right", "fig4def": "bipolar"}
    plan = []  # (command, recipe, extra arguments, check)
    for name in ("fig1c", "fig1d", "fig1f"):
        plan.append(("spectrum", name, (), _bands_check(cfg[name])))
    for name in ("fig3b", "fig3c", "fig3d"):
        plan.append(("spectrum", name, (), _bands_check(cfg[name])))
    for name in ("fig1g", "fig4abc", "fig4def"):
        plan.append(("spectrum", name, (), _spectrum_obc_check(cfg[name])))
        plan.append(("skin", name, (), _skin_check(cfg[name], verdicts[name])))
    for s in measure_seeds:
        for name in ("fig3b", "fig3c", "fig3d"):
            plan.append(("measure", name, ("--seed", str(s)), _measure_ring_check(cfg[name])))
        for name in ("fig4abc", "fig4def"):
            plan.append(("measure", name, ("--seed", str(s)), _measure_open_check(cfg[name], verdicts[name])))
    ops, checks = [], {}
    for fmt in ("csv", "json"):
        for command, name, extra, check in plan:
            op = _cli(f"{command}:{name}:{fmt}{':' + extra[1] if extra else ''}", command,
                      rdir / f"{name}.cfg", fmt, *extra)
            ops.append(op)
            checks[op["id"]] = check
    n_csv = len(plan)
    return Workload(ops, checks, warmup=list(range(n_csv)),
                    info={"commands_per_round": len(ops), "measure_seeds": measure_seeds})


def big_chain(seed: int, root: Path, work: Path) -> Workload:
    """skin and open-chain spectrum on fig1g and fig4def at BIG_N sites."""
    rng = _rng(seed, "big_chain")
    jitter = 1.0 + BIG_JITTER * rng.uniform(-1.0, 1.0, size=4)
    lattice = read_recipe(root / "recipes" / "fig1g.cfg")
    lattice.update(chain_N=BIG_N, tL=lattice["tL"] * jitter[0], tR=lattice["tR"] * jitter[1])
    circuit = read_recipe(root / "recipes" / "fig4def.cfg")
    circuit.update(chain_N=BIG_N, C1_nF=circuit["C1_nF"] * jitter[2], C2_nF=circuit["C2_nF"] * jitter[3])
    paths = {"fig1g": write_config(work / "fig1g_big.cfg", lattice),
             "fig4def": write_config(work / "fig4def_big.cfg", circuit)}
    cfgs = {"fig1g": lattice, "fig4def": circuit}
    ops, checks = [], {}
    for name, fmt in (("fig1g", "csv"), ("fig4def", "json")):
        for command, check in (("skin", _skin_check(cfgs[name], "bipolar")),
                               ("spectrum", _spectrum_obc_check(cfgs[name]))):
            op = _cli(f"{command}:{name}:{fmt}", command, paths[name], fmt)
            ops.append(op)
            checks[op["id"]] = check
    return Workload(ops, checks, warmup=[1],
                    info={"chain_N": BIG_N, "fig1g": {k: lattice[k] for k in ("tL", "tR")},
                          "fig4def": {k: circuit[k] for k in ("C1_nF", "C2_nF")}})


def sweep(seed: int, root: Path, work: Path, threads: int, traced: bool) -> Workload:
    """One `nahn phase-diagram` per round, in a fresh process."""
    rng = _rng(seed, "sweep")
    cfg = read_recipe(root / "recipes" / "fig1b.cfg")
    model = _model_of(cfg)
    while True:  # seeded upper edge whose cells all keep a margin from phase boundaries
        t_max = cfg["t_max"] * (1.0 + 0.05 * rng.uniform())
        # the cell axis of nahn.topology.compute_phase_diagram
        axis = cfg["t_min"] + (t_max - cfg["t_min"]) * (np.arange(SWEEP_RESOLUTION) + 1) / SWEEP_RESOLUTION
        if all(C.root_margin(C.quartic(dict(model, tL=a, tR=b)))[1] >= SWEEP_ROOT_MARGIN
               for a in axis for b in axis):
            break
    cfg.update(resolution=SWEEP_RESOLUTION, t_max=t_max)
    path = write_config(work / "sweep.cfg", cfg)
    args = ["phase-diagram", "--config", str(path), "--threads", str(threads), "--format", "csv"]
    if traced:
        argv = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(work / "spans.jsonl"), *args]
    else:
        argv = [sys.executable, "-m", "nahn", *args]
    op = {"id": "phase-diagram", "kind": "proc", "argv": argv, "fmt": "csv"}

    def check(d: Path, fmt: str):
        return C.check_sweep(C.read_table(_out(d, fmt)), axis, model, NU_SENTINEL)

    cells = SWEEP_RESOLUTION * SWEEP_RESOLUTION
    return Workload([op], {op["id"]: check}, weight={op["id"]: cells},
                    info={"t_max": t_max, "cells_per_command": cells})


# --- invariants ---------------------------------------------------------------


def _unit(v: np.ndarray) -> list:
    return [float(x) for x in v / np.linalg.norm(v)]


def _spectrum(m: dict, n: int) -> tuple:
    """(E+ samples as one branch of sqrt(P(z))/z, the same grid's E^2)."""
    z = np.exp(2j * np.pi * np.arange(n) / n)
    E2 = np.polyval(C.quartic(m), z) / (z * z)
    return np.sqrt(E2), E2


def profile_probes(E: np.ndarray, side: int) -> list:
    """Reference energies of a winding profile over the spectrum's bounding box."""
    spec = np.concatenate([E, -E])
    re = np.linspace(spec.real.min(), spec.real.max(), side)
    im = np.linspace(spec.imag.min(), spec.imag.max(), side)
    return [complex(a, b) for a in re for b in im]


def invariant_set(rng: np.random.Generator) -> dict | None:
    """One random parameter set with its reference energy, or None if too close to a boundary."""
    m = {"t0": float(rng.uniform(0.5, 2.0)), "tL": float(rng.uniform(0.3, 3.0)),
         "tR": float(rng.uniform(0.3, 3.0)), "dL": _unit(rng.normal(size=3)), "dR": _unit(rng.normal(size=3))}
    if C.root_margin(C.quartic(m))[1] < INV_ROOT_MARGIN:
        return None
    E, E2 = _spectrum(m, INV_KPOINTS)
    steps = np.abs(np.diff(np.append(E2, E2[0]))) / (np.abs(E) + np.abs(np.roll(E, -1)))
    if 2 * np.abs(E).min() < INV_GAP_STEPS * steps.max():
        return None
    spec = np.concatenate([E, -E])
    extent = max(np.ptp(spec.real), np.ptp(spec.imag))
    min_distance = INV_PROFILE_SKIP * extent
    evaluated = 0
    for E0 in profile_probes(E, INV_PROFILE_SIDE):
        dist = np.abs(spec - E0).min()
        if abs(dist - min_distance) < 1e-6 * extent:
            return None
        if dist >= min_distance:
            evaluated += 1
            if C.winding_margin(m, E0) < INV_ROOT_MARGIN:
                return None
    if evaluated != INV_PROFILE_EVALUATED:
        return None
    for _ in range(50):
        E0 = complex(rng.uniform(spec.real.min(), spec.real.max()), rng.uniform(spec.imag.min(), spec.imag.max()))
        if C.winding_margin(m, E0) >= INV_ROOT_MARGIN and np.abs(spec - E0).min() >= min_distance:
            break
    else:
        return None
    gap = 2 * np.abs(E)
    tol = float(rng.uniform(0.2, 0.6))
    if np.abs(gap / gap.max() - tol).min() < 1e-6:
        return None
    return {"model": m, "E0": [E0.real, E0.imag], "min_distance": min_distance, "ep_tol": tol}


def invariants(seed: int, root: Path, work: Path) -> Workload:
    """In-process topology calls on seeded random general parameters."""
    rng = _rng(seed, "invariants")
    sets = []
    while len(sets) < INV_SETS:
        s = invariant_set(rng)
        if s is not None:
            sets.append(s)
    ops, checks = [], {}
    for i, s in enumerate(sets):
        for fn in ("braiding_degree", "spectral_winding", "spectral_winding_profile",
                   "exceptional_scan", "band_resolved_winding"):
            op = {"id": f"{fn}:{i}", "kind": "call", "fn": fn, "kpoints": INV_KPOINTS,
                  "side": INV_PROFILE_SIDE, **s}
            ops.append(op)
            checks[op["id"]] = _invariant_check(fn, s)
    return Workload(ops, checks, warmup=list(range(len(ops))),
                    info={"parameter_sets": INV_SETS, "kpoints": INV_KPOINTS})


def _invariant_check(fn: str, s: dict):
    m = s["model"]
    E0 = complex(*s["E0"])

    def check(result, _fmt=None):
        if fn == "braiding_degree":
            C.require(result == C.braiding_degree(m), f"nu {result}, root count {C.braiding_degree(m)}")
        elif fn == "spectral_winding":
            C.require(result == C.point_gap_winding(m, E0), f"w {result}, root count {C.point_gap_winding(m, E0)}")
        elif fn == "band_resolved_winding":
            C.require(sum(result) == C.point_gap_winding(m, E0),
                      f"loop windings {result} do not sum to w = {C.point_gap_winding(m, E0)}")
        elif fn == "spectral_winding_profile":
            E, _ = _spectrum(m, INV_KPOINTS)
            probes = profile_probes(E, INV_PROFILE_SIDE)
            spec = np.concatenate([E, -E])
            C.require(len(result) == len(probes), f"{len(result)} probes, expected {len(probes)}")
            for (re, im, w), E0p in zip(result, probes):
                C.require(abs(complex(re, im) - E0p) <= 1e-9 * (1 + abs(E0p)), f"probe {complex(re, im)} not on the grid")
                if np.abs(spec - E0p).min() < s["min_distance"]:
                    C.require(w is None, f"probe {E0p} on the spectrum got w = {w}")
                else:
                    C.require(w == C.point_gap_winding(m, E0p), f"probe {E0p}: w {w}, root count {C.point_gap_winding(m, E0p)}")
        elif fn == "exceptional_scan":
            E, _ = _spectrum(m, INV_KPOINTS)
            gap = 2 * np.abs(E)
            k = 2 * np.pi * np.arange(INV_KPOINTS) / INV_KPOINTS
            expected = k[gap < s["ep_tol"] * gap.max()]
            C.require(len(result) == len(expected) and np.allclose(result, expected, rtol=0, atol=1e-12),
                      f"scan found {len(result)} points, expected {len(expected)}")
        return 0, 0
    return check


def build(name: str, seed: int, root: Path, work: Path, traced: bool) -> Workload:
    if name == "sweep":
        return sweep(seed, root, work, nproc(), traced)
    return {"recipes": recipes, "big_chain": big_chain, "invariants": invariants}[name](seed, root, work)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


"""Timed loop of one benchmark run: ``python3 bench/worker.py PLAN.json``.

The plan (written by run.py) lists one round of operations. The worker
runs untimed warm-up operations, then whole rounds until ``seconds`` have
passed, and writes per-operation wall time, CPU time and an output key to
``results.json`` in the plan's work directory. Operations are:

- ``cli``: ``nahn.cli.main(argv)`` in this process;
- ``call``: one public nahn function in this process;
- ``proc``: a child process, timed from spawn to exit, with its CPU time
  and peak memory from ``wait4``.

Output files are hashed outside the timed region; only the first copy of
each distinct output is kept for checking, so the check cost does not grow
with the run.
"""

from __future__ import annotations

import hashlib
import json
from array import array
import os
import resource
import shutil
import sys
import time
from pathlib import Path


def spawn(argv, env, cwd, stdout=os.devnull, stderr=os.devnull):
    """Run argv to completion; returns (exit code, wall s, cpu s, peak RSS kB)."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)]
    here = os.getcwd()
    os.chdir(cwd)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    finally:
        os.chdir(here)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def _call(op):
    """A zero-argument closure for an in-process nahn call, its inputs built untimed."""
    import numpy as np
    from nahn import topology as topo
    from nahn.eigensolve import sort_bands_by_continuity
    from nahn.model import ModelParams, analytic_eigenvalues

    p = ModelParams.from_dict(op["model"])
    grid = topo.KGrid(op["kpoints"])
    E0 = complex(*op["E0"])
    fn = op["fn"]
    if fn == "braiding_degree":
        return lambda: topo.braiding_degree(p, grid)
    if fn == "spectral_winding":
        return lambda: topo.spectral_winding(p, E0, grid)
    if fn == "spectral_winding_profile":
        side = op["side"]
        return lambda: topo.spectral_winding_profile(p, side, side, 0.0, grid, op["min_distance"])
    if fn == "exceptional_scan":
        return lambda: topo.exceptional_scan(p, grid, op["ep_tol"])
    if fn == "band_resolved_winding":
        e_plus, e_minus = analytic_eigenvalues(p, grid.values)
        traj = sort_bands_by_continuity(grid.values, np.column_stack([e_plus, e_minus]))
        return lambda: topo.band_resolved_winding(traj, E0)
    raise ValueError(f"unknown call {fn!r}")


def _plain(result):
    """JSON form of a call's result."""
    if hasattr(result, "tolist"):
        return result.tolist()
    if isinstance(result, list) and result and isinstance(result[0], tuple):
        return [[e.real, e.imag, w] for e, w in result]
    return result


class Runner:
    def __init__(self, plan):
        self.plan = plan
        self.work = Path(plan["work"])
        self.cur = self.work / "cur"
        self.keep = self.work / "keep"
        self.keep.mkdir(parents=True, exist_ok=True)
        self.outputs = {}  # key -> {"dir" | "result" | "error"}
        self.key_index = {}  # key -> position in self.outputs
        self.env = plan["child_env"]
        self.child_rss_kb = 0
        self.kept = 0

    def prepare(self, op):
        if op["kind"] == "call":
            return _call(op)
        argv = op["argv"] + ["--out", str(self.cur / f"out.{op['fmt']}")]
        if op["kind"] == "cli":
            from nahn.cli import main
            return lambda: main(argv)
        log = self.work / "child.stderr"
        return lambda: spawn(argv, self.env, self.plan["root"], stderr=log)

    def run(self, op, fn):
        """Run one operation; returns (wall s, cpu s, index of its output key)."""
        if self.cur.exists():
            shutil.rmtree(self.cur)
        self.cur.mkdir()
        error = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if op["kind"] == "proc":
            code, wall, cpu, rss = result
            self.child_rss_kb = max(self.child_rss_kb, rss)
            error = error or (f"exit code {code}" if code else None)
        elif op["kind"] == "cli" and error is None and result != 0:
            error = f"exit code {result}"
        if error is not None:
            key = f"{op['id']}|error|{error}"
            self.outputs.setdefault(key, {"error": error})
        elif op["kind"] == "call":
            plain = _plain(result)
            key = f"{op['id']}|{json.dumps(plain)}"
            self.outputs.setdefault(key, {"result": plain})
        else:
            digest = hashlib.sha256()
            for f in sorted(self.cur.iterdir()):
                digest.update(f.name.encode())
                digest.update(f.read_bytes())
            key = f"{op['id']}|{digest.hexdigest()}"
            if key not in self.outputs:
                kept = self.keep / str(self.kept)
                self.kept += 1
                self.cur.rename(kept)
                self.outputs[key] = {"dir": str(kept)}
        return wall, cpu, self.key_index.setdefault(key, len(self.key_index))


def main(plan_path):
    plan = json.loads(Path(plan_path).read_text())
    tracer = None
    if plan["trace"] and plan["round"][0]["kind"] != "proc":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    runner = Runner(plan)
    prepared = [runner.prepare(op) for op in plan["round"]]
    for i in plan["warmup"]:
        runner.run(plan["round"][i], prepared[i])
    runner.outputs.clear()
    runner.key_index.clear()
    if tracer is not None:
        tracer.reset()
    # compact per-operation records, so memory does not grow with the op count
    index, walls, cpus, keys = array("i"), array("d"), array("d"), array("i")
    start = time.perf_counter()
    while time.perf_counter() - start < plan["seconds"]:
        for i, (op, fn) in enumerate(zip(plan["round"], prepared)):
            wall, cpu, key = runner.run(op, fn)
            index.append(i)
            walls.append(wall)
            cpus.append(cpu)
            keys.append(key)
    window = time.perf_counter() - start
    rss = max(runner.child_rss_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              if plan["round"][0]["kind"] != "proc" else 0)
    if tracer is not None:
        tracer.dump(runner.work / "spans.jsonl")
    key_names = list(runner.key_index)
    records = [[i, w, c, key_names[k]] for i, w, c, k in zip(index, walls, cpus, keys)]
    out = {"records": records, "outputs": runner.outputs, "peak_rss_kb": rss, "window_s": window}
    (runner.work / "results.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main(sys.argv[1]))

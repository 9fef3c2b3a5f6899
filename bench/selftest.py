"""Show that each workload's check counts a wrong answer as a failed operation.

``python3 bench/selftest.py`` (from the checkout root) runs one real
operation of each kind through the benchmark's own runner, corrupts its
output in one of three ways, and feeds it to the same tally a benchmark run
uses:

- ``nu`` shifted by 2 (a spectrum header, a sweep cell, an in-process call);
- one density row changed, so that its state is no longer normalized;
- the last eigenvalue of an open-chain spectrum dropped.

Each clean output must pass and each corrupted one must count as failed,
with ``correct`` false. The sweep here runs with ``OPENBLAS_NUM_THREADS=1``
to keep it short. Exits 1 if any case does not behave so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))

SEED = 7


def _lines(path: Path) -> list:
    return path.read_text().splitlines(keepends=True)


def shift_header_nu(d: Path):
    lines = _lines(d / "out.csv")
    header = json.loads(lines[0][2:])
    header["nu"] += 2
    lines[0] = "# " + json.dumps(header, sort_keys=True) + "\n"
    (d / "out.csv").write_text("".join(lines))


def shift_cell_nu(d: Path):
    lines = _lines(d / "out.csv")
    cells = lines[2].rstrip("\n").split(",")
    cells[2] = str(int(cells[2]) + 2)
    lines[2] = ",".join(cells) + "\n"
    (d / "out.csv").write_text("".join(lines))


def unnormalize_density(name: str):
    def corrupt(d: Path):
        lines = _lines(d / name)
        cells = lines[2].rstrip("\n").split(",")
        cells[-1] = repr(float(cells[-1]) + 0.01)
        lines[2] = ",".join(cells) + "\n"
        (d / name).write_text("".join(lines))
    return corrupt


def drop_eigenvalue(d: Path):
    (d / "out.csv").write_text("".join(_lines(d / "out.csv")[:-1]))


def shift_result(result):
    return result + 2


CASES = {
    "recipes": [("spectrum:fig1c:csv", "nu + 2", shift_header_nu),
                ("skin:fig4def:csv", "unnormalized density row", unnormalize_density("out.csv")),
                ("measure:fig4abc:csv", "unnormalized density row", unnormalize_density("out.states.csv")),
                ("spectrum:fig1g:csv", "dropped eigenvalue", drop_eigenvalue)],
    "big_chain": [("skin:fig1g:csv", "unnormalized density row", unnormalize_density("out.csv")),
                  ("spectrum:fig1g:csv", "dropped eigenvalue", drop_eigenvalue)],
    "sweep": [("phase-diagram", "nu + 2 in one cell", shift_cell_nu)],
    "invariants": [("braiding_degree:0", "nu + 2", shift_result),
                   ("spectral_winding:0", "w + 2", shift_result)],
}


def case(workload, runner, op_id, corrupt) -> tuple:
    """(clean (attempted, failed, wrong), corrupted (attempted, failed, wrong))."""
    i = next(j for j, op in enumerate(workload.round) if op["id"].startswith(op_id))
    op = workload.round[i]
    _, _, k = runner.run(op, runner.prepare(op))
    key = list(runner.key_index)[k]
    clean = dict(runner.outputs[key])
    results = {"records": [[i, 0.0, 0.0, key]], "outputs": {key: clean}}
    before = run.tally(workload, results)[:3]
    if "dir" in clean:
        broken_dir = Path(clean["dir"] + "-broken")
        shutil.copytree(clean["dir"], broken_dir)
        corrupt(broken_dir)
        broken = {"dir": str(broken_dir)}
    else:
        broken = {"result": corrupt(clean["result"])}
    results["outputs"] = {key: broken}
    after = run.tally(workload, results)[:3]
    return before, after


def main() -> int:
    work = run.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    ok = True
    try:
        for name, cases in CASES.items():
            wdir = work / name
            wdir.mkdir(parents=True)
            env = dict(run.child_environment(), OPENBLAS_NUM_THREADS="1")
            workload = workloads.build(name, SEED, run.ROOT, wdir, False)
            runner = Runner({"work": str(wdir), "child_env": env, "root": str(run.ROOT)})
            for op_id, what, corrupt in cases:
                (a0, f0, w0), (a1, f1, w1) = case(workload, runner, op_id, corrupt)
                caught = f0 == 0 and w0 == 0 and f1 > 0 and w1 > 0
                ok &= caught
                print(f"{name:10s} {op_id:22s} {what:26s} clean: {f0}/{a0} failed   "
                      f"corrupted: {f1}/{a1} failed, correct={w1 == 0}   {'ok' if caught else 'NOT CAUGHT'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

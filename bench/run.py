"""nahn benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout. The run

1. launches fresh interpreters that import ``nahn.cli`` and times them
   (``setup_s``);
2. builds the workload's inputs from ``--seed`` (see workloads.py);
3. starts bench/worker.py, which repeats whole rounds of the workload's
   operations for ``--seconds`` and times each one;
4. checks every distinct output apart from nahn (see checks.py);
5. prints the machine and thread environment on one line, then the result
   as the last line: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the worker wraps nahn's public functions and the metrics are per layer.
Child processes get the environment without any ``*_NUM_THREADS``
variable, so BLAS threads stay at the library default. The run writes only
under ``.bench_work/`` (removed at exit) and ``bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import spawn  # noqa: E402

#: Fresh interpreters launched per run to time set-up.
SETUP_LAUNCHES = 7
SETUP_CODE = (
    "import time; t1 = time.monotonic(); import numpy; t2 = time.monotonic(); "
    "import nahn.cli; t3 = time.monotonic(); print(repr(t1), repr(t2), repr(t3))"
)


def child_environment() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment(info: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": " ".join(str(blas.get("openblas configuration", "")).split())},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "child_num_threads_env": {},
        "sweep_pool_width": workloads.nproc(),
        **info,
    }


def measure_setup(env: dict, work: Path) -> list:
    """[(setup s, interpreter s, numpy import s, nahn import s)] for fresh launches."""
    out = []
    for i in range(SETUP_LAUNCHES):
        path = work / f"setup{i}.out"
        t0 = time.monotonic()
        code, *_ = spawn([sys.executable, "-c", SETUP_CODE], env, ROOT, stdout=path, stderr=work / "setup.err")
        if code != 0:
            raise RuntimeError(f"importing nahn.cli failed:\n{(work / 'setup.err').read_text()[-2000:]}")
        t1, t2, t3 = (float(x) for x in path.read_text().split())
        out.append((t3 - t0, t1 - t0, t2 - t1, t3 - t2))
    return out


def tally(workload, results: dict) -> tuple:
    """(attempted, failed, wrong, messages) over all timed operations."""
    by_id = {op["id"]: op for op in workload.round}
    verdict, messages = {}, []
    for key, out in results["outputs"].items():
        op_id = key.split("|", 1)[0]
        weight = workload.weight.get(op_id, 1)
        if "error" in out:
            verdict[key] = (weight, 0)
            messages.append(f"{op_id}: {out['error']}")
            continue
        target = Path(out["dir"]) if "dir" in out else out["result"]
        try:
            verdict[key] = workload.checks[op_id](target, by_id[op_id].get("fmt"))
        except (checks.CheckError, ValueError, TypeError, KeyError, IndexError, OSError) as exc:
            verdict[key] = (0, weight)
            messages.append(f"{op_id}: {type(exc).__name__}: {exc}")
    attempted = failed = wrong = 0
    for i, _, _, key in results["records"]:
        weight = workload.weight.get(workload.round[i]["id"], 1)
        rejected, bad = verdict[key]
        attempted += weight
        failed += rejected + bad
        wrong += bad
    return attempted, failed, wrong, messages


def end_to_end(results: dict, setups: list, attempted: int) -> dict:
    lat = [r[1] for r in results["records"]]
    timed = sum(lat)
    cpu = sum(r[2] for r in results["records"])
    return {
        "setup_s": statistics.median(s[0] for s in setups),
        "ops_per_s": attempted / timed,
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_p90_ms": 1000.0 * float(np.percentile(lat, 90)),
        "cpu_ms_per_op": 1000.0 * cpu / attempted,
        "peak_rss_mb": results["peak_rss_kb"] / 1024.0,
    }


def per_layer(work: Path, setups: list, attempted: int) -> dict:
    import tracing

    metrics = {
        "process.interpreter_ms": 1000.0 * statistics.median(s[1] for s in setups),
        "process.numpy_import_ms": 1000.0 * statistics.median(s[2] for s in setups),
        "process.nahn_import_ms": 1000.0 * statistics.median(s[3] for s in setups),
    }
    metrics.update(tracing.summarize(tracing.load(work / "spans.jsonl"), attempted))
    return metrics


def run(args, work: Path) -> dict:
    env = child_environment()
    setups = measure_setup(env, work)
    workload = workloads.build(args.workload, args.seed, ROOT, work, bool(args.trace))
    plan = {"root": str(ROOT), "work": str(work), "seconds": args.seconds, "trace": bool(args.trace),
            "round": workload.round, "warmup": workload.warmup, "child_env": env}
    (work / "plan.json").write_text(json.dumps(plan))
    code, wall, _, _ = spawn([sys.executable, str(HERE / "worker.py"), str(work / "plan.json")], env, ROOT,
                             stdout=work / "worker.out", stderr=work / "worker.err")
    if code != 0:
        raise RuntimeError(f"worker exited with {code}:\n{(work / 'worker.err').read_text()[-4000:]}")
    results = json.loads((work / "results.json").read_text())
    attempted, failed, wrong, messages = tally(workload, results)
    for message in messages[:20]:
        print(f"failed: {message}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(work, setups, attempted)
    else:
        metrics = end_to_end(results, setups, attempted)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "ops": len(results["records"]), "window_s": results["window_s"], "worker_wall_s": wall,
               "ops_per_s": attempted / sum(r[1] for r in results["records"])}
    env_line = {"env": environment(workload.info), "run": summary}
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return env_line, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nahn" / "__init__.py").is_file() or not (ROOT / "recipes").is_dir():
        print(f"no nahn source tree (src/nahn, recipes/) under {ROOT}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env_line, result = run(args, work)
        results_dir = ROOT / "bench_results"
        results_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (results_dir / f"{stem}.json").write_text(json.dumps({**env_line, "result": result}, indent=1) + "\n")
        if args.trace:
            shutil.copyfile(work / "spans.jsonl", results_dir / f"{stem}.spans.jsonl")
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(env_line))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

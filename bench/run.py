"""Offline end-to-end benchmark of repoharvest.

Run from the root of a checkout:

    python3 bench/run.py --workload harvest-cold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all              # every workload, one process each
    python3 bench/run.py --workload all --record bench/baseline.json

One run sets the workload up ``SETUPS`` times, keeps the last set-up and
reports the median set-up time as ``setup_s``. It then repeats passes of
the program for ``--seconds`` and checks every pass's outputs against the
fixtures. A pass with wrong outputs counts as failed. The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` passes, and the
metrics, end-to-end with ``--trace 0`` and per-layer with ``--trace 1``.
A traced run alternates untraced and traced passes and reports the
difference of their median wall times as ``trace.overhead_s``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
END_TO_END = (
    ("wall_s", "s"),
    ("first_report_s", "s"),
    ("setup_s", "s"),
    ("github_requests", "count"),
    ("arxiv_requests", "count"),
    ("github_quota_units", "count"),
    ("repos_failed_frac", "fraction"),
    ("rss_peak_mb", "MB"),
)
WORKLOAD_NAMES = ("harvest-cold", "refresh-changed", "monitor-large")
SETUPS = 5


def _import_program(root: Path) -> bool:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import repoharvest
    except ImportError as exc:
        print(f"error: cannot import repoharvest from {src}: {exc}", file=sys.stderr)
        return False
    if src not in Path(repoharvest.__file__).resolve().parents:
        print(f"error: repoharvest resolved outside {src}", file=sys.stderr)
        return False
    return True


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path, trace_path: Path) -> dict:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    setup_times = []
    for i in range(SETUPS):
        if i:
            env.close()
            shutil.rmtree(env.workdir, ignore_errors=True)
        started = time.perf_counter()
        env = workload.setup(seed, workdir / f"setup{i}")
        setup_times.append(time.perf_counter() - started)

    plain, traced, layers = [], [], []
    try:
        started = time.perf_counter()
        while True:
            began = time.perf_counter()
            p = workloads.run_pass(env)
            p.problems = workloads.check(env, p)
            plain.append(p)
            if trace:
                tracer = tracing.Tracer()
                q = workloads.run_pass(env, tracer)
                q.problems = workloads.check(env, q)
                traced.append(q)
                layers.append(tracing.layer_metrics(tracer))
            took = time.perf_counter() - began
            if time.perf_counter() - started + took > seconds:
                break
    finally:
        env.close()
    if trace:
        tracer.dump(trace_path)  # the spans of the last traced pass

    passes = plain + traced
    for i, p in enumerate(passes):
        label = "traced" if i >= len(plain) else "pass"
        first = "-" if p.first_report_s is None else f"{p.first_report_s:.4f}"
        print(f"{label} {i + 1}: wall {p.wall_s:.4f} s, first report {first} s, "
              f"arxiv {p.arxiv_requests}, github {p.github_requests}, "
              f"quota {p.github_quota_units}, failed repos {len(p.failures)}"
              + ("" if not p.problems else " -- WRONG: " + "; ".join(p.problems)))
    exp = env.expected
    for label, observed, want, formula in (
        ("arxiv_requests", [p.arxiv_requests for p in passes], exp.arxiv_requests, exp.arxiv_formula),
        ("github_requests", [p.github_requests for p in passes], exp.github_requests, exp.github_formula),
        ("github_quota_units", [p.github_quota_units for p in passes], exp.github_requests,
         "every request; none is a 304"),
    ):
        verdict = "ok" if set(observed) == {want} else "MISMATCH"
        print(f"{name} seed {seed}: expected {label}={want} ({formula}), "
              f"observed {sorted(set(observed))} -> {verdict}")
    attempted = workloads.attempted_repos(plain[-1].output) or 0
    print(f"{name} seed {seed}: repositories attempted {attempted}, failed {len(plain[-1].failures)}")

    failed = sum(1 for p in passes if p.problems)
    if trace:
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        metrics["trace.wall_s"] = statistics.median(q.wall_s for q in traced)
        metrics["trace.untraced_wall_s"] = statistics.median(p.wall_s for p in plain)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        units = {key: _unit(key) for key in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in plain),
            "first_report_s": statistics.median(p.first_report_s or 0.0 for p in plain),
            "setup_s": statistics.median(setup_times),
            "github_requests": statistics.median(p.github_requests for p in plain),
            "arxiv_requests": statistics.median(p.arxiv_requests for p in plain),
            "github_quota_units": statistics.median(p.github_quota_units for p in plain),
            "repos_failed_frac": len(plain[-1].failures) / attempted if attempted else 1.0,
            "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    return {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def run_all(root: Path, seed: int, seconds: float, trace_modes: list[int], record: Path | None) -> int:
    """Each workload in a fresh process; prints a table of every metric."""
    results: dict[str, dict[int, dict]] = {}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in trace_modes:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(f"  {line}")
            if proc.returncode != 0 or not lines:
                print(f"{name} (trace {trace}) failed with status {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            results.setdefault(name, {})[trace] = result
            print(f"{name} (trace {trace}): correct={result['correct']} "
                  f"passes={result['attempted']} failed={result['failed']}")
            for key, metric in result["metrics"].items():
                print(f"    {key:34s} {metric['value']:>14.6g} {metric['unit']}")
    if record is not None and ok:
        _record(record, seed, seconds, results)
    return 0 if ok else 1


def _record(path: Path, seed: int, seconds: float, results: dict) -> None:
    import workloads

    doc = {
        "about": "Per-workload properties and the first measured numbers, "
                 "as the baseline later changes compare against.",
        "seed": seed,
        "run_seconds": seconds,
        "workloads": {},
    }
    for name, by_trace in results.items():
        workload = workloads.WORKLOADS[name]
        entry = {
            "why": workload.why,
            "time_scale": workload.scale,
            "modelled_delays_s": workloads.modelled_delays(),
            **workload.describe(),
        }
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            if trace in by_trace:
                entry[key] = {k: round(v["value"], 6) for k, v in by_trace[trace]["metrics"].items()}
        doc["workloads"][name] = entry
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="with --workload all: run both modes and write the baseline here")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not _import_program(root):
        return 2
    if args.workload == "all":
        modes = [0, 1] if args.record else [args.trace]
        return run_all(root, args.seed, args.seconds, modes, args.record)
    out = root / ".bench_out"
    workdir = out / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                         out / f"trace-{args.workload}-s{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""motivelab benchmark: closed-loop workloads over the public library API.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --smoke

One process, one caller, one thread. The command imports motivelab from the
``src`` directory next to this one, sets the workload up several times
(reporting the median), then runs whole rounds of the workload's operations
until ``--seconds`` have passed. Every output is checked against values
computed apart from the program; the checks run outside the timed region.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones (setup_s, wall_s, op_p50_ms, peak_rss_mb); with
``--trace 1`` they are the per-layer ones from a traced run, plus that run's
own wall time. ``--smoke`` runs every workload on tiny inputs, traced and
untraced, with every check on, and exits 0 only if all of them pass.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse                                              # noqa: E402
import json                                                  # noqa: E402
import random                                                # noqa: E402
import resource                                              # noqa: E402
import statistics                                            # noqa: E402
import subprocess                                            # noqa: E402
import sys                                                   # noqa: E402
from pathlib import Path                                     # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"


def import_motivelab() -> None:
    """Import motivelab from ROOT/src only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import motivelab
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import motivelab from {src}: {exc}")
    if Path(motivelab.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"benchmark: motivelab was imported from {motivelab.__file__}, not {src}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 setup_only: bool = False) -> dict:
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[name](smoke, random.Random(seed))
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()

    state = workload.setup()
    workload.warm_up(state)
    setup_s = time.perf_counter() - T_START
    if setup_only:
        return {"setup_s": setup_s}
    if tracer is not None:
        tracer.reset()

    # per_op[i]: the times of the operation at position i of the unshuffled
    # round, one per round; every round runs the same operations.
    per_op: dict[int, list[float]] = {}
    errors: list[str] = []
    attempted = failed = rounds = 0
    t_measure = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.start_round()
        for i, label, call, check in workload.ops(state, rounds == 0):
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:                         # counted, not fatal
                failed += 1
                errors.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            per_op.setdefault(i, []).append(time.perf_counter() - t0)
            err = check(result) if tracer is None else tracer.untraced(check, result)
            if err is not None:
                errors.append(f"{label}: {err}")
        rounds += 1
        if smoke or time.perf_counter() - t_measure >= seconds:
            break
    # Each operation's median over the rounds, so a stretch in which the
    # machine runs fast or slow moves the figures less.
    op_medians = [statistics.median(t) for t in per_op.values()]
    wall_s = sum(op_medians)

    for line in errors[:20]:
        print(f"benchmark: {name}: {line}", file=sys.stderr)
    checks_failed = len(errors) - failed
    if tracer is not None:
        metrics = tracer.layer_metrics(rounds)
        metrics["trace.wall_s"] = (wall_s, "s")
        write_trace(name, seed, rounds, tracer)
        tracer.remove()
    else:
        repeats = 1 if smoke else workload.setup_repeats
        samples = [setup_s] + [setup_in_child(name, seed) for _ in range(repeats - 1)]
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "wall_s": (wall_s, "s"),
            "op_p50_ms": (statistics.median(op_medians) * 1000 if op_medians else 0.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(f"benchmark: {name}: {rounds} round(s), {attempted} operations, "
          f"{failed} failed, {checks_failed} wrong outputs", file=sys.stderr)
    return {
        "correct": checks_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def setup_in_child(name: str, seed: int) -> float:
    """Set-up time of the workload in a new process, from its start."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def write_trace(name: str, seed: int, rounds: int, tracer) -> None:
    """Whole span table of a traced run, for reading beside the metrics."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed, "rounds": rounds,
                                "spans": tracer.span_table()}, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["multiplier", "chartable", "repring", "skeleton"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload on tiny inputs, traced and untraced")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for the "
                             "repeated set-up samples)")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    import_motivelab()
    sys.path.insert(0, str(HERE))
    if args.smoke:
        ok = True
        for name in ("multiplier", "chartable", "repring", "skeleton"):
            for trace in (False, True):
                t0 = time.perf_counter()
                res = run_workload(name, args.seed, 0.0, trace, True)
                good = res["correct"] and res["failed"] == 0
                ok &= good
                print(f"smoke {name:10s} trace={int(trace)} "
                      f"{'ok' if good else 'FAILED'} ({res['attempted']} operations, "
                      f"{time.perf_counter() - t0:.2f} s)")
        print(json.dumps({"smoke_ok": ok}))
        return 0 if ok else 1
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False,
                       args.setup_only)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

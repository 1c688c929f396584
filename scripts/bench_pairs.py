"""Collect alternating parent/change benchmark runs into one BENCH file.

Each argument is the result JSON of one run (``python3 perfbench/run.py
--workload W --seed N --trace T`` writes it to
``.perfbench-out/W-seedN-traceT.json``), given in the order the runs were
made.  A run belongs to the parent side when the commit in its
environment block starts with ``--parent``, otherwise to the change side.

    python3 scripts/bench_pairs.py --parent 92e38af --out BENCH_6.json runs/*.json

The output holds each side's ``src_lines`` (the ``src/`` line count its
runs' environment blocks report), every run (side, seed, order, the
gated end-to-end metrics, the behaviour-lock digest, the ``verify_calls``
count and the environment block) and, per workload, whether every pair's
digests match (a workload may hold one untraced run per seed and side,
so that no run drops out of its pair), whether every run was
``correct`` with no failed operation (``all_correct``), each side's median ``verify_calls`` (so a
fall in ``verified_per_ref`` reads as fewer calls or as slower ones)
and, per metric, each side's median and quartiles plus how many
same-seed pairs the change won.  Each metric's ``bad_move`` is the
change median's move from the parent median in the metric's worse
direction, relative to the parent median (negative when it moved the
better way); it is ``within_bound`` when it is at most the metric's
``bound`` from BENCHMARK.json, and a workload with both sides has
``no_regression`` when every metric is.  Traced (``--trace 1``) runs time the
program with wrappers around it, so they stay out of those figures; a
``traced`` block lists them per workload and side with the per-layer
metrics, the run's reference job (``reference_ms``) and, for each metric
in seconds or microseconds, ``<name>_ref``: the value in reference jobs,
which runs made at different hours can compare.  One traced run drifts
more than a small per-layer change, so ``traced_summary`` gives, per
workload and side, the median and quartiles of ``reference_ms`` and of
every ``<name>_ref`` over the traced runs.  Metric names, units
and directions are read from BENCHMARK.json, so the file follows the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# reference_ms times this is the reference job in a per-layer metric's unit
REFERENCE_UNITS = {"s": 1e-3, "us": 1e3}


def load_run(doc: dict, order: int, parent: str, metrics: list[str], timed: dict[str, str] | None = None) -> dict:
    env = doc["environment"]
    run = {
        "order": order,
        "side": "parent" if env["commit"].startswith(parent) else "change",
        "workload": doc["workload"],
        "seed": doc["seed"],
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
    }
    run.update({name: doc["metrics"][name]["value"] for name in metrics})
    if timed:
        reference_ms = run["reference_ms"] = doc["extra"]["reference_ms"]
        run.update({f"{name}_ref": run[name] / (reference_ms * REFERENCE_UNITS[unit]) for name, unit in timed.items()})
    run["digest"] = doc["counts"]["digest"]
    run["verify_calls"] = doc["counts"]["verify_calls"]
    run["environment"] = env
    return run


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def bad_move(parent: float, change: float, better: str, bound: float) -> dict:
    """How far the change median moved from the parent median in the
    worse direction, relative to the parent (None from a zero parent),
    and whether that is at most ``bound``."""
    worse = change - parent if better == "lower" else parent - change
    return {"bound": bound, "bad_move": worse / abs(parent) if parent else None, "within_bound": worse <= bound * abs(parent)}


def summarize(runs: list[dict], gates: dict[str, dict]) -> dict:
    summary = {}
    for workload in sorted({run["workload"] for run in runs}):
        mine = [run for run in runs if run["workload"] == workload]
        by_seed: dict[int, dict[str, dict]] = {}
        for run in mine:
            sides = by_seed.setdefault(run["seed"], {})
            if run["side"] in sides:  # a second run would replace the first in its pair
                raise ValueError(f"two untraced {run['side']} runs of {workload} at seed {run['seed']}")
            sides[run["side"]] = run
        pairs = [sides for sides in by_seed.values() if len(sides) == 2]
        present = [side for side in ("parent", "change") if any(run["side"] == side for run in mine)]
        entry = {
            "pairs": len(pairs),
            "digests_match": all(p["parent"]["digest"] == p["change"]["digest"] for p in pairs),
            "all_correct": all(run["correct"] and run["failed"] == 0 for run in mine),
            "verify_calls": {side: statistics.median(run["verify_calls"] for run in mine if run["side"] == side) for side in present},
        }
        for name, gate in gates.items():
            better = gate["better"]
            sign = 1 if better == "higher" else -1
            sides = {side: spread([run[name] for run in mine if run["side"] == side]) for side in present}
            wins = sum(sign * (p["change"][name] - p["parent"][name]) > 0 for p in pairs)
            entry[name] = {"better": better, **sides, "change_wins": wins}
            if len(sides) == 2:
                entry[name].update(bad_move(sides["parent"]["median"], sides["change"]["median"], better, gate["bound"]))
        if all("within_bound" in entry[name] for name in gates):
            entry["no_regression"] = all(entry[name]["within_bound"] for name in gates)
        summary[workload] = entry
    return summary


def src_lines(runs: list[dict]) -> dict[str, int]:
    """Each side's `src/` line count; the runs of one side must agree."""
    counts: dict[str, set[int]] = {}
    for run in runs:
        counts.setdefault(run["side"], set()).add(run["environment"]["src_lines"])
    for side, values in counts.items():
        if len(values) != 1:
            raise ValueError(f"{side} runs report different src_lines: {sorted(values)}")
    return {side: values.pop() for side, values in counts.items()}


def traced_block(runs: list[dict]) -> dict:
    """The traced runs by workload and side, in run order."""
    block: dict[str, dict[str, list[dict]]] = {}
    for run in runs:
        sides = block.setdefault(run.pop("workload"), {})
        sides.setdefault(run.pop("side"), []).append(run)
    return block


def traced_summary(block: dict, timed: dict[str, str]) -> dict:
    """The spread of each side's traced runs: their reference job and
    every figure in reference jobs."""
    keys = ["reference_ms", *(f"{name}_ref" for name in timed)]
    return {
        workload: {side: {key: spread([run[key] for run in mine]) for key in keys} for side, mine in sides.items()}
        for workload, sides in block.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit (or prefix) of the parent side")
    parser.add_argument("--out", required=True, help="where to write the BENCH JSON")
    parser.add_argument("runs", nargs="+", type=Path, help="result JSONs in the order they ran")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    gates = {gate["name"]: gate for gate in benchmark["end_to_end"]}
    layers = [metric["name"] for metric in benchmark["per_layer"]]
    timed = {metric["name"]: metric["unit"] for metric in benchmark["per_layer"] if metric["unit"] in REFERENCE_UNITS}
    runs, traced = [], []
    for order, path in enumerate(args.runs, 1):
        doc = json.loads(path.read_text())
        if doc["trace"]:
            traced.append(load_run(doc, order, args.parent, layers, timed))
        else:
            runs.append(load_run(doc, order, args.parent, list(gates)))
    doc = {"parent": args.parent, "src_lines": src_lines(runs + traced), "runs": runs, "summary": summarize(runs, gates)}
    if traced:
        doc["traced"] = traced_block(traced)
        doc["traced_summary"] = traced_summary(doc["traced"], timed)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

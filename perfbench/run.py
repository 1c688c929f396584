"""Campaign benchmark for diffcert.

    python3 perfbench/run.py --workload train --seed 1 --seconds 36 --trace 0

Runs one workload for the given number of seconds, prints every metric
by name with its unit, checks the campaign's outputs, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``).  The same object, the run environment and, in
traced mode, the span dump are written under ``.perfbench-out/``.  See
README.md next to this file for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("train", "random-panel", "random-pair")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1: corpus seed 1, campaign seed 11)")
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time; a run is at least one full set of campaigns")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 for the traced per-layer run")
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD's commit read from the .git directory, without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def blas_threads(numpy_module) -> int | None:
    """Thread count of the OpenBLAS that numpy ships with, if it can be asked."""
    libs = glob.glob(str(Path(numpy_module.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    src_lines = sum(len(path.read_bytes().splitlines()) for path in sorted(SRC.rglob("*.py")))
    return {
        "commit": git_commit(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(numpy),
        "src_lines": src_lines,
    }


def pinned_digest(workload, seed: int) -> str | None:
    """The behaviour-lock digest pinned for this workload, when the run
    uses the pinned seed and sizes; None otherwise."""
    pins = json.loads((HERE / "lock.json").read_text())
    pin = pins["workloads"].get(workload.name, {})
    sizes = {"corpus_size": workload.corpus_size, "episodes": workload.episodes, "parts": workload.parts}
    if seed != pins["seed"] or {key: pin.get(key) for key in sizes} != sizes:
        return None
    return pin["digest"]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "diffcert" / "__init__.py").is_file():
        print(f"error: no diffcert sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    digest = pinned_digest(workload, args.seed)

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        result = harness.measure(workload, args.seed, args.seconds, bool(args.trace), work_dir, digest)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    env = environment()
    tag = f"{workload.name}-seed{args.seed}"
    for name, value in result.metrics.items():
        unit, better = units[name]
        print(f"{name:<36} {value:>16.6g} {unit:<6} ({better} is better)")
    for name, value in result.extra.items():
        print(f"{name:<36} {value:>16.6g}")
    for note in result.notes:
        print(f"note: {note}")
    if digest is None:
        pin_state = "not pinned for this seed"
    elif digest == result.counts["digest"]:
        pin_state = "matches the pinned digest"
    else:
        pin_state = "differs from the pinned digest"
    print(f"behaviour lock {result.counts['digest']} ({pin_state})")
    for failure in result.failures:
        print(f"FAILED: {failure}")
    print(f"# env: {json.dumps(env, sort_keys=True)}")

    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in result.metrics.items()},
    }
    record = dict(line, workload=workload.name, seed=args.seed, trace=args.trace, seconds=args.seconds,
                  extra=result.extra, counts=result.counts, failures=result.failures, environment=env)
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if result.traced is not None:
        run = result.traced[0]  # one part is enough to read; the metrics cover them all
        with open(OUT / f"{tag}.spans.jsonl", "w", encoding="utf-8") as handle:
            for span in run.tracer.spans:
                handle.write(json.dumps({
                    "id": span.id, "parent": span.parent, "name": span.name,
                    "start_us": round(span.start * 1e6, 3), "end_us": round(span.end * 1e6, 3),
                    "self_us": round(span.self_s * 1e6, 3), "seed": span.seed,
                    "seed_id": run.seed_labels[span.seed] if span.seed >= 0 else None,
                }) + "\n")
    print(json.dumps(line))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

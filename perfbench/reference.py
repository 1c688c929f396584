"""The reference job: a fixed piece of work that shares no code with
diffcert, timed next to every campaign.

The speed of a shared host drifts by tens of percent over minutes, and
runs of the benchmark a few minutes apart see different speeds.  The
drift slows the reference job and the campaigns alike, so a campaign's
time divided by the reference time measured around it keeps the
program's cost and drops most of the host's drift.  A change to diffcert
cannot move the reference job: it imports nothing from the program.

The job mirrors the program's mix of work.  It walks nested
tag-length-value records into small dicts, the byte indexing, slicing,
recursion and small-object churn of a DER codec, and then pushes a small
batch through three dense layers and back, the numpy calls of a small
Q-network.  It takes 16-28 ms on a 2-core Xeon VM, depending on how
busy the host is, roughly half in each.

``setup_s`` must be given in seconds, so it is given at a fixed nominal
speed: a set-up's wall time over its reference time, times
``NOMINAL_SECONDS``.
"""

from __future__ import annotations

import time

import numpy as np

RECORDS_PER_JOB = 5000
PRODUCTS_PER_JOB = 180
NOMINAL_SECONDS = 0.020  # the job's wall time on a quiet 2-core Xeon VM


def _records(count: int) -> bytes:
    out = bytearray()
    for i in range(count):
        inner = bytes((0x02, 2, i & 0xFF, (i * 7) & 0xFF, 0x04, 3, 1, 2, 3))
        out += bytes((0x30, len(inner))) + inner
    return bytes(out)


RECORD_BYTES = 11
RECORDS = _records(64 * RECORDS_PER_JOB)  # 3.5 MB; each job walks the next slice
_next_slice = [0]

_rng = np.random.default_rng(5)
BATCH = _rng.standard_normal((32, 48))
LAYERS = [_rng.standard_normal((48, 64)) / 8.0, _rng.standard_normal((64, 64)) / 8.0, _rng.standard_normal((64, 48)) / 8.0]


def walk(data: bytes) -> list:
    """(tag, children or body) of each record; constructed tags recurse."""
    items, i = [], 0
    while i < len(data):
        tag, length = data[i], data[i + 1]
        body = data[i + 2 : i + 2 + length]
        items.append((tag, walk(body) if tag & 0x20 else body))
        i += 2 + length
    return items


def reference_seconds(records: int = RECORDS_PER_JOB, products: int = PRODUCTS_PER_JOB) -> float:
    """Wall time of one reference job: walk the next slice of records,
    keeping a bounded list of small dicts built from them, then push a
    small batch through three dense layers, forward and back."""
    slices = len(RECORDS) // (RECORD_BYTES * records)
    start = _next_slice[0] % slices * records * RECORD_BYTES
    _next_slice[0] += 1
    started = time.perf_counter()
    kept, total = [], 0
    for tag, children in walk(RECORDS[start : start + records * RECORD_BYTES]):
        kept.append({"tag": tag, "first": children[0][1], "last": children[-1][1], "count": len(children)})
        if len(kept) >= 512:
            total += sum(entry["count"] for entry in kept)
            kept = []
    total += sum(entry["count"] for entry in kept)
    grad = BATCH
    for _ in range(products):
        hidden = BATCH
        for weights in LAYERS:
            hidden = np.maximum(hidden @ weights, 0.0)
        grad = hidden
        for weights in reversed(LAYERS):
            grad = grad @ weights.T
    seconds = time.perf_counter() - started
    assert total == 2 * records and grad.shape == BATCH.shape, total
    return seconds


class ReferenceClock:
    """Runs the reference job between consecutive pieces of timed work.

    The job runs once before the first piece and once after each; a
    piece's reference time is the mean of the jobs just before and just
    after it.
    """

    def __init__(self, job=reference_seconds, warm_up: int = 3):
        for _ in range(warm_up):
            job()
        self.job = job
        self.jobs = [job()]

    def around(self, work):
        """(work's result, its reference time)."""
        result = work()
        self.jobs.append(self.job())
        return result, (self.jobs[-2] + self.jobs[-1]) / 2.0

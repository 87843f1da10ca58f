"""Drift-normalized time base.

On a shared host the same pure-Python work runs at noticeably
different speeds minutes apart.  The benchmark therefore times a fixed
reference kernel next to every measured interval and reports the
interval in *reference seconds*: the raw interval divided by the mean
of the two adjacent kernel times, multiplied by one nominal kernel
duration fixed here.  A slower host stretches the kernel and the job
alike, so their ratio stays put; a slower program stretches only the
job.

The kernel does object, dict, list and sort work in the proportions the
synthesis library does, imports nothing from the library and reads no
state the library can change.  The cyclic garbage collector is paused
while it runs, so garbage the library left behind cannot be collected
on the kernel's clock.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Duration one reference-kernel timing is scaled to.  It is the
#: kernel's typical median on the host the benchmark was calibrated on
#: (an x86-64 VM with 2 vCPUs, CPython 3.11), so reference seconds read
#: close to that host's wall seconds.
NOMINAL_KERNEL_S = 0.0009
_KERNEL_SIZE = 1000
_KERNEL_REPEATS = 3


class _Node:
    __slots__ = ("key", "label", "links")

    def __init__(self, key: int, label: str) -> None:
        self.key = key
        self.label = label
        self.links: list[_Node] = []


def _kernel_body(size: int) -> int:
    nodes = [_Node((i * 7919) % 1009, str(i)) for i in range(size)]
    buckets: dict[int, list[_Node]] = {}
    for node in nodes:
        buckets.setdefault(node.key % 97, []).append(node)
    for bucket in buckets.values():
        for left, right in zip(bucket, bucket[1:]):
            left.links.append(right)
    ordered = sorted(nodes, key=lambda node: (node.key, node.label))
    total = 0
    for node in ordered:
        total += len(node.links) + len(node.label)
    return total


_EXPECTED = _kernel_body(_KERNEL_SIZE)


def reference_kernel(repeats: int = _KERNEL_REPEATS) -> float:
    """Median wall time of ``repeats`` runs of the fixed kernel, in
    seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            result = _kernel_body(_KERNEL_SIZE)
            times.append(time.perf_counter() - started)
            if result != _EXPECTED:
                raise RuntimeError("reference kernel computed a wrong result")
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def normalize(wall_s: float, kernel_before: float,
              kernel_after: float) -> float:
    """``wall_s`` in reference seconds, given the adjacent kernel times."""
    return wall_s / ((kernel_before + kernel_after) / 2) * NOMINAL_KERNEL_S

"""The calibration kernel: a fixed piece of work that uses no branchlab code.

The benchmark runs on shared hosts whose speed for the same code changes by
up to 2x over seconds to minutes (NOTES.md). The runner times this kernel
every 0.05 s of solving and reports each solve's time in units of the
kernel's time measured just before and after it (`cal`), so that a slow
spell of the host lengthens both and cancels out, while a slower branchlab
shows in full.

The kernel mixes what branchlab's LP layer spends its time on: small
dense numpy solves and products, and interpreted Python loops over the
results. It takes 2 to 4 ms on a 2.1 GHz Xeon VM. Do not change it
between two measurements that are to be compared.
"""

from __future__ import annotations

import time

import numpy as np

N = 12
ROUNDS = 100
_A = np.random.default_rng(0).random((N, N)) + N * np.eye(N)
_B = np.ones(N)


def kernel() -> float:
    """The fixed work; returns a checksum so that none of it is skipped."""
    acc = 0.0
    for i in range(ROUNDS):
        x = np.linalg.solve(_A, _B + i)
        acc += float(np.abs(_A @ x - _B - i).max())
        d = {j: j * acc for j in range(30)}
        acc += sum(v for k, v in d.items() if k % 3) * 1e-9
    return acc


def timed() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0

"""Host speed: a kernel of fixed work, timed next to every timed call.

The shared host the benchmark was written on switches between a fast state
and one about 1.6x slower, each lasting from seconds to minutes, so the raw
seconds of a run depend on when it ran: over ten 36-second runs of the same
code the middle half of the strip's median repetition times spread by up to
29% of their median.  Timing this kernel right before and right after a call
and dividing the call's seconds by the kernel's slowdown removes most of
that (see README.md for the measurements).

The kernel does what klshell's hot loops do -- the Cox-de Boor recurrence in
Python on small numpy arrays, and an einsum over the quadrature tables of a
512-element mesh (330 kB) -- with its own code and data, so no change to
klshell changes its time.  It makes no container objects, so the size of
the garbage collector's heap does not change its time either.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# seconds the kernel takes at the reference speed: its median over the
# runs of the 2-core Xeon described in README.md, in the host's slow state
REFERENCE_S = 0.11
# kernel seconds sampled after a call, as a share of the call's seconds: a
# long call averages the host's speed over a long time, so it needs many
# samples to be compared with
BLOCK_SHARE = 0.1
_STEPS = 1000
_DEGREE = 3
_SPANS = 32
_KNOTS = np.concatenate([np.zeros(_DEGREE), np.linspace(0.0, 1.0, _SPANS + 1),
                         np.ones(_DEGREE)])
_TABLES = np.linspace(-1.0, 1.0, 512 * 9 * 9).reshape(512, 9, 9)


def _basis(span: int, theta: float) -> float:
    p, knots = _DEGREE, _KNOTS
    left = np.empty(p + 1)
    right = np.empty(p + 1)
    ndu = np.ones((p + 1, p + 1))
    for j in range(1, p + 1):
        left[j] = theta - knots[span + 1 - j]
        right[j] = knots[span + j] - theta
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved
    return float(ndu[0, p])


def kernel_seconds() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_STEPS):
        k = i % _SPANS
        acc += _basis(_DEGREE + k, (k + 0.5) / _SPANS)
        if i % 10 == 0:
            acc += float(np.einsum("qij,qjk->", _TABLES, _TABLES))
    seconds = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise ArithmeticError("speed kernel produced a non-finite sum")
    return seconds


def _block(seconds: float) -> list[float]:
    """Kernel samples, at least one, until they take ``seconds`` in all."""
    block = [kernel_seconds()]
    while sum(block) < seconds:
        block.append(kernel_seconds())
    return block


class Clock:
    """Times calls in seconds at the reference speed.

    A block of kernel samples is taken between consecutive calls, one
    sample or more, until the block has taken ``BLOCK_SHARE`` of the call
    before it.  A call's raw seconds are divided by the median of the
    samples in the blocks on either side of it over ``REFERENCE_S``.
    """

    def __init__(self):
        self.before = _block(0.0)
        self.samples = list(self.before)

    def scale(self, raw: float) -> float:
        """Scale the raw seconds of the call that just ended; sample again."""
        after = _block(BLOCK_SHARE * raw)
        self.samples += after
        slowdown = statistics.median(self.before + after) / REFERENCE_S
        self.before = after
        return raw / slowdown

"""Host speed reference: a fixed piece of work timed next to every sample.

The benchmark's reference machine is a shared 2-vCPU VM whose speed drifts by
up to 1.8x over tens of seconds, in CPU time as well as in wall time, with no
steal time reported, so other tenants' load slows every instruction. Raw
medians of 25 s runs then differ by 20-30% from run to run, more than any
bound a regression gate can use. The same drift slows a fixed piece of work,
so every timed sample is scaled by REFERENCE_S / (the time this work took
around it). On 4-minute traces of tfidf-dense and lda-cascades, that cut the
spread of 25 s medians from 0.18-0.23 to 0.04.

The work imitates the package's three kinds of cost: pure-Python dict and
list loops (the Gibbs sampler, the pairs loader), small numpy calls made one
at a time (the per-pair cosine), and numpy passes over arrays of 72,000
cells (calibration). It does not import the package, so a change to the
package cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

# What `reference_s` takes on the reference machine when it runs fast. It only
# sets the scale, so that scaled times read close to a fast host's wall time.
REFERENCE_S = 0.15

_rng = np.random.default_rng(0)
_VECS = _rng.random((300, 64))
_SCORES = _rng.random(72_000)
_LABELS = np.where(_rng.random(72_000) < 0.1, 1, -1).astype(np.int8)


def reference_s() -> float:
    """Wall time of the fixed reference work, in seconds."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for k in range(150_000):
        key = k % 1009
        counts[key] = counts.get(key, 0) + k
    sorted({str(i % 997) for i in range(40_000)})
    for i in range(300):
        u = _VECS[i]
        for j in range(0, 300, 10):
            v = _VECS[j]
            np.clip(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)), -1.0, 1.0)
    for theta in np.linspace(0.0, 1.0, 150):
        preds = np.where(_SCORES >= theta, 1, -1).astype(np.int8)
        int(((preds == 1) & (_LABELS == 1)).sum())
        int(((preds == 1) & (_LABELS == -1)).sum())
    return time.perf_counter() - start


def scaled(fn) -> tuple[float, float]:
    """Run fn() (which returns its own wall seconds) between two reference runs.

    Returns (raw seconds, seconds scaled to the reference speed).
    """
    before = reference_s()
    raw = fn()
    after = reference_s()
    return raw, raw * REFERENCE_S / ((before + after) / 2)

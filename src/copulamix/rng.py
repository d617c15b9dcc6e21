"""Deterministic random streams.

All randomness flows through counter-based Philox generators keyed by
(seed, purpose), so distinct purposes never share bits and results do not
depend on draw interleaving or worker scheduling:

* stream 0 drives the chain (initial state and per-step inversion uniforms),
* stream 1 feeds mixture selectors (convex component and singular branch),
* stream 2 produces the auxiliary i.i.d. normal sample.

Replication r of a master seed runs on ``derive_seed(master, r)``.  A batch
of replications takes its draws for one purpose as one matrix,
``open_uniform_rows``, whose row i is ``open_uniform(stream(seeds[i],
purpose), size)`` bit for bit: one bit generator is re-keyed per row, and the
lattice arithmetic runs once on the whole matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

CHAIN_STREAM = 0
SELECTOR_STREAM = 1
NORMAL_STREAM = 2

_MASK64 = (1 << 64) - 1
_LATTICE = 0.5 ** 52


def stream(seed: int, purpose: int) -> np.random.Generator:
    """Philox generator keyed by (seed, purpose)."""
    key = np.array([int(seed) & _MASK64, int(purpose) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(master: int, index: int) -> int:
    """Stable 64-bit sub-seed for replication ``index`` of ``master``."""
    ss = np.random.SeedSequence(entropy=[int(master) & _MASK64, int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def open_uniform(gen: np.random.Generator, size=None):
    """Uniform draws on the open interval (0, 1).

    Returns (k + 1/2) / 2**52 for a 52-bit integer k. Every such midpoint
    is exactly representable, so 0.0, 0.5 and 1.0 are never produced and
    quantile transforms stay finite. (A 53-bit lattice would round its top
    midpoint up to 1.0.)
    """
    k = gen.integers(0, 1 << 52, size=size, dtype=np.uint64)
    out = (k.astype(np.float64) + 0.5) * _LATTICE
    return float(out) if size is None else out


def open_uniform_rows(seeds: Sequence[int], purpose: int, size: int) -> np.ndarray:
    """Shape (len(seeds), size): row i is ``open_uniform(stream(seeds[i], purpose), size)``.

    ``integers(0, 2**52)`` on 64-bit words is Lemire's method on a power-of-two
    range, which never rejects: each draw is the top 52 bits of one raw word.
    So a row is one ``random_raw`` shifted right by 12 bits, from a fresh
    Philox state with key (seed, purpose).  Setting that state on one bit
    generator costs a fifth of building a new one.
    """
    out = np.empty((len(seeds), size))
    bits = np.random.Philox(key=0)
    key = np.array([0, int(purpose) & _MASK64], dtype=np.uint64)
    fresh = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, np.uint64), "key": key},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i, s in enumerate(seeds):
        key[0] = int(s) & _MASK64
        bits.state = fresh
        raw = bits.random_raw(size)
        raw >>= 12
        out[i] = raw  # below 2**52, so the conversion to float64 is exact
    out += 0.5
    out *= _LATTICE
    return out

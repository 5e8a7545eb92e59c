"""Deterministic 64-bit hashing used by the page-count monitors.

Python's builtin :func:`hash` is randomized per process (``PYTHONHASHSEED``)
and is the identity on small ints, which would make the linear-counting
bitmap of Fig. 3 and the bit-vector filter of Fig. 5 behave pathologically
(page ids are small dense integers).  We therefore use a fixed avalanche mix
(the 64-bit finalizer from MurmurHash3 / SplitMix64) so that:

* results are reproducible across processes and platforms,
* consecutive page ids scatter uniformly over the bitmap,
* independent hash functions can be derived by salting the seed.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
#: SplitMix64 constants: the seed increment and the two finalizer
#: multipliers (shared with the vectorized form in ``exec/vector.py``).
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_C1 = 0xBF58476D1CE4E5B9
MIX_C2 = 0x94D049BB133111EB


def mix64(value: int, seed: int = 0) -> int:
    """Return a well-scrambled 64-bit hash of ``value``.

    Uses the SplitMix64 finalizer, which passes avalanche tests: flipping any
    input bit flips each output bit with probability ~1/2.  ``seed`` selects
    one member of a family of independent hash functions.
    """
    # (seed + 1) so that seed 0 still mixes value 0 away from the fixed
    # point of the finalizer (mix of exactly 0 would return 0).
    z = (value + (seed + 1) * GOLDEN_GAMMA) & MASK64
    z = (z ^ (z >> 30)) * MIX_C1 & MASK64
    z = (z ^ (z >> 27)) * MIX_C2 & MASK64
    return (z ^ (z >> 31)) & MASK64


def hash_to_bucket(value: int, num_buckets: int, seed: int = 0) -> int:
    """Map ``value`` uniformly onto ``[0, num_buckets)``.

    Raises :class:`ValueError` if ``num_buckets`` is not positive.
    """
    if num_buckets <= 0:
        raise ValueError(f"num_buckets must be positive, got {num_buckets}")
    return mix64(value, seed) % num_buckets


def hash_value(value: object, seed: int = 0) -> int:
    """Hash an arbitrary (hashable) join-key value to 64 bits.

    Integers are mixed directly; other values go through the builtin hash
    first and are then scrambled, so strings and dates work as join keys.
    The builtin hash of ``str`` is randomized per process, which is fine for
    bit-vector filtering (only collision *rates* matter, and those are
    seed-independent); integer keys — the common case in the paper's
    workloads — remain fully deterministic.
    """
    if isinstance(value, bool):
        # bool is an int subclass; keep True/False distinct from 1/0 anyway
        # for clarity (hash parity with int is acceptable but be explicit).
        return mix64(int(value), seed)
    if isinstance(value, int):
        return mix64(value, seed)
    return mix64(hash(value), seed)

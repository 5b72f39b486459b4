"""GF(2) reference helpers the tests check the symmetry analysis against.

Bit tuples are combined one element at a time, and a span is materialised
element by element, so these are deliberately naive: slow, but easy to
trust.  The package itself needs only ``suffix_flip``.
"""

from dgbp.symmetry import suffix_flip

#: Largest generator count for which the subgroup is materialised exactly.
MAX_EXACT_GENERATORS = 24


class GroupTooLarge(RuntimeError):
    """Refusing to materialise a group with more than 2**24 elements."""


def xor_bits(a: tuple, b: tuple) -> tuple:
    """Elementwise XOR of two equal-length bit tuples."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(x ^ y for x, y in zip(a, b))


def combine_flips(levels, n: int) -> tuple:
    """XOR of the suffix flips at the given levels (empty set gives zero).

    Distinct level sets always give distinct results: bit j changes exactly
    when level j enters or leaves the set, so the map is injective over the
    power set of {1..n}.
    """
    out = (0,) * n
    for level in levels:
        out = xor_bits(out, suffix_flip(level, n))
    return out


def span_flips(generators, n: int) -> set:
    """Every XOR combination of the generators (the subgroup they generate)."""
    gens = list(generators)
    if len(gens) > MAX_EXACT_GENERATORS:
        raise GroupTooLarge(
            f"{len(gens)} generators span up to 2**{len(gens)} elements")
    masks = []
    for g in gens:
        if len(g) != n:
            raise ValueError(f"generator length {len(g)} != {n}")
        masks.append(int("".join(map(str, g)), 2) if n else 0)
    span = {0}
    for mask in masks:
        span |= {s ^ mask for s in span}
    return {_int_to_bits(s, n) for s in span}


def _int_to_bits(value: int, n: int) -> tuple:
    return tuple((value >> (n - 1 - j)) & 1 for j in range(n))

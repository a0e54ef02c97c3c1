"""Exact prime-implicant generation and greedy cover selection.

**Primes.** The function's ``ones ∪ dont_cares`` become one truth-table
int (bit ``m`` set for minterm ``m``) and primes come from recursive
Shannon cofactoring on its top variable ``x``.  Every prime of ``f`` is
either a prime of ``f0·f1`` (``x`` free) or ``x̄·c`` / ``x·c`` for a prime
``c`` of the cofactor ``f0`` / ``f1`` that no prime of ``f0·f1``
contains.  A prime of ``f0·f1`` that contains ``c`` implies the cofactor,
so it *is* ``c``: the containment test is set membership.  Sub-results
are memoized on ``(table, width)`` within one call, so the many equal
cofactors of a mostly don't-care controller function are solved once.

**Cover.** The required minterms are indexed and each prime's coverage
becomes an int bitmask over that index.  Essential primes (sole owners of
some required minterm) come first; the cyclic core is covered greedily,
picking the most new minterms, then the fewest literals, then the largest
cube text.  The greedy loop runs on a lazy max-heap: a stale gain is an
upper bound and the key is a total order, so each pick is the same one an
eager scan would make.

This is the standard recipe for the function sizes controller synthesis
produces (a dozen input variables or fewer).  Functions wider than
:data:`EXACT_WIDTH_LIMIT` fall back to a single-cube-per-minterm cover
with merged adjacent pairs, keeping area reports finite for stress-test
inputs.
"""

from __future__ import annotations

import heapq

from .terms import BooleanFunction, Cube

#: Above this input width, exact prime generation is skipped.
EXACT_WIDTH_LIMIT = 14

#: The primes of a constant-one table: the tautology ``(care, value)``.
_TAUTOLOGY = frozenset({(0, 0)})


def prime_implicants(function: BooleanFunction) -> frozenset[Cube]:
    """All prime implicants of ``ones ∪ dont_cares``."""
    table = 0
    for minterm in function.ones | function.dont_cares:
        table |= 1 << minterm
    return frozenset(
        Cube(width=function.width, care=care, value=value)
        for care, value in _primes(table, function.width, {})
    )


def _primes(
    table: int, width: int, memo: dict[tuple[int, int], frozenset]
) -> frozenset[tuple[int, int]]:
    """Primes of a ``width``-input truth table as ``(care, value)`` pairs.

    Cofactors keep the low ``width - 1`` variables in place, so their
    primes are valid cubes of ``table`` once the split variable (bit
    ``width - 1``) is added.
    """
    if not table:
        return frozenset()
    size = 1 << width
    if table == (1 << size) - 1:
        return _TAUTOLOGY
    key = (table, width)
    found = memo.get(key)
    if found is not None:
        return found
    half = size >> 1
    low = table & ((1 << half) - 1)
    high = table >> half
    shared = _primes(low & high, width - 1, memo)
    split = 1 << (width - 1)
    primes = set(shared)
    primes.update(
        (care | split, value)
        for care, value in _primes(low, width - 1, memo) - shared
    )
    primes.update(
        (care | split, value | split)
        for care, value in _primes(high, width - 1, memo) - shared
    )
    result = frozenset(primes)
    memo[key] = result
    return result


def _greedy_cover(
    required: frozenset[int], candidates: frozenset[Cube]
) -> list[Cube]:
    """Essential primes first, then greedy max-coverage selection."""
    index = {m: i for i, m in enumerate(sorted(required))}
    # Sorted by text, so the larger position wins the last tie-break.
    primes = sorted(candidates, key=Cube.to_string)
    masks = [_coverage(cube, index) for cube in primes]
    # Essential primes: the only cube covering some required minterm,
    # taken in order of the first such minterm.
    once = twice = 0
    for mask in masks:
        twice |= once & mask
        once |= mask
    sole = once & ~twice
    essentials = sorted(
        ((mask & sole & -(mask & sole)).bit_length(), i)
        for i, mask in enumerate(masks)
        if mask & sole
    )
    cover = [primes[i] for _, i in essentials]
    remaining = (1 << len(index)) - 1
    for _, i in essentials:
        remaining &= ~masks[i]
    # Greedy on the rest: most new minterms, fewest literals, stable order.
    heap = [
        (-gain, cube.num_literals, -i)
        for i, cube in enumerate(primes)
        if (gain := (masks[i] & remaining).bit_count())
    ]
    heapq.heapify(heap)
    while remaining:
        if not heap:
            raise AssertionError("greedy cover stuck; primes incomplete")
        neg_gain, literals, neg_i = heapq.heappop(heap)
        gain = (masks[-neg_i] & remaining).bit_count()
        if gain == -neg_gain:
            cover.append(primes[-neg_i])
            remaining &= ~masks[-neg_i]
        elif gain:
            heapq.heappush(heap, (-gain, literals, neg_i))
    return cover


def _coverage(cube: Cube, index: dict[int, int]) -> int:
    """Bitmask of the indexed minterms ``cube`` contains."""
    free = ~cube.care & ((1 << cube.width) - 1)
    mask = 0
    subset = free
    while True:
        bit = index.get(cube.value | subset)
        if bit is not None:
            mask |= 1 << bit
        if not subset:
            return mask
        subset = (subset - 1) & free


def minimize(function: BooleanFunction) -> tuple[Cube, ...]:
    """Minimized sum-of-products cover of a boolean function.

    Returns a tuple of cubes covering every required-1 minterm, never
    covering a required-0 minterm, deterministically ordered.  Constant
    functions return ``()`` (zero) or a single tautology cube (one).
    """
    if function.is_constant_zero:
        return ()
    if function.is_constant_one:
        return (Cube(width=function.width, care=0, value=0),)
    if function.width > EXACT_WIDTH_LIMIT:
        return _approximate_cover(function)
    primes = prime_implicants(function)
    cover = _greedy_cover(function.ones, primes)
    return tuple(sorted(cover))


def _approximate_cover(function: BooleanFunction) -> tuple[Cube, ...]:
    """Cheap cover for very wide functions: single merge pass on minterms."""
    cubes = [Cube.minterm(function.width, m) for m in sorted(function.ones)]
    merged = True
    while merged:
        merged = False
        result: list[Cube] = []
        used = [False] * len(cubes)
        for i, cube in enumerate(cubes):
            if used[i]:
                continue
            partner = None
            for j in range(i + 1, len(cubes)):
                if used[j]:
                    continue
                combined = cube.merge_distance_one(cubes[j])
                if combined is not None:
                    partner = (j, combined)
                    break
            if partner is None:
                result.append(cube)
            else:
                j, combined = partner
                used[j] = True
                result.append(combined)
                merged = True
        cubes = result
    return tuple(sorted(set(cubes)))


def verify_cover(
    function: BooleanFunction, cover: tuple[Cube, ...]
) -> None:
    """Assert a cover is functionally correct (test helper).

    Every required-1 minterm must be covered and no required-0 minterm may
    be covered; don't-cares are free.
    """
    for minterm in range(1 << function.width):
        covered = any(c.contains(minterm) for c in cover)
        required = function.value_at(minterm)
        if required is True and not covered:
            raise AssertionError(f"minterm {minterm} uncovered")
        if required is False and covered:
            raise AssertionError(f"minterm {minterm} wrongly covered")

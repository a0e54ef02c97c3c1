"""Unit tests for the Quine–McCluskey minimizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.quine_mccluskey import (
    minimize,
    prime_implicants,
    verify_cover,
)
from repro.logic.terms import BooleanFunction, Cube


def fn(width, ones, dc=()):
    return BooleanFunction(
        width=width, ones=frozenset(ones), dont_cares=frozenset(dc)
    )


# -- reference implementation (differential oracle) ----------------------
def oracle_primes(function):
    """Primes by classic iterated pairwise distance-one merging."""
    current = {
        Cube.minterm(function.width, m)
        for m in function.ones | function.dont_cares
    }
    primes = set()
    while current:
        merged = set()
        used = set()
        by_ones = {}
        for cube in current:
            by_ones.setdefault(bin(cube.value).count("1"), []).append(cube)
        for count, group in sorted(by_ones.items()):
            for cube in group:
                for other in by_ones.get(count + 1, ()):
                    combined = cube.merge_distance_one(other)
                    if combined is not None:
                        merged.add(combined)
                        used.add(cube)
                        used.add(other)
        primes |= current - used
        current = merged
    return frozenset(primes)


def oracle_cover(required, candidates):
    """Essential primes, then an eager greedy max-coverage scan."""
    remaining = set(required)
    cover = []
    coverage = {
        cube: frozenset(m for m in required if cube.contains(m))
        for cube in candidates
    }
    for minterm in sorted(required):
        owners = [c for c in candidates if minterm in coverage[c]]
        if len(owners) == 1 and owners[0] not in cover:
            cover.append(owners[0])
            remaining -= coverage[owners[0]]
    while remaining:
        best = max(
            candidates,
            key=lambda c: (
                len(coverage[c] & remaining),
                -c.num_literals,
                c.to_string(),
            ),
        )
        gained = coverage[best] & remaining
        if not gained:
            raise AssertionError("greedy cover stuck; primes incomplete")
        cover.append(best)
        remaining -= gained
    return cover


def oracle_minimize(function):
    """:func:`minimize` of a narrow function, built on the reference."""
    primes = oracle_primes(function)
    return tuple(sorted(oracle_cover(function.ones, primes)))


class TestPrimeImplicants:
    def test_classic_example(self):
        # f(a,b,c,d) with minterms 4,8,10,11,12,15 and dc 9,14
        # (the textbook Quine-McCluskey example).
        f = fn(4, {4, 8, 10, 11, 12, 15}, {9, 14})
        primes = prime_implicants(f)
        strings = {p.to_string() for p in primes}
        # Known primes (our cube text is LSB-first): -100, 1--0, 1-1-, 10--
        assert strings == {"001-", "0--1", "-1-1", "--01"}

    def test_full_cube(self):
        f = fn(2, {0, 1, 2, 3})
        primes = prime_implicants(f)
        assert {p.to_string() for p in primes} == {"--"}

    def test_single_minterm(self):
        f = fn(3, {5})
        primes = prime_implicants(f)
        assert {p.to_string() for p in primes} == {"101"}


class TestMinimize:
    def test_constant_zero(self):
        assert minimize(fn(3, ())) == ()

    def test_constant_one(self):
        cover = minimize(fn(2, {0, 1, 2, 3}))
        assert len(cover) == 1
        assert cover[0].num_literals == 0

    def test_xor_needs_two_terms(self):
        cover = minimize(fn(2, {0b01, 0b10}))
        assert len(cover) == 2
        assert all(c.num_literals == 2 for c in cover)

    def test_dont_cares_shrink_cover(self):
        without_dc = minimize(fn(3, {0b111}))
        with_dc = minimize(
            fn(3, {0b111}, {0b011, 0b101, 0b110, 0b001, 0b010, 0b100, 0b000})
        )
        literals = lambda cover: sum(c.num_literals for c in cover)
        assert literals(with_dc) < literals(without_dc)

    def test_cover_verified(self):
        f = fn(4, {0, 2, 5, 7, 8, 10, 13, 15})
        verify_cover(f, minimize(f))

    def test_deterministic(self):
        f = fn(4, {1, 3, 7, 11, 15})
        assert minimize(f) == minimize(f)


class TestVerifyCover:
    def test_uncovered_detected(self):
        f = fn(2, {0, 3})
        with pytest.raises(AssertionError, match="uncovered"):
            verify_cover(f, (Cube.minterm(2, 0),))

    def test_wrongly_covered_detected(self):
        f = fn(2, {0})
        with pytest.raises(AssertionError, match="wrongly covered"):
            verify_cover(f, (Cube(width=2, care=0, value=0),))


@st.composite
def functions(draw):
    """Incompletely specified functions of 1 to 9 inputs."""
    width = draw(st.integers(1, 9))
    points = 1 << width
    ones = draw(st.integers(0, (1 << points) - 1))
    dc = draw(st.integers(0, (1 << points) - 1)) & ~ones
    return fn(
        width,
        (m for m in range(points) if ones >> m & 1),
        (m for m in range(points) if dc >> m & 1),
    )


@settings(max_examples=150, deadline=None)
@given(functions())
def test_minimize_always_correct(f):
    """Property: primes and covers equal the pairwise reference exactly.

    The cover is also functionally exact (every one covered, no zero).
    """
    assert prime_implicants(f) == oracle_primes(f)
    cover = minimize(f)
    assert cover == oracle_minimize(f)
    verify_cover(f, cover)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 15), min_size=1, max_size=12))
def test_minimize_never_worse_than_minterms(ones):
    """Property: the cover never has more terms than raw minterms."""
    f = fn(4, ones)
    assert len(minimize(f)) <= len(ones)

import random
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCALARS, rand_element, step_functions
from rhpwn.algebra import (
    RHPWN,
    WINFTY,
    AlgebraElement,
    GeneratorIndex,
    commutator,
    involution,
    normal_order_expansion,
    order_constants,
    stirling_first,
)
from rhpwn.errors import IndexRangeError, TagMismatchError
from rhpwn.scalars import ComplexRational
from rhpwn.stepfn import StepFunction


def gen(tag, n, k, fn):
    return AlgebraElement.generator(tag, n, k, fn)


def test_bracket_lowest_order():
    f = StepFunction.indicator(1, 2)
    g = StepFunction.indicator(1, 3, Fraction(1, 2))
    # [B[0,1](f), B[1,0](g)] = B[0,0](f g), structure constant kN - Kn = 1
    got = commutator(gen(RHPWN, 0, 1, f), gen(RHPWN, 1, 0, g))
    assert got == gen(RHPWN, 0, 0, f * g)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_bracket_annihilator_creator(n):
    f = StepFunction.indicator(1, 2)
    g = StepFunction.indicator(1, 2, Fraction(2, 3))
    # [B[0,n](f), B[n,0](g)] = n^2 B[n-1,n-1](f g)
    got = commutator(gen(RHPWN, 0, n, f), gen(RHPWN, n, 0, g))
    assert got == gen(RHPWN, n - 1, n - 1, (f * g).scaled(n * n))


def test_bracket_virasoro_sector():
    f = StepFunction.indicator(1, 2)
    g = StepFunction.indicator(1, 2)
    # [Bw[2,k](g), Bw[2,K](f)] = (k - K) Bw[2,k+K](g f)
    got = commutator(gen(WINFTY, 2, 5, g), gen(WINFTY, 2, 2, f))
    assert got == gen(WINFTY, 2, 7, (g * f).scaled(3))


def test_bracket_diagonal_vanishes():
    f = StepFunction.indicator(1, 2)
    g = StepFunction.indicator(2, 3)
    assert commutator(gen(RHPWN, 3, 2, f), gen(RHPWN, 3, 2, g)).is_zero


def test_bracket_tag_mismatch():
    f = StepFunction.indicator(1, 2)
    with pytest.raises(TagMismatchError):
        commutator(gen(RHPWN, 1, 0, f), gen(WINFTY, 2, 0, f))


@pytest.mark.parametrize("tag", [RHPWN, WINFTY])
def test_bracket_with_the_zero_element_of_either_algebra(tag):
    # the zero element is shared by both algebras, as in `+`
    f = StepFunction.indicator(1, 2)
    other = WINFTY if tag == RHPWN else RHPWN
    x = gen(tag, 2, 1, f)
    for zero in (AlgebraElement.zero(other), AlgebraElement.zero(tag)):
        assert commutator(zero, x).is_zero
        assert commutator(x, zero).is_zero


def test_involution_examples():
    f = StepFunction.indicator(1, 2, ComplexRational(1, 2))
    assert involution(gen(RHPWN, 3, 1, f)) == gen(RHPWN, 1, 3, f.conjugate())
    assert involution(gen(WINFTY, 4, 2, f)) == gen(WINFTY, 4, -2, f.conjugate())


def test_invalid_indices_normalize_to_zero():
    f = StepFunction.indicator(1, 2)
    assert gen(RHPWN, -1, 2, f).is_zero
    assert gen(RHPWN, 2, -1, f).is_zero
    with pytest.raises(IndexRangeError):
        GeneratorIndex(WINFTY, 1, 0)


@pytest.mark.parametrize("tag", [RHPWN, WINFTY])
def test_algebra_axioms_random(tag):
    rng = random.Random(zlib.crc32(tag.encode()))
    zero = AlgebraElement.zero(tag)
    for _ in range(60):
        a = rand_element(rng, tag)
        b = rand_element(rng, tag)
        c = rand_element(rng, tag)
        assert commutator(a, b) + commutator(b, a) == zero
        jacobi = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert jacobi == zero
        assert involution(commutator(a, b)) == commutator(involution(b), involution(a))
        assert involution(involution(a)) == a


@st.composite
def elements(draw, tag):
    """Sums of up to three generators with step_functions() coefficients."""
    low, high = (0, 3) if tag == RHPWN else (-3, 3)
    out = AlgebraElement.zero(tag)
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 3) if tag == RHPWN else st.integers(2, 4))
        out = out + gen(tag, n, draw(st.integers(low, high)), draw(step_functions()))
    return out


@pytest.mark.parametrize("tag", [RHPWN, WINFTY])
def test_commutator_is_total_antisymmetric_and_jacobi(tag):
    zero = AlgebraElement.zero(tag)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(elements(tag), elements(tag), elements(tag))
    def check(a, b, c):
        assert commutator(a, b) + commutator(b, a) == zero
        jacobi = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert jacobi == zero

    check()


@pytest.mark.parametrize("tag", [RHPWN, WINFTY])
def test_linear_structure_and_bilinear_commutator(tag):
    zero = AlgebraElement.zero(tag)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(elements(tag), elements(tag), elements(tag), SCALARS)
    def check(a, b, c, q):
        assert a - a == zero
        assert -a == a.scaled(-1)
        assert (a + b).scaled(q) == a.scaled(q) + b.scaled(q)
        assert commutator(a + b.scaled(q), c) == commutator(a, c) + commutator(b, c).scaled(q)
        assert commutator(c, a + b.scaled(q)) == commutator(c, a) + commutator(c, b).scaled(q)

    check()


def test_element_str_lists_terms_in_n_k_order():
    f = StepFunction.indicator(0, 1)
    g = StepFunction.indicator(0, 2, 3)
    assert str(AlgebraElement.zero(RHPWN)) == "0"
    assert str(AlgebraElement.zero(WINFTY)) == "0"
    a = gen(RHPWN, 2, 1, f) + gen(RHPWN, 0, 3, g) + gen(RHPWN, 2, 0, g)
    assert str(a) == "B[0,3]((3)*chi[0,2)) + B[2,0]((3)*chi[0,2)) + B[2,1]((1)*chi[0,1))"
    b = gen(WINFTY, 3, -1, f) + gen(WINFTY, 2, 2, g) + gen(WINFTY, 3, -2, g)
    assert str(b) == "Bw[2,2]((3)*chi[0,2)) + Bw[3,-2]((3)*chi[0,2)) + Bw[3,-1]((1)*chi[0,1))"


def test_stirling_values_and_errors():
    assert stirling_first(0, 0) == 1
    assert all(stirling_first(n, 0) == 0 for n in range(1, 8))
    assert stirling_first(3, 2) == -3
    assert stirling_first(3, 1) == 2
    assert stirling_first(40, 40) == 1
    with pytest.raises(IndexRangeError):
        stirling_first(2, 3)
    with pytest.raises(IndexRangeError):
        stirling_first(-1, 0)


def test_stirling_falling_factorial_identity():
    # sum_m s(n, m) x^m == x (x-1) ... (x-n+1), exact polynomial identity
    for n in range(0, 11):
        falling = [Fraction(1)]
        for j in range(n):
            shifted = [0] + falling
            falling = [
                Fraction(shifted[i]) - j * (falling[i] if i < len(falling) else 0)
                for i in range(len(shifted))
            ]
        stirling_row = [
            Fraction(stirling_first(n, m)) if m <= n else Fraction(0)
            for m in range(len(falling))
        ]
        assert falling == stirling_row


def test_normal_order_expansion():
    assert normal_order_expansion(0) == [(0, 1)]
    assert normal_order_expansion(1) == [(1, 1)]
    assert normal_order_expansion(2) == [(1, -1), (2, 1)]
    with pytest.raises(IndexRangeError):
        normal_order_expansion(-1)


def test_order_constants_closed_forms():
    for n in range(1, 9):
        half, c = order_constants(n)
        assert type(half) is int and type(c) is int
        assert half == Fraction(n * n * (n - 1), 2)
        assert c == Fraction(n**3 * (n - 1), 2)
        assert Fraction(half, n) == Fraction(n * (n - 1), 2)
        for k in range(6):
            assert 2 * k * half // n == k * n * (n - 1)
        if n >= 2:
            assert Fraction(1, half) == Fraction(2, n * n * (n - 1))
            assert Fraction(1, c) == Fraction(2, n**3 * (n - 1))


def test_stirling_cache_grows_safely_under_threads(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    import rhpwn.algebra as alg

    # row 0 only, so every worker races to extend the table; later tests get
    # the module's own rows back
    monkeypatch.setattr(alg, "_ROWS", [[1]])
    rows = range(5, 60)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda n: stirling_first(n, n - 1), rows))
    # s(n, n-1) = -binomial(n, 2)
    assert results == [-n * (n - 1) // 2 for n in rows]


def test_commutator_concurrent_use():
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(77)
    triples = [
        (rand_element(rng, RHPWN), rand_element(rng, RHPWN)) for _ in range(32)
    ]
    expected = [commutator(a, b) for a, b in triples]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda ab: commutator(*ab), triples))
    assert got == expected

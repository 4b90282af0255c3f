import random
from fractions import Fraction

import pytest

from conftest import rand_coeff, rand_step_function
from rhpwn.errors import UnsupportedGeneratorError
from rhpwn.mupoly import MU, MuPoly
from rhpwn.rewrite import (
    VacuumState,
    Word,
    kernel_bruteforce,
    reduce_truncated,
    reduce_untruncated,
    reduce_untruncated_with_stats,
    state_in_number_basis,
    step_bound,
    vacuum_expectation,
    _insert_creator,
)
from rhpwn.algebra import WINFTY, GeneratorIndex
from rhpwn.fock import kernel_values
from rhpwn.stepfn import CHI, StepFunction


def word(*indices):
    return Word.from_indices(indices)


# -- untruncated vacuum action -------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_annihilate_single_creator(n):
    state = reduce_untruncated(word((0, n), (n, 0)))
    assert state.terms == {(): MU.scaled(n)}


def test_triple_creator_reduction():
    # B[0,n] (B[n,0])^3 Phi = 3n(mu + n^2(n-1)) (B[n,0])^2 Phi
    #                         + n^4 (n-1)(n-2) B[2n,0] Phi
    for n in (3, 4, 5):
        state = reduce_untruncated(word((0, n), (n, 0), (n, 0), (n, 0)))
        expected = {
            ((n, CHI), (n, CHI)): (MU + n * n * (n - 1)).scaled(3 * n),
            ((2 * n, CHI),): MuPoly.constant(n**4 * (n - 1) * (n - 2)),
        }
        assert state.terms == expected


def test_diagonal_and_annihilating_actions():
    for k in (0, 1, 2, 5):
        state = reduce_untruncated(word((k, k)))
        assert state.terms == {(): MU.scaled(Fraction(1, k + 1))}
    assert reduce_untruncated(word((1, 3))).is_zero
    assert reduce_untruncated(word((0, 4))).is_zero


def test_vacuum_expectation_obstruction_moments():
    for n in (3, 4, 5):
        assert vacuum_expectation(word((0, 2 * n), (2 * n, 0))) == MU.scaled(2 * n)
        assert vacuum_expectation(word((0, 2 * n), (n, 0), (n, 0))) == MU.scaled(
            2 * n**3
        )
        assert vacuum_expectation(
            word((0, n), (0, n), (n, 0), (n, 0))
        ) == (MU * MU).scaled(2 * n * n) + MU.scaled(n**4 * (n - 1))


def test_identity_word():
    assert vacuum_expectation(Word()) == MuPoly.one()


def test_concrete_step_functions():
    f = StepFunction.indicator(0, 2, Fraction(1, 2))
    g = StepFunction.indicator(1, 3, 3)
    w = Word([(GeneratorIndex("RHPWN", 0, 1), f), (GeneratorIndex("RHPWN", 1, 0), g)])
    # <B[0,1](f) B[1,0](g)> = integral(f g) = (1/2)*3*measure([1,2)) = 3/2
    assert vacuum_expectation(w) == MuPoly.constant(Fraction(3, 2))


def test_hermitian_symmetry_of_moments():
    rng = random.Random(21)
    for _ in range(40):
        factors = []
        for _ in range(rng.randint(0, 4)):
            n, k = rng.randint(0, 3), rng.randint(0, 3)
            factors.append((GeneratorIndex("RHPWN", n, k), rand_step_function(rng)))
        w = Word(factors)
        assert vacuum_expectation(w) == vacuum_expectation(w.adjoint()).conjugate()


def test_termination_step_bound():
    rng = random.Random(22)
    for _ in range(40):
        indices = [
            (rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(0, 6))
        ]
        w = word(*indices)
        _, steps = reduce_untruncated_with_stats(w)
        assert steps <= step_bound(w)


class UnmemoizedReducer:
    """The untruncated recursion without a memo: every sub-reduction is a step."""

    def __init__(self):
        self.steps = 0

    def apply_generator(self, n, k, fn, mono):
        self.steps += 1
        if fn.is_zero or n < 0 or k < 0:
            return {}
        if n == 0 and k == 0:
            return {mono: fn.integral_mu()}
        if k == 0:
            return {_insert_creator(mono, n, fn): MuPoly.one()}
        if not mono:
            if n < k:
                return {}
            if n == k:
                return {(): fn.integral_mu().scaled(Fraction(1, n + 1))}
            return {((n - k, fn),): MuPoly.one()}
        m, g = mono[-1]
        rest = mono[:-1]
        out = {}
        for mono2, coeff in self.apply_generator(n, k, fn, rest).items():
            key = _insert_creator(mono2, m, g)
            out[key] = out.get(key, MuPoly.zero()) + coeff
        for mono2, coeff in self.apply_generator(n + m - 1, k - 1, fn * g, rest).items():
            out[mono2] = out.get(mono2, MuPoly.zero()) + coeff.scaled(k * m)
        return out

    def reduce(self, word):
        terms = {(): MuPoly.one()}
        for idx, fn in reversed(tuple(word)):
            out = {}
            for mono, coeff in terms.items():
                for mono2, c2 in self.apply_generator(idx.n, idx.k, fn, mono).items():
                    out[mono2] = out.get(mono2, MuPoly.zero()) + coeff * c2
            terms = {mono: c for mono, c in out.items() if not c.is_zero}
            if not terms:
                break
        return VacuumState(terms)


def overlapping_indicators(rng):
    """3-6 rational indicators on [0, 3) that overlap one another."""
    out = []
    for _ in range(rng.randint(3, 6)):
        a = Fraction(rng.randint(0, 8), 4)
        b = a + Fraction(rng.randint(2, 6), 4)
        out.append(StepFunction.indicator(a, b, rand_coeff(rng, span=3, den=2)))
    return out


def assert_memo_matches_reference(w):
    reference = UnmemoizedReducer()
    expected = reference.reduce(w)
    state, steps = reduce_untruncated_with_stats(w)
    assert state == expected
    assert steps <= reference.steps
    assert steps <= step_bound(w)
    return steps, reference.steps


def test_memoized_reduction_matches_unmemoized_reference():
    rng = random.Random(23)
    for _ in range(30):
        fns = overlapping_indicators(rng)
        # creators act first, so the pending factors have monomials to pass
        indices = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 4))]
        indices += [(rng.randint(1, 3), 0) for _ in range(rng.randint(1, 4))]
        w = Word([(GeneratorIndex("RHPWN", n, k), rng.choice(fns)) for n, k in indices])
        assert_memo_matches_reference(w)


def test_memoized_reduction_of_long_creator_annihilator_word():
    # (B[0,3](f_i))^8 (B[3,0](f_j))^8 over six unit indicators shifted by 1/3,
    # taken in turn: sub-reductions repeat heavily
    ind = [StepFunction.indicator(Fraction(i, 3), Fraction(i, 3) + 1) for i in range(6)]
    w = Word(
        [(GeneratorIndex("RHPWN", 0, 3), ind[i % 6]) for i in range(8)]
        + [(GeneratorIndex("RHPWN", 3, 0), ind[i % 6]) for i in range(8)]
    )
    steps, reference_steps = assert_memo_matches_reference(w)
    assert steps < reference_steps


@pytest.mark.xfail(
    strict=True,
    reason="the untruncated vacuum action is not compatible with the involution: "
    "B[2,3] B[1,2] B[3,1] over chi_I gives 4*mu, its adjoint gives 5*mu",
)
def test_vacuum_functional_is_hermitian():
    w = word((2, 3), (1, 2), (3, 1))
    assert vacuum_expectation(w) == vacuum_expectation(w.adjoint()).conjugate()


def test_words_are_rhpwn_only():
    with pytest.raises(UnsupportedGeneratorError):
        Word([(GeneratorIndex(WINFTY, 2, 0), CHI)])


# -- truncated action ----------------------------------------------------------


def test_truncated_number_eigenvalue():
    for n in (1, 2, 3, 5):
        for k in (0, 1, 3):
            w = word((n - 1, n - 1), *([(n, 0)] * k))
            [(kk, coeff)] = reduce_truncated(n, w)
            assert kk == k
            assert coeff == MU.scaled(Fraction(1, n)) + k * n * (n - 1)


def test_truncated_annihilator_base_case():
    for n in (1, 2, 4):
        assert reduce_truncated(n, word((0, n), (n, 0))) == [(0, MU.scaled(n))]
        assert reduce_truncated(n, word((0, n))) == []


def test_truncated_rejects_foreign_generators():
    with pytest.raises(UnsupportedGeneratorError):
        reduce_truncated(3, word((1, 0)))
    with pytest.raises(UnsupportedGeneratorError):
        reduce_truncated(3, word((1, 1)))
    with pytest.raises(UnsupportedGeneratorError):
        w = Word([(GeneratorIndex("RHPWN", 3, 0), StepFunction.indicator(0, 1))])
        reduce_truncated(3, w)


def test_kernel_bruteforce_values():
    assert kernel_bruteforce(3, 0) == MuPoly.one()
    assert kernel_bruteforce(4, 1) == MU.scaled(4)
    assert kernel_bruteforce(2, 2) == (MU * MU).scaled(8) + MU.scaled(16)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kernel_bruteforce_matches_closed_form(n):
    for k in range(9):
        assert kernel_bruteforce(n, k) == kernel_values(n, k)[0]


# -- the two modes agree where no truncation happens ----------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_mode_agreement_low_order_exhaustive(n):
    # every word of length <= 5 over the order-n generator set, exactly
    import itertools

    generators = [(n, 0), (0, n), (n - 1, n - 1)]
    for length in range(6):
        for indices in itertools.product(generators, repeat=length):
            w = word(*indices)
            truncated = reduce_truncated(n, w)
            untruncated = state_in_number_basis(n, reduce_untruncated(w))
            assert truncated == untruncated


@pytest.mark.parametrize("n", [1, 2])
def test_mode_agreement_low_order_random_length_six(n):
    rng = random.Random(100 + n)
    generators = [(n, 0), (0, n), (n - 1, n - 1)]
    for _ in range(60):
        indices = [rng.choice(generators) for _ in range(6)]
        w = word(*indices)
        assert reduce_truncated(n, w) == state_in_number_basis(
            n, reduce_untruncated(w)
        )


def test_mode_disagreement_at_higher_order():
    # for n >= 3 the untruncated action leaves the number-vector line
    n = 3
    w = word((0, n), (n, 0), (n, 0), (n, 0))
    with pytest.raises(ValueError):
        state_in_number_basis(n, reduce_untruncated(w))

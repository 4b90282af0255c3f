import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import mupoly_to_sympy, rand_coeff, rand_step_function
from oracles import (
    UnmemoizedReducer,
    encode_word,
    kernel_bruteforce,
    state_in_number_basis,
    step_bound,
)
from rhpwn.errors import TagMismatchError, UnsupportedGeneratorError
from rhpwn.mupoly import MU, MuPoly
from rhpwn.rewrite import (
    VacuumState,
    Word,
    reduce_truncated,
    reduce_untruncated,
    reduce_untruncated_with_stats,
    vacuum_expectation,
)
from rhpwn.algebra import RHPWN, WINFTY, GeneratorIndex
from rhpwn.fock import kernel_values
from rhpwn.scalars import ComplexRational
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


def long_creator_annihilator_word():
    # (B[0,3](f_i))^8 (B[3,0](f_j))^8 over six unit indicators shifted by 1/3,
    # taken in turn: sub-reductions repeat heavily
    ind = [StepFunction.indicator(Fraction(i, 3), Fraction(i, 3) + 1) for i in range(6)]
    return Word(
        [(GeneratorIndex("RHPWN", 0, 3), ind[i % 6]) for i in range(8)]
        + [(GeneratorIndex("RHPWN", 3, 0), ind[i % 6]) for i in range(8)]
    )


def test_memoized_reduction_of_long_creator_annihilator_word():
    steps, reference_steps = assert_memo_matches_reference(long_creator_annihilator_word())
    assert steps < reference_steps
    assert steps == 3001


def test_each_product_of_test_functions_is_computed_once(monkeypatch):
    # The memo misses 3001 times, but each unordered pair {fn, g} of the
    # bracket term is multiplied once: fn g and g fn share one product.
    w = long_creator_annihilator_word()
    pairs = []
    mul = StepFunction.__mul__

    def counted(self, other):
        pairs.append(frozenset((self, other)))
        return mul(self, other)

    monkeypatch.setattr(StepFunction, "__mul__", counted)
    state, steps = reduce_untruncated_with_stats(w)
    monkeypatch.undo()
    assert steps == 3001
    assert pairs and len(pairs) == len(set(pairs))
    assert state == UnmemoizedReducer().reduce(w)


def test_memo_is_freed_before_the_state_is_built():
    # The memo is the largest structure of a reduction.  Held while the
    # result is mapped back to step functions, it peaks at about 1.59 MB on
    # this word; cleared first, at about 1.12 MB.  The first reduction of a
    # process also fills the interpreter's free lists, so it is not traced.
    reduce_untruncated_with_stats(long_creator_annihilator_word())
    w = long_creator_annihilator_word()
    tracemalloc.start()
    try:
        reduce_untruncated_with_stats(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_400_000


def _differential_pool():
    f = StepFunction.indicator(0, 1, ComplexRational(1, 1))
    g = StepFunction.indicator(Fraction(1, 2), 2, Fraction(1, 2))
    h = StepFunction([(-1, 0, 2), (0, Fraction(3, 2), ComplexRational(0, -1))])
    return [
        f,
        g,
        h,
        StepFunction.indicator(0, 1, ComplexRational(1, 1)),  # equal to f, another object
        f.conjugate(),
        h.conjugate(),
        StepFunction.zero(),
        StepFunction.indicator(-2, -1, 3),  # disjoint from the others: zero products
    ]


_POOL = _differential_pool()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, len(_POOL) - 1)),
    min_size=1, max_size=6,
))
def test_interned_reduction_matches_reference(factors):
    # Words drawn from the pool see its functions first in every order, so
    # the ids the reduction hands out run both with and against the sort
    # key order the result is printed in.  The step count is not compared
    # with the reference's: the id order can take a path a step or two
    # longer than the sort key order on some words.
    w = Word([(GeneratorIndex(RHPWN, n, k), _POOL[i]) for n, k, i in factors])
    state, steps = reduce_untruncated_with_stats(w)
    expected = UnmemoizedReducer().reduce(w)
    assert state == expected
    assert str(state) == str(expected)
    assert steps <= step_bound(w)


def test_creators_are_ordered_by_sort_key_not_by_first_sight():
    f = StepFunction.indicator(0, 1)
    g = StepFunction.indicator(1, 2)
    state, steps = reduce_untruncated_with_stats(
        Word([(GeneratorIndex(RHPWN, 1, 0), f), (GeneratorIndex(RHPWN, 1, 0), g)])
    )
    assert str(state) == "(1) B[1,0]((1)*chi[0,1)) B[1,0]((1)*chi[1,2)) Phi"
    assert steps == 2


def test_result_is_ordered_with_one_sort_key_per_function(monkeypatch):
    # (B[0,1](g))^4 B[1,0](f_1) ... B[1,0](f_8) over 40-piece functions: the
    # result has the 70 monomials of four creators out of eight, and its
    # creators are put in order with one sort key per surviving function.
    def forty_pieces(shift):
        return StepFunction([(Fraction(j, 3), Fraction(j + 1, 3), (j + shift) % 11 + 1)
                             for j in range(40)])

    fs = [forty_pieces(i) for i in range(1, 9)]
    w = Word([(GeneratorIndex(RHPWN, 0, 1), forty_pieces(0))] * 4
             + [(GeneratorIndex(RHPWN, 1, 0), f) for f in fs])
    keyed = []
    sort_key = StepFunction.sort_key

    def counted(self):
        keyed.append(self)
        return sort_key(self)

    monkeypatch.setattr(StepFunction, "sort_key", counted)
    state, _ = reduce_untruncated_with_stats(w)
    monkeypatch.undo()
    assert len(state.terms) == 70
    assert len(keyed) == len(set(keyed)) <= len(fs)
    for mono in state.terms:
        assert list(mono) == sorted(mono, key=lambda c: (c[0], c[1].sort_key()))
    assert state == UnmemoizedReducer().reduce(w)


def test_creator_word_mixing_chi_and_step_functions():
    # Creators only, so no product is formed: chi_I and a concrete function
    # may share a monomial, ordered by (m, sort key) with chi_I first.
    w = Word([
        (GeneratorIndex(RHPWN, 1, 0), StepFunction.indicator(0, 1)),
        (GeneratorIndex(RHPWN, 1, 0), CHI),
        (GeneratorIndex(RHPWN, 2, 0), CHI),
    ])
    state, steps = reduce_untruncated_with_stats(w)
    assert str(state) == "(1) B[1,0](chi_I) B[1,0]((1)*chi[0,1)) B[2,0](chi_I) Phi"
    assert steps == 3
    assert state == UnmemoizedReducer().reduce(w)


@pytest.mark.parametrize("chi_first", [True, False])
def test_product_of_chi_and_a_step_function_is_refused(chi_first):
    f = StepFunction.indicator(0, 1)
    left, right = (CHI, f) if chi_first else (f, CHI)
    w = Word([(GeneratorIndex(RHPWN, 0, 1), left), (GeneratorIndex(RHPWN, 1, 0), right)])
    with pytest.raises(TagMismatchError, match="cannot mix symbolic chi_I with concrete step functions"):
        reduce_untruncated_with_stats(w)


def test_reduction_does_not_depend_on_the_hash_seed():
    # Ids follow the order the functions are first seen, never a hash.
    payload = json.dumps(encode_word(Word(
        [(GeneratorIndex(RHPWN, n, k), _POOL[i])
         for n, k, i in ((0, 2, 4), (2, 1, 0), (1, 0, 2), (1, 0, 3), (2, 0, 1), (1, 0, 5))]
    )))
    script = (
        "import json, sys\n"
        "from rhpwn import jsonio\n"
        "from rhpwn.rewrite import reduce_untruncated_with_stats\n"
        "state, steps = reduce_untruncated_with_stats(jsonio.decode_word(json.load(sys.stdin)))\n"
        "print(steps)\n"
        "print(state)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs.append(subprocess.run([sys.executable, "-c", script], input=payload, env=env,
                                      capture_output=True, text=True, check=True).stdout)
    assert outputs[0] == outputs[1]
    steps, text = outputs[0].split("\n", 1)
    assert int(steps) > 0 and text.strip() not in ("", "0")


@pytest.mark.xfail(
    strict=True,
    reason="the untruncated vacuum action is not compatible with the involution: "
    "B[2,3] B[1,2] B[3,1] over chi_I gives 4*mu, its adjoint gives 5*mu",
)
def test_vacuum_functional_is_hermitian():
    w = word((2, 3), (1, 2), (3, 1))
    assert vacuum_expectation(w) == vacuum_expectation(w.adjoint()).conjugate()


def mixed_firings(w):
    """Firings of the mixed rule n - k >= 2 in the reduction of w, and its state."""
    reducer = UnmemoizedReducer()
    state = reducer.reduce(w)
    return reducer.mixed_firings, state


def test_mixed_rule_firings_are_counted():
    assert mixed_firings(word((3, 1)))[0] == 1
    assert mixed_firings(word((2, 1)))[0] == 0  # n - k = 1 is consistent
    assert mixed_firings(word((0, 3), (3, 1)))[0] == 1
    defect = word((2, 3), (1, 2), (3, 1))
    assert mixed_firings(defect)[0] > 0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=5, max_size=6))
def test_words_firing_no_mixed_rule_are_hermitian(indices):
    # Past length 4: where neither the word nor its adjoint fires
    # B[n,k] Phi = B[n-k,0] Phi with n - k >= 2, <Phi, w Phi> is the conjugate
    # of <Phi, w* Phi>.
    w = word(*indices)
    fired, state = mixed_firings(w)
    fired_adjoint, state_adjoint = mixed_firings(w.adjoint())
    assume(fired == fired_adjoint == 0)
    assert state == reduce_untruncated(w)
    assert state_adjoint == reduce_untruncated(w.adjoint())
    assert vacuum_expectation(w) == vacuum_expectation(w.adjoint()).conjugate()


# The defect, exactly: at degree 2 no rule for B[3,1] Phi with mu-polynomial
# coefficients is compatible with the involution.

DEGREE_TWO = (word((2, 0)), word((1, 0), (1, 0)))  # B[2,0] Phi, B[1,0]^2 Phi


def inner(u, v):
    """<u Phi, v Phi> through the engine: the vacuum moment of u* v."""
    return vacuum_expectation(Word(u.adjoint().factors + v.factors))


def demanded_inner(v, x):
    """<v Phi, x Phi> as the involution demands it: conj <Phi, x* v Phi>."""
    return vacuum_expectation(Word(x.adjoint().factors + v.factors)).conjugate()


def test_degree_two_gram_matrix():
    gram = [[inner(u, v) for v in DEGREE_TWO] for u in DEGREE_TWO]
    assert gram == [[MU.scaled(2), MU.scaled(2)], [MU.scaled(2), (MU * MU).scaled(2)]]


def test_b31_on_phi_against_the_involution():
    b31 = word((3, 1))
    assert [inner(v, b31) for v in DEGREE_TWO] == [MU.scaled(2), MU.scaled(2)]
    assert [demanded_inner(v, b31) for v in DEGREE_TWO] == [MU.scaled(2), MU.scaled(3)]


def test_b31_rule_the_involution_demands_is_singular_at_mu_one():
    # B[3,1] Phi = x B[2,0] Phi + y B[1,0]^2 Phi with <v, B[3,1] Phi> as demanded
    mu, x, y = sympy.symbols("mu x y")
    b31 = word((3, 1))
    gram = sympy.Matrix(2, 2, [mupoly_to_sympy(inner(u, v), mu) for u in DEGREE_TWO for v in DEGREE_TWO])
    demanded = sympy.Matrix([mupoly_to_sympy(demanded_inner(v, b31), mu) for v in DEGREE_TWO])
    assert sympy.factor(gram.det()) == 4 * mu**2 * (mu - 1)
    [solution] = sympy.solve(list(gram * sympy.Matrix([x, y]) - demanded), [x, y], dict=True)
    b = 1 / (2 * (mu - 1))
    assert sympy.simplify(solution[x] - (1 - b)) == 0
    assert sympy.simplify(solution[y] - b) == 0
    assert not solution[y].is_polynomial(mu)
    assert sympy.limit(solution[y], mu, 1, "+") == sympy.oo


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


@pytest.mark.parametrize("n", [3, 4])
def test_mode_vacuum_moments_agree_to_length_four(n):
    # past n = 2 the states differ, but the Phi coefficients agree on every
    # word of length <= 4 and on all but one word of length 5
    import itertools

    generators = [(n, 0), (0, n), (n - 1, n - 1)]

    def phi_coefficients(length):
        for indices in itertools.product(generators, repeat=length):
            w = word(*indices)
            truncated = dict(reduce_truncated(n, w)).get(0, MuPoly.zero())
            yield indices, truncated, vacuum_expectation(w)

    checked = 0
    for length in range(1, 5):
        for indices, truncated, untruncated in phi_coefficients(length):
            assert truncated == untruncated, indices
            checked += 1
    assert checked == 120

    differing = [
        (indices, truncated, untruncated)
        for indices, truncated, untruncated in phi_coefficients(5)
        if truncated != untruncated
    ]
    [(indices, truncated, untruncated)] = differing
    assert indices == ((0, n), (0, n), (n - 1, n - 1), (n, 0), (n, 0))
    if n == 3:
        assert truncated == MuPoly([0, 1944, 270, 6])
        assert untruncated == MuPoly([0, 2916, 270, 6])


def test_mode_disagreement_at_higher_order():
    # for n >= 3 the untruncated action leaves the number-vector line
    n = 3
    w = word((0, n), (n, 0), (n, 0), (n, 0))
    with pytest.raises(ValueError):
        state_in_number_basis(n, reduce_untruncated(w))

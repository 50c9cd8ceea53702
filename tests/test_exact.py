"""The theorem's moments against exact values in Q(i) (``tests/_exact.py``).

One analytic geometric A (scale 1, ratio 1/2) and two independent standard
semicircles ``b1``, ``b2``; coefficients from {1, -1, 2, i}, so every
moment is a Gaussian rational and every coefficient of an expansion is a
Gaussian integer, exact in floats.

The bound is ``K * u * S_m``, u = 2^-53, S_m the exact sum of
``|coefficient * moment|`` over the expansion (the condition of the sum,
Higham ch. 4).  K is fixed: a polynomial of the stream has at most 6 terms,
so ``p**4`` has at most 6^4 = 1296; a term of the oracle or of the weight
batch is rounded at most three times (the weight's division, and two
products), and a recursive sum of N such terms is within about
``(N + 3) * u * S_m`` (first order).  K = 2048 rounds that up.  An
eigenvalue power sum is held to the same K; for odd m it uses
``sqrt(S_(m-1) * S_(m+1))``, which bounds ``sum |lambda|^m`` (Cauchy-Schwarz),
with ``S_0`` the multiset's size.
"""

import math
import random
from fractions import Fraction

import numpy as np

from cyclospec import (
    AlgMatrix,
    GeometricSpectrum,
    NCPolynomial,
    SpectrumFamily,
    a_gen,
    b_gen,
    chain_moment,
    ev_polynomial,
    poly_moment,
)
from cyclospec import cmcalc
from cyclospec.ncalg import drop_stars

import _exact

K = 2048
U = 2.0**-53
A1, B1, B2 = a_gen(1), b_gen(1), b_gen(2)
COEFFS = (1, -1, 2, 1j)
RATIO = Fraction(1, 2)


def _models(j=0):
    """The package's models at scale 2^j, and the exact parameters."""
    a_model = SpectrumFamily({1: GeometricSpectrum(2.0**j, float(RATIO), None)})
    b_state = cmcalc._SemicircleState({B1: ("g1",), B2: ("g2",)})
    return a_model, b_state, {1: Fraction(2)**j}, {1: RATIO}


def _word(rng, a_letters=None):
    """A word of up to 5 letters holding ``a1`` (exactly ``a_letters`` of
    them, if given)."""
    if a_letters is None:
        word = [rng.choice((A1, B1, B2)) for _ in range(rng.randint(1, 5))]
        word[rng.randrange(len(word))] = A1
        return tuple(word)
    word = [A1] * a_letters + [rng.choice((B1, B2)) for _ in range(rng.randint(0, 3))]
    rng.shuffle(word)
    return tuple(word)


def _selfadjoint(rng, a_letters=None):
    """``q + q*`` for q of up to 3 terms, as the package's polynomial and as
    an exact one, built apart (every generator is selfadjoint, so the
    adjoint reverses a word and writes it without stars)."""
    terms = [(_word(rng, a_letters), rng.choice(COEFFS)) for _ in range(rng.randint(1, 3))]
    q = NCPolynomial.zero()
    exact: dict = {}
    for word, coeff in terms:
        q = q + NCPolynomial.from_word(word, coeff)
        for w, z in ((word, _exact.gaussian(coeff)),
                     (word[::-1], _exact.gaussian(complex(coeff).conjugate()))):
            exact[w] = _exact.add(exact.get(w, _exact.ZERO), z)
    exact = {w: z for w, z in exact.items() if z != _exact.ZERO}
    return q + drop_stars(q.adjoint()), exact


def _error(value: complex, exact: tuple) -> float:
    return abs(complex(Fraction(value.real) - exact[0], Fraction(value.imag) - exact[1]))


def test_moments_are_within_k_roundings_of_the_exact_values():
    rng = random.Random(2323)
    a_model, b_state, scales, ratios = _models()
    checked = 0
    for _ in range(30):
        poly, exact = _selfadjoint(rng)
        if poly.is_zero():
            continue
        assert poly.terms.keys() == exact.keys()
        values = ev_polynomial(poly, a_model, b_state, 64).multiset.values
        sizes = {0: Fraction(len(values))}
        expected = {}
        for m in range(1, 5):
            expected[m], sizes[m] = _exact.expectation(_exact.power(exact, m), scales, ratios)
        for m in range(1, 5):
            bound = K * U * float(sizes[m])
            assert _error(poly_moment(poly, m, a_model, b_state), expected[m]) <= bound, (poly, m)
            odd = m % 2 == 1
            spread = math.sqrt(sizes[m - 1] * sizes[m + 1]) if odd else float(sizes[m])
            power_sum = complex(float(np.sum(values**m)))
            assert _error(power_sum, expected[m]) <= K * U * spread, (poly, m)
        checked += 1
    assert checked >= 20


def _chain(rng, dim, homogeneous):
    """An A-matrix of ``a1`` (and, unless ``homogeneous``, ``a1 a1``)
    entries and a B-matrix of words of up to 2 letters, as ``AlgMatrix``es
    and as exact matrices."""
    def entry(words, least):
        return {rng.choice(words): rng.choice(COEFFS) for _ in range(rng.randint(least, 2))}
    # every A entry nonzero, since an A-position refuses a zero matrix
    a = [[entry([(A1,)] if homogeneous else [(A1,), (A1, A1)], 1) for _ in range(dim)]
         for _ in range(dim)]
    b = [[entry([(), (B1,), (B2,), (B1, B1), (B1, B2)], 0) for _ in range(dim)]
         for _ in range(dim)]
    chain = [AlgMatrix([[NCPolynomial(terms) for terms in row] for row in mat]) for mat in (a, b)]
    exact = [[[{w: _exact.gaussian(c) for w, c in terms.items()} for terms in row] for row in mat]
             for mat in (a, b)]
    return chain, exact


def test_chain_moment_is_within_k_roundings_of_the_exact_value():
    rng = random.Random(2324)
    a_model, b_state, scales, ratios = _models()
    for dim, orders in ((1, (1, 2, 3, 4)), (2, (1, 2))) * 6:
        chain, exact = _chain(rng, dim, False)
        for m in orders:
            trace = _exact.chain_trace(exact, m)
            assert len(trace) <= 1296
            expected, size = _exact.expectation(trace, scales, ratios)
            got = chain_moment(chain, m, a_model, b_state)
            assert _error(got, expected) <= K * U * float(size), (dim, m)


def _ldexp(z: complex, e: int) -> complex:
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def test_scaling_a_by_a_power_of_two_scales_every_value_exactly():
    rng = random.Random(2325)
    base = _models()
    for _ in range(6):
        a_letters = rng.randint(1, 2)
        poly, exact = _selfadjoint(rng, a_letters)
        if poly.is_zero():
            continue
        chain, exact_chain = _chain(rng, rng.randint(1, 2), True)
        for m in (1, 2, 3):
            degree = a_letters * m
            values = (poly_moment(poly, m, *base[:2]), chain_moment(chain, m, *base[:2]))
            exact_values = (_exact.expectation(_exact.power(exact, m), *base[2:])[0],
                            _exact.expectation(_exact.chain_trace(exact_chain, m), *base[2:])[0])
            for j in (-40, -7, 1, 13, 40):
                a_model, b_state, scales, ratios = _models(j)
                scaled = (poly_moment(poly, m, a_model, b_state),
                          chain_moment(chain, m, a_model, b_state))
                assert scaled == (_ldexp(values[0], j * degree), _ldexp(values[1], j * m))
                exact_scaled = (_exact.expectation(_exact.power(exact, m), scales, ratios)[0],
                                _exact.expectation(_exact.chain_trace(exact_chain, m),
                                                   scales, ratios)[0])
                factors = (Fraction(2)**(j * degree), Fraction(2)**(j * m))
                assert exact_scaled == tuple(
                    (x[0] * f, x[1] * f) for x, f in zip(exact_values, factors))

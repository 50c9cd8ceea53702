"""Exact cyclic-monotone moments over Q(i), with the standard library only.

A reference with no tolerance: the moments of polynomials in one analytic
geometric A-family and independent standard semicircle B letters are exact
Gaussian rationals.  Nothing here reaches the package's oracle, reduction,
dense evaluator or spectra; a letter is read as the plain triple
``(family, index, star)`` that ``ncalg.Letter`` is.

- A Gaussian rational is a pair ``(re, im)`` of ``Fraction``s.
- A polynomial is a dict from words (tuples of letters) to Gaussian
  rationals; :func:`power` expands ``p**m`` by repeated multiplication.
- :func:`moment` reads the factorization from its definition: rotate the
  word so that it starts with an A-letter (traciality), cut it into maximal
  A-runs and B-runs, and multiply the weight of the A-letters in order by
  the state value of each B-run.
- The weight of an analytic geometric family on a word of A-letters is
  ``prod(scale_i) / (1 - prod(ratio_i))``, the sum over k of the product of
  the letters' k-th eigenvalues ``scale * ratio**k``; every generator is
  selfadjoint, so a star changes nothing.
- The state of a B-run is its number of non-crossing pairings of letters
  with equal indices (independent standard semicircles).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def gaussian(z) -> tuple:
    """A number whose parts are floats, or ints, exactly."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def mul(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def add(x: tuple, y: tuple) -> tuple:
    return x[0] + y[0], x[1] + y[1]


def magnitude(x: tuple) -> float:
    """``|x|``, rounded once to a float (it only sizes a bound)."""
    return float(x[0] * x[0] + x[1] * x[1]) ** 0.5


def product(p: dict, q: dict) -> dict:
    out: dict = {}
    for u, x in p.items():
        for v, y in q.items():
            w = u + v
            z = add(out.get(w, ZERO), mul(x, y))
            if z == ZERO:
                out.pop(w, None)
            else:
                out[w] = z
    return out


def power(p: dict, m: int) -> dict:
    out = {(): ONE}
    for _ in range(m):
        out = product(out, p)
    return out


def matrix_product(left: list, right: list) -> list:
    """Matrices of polynomials, multiplied entry by entry."""
    out = []
    for row in left:
        line = []
        for j in range(len(right[0])):
            entry: dict = {}
            for p, poly in enumerate(row):
                for w, z in product(poly, right[p][j]).items():
                    entry[w] = add(entry.get(w, ZERO), z)
            line.append({w: z for w, z in entry.items() if z != ZERO})
        out.append(line)
    return out


def chain_trace(chain: list, m: int) -> dict:
    """The trace of ``(M1 @ ... @ ML)**m`` for square matrices of polynomials."""
    total = chain[0]
    for mat in chain[1:]:
        total = matrix_product(total, mat)
    power_of = total
    for _ in range(m - 1):
        power_of = matrix_product(power_of, total)
    trace: dict = {}
    for i, row in enumerate(power_of):
        for w, z in row[i].items():
            trace[w] = add(trace.get(w, ZERO), z)
    return {w: z for w, z in trace.items() if z != ZERO}


@lru_cache(maxsize=None)
def pairings(indices: tuple) -> int:
    """Non-crossing pairings of equal indices: the last letter pairs with an
    equal one at an odd distance before it, splitting the rest into the
    letters between them and those before."""
    if not indices:
        return 1
    last = len(indices) - 1
    return sum(pairings(indices[:k]) * pairings(indices[k + 1:last])
               for k in range(last - 1, -1, -2) if indices[k] == indices[last])


def moment(word: tuple, scales: dict, ratios: dict) -> tuple:
    """The cyclic-monotone moment of ``word``; ``scales`` and ``ratios`` map
    each A-index to its geometric family's ``Fraction`` parameters."""
    start = next(k for k, letter in enumerate(word) if letter[0] == "a")
    rotated = word[start:] + word[:start]
    scale, ratio, state = Fraction(1), Fraction(1), 1
    run: list = []
    for letter in rotated + (None,):
        if letter is None or letter[0] == "a":
            if run:
                state *= pairings(tuple(run))
                run = []
            if letter is not None:
                scale *= scales[letter[1]]
                ratio *= ratios[letter[1]]
        else:
            run.append(letter[1])
    return scale * state / (1 - ratio), Fraction(0)


def expectation(poly: dict, scales: dict, ratios: dict) -> tuple[tuple, Fraction]:
    """``(sum of coeff * moment, sum of |coeff * moment|)`` over ``poly``:
    the exact value, and the condition of its sum, which only sizes a bound
    (each magnitude is rounded once to a float)."""
    value, size = ZERO, Fraction(0)
    for w, z in poly.items():
        term = mul(z, moment(w, scales, ratios))
        value = add(value, term)
        size += Fraction(magnitude(term))
    return value, size

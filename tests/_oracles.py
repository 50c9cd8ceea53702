"""Randomized instance builders shared by recipe tests and the acceptance gate.

Each builder returns the scalar polynomial, the models which the brute-force
moment oracle evaluates it against, and the inputs of the matching closed-form
recipe.  The oracle side and the recipe side share the same truncation, so
the identities hold to rounding.

``DEMO_B_STATES`` holds the B state tables that the demo files once gave by
hand, 17 values, which the tests compare with the derived state and edit.
"""

import functools
import json

import numpy as np

from cyclospec import (
    ExplicitSpectrum,
    MatrixTraceFamily,
    MomentTable,
    NCPolynomial,
    NotInDomainError,
    SpectrumFamily,
    TraceMatrixState,
    a_gen,
    b_gen,
)
from cyclospec.ncalg import FAMILY_A, FAMILY_B, Letter, word_str


# each demo's former prediction.b_state, as its file held it
DEMO_B_STATES = {
    "example1": {"degree_cap": 4, "moments": {
        "b1*b1": 1.0, "b1*b1*b1*b1": 2.0, "b1*b1*b2*b2": 1.0, "b1*b1*b3*b3": 1.0,
        "b2*b2": 1.0, "b2*b2*b2*b2": 2.0, "b2*b2*b3*b3": 1.0, "b3*b3": 1.0, "b3*b3*b3*b3": 2.0}},
    "example2": {"moments": {"b1*b1": 1.0, "b1*b2": 0.0, "b2*b2": 1.0}},
    "example2-correlated": {"moments": {"b1*b1": 1.0, "b1*b2": 1.0, "b2*b2": 1.0}},
    "example3": {"moments": {"b1": 1.0, "b1*b1": 2.0}},
}


def with_demo_b_state(doc):
    """A copy of the demo scenario ``doc`` that gives its former table."""
    doc = json.loads(json.dumps(doc))
    doc["prediction"] = {"b_state": json.loads(json.dumps(DEMO_B_STATES[doc["name"]]))}
    return doc


def random_hermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2.0


def random_general(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_psd(k, rng):
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return z.conj().T @ z / k


def sum_bab_instance(k, n, rng):
    """Polynomial sum_i b_i a_i b_i* with a random Hermitian PSD Gram matrix."""
    gram = random_psd(k, rng)
    moments = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            moments[(b_gen(i, star=True), b_gen(j))] = gram[i - 1, j - 1]
    b_state = MomentTable(moments, degree_cap=2)
    mats = {i: random_hermitian(n, rng) for i in range(1, k + 1)}
    a_model = MatrixTraceFamily(mats)
    poly = NCPolynomial.zero()
    for i in range(1, k + 1):
        poly = poly + NCPolynomial.from_word((b_gen(i), a_gen(i), b_gen(i, star=True)))
    a_list = [mats[i] for i in range(1, k + 1)]
    return {"poly": poly, "a_model": a_model, "b_state": b_state,
            "gram": gram, "a_list": a_list}


def sum_aba_instance(k, n, rng):
    """Polynomial sum_i a_i b_i a_i* with random real state values."""
    taus = rng.uniform(-2.0, 2.0, size=k)
    b_state = MomentTable({(b_gen(i),): taus[i - 1] for i in range(1, k + 1)}, degree_cap=1)
    mats = {i: random_general(n, rng) for i in range(1, k + 1)}
    a_model = MatrixTraceFamily(mats)
    poly = NCPolynomial.zero()
    for i in range(1, k + 1):
        poly = poly + NCPolynomial.from_word((a_gen(i), b_gen(i), a_gen(i, star=True)))
    return {"poly": poly, "a_model": a_model, "b_state": b_state,
            "taus": taus, "a_list": [mats[i] for i in range(1, k + 1)]}


def sum_bac_instance(k, n, rng, beta=None):
    """Polynomial sum_i b_i a c_i with a random symmetric beta matrix, or the
    given one.

    Generators 1..k play the left role, k+1..2k the right role; the table
    stores tau(c_i b_j) = beta[i, j].  A symmetric beta keeps the spectrum
    real, which is what the recipe requires.
    """
    if beta is None:
        beta = rng.uniform(-2.0, 2.0, size=(k, k))
        beta = (beta + beta.T) / 2.0
    moments = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            moments[(b_gen(k + i), b_gen(j))] = beta[i - 1, j - 1]
    b_state = MomentTable(moments, degree_cap=2)
    values = rng.uniform(-1.5, 1.5, size=n)
    spectrum = ExplicitSpectrum(values)
    a_model = SpectrumFamily({1: spectrum})
    poly = NCPolynomial.zero()
    for i in range(1, k + 1):
        poly = poly + NCPolynomial.from_word((b_gen(i), a_gen(1), b_gen(k + i)))
    return {"poly": poly, "a_model": a_model, "b_state": b_state,
            "beta": beta, "spectrum": spectrum}


def sum_bac_swapped_pair_instance(n, rng):
    """The swapped-pair shape b a c + c a b, whose beta is not symmetric.

    With tau(cb) = s, tau(c^2) = u >= 0, tau(b^2) = v >= 0 the reduced matrix
    is [[s, u], [v, s]] with real eigenvalues s +- sqrt(u v).
    """
    s = rng.uniform(-1.0, 1.0)
    u = rng.uniform(0.1, 2.0)
    v = rng.uniform(0.1, 2.0)
    moments = {
        (b_gen(2), b_gen(1)): s,
        (b_gen(2), b_gen(2)): u,
        (b_gen(1), b_gen(1)): v,
    }
    b_state = MomentTable(moments, degree_cap=2)
    values = rng.uniform(-1.5, 1.5, size=n)
    spectrum = ExplicitSpectrum(values)
    a_model = SpectrumFamily({1: spectrum})
    poly = NCPolynomial.from_word((b_gen(1), a_gen(1), b_gen(2))) + NCPolynomial.from_word(
        (b_gen(2), a_gen(1), b_gen(1))
    )
    beta = np.array([[s, u], [v, s]])
    return {"poly": poly, "a_model": a_model, "b_state": b_state,
            "beta": beta, "spectrum": spectrum}


def conjugated_sum_instance(k, n, rng):
    """Polynomial sum_i b_i (a_i c_i a_i*) b_i* with selfadjoint cores c_i."""
    gram = random_psd(k, rng)
    c_taus = rng.uniform(-2.0, 2.0, size=k)
    moments = {}
    for i in range(1, k + 1):
        moments[(b_gen(k + i),)] = c_taus[i - 1]
        for j in range(1, k + 1):
            moments[(b_gen(i, star=True), b_gen(j))] = gram[i - 1, j - 1]
    b_state = MomentTable(moments, degree_cap=2)
    mats = {i: random_general(n, rng) for i in range(1, k + 1)}
    a_model = MatrixTraceFamily(mats)
    poly = NCPolynomial.zero()
    for i in range(1, k + 1):
        word = (b_gen(i), a_gen(i), b_gen(k + i), a_gen(i, star=True), b_gen(i, star=True))
        poly = poly + NCPolynomial.from_word(word)
    return {"poly": poly, "a_model": a_model, "b_state": b_state,
            "gram": gram, "c_taus": c_taus, "a_list": [mats[i] for i in range(1, k + 1)]}


def commutator_instance(n, rng):
    """i(ab - ba) with a random consistent state table (variance >= 0)."""
    tau_b = rng.uniform(-1.5, 1.5)
    tau_b2 = tau_b**2 + rng.uniform(0.0, 2.0)
    b_state = MomentTable.from_b_powers({1: tau_b, 2: tau_b2})
    values = rng.uniform(-1.5, 1.5, size=n)
    spectrum = ExplicitSpectrum(values)
    a_model = SpectrumFamily({1: spectrum})
    ab = NCPolynomial.from_word((a_gen(1), b_gen(1)))
    ba = NCPolynomial.from_word((b_gen(1), a_gen(1)))
    poly = 1j * (ab - ba)
    return {"poly": poly, "a_model": a_model, "b_state": b_state,
            "tau_b": tau_b, "tau_b2": tau_b2, "spectrum": spectrum}


def anticommutator_instance(n, rng):
    """ab + ba with a random PSD-consistent state table."""
    tau_b = rng.uniform(-1.5, 1.5)
    tau_b2 = tau_b**2 + rng.uniform(0.0, 2.0)
    b_state = MomentTable.from_b_powers({1: tau_b, 2: tau_b2})
    values = rng.uniform(-1.5, 1.5, size=n)
    spectrum = ExplicitSpectrum(values)
    a_model = SpectrumFamily({1: spectrum})
    ab = NCPolynomial.from_word((a_gen(1), b_gen(1)))
    ba = NCPolynomial.from_word((b_gen(1), a_gen(1)))
    return {"poly": ab + ba, "a_model": a_model, "b_state": b_state,
            "tau_b": tau_b, "tau_b2": tau_b2, "spectrum": spectrum}


# ---------------------------------------------------------------------------
# random chains for the reduction-soundness check
# ---------------------------------------------------------------------------

# (dim, k, m, max terms per entry) combinations kept small enough for the
# exponential unreduced expansion (roughly (dim*terms)**(2km) words); every
# individual bound (dim 3, k 3, m 3) is reached by some combination.
CHAIN_SHAPES = [
    (1, 1, 3, 2),
    (1, 2, 3, 2),
    (1, 3, 2, 2),
    (2, 1, 2, 2),
    (2, 1, 3, 2),
    (2, 2, 1, 2),
    (2, 2, 2, 1),
    (2, 2, 3, 1),
    (2, 3, 1, 2),
    (2, 3, 2, 1),
    (3, 1, 1, 2),
    (3, 1, 2, 2),
    (3, 1, 3, 1),
    (3, 2, 1, 2),
    (3, 2, 2, 1),
    (3, 3, 1, 1),
]


def _random_entry(rng, gens, max_terms, allow_unit):
    from cyclospec import NCPolynomial

    poly = NCPolynomial.zero()
    n_terms = int(rng.integers(1, max_terms + 1))
    for _ in range(n_terms):
        length = int(rng.integers(0 if allow_unit else 1, 3))
        word = tuple(gens[rng.integers(0, len(gens))] for _ in range(length))
        coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        poly = poly + NCPolynomial.from_word(word, coeff)
    if poly.is_zero():
        poly = NCPolynomial.from_word((gens[0],))
    return poly


def chain_instance(rng):
    """A random alternating chain plus matrix-backed state and weight models."""
    from cyclospec import AlgMatrix, TraceMatrixState

    dim, k, m, max_terms = CHAIN_SHAPES[rng.integers(0, len(CHAIN_SHAPES))]
    a_letters = [a_gen(i, star=s) for i in (1, 2) for s in (False, True)]
    b_letters = [b_gen(i, star=s) for i in (1, 2) for s in (False, True)]
    chain = []
    for _ in range(k):
        a_rows = [
            [_random_entry(rng, a_letters, max_terms, allow_unit=False) for _ in range(dim)]
            for _ in range(dim)
        ]
        b_rows = [
            [_random_entry(rng, b_letters, max_terms, allow_unit=True) for _ in range(dim)]
            for _ in range(dim)
        ]
        chain.append(AlgMatrix(a_rows))
        chain.append(AlgMatrix(b_rows))
    b_state = TraceMatrixState({i: random_general(3, rng) for i in (1, 2)})
    a_model = MatrixTraceFamily({i: random_general(4, rng) for i in (1, 2)})
    return {"chain": chain, "m": m, "a_model": a_model, "b_state": b_state}


def memoized_models(a_mats, b_mats):
    """Fresh matrix models over ``a_mats`` and ``b_mats`` whose ``omega`` and
    ``tau`` multiply each word out once (``functools.cache`` on the bound
    methods), for references that ask many words again; the package's
    models keep no value per word."""
    a_model, b_state = MatrixTraceFamily(a_mats), TraceMatrixState(b_mats)
    a_model.omega = functools.cache(a_model.omega)
    b_state.tau = functools.cache(b_state.tau)
    return a_model, b_state


def stray_arrays(state):
    """The arrays that a matrix state holds anywhere in its attributes, its
    letter table ``state._letters`` among them, other than its generators
    and their adjoints: what it keeps of the words it was asked."""
    generators = list(state.matrices.values())
    adjoints = [g.conj().T for g in generators]

    def held(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, dict):
            for value in obj.values():
                yield from held(value)
        elif isinstance(obj, (list, tuple, set)):
            for value in obj:
                yield from held(value)
        elif hasattr(obj, "__dict__"):
            yield from held(vars(obj))

    return [arr for arr in held(vars(state))
            if not any(arr is g for g in generators)
            and not any(np.array_equal(arr, adjoint) for adjoint in adjoints)]


def reference_cm_moment(w, a_model, b_state):
    """A frozen copy of the run-scanning ``cm_moment`` that the one-pass
    oracle replaced; tests compare the two value for value and call for call.
    """
    w = tuple(w)
    n = len(w)
    start = 0
    # w[i][0] is w[i].family: a NamedTuple field read by name costs about 3x
    while start < n and w[start][0] == FAMILY_B:
        start += 1
    if start == n:
        raise NotInDomainError(
            f"word {word_str(w)} contains no A-letter, so it lies outside the weight domain"
        )
    leading_b = w[:start]
    a_word: list[Letter] = []
    value = 1 + 0j
    while True:
        a_end = start
        while a_end < n and w[a_end][0] == FAMILY_A:
            a_end += 1
        a_word += w[start:a_end]
        start = a_end
        while start < n and w[start][0] == FAMILY_B:
            start += 1
        if start == n:
            run = w[a_end:] + leading_b
            if run:
                value *= b_state.tau(run)
            return value * a_model.omega(tuple(a_word))
        value *= b_state.tau(w[a_end:start])


def reconstruct(form):
    """The word that an ``alternating_form`` decomposed: its leading B-run,
    then each A-run and the B-run after it.  Equal to the word, it shows the
    form loses nothing."""
    out = list(form.leading_b)
    for a_block, b_block in form.blocks:
        out.extend(a_block)
        out.extend(b_block)
    return tuple(out)

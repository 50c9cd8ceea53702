import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cyclospec import (
    AlgMatrix,
    ComplexEigenvaluesError,
    DegreeExceededError,
    EVMultiset,
    ExplicitSpectrum,
    GeometricSpectrum,
    MatrixTraceFamily,
    MomentTable,
    NCPolynomial,
    NotInDomainError,
    NotPositiveError,
    NotSelfadjointError,
    SpectrumFamily,
    TraceMatrixState,
    a_gen,
    b_gen,
    chain_moment,
    chain_moment_unreduced,
    cm_moment,
    ev_anticommutator,
    ev_chain,
    ev_commutator,
    ev_conjugated_sum,
    ev_polynomial,
    ev_sum_aba,
    ev_sum_bab,
    ev_sum_bac,
    hermitian_spectrum,
    make_symbols,
    multiset_moment,
    parse_expression,
    poly_moment,
    reduce_b_matrix,
    sample_haar_unitary,
    sqrtm_psd,
)
from cyclospec import builtin_scenario, cmcalc, linred, rmtlab
from cyclospec.ncalg import WordCode, drop_stars

from _oracles import (
    anticommutator_instance,
    chain_instance,
    commutator_instance,
    conjugated_sum_instance,
    memoized_models,
    random_general,
    random_hermitian,
    random_psd,
    stray_arrays,
    sum_aba_instance,
    sum_bab_instance,
    sum_bac_instance,
    sum_bac_swapped_pair_instance,
)

SYMS = make_symbols(a=("a1", "a2"), b=("b1", "b2", "b3"))


def rel_close(x, y, tol=1e-9):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def semicircle_square_table():
    moments = {}
    for i in (1, 2, 3):
        bi = b_gen(i)
        moments[(bi, bi)] = 1.0
        moments[(bi, bi, bi, bi)] = 2.0
        for j in (1, 2, 3):
            if i < j:
                moments[(bi, bi) + (b_gen(j), b_gen(j))] = 1.0
    return MomentTable(moments, degree_cap=4)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def test_reduce_linearization_matrix():
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    b = AlgMatrix([["b1", "0"], ["1", "0"]])
    np.testing.assert_allclose(reduce_b_matrix(b, table), [[1, 0], [1, 0]])


def test_reduce_squared_semicircle_block():
    table = semicircle_square_table()
    b = AlgMatrix([["b1*b1", "b2*b2"], ["b2*b2", "b3*b3"]])
    squared = b @ b
    np.testing.assert_allclose(reduce_b_matrix(squared, table), [[4, 2], [2, 4]])


def test_reduce_identity():
    table = MomentTable.from_b_powers({1: 1.0})
    identity = AlgMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    np.testing.assert_allclose(reduce_b_matrix(identity, table), np.eye(3))


def test_reduce_rejects_a_entries():
    table = MomentTable.from_b_powers({1: 1.0})
    with pytest.raises(NotInDomainError):
        reduce_b_matrix(AlgMatrix([["a1"]]), table)


def test_purity_tags():
    assert AlgMatrix([["a1"]]).purity() == "a"
    assert AlgMatrix([["b1 + 1"]]).purity() == "b"
    assert AlgMatrix([["a1 + 1"]]).purity() == "mixed"
    assert AlgMatrix([["a1*b1"]]).purity() == "mixed"


# ---------------------------------------------------------------------------
# chain moments
# ---------------------------------------------------------------------------


def test_chain_moment_scalar_case():
    fam = SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, count=None)})
    table = MomentTable.from_b_powers({1: 1.0})
    chain = [AlgMatrix([["a1"]]), AlgMatrix([["b1"]])]
    assert chain_moment(chain, 1, fam, table) == pytest.approx(2.0)


def _block_limit_by_path_enumeration(m):
    """Independent combinatorial oracle for the 2x2 block-chain limit moments.

    Sums over all cyclic index paths of the reduced chain: the rotated-copy
    letters contribute only when every occurrence along the path is the same
    letter, with the analytic power sum 1/(1 - 2**-m); the reduced entries
    are the known limits [[4, 2], [2, 4]].
    """
    import itertools

    bprime = np.array([[4.0, 2.0], [2.0, 4.0]])
    letter_of = {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 3}
    power_sum = 1.0 / (1.0 - 0.5**m)
    total = 0.0
    for path in itertools.product((0, 1), repeat=2 * m):
        rows = path[0::2]
        cols = path[1::2]
        letters = {letter_of[(rows[t], cols[t])] for t in range(m)}
        if len(letters) != 1:
            continue
        weight = 1.0
        for t in range(m):
            weight *= bprime[cols[t], rows[(t + 1) % m]]
        total += weight * power_sum
    return total


def test_chain_moment_block_limits():
    from cyclospec.cmcalc import HaarConjugatedFamily

    table = semicircle_square_table()
    a_alg = AlgMatrix([["a1", "a2"], ["a2", "a3"]])
    b_alg = AlgMatrix([["b1*b1", "b2*b2"], ["b2*b2", "b3*b3"]])
    fam = HaarConjugatedFamily(
        {i: GeometricSpectrum(1.0, 0.5, count=None) for i in (1, 2, 3)}
    )
    squared = b_alg @ b_alg
    assert chain_moment([a_alg, squared], 1, fam, table) == pytest.approx(24.0)
    assert chain_moment([a_alg, squared], 2, fam, table) == pytest.approx(96.0)
    assert chain_moment([a_alg, squared], 3, fam, table) == pytest.approx(384.0)
    # two independent cross-checks: brute-force path enumeration of the
    # reduced chain, and the word-level oracle on the unreduced chain
    for m in (1, 2, 3):
        assert _block_limit_by_path_enumeration(m) == pytest.approx(
            chain_moment([a_alg, squared], m, fam, table)
        )
        assert chain_moment_unreduced([a_alg, squared], m, fam, table) == pytest.approx(
            chain_moment([a_alg, squared], m, fam, table)
        )


# two letters, so that words collide and their sums round; real and imaginary
# parts with many significant bits, so that the order of a sum shows
_coefficient_parts = st.floats(min_value=0.1, max_value=10).flatmap(
    lambda x: st.sampled_from([x, -x])
)
_polys = st.dictionaries(
    st.lists(st.sampled_from([a_gen(1), b_gen(1)]), max_size=2).map(tuple),
    st.builds(complex, _coefficient_parts, _coefficient_parts),
    max_size=3,
).map(NCPolynomial)


@st.composite
def _square_alg_matrices(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    return AlgMatrix([[draw(_polys) for _ in range(dim)] for _ in range(dim)])


@settings(max_examples=60, deadline=None)
@given(_square_alg_matrices(), st.integers(min_value=1, max_value=4))
def test_power_trace_is_bitwise_trace_of_power(mat, m):
    grid = mat.grid()
    power = grid
    for _ in range(m - 1):
        power = linred.grid_product(power, grid)
    assert _items(linred.grid_power_trace(grid, m)) == _items(linred.grid_trace(power))


def _sum_by_addition(polys):
    """``0 + p1 + p2 + ...`` with one new polynomial per addend."""
    acc = NCPolynomial.zero()
    for poly in polys:
        acc = acc + poly
    return acc


def _items(poly):
    """The items of a polynomial, or of a term map, in their order."""
    return list(getattr(poly, "terms", poly).items())


_scalar_entries = st.sampled_from([0j, 1.0, -2.5, 0.3 + 1.7j, -1e-3j])


@st.composite
def _matrix_products(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    left = AlgMatrix([[draw(_polys) for _ in range(dim)] for _ in range(dim)])
    right = AlgMatrix([[draw(_polys) for _ in range(dim)] for _ in range(dim)])
    scalar = np.array([[draw(_scalar_entries) for _ in range(dim)] for _ in range(dim)])
    return left, right, scalar


@settings(max_examples=60, deadline=None)
@given(_matrix_products())
def test_products_accumulate_bitwise_as_repeated_addition(mats):
    left, right, scalar = mats
    n = left.shape[0]
    product = linred.grid_product(left.grid(), right.grid())
    scaled = linred.grid_scaled(left.grid(), scalar)
    entries, products = left.entries, AlgMatrix.from_grid(product).entries
    for i in range(n):
        for j in range(n):
            assert _items(product[i][j]) == _items(_sum_by_addition(
                entries[i][p] * right.entries[p][j] for p in range(n)
            ))
            assert _items(scaled[i][j]) == _items(_sum_by_addition(
                entries[i][p] * scalar[p, j] for p in range(n) if scalar[p, j] != 0
            ))
    assert _items(linred.grid_trace(left.grid())) == _items(
        _sum_by_addition(entries[i][i] for i in range(n)))
    assert _items(linred.grid_power_trace(product, 2)) == _items(_sum_by_addition(
        _sum_by_addition(
            products[i][p] * products[p][i] for p in range(n)
        ) for i in range(n)
    ))


# Letters of both families, with adjoints and indices past 9: a code built
# from the decimal digits of an index, or ranked in order of appearance,
# would order these words unlike the words themselves.
_mixed_a_letters = [a_gen(i, star) for i in (1, 2, 10, 11) for star in (False, True)]
_mixed_b_letters = [b_gen(i, star) for i in (1, 3, 12) for star in (False, True)]


def _mixed_polys(letters, min_len=0):
    return st.dictionaries(
        st.lists(st.sampled_from(letters), min_size=min_len, max_size=2).map(tuple),
        st.builds(complex, _coefficient_parts, _coefficient_parts),
        min_size=1 if min_len else 0,
        max_size=3,
    ).map(NCPolynomial)


def _ref_product(left, right):
    """Entries of ``left @ right`` from plain ``*`` and ``+`` of polynomials."""
    n = len(right)
    return [
        [_sum_by_addition(row[p] * right[p][j] for p in range(n)) for j in range(len(right[0]))]
        for row in left
    ]


def _ref_scaled(left, scalar):
    return [
        [_sum_by_addition(row[p] * scalar[p, j] for p in range(len(row)) if scalar[p, j] != 0)
         for j in range(scalar.shape[1])]
        for row in left
    ]


def _ref_power_trace(entries, m):
    n = len(entries)
    if m == 1:
        return _sum_by_addition(entries[i][i] for i in range(n))
    left = entries
    for _ in range(m - 2):
        left = _ref_product(left, entries)
    return _sum_by_addition(
        _sum_by_addition(left[i][p] * entries[p][i] for p in range(n)) for i in range(n)
    )


def _item_grid(rows):
    return [[_items(poly) for poly in row] for row in rows]


@st.composite
def _mixed_matrices(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    polys = _mixed_polys(_mixed_a_letters + _mixed_b_letters)
    left = [[draw(polys) for _ in range(dim)] for _ in range(dim)]
    right = [[draw(polys) for _ in range(dim)] for _ in range(dim)]
    scalar = np.array([[draw(_scalar_entries) for _ in range(dim)] for _ in range(dim)])
    return left, right, scalar


@settings(max_examples=60, deadline=None)
@given(_mixed_matrices())
def test_matrix_kernels_bitwise_equal_polynomial_arithmetic(mats):
    left, right, scalar = mats
    grid = AlgMatrix(left).grid()
    assert _item_grid(linred.grid_product(grid, AlgMatrix(right).grid())) == _item_grid(
        _ref_product(left, right))
    assert _item_grid(linred.grid_scaled(grid, scalar)) == _item_grid(_ref_scaled(left, scalar))
    for m in (1, 2, 3, 4):
        assert _items(linred.grid_power_trace(grid, m)) == _items(_ref_power_trace(left, m))
    assert _items(linred.grid_trace(grid)) == _items(_ref_power_trace(left, 1))


def _chain_reference(chain, m, a_model, b_state):
    """Both chain traces from polynomial arithmetic on words and ``sorted_terms``,
    evaluated one word at a time on fresh copies of the matrix models, each
    word's product multiplied out once (the package's models keep no memo)."""
    a_model, b_state = memoized_models(a_model.matrices, b_state.matrices)
    entries = [mat.entries for mat in chain]
    reduced = None
    for a_entries, b_mat in zip(entries[0::2], chain[1::2]):
        step = _ref_scaled(a_entries, reduce_b_matrix(b_mat, b_state))
        reduced = step if reduced is None else _ref_product(reduced, step)
    by_weight = 0j
    for word, coeff in _ref_power_trace(reduced, m).sorted_terms():
        by_weight += coeff * a_model.omega(word)
    product = entries[0]
    for more in entries[1:]:
        product = _ref_product(product, more)
    by_oracle = 0j
    for word, coeff in _ref_power_trace(product, m).sorted_terms():
        by_oracle += coeff * cm_moment(word, a_model, b_state)
    return by_weight, by_oracle


def _assert_chain_paths_match_reference(chain, m, a_model, b_state):
    reduced = chain_moment(chain, m, a_model, b_state)
    direct = chain_moment_unreduced(chain, m, a_model, b_state)
    assert (reduced, direct) == _chain_reference(chain, m, a_model, b_state)


def test_chain_paths_bitwise_equal_reference_on_criterion_3_chains():
    rng = np.random.default_rng(3030)
    for _ in range(100):
        inst = chain_instance(rng)
        _assert_chain_paths_match_reference(
            inst["chain"], inst["m"], inst["a_model"], inst["b_state"]
        )


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(1, 1, 3), (1, 2, 2), (2, 1, 2), (2, 1, 1)]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_chain_paths_bitwise_equal_reference_on_mixed_letters(shape, seed, data):
    dim, k, m = shape
    a_polys = _mixed_polys(_mixed_a_letters, min_len=1)
    b_polys = _mixed_polys(_mixed_b_letters)
    chain = []
    for _ in range(k):
        chain.append(AlgMatrix([[data.draw(a_polys) for _ in range(dim)] for _ in range(dim)]))
        chain.append(AlgMatrix([[data.draw(b_polys) for _ in range(dim)] for _ in range(dim)]))
    rng = np.random.default_rng(seed)
    a_model = MatrixTraceFamily({i: random_general(3, rng) for i in (1, 2, 10, 11)})
    b_state = TraceMatrixState({i: random_general(3, rng) for i in (1, 3, 12)})
    _assert_chain_paths_match_reference(chain, m, a_model, b_state)


def _coded_forms_agree(chain, m, a_mats, b_mats, rotations=False) -> int:
    """Every word of the chain's unreduced expansion (and, with
    ``rotations``, every rotation of it, so that B-runs lead and wrap):
    ``cm_moment``'s coded form, on one sweep of fresh models, against the
    definition on fresh models of its own, compared with ``==``; returns
    the number of words."""
    code, grids = linred._coded_grids(chain)
    product = grids[0]
    for grid in grids[1:]:
        product = linred.grid_product(product, grid)
    codes = sorted(linred.grid_power_trace(product, m))
    if rotations:
        codes = sorted({c[j:] + c[:j] for c in codes for j in range(len(c))})
    sweep = cmcalc.CodedSweep(code, MatrixTraceFamily(a_mats), TraceMatrixState(b_mats))
    fam, state = memoized_models(a_mats, b_mats)
    for c in codes:
        assert cm_moment(c, sweep, None) == cm_moment(code.decode(c), fam, state)
    return len(codes)


def test_coded_moment_equals_the_definition_on_criterion_3_chains():
    rng = np.random.default_rng(3030)
    words = 0
    for _ in range(100):
        inst = chain_instance(rng)
        words += _coded_forms_agree(inst["chain"], inst["m"], inst["a_model"].matrices,
                                    inst["b_state"].matrices)
    assert words == 100_631  # every word the oracle meets on these chains


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(1, 1, 3), (1, 2, 2), (2, 1, 2), (2, 1, 1)]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_coded_moment_equals_the_definition_on_mixed_letters(shape, seed, data):
    dim, k, m = shape
    a_polys = _mixed_polys(_mixed_a_letters, min_len=1)
    b_polys = _mixed_polys(_mixed_b_letters)
    chain = []
    for _ in range(k):
        b_rows = [[data.draw(b_polys) for _ in range(dim)] for _ in range(dim)]
        # a unit word in every B-matrix: B-runs that vanish between A-runs
        b_rows[0][0] = b_rows[0][0] + NCPolynomial.from_word(
            (), data.draw(st.builds(complex, _coefficient_parts, _coefficient_parts)))
        chain.append(AlgMatrix([[data.draw(a_polys) for _ in range(dim)] for _ in range(dim)]))
        chain.append(AlgMatrix(b_rows))
    rng = np.random.default_rng(seed)
    a_mats = {i: random_general(3, rng) for i in (1, 2, 10, 11)}
    b_mats = {i: random_general(3, rng) for i in (1, 3, 12)}
    assert _coded_forms_agree(chain, m, a_mats, b_mats, rotations=True) > 0


def test_coded_moment_raises_as_the_definition():
    rng = np.random.default_rng(3034)
    a_mats = {i: random_general(2, rng) for i in (1, 10)}
    b_mats = {i: random_general(2, rng) for i in (1, 3)}
    a1, a10, b1, b3, b12 = a_gen(1), a_gen(10, star=True), b_gen(1), b_gen(3, star=True), b_gen(12)
    cases = [
        # no A-letter in the word, or in the whole code, where b1 codes as chr(0)
        ([a1, a10, b1, b3], [(), (b1,), (b3, b1, b1)]),
        ([b1, b3], [(), (b1,), (b3, b1, b1)]),
        # a B-run over a generator the state has no matrix for
        ([a1, a10, b1, b3, b12], [(a1, b12), (b1, a10, b3, b12, a1, b1)]),
    ]
    for letters, words in cases:
        code = WordCode(letters)
        for w in words:
            models = MatrixTraceFamily(a_mats), TraceMatrixState(b_mats)
            with pytest.raises(NotInDomainError) as coded:
                cm_moment(code.encode(w), cmcalc.CodedSweep(code, *models), None)
            with pytest.raises(NotInDomainError) as plain:
                cm_moment(w, *models)
            assert str(coded.value) == str(plain.value)


def test_numpy_left_operand_raises_type_error():
    # numpy does not read the matrix as a 0-d object array, and AlgMatrix
    # has no left scaling
    mat = AlgMatrix([["a1 + 2*b10'", "a11*b1"], ["0", "b2 - a1"]])
    with pytest.raises(TypeError):
        np.array([[1.0, 2 - 1j], [0.0, 0.5j]]) @ mat
    with pytest.raises(TypeError):
        np.eye(1) @ AlgMatrix([["a1"]])


def test_right_operand_is_an_algmatrix_only():
    # a scalar matrix is folded in by grid_scaled, not by @
    with pytest.raises(TypeError):
        AlgMatrix([["a1"]]) @ np.eye(1)


def test_chain_reduction_soundness_randomized():
    rng = np.random.default_rng(41)
    for _ in range(25):
        inst = chain_instance(rng)
        reduced = chain_moment(inst["chain"], inst["m"], inst["a_model"], inst["b_state"])
        direct = chain_moment_unreduced(
            inst["chain"], inst["m"], inst["a_model"], inst["b_state"]
        )
        assert abs(reduced - direct) <= 1e-9 * max(1.0, abs(reduced), abs(direct))


class _CountingFamily(MatrixTraceFamily):
    def __init__(self, matrices):
        super().__init__(matrices)
        self.batches = []

    def omega_many(self, codes, code):
        self.batches.append((list(codes), code))
        return super().omega_many(codes, code)


def test_unreduced_chain_moment_multiplies_each_distinct_a_word_out_once(monkeypatch):
    # the expansion holds many words per distinct A-word; the sweep asks its
    # model once for each A-word, and MatrixTraceFamily multiplies each out once
    expanded, products, weights = [], [], []
    moment = cmcalc.cm_moment
    product, omega = cmcalc.WordProducts.product, MatrixTraceFamily.omega
    monkeypatch.setattr(cmcalc, "cm_moment",
                        lambda w, *models: expanded.append(w) or moment(w, *models))
    monkeypatch.setattr(cmcalc.WordProducts, "product",
                        lambda self, w: products.append((self, w)) or product(self, w))
    monkeypatch.setattr(MatrixTraceFamily, "omega",
                        lambda self, w: weights.append(w) or omega(self, w))
    rng = np.random.default_rng(3030)
    words = distinct = 0
    for _ in range(100):
        inst = chain_instance(rng)
        fresh = MatrixTraceFamily(inst["a_model"].matrices)
        expanded.clear()
        products.clear()
        weights.clear()
        chain_moment_unreduced(inst["chain"], inst["m"], fresh, inst["b_state"])
        multiplied = [w for owner, w in products if owner is fresh._products]
        assert len(set(weights)) == len(weights)  # asked once per sweep
        assert sorted(multiplied) == sorted(weights)  # and multiplied out once
        words, distinct = words + len(expanded), distinct + len(weights)
    assert words > 2 * distinct


def _kept(*models):
    """What each matrix weight keeps of its last sweep: its prefix products."""
    return [model._products._stack for model in models]


def test_chain_traces_leave_no_prefix_product_when_they_return():
    rng = np.random.default_rng(3030)
    for _ in range(10):
        inst = chain_instance(rng)
        chain, m, fam, state = inst["chain"], inst["m"], inst["a_model"], inst["b_state"]
        code = linred._coded_grids(chain)[0]
        unreduced = chain_moment_unreduced(chain, m, fam, state)
        assert _kept(fam) == [[]] and fam._batched_weights(code) == {}
        # the state holds no product of the words it was asked
        assert stray_arrays(state) == []
        # a second sweep on these models multiplies every word out again
        assert chain_moment_unreduced(chain, m, fam, state) == unreduced
        chain_moment(chain, m, fam, state)
        assert _kept(fam) == [[]] and stray_arrays(state) == []
        assert fam._batched_weights(code)  # its batched weights, by code
        # bitwise the value of fresh models, whose stacks start empty
        fresh = MatrixTraceFamily(fam.matrices), TraceMatrixState(state.matrices)
        assert unreduced == chain_moment_unreduced(chain, m, *fresh)


def test_unreduced_chain_moment_reads_the_weights_chain_moment_batched(monkeypatch):
    owners = []
    product, tau = cmcalc.WordProducts.product, TraceMatrixState.tau
    monkeypatch.setattr(cmcalc.WordProducts, "product",
                        lambda self, w: owners.append(self) or product(self, w))
    monkeypatch.setattr(TraceMatrixState, "tau", lambda self, w: owners.append(self) or tau(self, w))
    rng = np.random.default_rng(3033)
    for _ in range(20):
        inst = chain_instance(rng)
        args = inst["chain"], inst["m"], inst["a_model"], inst["b_state"]
        weights, state = inst["a_model"]._products, inst["b_state"]
        chain_moment(*args)
        owners.clear()
        chain_moment_unreduced(*args)
        # the sweep asks the state, which kept nothing of the reduction, and
        # reads the weights chain_moment left batched
        assert state in owners and weights not in owners
        owners.clear()
        chain_moment_unreduced(*args)
        assert state in owners and weights in owners


def test_unreduced_chain_moment_decodes_and_asks_no_a_word_of_the_batch(monkeypatch):
    weighed, decoded = [], []
    omega, decode = MatrixTraceFamily.omega, WordCode.decode
    monkeypatch.setattr(MatrixTraceFamily, "omega",
                        lambda self, w: weighed.append(w) or omega(self, w))
    monkeypatch.setattr(WordCode, "decode", lambda self, c: decoded.append(c) or decode(self, c))
    rng = np.random.default_rng(3036)
    handed = 0
    for _ in range(20):
        inst = chain_instance(rng)
        args = inst["chain"], inst["m"], inst["a_model"], inst["b_state"]
        code = linred._coded_grids(inst["chain"])[0]
        chain_moment(*args)
        batch = set(inst["a_model"]._batched_weights(code))
        weighed.clear()
        decoded.clear()
        value = chain_moment_unreduced(*args)
        # the sweep's codes of the batch's A-words are the batch's codes
        assert not batch & set(decoded)
        assert not batch & {code.encode(w) for w in weighed}
        fresh = (MatrixTraceFamily(inst["a_model"].matrices),
                 TraceMatrixState(inst["b_state"].matrices))
        assert value == chain_moment_unreduced(inst["chain"], inst["m"], *fresh)
        handed += len(batch)
    assert handed > 1000


# two A-B pairs over the A-letters {a1, a2}, where "\x01" codes a2; the same
# with a2' for a2, where "\x01" codes a2*; and another chain over {a1, a2}
_CROSS_B = ([["b1", "b2"], ["b2*b1", "b1"]], [["b2", "b1*b1"], ["b1", "b2*b2"]])
_CROSS_A = {
    "a1 a2": ([["a1 + a2", "a1*a2"], ["a2*a1", "a2"]], [["a1", "a2*a2"], ["a2 + a1", "a1"]]),
    "a1 a2*": ([["a1 + a2'", "a1*a2'"], ["a2'*a1", "a2'"]],
               [["a1", "a2'*a2'"], ["a2' + a1", "a1"]]),
    "a1 a2 again": ([["a2", "a1"], ["a1*a1", "a2*a1 + a1"]], [["a2*a2", "a1 + a2"], ["a1", "a2"]]),
}


def _cross_chain(name):
    return [AlgMatrix(rows) for pair in zip(_CROSS_A[name], _CROSS_B) for rows in pair]


@pytest.mark.parametrize("first,second", [
    ("a1 a2", "a1 a2*"), ("a1 a2*", "a1 a2"),
    ("a1 a2", "a1 a2 again"), ("a1 a2 again", "a1 a2"),
])
def test_unreduced_chain_moment_reads_no_batch_of_other_a_letters(first, second):
    rng = np.random.default_rng(3037)
    a_mats = {i: random_general(3, rng) for i in (1, 2)}
    b_mats = {i: random_general(3, rng) for i in (1, 2)}
    fam, state = MatrixTraceFamily(a_mats), TraceMatrixState(b_mats)
    chain_moment(_cross_chain(first), 2, fam, state)
    batch = set(fam._batched_weights(linred._coded_grids(_cross_chain(first))[0]))
    fresh = MatrixTraceFamily(a_mats), TraceMatrixState(b_mats)
    expected = chain_moment_unreduced(_cross_chain(second), 2, *fresh)
    assert chain_moment_unreduced(_cross_chain(second), 2, fam, state) == expected
    # the first batch holds codes of the second chain's A-words, and under
    # other A-letters ("\x01" for a2 against a2*) they name other words
    chain_moment(_cross_chain(second), 2, *fresh)
    code = linred._coded_grids(_cross_chain(second))[0]
    assert batch & set(fresh[0]._batched_weights(code))


def test_every_other_sweep_drops_the_batch():
    rng = np.random.default_rng(3038)
    inst = chain_instance(rng)
    chain, m, fam, state = inst["chain"], inst["m"], inst["a_model"], inst["b_state"]
    code = linred._coded_grids(chain)[0]
    raising = parse_expression("a1*a1 + b1*b3", SYMS)  # the state has no matrix for b3
    sweeps = [
        lambda: poly_moment(parse_expression("a1*b1 + a2'", SYMS), 2, fam, state),
        lambda: pytest.raises(NotInDomainError, poly_moment, raising, 2, fam, state),
        lambda: chain_moment_unreduced(chain, m, fam, state),
    ]
    for sweep in sweeps:
        chain_moment(chain, m, fam, state)
        assert fam._batched_weights(code)
        sweep()
        assert fam._batched_weights(code) == {} and _kept(fam) == [[]]


@pytest.mark.parametrize("b_state,error", [
    # every B-run of two letters or more lies beyond the table's degree cap
    (lambda mats: MomentTable({(b_gen(i, s),): 0.5 for i in (1, 2) for s in (False, True)},
                              degree_cap=1), DegreeExceededError),
    # the state has no matrix for b2
    (lambda mats: TraceMatrixState({1: mats[1]}), NotInDomainError),
], ids=["degree-cap", "unknown-generator"])
def test_chain_traces_leave_no_prefix_product_when_they_raise(b_state, error):
    rng = np.random.default_rng(3031)
    raised = 0
    for _ in range(10):
        inst = chain_instance(rng)
        chain, m, fam = inst["chain"], inst["m"], inst["a_model"]
        state = b_state(inst["b_state"].matrices)
        for trace in (chain_moment_unreduced, chain_moment):
            try:
                trace(chain, m, fam, state)
            except error:
                raised += 1
            # a matrix state holds no product of the words it was asked
            if isinstance(state, TraceMatrixState):
                assert stray_arrays(state) == []
            assert fam._products._stack == []
    assert raised >= 10


def test_chain_moment_evaluates_its_words_as_one_batch():
    rng = np.random.default_rng(43)
    for _ in range(5):
        inst = chain_instance(rng)
        counting = _CountingFamily(inst["a_model"].matrices)
        args = (inst["chain"], inst["m"])
        value = chain_moment(*args, counting, inst["b_state"])
        assert value == chain_moment(*args, inst["a_model"], inst["b_state"])
        # the sorted batch reaches the model as codes with their WordCode
        ((batch, code),) = counting.batches
        assert isinstance(code, WordCode) and all(isinstance(c, str) for c in batch)
        assert batch == sorted(batch) and len(set(batch)) == len(batch)
        words = [code.decode(c) for c in batch]
        assert words == sorted(words)
        chain_moment_unreduced(*args, counting, inst["b_state"])
        assert len(counting.batches) == 1


def test_a_chain_whose_trace_cancels_is_an_empty_batch():
    # a1*b1 on the diagonal and -a1*b1 below it: both traces cancel to no
    # term at odd orders, so chain_moment weighs an empty batch
    chain = [AlgMatrix([["a1", "0"], ["0", "0 - a1"]]),
             AlgMatrix([["b1", "0"], ["0", "b1"]])]
    rng = np.random.default_rng(3035)
    matrices = {1: random_general(3, rng)}
    counting = _CountingFamily(matrices)
    for m in (1, 3):
        for a_model, b_state in [(counting, TraceMatrixState(matrices)),
                                 (SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, 8)}),
                                  MomentTable.from_b_powers({1: 0.5}))]:
            assert chain_moment(chain, m, a_model, b_state) == 0j
            assert chain_moment_unreduced(chain, m, a_model, b_state) == 0j
        ((batch, code),) = counting.batches
        assert batch == [] and isinstance(code, WordCode)
        counting.batches.clear()
    assert MatrixTraceFamily(matrices).omega_many([], code) == []


def test_chain_validation_errors():
    fam = SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, 8)})
    table = MomentTable.from_b_powers({1: 1.0})
    with pytest.raises(NotInDomainError):
        chain_moment([AlgMatrix([["b1"]]), AlgMatrix([["b1"]])], 1, fam, table)
    with pytest.raises(NotInDomainError):
        # unit word inside an A-position
        chain_moment([AlgMatrix([["a1 + 1"]]), AlgMatrix([["b1"]])], 1, fam, table)


# ---------------------------------------------------------------------------
# ev_chain
# ---------------------------------------------------------------------------


def test_ev_chain_anticommutator_matrices():
    spec = GeometricSpectrum(1.0, 0.5, count=16)
    fam = SpectrumFamily({1: spec})
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    b0 = AlgMatrix([["1", "b1"], ["0", "0"]])
    a1 = AlgMatrix([["a1", "0"], ["0", "a1"]])
    b1 = AlgMatrix([["b1", "0"], ["1", "0"]])
    pred = ev_chain(b0, [a1, b1], fam, table)
    closed = ev_anticommutator(spec, 1.0, 2.0)
    assert np.max(np.abs(pred.multiset.values - closed.multiset.values)) <= 1e-12


def test_ev_chain_commutator_matrices():
    spec = GeometricSpectrum(1.0, 0.5, count=16)
    fam = SpectrumFamily({1: spec})
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    b0 = AlgMatrix([["i", "0 - i*b1"], ["0", "0"]])
    a1 = AlgMatrix([["a1", "0"], ["0", "a1"]])
    b1 = AlgMatrix([["b1", "0"], ["1", "0"]])
    pred = ev_chain(b0, [a1, b1], fam, table)
    closed = ev_commutator(spec, 1.0, 2.0)
    assert np.max(np.abs(pred.multiset.values - closed.multiset.values)) <= 1e-12


def test_ev_chain_scalar_sandwich_matches_oracle():
    spec = GeometricSpectrum(1.0, 0.5, count=12)
    fam = SpectrumFamily({1: spec})
    table = MomentTable.from_b_powers({1: 0.0, 2: 2.0})
    b0 = AlgMatrix([["b1"]])
    a1 = AlgMatrix([["a1"]])
    b1 = AlgMatrix([["b1"]])
    # trailing block absorbs the leading one: (b1 . b1) reduces to 2
    pred = ev_chain(b0, [a1, b1], fam, table)
    np.testing.assert_allclose(pred.multiset.values, 2.0 * spec.eigenvalues(12), rtol=1e-12)
    # oracle: moments of the sandwiched word match the scaled multiset
    word_poly = __import__("cyclospec").NCPolynomial.from_word(
        (b_gen(1), a_gen(1), b_gen(1))
    )
    for m in (1, 2, 3):
        assert rel_close(
            multiset_moment(pred.multiset, m),
            poly_moment(word_poly, m, fam, table).real,
        )


def test_ev_chain_identity_reduction():
    spec = ExplicitSpectrum([1.0, -0.5, 0.25])
    fam = SpectrumFamily({1: spec})
    table = MomentTable.from_b_powers({1: 1.0})
    b0 = AlgMatrix([["1"]])
    a1 = AlgMatrix([["a1"]])
    b1 = AlgMatrix([["1"]])
    pred = ev_chain(b0, [a1, b1], fam, table)
    np.testing.assert_allclose(
        pred.multiset.values, sorted([1.0, -0.5, 0.25], key=lambda v: (-abs(v), -v))
    )


def test_ev_chain_rejects_nonselfadjoint_product():
    spec = GeometricSpectrum(1.0, 0.5, count=8)
    fam = SpectrumFamily({1: spec})
    table = MomentTable.from_b_powers({1: 1.0})
    b0 = AlgMatrix([["1"]])
    a1 = AlgMatrix([["a1"]])
    b1 = AlgMatrix([["b1 + i"]])
    with pytest.raises(NotSelfadjointError):
        ev_chain(b0, [a1, b1], fam, table)


def _example1_chain(n, scale=1.0, seed=7):
    """The block chain of example1, B A B with squared semicirculars, over one
    finite Haar draw: a1 is the geometric diagonal and a2, a3 its rotations by
    unitaries drawn here.  These are not diagonal, so the dense paths run."""
    a_alg = AlgMatrix([["a1", "a2"], ["a2", "a3"]])
    b_alg = AlgMatrix([["b1*b1", "b2*b2"], ["b2*b2", "b3*b3"]])
    d = scale * 0.5 ** np.arange(n)
    rng = np.random.default_rng(seed)
    mats = {1: np.diag(d)}
    for i in (2, 3):
        u = sample_haar_unitary(n, rng)
        mats[i] = (u * d) @ u.conj().T
    return b_alg, [a_alg, b_alg], MatrixTraceFamily(mats), semicircle_square_table()


def _chain_paths(monkeypatch, predict):
    """The multiset of ``predict()`` (an ``ev_chain`` or ``ev_polynomial``),
    the path it took (``"sandwich"`` or ``"product"``), and the product
    path's multiset, forced by a beta that never passes as PSD."""
    calls = []
    stack_spectrum, gate = linred._stack_spectrum, linred._hermitian_gate
    real_spectrum = linred._real_spectrum

    def spy(*args):
        calls.append("stack")
        return stack_spectrum(*args)

    def gate_spy(m, floor):
        gated = gate(m, floor)
        calls.append("gate")
        return gated

    def solve_spy(*args):
        calls.append("solve")
        return real_spectrum(*args)

    def not_psd(gram):
        raise NotPositiveError("not PSD by construction")

    with monkeypatch.context() as patch:
        patch.setattr(linred, "_stack_spectrum", spy)
        patch.setattr(linred, "_hermitian_gate", gate_spy)
        patch.setattr(linred, "_real_spectrum", solve_spy)
        got = predict().multiset
        # the sandwich passes A through the gate before the shared solve,
        # which gates the sandwich; a product goes to the solve ungated (a
        # gate that refuses A records nothing)
        path = {("stack", "gate", "solve"): "sandwich",
                ("stack", "solve"): "product"}.get(tuple(calls))
        patch.setattr(linred, "sqrtm_psd", not_psd)
        calls.clear()
        product = predict().multiset
        assert tuple(calls) == ("stack", "solve")
    return got, path, product


def _unchecked_chain(b0, chain, a_model, b_state):
    """The ``ev_polynomial`` that ``ev_chain`` hands its chain to, without its
    symbolic check that the product is selfadjoint."""
    letters = [b_gen(len(chain))] + [(a_gen, b_gen)[pos % 2](pos // 2 + 1)
                                     for pos in range(len(chain))]
    return ev_polynomial(NCPolynomial.from_word(letters), a_model, b_state,
                         blocks=dict(zip(letters, [b0, *chain])))


@pytest.mark.parametrize("n", [16, 24, 32])
def test_ev_chain_sandwich_matches_eigvals_path(monkeypatch, n):
    b0, chain, fam, table = _example1_chain(n)
    got, path, product = _chain_paths(monkeypatch, lambda: ev_chain(b0, chain, fam, table))
    assert path == "sandwich"
    assert len(got) == len(product) == 2 * n
    diff = np.max(np.abs(np.sort(got.values) - np.sort(product.values)))
    assert diff <= 1e-10 * np.max(np.abs(product.values))


def test_ev_chain_other_chains_keep_product_path(monkeypatch):
    fam = SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, count=8)})
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    negative = MomentTable.from_b_powers({1: 1.0, 2: -1.0})
    diag_a = AlgMatrix([["a1", "0"], ["0", "a1"]])
    scalar_a, scalar_b = AlgMatrix([["a1"]]), AlgMatrix([["b1"]])
    cases = [
        # B' = [[1, 2], [1, 1]] is not Hermitian (the anticommutator chain)
        (ev_chain, AlgMatrix([["1", "b1"], ["0", "0"]]),
         [diag_a, AlgMatrix([["b1", "0"], ["1", "0"]])], table),
        # B' = [[0, 1], [1, 0]] is Hermitian but indefinite
        (_unchecked_chain, AlgMatrix([[1, 0], [0, 1]]),
         [diag_a, AlgMatrix([["0", "b1"], ["b1", "0"]])], table),
        # B' = tau(b1 b1) = -1 is negative
        (ev_chain, scalar_b, [scalar_a, scalar_b], negative),
        # B' = I is PSD, but the realization of A is not Hermitian
        (_unchecked_chain, AlgMatrix([[1, 0], [0, 1]]),
         [AlgMatrix([["a1", "a1"], ["0", "a1"]]), AlgMatrix([[1, 0], [0, 1]])], table),
    ]
    for predict, b0, chain, b_state in cases:
        got, path, product = _chain_paths(
            monkeypatch, lambda: predict(b0, chain, fam, b_state))
        assert path == "product"
        assert got == product


def test_ev_chain_two_pairs_take_the_hermitian_path(monkeypatch):
    # b1 a1 b1 a1 b1 reduces to the Hermitian tau(b1) a1 a1 with beta =
    # tau(b1 b1) = 2, so the sandwich applies beyond one pair
    fam = SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, count=8)})
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    scalar_a, scalar_b = AlgMatrix([["a1"]]), AlgMatrix([["b1"]])
    got, path, product = _chain_paths(
        monkeypatch, lambda: ev_chain(scalar_b, [scalar_a, scalar_b] * 2, fam, table))
    assert path == "sandwich"
    np.testing.assert_allclose(got.values, product.values, rtol=1e-12)
    np.testing.assert_allclose(got.values, 2.0 * 0.25 ** np.arange(8), rtol=1e-12)


def test_ev_chain_sandwich_takes_rescaled_inputs(monkeypatch):
    # At scale 1e9 the realization of A is Hermitian only up to rounding at
    # that scale, far beyond the absolute 1e-9 floor of the check
    b0, chain, fam, table = _example1_chain(24)
    big = _example1_chain(24, scale=1e9)[2]
    unit = ev_chain(b0, chain, fam, table).multiset
    scaled, path, _ = _chain_paths(monkeypatch, lambda: ev_chain(b0, chain, big, table))
    assert path == "sandwich"
    diff = np.max(np.abs(scaled.values - 1e9 * unit.values))
    assert diff <= 1e-12 * 1e9 * np.max(np.abs(unit.values))


def test_ev_chain_sandwich_is_solved_in_place():
    # the sandwich overwrites the stack it was handed and solves it there; a
    # copy for the eigensolver would add one stack (3.5 stacks at the peak)
    b0, chain, fam, table = _example1_chain(300)
    ev_chain(b0, chain, fam, table)
    tracemalloc.start()
    try:
        floor = tracemalloc.get_traced_memory()[0]
        ev_chain(b0, chain, fam, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - floor < 3 * 16 * 600 * 600  # a 600 x 600 complex A


def test_sandwich_that_fails_its_check_is_not_selfadjoint(monkeypatch):
    # a root with root**2 = i turns the Hermitian tau(b1) a1 a1 into i tau(b1)
    # a1 a1: the solve's gate refuses it, and eigvals finds its imaginary spectrum
    fam = SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, count=8)})
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    scalar_a, scalar_b = AlgMatrix([["a1"]]), AlgMatrix([["b1"]])
    monkeypatch.setattr(linred, "sqrtm_psd", lambda gram: np.array([[np.exp(0.25j * np.pi)]]))
    refused = "max imaginary part 1.000e\\+00 above 1.000e-08"
    with pytest.raises(ComplexEigenvaluesError, match=refused):
        ev_chain(scalar_b, [scalar_a, scalar_b] * 2, fam, table)


def test_complex_spectrum_raises_complex_eigenvalues_error():
    # B' = [[0, 1], [-1, 0]] turns the spectrum of diag(a1, a1) into +-i a1
    fam = SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, count=8)})
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    diag_a = AlgMatrix([["a1", "0"], ["0", "a1"]])
    rotation = AlgMatrix([["0", "b1"], ["0 - b1", "0"]])
    with pytest.raises(ComplexEigenvaluesError, match="imaginary parts"):
        _unchecked_chain(AlgMatrix([[1, 0], [0, 1]]), [diag_a, rotation], fam, table)
    with pytest.raises(ComplexEigenvaluesError, match="imaginary parts"):
        identity = {(b_gen(i), b_gen(j)): float(i == j) for i in (1, 2) for j in (1, 2)}
        ev_polynomial(parse_expression("b1*a1*b2 - b2*a1*b1", SYMS), fam, MomentTable(identity))


# ---------------------------------------------------------------------------
# ev_polynomial
# ---------------------------------------------------------------------------

_POLY_LETTERS = [a_gen(1), a_gen(2), b_gen(1), b_gen(2)]


@functools.cache
def _polynomial_models(a_kind, b_kind):
    """Selfadjoint generators: two A's, and two B's whose state a moment
    table holds on every word of up to 8 letters, or the matrices themselves."""
    rng = np.random.default_rng(70)
    if a_kind == "spectrum":
        a_model = SpectrumFamily({i: ExplicitSpectrum(rng.uniform(-1, 1, size=5)) for i in (1, 2)})
    else:
        a_model = MatrixTraceFamily({i: random_hermitian(3, rng) / 2 for i in (1, 2)})
    state = TraceMatrixState({i: random_hermitian(3, rng) for i in (1, 2)})
    if b_kind == "moment_table":
        letters = [b_gen(1), b_gen(2)]
        words = [w for d in range(1, 9) for w in itertools.product(letters, repeat=d)]
        state = MomentTable({w: state.tau(w) for w in words})
    return a_model, state


_terms = st.lists(
    st.tuples(
        st.lists(st.sampled_from(_POLY_LETTERS), min_size=1, max_size=5)
        .filter(lambda w: any(letter.family == "a" for letter in w)),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=3,
)


@pytest.mark.parametrize("b_kind", ["moment_table", "trace_matrix"])
@pytest.mark.parametrize("a_kind", ["spectrum", "matrix"])
@settings(max_examples=20, deadline=None)
@given(terms=_terms)
def test_ev_polynomial_moments_match_the_oracle(a_kind, b_kind, terms):
    a_model, b_state = _polynomial_models(a_kind, b_kind)
    p = NCPolynomial.zero()
    for word, coeff in terms:
        p = p + NCPolynomial.from_word(tuple(word), coeff)
    # selfadjoint, with every generator selfadjoint and written without stars
    poly = p + drop_stars(p.adjoint())
    assume(not poly.is_zero())
    values = ev_polynomial(poly, a_model, b_state).multiset.values
    for m in range(1, 6):
        oracle = poly_moment(poly, m, a_model, b_state)
        bound = 1e-9 * max(1.0, float(np.sum(np.abs(values) ** m)))
        assert abs(oracle.imag) <= bound
        assert abs(float(np.sum(values**m)) - oracle.real) <= bound


def _assert_same_multiset(got, expected, tol=1e-10):
    assert len(got) == len(expected)
    diff = np.max(np.abs(np.sort(got.values) - np.sort(expected.values)))
    assert diff <= tol * max(1.0, float(np.max(np.abs(expected.values))))


def _closed_form_case(name, rng):
    """(polynomial, A-model, state, blocks, closed-form multiset) of one recipe."""
    if name in ("anticommutator", "commutator"):
        inst = (anticommutator_instance if name == "anticommutator" else commutator_instance)(
            12, rng)
        recipe = ev_anticommutator if name == "anticommutator" else ev_commutator
        closed = recipe(inst["spectrum"], inst["tau_b"], inst["tau_b2"])
    elif name == "sum_bab":
        inst = sum_bab_instance(3, 6, rng)
        closed = ev_sum_bab(inst["a_list"], inst["gram"])
    elif name == "sum_aba":
        inst = sum_aba_instance(3, 6, rng)
        closed = ev_sum_aba(inst["a_list"], inst["taus"])
    elif name == "sum_bac":
        inst = sum_bac_instance(3, 8, rng)
        closed = ev_sum_bac(inst["spectrum"], inst["beta"])
    elif name == "conjugated_sum":
        inst = conjugated_sum_instance(2, 6, rng)
        closed = ev_conjugated_sum(inst["a_list"], inst["c_taus"], inst["gram"])
    else:  # the chain B A B (k = 1) or B A B A B (k = 2) of example1
        b_alg, chain, fam, table = _example1_chain(12)
        k = 1 if name == "chain_k1" else 2
        closed = ev_chain(b_alg, chain * k, fam, table).multiset
        poly = parse_expression("b1" + "*a1*b1" * k, SYMS)
        return poly, fam, table, {a_gen(1): chain[0], b_gen(1): b_alg}, closed, 12
    return inst["poly"], inst["a_model"], inst["b_state"], None, closed.multiset, None


@pytest.mark.parametrize("name", [
    "anticommutator", "commutator", "sum_bab", "sum_aba", "sum_bac", "conjugated_sum",
    "chain_k1", "chain_k2",
])
def test_ev_polynomial_equals_the_closed_forms(name):
    rng = np.random.default_rng(71)
    for _ in range(3):
        poly, a_model, b_state, blocks, closed, truncation = _closed_form_case(name, rng)
        got = ev_polynomial(poly, a_model, b_state, truncation, blocks).multiset
        _assert_same_multiset(got, closed)


def test_ev_polynomial_sum_bac_off_the_sandwich_matches_the_closed_form():
    # beta is not PSD, so the product A (beta x I) is solved summand by summand
    rng = np.random.default_rng(73)
    similar = np.array([[1.0, 0.5, 0.0], [0.2, 1.0, 0.3], [0.0, -0.4, 1.0]])
    symmetric = np.array([[1.0, 2.0], [2.0, -0.5]])
    skew = similar @ np.diag([2.0, -1.0, 0.5]) @ np.linalg.inv(similar)
    assert np.linalg.eigvalsh(symmetric).min() < 0 < np.linalg.eigvalsh(symmetric).max()
    assert not np.allclose(skew, skew.T)
    for inst in (sum_bac_instance(2, 9, rng, beta=symmetric),
                 sum_bac_instance(3, 9, rng, beta=skew),
                 sum_bac_swapped_pair_instance(9, rng)):
        got = ev_polynomial(inst["poly"], inst["a_model"], inst["b_state"]).multiset
        closed = ev_sum_bac(inst["spectrum"], inst["beta"]).multiset
        assert len(got) == len(closed)
        _assert_same_spectrum(got, closed)


def test_ev_polynomial_never_calls_the_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the moment oracle was called")

    for module in (cmcalc, linred, rmtlab):
        for name in ("cm_moment", "poly_moment"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    rng = np.random.default_rng(72)
    for name in ("anticommutator", "sum_bab", "sum_bac", "conjugated_sum", "chain_k2"):
        poly, a_model, b_state, blocks, _, truncation = _closed_form_case(name, rng)
        ev_polynomial(poly, a_model, b_state, truncation, blocks)
    for demo in ("example1", "example2-correlated", "example3"):
        rmtlab.build_prediction(builtin_scenario(demo, n=12, trials=1))


def _random_a_word_text(rng, length):
    return "*".join(str(rng.choice(["a1", "a1'", "a2", "a2'"])) for _ in range(length))


@pytest.mark.parametrize("n", [1, 5, 128, 300])
def test_diagonal_stack_keeps_the_bytes_of_the_product_of_its_factors(n, monkeypatch):
    # a diagonal model's stack multiplies each word's diagonals out through
    # dense._word_product, which must equal, byte for byte, the np.prod over
    # the (conjugated) factors: each an elementwise product, left to right
    rng = np.random.default_rng(n)
    model = MatrixTraceFamily({i: np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
                               for i in (1, 2)})
    diag = {a_gen(i): model.diagonal(i) for i in (1, 2)}
    poly = NCPolynomial.zero()
    for length in (1, 2, 3, 4, 5, 5, 3):
        re, im = rng.standard_normal(2)
        for text in (f"b1*{_random_a_word_text(rng, length)}*b1",
                     _random_a_word_text(rng, length)):
            poly = poly + complex(re, im) * parse_expression(text, SYMS)
    reduction = linred._reduce(poly, MomentTable.from_b_powers({1: 0.4, 2: 1.3}))
    a_grid = reduction[0]
    assert {len(word) for row in a_grid for entry in row for word in entry} == {1, 2, 3, 4, 5}
    stacks = []
    monkeypatch.setattr(linred, "_stack_spectrum",
                        lambda stack, beta: stacks.append(stack.copy()) or EVMultiset([]))
    linred._reduction_spectrum(reduction, model, None)
    expected = np.zeros((n, len(a_grid), len(a_grid)), dtype=complex)
    for i, row in enumerate(a_grid):
        for j, entry in enumerate(row):
            for word, coeff in sorted(entry.items()):
                factors = [diag[x.base()].conj() if x.star else diag[x] for x in word]
                expected[:, i, j] += coeff * np.prod(factors, axis=0)
    (stack,) = stacks
    assert stack.tobytes() == expected.tobytes()


def test_ev_polynomial_rejects_terms_without_a_letters_and_unpaired_runs():
    fam = SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, count=4)})
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    with pytest.raises(NotInDomainError, match="the term b1\\*b1 has no A-letter"):
        ev_polynomial(parse_expression("a1 + b1*b1", SYMS), fam, table)
    with pytest.raises(NotSelfadjointError, match="2 leading B-runs against 1 trailing"):
        ev_polynomial(parse_expression("a1 + b1*a1", SYMS), fam, table)
    # a selfadjoint polynomial whose A reduces to 0 has the spectrum of 0
    zero = parse_expression("i*(a1*a1*b1*a1 - a1*b1*a1*a1)", SYMS)
    assert ev_polynomial(zero, fam, table).multiset.to_list() == [0.0] * 4
    with pytest.raises(NotInDomainError, match="no truncation sizes its spectrum"):
        ev_polynomial(zero, SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, count=None)}), table)


@pytest.mark.parametrize("truncation", [0, -3])
def test_a_truncation_below_1_is_refused_before_the_spectrum(truncation):
    fam = SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, count=None)})
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    with pytest.raises(ValueError, match=f"truncation must be >= 1, not {truncation}"):
        ev_polynomial(parse_expression("a1", SYMS), fam, table, truncation)


# ---------------------------------------------------------------------------
# closed-form recipes against the oracle
# ---------------------------------------------------------------------------


def test_sum_bab_scalar_gram():
    spec = ExplicitSpectrum([1.0, 0.5, -0.25])
    pred = ev_sum_bab([spec], [[2.0]])
    np.testing.assert_allclose(
        pred.multiset.values, [2.0, 1.0, -0.5], rtol=1e-12
    )


def test_sum_bab_identity_gram_is_union():
    a1, a2 = np.diag([1.0, 0.5]), np.diag([0.75, -0.25])
    pred = ev_sum_bab([a1, a2], np.eye(2))
    expected = sorted([1.0, 0.5, 0.75, -0.25], key=lambda v: (-abs(v), -v))
    np.testing.assert_allclose(pred.multiset.values, expected, atol=1e-12)


def test_sum_bab_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        inst = sum_bab_instance(k, int(rng.integers(2, 9)), rng)
        pred = ev_sum_bab(inst["a_list"], inst["gram"])
        for m in range(1, 7):
            oracle = poly_moment(inst["poly"], m, inst["a_model"], inst["b_state"])
            assert rel_close(multiset_moment(pred.multiset, m), oracle.real)
            assert abs(oracle.imag) <= 1e-9 * max(1.0, abs(oracle))


def test_sum_bab_gram_not_psd():
    with pytest.raises(NotPositiveError):
        ev_sum_bab([np.diag([1.0])], [[-0.5]])


def test_sqrtm_psd_clamps_rounding():
    gram = np.array([[1e-12]])
    root = sqrtm_psd(gram - 2e-12)  # slightly negative but within tolerance
    assert root[0, 0] == 0.0


def test_sqrtm_psd_accepts_rescaled_gram():
    # Rounding in a PSD matrix grows with its entries; an absolute 1e-10
    # rejected both inputs, the first as not Hermitian, the second as not PSD.
    rng = np.random.default_rng(1)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    hermitian = 1e6 * (z.conj().T @ z)
    assert np.max(np.abs(hermitian - hermitian.conj().T)) > 1e-10
    v = np.random.default_rng(16).standard_normal((2, 3))
    rank_two = 1e6 * (v.T @ v)
    assert np.linalg.eigh(rank_two.astype(complex))[0][0] < -1e-10
    for gram in (hermitian, rank_two):
        root = sqrtm_psd(gram)
        np.testing.assert_allclose(root @ root, gram, rtol=0, atol=1e-9 * np.max(np.abs(gram)))


def test_sqrtm_psd_rejects_non_hermitian_at_unit_scale():
    with pytest.raises(NotSelfadjointError):
        sqrtm_psd(np.array([[1.0, 1e-9], [0.0, 1.0]]))


def _sum_bab_polynomial(gram, c_taus=None):
    """``sum_i b_i a_i b_i*`` (with ``c_taus``, ``sum_i b_i a_i c_i a_i* b_i*``,
    ``c_i = b_(k+i)``) and the moment table of its state."""
    k = len(gram)
    moments = {(b_gen(i, star=True), b_gen(j)): gram[i - 1][j - 1]
               for i in range(1, k + 1) for j in range(1, k + 1)}
    poly = NCPolynomial.zero()
    for i in range(1, k + 1):
        core = (a_gen(i),)
        if c_taus is not None:
            moments[(b_gen(k + i),)] = c_taus[i - 1]
            core = (a_gen(i), b_gen(k + i), a_gen(i, star=True))
        poly = poly + NCPolynomial.from_word((b_gen(i), *core, b_gen(i, star=True)))
    return poly, MomentTable(moments, degree_cap=2)


def _assert_same_spectrum(got, reference, rel=1e-10):
    # sorted by signed value: canonical order may swap near-ties of |x|
    diff = np.max(np.abs(np.sort(got.values) - np.sort(reference.values)), initial=0.0)
    assert diff <= rel * np.max(np.abs(reference.values), initial=0.0)


def _no_dense(*args):
    raise AssertionError("dense lift built")


@st.composite
def diagonal_recipe_inputs(draw):
    """Diagonal generators in every form the closed forms accept, a model of
    them for ev_polynomial, and a PSD Gram of any rank."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    rank = draw(st.integers(0, k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((rank, k)) + 1j * rng.standard_normal((rank, k))
    gram = z.conj().T @ z
    diagonals = rng.uniform(-2, 2, size=(k, n))
    forms = draw(st.lists(st.sampled_from(["vector", "matrix", "spectrum"]), min_size=k, max_size=k))
    a_list = [
        d if form == "vector" else np.diag(d) if form == "matrix" else ExplicitSpectrum(d)
        for d, form in zip(diagonals, forms)
    ]
    if draw(st.booleans()):
        a_model = SpectrumFamily({i: ExplicitSpectrum(d) for i, d in enumerate(diagonals, 1)})
    else:
        a_model = MatrixTraceFamily({i: np.diag(d) for i, d in enumerate(diagonals, 1)})
    # the conjugated sum also takes generators that are not selfadjoint
    complex_diagonals = diagonals + 1j * rng.uniform(-2, 2, size=(k, n))
    complex_list = [
        d if form == "vector" else np.diag(d) for d, form in zip(complex_diagonals, forms)
    ]
    complex_model = MatrixTraceFamily({i: np.diag(d) for i, d in enumerate(complex_diagonals, 1)})
    c_taus = rng.uniform(-2, 2, size=k)
    return a_list, a_model, complex_list, complex_model, gram, c_taus


@settings(max_examples=150, deadline=None)
@given(diagonal_recipe_inputs())
def test_batched_sum_bab_matches_dense_lift(inputs):
    # ev_polynomial's batched path against the closed forms' dense lift
    a_list, a_model, complex_list, complex_model, gram, c_taus = inputs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linred, "dense_block_matrix", _no_dense)
        poly, table = _sum_bab_polynomial(gram)
        _assert_same_spectrum(ev_polynomial(poly, a_model, table).multiset,
                              ev_sum_bab(a_list, gram).multiset)
        poly, table = _sum_bab_polynomial(gram, c_taus)
        for generators, model in ((a_list, a_model), (complex_list, complex_model)):
            _assert_same_spectrum(ev_polynomial(poly, model, table).multiset,
                                  ev_conjugated_sum(generators, c_taus, gram).multiset)


def test_batched_sum_bab_builds_no_lift(monkeypatch):
    # with every generator diagonal, ev_polynomial realizes nothing dense
    monkeypatch.setattr(np, "kron", _no_dense)
    monkeypatch.setattr(linred, "dense_block_matrix", _no_dense)
    monkeypatch.setattr(cmcalc.TraceClassModel, "realization", _no_dense)
    spectra = {1: ExplicitSpectrum([1.0, 0.5]), 2: ExplicitSpectrum([0.25, 2.0]),
               3: ExplicitSpectrum([1.0, -1.0])}
    gram = np.eye(3) + 0.5
    for model in (SpectrumFamily(spectra),
                  MatrixTraceFamily({i: np.diag(s.values) for i, s in spectra.items()})):
        poly, table = _sum_bab_polynomial(gram)
        ev_polynomial(poly, model, table)
        poly, table = _sum_bab_polynomial(gram, [1.0, 2.0, 0.5])
        ev_polynomial(poly, model, table)
        # beta = [[0, 1], [1, 0]] is indefinite: A (beta x I) = a1 + a1
        table = MomentTable({(b_gen(1), b_gen(2)): 1.0, (b_gen(1), b_gen(1)): 0.0,
                             (b_gen(2), b_gen(2)): 0.0})
        got = ev_polynomial(parse_expression("b1*a1*b2 + b2*a1*b1", SYMS), model, table)
        np.testing.assert_allclose(np.sort(got.multiset.values), [0.5, 0.5, 1.0, 1.0])
        # A = [[0, a1], [2 a1, 0]] is not Hermitian, beta = I: +-sqrt(2) a1
        table = MomentTable({(b_gen(1), b_gen(2)): 0.0, (b_gen(1), b_gen(1)): 1.0,
                             (b_gen(2), b_gen(2)): 1.0})
        got = ev_polynomial(parse_expression("b1*a1*b2 + 2*b2*a1*b1", SYMS), model, table)
        np.testing.assert_allclose(np.sort(got.multiset.values),
                                   np.sqrt(2) * np.array([-1.0, -0.5, 0.5, 1.0]))
        # A = [[a1, a1], [0, a1]] and beta = [[1, 2], [0.5, 1]] are not symmetric:
        # A (beta x I) = [[1.5, 3], [0.5, 1]] x a1, with eigenvalues 2.5 a1 and 0
        table = MomentTable({(b_gen(1), b_gen(2)): 1.0, (b_gen(2), b_gen(2)): 2.0,
                             (b_gen(1), b_gen(3)): 0.5, (b_gen(2), b_gen(3)): 1.0})
        got = ev_polynomial(parse_expression("b1*a1*b2 + b1*a1*b3 + b2*a1*b3", SYMS),
                            model, table)
        np.testing.assert_allclose(np.sort(got.multiset.values), [0.0, 0.0, 1.25, 2.5],
                                   atol=1e-12)
    poly, table = _sum_bab_polynomial(np.eye(2))
    off_diagonal = MatrixTraceFamily({1: np.diag([1.0, 2.0]),
                                      2: np.array([[1.0, 1e-300], [1e-300, 1.0]])})
    with pytest.raises(AssertionError, match="dense lift"):
        ev_polynomial(poly, off_diagonal, table)


def test_sum_bab_non_diagonal_blocks_keep_dense_path(monkeypatch):
    sandwiches = []
    stack_spectrum = linred._stack_spectrum

    def spy(stack, beta):
        sandwiches.append(stack.shape)
        return stack_spectrum(stack, beta)

    monkeypatch.setattr(linred, "_stack_spectrum", spy)
    rng = np.random.default_rng(50)
    for k, n in ((2, 5), (3, 4)):
        gram = random_psd(k, rng)
        blocks = [random_hermitian(n, rng) for _ in range(k)]
        blocks[0] = np.diag(rng.uniform(-1, 1, size=n))  # one diagonal block is not enough
        c_taus = rng.uniform(0.5, 2.0, size=k)
        model = MatrixTraceFamily(dict(enumerate(blocks, 1)))
        for c in (None, c_taus):
            sandwiches.clear()
            poly, table = _sum_bab_polynomial(gram, c)
            got = ev_polynomial(poly, model, table).multiset
            assert len(sandwiches) == 1
            assert sandwiches[0] == (1, k * n, k * n)  # one summand of dense blocks
            expected = (ev_sum_bab(blocks, gram) if c is None
                        else ev_conjugated_sum(blocks, c, gram)).multiset
            _assert_same_spectrum(got, expected)


def test_sum_aba_cases():
    pred = ev_sum_aba([np.diag([1.0, 0.5])], [1.0])
    np.testing.assert_allclose(pred.multiset.values, [1.0, 0.25], rtol=1e-12)
    pred = ev_sum_aba([np.diag([1.0, 3.0]), np.diag([2.0, -1.0])], [0.0, 0.0])
    np.testing.assert_allclose(pred.multiset.values, [0.0, 0.0], atol=1e-15)
    a = np.diag([1.0, 0.5])
    pred = ev_sum_aba([a, a], [1.0, 1.0])
    np.testing.assert_allclose(pred.multiset.values, [2.0, 0.5], rtol=1e-12)


def test_sum_aba_oracle_randomized():
    rng = np.random.default_rng(43)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        inst = sum_aba_instance(k, int(rng.integers(2, 9)), rng)
        pred = ev_sum_aba(inst["a_list"], inst["taus"])
        for m in range(1, 7):
            oracle = poly_moment(inst["poly"], m, inst["a_model"], inst["b_state"])
            assert rel_close(multiset_moment(pred.multiset, m), oracle.real)


def test_anticommutator_cases():
    spec = GeometricSpectrum(1.0, 0.5, count=10)
    pred = ev_anticommutator(spec, 0.0, 0.0)
    assert np.all(pred.multiset.values == 0.0)
    pred = ev_anticommutator(spec, 0.0, 1.0)
    base = spec.eigenvalues(10)
    expected = sorted(np.concatenate([base, -base]), key=lambda v: (-abs(v), -v))
    np.testing.assert_allclose(pred.multiset.values, expected, atol=1e-15)


def test_anticommutator_oracle_randomized():
    rng = np.random.default_rng(44)
    for _ in range(10):
        inst = anticommutator_instance(int(rng.integers(2, 13)), rng)
        pred = ev_anticommutator(inst["spectrum"], inst["tau_b"], inst["tau_b2"])
        for m in range(1, 7):
            oracle = poly_moment(inst["poly"], m, inst["a_model"], inst["b_state"])
            assert rel_close(multiset_moment(pred.multiset, m), oracle.real)


def test_commutator_cases():
    spec = GeometricSpectrum(1.0, 0.5, count=8)
    pred = ev_commutator(spec, 1.0, 1.0)
    assert np.all(pred.multiset.values == 0.0)
    pred = ev_commutator(spec, 0.0, 4.0)
    base = spec.eigenvalues(8)
    expected = sorted(np.concatenate([2 * base, -2 * base]), key=lambda v: (-abs(v), -v))
    np.testing.assert_allclose(pred.multiset.values, expected, atol=1e-15)
    assert pred.provenance["r"] == pytest.approx(2.0)
    with pytest.raises(NotPositiveError):
        ev_commutator(spec, 2.0, 1.0)


def test_commutator_variance_tolerance_scales_with_data():
    spec = ExplicitSpectrum([1.0, 0.5])
    # tau(b^2) - tau(b)^2 rounds to -1.16e-10 at magnitude 8.5e5
    pred = ev_commutator(spec, -919.5635581907987, 845597.1375525224)
    assert pred.provenance["r"] == 0.0
    with pytest.raises(NotPositiveError):
        ev_commutator(spec, 0.0, -1e-11)
    with pytest.raises(NotPositiveError):
        ev_commutator(spec, 1.0, 1.0 - 1e-11)


def test_commutator_oracle_randomized():
    rng = np.random.default_rng(45)
    for _ in range(10):
        inst = commutator_instance(int(rng.integers(2, 13)), rng)
        pred = ev_commutator(inst["spectrum"], inst["tau_b"], inst["tau_b2"])
        for m in range(1, 7):
            oracle = poly_moment(inst["poly"], m, inst["a_model"], inst["b_state"])
            assert rel_close(multiset_moment(pred.multiset, m), oracle.real)


def test_sum_bac_reference_matrix_lambdas_exact():
    pred = ev_sum_bac(GeometricSpectrum(1.0, 0.5, 16), [[1.0, 2.0], [2.0, 1.0]])
    lams = pred.provenance["lambdas"]
    assert lams[0] == 3.0 and lams[1] == -1.0
    np.testing.assert_allclose(pred.multiset.values[:4], [3.0, 1.5, -1.0, 0.75], rtol=1e-15)


def test_sum_bac_identity_and_swap():
    spec = ExplicitSpectrum([1.0, 0.5])
    pred = ev_sum_bac(spec, np.eye(2))
    np.testing.assert_allclose(pred.multiset.values, [1.0, 1.0, 0.5, 0.5], atol=1e-12)
    pred = ev_sum_bac(spec, [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(pred.multiset.values, [1.0, -1.0, 0.5, -0.5], atol=1e-12)


def test_sum_bac_solves_a_symmetrized_copy_of_a_nearly_hermitian_bprime():
    # within the 1e-14 floor but not exactly Hermitian: the eigensolver reads
    # one triangle, so unsymmetrized the lambdas would be 1 +- (2 + 1e-14)
    bprime = np.array([[1.0, 2.0], [2.0 + 1e-14, 1.0]], dtype=complex)
    given = bprime.copy()
    pred = ev_sum_bac(ExplicitSpectrum([1.0]), bprime)
    expected = hermitian_spectrum(given).values
    assert np.sort(pred.provenance["lambdas"]).tobytes() == np.sort(expected).tobytes()
    assert np.array_equal(bprime, given)  # the caller's array is not written


def test_sum_bac_refuses_complex_spectrum():
    with pytest.raises(ComplexEigenvaluesError):
        ev_sum_bac(ExplicitSpectrum([1.0]), [[0.0, 1.0], [-1.0, 0.0]])


def test_state_value_tolerances_scale_with_data():
    # rounding at scale 1e8 leaves Z Z^H asymmetric by ~1e-8, past the old
    # absolute 1e-14 switch to eigvalsh and the 1e-9 imaginary-part check
    rng = np.random.default_rng(1)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    gram = z @ z.conj().T
    big = ev_sum_bac(GeometricSpectrum(1.0, 0.5, 16), 1e8 * gram)
    unit = ev_sum_bac(GeometricSpectrum(1.0, 0.5, 16), gram)
    np.testing.assert_allclose(big.provenance["lambdas"], 1e8 * unit.provenance["lambdas"],
                               rtol=1e-12)
    # imaginary rounding 5e-11 at magnitude 1e4, past the old absolute 1e-12
    d = np.array([1.0, 0.5])
    tau = 1e4 * (1 + 5e-15j)
    assert ev_sum_aba([d], [tau]).multiset == ev_sum_aba([d], [1e4]).multiset
    assert ev_conjugated_sum([d], [tau], [[1]]).multiset == (
        ev_conjugated_sum([d], [1e4], [[1]]).multiset
    )


def test_state_value_tolerances_keep_unit_scale_rejections():
    d = np.array([1.0, 0.5])
    with pytest.raises(NotSelfadjointError):
        ev_sum_aba([d], [1 + 1e-11j])
    with pytest.raises(NotSelfadjointError):
        ev_conjugated_sum([d], [1 + 1e-11j], [[1]])
    with pytest.raises(ComplexEigenvaluesError):
        ev_sum_bac(ExplicitSpectrum([1.0]), [[1.0, 1e-8], [-1e-8, 1.0]])


def test_sum_bac_oracle_randomized():
    rng = np.random.default_rng(46)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        inst = sum_bac_instance(k, int(rng.integers(2, 13)), rng)
        pred = ev_sum_bac(inst["spectrum"], inst["beta"])
        for m in range(1, 7):
            oracle = poly_moment(inst["poly"], m, inst["a_model"], inst["b_state"])
            assert rel_close(multiset_moment(pred.multiset, m), oracle.real)


def test_sum_bac_swapped_pair_structure():
    rng = np.random.default_rng(47)
    for _ in range(10):
        inst = sum_bac_swapped_pair_instance(int(rng.integers(2, 13)), rng)
        pred = ev_sum_bac(inst["spectrum"], inst["beta"])
        for m in range(1, 7):
            oracle = poly_moment(inst["poly"], m, inst["a_model"], inst["b_state"])
            assert rel_close(multiset_moment(pred.multiset, m), oracle.real)


def test_conjugated_sum_scalar_cases():
    a = np.diag([1.0, 0.5])
    pred = ev_conjugated_sum([a], [1.0], [[1.0]])
    np.testing.assert_allclose(pred.multiset.values, [1.0, 0.25], rtol=1e-12)
    pred = ev_conjugated_sum([a], [2.0], [[3.0]])
    np.testing.assert_allclose(pred.multiset.values, [6.0, 1.5], rtol=1e-12)


def test_conjugated_sum_oracle_randomized():
    rng = np.random.default_rng(48)
    for _ in range(10):
        k = int(rng.integers(1, 3))
        inst = conjugated_sum_instance(k, int(rng.integers(2, 7)), rng)
        pred = ev_conjugated_sum(inst["a_list"], inst["c_taus"], inst["gram"])
        for m in range(1, 4):
            oracle = poly_moment(inst["poly"], m, inst["a_model"], inst["b_state"])
            assert rel_close(multiset_moment(pred.multiset, m), oracle.real)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def test_sum_bab_similarity_invariance():
    rng = np.random.default_rng(49)
    for _ in range(5):
        k, n = 3, 6
        gram = random_psd(k, rng) + 0.5 * np.eye(k)
        blocks = [np.diag(rng.uniform(-1, 1, size=n)) for _ in range(k)]
        pred = ev_sum_bab(blocks, gram)
        # same spectrum as the unsymmetrized product D (gram x I)
        big = np.zeros((k * n, k * n), dtype=complex)
        for i, blk in enumerate(blocks):
            big[i * n : (i + 1) * n, i * n : (i + 1) * n] = blk
        product = big @ np.kron(gram, np.eye(n))
        lams = np.sort(np.linalg.eigvals(product).real)
        np.testing.assert_allclose(
            np.sort(pred.multiset.values), lams, atol=1e-9, rtol=1e-9
        )


def test_recipe_scaling_equivariance():
    spec = ExplicitSpectrum([1.0, -0.5, 0.25])
    for c in (2.0, -1.5):
        scaled = ExplicitSpectrum(c * np.asarray([1.0, -0.5, 0.25]))
        base = ev_anticommutator(spec, 1.0, 2.0)
        scaled_pred = ev_anticommutator(scaled, 1.0, 2.0)
        np.testing.assert_allclose(
            np.sort(scaled_pred.multiset.values), np.sort(c * base.multiset.values),
            rtol=1e-9, atol=1e-12,
        )
        base = ev_sum_bac(spec, [[1.0, 2.0], [2.0, 1.0]])
        scaled_pred = ev_sum_bac(scaled, [[1.0, 2.0], [2.0, 1.0]])
        np.testing.assert_allclose(
            np.sort(scaled_pred.multiset.values), np.sort(c * base.multiset.values),
            rtol=1e-9, atol=1e-12,
        )


def test_prediction_json_shape():
    pred = ev_anticommutator(GeometricSpectrum(1.0, 0.5, 8), 1.0, 2.0)
    doc = pred.to_json_dict()
    assert set(doc) == {"recipe", "parameters", "provenance", "eigenvalues"}
    assert doc["provenance"]["p"] == pytest.approx(1 + np.sqrt(2))
    assert len(doc["eigenvalues"]) == 16


def test_prediction_json_writes_a_numpy_scalar_as_a_number():
    # tau(b1) = 0 reduces A to 0, so the truncation as given sizes the spectrum
    fam = SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, count=None)})
    table = MomentTable.from_b_powers({1: 0.0, 2: 1.0})
    pred = ev_polynomial(parse_expression("a1*b1*a1", SYMS), fam, table, truncation=np.int64(8))
    assert isinstance(pred.parameters["truncation"], np.int64)
    truncation = pred.to_json_dict()["parameters"]["truncation"]
    assert truncation == 8 and type(truncation) is int


def test_prediction_json_writes_a_complex_beta_as_pairs():
    # beta_wu = tau(w* u) of b1 a1 b1' + b2 a1 b2' is Hermitian, not real
    fam = SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, count=6)})
    table = MomentTable.from_json_doc(
        {"moments": {"b1'*b1": 1.0, "b2'*b2": 1.0, "b1'*b2": [0.0, 0.5]}})
    pred = ev_polynomial(parse_expression("b1*a1*b1' + b2*a1*b2'", SYMS), fam, table)
    assert pred.to_json_dict()["provenance"] == {"beta": [[1.0, [0.0, 0.5]], [[0.0, -0.5], 1.0]]}
    base = 0.5 ** np.arange(6)
    np.testing.assert_allclose(np.sort(pred.multiset.values),
                               np.sort(np.concatenate([1.5 * base, 0.5 * base])), rtol=1e-12)


def test_a_starred_block_letter_stands_for_the_adjoint_block():
    # b1' over a non-Hermitian block B is B*, as a second letter bound to B* is
    rng = np.random.default_rng(5)
    fam = SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, count=6)})
    state = TraceMatrixState({i: random_hermitian(4, rng) for i in (1, 2)})
    block = AlgMatrix([["b1", "b2"], ["0", "b1"]])
    assert not block.is_selfadjoint()
    starred = ev_polynomial(parse_expression("b1'*a1*b1", SYMS), fam, state,
                            blocks={b_gen(1): block})
    bound = ev_polynomial(parse_expression("b3*a1*b1", SYMS), fam, state,
                          blocks={b_gen(1): block, b_gen(3): block.adjoint()})
    assert starred.multiset == bound.multiset


@pytest.mark.parametrize("recipe,args", [
    (ev_anticommutator, (1.0, 2.0)),
    (ev_commutator, (0.5, 2.0)),
    (ev_sum_bac, ([[1.0, 2.0], [2.0, 1.0]],)),
])
def test_a_dense_hermitian_generator_gives_its_eigenvalues(recipe, args):
    rng = np.random.default_rng(6)
    a = random_hermitian(5, rng)
    dense = recipe(a, *args).multiset
    diagonal = recipe(np.linalg.eigvalsh(a), *args).multiset
    np.testing.assert_allclose(dense.values, diagonal.values, rtol=1e-12, atol=1e-12)


def _spectrum_or_refusal(predict, a):
    """The multiset ``predict(a)`` gives, or the class of its refusal."""
    try:
        out = predict(a)
    except NotSelfadjointError as exc:
        return type(exc)
    return getattr(out, "multiset", out)


# zero, or of modulus within [1e-100, 1e100]: LAPACK rescales a matrix whose
# largest entry lies outside about [1e-146, 1e146] before it solves it, which
# can round the eigenvalues of an np.diag (np.diag([0.0, 9.152323907126586e184]))
_real_parts = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))
# imaginary parts within and beyond the 1e-9 floor, and non-finite entries
_diagonal_entries = st.one_of(
    _real_parts,
    st.builds(complex, _real_parts, st.sampled_from([1e-12, -4e-10, 6e-10, -1e-8, 1e-3])),
    st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, np.inf)]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_diagonal_entries, min_size=1, max_size=6))
@example([1 + 1j, 0.5])
@example([np.nan, 1.0])
@pytest.mark.parametrize("predict", [
    linred.eigenvalue_multiset,
    lambda a: ev_anticommutator(a, 1.0, 2.0),
    lambda a: ev_commutator(a, 0.5, 2.0),
    lambda a: ev_sum_bac(a, [[1.0, 2.0], [2.0, 1.0]]),
], ids=["eigenvalue_multiset", "anticommutator", "commutator", "sum_bac"])
def test_a_diagonal_and_its_np_diag_are_one_input(predict, entries):
    d = np.array(entries, dtype=complex)
    assert _spectrum_or_refusal(predict, d) == _spectrum_or_refusal(predict, np.diag(d))


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclospec import (
    AlgMatrix,
    EmptyInputError,
    ExpressionSyntaxError,
    Letter,
    NCPolynomial,
    UnknownSymbolError,
    a_gen,
    alternating_form,
    auto_symbols,
    b_gen,
    format_expression,
    is_selfadjoint,
    make_symbols,
    parse_expression,
    power,
)
from cyclospec.ncalg import (
    FAMILY_A,
    FAMILY_B,
    WordCode,
    drop_stars,
    is_pure,
    min_cyclic_rotation,
)

from _oracles import reconstruct

SYMS = make_symbols(a=("a1", "a2", "a3"), b=("b1", "b2", "b3"))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_two_terms():
    p = parse_expression("a1*b1 + b1*a1", SYMS)
    assert p.terms == {
        (a_gen(1), b_gen(1)): 1 + 0j,
        (b_gen(1), a_gen(1)): 1 + 0j,
    }


def test_parse_imaginary_commutator():
    p = parse_expression("i*(a1*b1 - b1*a1)", SYMS)
    assert p.terms[(a_gen(1), b_gen(1))] == 1j
    assert p.terms[(b_gen(1), a_gen(1))] == -1j


def test_parse_substitution_example():
    p = parse_expression("a1 + b1*a1*b1*a1*b1", SYMS)
    words = sorted(p.terms, key=len)
    assert len(words) == 2
    assert len(words[0]) == 1 and len(words[1]) == 5


def test_parse_adjoint_marker_and_scalars():
    p = parse_expression("2.5*a1' + (1+2*i)*b2", SYMS)
    assert p.terms[(a_gen(1, star=True),)] == 2.5
    assert p.terms[(b_gen(2),)] == 1 + 2j


def test_parse_unknown_symbol():
    with pytest.raises(UnknownSymbolError) as info:
        parse_expression("a1*c9", SYMS)
    assert info.value.name == "c9"
    assert info.value.position == 3


def test_parse_syntax_error_reports_position():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("a1 + * b1", SYMS)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(a1 + b1", SYMS)


def test_parse_empty_input():
    with pytest.raises(EmptyInputError):
        parse_expression("   ", SYMS)


def test_auto_symbols():
    syms = auto_symbols("a1*b2 + b10*a3")
    assert syms["b10"] == Letter("b", 10)
    assert set(syms) == {"a1", "b2", "b10", "a3"}


# ---------------------------------------------------------------------------
# algebra operations
# ---------------------------------------------------------------------------


def test_adjoint_reverses_and_stars():
    p = NCPolynomial.from_word((a_gen(1), b_gen(1)), coeff=2 + 1j)
    q = p.adjoint()
    assert q.terms == {(b_gen(1, star=True), a_gen(1, star=True)): 2 - 1j}


@pytest.mark.parametrize("family", ["a", "b"])
@pytest.mark.parametrize("star", [False, True])
def test_letter_adjoint_and_base_are_letters_as_replace_made_them(family, star):
    letter = Letter(family, 3, star)
    adjoint, base = letter.adjoint(), letter.base()
    assert type(adjoint) is Letter and type(base) is Letter
    # the same fields, field types and hashes as the NamedTuple's own _replace
    for got, expected in [(adjoint, letter._replace(star=not star)),
                          (base, letter._replace(star=False))]:
        assert got == expected and hash(got) == hash(expected)
        assert (got.family, got.index, got.star) == tuple(expected)
        assert list(map(type, got)) == list(map(type, expected))
    assert adjoint.adjoint() == letter
    assert base.base() == base == Letter(family, 3)


@pytest.mark.parametrize("gen,family", [(a_gen, "a"), (b_gen, "b")])
def test_generators_are_shared_letters_that_compare_as_built_ones(gen, family):
    letters = [gen(i, star) for i in (1, 2, 10) for star in (False, True)]
    assert [gen(i, star) for i in (1, 2, 10) for star in (False, True)] == letters
    for letter in letters:
        again = gen(letter.index, letter.star)
        assert again is letter and gen(letter.index, int(letter.star)) is letter
        built = Letter(family, letter.index, letter.star)
        assert letter == built and hash(letter) == hash(built)
        assert list(map(type, letter)) == [str, int, bool]
    # letter order is the order of (family, index, star)
    assert sorted(reversed(letters)) == letters == sorted(letters, key=tuple)
    with pytest.raises(ValueError):
        gen(0)


def test_selfadjoint_examples():
    assert is_selfadjoint(parse_expression("a1*b1 + b1*a1", SYMS))
    assert not is_selfadjoint(parse_expression("a1*b1", SYMS))
    assert is_selfadjoint(parse_expression("i*(a1*b1 - b1*a1)", SYMS))


def test_selfadjoint_respects_declared_set():
    # every generator is declared selfadjoint, so a starred letter counts as its base
    assert is_selfadjoint(parse_expression("a1'*b1 + b1*a1", SYMS))
    assert not is_selfadjoint(parse_expression("i*(a1'*b1 + b1*a1)", SYMS))


def test_drop_stars_rewrites_declared_generators_only():
    p = parse_expression("a1'*b1' + 2*a1*b1'", SYMS)
    # every generator is declared selfadjoint; equal words merge
    assert drop_stars(p) == parse_expression("3*a1*b1", SYMS)
    assert drop_stars(parse_expression("a1' - a1", SYMS)).is_zero()


def test_power_expansion_counts():
    p = parse_expression("a1*b1 + b1*a1", SYMS)
    sq = power(p, 2)
    assert len(sq.terms) == 4
    assert all(len(w) == 4 for w in sq.terms)
    deep = power(parse_expression("a1 + b1*a1*b1*a1*b1", SYMS), 2)
    assert len(deep.terms) == 4


def test_multiply_unit_identity():
    p = parse_expression("a1*b1 + b1*a1", SYMS)
    one = NCPolynomial({(): 1})
    assert one * p == p
    assert p * one == p


def test_numbers_combine_as_scalar_polynomials():
    p = parse_expression("a1*b1 + b1*a1", SYMS)
    assert p + 3 == 3 + p == p + NCPolynomial.scalar(3)
    assert 3 - p == NCPolynomial.scalar(3) - p == parse_expression("3 - a1*b1 - b1*a1", SYMS)
    assert p - 2.5j == p + NCPolynomial.scalar(-2.5j)
    with pytest.raises(TypeError, match="cannot combine NCPolynomial with str"):
        p + "a1"
    with pytest.raises(TypeError, match="cannot combine NCPolynomial with list"):
        [1] * p
    assert (p == 3) is False


def test_polynomial_prints_as_its_expression():
    p = 0.5 * parse_expression("a1", SYMS) - parse_expression("b1*a1", SYMS)
    assert format_expression(p) == str(p) == "0.5*a1 - b1*a1"
    assert repr(p) == "NCPolynomial('0.5*a1 - b1*a1')"


def test_power_requires_positive_exponent():
    with pytest.raises(ValueError):
        power(NCPolynomial({(): 1}), 0)


# ---------------------------------------------------------------------------
# alternating form
# ---------------------------------------------------------------------------


def test_alternating_form_grouping():
    w = (b_gen(1), a_gen(1), b_gen(1), a_gen(1), b_gen(1), b_gen(1), a_gen(1), b_gen(1))
    form = alternating_form(w)
    assert form.leading_b == (b_gen(1),)
    assert [len(a) for a, _ in form.blocks] == [1, 1, 1]
    assert [len(b) for _, b in form.blocks] == [1, 2, 1]
    assert reconstruct(form) == w


def test_alternating_form_pure_words():
    pure_a = (a_gen(1), a_gen(2))
    form = alternating_form(pure_a)
    assert form.leading_b == ()
    assert form.blocks == ((pure_a, ()),)
    pure_b = (b_gen(1), b_gen(2))
    form = alternating_form(pure_b)
    assert form.leading_b == pure_b
    assert form.blocks == ()


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

letters = st.builds(
    Letter,
    family=st.sampled_from("ab"),
    index=st.integers(min_value=1, max_value=3),
    star=st.booleans(),
)
words = st.lists(letters, max_size=6).map(tuple)
coeffs = st.builds(
    complex,
    st.integers(min_value=-3, max_value=3).map(float),
    st.integers(min_value=-3, max_value=3).map(float),
)
polys = st.dictionaries(words, coeffs, max_size=5).map(NCPolynomial)


@settings(max_examples=150, deadline=None)
@given(polys)
def test_print_parse_round_trip(p):
    assert parse_expression(format_expression(p), SYMS) == p


@settings(max_examples=150, deadline=None)
@given(polys)
def test_adjoint_involution(p):
    assert p.adjoint().adjoint() == p


@settings(max_examples=150, deadline=None)
@given(words, st.sampled_from("abc"))
def test_is_pure_agrees_with_all(w, family):
    assert is_pure(w, family) is all(letter.family == family for letter in w)
    assert is_pure((), family) is True


@settings(max_examples=150, deadline=None)
@given(st.lists(letters, min_size=1, max_size=12).map(tuple))
def test_alternating_reconstruction(w):
    assert reconstruct(alternating_form(w)) == w


@settings(max_examples=40, deadline=None)
@given(polys, st.integers(min_value=1, max_value=3))
def test_power_recurrence(p, m):
    assert power(p, m + 1) == power(p, m) * p


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_product_adjoint_antihomomorphism(p, q):
    assert (p * q).adjoint() == q.adjoint() * p.adjoint()


@settings(max_examples=150, deadline=None)
@given(polys)
def test_polynomial_and_algmatrix_selfadjointness_agree(p):
    # both rewrite through drop_stars; integer coefficients make the sums exact
    assert AlgMatrix([[p]]).is_selfadjoint() == is_selfadjoint(p)


# The canonical word order, as an explicit per-letter key.  Term order
# decides the order of float additions in the oracle, so ``report.json``
# stays bit-identical only while the library keeps exactly this order.
def _word_key(w):
    return tuple((letter.family, letter.index, letter.star) for letter in w)


wide_letters = st.builds(
    Letter,
    family=st.sampled_from("ab"),
    index=st.integers(min_value=1, max_value=12),
    star=st.booleans(),
)
wide_words = st.lists(wide_letters, max_size=7).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(wide_words, coeffs, max_size=30).map(NCPolynomial))
def test_sorted_terms_follow_letter_key_order(p):
    expected = sorted(p.terms.items(), key=lambda item: _word_key(item[0]))
    assert p.sorted_terms() == expected


@settings(max_examples=150, deadline=None)
@given(wide_words)
def test_min_cyclic_rotation_is_least_rotation_by_letter_key(w):
    rotations = [w[j:] + w[:j] for j in range(len(w))] or [w]
    assert min_cyclic_rotation(w) == min(rotations, key=_word_key)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.builds(
    Letter,
    family=st.sampled_from("ab"),
    index=st.integers(min_value=1, max_value=200),
    star=st.booleans(),
)))
def test_word_code_gives_the_a_letters_the_lowest_codes(alphabet):
    code = WordCode(alphabet)
    a_codes = [code.encode((x,)) for x in alphabet if x.family == FAMILY_A]
    b_codes = [code.encode((x,)) for x in alphabet if x.family == FAMILY_B]
    assert all(a < b for a in a_codes for b in b_codes)
    assert code.a_count == len(a_codes)
    assert sorted(a_codes + b_codes) == [chr(rank) for rank in range(len(alphabet))]
    assert code.letters == tuple(sorted(alphabet))

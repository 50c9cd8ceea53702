"""Words and noncommutative *-polynomials over two generator families.

Generators split into an A-family (trace-class side) and a B-family (state
side).  Words are tuples of :class:`Letter`; polynomials are canonical
word-to-coefficient maps.  The term-map kernels behind polynomial
arithmetic (``_product_terms``, ``_sum_terms``, ...) work on any injective
encoding of the words, and :class:`WordCode` gives one: a word as a ``str``
of one character per letter, whose order is the word's order.  A small
expression grammar provides the text front end used by the CLI and by
moment-table documents::

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := scalar | generator | generator "'" | '(' expr ')'

Scalars are decimal literals or the imaginary unit token ``i``; a trailing
apostrophe marks the adjoint of a generator.  The leading sign is accepted
as a convenience on top of the core grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import index as _integer, itemgetter
from typing import Iterable, Mapping, NamedTuple

FAMILY_A = "a"
FAMILY_B = "b"

_new_tuple = tuple.__new__


class Letter(NamedTuple):
    """A single generator occurrence: family, 1-based index, adjoint flag."""

    family: str
    index: int
    star: bool = False

    # built directly, at a quarter of the cost of ``_replace`` (a dict and ``_make``)
    def adjoint(self) -> "Letter":
        return _new_tuple(Letter, (self[0], self[1], not self[2]))

    def base(self) -> "Letter":
        return _new_tuple(Letter, (self[0], self[1], False))

    def label(self) -> str:
        return f"{self.family}{self.index}" + ("'" if self.star else "")


# the one Letter of each generator and adjoint flag that a_gen and b_gen return
_shared_letters: dict[tuple, Letter] = {}


def _generator(family: str, index: int, star) -> Letter:
    index = _integer(index)
    if index < 1:
        raise ValueError("generator index must be >= 1")
    key = (family, index, bool(star))
    letter = _shared_letters.get(key)
    if letter is None:
        letter = _shared_letters[key] = Letter(*key)
    return letter


def a_gen(index: int, star: bool = False) -> Letter:
    """A-family generator with integer ``index >= 1``; equal calls return the
    same object."""
    return _generator(FAMILY_A, index, star)


def b_gen(index: int, star: bool = False) -> Letter:
    """B-family generator with integer ``index >= 1``; equal calls return the
    same object."""
    return _generator(FAMILY_B, index, star)


# A word is a tuple of letters; the empty tuple is the unit.
Word = tuple  # tuple[Letter, ...]

UNIT: Word = ()


class WordCode:
    """One-character ``str`` codes for the words over a fixed set of letters.

    The letters are ranked in their sorted order, and the letter of rank
    ``k`` is coded as ``chr(k)``; a word's code is the string of its letters'
    codes, and the empty word's code is ``""``.  Strings compare character by
    character with a proper prefix first, as tuples of letters do, so **a
    code's order is its word's order**: codes sort exactly as their words
    do.  The coding is injective and turns concatenation of words into ``+``
    of strings, so the term-map arithmetic of this module gives the same
    coefficients in the same term order on coded keys as on words.  Unlike a
    tuple of letters, a ``str`` caches its hash, which makes coded products
    and sorts cheaper.

    A letter sorts by its family first, and ``FAMILY_A`` before
    ``FAMILY_B``, so **the A-letters take the lowest codes**: ``letters``
    (the letters in rank order) begins with the ``a_count`` A-letters, and a
    code's A-letters are exactly its characters below ``chr(a_count)``.
    """

    def __init__(self, letters: Iterable[Letter]):
        self.letters: tuple[Letter, ...] = tuple(sorted(set(letters)))
        self.a_count = sum(letter.family == FAMILY_A for letter in self.letters)
        self._codes = {letter: chr(rank) for rank, letter in enumerate(self.letters)}
        self._letter_of = {code: letter for letter, code in self._codes.items()}.__getitem__

    def encode(self, w: Word) -> str:
        return "".join(map(self._codes.__getitem__, w))

    def encode_terms(self, terms: Mapping[Word, complex]) -> dict[str, complex]:
        """``terms`` with each word replaced by its code, in the same order."""
        return {self.encode(w): coeff for w, coeff in terms.items()}

    def decode(self, code: str) -> Word:
        # from a list, the tuple is allocated at its exact size; from the map
        # itself it would grow in steps and keep the slack, and a memo that
        # keeps the word keeps the slack with it
        return tuple([*map(self._letter_of, code)])


def word_adjoint(w: Word) -> Word:
    return tuple(letter.adjoint() for letter in reversed(w))


def min_cyclic_rotation(w: Word) -> Word:
    """Lexicographically smallest rotation of ``w`` (used for tracial lookup).

    Words compare directly: a letter is the tuple ``(family, index, star)``,
    so tuple order is the canonical letter-lexicographic order.
    """
    if len(w) < 2:
        return w
    return min(w[j:] + w[:j] for j in range(len(w)))


def word_families(w: Word) -> set:
    return {letter.family for letter in w}


def is_pure(w: Word, family: str) -> bool:
    # a plain loop, not all() over a generator, which costs about twice as
    # much; letter[0] is letter.family: a NamedTuple field read by name
    # costs about 3x
    for letter in w:
        if letter[0] != family:
            return False
    return True


def word_str(w: Word) -> str:
    if not w:
        return "1"
    return "*".join(letter.label() for letter in w)


def _format_real(x: float) -> str:
    if abs(x) < 1e15 and x == int(x):
        return str(int(x))
    return repr(x)


def _format_coefficient(c: complex) -> tuple[str, str]:
    """Return (sign, factor_text); factor_text is '' when the factor is 1."""
    re_, im = c.real, c.imag
    if im == 0:
        sign = "-" if re_ < 0 else "+"
        mag = abs(re_)
        return sign, "" if mag == 1 else _format_real(mag)
    if re_ == 0:
        sign = "-" if im < 0 else "+"
        mag = abs(im)
        return sign, "i" if mag == 1 else f"{_format_real(mag)}*i"
    inner_sign = "+" if im > 0 else "-"
    text = f"({_format_real(re_)}{inner_sign}{_format_real(abs(im))}*i)"
    return "+", text


class NCPolynomial:
    """Finite complex-linear combination of words, stored canonically.

    Zero coefficients are never stored, so two equal polynomials have
    identical term maps.  Instances are immutable by convention; all
    arithmetic returns new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, complex] | None = None):
        self.terms = _canonical_terms(terms) if terms else {}

    @classmethod
    def zero(cls) -> "NCPolynomial":
        return cls()

    @classmethod
    def scalar(cls, c: complex) -> "NCPolynomial":
        return cls({UNIT: c})

    @classmethod
    def from_word(cls, word: Iterable[Letter], coeff: complex = 1) -> "NCPolynomial":
        return cls({tuple(word): coeff})

    @classmethod
    def from_letter(cls, letter: Letter) -> "NCPolynomial":
        return cls({(letter,): 1})

    def sorted_terms(self) -> list[tuple[Word, complex]]:
        """Terms in the canonical letter-lexicographic word order (deterministic iteration)."""
        return sorted(self.terms.items(), key=itemgetter(0))

    def is_zero(self) -> bool:
        return not self.terms

    def contains_unit(self) -> bool:
        return UNIT in self.terms

    def families(self) -> set:
        fams: set = set()
        for word in self.terms:
            fams |= word_families(word)
        return fams

    def adjoint(self) -> "NCPolynomial":
        return NCPolynomial(
            {word_adjoint(w): complex(c).conjugate() for w, c in self.terms.items()}
        )

    def __add__(self, other) -> "NCPolynomial":
        out = dict(self.terms)
        _add_terms(out, _coerce(other).terms)
        return _polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "NCPolynomial":
        return NCPolynomial({w: -c for w, c in self.terms.items()})

    def __sub__(self, other) -> "NCPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "NCPolynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "NCPolynomial":
        if isinstance(other, (int, float, complex)):
            return _polynomial(_scaled_terms(self.terms, other))
        return _polynomial(_product_terms(self.terms, _coerce(other).terms))

    def __rmul__(self, other) -> "NCPolynomial":
        if isinstance(other, (int, float, complex)):
            return self * other
        return _coerce(other) * self

    def __pow__(self, m: int) -> "NCPolynomial":
        return power(self, m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        return f"NCPolynomial({format_expression(self)!r})"

    def __str__(self) -> str:
        return format_expression(self)


# The term-map kernels below never look inside a key: a key only needs ``+``
# (concatenation), hashing and equality.  Words are tuples of letters, but a
# caller may run the same arithmetic on another injective encoding of its
# words (``linred`` uses one-character codes), and gets the same coefficients
# in the same term order.


def _polynomial(terms: dict) -> NCPolynomial:
    """Wrap an already canonical term map without copying it."""
    result = NCPolynomial.__new__(NCPolynomial)
    result.terms = terms
    return result


def _canonical_terms(terms: Mapping) -> dict:
    """``terms`` with complex coefficients, zeros dropped; ``0j + c`` makes a
    ``-0.0`` part ``+0.0``."""
    out: dict = {}
    for word, coeff in terms.items():
        c = complex(coeff)
        if c != 0:
            out[word] = 0j + c
    return out


def _scaled_terms(terms: Mapping, c) -> dict:
    """The terms of ``p * c`` (and of ``c * p``) for a scalar ``c``."""
    return _canonical_terms({word: coeff * c for word, coeff in terms.items()})


def _product_terms(u: Mapping, v: Mapping) -> dict:
    """The terms of ``p * q``, from the term maps of ``p`` and ``q``."""
    out: dict = {}
    for wu, cu in u.items():
        for wv, cv in v.items():
            word = wu + wv
            acc = out.get(word, 0j) + cu * cv
            if acc == 0:
                out.pop(word, None)
            else:
                out[word] = acc
    return out


def _add_terms(out: dict, terms: Mapping) -> None:
    """Add ``terms`` into ``out`` in place; a coefficient that sums to 0 is dropped."""
    for word, coeff in terms.items():
        acc = out.get(word, 0j) + coeff
        if acc == 0:
            out.pop(word, None)
        else:
            out[word] = acc


def _sum_terms(term_maps: Iterable[Mapping]) -> dict:
    """The terms of ``0 + p1 + p2 + ...``, accumulated in one dict.

    The sum starts from a copy of ``p1``'s terms: that is ``0 + p1`` bitwise,
    since a term map has no zero coefficient and no ``-0.0`` part
    (:func:`_canonical_terms`), as ``NCPolynomial.__add__`` relies on too.
    """
    maps = iter(term_maps)
    out = dict(next(maps, {}))
    for terms in maps:
        _add_terms(out, terms)
    return out


def _coerce(value) -> NCPolynomial:
    if isinstance(value, NCPolynomial):
        return value
    if isinstance(value, (int, float, complex)):
        return NCPolynomial.scalar(value)
    raise TypeError(f"cannot combine NCPolynomial with {type(value).__name__}")


def power(p: NCPolynomial, m: int) -> NCPolynomial:
    if m < 1:
        raise ValueError("power exponent must be >= 1")
    out = p
    for _ in range(m - 1):
        out = out * p
    return out


def drop_stars(p: NCPolynomial) -> NCPolynomial:
    """``p`` with ``x* -> x`` rewritten: every generator declared selfadjoint."""
    return _polynomial(_sum_terms(
        {tuple(letter.base() if letter.star else letter for letter in word): coeff}
        for word, coeff in p.terms.items()))


def is_selfadjoint(p: NCPolynomial) -> bool:
    """True iff ``p* == p`` after :func:`drop_stars`, every generator selfadjoint."""
    return drop_stars(p) == drop_stars(p.adjoint())


@dataclass(frozen=True)
class AlternatingForm:
    """Maximal-run decomposition ``leading_b . (a_block, b_block)*`` of a word."""

    leading_b: Word
    blocks: tuple  # tuple[tuple[Word, Word], ...]


def alternating_form(w: Word) -> AlternatingForm:
    """Decompose a nonempty word into maximal A-runs and B-runs."""
    if not w:
        raise ValueError("alternating_form requires a nonempty word")
    runs: list[tuple[str, list[Letter]]] = []
    for letter in w:
        if runs and runs[-1][0] == letter.family:
            runs[-1][1].append(letter)
        else:
            runs.append((letter.family, [letter]))
    leading_b: Word = UNIT
    idx = 0
    if runs[0][0] == FAMILY_B:
        leading_b = tuple(runs[0][1])
        idx = 1
    blocks = []
    while idx < len(runs):
        a_block = tuple(runs[idx][1])
        idx += 1
        if idx < len(runs) and runs[idx][0] == FAMILY_B:
            b_block = tuple(runs[idx][1])
            idx += 1
        else:
            b_block = UNIT
        blocks.append((a_block, b_block))
    return AlternatingForm(leading_b=leading_b, blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(ValueError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown generator {name!r} (at position {position})")
        self.name = name
        self.position = position


class EmptyInputError(ValueError):
    def __init__(self):
        super().__init__("empty expression")


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*()'])"
    r"|(?P<bad>\S))"
)

_GENERATOR_NAME_RE = re.compile(r"^([ab])([0-9]+)$")


def make_symbols(a: Iterable[str] = (), b: Iterable[str] = ()) -> dict[str, Letter]:
    """Build a symbol table; indices are assigned positionally from 1."""
    table: dict[str, Letter] = {}
    for family, names in ((FAMILY_A, a), (FAMILY_B, b)):
        for pos, name in enumerate(names, start=1):
            if name in table:
                raise ValueError(f"duplicate generator name {name!r}")
            table[name] = Letter(family, pos)
    return table


def auto_symbols(text: str) -> dict[str, Letter]:
    """Declare every identifier of the form ``a<k>``/``b<k>`` found in ``text``."""
    table: dict[str, Letter] = {}
    for match in re.finditer(r"[A-Za-z_][A-Za-z_0-9]*", text):
        name = match.group(0)
        m = _GENERATOR_NAME_RE.match(name)
        if m and name not in table:
            index = int(m.group(2))
            if index >= 1:
                table[name] = Letter(m.group(1), index)
    return table


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        # every non-space character starts a token, so the matches are
        # consecutive; trailing whitespace matches nothing and ends the input
        for match in _TOKEN_RE.finditer(text):
            kind = match.lastgroup
            if kind == "bad":
                raise ExpressionSyntaxError(f"unexpected character {match.group(kind)!r}",
                                            match.start(kind))
            self.items.append((kind, match.group(kind), match.start(kind)))
        self.cursor = 0

    def peek(self):
        if self.cursor < len(self.items):
            return self.items[self.cursor]
        return (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.cursor += 1
        return tok


def parse_expression(text: str, symbols: Mapping[str, Letter]) -> NCPolynomial:
    """Parse expression text into a canonical polynomial.

    Parameters
    ----------
    text :
        Expression in the module grammar.
    symbols :
        Mapping from generator names to letters (see :func:`make_symbols`,
        :func:`auto_symbols`).

    Raises
    ------
    EmptyInputError, ExpressionSyntaxError, UnknownSymbolError
    """
    if not text or not text.strip():
        raise EmptyInputError()
    tokens = _Tokens(text)
    result = _parse_expr(tokens, symbols)
    kind, value, pos = tokens.peek()
    if kind is not None:
        raise ExpressionSyntaxError(f"unexpected token {value!r}", pos)
    return result


def _parse_expr(tokens: _Tokens, symbols) -> NCPolynomial:
    sign = 1
    kind, value, _ = tokens.peek()
    if kind == "op" and value in "+-":
        tokens.next()
        sign = -1 if value == "-" else 1
    result = _parse_term(tokens, symbols) * sign
    while True:
        kind, value, _ = tokens.peek()
        if kind == "op" and value in "+-":
            tokens.next()
            term = _parse_term(tokens, symbols)
            result = result + (term if value == "+" else -term)
        else:
            return result


def _parse_term(tokens: _Tokens, symbols) -> NCPolynomial:
    result = _parse_factor(tokens, symbols)
    while True:
        kind, value, _ = tokens.peek()
        if kind == "op" and value == "*":
            tokens.next()
            result = result * _parse_factor(tokens, symbols)
        else:
            return result


def _parse_factor(tokens: _Tokens, symbols) -> NCPolynomial:
    kind, value, pos = tokens.next()
    if kind == "number":
        return NCPolynomial.scalar(float(value))
    if kind == "name":
        if value == "i":
            return NCPolynomial.scalar(1j)
        letter = symbols.get(value)
        if letter is None:
            raise UnknownSymbolError(value, pos)
        nkind, nvalue, _ = tokens.peek()
        if nkind == "op" and nvalue == "'":
            tokens.next()
            letter = letter.adjoint()
        return NCPolynomial.from_letter(letter)
    if kind == "op" and value == "(":
        inner = _parse_expr(tokens, symbols)
        ckind, cvalue, cpos = tokens.next()
        if not (ckind == "op" and cvalue == ")"):
            raise ExpressionSyntaxError("expected ')'", cpos)
        return inner
    raise ExpressionSyntaxError(
        f"expected scalar, generator or '(' but found {value!r}" if kind else "unexpected end of input",
        pos,
    )


def format_expression(p: NCPolynomial) -> str:
    """Render a polynomial in the grammar; parses back to an equal polynomial."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for word, coeff in p.sorted_terms():
        sign, factor = _format_coefficient(coeff)
        if not word:
            body = factor if factor else "1"
        elif factor:
            body = f"{factor}*{word_str(word)}"
        else:
            body = word_str(word)
        if not pieces:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)

"""Print oracle moments that go through matrix word products, one per line.

    PYTHONPATH=src python tests/print_matrix_moments.py > moments.txt

The output is deterministic: fixed seeds, fixed expressions, and ``repr`` of
every value, so two checkouts that multiply words out bitwise alike print the
same bytes.  It covers ``poly_moment`` over a ``MatrixTraceFamily`` weight and
a ``TraceMatrixState`` state at dimensions 1, 2, 5 and 16, on expressions with
starred and unstarred letters, and ``chain_moment`` and
``chain_moment_unreduced`` on all 100 criterion-3 chains, so every chain
shape of that gate goes through the oracle, and on seeded chains over the
letters a1, a2, a10, a11, b1, b3 and b12, starred and not, with unit words
in their B-matrices, so the words' codes have an A-block other than that of
a1 and a2.  It also runs sweeps that raise partway, in the weight's
products and in the state's, and chain sweeps on a state with no matrix for
b12, each followed by a full sweep on the same weight, and a chain whose
trace cancels to no term at odd orders, which the weight gets as an empty
batch.  Its cross-chain section runs ``chain_moment`` on one chain and then
``chain_moment_unreduced`` on another on the same models, in both orders:
chains over the A-letters {a1, a2} and {a1, a2*}, whose codes name other
words, and two chains over {a1, a2}.  Every sweep runs
twice on the same models and prints both values, so a checkout that keeps a
matrix model's per-word values between sweeps and one that multiplies the
words out again print the same bytes only if the two agree bit for bit.  It uses the package's public names
only, so it runs against an older checkout too.
"""

import numpy as np

from _oracles import chain_instance, random_general
from cyclospec import (
    AlgMatrix,
    DegreeExceededError,
    MatrixTraceFamily,
    MomentTable,
    NCPolynomial,
    NotInDomainError,
    TraceMatrixState,
    a_gen,
    b_gen,
    chain_moment,
    chain_moment_unreduced,
    make_symbols,
    parse_expression,
    poly_moment,
)

SEED = 1313
DIMS = (1, 2, 5, 16)
ORDERS = (1, 2, 3, 4)
EXPRESSIONS = (
    "a1*b1 + b1*a1",
    "a1'*b1*a2 + b2'*a1 + a2",
    "b1*a1'*b1' + a2*b2*a2'",
    "i*(a1*b1' - b1*a1')",
)
CRITERION3_SEED = 3030
CHAINS = 100
# RAISING's second word, a1*a1'*a2*b1*b1*b2, raises in the state, beyond a
# degree cap of 2 or past a state with no matrix for b2, after its first has
# filled the weight's products; FULL then sweeps the same weight (and the
# same matrix state) through every word
RAISING = "a1*a1'*a2 + b1*b1*b2"
FULL = "a1*a1'*a2 + b1*a2*b1'"
RAISING_SEED = 1414
SWEEPS = ("first", "second")
MIXED_SEED = 1515
MIXED_A = [a_gen(i, star) for i in (1, 2, 10, 11) for star in (False, True)]
MIXED_B = [b_gen(i, star) for i in (1, 3, 12) for star in (False, True)]
# (dim, A-B pairs, order), three chains each
MIXED_SHAPES = ((1, 1, 3), (1, 2, 2), (2, 1, 2), (2, 2, 1))
# a1*b1 on the diagonal and -a1*b1 below it: at orders 1 and 3 both chain
# traces cancel to no term
CANCELLING = ([["a1", "0"], ["0", "0 - a1"]], [["b1", "0"], ["0", "b1"]])
CANCELLING_SEED = 1616
# two A-B pairs each: the A-matrices of chains over {a1, a2}, over {a1, a2*}
# and again over {a1, a2}, and the B-matrices they share
CROSS_A = {
    "a1 a2": ([["a1 + a2", "a1*a2"], ["a2*a1", "a2"]], [["a1", "a2*a2"], ["a2 + a1", "a1"]]),
    "a1 a2*": ([["a1 + a2'", "a1*a2'"], ["a2'*a1", "a2'"]],
               [["a1", "a2'*a2'"], ["a2' + a1", "a1"]]),
    "a1 a2 again": ([["a2", "a1"], ["a1*a1", "a2*a1 + a1"]], [["a2*a2", "a1 + a2"], ["a1", "a2"]]),
}
CROSS_B = ([["b1", "b2"], ["b2*b1", "b1"]], [["b2", "b1*b1"], ["b1", "b2*b2"]])
CROSS_PAIRS = (("a1 a2", "a1 a2*"), ("a1 a2*", "a1 a2"),
               ("a1 a2", "a1 a2 again"), ("a1 a2 again", "a1 a2"))
CROSS_SEED = 1717


def mixed_entry(rng, letters, lengths):
    """A polynomial of one or two words, their lengths drawn from ``lengths``."""
    poly = NCPolynomial.zero()
    for _ in range(int(rng.integers(1, 3))):
        word = tuple(letters[i] for i in rng.integers(0, len(letters), size=rng.choice(lengths)))
        poly = poly + NCPolynomial.from_word(word, complex(*rng.uniform(-1, 1, size=2)))
    return poly


def mixed_chain(rng, dim, pairs):
    """An alternating chain whose every B-matrix has a unit word in its
    first entry."""
    chain = []
    for _ in range(pairs):
        b_rows = [[mixed_entry(rng, MIXED_B, (0, 1, 2)) for _ in range(dim)] for _ in range(dim)]
        b_rows[0][0] = b_rows[0][0] + NCPolynomial.from_word((), 0.5)
        chain.append(AlgMatrix([[mixed_entry(rng, MIXED_A, (1, 2)) for _ in range(dim)]
                                for _ in range(dim)]))
        chain.append(AlgMatrix(b_rows))
    return chain


def main() -> None:
    syms = make_symbols(a=("a1", "a2"), b=("b1", "b2"))
    rng = np.random.default_rng(SEED)
    for dim in DIMS:
        a_model = MatrixTraceFamily({i: random_general(dim, rng) for i in (1, 2)})
        b_state = TraceMatrixState({i: random_general(dim, rng) for i in (1, 2)})
        for text in EXPRESSIONS:
            poly = parse_expression(text, syms)
            for m in ORDERS:
                for sweep in SWEEPS:
                    value = poly_moment(poly, m, a_model, b_state)
                    print(f"poly_moment dim={dim} m={m} {sweep} {text}: {value!r}")
    raising, full_sweep = parse_expression(RAISING, syms), parse_expression(FULL, syms)
    rng = np.random.default_rng(RAISING_SEED)
    for dim in DIMS:
        a_model = MatrixTraceFamily({i: random_general(dim, rng) for i in (1, 2)})
        b_mats = {i: random_general(dim, rng) for i in (1, 2)}
        for b_state in (MomentTable({(syms["b1"], syms["b1"]): 0.5}, degree_cap=2),
                        TraceMatrixState({1: b_mats[1]})):
            name = type(b_state).__name__
            for sweep in SWEEPS:
                try:
                    poly_moment(raising, 2, a_model, b_state)
                except (DegreeExceededError, NotInDomainError) as exc:
                    print(f"raising dim={dim} {name} {sweep}: {type(exc).__name__}: {exc}")
            full = TraceMatrixState(b_mats) if name == "MomentTable" else b_state
            for m in ORDERS:
                for sweep in SWEEPS:
                    value = poly_moment(full_sweep, m, a_model, full)
                    print(f"after raising dim={dim} {name} m={m} {sweep} {FULL}: {value!r}")
    rng = np.random.default_rng(CRITERION3_SEED)
    for pos in range(CHAINS):
        inst = chain_instance(rng)
        args = (inst["chain"], inst["m"], inst["a_model"], inst["b_state"])
        for trace in (chain_moment, chain_moment_unreduced):
            for sweep in SWEEPS:
                print(f"chain {pos} {trace.__name__} {sweep}: {trace(*args)!r}")
    rng = np.random.default_rng(MIXED_SEED)
    for dim, pairs, m in MIXED_SHAPES:
        for pos in range(3):
            chain = mixed_chain(rng, dim, pairs)
            a_model = MatrixTraceFamily({i: random_general(3, rng) for i in (1, 2, 10, 11)})
            b_mats = {i: random_general(3, rng) for i in (1, 3, 12)}
            name = f"mixed d{dim} k{pairs} m{m} {pos}"
            for b_state in (TraceMatrixState({i: b_mats[i] for i in (1, 3)}),
                            TraceMatrixState(b_mats)):
                for trace in (chain_moment_unreduced, chain_moment):
                    for sweep in SWEEPS:
                        try:
                            value = repr(trace(chain, m, a_model, b_state))
                        except NotInDomainError as exc:
                            value = f"{type(exc).__name__}: {exc}"
                        print(f"{name} {trace.__name__} b-state {sorted(b_state.matrices)} "
                              f"{sweep}: {value}")
    chain = [AlgMatrix(rows) for rows in CANCELLING]
    rng = np.random.default_rng(CANCELLING_SEED)
    a_model = MatrixTraceFamily({1: random_general(3, rng)})
    b_state = TraceMatrixState({1: random_general(3, rng)})
    for m in (1, 2, 3):
        for trace in (chain_moment, chain_moment_unreduced):
            for sweep in SWEEPS:
                value = trace(chain, m, a_model, b_state)
                print(f"cancelling m={m} {trace.__name__} {sweep}: {value!r}")
    rng = np.random.default_rng(CROSS_SEED)
    chains = {name: [AlgMatrix(rows) for pair in zip(a_rows, CROSS_B) for rows in pair]
              for name, a_rows in CROSS_A.items()}
    for first, second in CROSS_PAIRS:
        a_model = MatrixTraceFamily({i: random_general(3, rng) for i in (1, 2)})
        b_state = TraceMatrixState({i: random_general(3, rng) for i in (1, 2)})
        for m in (1, 2):
            for sweep in SWEEPS:
                reduced = chain_moment(chains[first], m, a_model, b_state)
                direct = chain_moment_unreduced(chains[second], m, a_model, b_state)
                print(f"cross m={m} {sweep} chain_moment {first}: {reduced!r}, "
                      f"then chain_moment_unreduced {second}: {direct!r}")


if __name__ == "__main__":
    main()

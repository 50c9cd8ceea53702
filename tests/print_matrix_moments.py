"""Print oracle moments that go through matrix word products, one per line.

    PYTHONPATH=src python tests/print_matrix_moments.py > moments.txt

The output is deterministic: fixed seeds, fixed expressions, and ``repr`` of
every value, so two checkouts that multiply words out bitwise alike print the
same bytes.  It covers ``poly_moment`` over a ``MatrixTraceFamily`` weight and
a ``TraceMatrixState`` state at dimensions 1, 2, 5 and 16, on expressions with
starred and unstarred letters, and ``chain_moment`` and
``chain_moment_unreduced`` on all 100 criterion-3 chains, so every chain
shape of that gate goes through the oracle.  It uses the package's public
names only, so it runs against an older checkout too.
"""

import numpy as np

from _oracles import chain_instance, random_general
from cyclospec import (
    MatrixTraceFamily,
    TraceMatrixState,
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


def main() -> None:
    syms = make_symbols(a=("a1", "a2"), b=("b1", "b2"))
    rng = np.random.default_rng(SEED)
    for dim in DIMS:
        a_model = MatrixTraceFamily({i: random_general(dim, rng) for i in (1, 2)})
        b_state = TraceMatrixState({i: random_general(dim, rng) for i in (1, 2)})
        for text in EXPRESSIONS:
            poly = parse_expression(text, syms)
            for m in ORDERS:
                value = poly_moment(poly, m, a_model, b_state)
                print(f"poly_moment dim={dim} m={m} {text}: {value!r}")
    rng = np.random.default_rng(CRITERION3_SEED)
    for pos in range(CHAINS):
        inst = chain_instance(rng)
        args = (inst["chain"], inst["m"], inst["a_model"], inst["b_state"])
        print(f"chain {pos} chain_moment: {chain_moment(*args)!r}")
        print(f"chain {pos} chain_moment_unreduced: {chain_moment_unreduced(*args)!r}")


if __name__ == "__main__":
    main()

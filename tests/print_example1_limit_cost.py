"""Print how well example1's trials match two predictions, per dimension n.

    PYTHONPATH=src python tests/print_example1_limit_cost.py [n ...]

The two predictions are example1's own, the exact limit model, and the
spectrum over one seeded finite Haar draw of the rotated copies a2, a3
(``a1`` unrotated, each further generator rotated by a Haar unitary seeded
with ``(seed, index)``).  The statistic is the top-15 ``signed_max_rel``
of ``spectra.match_distance``: the top 15 predicted values in canonical
order, non-negative ones descending paired with the largest empirical
values and negatives ascending with the smallest, and the largest relative
error of a pair.  Each row is the mean over 3 seeds (the demo file's and
1, 2) of 5 trials each (2 at n >= 1000).  A trial at n holds about five
complex 2n x 2n matrices: 350 MB at n = 1000.
"""

import sys

import numpy as np

from cyclospec import (
    EVMultiset,
    MatrixTraceFamily,
    builtin_scenario,
    match_distance,
    run_scenario,
    sample_haar_unitary,
)
from cyclospec import linred, rmtlab

DEMO = builtin_scenario("example1")
SEEDS = (DEMO.seed, 1, 2)  # the demo file's seed, then two more
TOP = 15
assert DEMO.compare_top == TOP


def seeded_draw_prediction(scenario):
    """The prediction's multiset over one finite Haar draw of a2, a3, seeded
    by the scenario."""
    compiled = rmtlab._compile(scenario)
    a_model = compiled.a_model
    n = scenario.truncation
    mats = {}
    for index, spectrum in a_model.spectra.items():
        d = spectrum.eigenvalues(n).astype(complex)
        if index == min(a_model.spectra):
            mats[index] = np.diag(d)
            continue
        seq = np.random.SeedSequence(entropy=scenario.seed, spawn_key=(index,))
        u = sample_haar_unitary(n, np.random.default_rng(seq))
        mats[index] = (u * d) @ u.conj().T
    # ev_polynomial of the expression, over the scenario's one reduction
    return linred._reduction_spectrum(compiled.reduction, MatrixTraceFamily(mats), n).multiset


def main(dims):
    print("n seeded_draw exact_limit")
    for n in dims:
        draw, limit = [], []
        for seed in SEEDS:
            scenario = builtin_scenario("example1", n=n, trials=2 if n >= 1000 else 5, seed=seed)
            report = run_scenario(scenario)
            seeded = seeded_draw_prediction(scenario)
            for trial in report.trials:
                empirical = EVMultiset(trial["eigenvalues"])
                draw.append(match_distance(empirical, seeded, TOP)["signed_max_rel"])
                # the report's own statistic: example1 compares its top 15
                limit.append(trial["match"]["signed_max_rel"])
        print(f"{n} {np.mean(draw):.3f} {np.mean(limit):.3f}", flush=True)


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [150, 300, 600, 1000])

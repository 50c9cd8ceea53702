"""Print how well example1's trials match two predictions, per dimension n.

    PYTHONPATH=src python tests/print_example1_limit_cost.py [n ...]

The two predictions are example1's own, the exact limit model, and the
spectrum over one seeded finite Haar draw of the rotated copies a2, a3
(``a1`` unrotated, each further generator rotated by a Haar unitary seeded
with ``(seed, index)``).  The statistic is the signed-order top-15 max_rel:
the top 15 predicted values in canonical order, positives descending paired
with the largest empirical values and negatives ascending with the smallest,
and the largest relative error of a pair.  Each row is the mean over 3 seeds
of 5 trials each (2 at n >= 1000).  A trial at n holds about five complex
2n x 2n matrices: 350 MB at n = 1000.
"""

import sys

import numpy as np

from cyclospec import (
    MatrixTraceFamily,
    builtin_scenario,
    run_scenario,
    sample_haar_unitary,
)
from cyclospec import linred, rmtlab
from cyclospec.rmtlab import DEMO_SEED

SEEDS = (DEMO_SEED, 1, 2)
TOP = 15


def signed_order_max_rel(empirical, predicted, top=TOP):
    """The largest relative error of the top ``top`` predicted values, each
    paired by signed order with an empirical value."""
    pred = np.asarray(predicted[:top])
    emp = np.sort(np.asarray(empirical))
    pos = np.sort(pred[pred > 0])[::-1]
    neg = np.sort(pred[pred < 0])
    pairs = [(emp[::-1][:len(pos)], pos), (emp[:len(neg)], neg)]
    return max(float(np.max(np.abs(e - p) / np.abs(p), initial=0.0)) for e, p in pairs)


def seeded_draw_prediction(scenario):
    """The prediction over one finite Haar draw of a2, a3, seeded by the scenario."""
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
    prediction = linred._reduction_spectrum(compiled.reduction, MatrixTraceFamily(mats), n)
    return prediction.multiset.to_list()


def main(dims):
    print("n seeded_draw exact_limit")
    for n in dims:
        draw, limit = [], []
        for seed in SEEDS:
            scenario = builtin_scenario("example1", n=n, trials=2 if n >= 1000 else 5, seed=seed)
            report = run_scenario(scenario)
            seeded = seeded_draw_prediction(scenario)
            for trial in report.trials:
                draw.append(signed_order_max_rel(trial["eigenvalues"], seeded))
                limit.append(signed_order_max_rel(trial["eigenvalues"],
                                                  report.prediction["eigenvalues"]))
        print(f"{n} {np.mean(draw):.3f} {np.mean(limit):.3f}", flush=True)


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [150, 300, 600, 1000])

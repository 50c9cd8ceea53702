"""Random-matrix experiments: scenario descriptions, sampling, and reports.

A scenario fixes the matrix dimension, a master seed, the builders for the
A-side and B-side matrices, an expression to evaluate, and a prediction
recipe.  Each trial derives its own non-overlapping random stream from the
master seed, samples every matrix in a fixed documented order (A-side first,
then the B-side list, then the shared Haar conjugator), evaluates the
expression, and compares the empirical spectrum against the prediction.
Trials run one after another, in order.

The closed-form recipes share one dispatcher, :func:`recipe_prediction`,
with ``cyclospec predict --recipe``.  The demo scenarios are the JSON files
shipped in the package's ``demos/`` directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .cmcalc import (
    ExplicitSpectrum,
    GeometricSpectrum,
    HaarConjugatedFamily,
    MomentTable,
    dense_word_product,
)
from .ensembles import geometric_diag, sample_gue, sample_haar_unitary
from .errors import (
    DimensionMismatchError,
    NotSelfadjointError,
)
from .linred import (
    AlgMatrix,
    chain_moment,
    ev_anticommutator,
    ev_chain,
    ev_commutator,
    ev_sum_bab,
    ev_sum_bac,
)
from .ncalg import FAMILY_A, FAMILY_B, Letter, parse_expression
from .spectra import hermitian_spectrum, match_distance, rounding_tolerance

__all__ = [
    "DEMO_SEED",
    "Report",
    "Scenario",
    "builtin_scenario",
    "estimate_beta",
    "geometric_diag",
    "load_matrix_csv",
    "run_scenario",
    "sample_gue",
    "sample_haar_unitary",
    "save_matrix_csv",
    "trial_rng",
]

DEMO_SEED = 20260808

HERMITICITY_GATE = 1e-8

_A_SPEC_KINDS = {"geometric", "explicit", "geom_haar_block2"}
_B_SPEC_KINDS = {"gue", "gue_squared", "gue_squared_block2", "file", "copy_of"}
# the prediction keys each recipe reads; a per-trial sum_bac beta reads
# "pairs" and "bprime_limit" instead of "bprime"
_RECIPE_KEYS = {
    "anticommutator": ("tau_b", "tau_b2"),
    "commutator": ("tau_b", "tau_b2"),
    "sum_bab": ("diag", "gram"),
    "sum_bac": ("bprime",),
    "chain_bab_block2": (),
}


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Per-trial generator; the spawn key makes streams injective in the trial."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def estimate_beta(c_list, b_list) -> np.ndarray:
    """Matrix of normalized traces ``tr_n(C_i B_j)`` of the supplied matrices.

    The summation is arranged symmetrically so that passing the same list
    twice yields an exactly symmetric result.
    """
    if len(c_list) != len(b_list):
        raise DimensionMismatchError("need equally many C and B matrices")
    mats_c = [np.asarray(c, dtype=complex) for c in c_list]
    mats_b = [np.asarray(b, dtype=complex) for b in b_list]
    dims = {m.shape for m in mats_c} | {m.shape for m in mats_b}
    if len(dims) != 1:
        raise DimensionMismatchError("all matrices must share one shape")
    (shape,) = dims
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatchError("matrices must be square")
    n = shape[0]
    k = len(mats_c)
    beta = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            cross = mats_c[i] * mats_b[j].T
            beta[i, j] = complex(np.sum(cross + cross.T)) / (2.0 * n)
    return beta


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    """Row-major CSV; each complex entry becomes adjacent (re, im) columns."""
    m = np.asarray(matrix, dtype=complex)
    with open(path, "w", encoding="utf-8") as fh:
        for row in m:
            cells = []
            for value in row:
                cells.append(repr(float(value.real)))
                cells.append(repr(float(value.imag)))
            fh.write(",".join(cells) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            cells = [float(x) for x in line.strip().split(",")]
            if len(cells) % 2 != 0:
                raise ValueError("matrix CSV rows need (re, im) column pairs")
            rows.append([complex(cells[2 * i], cells[2 * i + 1]) for i in range(len(cells) // 2)])
    return np.asarray(rows, dtype=complex)


@dataclass
class Scenario:
    """Configuration of one experiment."""

    name: str
    n: int
    seed: int
    trials: int
    a_spec: dict
    b_spec: list
    expression: str
    prediction: dict
    haar_conjugate_b: bool = False
    compare_top: int = 10
    truncation: int | None = None

    def __post_init__(self):
        if self.truncation is None:
            self.truncation = self.n
        self.validate()

    def validate(self) -> None:
        if self.n < 2:
            raise ValueError("matrix dimension must be >= 2")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.compare_top < 0:
            raise ValueError("compare_top must be >= 0")
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        if self.a_spec.get("kind") not in _A_SPEC_KINDS:
            raise ValueError(f"unknown a_spec kind {self.a_spec.get('kind')!r}")
        for pos, spec in enumerate(self.b_spec):
            kind = spec.get("kind")
            if kind not in _B_SPEC_KINDS:
                raise ValueError(f"unknown b_spec kind {kind!r}")
            if kind == "copy_of":
                ref = spec.get("index")
                if not isinstance(ref, int) or not (1 <= ref <= pos):
                    raise ValueError("copy_of must reference an earlier b_spec entry")
        recipe = self.prediction.get("recipe")
        if recipe not in _RECIPE_KEYS:
            raise ValueError(f"unknown prediction recipe {recipe!r}")
        per_trial = recipe == "sum_bac" and self.prediction.get("beta") == "per_trial"
        keys = ("pairs", "bprime_limit") if per_trial else _RECIPE_KEYS[recipe]
        for key in keys:
            if key not in self.prediction:
                raise ValueError(f"prediction recipe {recipe!r} needs the key {key!r}")
        if per_trial:
            for pair in self.prediction["pairs"]:
                if not all(1 <= idx <= len(self.b_spec) for idx in pair):
                    raise ValueError("beta pairs must index into b_spec")
        parse_expression(self.expression, self._symbols())

    def _symbols(self) -> dict:
        symbols = {"a1": Letter(FAMILY_A, 1)}
        for j in range(1, len(self.b_spec) + 1):
            symbols[f"b{j}"] = Letter(FAMILY_B, j)
        return symbols

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "seed": self.seed,
            "trials": self.trials,
            "a_spec": self.a_spec,
            "b_spec": self.b_spec,
            "haar_conjugate_b": self.haar_conjugate_b,
            "expression": self.expression,
            "prediction": self.prediction,
            "compare_top": self.compare_top,
            "truncation": self.truncation,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        return cls(
            name=doc["name"],
            n=int(doc["n"]),
            seed=int(doc["seed"]),
            trials=int(doc.get("trials", 5)),
            a_spec=doc["a_spec"],
            b_spec=list(doc["b_spec"]),
            haar_conjugate_b=bool(doc.get("haar_conjugate_b", False)),
            expression=doc["expression"],
            prediction=doc["prediction"],
            compare_top=int(doc.get("compare_top", 10)),
            truncation=doc.get("truncation"),
        )

    @classmethod
    def from_json(cls, path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass
class Report:
    """Empirical-vs-predicted comparison output of one scenario run."""

    scenario: dict
    prediction: dict
    trials: list
    summary: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "prediction": self.prediction,
            "trials": self.trials,
            "summary": self.summary,
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "Report":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(
            scenario=doc["scenario"],
            prediction=doc["prediction"],
            trials=doc["trials"],
            summary=doc.get("summary", {}),
        )


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------


def _build_a_matrix(scenario: Scenario, rng: np.random.Generator, diagnostics: dict) -> np.ndarray:
    spec = scenario.a_spec
    kind = spec["kind"]
    n = scenario.n
    if kind == "geometric":
        return geometric_diag(
            n, spec["ratio"], spec.get("scale", 1.0), spec.get("start_power", 0)
        )
    if kind == "explicit":
        values = np.asarray(spec["values"], dtype=float)
        if values.size != n:
            raise DimensionMismatchError("explicit spectrum length must equal n")
        return np.diag(values).astype(complex)
    # geom_haar_block2: the 2x2 block of one diagonal and two rotated copies
    d = geometric_diag(n, spec["ratio"], spec.get("scale", 1.0), spec.get("start_power", 0))
    u1 = sample_haar_unitary(n, rng)
    u2 = sample_haar_unitary(n, rng)
    diagnostics.setdefault("haar_unitarity", []).extend(
        [_unitarity_residual(u1), _unitarity_residual(u2)]
    )
    a2 = u1 @ d @ u1.conj().T
    a3 = u2 @ d @ u2.conj().T
    top = np.hstack([d, a2])
    bottom = np.hstack([a2.conj().T, a3])
    return np.vstack([top, bottom])


def _unitarity_residual(u: np.ndarray) -> float:
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


def _build_b_matrices(
    scenario: Scenario, dim: int, rng: np.random.Generator, diagnostics: dict
) -> list[np.ndarray]:
    mats: list[np.ndarray] = []
    for spec in scenario.b_spec:
        kind = spec["kind"]
        if kind == "gue":
            g = sample_gue(dim, rng)
            diagnostics.setdefault("gue_tr_sq", []).append(
                float(np.real(np.trace(g @ g)) / dim)
            )
            mats.append(g)
        elif kind == "gue_squared":
            g = sample_gue(dim, rng)
            diagnostics.setdefault("gue_tr_sq", []).append(
                float(np.real(np.trace(g @ g)) / dim)
            )
            mats.append(g @ g)
        elif kind == "gue_squared_block2":
            if dim % 2 != 0:
                raise DimensionMismatchError("block builder needs an even dimension")
            half = dim // 2
            gs = []
            for _ in range(3):
                g = sample_gue(half, rng)
                diagnostics.setdefault("gue_tr_sq", []).append(
                    float(np.real(np.trace(g @ g)) / half)
                )
                gs.append(g @ g)
            top = np.hstack([gs[0], gs[1]])
            bottom = np.hstack([gs[1], gs[2]])
            mats.append(np.vstack([top, bottom]))
        elif kind == "file":
            mat = load_matrix_csv(spec["path"])
            if mat.shape != (dim, dim):
                raise DimensionMismatchError(
                    f"loaded matrix has shape {mat.shape}, expected {(dim, dim)}"
                )
            mats.append(mat)
        else:  # copy_of
            mats.append(mats[spec["index"] - 1])
    return mats


def _evaluate_expression(poly, a_mats: dict, b_mats: dict, dim: int) -> np.ndarray:
    lookup = {}
    for index, mat in a_mats.items():
        lookup[(FAMILY_A, index)] = mat
    for index, mat in b_mats.items():
        lookup[(FAMILY_B, index)] = mat

    def matrix_of(letter):
        mat = lookup.get((letter.family, letter.index))
        if mat is None:
            raise DimensionMismatchError(f"no matrix bound to {letter.label()}")
        return mat

    out = np.zeros((dim, dim), dtype=complex)
    for word, coeff in poly.sorted_terms():
        out += coeff * dense_word_product(word, matrix_of, dim)
    return out


# ---------------------------------------------------------------------------
# prediction builders
# ---------------------------------------------------------------------------


def _a_spectrum(scenario: Scenario):
    spec = scenario.a_spec
    if spec["kind"] == "geometric":
        scale = spec.get("scale", 1.0) * spec["ratio"] ** spec.get("start_power", 0)
        return GeometricSpectrum(scale, spec["ratio"], count=scenario.truncation)
    if spec["kind"] == "explicit":
        return ExplicitSpectrum(spec["values"])
    raise ValueError("block a_spec kinds use their own prediction recipe")


def _analytic_block2_family(scenario: Scenario, realization_seed: int) -> HaarConjugatedFamily:
    spec = scenario.a_spec
    scale = spec.get("scale", 1.0) * spec["ratio"] ** spec.get("start_power", 0)
    spectra = {
        i: GeometricSpectrum(scale, spec["ratio"], count=None) for i in (1, 2, 3)
    }
    return HaarConjugatedFamily(spectra, realization_seed=realization_seed)


def _semicircle_square_table() -> MomentTable:
    """State values of words in three free squared semicircular elements.

    Only the words that arise from reducing the squared block matrix are
    tabulated: tr(b_i^2) = 1, tr(b_i^4) = 2 (Catalan), and mixed squares
    factorize, tr(b_i^2 b_j^2) = 1.
    """
    moments = {}
    for i in (1, 2, 3):
        bi = Letter(FAMILY_B, i)
        moments[(bi, bi)] = 1.0
        moments[(bi, bi, bi, bi)] = 2.0
        for j in (1, 2, 3):
            if i < j:
                bj = Letter(FAMILY_B, j)
                moments[(bi, bi, bj, bj)] = 1.0
    return MomentTable(moments, degree_cap=4)


def _example1_algebra():
    symbols = {f"a{i}": Letter(FAMILY_A, i) for i in (1, 2, 3)}
    symbols.update({f"b{i}": Letter(FAMILY_B, i) for i in (1, 2, 3)})
    a_alg = AlgMatrix([["a1", "a2"], ["a2", "a3"]], symbols)
    b_alg = AlgMatrix([["b1*b1", "b2*b2"], ["b2*b2", "b3*b3"]], symbols)
    return a_alg, b_alg


def recipe_prediction(spec: dict, spectrum, truncation, trial_b_mats: list | None = None):
    """Prediction of a closed-form recipe with the A-side ``spectrum``.

    ``spec`` is a scenario ``prediction`` entry of any recipe but the chain;
    ``trial_b_mats`` activates the per-trial estimate of a ``sum_bac`` beta.
    """
    recipe = spec["recipe"]
    if recipe == "anticommutator":
        return ev_anticommutator(spectrum, spec["tau_b"], spec["tau_b2"], truncation)
    if recipe == "commutator":
        return ev_commutator(spectrum, spec["tau_b"], spec["tau_b2"], truncation)
    if recipe == "sum_bab":
        base = spectrum.eigenvalues(truncation)
        diag = [
            float(entry.get("coeff", 1.0)) * base ** int(entry["power"])
            for entry in spec["diag"]
        ]
        return ev_sum_bab(diag, np.asarray(spec["gram"], dtype=complex), truncation)
    if recipe == "sum_bac":
        if spec.get("beta") == "per_trial":
            if trial_b_mats is not None:
                pairs = spec["pairs"]
                c_list = [trial_b_mats[c - 1] for _, c in pairs]
                b_list = [trial_b_mats[b - 1] for b, _ in pairs]
                bprime = estimate_beta(c_list, b_list)
            else:
                bprime = np.asarray(spec["bprime_limit"], dtype=complex)
        else:
            bprime = np.asarray(spec["bprime"], dtype=complex)
        return ev_sum_bac(spectrum, bprime, truncation)
    raise ValueError(f"unknown recipe {recipe!r}")


def build_prediction(scenario: Scenario, trial_b_mats: list | None = None):
    """Prediction for a scenario; ``trial_b_mats`` activates per-trial estimates.

    Returns ``(prediction, moments)`` where ``moments`` are the first three
    predicted trace moments (limit values where the recipe provides them,
    multiset moments otherwise).
    """
    if scenario.prediction["recipe"] == "chain_bab_block2":
        a_alg, b_alg = _example1_algebra()
        table = _semicircle_square_table()
        family = _analytic_block2_family(scenario, realization_seed=scenario.seed)
        pred = ev_chain(
            b_alg, [a_alg, b_alg], family, table, truncation=scenario.truncation
        )
        squared = b_alg @ b_alg
        limits = [
            float(np.real(chain_moment([a_alg, squared], m, family, table)))
            for m in (1, 2, 3)
        ]
        return pred, limits
    pred = recipe_prediction(
        scenario.prediction, _a_spectrum(scenario), scenario.truncation, trial_b_mats
    )
    moments = [float(np.sum(pred.multiset.values**k)) for k in (1, 2, 3)]
    return pred, moments


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


def run_scenario(scenario: Scenario) -> Report:
    """Run every trial of a scenario and assemble the comparison report."""
    scenario.validate()
    poly = parse_expression(scenario.expression, scenario._symbols())
    per_trial_beta = (
        scenario.prediction.get("recipe") == "sum_bac"
        and scenario.prediction.get("beta") == "per_trial"
    )
    prediction, predicted_moments = build_prediction(scenario)

    def one_trial(t: int) -> dict:
        rng = trial_rng(scenario.seed, t)
        diagnostics: dict = {}
        a_matrix = _build_a_matrix(scenario, rng, diagnostics)
        dim = a_matrix.shape[0]
        b_mats = _build_b_matrices(scenario, dim, rng, diagnostics)
        raw_b = list(b_mats)
        if scenario.haar_conjugate_b:
            u = sample_haar_unitary(dim, rng)
            diagnostics.setdefault("haar_unitarity", []).append(_unitarity_residual(u))
            b_mats = [u @ mat @ u.conj().T for mat in b_mats]
        x = _evaluate_expression(
            poly,
            {1: a_matrix},
            {j + 1: mat for j, mat in enumerate(b_mats)},
            dim,
        )
        residual = float(np.max(np.abs(x - x.conj().T)))
        if residual > rounding_tolerance(HERMITICITY_GATE, float(np.max(np.abs(x)))):
            raise NotSelfadjointError(
                f"trial {t}: expression evaluated to a non-Hermitian matrix "
                f"(residual {residual:.3e})"
            )
        x = (x + x.conj().T) / 2.0
        empirical = hermitian_spectrum(x, source="empirical")
        x2 = x @ x
        moments = [
            float(np.real(np.trace(x))),
            float(np.real(np.trace(x2))),
            float(np.real(np.einsum("ij,ji->", x2, x))),
        ]
        record = {
            "trial": t,
            "eigenvalues": empirical.to_list(),
            "moments": moments,
            "diagnostics": {"hermiticity_residual": residual, **diagnostics},
        }
        if per_trial_beta:
            trial_pred, _ = build_prediction(scenario, trial_b_mats=raw_b)
            record["prediction_eigenvalues"] = trial_pred.multiset.to_list()
            record["prediction_provenance"] = trial_pred.to_json_dict()["provenance"]
            reference = trial_pred.multiset
        else:
            reference = prediction.multiset
        record["match"] = match_distance(empirical, reference, scenario.compare_top)
        return record

    trial_records = [one_trial(t) for t in range(scenario.trials)]

    rels = [rec["match"]["max_rel"] for rec in trial_records]
    abss = [rec["match"]["max_abs"] for rec in trial_records]
    moment_means = [
        float(np.mean([rec["moments"][k] for rec in trial_records])) for k in range(3)
    ]
    moment_rel_err = [
        abs(moment_means[k] - predicted_moments[k]) / max(abs(predicted_moments[k]), 1e-12)
        for k in range(3)
    ]
    summary = {
        "match_mean_max_rel": float(np.mean(rels)),
        "match_max_max_rel": float(np.max(rels)),
        "match_mean_max_abs": float(np.mean(abss)),
        "moments_mean": moment_means,
        "moment_rel_err_vs_prediction": moment_rel_err,
    }
    prediction_doc = prediction.to_json_dict()
    prediction_doc["moments"] = predicted_moments
    return Report(
        scenario=scenario.to_dict(),
        prediction=prediction_doc,
        trials=trial_records,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# built-in demos
# ---------------------------------------------------------------------------


def builtin_scenario(name: str, n: int = 300, trials: int = 5, seed: int | None = None) -> Scenario:
    """The shipped demo scenario ``demos/<name>.json`` at dimension ``n``.

    ``n``, ``trials``, ``seed`` (default :data:`DEMO_SEED`) and
    ``truncation = n`` replace the file's values.  The file is read afresh on
    every call, so the returned scenario shares nothing with earlier ones.
    """
    path = resources.files(__package__).joinpath(f"demos/{name}.json")
    if not path.is_file():
        raise ValueError(f"unknown demo scenario {name!r}")
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.update(n=n, trials=trials, seed=DEMO_SEED if seed is None else seed, truncation=n)
    return Scenario.from_dict(doc)

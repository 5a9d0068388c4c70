"""The benchmark's workloads: fixed operation lists derived from a seed, and the
check that decides whether each operation succeeded.

A run is a fixed number of passes; a pass is a list of operations.  An
experiment operation is what the `opalg` command does minus process start:
`cli.run_experiment` followed by `cli.emit_report` in CSV and JSON.  A
cross-check operation is one matrix through both `numkit.operator_norm` and
the Jacobi oracle `numkit.svd_oracle`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from opalg import cli, numkit

WORKLOADS = {
    "volterra-dense": ("v2norm", "littlereade", "muntz", "titchmarsh",
                       "nilpotent-density", "unbounded-witness"),
    "toeplitz-huge": ("notell1",),
    "shift-gauge": ("equivalence", "fejer", "neumann", "gauge-scan",
                    "inequivalence", "quasinilpotence"),
    "oracle-crosscheck": (),
}

# Layer groups (see spans.GROUPS) each workload must reach; a traced run in
# which one of them records zero calls fails its coverage check.
COVERAGE = {
    "volterra-dense": ("numkit.operator_norm", "volterra.build_vf", "volterra.kernels",
                       "cli.run_experiment", "report.emit"),
    "toeplitz-huge": ("numkit.toeplitz_operator_norm", "volterra.kernels",
                      "cli.run_experiment", "report.emit"),
    "shift-gauge": ("numkit.operator_norm", "numkit.jacobi_svd", "shift.powers",
                    "gauge.gauge_conjugate", "cli.run_experiment", "report.emit"),
    "oracle-crosscheck": ("numkit.operator_norm", "numkit.jacobi_svd"),
}

# The flag set each experiment must report at its default config.
# growth_ratio_exceeds_4 is false by design: the discretized norm grows like
# sqrt(N), so the 4x grid ladder gives about 2.001x (acceptance criterion 11).
EXPECTED_FLAGS = {
    "v2norm": {"root_residual_small": True, "errors_strictly_decreasing": True,
               "final_error_within_1e-2": True},
    "littlereade": {"strictly_decreasing_through_8": True, "c8_in_expected_band": True},
    "muntz": {"operator_discrepancy_within_bound": True, "margin_exceeds_one": True},
    "titchmarsh": {"support_starts_complementary": True, "band_nilpotency_exact": True,
                   "homomorphism_error_halves": True},
    "nilpotent-density": {"distance_within_bound": True, "truncation_is_nilpotent": True},
    "unbounded-witness": {"strictly_increasing": True, "growth_ratio_exceeds_4": False},
    "notell1": {"l1_mass_exact": True, "sharp_mass_exact": True,
                "sharp_near_quarter_pi_squared": True, "sigma_within_half_pi": True},
    "equivalence": {"all_ratios_within_bound": True},
    "fejer": {"errors_within_coefficient_bound": True},
    "neumann": {"all_neumann_sums_reproduce_powers": True},
    "gauge-scan": {"shift_scan_isometric": True, "shift_scan_yields_no_witness": True,
                   "diagonal_witness_found": True, "projection_dependence_found": True,
                   "shift_powers_independent": True},
    "inequivalence": {"spread_closed_form_matches": True, "e0_closed_form_matches": True,
                      "ratio_exceeds_bound": True},
    "quasinilpotence": {"profile_decreasing": True},
}

# Expected-false flags and the report row that shows the measured value.
REFUTATIONS = {("unbounded-witness", "growth_ratio_exceeds_4"): "final_over_initial"}

# Experiment seeds come from this pool, in an order the workload seed picks, so
# the baseline digests in digests.json cover every report a run can emit.
SEED_POOL = 64

# Cross-check sizes: one matrix per stratum of n in [2, 128], so every pass
# has the same size mix and the seed only changes the entries.
ORACLE_COUNT = 5
ORACLE_SIZES = tuple(2 + (126 * (2 * i + 1)) // (2 * ORACLE_COUNT)
                     for i in range(ORACLE_COUNT))
ORACLE_GAP = 1e-9  # acceptance criterion 12

# Passes a run makes.  Fixed, so that every commit times the same operations
# and the latency order statistics land on the same ones; sized so that a run
# takes 21 to 28 s on the reference machine (2 vCPUs, one BLAS thread).
# shift-gauge visits each pool seed once.
PASSES = {"volterra-dense": 4, "toeplitz-huge": 2, "shift-gauge": SEED_POOL,
          "oracle-crosscheck": 8}


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


class Experiment:
    """One `opalg <name> --seed <seed>` run at the default config."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed

    def __call__(self):
        report = cli.run_experiment(cli.ExperimentConfig(self.name, seed=self.seed))
        return report, cli.emit_report(report, "csv") + cli.emit_report(report, "json")

    def check(self, result) -> str | None:
        flags = dict(result[0].flags)
        if flags != EXPECTED_FLAGS[self.name]:
            return f"{self.name} seed {self.seed}: flags {flags}"
        return None

    def notes(self, result) -> list[str]:
        report = result[0]
        return [f"{self.name}: {flag} is false as expected "
                f"({row} = {report.value(row):.4f})"
                for (name, flag), row in REFUTATIONS.items() if name == self.name]


class CrossCheck:
    """Power-iteration norm against the Jacobi SVD oracle on one matrix."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def __call__(self):
        return numkit.operator_norm(self.matrix), numkit.svd_oracle(self.matrix)

    def check(self, result) -> str | None:
        gap = abs(result[0] - result[1])
        if not gap < ORACLE_GAP:
            return f"n={self.matrix.shape[0]}: gap {gap:.3e} >= {ORACLE_GAP:g}"
        return None

    def notes(self, result) -> list[str]:
        return []


def experiment_seeds(seed: int) -> list[int]:
    """The order in which a workload seed visits the experiment seed pool."""
    return [int(s) for s in np.random.default_rng(seed).permutation(SEED_POOL)]


def oracle_matrix(seed: int, pass_index: int, i: int) -> np.ndarray:
    rng = np.random.default_rng([seed, pass_index, i])
    n = ORACLE_SIZES[i]
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def passes(workload: str, seed: int, count: int | None = None) -> list:
    """The operations of each pass of a run: PASSES[workload] passes, or `count`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    count = count or PASSES[workload]
    if workload == "oracle-crosscheck":
        return [[CrossCheck(oracle_matrix(seed, k, i)) for i in range(ORACLE_COUNT)]
                for k in range(count)]
    order = experiment_seeds(seed)
    return [[Experiment(name, order[k % SEED_POOL]) for name in WORKLOADS[workload]]
            for k in range(count)]

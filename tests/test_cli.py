"""CLI dispatch, serialization, and determinism tests."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

from opalg import numkit, shift
from opalg.cli import EXPERIMENTS, ExperimentConfig, emit_report, main, run_experiment
from opalg.report import ExperimentReport


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "opalg.cli", *args],
                          capture_output=True)


class TestValidation:
    def test_unknown_experiment_rejected_before_compute(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment(ExperimentConfig("does-not-exist"))

    def test_iteration_cap_exits_three(self, monkeypatch, capsys):
        # a norm that does not settle within the cap is a numeric failure
        monkeypatch.setattr(numkit, "POWER_ITERATION_CAP", 1)
        assert main(["v2norm", "--dim", "16"]) == 3
        assert capsys.readouterr().err.startswith(
            "numeric failure: power iteration did not settle within 1 iterations")

    def test_unknown_experiment_exit_code(self):
        proc = run_cli("does-not-exist")
        assert proc.returncode == 2
        assert b"validation error" in proc.stderr

    @pytest.mark.parametrize("args", [("v2norm", "--dim", "1"), ("muntz", "--nmax", "23")],
                             ids=["v2norm-dim-1", "muntz-nmax-23"])
    def test_bad_option_value(self, args):
        # from nmax = 23 on, the monomial fit's R-diagonal ratio is below 1e-13
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert b"validation error" in proc.stderr

    @pytest.mark.parametrize("dim", ["2", "3"])
    def test_neumann_dim_below_four_rejected(self, dim, capsys):
        # trials draw lowest indices k in {1, 2, 3}, so T^3 must not vanish
        assert main(["neumann", "--dim", dim]) == 2
        assert f"dim must be at least 4, got {dim}" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", ["2", "3", "4"])
    def test_gauge_scan_dim_below_five_rejected(self, dim, capsys):
        # the scan checks T^1..T^4 for independence, and T^dim = 0
        assert main(["gauge-scan", "--dim", dim]) == 2
        assert f"dim must be at least 5, got {dim}" in capsys.readouterr().err

    def test_bad_weight_spec(self):
        proc = run_cli("equivalence", "--weights", "fibonacci", "--nmax", "2")
        assert proc.returncode == 2

    def test_weight_underflow_names_the_cap(self, capsys):
        # 64 + 1100 + 1 geometric:0.5 weights: the one at index 1075 is 0.0
        assert main(["quasinilpotence", "--weights", "geometric:0.5", "--nmax", "1100"]) == 2
        assert "at most 1075 geometric weights" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["1e-200", "1e-150", "1e-100", "1e-76"])
    def test_equivalence_e0_norm_underflow_named(self, scale, capsys):
        # ||p(T) e_0|| is about |c_1| a_0.  At 1e-200 it once read 0.0 (and
        # raised a ZeroDivisionError), and from 1e-100 on power iteration's
        # ||S*S v|| underflowed to 0 and stopped a row after one step, at a
        # ratio of about 0.988 instead of 1; a refusal below 2^-250 stood in.
        # Both norms now scale out a power of two, and p(T) = c_1 a S + ...,
        # S the unit shift, attains its norm at e_0 up to rounding
        weights = "list:" + ",".join([scale] * 3)
        assert main(["equivalence", "--dim", "4", "--nmax", "3", "--weights", weights]) == 0
        rep = run_experiment(ExperimentConfig("equivalence", dim=4, nmax=3, weights=weights))
        for trial in range(3):
            assert rep.value(f"ratio_{trial:03d}") == pytest.approx(1.0, abs=1e-12)

    def test_equivalence_small_weights_above_the_floor_converge(self):
        # equal weights a make p(T) = c_1 a T' + O(a^2) with T' the unit
        # shift, whose norm is attained at e_0: every ratio is 1 up to rounding
        for scale in ("1e-74", "1e-20"):
            rep = run_experiment(ExperimentConfig(
                "equivalence", dim=4, nmax=3, weights="list:" + ",".join([scale] * 3)))
            assert rep.passed
            for trial in range(3):
                assert rep.value(f"ratio_{trial:03d}") == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nmax", ["23", "40", "2000"])
    def test_notell1_unresolvable_grid_rejected_before_allocating(self, nmax, capsys):
        # the norm's tol = 1e-9 is below eps * 2^nmax from nmax = 23 on; the
        # default grid of 2^nmax cells (8 GiB at 2^30) is never built
        tracemalloc.start()
        try:
            assert main(["notell1", "--nmax", nmax]) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert "below machine resolution" in capsys.readouterr().err

    def test_malformed_step_piece_named(self, capsys):
        assert main(["nilpotent-density", "--kernel", "step:0,0.5"]) == 2
        assert "step piece '0,0.5' is not of the form a,b,v" in capsys.readouterr().err

    def test_overlapping_step_pieces_rejected(self, capsys):
        # the second piece starts one float below the first one's end: the
        # sliver would count twice in cell 100
        assert main(["nilpotent-density", "--kernel",
                     "step:0,0.5,1;0.49999999999999994,1,1"]) == 2
        assert "overlap" in capsys.readouterr().err
        # touching pieces are disjoint
        assert main(["nilpotent-density", "--kernel", "step:0,0.5,1;0.5,1,1"]) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nilpotent_density_overflow_named(self, capsys):
        # A* A v overflowed at the first power step, which power iteration
        # once refused (exit 2), and the float powers of the truncation read
        # NaN.  The norm now scales out a power of two and nilpotency is read
        # from the band pattern: the claim holds, and numpy warns of nothing
        assert main(["nilpotent-density", "--kernel", "const:1e300"]) == 0
        rep = run_experiment(ExperimentConfig("nilpotent-density", kernel="const:1e300"))
        one = run_experiment(ExperimentConfig("nilpotent-density", kernel="const:1"))
        assert rep.value("operator_distance") == pytest.approx(
            1e300 * one.value("operator_distance"), rel=1e-12)
        assert rep.passed

    @pytest.mark.parametrize("dim", [200, 1000])
    def test_nilpotent_density_tiny_kernel_distance(self, dim):
        # the dense norm at 200 cells and the run product at 1000 once read
        # an operator_distance of 0.0 for 9.958e-302, and exited 0
        rep = run_experiment(ExperimentConfig("nilpotent-density", dim=dim,
                                              kernel="const:1e-300"))
        one = run_experiment(ExperimentConfig("nilpotent-density", dim=dim, kernel="const:1"))
        # approx's default absolute tolerance of 1e-12 would let 0.0 pass
        assert rep.value("operator_distance") == pytest.approx(9.958e-302, rel=1e-3, abs=0.0)
        assert rep.value("operator_distance") == pytest.approx(
            1e-300 * one.value("operator_distance"), rel=1e-12, abs=0.0)
        assert rep.passed

    def test_quasinilpotence_increasing_list_rejected(self, capsys):
        # beta_n reads the sup at k = 0 only for decreasing weights; an
        # increasing list would pass vacuously with no flag at all
        spec = "list:" + ",".join(str(k + 1) for k in range(80))
        assert main(["quasinilpotence", "--weights", spec]) == 2
        assert "hypothesis violated: weights are not decreasing" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["v2norm", "unbounded-witness"])
    @pytest.mark.parametrize("dim", ["2", "3"])
    def test_ladder_dim_below_four_rejected(self, name, dim, capsys):
        # both ladders start at dim // 4 cells, which would be an empty grid
        assert main([name, "--dim", dim]) == 2
        assert f"dim at least 4, got {dim}" in capsys.readouterr().err


# A small config per experiment that passes every option it reads, with the
# params its JSON report echoed for it (recorded before the experiments
# became claim functions; --seed 5 is added to each).
SMALL = {
    "v2norm": (["--dim", "64"], {"dim": 64}),
    "littlereade": (["--dim", "512", "--nmax", "3"], {"dim": 512, "nmax": 3}),
    "notell1": (["--dim", "32", "--nmax", "4"], {"dim": 32, "nmax": 4}),
    "inequivalence": (["--nmax", "2"], {"nmax": 2}),
    "equivalence": (["--dim", "8", "--nmax", "2", "--weights", "geometric:0.5"],
                    {"dim": 8, "nmax": 2, "weights": "geometric:0.5"}),
    "fejer": (["--dim", "8", "--nmax", "16", "--weights", "ones"],
              {"dim": 8, "nmax": 16, "weights": "ones"}),
    "neumann": (["--dim", "8", "--nmax", "2", "--weights", "list:1,1,1,1,1,1,1"],
                {"dim": 8, "nmax": 2, "weights": "list:1,1,1,1,1,1,1"}),
    "titchmarsh": (["--dim", "60"], {"dim": 60}),
    "muntz": (["--dim", "100", "--nmax", "3"], {"dim": 100, "nmax": 3}),
    "nilpotent-density": (["--dim", "20", "--nmax", "5"], {"dim": 20, "nmax": 5}),
    "unbounded-witness": (["--dim", "16"], {"dim": 16}),
    "gauge-scan": (["--dim", "6", "--nodes", "12", "--weights", "geometric:0.5"],
                   {"dim": 6, "nodes": 12, "weights": "geometric:0.5"}),
    "quasinilpotence": (["--nmax", "3", "--weights", "ones"], {"nmax": 3, "weights": "ones"}),
}

# Options echoed only when given: fejer's quadrature nodes (2 dim by default)
# and nilpotent-density's kernel (const:1 by default).
ECHOED_WHEN_GIVEN = [
    ("fejer", ["--dim", "8", "--nodes", "80"],
     {"dim": 8, "nodes": 80, "nmax": 64, "weights": "harmonic"}),
    ("nilpotent-density", ["--dim", "20", "--nmax", "5", "--kernel", "poly:1,2"],
     {"dim": 20, "nmax": 5, "kernel": "poly:1,2"}),
]

# One option each experiment does not read, with a value that is valid for it.
UNREAD = {
    "v2norm": ("--nodes", "8"),
    "littlereade": ("--weights", "ones"),
    "notell1": ("--kernel", "const:1"),
    "inequivalence": ("--dim", "8"),
    "equivalence": ("--nodes", "64"),
    "fejer": ("--kernel", "const:1"),
    "neumann": ("--nodes", "64"),
    "titchmarsh": ("--nmax", "2"),
    "muntz": ("--weights", "ones"),
    "nilpotent-density": ("--weights", "ones"),
    "unbounded-witness": ("--nmax", "2"),
    "gauge-scan": ("--nmax", "2"),
    "quasinilpotence": ("--dim", "5"),
}


class TestOptionTable:
    def test_tables_cover_every_experiment(self):
        assert set(SMALL) == set(UNREAD) == set(EXPERIMENTS)
        assert len(EXPERIMENTS) == 13

    @pytest.mark.parametrize("name, args, params",
                             [(name, *SMALL[name]) for name in EXPERIMENTS]
                             + ECHOED_WHEN_GIVEN)
    def test_params_echo_the_options_read(self, name, args, params, tmp_path):
        out = tmp_path / "report.json"
        assert main([name, *args, "--seed", "5", "--format", "json", "--out", str(out)]) in (0, 1)
        echoed = json.loads(out.read_bytes())["params"]
        assert echoed == {"experiment": name, "seed": 5, **params}
        assert list(echoed) == ["experiment", "seed", *params]

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_unread_option_rejected(self, name, capsys):
        flag, value = UNREAD[name]
        assert main([name, flag, value]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and flag in err

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_seed_out_and_format_accepted(self, name, tmp_path):
        out = tmp_path / "report.csv"
        args = SMALL[name][0]
        assert main([name, *args, "--seed", "9", "--format", "csv", "--out", str(out)]) in (0, 1)
        assert out.read_bytes().startswith(b"label,value\nseed,9\n")


class TestSerialization:
    def test_empty_rows_header_only(self):
        rep = ExperimentReport("empty")
        assert rep.to_csv_bytes() == b"label,value\n"

    def test_two_line_csv(self):
        rep = ExperimentReport("one")
        rep.add("eta0", 1.8751040687119611)
        data = rep.to_csv_bytes()
        assert data == b"label,value\neta0,1.8751040687119611\n"

    def test_csv_round_trip_bitwise(self):
        rep = ExperimentReport("rt")
        values = [1.0 / 3.0, 2.0 ** -52, 6.02e23, -0.1, 5.0]
        for i, v in enumerate(values):
            rep.add(f"row{i}", v)
        header, *lines = rep.to_csv_bytes().decode("utf-8").splitlines()
        assert header == "label,value"
        assert [float(line.rpartition(",")[2]) for line in lines] == values

    def test_json_round_trip_bitwise(self):
        rep = ExperimentReport("rt", params={"seed": 7})
        rep.add("x", 0.1 + 0.2)
        rep.check("ok", True)
        payload = json.loads(emit_report(rep, "json"))
        assert payload["rows"][0][1] == 0.1 + 0.2
        assert payload["params"]["seed"] == 7
        assert payload["flags"] == {"ok": True}
        assert payload["wall_time"] is None


class TestExperiments:
    def test_v2norm_small(self):
        rep = run_experiment(ExperimentConfig("v2norm", dim=200))
        assert rep.passed
        assert rep.value("eta0") == pytest.approx(1.8751, abs=5e-5)
        assert rep.value("norm_exact") == pytest.approx(0.2844, abs=1e-4)

    def test_inequivalence_row(self):
        rep = run_experiment(ExperimentConfig("inequivalence", nmax=3))
        assert rep.passed
        import math
        assert rep.value("spread_image_norm") == pytest.approx(
            math.sqrt(19.0) / math.sqrt(3.0), abs=1e-12)

    def test_equivalence_small(self):
        rep = run_experiment(ExperimentConfig("equivalence", dim=16, nmax=10, seed=3))
        assert rep.passed

    def test_fejer_small(self):
        rep = run_experiment(ExperimentConfig("fejer", dim=16, nmax=32, seed=1))
        assert rep.passed

    def test_neumann_small(self):
        rep = run_experiment(ExperimentConfig("neumann", dim=24, nmax=5, seed=2))
        assert rep.passed

    def test_neumann_nan_discrepancy_reported(self, monkeypatch, tmp_path):
        # a max() fold would hide it: max(0.0, nan) is 0.0
        def nan_check(coeffs, k, t):
            rep = ExperimentReport("neumann-factor")
            rep.add("relative_discrepancy", math.nan)
            rep.check("neumann_sum_equals_power", False)
            return rep

        monkeypatch.setattr(shift, "neumann_factor_check", nan_check)
        out = tmp_path / "neumann.csv"
        assert main(["neumann", "--out", str(out)]) == 1
        assert b"\nworst_relative_discrepancy,nan\n" in out.read_bytes()

    def test_titchmarsh_small(self):
        rep = run_experiment(ExperimentConfig("titchmarsh", dim=120))
        assert rep.passed

    def test_muntz_small(self):
        rep = run_experiment(ExperimentConfig("muntz", dim=300, nmax=8))
        assert rep.passed

    def test_nilpotent_density_small(self):
        rep = run_experiment(ExperimentConfig("nilpotent-density", dim=100, nmax=10))
        assert rep.passed

    def test_gauge_scan_small(self):
        rep = run_experiment(ExperimentConfig("gauge-scan", dim=8, nodes=32))
        assert rep.passed

    def test_quasinilpotence_each_family(self):
        for spec in ("harmonic", "geometric:0.5", "ones"):
            rep = run_experiment(ExperimentConfig("quasinilpotence", weights=spec,
                                                  nmax=5))
            assert rep.passed

    def test_notell1_small(self):
        rep = run_experiment(ExperimentConfig("notell1", nmax=6))
        assert rep.passed
        flags = dict(rep.flags)
        # the quarter-pi-squared proximity claim only applies from 19 blocks on
        assert "sharp_near_quarter_pi_squared" not in flags
        assert flags["l1_mass_exact"] and flags["sharp_mass_exact"]
        assert flags["sigma_within_half_pi"]

    def test_unbounded_witness_growth_flag_documented_red(self):
        # sigma grows like sqrt(2N): strictly increasing, but a 4x grid span
        # can only double it, so the >4 growth flag cannot be satisfied
        rep = run_experiment(ExperimentConfig("unbounded-witness", dim=128))
        flags = dict(rep.flags)
        assert flags["strictly_increasing"]
        assert not flags["growth_ratio_exceeds_4"]
        assert rep.value("final_over_initial") == pytest.approx(2.0, abs=0.05)


class TestCliProcess:
    def test_exit_zero_and_csv_on_stdout(self):
        proc = run_cli("quasinilpotence", "--nmax", "4")
        assert proc.returncode == 0
        assert proc.stdout.startswith(b"label,value\n")
        assert b"assertions passed" in proc.stderr

    def test_determinism_byte_exact(self):
        args = ("equivalence", "--dim", "12", "--nmax", "5", "--seed", "11",
                "--format", "json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_titchmarsh_bytes_do_not_depend_on_blas_threads(self):
        # its certified rungs make gemv and dot products, which OpenBLAS may
        # split across threads
        args = [sys.executable, "-m", "opalg.cli", "titchmarsh", "--format", "json", "--seed", "7"]
        out = [subprocess.run(args, capture_output=True,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
               for threads in ("1", "2")]
        assert out[0].returncode == 0
        assert out[0].stdout == out[1].stdout

    def test_determinism_csv(self):
        args = ("v2norm", "--dim", "64")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.csv"
        proc = run_cli("inequivalence", "--nmax", "2", "--out", str(out))
        assert proc.returncode == 0
        assert out.read_bytes().startswith(b"label,value\n")
        assert proc.stdout == b""

    def test_unwritable_out(self):
        proc = run_cli("inequivalence", "--nmax", "2", "--out", "/no/such/dir/x.csv")
        assert proc.returncode == 2

    def test_assertion_failure_exit_one(self):
        proc = run_cli("unbounded-witness", "--dim", "64")
        assert proc.returncode == 1

    def test_fejer_past_the_underflow_of_its_powers(self):
        # ||T^58|| = 1/58! ~ 4e-79: power iteration on the powers themselves
        # never settled there and exited 3; the band maxima hold at any scale
        proc = run_cli("fejer", "--dim", "64", "--seed", "3", "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["flags"] == {"errors_within_coefficient_bound": True}

    def test_seed_echoed_verbatim(self):
        proc = run_cli("equivalence", "--dim", "12", "--nmax", "3", "--seed", "123456",
                       "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["params"]["seed"] == 123456

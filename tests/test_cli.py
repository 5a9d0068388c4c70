"""CLI dispatch, serialization, and determinism tests."""

import json
import math
import subprocess
import sys

import pytest

from opalg import shift
from opalg.cli import ExperimentConfig, emit_report, main, run_experiment
from opalg.report import ExperimentReport, parse_csv


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "opalg.cli", *args],
                          capture_output=True)


class TestValidation:
    def test_unknown_experiment_rejected_before_compute(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment(ExperimentConfig("does-not-exist"))

    def test_unknown_experiment_exit_code(self):
        proc = run_cli("does-not-exist")
        assert proc.returncode == 2
        assert b"validation error" in proc.stderr

    def test_bad_dim(self):
        proc = run_cli("v2norm", "--dim", "1")
        assert proc.returncode == 2

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
        parsed = parse_csv(rep.to_csv_bytes())
        assert [v for _, v in parsed] == values

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

    def test_seed_echoed_verbatim(self):
        proc = run_cli("equivalence", "--dim", "12", "--nmax", "3", "--seed", "123456",
                       "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["params"]["seed"] == 123456

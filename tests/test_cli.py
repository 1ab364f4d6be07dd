import json
import math

import pytest

from kronset import SetSpecError, TargetMap, approx_error
from kronset.cli import main, parse_set_spec
from kronset.groups import DualPoint


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestParseSetSpec:
    def test_integers(self):
        group, chars = parse_set_spec("Z : [1],[2]")
        assert group.free_rank == 1 and group.torsion_orders == ()
        assert [c.free_coords[0] for c in chars] == [1, 2]

    def test_cube(self):
        group, chars = parse_set_spec("Z2^3 : [0,1,0],[0,0,1],[1,1,0],[1,0,1]")
        assert group.free_rank == 0 and group.torsion_orders == (2, 2, 2)
        assert len(chars) == 4

    def test_mixed_with_reduction(self):
        group, chars = parse_set_spec("Z x Z2 : [1,3]")
        assert group.free_rank == 1 and group.torsion_orders == (2,)
        assert chars[0].free_coords == (1,) and chars[0].torsion_coords == (1,)

    def test_free_power(self):
        group, chars = parse_set_spec("Z^2 : [1,0],[0,1]")
        assert group.free_rank == 2

    def test_torsion_first_order(self):
        group, chars = parse_set_spec("Z3 x Z : [2,5]")
        assert group.free_rank == 1 and group.torsion_orders == (3,)
        assert chars[0].free_coords == (5,) and chars[0].torsion_coords == (2,)

    def test_missing_colon(self):
        with pytest.raises(SetSpecError):
            parse_set_spec("Z [1]")

    def test_bad_factor_position(self):
        with pytest.raises(SetSpecError) as err:
            parse_set_spec("Z x Q : [1,2]")
        assert err.value.position == 4

    def test_duplicate_rejected(self):
        with pytest.raises(SetSpecError, match="duplicate"):
            parse_set_spec("Z2 : [1],[3]")

    def test_dimension_mismatch(self):
        with pytest.raises(SetSpecError, match="coordinates"):
            parse_set_spec("Z : [1,2]")

    def test_bad_element_syntax_position(self):
        with pytest.raises(SetSpecError) as err:
            parse_set_spec("Z : [1] [2]")
        assert err.value.position is not None


class TestSubcommands:
    def test_alpha_pair(self, capsys):
        code, rep = run_cli(capsys, "alpha", "--set", "Z : [1],[2]", "--no-timestamp")
        assert code == 0
        assert rep["certification"] == "certified"
        br = rep["result"]["alpha"]
        assert br["lower"] <= math.pi / 3 <= br["upper"]
        assert rep["result"]["kappa"]["upper"] < 1.1

    def test_alpha_n_budget_partial(self, capsys):
        code, rep = run_cli(capsys, "alpha-n", "--set",
                            "Z : [1],[2],[3],[4],[5],[6],[7],[8]",
                            "--n", "16", "--budget", "1000", "--no-timestamp")
        assert code == 1
        assert rep["certification"] == "partial"
        assert rep["result"]["work"]["budget_exhausted"]

    def test_kappa_scale(self, capsys):
        code, rep = run_cli(capsys, "kappa", "--set", "Z : [0]", "--no-timestamp")
        assert code == 0
        assert rep["result"]["kappa"]["lower"] == 2.0

    def test_invalid_input_exit_2(self, capsys):
        for argv in (["alpha", "--set", "Z : bogus"],
                     ["alpha", "--set", "Z : [1],[2]", "--threads", "0"],
                     ["alpha-n", "--set", "Z : [1],[2]", "--n", "3", "--threads", "-3"]):
            assert main(argv + ["--no-timestamp"]) == 2, argv

    def test_resource_exit_3(self, capsys):
        code = main(["net", "--set", "Z : [1]", "--grid-cells", "100",
                     "--universe-budget", "10", "--no-timestamp"])
        assert code == 3

    def test_net_cube(self, capsys):
        code, rep = run_cli(capsys, "net", "--set",
                            "Z2^3 : [1,0,0],[0,1,0],[0,0,1]",
                            "--epsilon", "1", "--no-timestamp")
        assert code == 0
        assert rep["result"]["cardinality"] == 8
        assert rep["result"]["rate"] == 1.0

    def test_net_default_epsilon_volume_bound(self, capsys):
        code, rep = run_cli(capsys, "net", "--set",
                            "Z2^2 : [1,0],[0,1]", "--no-timestamp")
        assert code == 0
        vb = rep["result"]["volume_bound"]
        assert vb["satisfied"]
        assert rep["result"]["cardinality"] >= vb["bound"]

    def test_quasi(self, capsys):
        code, rep = run_cli(capsys, "quasi", "--set", "Z : [1],[2],[3]",
                            "--no-timestamp")
        assert code == 0
        assert rep["result"]["quasi_independent"] is False
        assert rep["result"]["witness"] == [1, 1, -1]

    def test_b2(self, capsys):
        code, rep = run_cli(capsys, "b2", "--set", "Z : [1],[2],[3]",
                            "--no-timestamp")
        assert code == 0
        assert rep["result"]["coincidences"] == 1

    def test_classify(self, capsys):
        code, rep = run_cli(capsys, "classify", "--set", "Z : [1],[2]",
                            "--n-list", "2,3", "--no-timestamp")
        assert code == 0
        flags = rep["result"]["flags"]
        assert flags["i0_sufficient"] and flags["sidon_by_kappa"]

    def test_gallery_z2cube(self, capsys):
        code, rep = run_cli(capsys, "gallery", "--example", "z2cube",
                            "--no-timestamp")
        assert code == 0
        assert rep["result"]["passed"]

    def test_gallery_sweep_csv(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, rep = run_cli(capsys, "gallery", "--example", "hadamard",
                            "--sweep-q", "3:4:1", "--length", "4",
                            "--budget", "500000", "--csv", str(out),
                            "--no-timestamp")
        assert code in (0, 1)
        text = out.read_text().splitlines()
        assert text[0].startswith("q,length,start,alpha_lower")
        assert len(text) == 3

    @pytest.mark.parametrize("argv,reason,code", [
        (["alpha", "--set", "Z : [1],[2]"], "done", 0),
        (["alpha-n", "--set", "Z : [0]", "--n", "2"], "capped", 0),
        (["alpha", "--set", "Z : [1],[2],[3]", "--budget", "5000"], "budget", 1),
        (["alpha", "--set", "Z : [1],[2]", "--max-order", "8"], "max_order", 1),
    ])
    def test_stop_reason(self, capsys, argv, reason, code):
        got, rep = run_cli(capsys, *argv, "--no-timestamp")
        assert got == code
        work = rep["result"]["work"]
        assert work["stop_reason"] == reason
        assert work["budget_exhausted"] == (reason == "budget")

    def test_pretty_mode(self, capsys):
        code = main(["alpha", "--set", "Z : [1]", "--pretty", "--no-timestamp"])
        out = capsys.readouterr().out
        assert code == 0
        assert "certification: certified" in out


class TestReportContract:
    def test_determinism_without_timestamp(self, capsys):
        for argv in (["alpha-n", "--set", "Z : [1],[2]", "--n", "6", "--no-timestamp"],
                     ["alpha", "--set", "Z : [1],[3]", "--no-timestamp"]):
            main(argv)
            first = capsys.readouterr().out
            main(argv)
            second = capsys.readouterr().out
            assert first == second

    def test_timestamp_present_by_default(self, capsys):
        main(["alpha", "--set", "Z : [1]"])
        rep = json.loads(capsys.readouterr().out)
        assert "timestamp" in rep

    def test_schema_version(self, capsys):
        _, rep = run_cli(capsys, "b2", "--set", "Z : [1],[2]", "--no-timestamp")
        assert rep["schema_version"] == 1

    def test_witness_revalidates(self, capsys):
        code, rep = run_cli(capsys, "alpha-n", "--set", "Z : [1],[3]",
                            "--n", "4", "--no-timestamp")
        assert code == 0
        group, chars = parse_set_spec("Z : [1],[3]")
        target = rep["result"]["worst_target"]
        phi = TargetMap.from_angles(chars, target["angles"])
        wp = rep["result"]["witness_point"]
        point = DualPoint(group, tuple(wp["torus_angles"]),
                          tuple(wp["torsion_selections"]))
        err = approx_error(chars, phi, point)
        assert abs(err - rep["result"]["witness_error"]) <= 1e-9
        assert rep["result"]["alpha"]["lower"] - 1e-9 <= err

    def test_exact_turns_serialized(self, capsys):
        _, rep = run_cli(capsys, "alpha-n", "--set",
                         "Z2^3 : [0,1,0],[0,0,1],[1,1,0],[1,0,1]",
                         "--n", "2", "--no-timestamp")
        assert rep["result"]["alpha"]["exact_turns"] == "1/2"
        assert rep["result"]["worst_target"]["turns"] is not None

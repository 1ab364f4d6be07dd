import json
import math
import time

import pytest

from kronset import SetSpecError, TargetMap, __version__, approx_error
from kronset import cli
from kronset.cli import main, parse_set_spec
from kronset.diagnostics import b2_coincidences
from kronset.engine import DEFAULT_TOL, LADDER_MAX_ORDER
from kronset.groups import DualPoint
from test_engine import Z4_SET


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
                     ["alpha-n", "--set", "Z : [1],[2]", "--n", "3", "--threads", "-3"],
                     ["quasi", "--set", "Z : [1],[2]", "--threads", "0"],
                     ["gallery", "--example", "z2cube", "--threads", "0"],
                     ["alpha", "--set", "Z : [1],[2]", "--max-order", "0"],
                     ["alpha", "--set", "Z : [1],[2]", "--max-order", "1"],
                     ["alpha", "--set", "Z : [1],[2]", "--tol", "nan"],
                     ["alpha-n", "--set", "Z^2 : [1,0],[0,1]", "--n", "3", "--tol", "-1"],
                     ["alpha-n", "--set", "Z : [1],[2]", "--n", "3", "--tol", "nan"]):
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

    def test_b2_quadruples_list_coordinates(self, capsys):
        spec = "Z x Z3 : [1,0],[2,1],[3,2],[4,0],[5,1],[6,2]"
        code, rep = run_cli(capsys, "b2", "--set", spec, "--no-timestamp")
        count, quads = b2_coincidences(parse_set_spec(spec)[1], budget=10**8)
        assert code == 0 and rep["result"]["coincidences"] == count > 0
        assert rep["result"]["quadruples"] == [
            [list(g.free_coords + g.torsion_coords) for g in quad] for quad in quads]

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

    @pytest.mark.parametrize("sweep, message", [
        ("0.5:1:0.5", "no ratio q > 1"),
        ("2:inf:1", "must be finite"),
        ("nan:3:1", "must be finite"),
        ("2:3:inf", "must be finite"),
        ("2:3:1e-300", "too small to advance"),
        ("3:4:0", "must be positive"),
    ])
    @pytest.mark.parametrize("csv", [False, True])
    def test_gallery_sweep_without_ratios_exit_2(self, capsys, tmp_path, sweep, message, csv):
        out = tmp_path / "sweep.csv"
        argv = ["gallery", "--example", "hadamard", "--sweep-q", sweep, "--no-timestamp"]
        assert main(argv + (["--csv", str(out)] if csv else [])) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and message in printed.err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["alpha", "--set", "Z : [1],[2]", "--budget", "-1"],
        ["alpha-n", "--set", "Z : [1],[2]", "--n", "3", "--budget", "-1"],
        ["quasi", "--set", "Z : [1],[2],[3]", "--budget", "-1"],
        ["b2", "--set", "Z : [1],[2],[3]", "--budget", "-1"],
        ["net", "--set", "Z : [1]", "--grid-cells", "10", "--epsilon", "1",
         "--universe-budget", "-1"],
    ], ids=["alpha", "alpha-n", "quasi", "b2", "net"])
    def test_negative_budget_exit_2(self, capsys, argv):
        assert main(argv + ["--no-timestamp"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "must be >= 0" in out.err

    def test_budget_stops_a_wide_set_before_its_plan(self, capsys):
        # 12 characters in Z^4: the budget cannot pay for the 21252 signed
        # subsets behind the plan, so the scan stops before it is built
        start = time.perf_counter()
        code, rep = run_cli(capsys, "alpha-n", "--set", Z4_SET, "--n", "3",
                            "--budget", "10000", "--no-timestamp")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and rep["result"]["work"]["stop_reason"] == "budget"

    @pytest.mark.parametrize("argv,reason,code", [
        (["alpha", "--set", "Z : [1],[2]"], "done", 0),
        (["alpha-n", "--set", "Z : [0]", "--n", "2"], "capped", 0),
        (["alpha", "--set", "Z : [1],[2],[3]", "--budget", "2000"], "budget", 1),
        (["alpha", "--set", "Z : [1],[2]", "--max-order", "4"], "max_order", 1),
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


class TestOutputFormat:
    def test_default_is_one_line_of_json(self, capsys):
        for argv in (["alpha-n", "--set", "Z : [1],[2]", "--n", "4"],
                     ["b2", "--set", "Z : [1],[2],[3]"]):
            main(argv + ["--no-timestamp"])
            out = capsys.readouterr().out
            assert out.endswith("\n") and out.count("\n") == 1, argv
            assert json.loads(out)["command"] == argv[0]

    def test_pretty_rendering_unchanged(self, capsys):
        main(["b2", "--set", "Z : [1],[2],[3]", "--pretty", "--no-timestamp"])
        assert capsys.readouterr().out == "\n".join([
            "schema_version: 1", "tool:", "  name: kronset", f"  version: {__version__}",
            "command: b2", "input:", "  set: Z : [1],[2],[3]", "  group:",
            "    free_rank: 1", "    torsion_orders: []", "    describe: Z", "  elements:",
            "    free: [1]", "    torsion: []", "    -",
            "    free: [2]", "    torsion: []", "    -",
            "    free: [3]", "    torsion: []", "    -",
            "result:", "  coincidences: 1", "  quadruples: [[[1], [3], [2], [2]]]",
            "certification: certified", "exit_code: 0", ""])


class TestReportContract:
    def test_determinism_without_timestamp(self, capsys):
        for argv in (["alpha-n", "--set", "Z : [1],[2]", "--n", "6", "--no-timestamp"],
                     ["alpha", "--set", "Z : [1],[3]", "--no-timestamp"]):
            main(argv)
            first = capsys.readouterr().out
            main(argv)
            second = capsys.readouterr().out
            assert first == second

    def test_threads_flag_changes_no_output(self, capsys):
        # --threads is accepted and ignored: the report is the serial run's
        for argv in (["alpha", "--set", "Z : [1],[3]", "--tol", "1e-2"],
                     ["alpha-n", "--set", "Z2^3 : [1,0,0],[0,1,1],[1,1,0]", "--n", "4"],
                     ["classify", "--set", "Z : [1],[2],[5]", "--tol", "1e-2"]):
            outputs = []
            for extra in ([], ["--threads", "2"]):
                main(argv + extra + ["--no-timestamp"])
                outputs.append(capsys.readouterr().out)
            assert outputs[0] and outputs[1] == outputs[0], argv

    def test_consecutive_calls_do_not_share_values(self, capsys):
        # one parser serves every call in a process: no flag or default of
        # one call may reach the next
        calls = [["alpha", "--set", "Z : [1],[2]", "--tol", "0.05", "--max-order", "4",
                  "--no-timestamp"],
                 ["net", "--set", "Z2^3 : [1,0,0],[0,1,0]", "--epsilon", "1",
                  "--max-order", "5", "--pretty"],
                 ["alpha", "--set", "Z : [1],[2]"],
                 ["alpha-n", "--set", "Z : [1],[3]", "--n", "4", "--budget", "7",
                  "--no-timestamp"],
                 ["alpha-n", "--set", "Z : [1],[3]", "--n", "4", "--no-timestamp"]]
        for argv in calls:
            assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
        reports = []
        for argv in calls:
            main(argv)
            reports.append(capsys.readouterr().out)
        assert cli._parser.cache_info().currsize == 1
        first, second = json.loads(reports[0]), json.loads(reports[2])
        assert (first["input"]["tol"], first["input"]["max_order"]) == (0.05, 4)
        assert "timestamp" not in first and "timestamp" in second
        assert (second["input"]["tol"], second["input"]["max_order"]) == (
            DEFAULT_TOL, LADDER_MAX_ORDER)
        assert reports[1].startswith("schema_version: 1\n") and "timestamp: " in reports[1]
        assert all(r.startswith("{") for r in reports[2:])
        budgets = [json.loads(r)["input"]["budget"] for r in reports[3:]]
        assert budgets[0] == 7 and budgets[1] > 7

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

import csv
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from shareable_bandits import harness
from shareable_bandits.cli import main
from shareable_bandits.harness import aggregate, emit_outputs, run_experiment
from shareable_bandits.scenarios import (
    Scenario,
    ScenarioError,
    default_checkpoints,
    load_scenario,
    preset_scenarios,
)


def tiny_scenario(**kw):
    base = dict(
        name="tiny",
        num_arms=4,
        num_players=2,
        capacities=[1, 1, 1, 1],
        means=[0.9, 0.6, 0.3, 0.1],
        horizon=400,
        feedback="sdi",
        algorithms=["dpe-sdi", "sic-sda"],
        seeds=[0, 1],
        checkpoints=[100, 400],
    )
    base.update(kw)
    return Scenario(**base)


class TestPresets:
    def test_synthetic_means_match_published_array(self):
        sc = preset_scenarios()["synthetic-0.025"]
        assert sc.means == pytest.approx(
            [0.90, 0.875, 0.85, 0.825, 0.80, 0.775, 0.75, 0.725, 0.70]
        )
        assert sc.capacities == [3, 2, 4, 2, 1, 5, 2, 1, 3]
        assert (sc.num_arms, sc.num_players) == (9, 6)

    def test_edge_preset_values(self):
        sc = preset_scenarios()["edge-computing"]
        assert sc.means[3] == pytest.approx(2.5 / 3, abs=1e-9)
        assert sc.capacities[3] == 2
        assert sc.feedback == "sdi"
        assert "dpe-sdi" in sc.algorithms

    def test_cellular_preset_values(self):
        sc = preset_scenarios()["cellular-5g4g"]
        assert sc.means[0] == pytest.approx(1 / 1.2)
        assert sc.capacities[0] == 9
        assert sc.capacities[1] == 8
        assert (sc.num_arms, sc.num_players) == (20, 18)
        assert sc.feedback == "sda"

    def test_permutation_reproducible_and_seed_dependent(self):
        sc = preset_scenarios()["synthetic-0.025"]
        assert sc.means_for_seed(3) == sc.means_for_seed(3)
        assert sorted(sc.means_for_seed(3)) == sorted(sc.means)
        assert any(
            sc.means_for_seed(3) != sc.means_for_seed(s) for s in range(4, 10)
        )

    def test_env_spec_feedback_per_algorithm(self):
        sc = preset_scenarios()["synthetic-0.025"]
        assert sc.env_spec("dpe-sdi", 0).feedback.value == "sdi"
        assert sc.env_spec("sic-sda", 0).feedback.value == "sda"
        assert sc.env_spec("sic-sdi", 0).feedback.value == "sdi"

    def test_matched_seed_means_equal_across_algorithms(self):
        sc = preset_scenarios()["synthetic-0.025"]
        assert sc.env_spec("sic-sda", 5).means == sc.env_spec("sic-sdi", 5).means


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "changes, match",
        [
            (dict(num_players=3, capacities=[0, 0, 1, 1], means=[0.5] * 4), "total capacity"),
            (dict(horizon=0, checkpoints=[]), "horizon"),
            (dict(horizon=-5, checkpoints=[]), "horizon"),
            (dict(delta=2.0), "delta"),
            (dict(delta=0.0), "delta"),
            (dict(seeds=[0, -1]), "seeds"),
            (dict(seeds=[0.5]), "seeds"),
            (dict(capacities=[1.7, 1, 1, 1]), "capacities"),
            (dict(capacities=[True, 1, 1, 1]), "capacities"),
            (dict(horizon=300.5, checkpoints=[]), "horizon"),
            (dict(num_arms=4.0), "num_arms"),
            (dict(num_players=2.5), "num_players"),
            (dict(num_players=True, capacities=[1] * 4), "num_players"),
            (dict(checkpoints=[100.5, 400]), "checkpoints"),
            (dict(seeds=[]), "seeds"),
            (dict(seeds=[1, 1]), "seeds"),
            (dict(seeds=[True]), "seeds"),
            (dict(seeds=[np.int64(0), np.int64(-1)]), "seeds"),
            (dict(seeds=[np.bool_(True)]), "seeds"),
            (dict(algorithms=[]), "algorithms"),
            (dict(algorithms=["dpe-sdi", "dpe-sdi"]), "algorithms"),
            (dict(means=["0.9", 0.6, 0.3, 0.1]), "means"),
            (dict(means=[0.9, 0.6, 0.3, True]), "means"),
            (dict(permute_means="false"), "permute_means"),
            (dict(permute_means=0), "permute_means"),
            (dict(algorithms="dpe-sdi"), "algorithms must be a list"),
            (dict(algorithms="sic"), "algorithms must be a list"),
            (dict(seeds="0"), "seeds must be a list"),
            (dict(checkpoints="400"), "checkpoints must be a list"),
            (dict(checkpoints=""), "checkpoints must be a list"),
            (dict(seeds=5), "seeds must be a list"),
            (dict(checkpoints=400), "checkpoints must be a list"),
            (dict(capacities=3), "capacities must be a list"),
            (dict(means=0.5), "means must be a list"),
            (dict(algorithms={"dpe-sdi": 1}), "algorithms must be a list"),
        ],
        ids=["infeasible-capacity", "zero-horizon", "negative-horizon", "delta-two",
             "delta-zero", "negative-seed", "fractional-seed", "fractional-capacity",
             "bool-capacity", "fractional-horizon", "float-arms", "fractional-players",
             "bool-players", "fractional-checkpoint", "no-seeds", "repeated-seed",
             "bool-seed", "negative-numpy-seed", "numpy-bool-seed", "no-algorithms",
             "repeated-algorithm", "string-mean", "bool-mean", "string-permute-means",
             "int-permute-means", "string-algorithms", "string-algorithms-sic",
             "string-seeds", "string-checkpoints", "empty-string-checkpoints",
             "number-seeds", "number-checkpoints", "number-capacities", "number-means",
             "object-algorithms"],
    )
    def test_invalid_input_rejected(self, changes, match):
        with pytest.raises(ScenarioError, match=match):
            tiny_scenario(**changes)

    def test_numpy_integers_accepted(self, tmp_path):
        sc = tiny_scenario(
            num_arms=np.int64(4),
            capacities=list(np.ones(4, dtype=np.int64)),
            horizon=np.int64(400),
            checkpoints=[np.int64(100), 400],
            seeds=[np.int64(0), np.int64(1)],
        )
        assert repr(sc.seeds) == "[0, 1]"  # as summary.txt prints them
        path = tmp_path / "scenario.json"
        path.write_text(sc.to_json())
        assert Scenario.from_file(path) == sc

    def test_real_means_accepted(self, tmp_path):
        sc = tiny_scenario(means=[np.float32(0.75), Fraction(1, 2), 0.25, np.int64(0)])
        path = tmp_path / "scenario.json"
        path.write_text(sc.to_json())
        assert Scenario.from_file(path) == sc

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ScenarioError, match="unknown algorithms"):
            tiny_scenario(algorithms=["nonsense"])

    def test_bad_checkpoints_rejected(self):
        with pytest.raises(ScenarioError, match="checkpoints"):
            tiny_scenario(checkpoints=[400, 100])

    def test_default_checkpoints(self):
        cps = default_checkpoints(10_000)
        assert cps[-1] == 10_000
        assert cps == sorted(set(cps))

    def test_file_round_trip(self, tmp_path):
        sc = tiny_scenario()
        path = tmp_path / "scenario.json"
        path.write_text(sc.to_json())
        again = Scenario.from_file(path)
        assert again == sc

    def test_load_unknown_name(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            load_scenario("nope-does-not-exist")


class TestRunExperiment:
    def test_results_shape_and_determinism(self):
        sc = tiny_scenario(algorithms=["dpe-sdi"], seeds=[0, 1])
        _, results = run_experiment(sc)
        assert [r.seed for r in results] == [0, 1]
        _, again = run_experiment(sc)
        assert again == results

    def test_aggregate_matches_recomputation(self):
        sc = tiny_scenario()
        agg, results = run_experiment(sc)
        for alg in sc.algorithms:
            for i, cp in enumerate(sc.checkpoints):
                vals = [r.checkpoint_regret[i] for r in results if r.algorithm == alg]
                mean = sum(vals) / len(vals)
                var = sum((v - mean) ** 2 for v in vals) / len(vals)
                assert agg.cells[alg, cp] == (
                    pytest.approx(mean), pytest.approx(math.sqrt(var)), len(vals)
                )

    def test_parallel_equals_serial(self):
        sc = tiny_scenario()
        agg1, res1 = run_experiment(sc, jobs=1)
        agg2, res2 = run_experiment(sc, jobs=2)
        assert sorted((r.algorithm, r.seed, r.final_regret) for r in res1) == sorted(
            (r.algorithm, r.seed, r.final_regret) for r in res2
        )

    def test_pool_holds_no_more_workers_than_runs(self, monkeypatch):
        sizes = []

        class Pool:
            """Records its size and runs the tasks in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        _, results = run_experiment(tiny_scenario(), jobs=16)
        assert sizes == [len(results)] == [4]
        _, results = run_experiment(tiny_scenario(algorithms=["dpe-sdi"], seeds=[0]), jobs=16)
        assert sizes == [4] and len(results) == 1  # one run stays in this process


class TestEmitOutputs:
    def test_csv_layout_and_roundtrip(self, tmp_path):
        sc = tiny_scenario()
        agg, results = run_experiment(sc)
        paths = emit_outputs(agg, results, sc, tmp_path / "out")
        with paths["raw"].open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algorithm", "seed", "checkpoint", "cum_regret"]
        assert len(rows) == 1 + len(results) * len(sc.checkpoints)

        # re-ingesting the resolved scenario reproduces identical raw bytes
        again = Scenario.from_file(paths["scenario"])
        agg2, results2 = run_experiment(again)
        paths2 = emit_outputs(agg2, results2, again, tmp_path / "out2")
        assert paths["raw"].read_bytes() == paths2["raw"].read_bytes()

    def test_empty_results_header_only(self, tmp_path):
        sc = tiny_scenario(algorithms=["dpe-sdi"])
        paths = emit_outputs(aggregate([]), [], sc, tmp_path / "out")
        assert paths["raw"].read_text() == "algorithm,seed,checkpoint,cum_regret\n"

    def test_summary_contains_stats(self, tmp_path):
        sc = tiny_scenario()
        agg, results = run_experiment(sc)
        paths = emit_outputs(agg, results, sc, tmp_path / "out")
        text = paths["summary"].read_text()
        assert "scenario: tiny" in text
        assert "mean_regret" in text


class TestCli:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "synthetic-0.025" in out
        assert "cellular-5g4g" in out

    def test_validate_good_file(self, tmp_path, capsys):
        path = tmp_path / "sc.json"
        path.write_text(tiny_scenario().to_json())
        assert main(["validate", "--scenario", str(path)]) == 0

    @pytest.mark.parametrize(
        "changes, command",
        [
            ({"capacities": [1, 1, 1]}, ["validate"]),
            ({"horizon": 0, "checkpoints": []}, ["validate"]),
            ({"delta": 2.0}, ["validate"]),
            ({"seeds": [-1]}, ["validate"]),
            ({"capacities": [1.7, 1, 1, 1]}, ["validate"]),
            ({"horizon": 300.5, "checkpoints": []}, ["validate"]),
            ({"checkpoints": [100.5, 400]}, ["validate"]),
            ({"seeds": [1, 1]}, ["validate"]),
            ({}, ["run", "--horizon", "0"]),
            ({}, ["run", "--delta", "2"]),
            ({"capacities": [1.7, 1, 1, 1]}, ["run"]),
            ({"horizon": 300.5, "checkpoints": []}, ["run"]),
            ({"checkpoints": [100.5, 400]}, ["run"]),
            ({}, ["run", "--seeds", "0"]),
            ({}, ["run", "--seeds", "1,1"]),
            ({}, ["run", "--algo", "dpe-sdi,dpe-sdi"]),
            ({"means": ["0.9", 0.6, 0.3, 0.1]}, ["validate"]),
            ({"means": [0.9, 0.6, 0.3, True]}, ["validate"]),
            ({"means": ["0.9", 0.6, 0.3, 0.1]}, ["run"]),
            ({"means": [0.9, 0.6, 0.3, True]}, ["run"]),
            ({"permute_means": "false"}, ["validate"]),
            ({"permute_means": "false"}, ["run"]),
            ({"algorithms": "dpe-sdi"}, ["validate"]),
            ({"algorithms": "sic"}, ["validate"]),
            ({"seeds": "0"}, ["validate"]),
            ({"checkpoints": "400"}, ["validate"]),
            ({"seeds": 5}, ["validate"]),
            ({"checkpoints": 400}, ["validate"]),
            ({"capacities": 3}, ["validate"]),
            ({"means": 0.5}, ["validate"]),
            ({"algorithms": {"dpe-sdi": 1}}, ["validate"]),
            ({"algorithms": {"dpe-sdi": 1}}, ["run"]),
        ],
        ids=["short-capacities", "zero-horizon", "delta-two", "negative-seed",
             "fractional-capacity", "fractional-horizon", "fractional-checkpoint",
             "repeated-seed", "run-zero-horizon", "run-delta-two",
             "run-fractional-capacity", "run-fractional-horizon",
             "run-fractional-checkpoint", "run-no-seeds", "run-repeated-seed",
             "run-repeated-algorithm", "string-mean", "bool-mean", "run-string-mean",
             "run-bool-mean", "string-permute-means", "run-string-permute-means",
             "string-algorithms", "string-algorithms-sic", "string-seeds",
             "string-checkpoints", "number-seeds", "number-checkpoints",
             "number-capacities", "number-means", "object-algorithms",
             "run-object-algorithms"],
    )
    def test_validate_bad_file(self, tmp_path, capsys, changes, command):
        data = json.loads(tiny_scenario().to_json())
        data.update(changes)
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(data))
        argv = [*command, "--scenario", str(path)]
        if command[0] == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("invalid scenario: ")

    @pytest.mark.parametrize("option", ["--seeds", "--checkpoints"])
    def test_non_integer_option_is_usage_error(self, tmp_path, capsys, option):
        path = tmp_path / "sc.json"
        path.write_text(tiny_scenario().to_json())
        argv = ["run", "--scenario", str(path), "--out", str(tmp_path / "out"), option, "x"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {option}: expected " in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", ",", " , "])
    def test_empty_checkpoints_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "sc.json"
        path.write_text(tiny_scenario().to_json())
        argv = ["run", "--scenario", str(path), "--out", str(tmp_path / "out"),
                "--checkpoints", text]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --checkpoints: expected " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        path = tmp_path / "sc.json"
        path.write_text(tiny_scenario().to_json())
        argv = ["run", "--scenario", str(path), "--out", str(tmp_path / "out"),
                "--jobs", jobs]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --jobs: expected at least 1" in capsys.readouterr().err

    def test_run_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "sc.json"
        path.write_text(tiny_scenario().to_json())
        code = main([
            "run", "--scenario", str(path), "--algo", "dpe-sdi",
            "--seeds", "2", "--horizon", "300", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        raw = (tmp_path / "out" / "raw.csv").read_text().strip().splitlines()
        assert raw[0] == "algorithm,seed,checkpoint,cum_regret"
        assert all(line.startswith("dpe-sdi,") for line in raw[1:])

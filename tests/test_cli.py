import json
import math
import multiprocessing
import os
import pathlib
import pickle
import subprocess
import sys
import time

import pytest

from currentgpd import suites
from currentgpd.algebroids import LieAlgebroid
from currentgpd.cli import (execute, main, load_config, named_gridmap,
                            suite_context, write_report)
from currentgpd.errors import (BranchAmbiguity, ConfigError,
                               FrameProjectionError, GeometryError,
                               OutsideNeighborhood, UnknownId)
from currentgpd.gridmaps import GridSpec
from currentgpd.report import CheckRecord
from currentgpd.suites import SUITES, SuiteContext, derived_seed, run_suite


GOLDEN = pathlib.Path(__file__).parent / "golden" / "seed-7.json"


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs))
    return str(path)


class TestConfigValidation:
    def test_seed_is_mandatory(self, tmp_path):
        cfg = write_config(tmp_path, suites=["flip-identities"])
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = write_config(tmp_path, seed=1, tolerance=1e-9)
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_unknown_suite_rejected(self, tmp_path):
        cfg = write_config(tmp_path, seed=1, suites=["no-such-suite"])
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = [({"tolerances": {"tol_chart": -1e-9}}, "tol_chart"),
               ({"grid": 5}, "grid"),
               ({"samples": "x"}, "samples"),
               ({"seed": True}, "seed"),
               ({"grid": {"n": "64"}}, "grid n"),
               ({"tolerances": {"tol_chart": True}}, "tol_chart"),
               ({"suites": "atlas-negative"}, "suites"),
               ({"instances": "z4-plane"}, "instances"),
               ({"samples": {"flip-identities": 3}}, "flip-identities"),
               ({"tolerances": {"tol_chart": math.inf}}, "tol_chart"),
               ({"out": 3.5}, "out"),
               ({"out": ["a"]}, "out"),
               ({"out": True}, "out"),
               ({"out": ""}, "out")]
        for change, named in bad:
            cfg = write_config(tmp_path, **{"seed": 1,
                                            "suites": ["flip-identities"],
                                            **change})
            assert main(["run", "--config", cfg]) == 2, change
            assert named in capsys.readouterr().err, change
        cfg = write_config(tmp_path, seed=1, suites=["flip-identities"])
        assert main(["run", "--config", cfg, "--out", ""]) == 2
        assert "out" in capsys.readouterr().err

    def test_unreadable_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2

    def test_defaults_fill_in(self, tmp_path):
        cfg = write_config(tmp_path, seed=7)
        conf = load_config(cfg)
        assert conf["grid"] == {"kind": "circle", "n": 64, "ell": 1}
        assert set(conf["suites"]) == set(SUITES)


class TestRun:
    def test_cli_flags_override_config(self, tmp_path):
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path, seed=1, suites=["flip-identities"])
        code = main(["run", "--config", cfg, "--seed", "9",
                     "--out", str(out), "--suite", "atlas-negative"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["seed"] == 9
        assert all(r["check_name"].startswith("atlas-negative")
                   for r in report["records"])

    def test_reported_sample_counts_follow_overrides(self, tmp_path):
        counts = {"groupoid-axioms": 3, "current-groupoid-axioms": 2,
                  "tangent-diagram": 2, "pushforward-classifiers": 4,
                  "local-inverse": 5, "path-lifting": 6,
                  "proper-etale-lifting": 7,
                  "theorem-D-pointwise-bracket": 1}
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path, seed=3, instances=["z2-line"],
                           suites=sorted(counts), samples=counts)
        main(["run", "--config", cfg, "--out", str(out)])
        reported = {r["check_name"]: r["n_samples"]
                    for r in json.loads(out.read_text())["records"]}
        assert reported["groupoid-axioms/z2-line"] == 3
        assert reported["current-groupoid-axioms/z2-line/n8"] == 2
        assert reported["tangent-diagram"] == 3 * 2
        assert reported["pushforward-classifiers/exp-cover"] == 4
        assert reported["local-inverse"] == 5 + 32
        assert reported["path-lifting"] == 2 * 6
        assert reported["proper-etale-lifting"] == 2 * 7
        assert reported["theorem-D-pointwise-bracket/rot-action"] == 1

    def test_local_inverse_passes_on_interval_grid(self, tmp_path):
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path, seed=1, grid={"kind": "interval"},
                           suites=["local-inverse"])
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        record = json.loads(out.read_text())["records"][0]
        assert record["status"] == "pass"
        assert record["details"]["rejections"] == 32

    def test_tangent_diagram_passes_on_small_circle_grids(self, tmp_path):
        # circle-square doubles the steps of a path, which on fewer than 16
        # nodes can pass the circle's coherence bound
        for n in (8, 12):
            out = tmp_path / f"r{n}.json"
            cfg = write_config(tmp_path, seed=7, grid={"kind": "circle", "n": n},
                               suites=["tangent-diagram"])
            assert main(["run", "--config", cfg, "--out", str(out)]) == 0
            record = json.loads(out.read_text())["records"][0]
            assert record["status"] == "pass"

    def test_configured_tolerances_reach_their_checks(self, tmp_path,
                                                      monkeypatch):
        seen = {}

        def spy(name, *keys):
            fn = getattr(suites, name)

            def wrapped(*args, **kwargs):
                for key in keys:
                    seen.setdefault((name, key), []).append(kwargs.get(key))
                return fn(*args, **kwargs)

            monkeypatch.setattr(suites, name, wrapped)

        for name in ("local_action_form", "path_lift", "pair_iso",
                     "action_iso"):
            spy(name, "tol")
        spy("algebroid_of_groupoid", "tol_rank", "tol_bracket")
        spy("normalize", "tol_rank")
        for name in ("current_bracket_two_ways", "sign_convention_check"):
            spy(name, "tol_bracket")
        bracket, bracket_tols = LieAlgebroid.bracket, set()

        def spied_bracket(self, *args):
            bracket_tols.add(self.tol_bracket)
            return bracket(self, *args)

        monkeypatch.setattr(LieAlgebroid, "bracket", spied_bracket)
        cfg = write_config(
            tmp_path, seed=7, tolerances={"tol_chart": 3e-9, "tol_rank": 2e-8,
                                          "tol_bracket": 4e-6},
            suites=["local-action-form", "path-lifting", "local-addition",
                    "theorem-D-pointwise-bracket", "algebroid-laws",
                    "pair-action-iso"],
            samples={"path-lifting": 2, "theorem-D-pointwise-bracket": 2})
        # in this process: execute's workers would fill their own copies
        config = load_config(cfg)
        ctx = suite_context(config)
        for sid in config["suites"]:
            run_suite(sid, ctx)
        assert seen == {("local_action_form", "tol"): [3e-9] * 2,
                        ("path_lift", "tol"): [3e-9] * 4,
                        ("pair_iso", "tol"): [3e-9],
                        ("action_iso", "tol"): [3e-9],
                        ("algebroid_of_groupoid", "tol_rank"): [2e-8] * 4,
                        ("algebroid_of_groupoid", "tol_bracket"): [4e-6] * 4,
                        ("normalize", "tol_rank"): [2e-8] * 2,
                        ("current_bracket_two_ways", "tol_bracket"):
                            [4e-6] * 2,
                        ("sign_convention_check", "tol_bracket"): [4e-6]}
        # every algebroid that brackets, route one's power algebroid too
        assert bracket_tols == {4e-6}

    def test_current_axioms_run_on_the_configured_grid_kind(self):
        """Theorem A is checked on K with boundary when the grid is an
        interval: its draws are open paths, so the residuals move."""
        details = {}
        for kind in ("circle", "interval"):
            ctx = SuiteContext(seed=7, grid=GridSpec(kind, 64, 1),
                               instances=["so3-action"],
                               samples={"current-groupoid-axioms": 20})
            records = run_suite("current-groupoid-axioms", ctx)
            assert all(r.status == "pass" for r in records)
            details[kind] = [r.details for r in records]
        assert len(details["circle"]) == 3
        assert all(c != i for c, i in zip(details["circle"],
                                          details["interval"]))

    @pytest.mark.parametrize("count, want", [(None, (1000, 1000, 250)),
                                             (2, (2, 2, 2)),
                                             (3000, (3000, 1000, 250))])
    def test_current_axioms_hold_the_points_per_record(self, count, want):
        """A Theorem A record on n nodes runs min(count, AXIOM_POINTS // n)
        samples: a configured count is a cap that the budget lowers further,
        and n_samples says what ran."""
        ctx = SuiteContext(seed=7, instances=["z2-line"],
                           samples={} if count is None
                           else {"current-groupoid-axioms": count})
        got = {r.check_name.rpartition("/")[2]: r.n_samples
               for r in run_suite("current-groupoid-axioms", ctx)}
        assert got == dict(zip(("n8", "n64", "n256"), want))

    def test_each_record_timed_where_it_is_made(self):
        ctx = SuiteContext(seed=1, samples={"groupoid-axioms": 20})
        t0 = time.perf_counter()
        records = run_suite("groupoid-axioms", ctx)
        elapsed = (time.perf_counter() - t0) * 1e3
        times = [r.wall_time_ms for r in records]
        assert min(times) >= 0.0 and sum(times) <= elapsed
        assert len(set(times)) > 1

    def test_unwritable_report_path_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "r.json"
        cfg = write_config(tmp_path, seed=1, suites=["atlas-negative"])
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(out) in err

    def test_unknown_suite_flag_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, seed=1)
        assert main(["run", "--config", cfg, "--suite", "nope"]) == 2

    def test_failure_exit_code(self, tmp_path):
        # an absurdly tight chart tolerance cannot hold on trig round-off
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path, seed=1, suites=["groupoid-axioms"],
                           tolerances={"tol_chart": 1e-30})
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1

    def test_non_finite_residuals_are_written_as_strict_json(self, tmp_path):
        # keys of mixed types sort as strings; a tuple is written as a list
        record = CheckRecord("x/nan", "anchor", "fail", math.nan, 1, 0,
                             details={"worst": [math.inf, -math.inf, 0.5],
                                      "pair": (math.nan, 1.0), 10: 1, 2: 2})
        out = tmp_path / "r.json"
        write_report({"status": "fail", "records": [record.to_dict()]}, out)

        def refuse(name):
            raise ValueError(f"not strict JSON: {name}")

        got = json.loads(out.read_text(), parse_constant=refuse)
        written, = got["records"]
        assert written["max_residual"] == "nan"
        assert written["details"] == {"10": 1, "2": 2, "pair": ["nan", 1.0],
                                      "worst": ["inf", "-inf", 0.5]}
        assert list(written["details"]) == ["10", "2", "pair", "worst"]


class TestDeterminism:
    def test_derived_seeds_are_stable(self):
        assert derived_seed(1, "suite", 0) == derived_seed(1, "suite", 0)
        assert derived_seed(1, "suite", 0) != derived_seed(2, "suite", 0)
        assert derived_seed(1, "a") != derived_seed(1, "b")


# the arguments of the errors that take other than a message
ERROR_ARGS = {
    FrameProjectionError: [(1e-3,)],
    OutsideNeighborhood: [(3,), (3, "no local preimage at node 3")],
    BranchAmbiguity: [(3,)],
}


class TestWorkers:
    @pytest.mark.parametrize("cls", [GeometryError,
                                     *GeometryError.__subclasses__()],
                             ids=lambda cls: cls.__name__)
    def test_errors_survive_pickling(self, cls):
        """A suite's error crosses from its worker to the parent whole."""
        assert ("__init__" in vars(cls)) == (cls in ERROR_ARGS)
        for args in ERROR_ARGS.get(cls, [("what went wrong",)]):
            err = cls(*args)
            back = pickle.loads(pickle.dumps(err))
            assert type(back) is cls
            assert str(back) == str(err) and back.args == err.args
            assert vars(back) == vars(err)

    def test_a_failing_suite_fails_the_run_and_leaves_no_worker(
            self, tmp_path, monkeypatch):
        cfg = load_config(write_config(
            tmp_path, seed=7, suites=["atlas-negative", "embedding"]))
        assert execute(cfg)["status"] == "pass"
        assert not multiprocessing.active_children()

        def fail(ctx):
            raise FrameProjectionError(1e-3)

        anchor, _ = SUITES["embedding"]
        monkeypatch.setitem(SUITES, "embedding", (anchor, fail))
        with pytest.raises(FrameProjectionError) as err:
            execute(cfg)
        assert err.value.residual == 1e-3
        assert not multiprocessing.active_children()

    def test_instance_suites_run_one_task_per_instance(self, tmp_path):
        """The two suites that loop over the instances run as one task per
        instance and write the golden records of exactly those instances."""
        sids = ["current-groupoid-axioms", "groupoid-axioms"]
        names = ["pair-real1", "unit-circle"]
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path, seed=7, suites=sids, instances=names,
                           out=str(out))
        assert main(["run", "--config", cfg]) == 0
        assert not multiprocessing.active_children()
        got = json.loads(out.read_text())["records"]
        golden = json.loads(GOLDEN.read_text())["records"]
        want = [r for r in golden if r["check_name"].split("/")[:2] in
                [[sid, name] for sid in sids for name in names]]
        assert len(want) == 8
        assert [{**r, "wall_time_ms": 0} for r in got] == want

    def test_no_suites_make_an_empty_pass(self, tmp_path):
        report = execute(load_config(write_config(tmp_path, seed=7,
                                                  suites=[])))
        assert report["status"] == "pass" and report["records"] == []


class TestListSuites:
    def test_contains_required_ids(self, capsys):
        assert main(["list-suites"]) == 0
        out = capsys.readouterr().out
        assert "theorem-D-pointwise-bracket" in out
        assert "groupoid-axioms" in out
        for sid, (anchor, _) in SUITES.items():
            assert sid in out and anchor in out

    def test_module_entry_point(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "currentgpd",
                               "list-suites"], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.splitlines()) == len(SUITES)


class TestDumpGridmap:
    def test_identity_loop_dump(self, tmp_path):
        out = tmp_path / "loop.csv"
        assert main(["dump-gridmap", "identity-loop", "--out", str(out),
                     "--n", "8"]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("index,ambient_0")

    def test_unknown_id_exits_2(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["dump-gridmap", "no-such-map", "--out", str(out)]) == 2

    def test_too_few_nodes_or_a_missing_directory_exits_2(self, tmp_path,
                                                          capsys):
        for out, n, named in ((tmp_path / "x.csv", "3", "at least 8"),
                              (tmp_path / "no" / "x.csv", "8", "x.csv")):
            assert main(["dump-gridmap", "identity-loop", "--n", n,
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and named in err
            assert not out.exists()

    def test_named_maps_registry(self):
        gm = named_gridmap("winding-2-loop", 64)
        from currentgpd.gridmaps import degree
        assert degree(gm) == 2
        with pytest.raises(UnknownId):
            named_gridmap("nope", 8)

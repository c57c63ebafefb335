import json
import random
import warnings
from pathlib import Path

import pytest

from fpplab import experiments, reporting
from fpplab.cli import build_parser, main
from fpplab.distributions import Distribution, Truncated

GOLDEN = Path(__file__).parent / "golden"


def _run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# help surface


def test_every_subcommand_has_help_listing_all_flags(capsys):
    expected_flags = {
        "simulate": ["--dist", "--dim", "--n", "--replicas", "--seed", "--m-policy",
                     "--margin", "--workers", "--format", "--svg", "--config", "--out"],
        "verify-ineq": ["--n", "--p", "--tables", "--seed", "--config", "--out"],
        "classify": ["--dist", "--config", "--out"],
        "gm-check": ["--m", "--config", "--out"],
        "truncate-check": ["--dist", "--k", "--c5", "--grid", "--config", "--out"],
        "report": ["--from", "--check", "--config", "--out"],
    }
    for cmd, flags in expected_flags.items():
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([cmd, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text, (cmd, flag)


def test_unknown_flags_are_errors():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["classify", "--dist", "halfnormal", "--frob", "1"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# subcommand behaviour


def test_verify_ineq_stdout(capsys):
    rc = _run(["verify-ineq", "--n", "4", "--p", "0.5", "--tables", "25", "--seed", "7"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["violations"] == 0
    assert doc["result"]["mp_min_slack"] >= 0.0
    assert doc["version"]


def test_verify_ineq_checks_exactly_the_requested_tables(capsys):
    rc = _run(["verify-ineq", "--n", "3", "--p", "0.5", "--tables", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["tables"] == 2 == sum(doc["result"]["families"].values())


@pytest.mark.parametrize("tables", ("0", "-1"))
def test_verify_ineq_without_tables_is_a_config_error(tables, capsys, monkeypatch):
    from fpplab import funcineq

    def no_table_work(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(funcineq, "_suite_population", no_table_work)
    rc = _run(["verify-ineq", "--n", "3", "--p", "0.5", "--tables", tables])
    assert rc == 2
    assert capsys.readouterr().out == ""


def test_classify_verdict(tmp_path):
    out = tmp_path / "verdict.json"
    rc = _run(["classify", "--dist", "gamma:a=1,b=1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"]["direct_pass"] is True
    rc = _run(["classify", "--dist", "halfnormal", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"]["direct_pass"] is True
    assert doc["verdict"]["sufficient_pass"] is False


def test_gm_check(tmp_path, capsys):
    rc = _run(["gm-check", "--m", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["gradient_ok"] is True
    # resource guard maps to the config exit code
    rc = _run(["gm-check", "--m", "6"])
    assert rc == 2


def test_truncate_check(capsys):
    rc = _run(["truncate-check", "--dist", "exp:rate=1", "--k", "100", "--c5", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["dominates"] is True
    assert doc["report"]["support_ok"] is True


def test_truncate_check_and_the_truncation_experiment_share_one_verdict(monkeypatch, capsys):
    real = Truncated.domination_check

    def unequal_below_the_cut(self, grid_points=10_000):
        return real(self, grid_points)._replace(equal_below_cut_max_error=1e-9)

    monkeypatch.setattr(Truncated, "domination_check", unequal_below_the_cut)
    assert _run(["truncate-check", "--dist", "exp:rate=1", "--k", "10", "--c5", "0.5"]) == 1
    assert json.loads(capsys.readouterr().out)["report"]["dominates"] is False
    cfg = experiments.ExperimentConfig(dist_spec="exp:rate=1", n_list=(4,), replicas=3,
                                       workers=1)
    assert not experiments.truncation_experiment(cfg, k=10, c5=0.5, replicas=1).grid_ok


def test_config_errors_exit_2(capsys):
    assert _run(["classify", "--dist", "wat:x=1"]) == 2
    assert _run(["simulate", "--dist", "exp:rate=1", "--replicas", "1", "--n", "4"]) == 2
    assert _run(["truncate-check", "--dist", "exp:rate=1", "--k", "1", "--c5", "1"]) == 2


@pytest.mark.parametrize(
    "bad",
    (
        ["--dist", "uniform:lo=0,hi=inf"],
        ["--dist", "gamma:a=inf,b=1"],
        ["--dist", "dirac:c=nan"],
        ["--dist", "bernoulli:a=-1,b=2,p=0.5"],
        ["--dist", "exp:rate=1", "--replicas", "2.5"],
    ),
)
def test_simulate_rejects_bad_input_before_sampling(bad, tmp_path, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the input was checked")

    monkeypatch.setattr(Distribution, "sample", no_sampling)
    argv = ["simulate", "--n", "4", "--replicas", "4", "--out", str(tmp_path)] + bad
    try:
        rc = _run(argv)
    except SystemExit as exc:  # argparse rejects a non-integer --replicas
        rc = exc.code
    assert rc == 2
    assert not any(tmp_path.iterdir())


def test_simulate_outputs_and_determinism(tmp_path):
    args = ["simulate", "--dist", "exp:rate=1", "--dim", "2", "--n", "5,8",
            "--replicas", "10", "--seed", "3", "--svg"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(args + ["--out", str(a)]) == 0
    assert _run(args + ["--out", str(b), "--workers", "2"]) == 0
    assert (a / "scaling.csv").read_bytes() == (b / "scaling.csv").read_bytes()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "scaling.svg").exists()
    header = (a / "scaling.csv").read_text().splitlines()[0]
    assert header == "n,mean,var,var_lo,var_hi,geo_len_mean,geo_len_sq_mean,ties"
    doc = json.loads((a / "report.json").read_text())
    assert doc["config"]["master_seed"] == 3


def test_report_roundtrip_and_check(tmp_path, capsys):
    src = tmp_path / "run"
    assert _run(["simulate", "--dist", "exp:rate=1", "--n", "5,8", "--replicas",
                 "8", "--seed", "9", "--format", "json", "--out", str(src)]) == 0
    report = src / "report.json"
    regen = tmp_path / "regen"
    assert _run(["report", "--from", str(report), "--check", "--out", str(regen)]) == 0
    assert (regen / "report.json").read_bytes() == report.read_bytes()
    # tampering must be detected
    doc = json.loads(report.read_text())
    doc["rows"][0]["mean"] = 0.0
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = _run(["report", "--from", str(report), "--check", "--out", str(tmp_path / "t")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "rows[0].mean" in err and "file 0.0" in err
    assert "fpplab " in err and "numpy " in err and "scipy " in err


@pytest.mark.parametrize("workers", ("1", "2"))
def test_simulate_outputs_hold_no_wall_time(workers, tmp_path, monkeypatch):
    args = ["simulate", "--dist", "exp:rate=1", "--n", "5,8,12", "--replicas", "10",
            "--seed", "3", "--workers", workers, "--svg"]
    plain, jumpy = tmp_path / "plain", tmp_path / "jumpy"
    assert _run(args + ["--out", str(plain)]) == 0
    rng = random.Random(int(workers))
    clock = [0.0]

    def jumpy_clock():
        clock[0] += rng.choice((1e-9, 1.0, 3600.0)) * rng.random()
        return clock[0]

    monkeypatch.setattr(experiments._time, "perf_counter", jumpy_clock)
    assert _run(args + ["--out", str(jumpy)]) == 0
    assert clock[0] > 0.0  # the run did read the patched clock
    for name in ("report.json", "scaling.csv", "scaling.svg"):
        assert (plain / name).read_bytes() == (jumpy / name).read_bytes()


def test_simulate_timing_in_output_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(["simulate", "--dist", "exp:rate=1", "--n", "5", "--replicas", "4",
              "--timing-in-output", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_report_check_names_a_format_1_report(tmp_path, capsys):
    golden = GOLDEN / "exp" / "report.json"
    assert _run(["report", "--from", str(golden), "--check", "--out", str(tmp_path / "a")]) == 0
    old = json.loads(golden.read_text())
    assert old.pop("format") == 2
    for row in old["rows"]:  # format 1 rows carried an always-zero wall time
        row["seconds"] = 0.0
    source = tmp_path / "format1.json"
    source.write_text(reporting.dumps(old), encoding="utf-8")
    capsys.readouterr()
    assert _run(["report", "--from", str(source), "--check", "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert "format 1 report; regenerate it" in err and "first difference" not in err


def test_report_with_control_character_in_spec_stays_valid_json(tmp_path):
    # float() strips the form feed, so the spec parses; the config echo must
    # still be valid JSON that report --from can read back
    src = tmp_path / "run"
    assert _run(["simulate", "--dist", "exp:rate=1\x0c", "--n", "5,8", "--replicas",
                 "6", "--seed", "2", "--format", "json", "--out", str(src)]) == 0
    report = src / "report.json"
    assert json.loads(report.read_text())["config"]["dist_spec"] == "exp:rate=1\x0c"
    assert _run(["report", "--from", str(report), "--check", "--out",
                 str(tmp_path / "regen")]) == 0


@pytest.mark.parametrize(
    "data",
    (
        b'{"config": {"dist_spec": "exp:rate=1",',  # malformed JSON
        b'{"config": {"dim": 2, "n_list": [5], "replicas": 4}}',  # no dist_spec
        b'\xff\xfe{"config": {}}',  # not UTF-8
    ),
)
def test_report_from_bad_input_exits_2(data, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert _run(["report", "--from", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fpplab: ") and str(bad) in err
    assert "Traceback" not in err


def test_report_from_a_directory_exits_2(tmp_path, capsys):
    assert _run(["report", "--from", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("fpplab: report not found")


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("dist=gamma:a=1,b=1\n# comment\n")
    rc = _run(["classify", "--config", str(cfgfile)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["dist"] == "gamma:a=1,b=1"
    # explicit flag wins over the file
    rc = _run(["classify", "--config", str(cfgfile), "--dist", "halfnormal"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["dist"] == "halfnormal"


def test_workers_env_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("FPPLAB_WORKERS", "1")
    from fpplab.experiments import resolve_workers

    assert resolve_workers(8) == 1
    monkeypatch.delenv("FPPLAB_WORKERS")
    assert resolve_workers(3) == 3


def _forbid_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the input was checked")

    monkeypatch.setattr(Distribution, "sample", no_sampling)


@pytest.mark.parametrize(
    "argv",
    (
        ["simulate", "--dist", "exp:rate=1", "--n", "4.5"],
        ["simulate", "--dist", "exp:rate=1", "--n", "4", "--seed", "-1"],
        ["simulate", "--dist", "exp:rate=1", "--n", "4", "--margin", "nan"],
        ["simulate", "--dist", "exp:rate=1", "--n", "4", "--format", "txt"],
        ["simulate", "--dist", "exp:rate=1", "--n", "5,10,20", "--replicas", "4",
         "--format", ""],
        ["simulate", "--dist", "exp:rate=1", "--n", "5,10,20", "--replicas", "4",
         "--format", ","],
        ["verify-ineq", "--n", "3", "--p", "abc"],
        ["truncate-check", "--dist", "exp:rate=1", "--k", "10", "--c5", "1", "--grid", "0"],
        ["classify", "--config", "{tmp}"],  # a directory
        ["classify", "--config", "{tmp}/latin1.cfg"],  # not UTF-8
    ),
)
def test_bad_flags_exit_2_before_any_work(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "latin1.cfg").write_bytes(b"dist=exp:rate=1 \xe9\n")
    _forbid_sampling(monkeypatch)
    out = tmp_path / "out"
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv] + ["--out", str(out)]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("fpplab: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key,value",
    (
        ("replicas", 8.9),
        ("dim", 2.5),
        ("dim", 2.0),
        ("n_list", [4.5]),
        ("master_seed", 1.5),
        ("margin_factor", float("nan")),
        ("dist_spec", 5),
    ),
)
def test_report_from_rejects_config_values_it_used_to_coerce(key, value, tmp_path,
                                                              monkeypatch, capsys):
    config = {"dist_spec": "exp:rate=1", "dim": 2, "n_list": [4], "replicas": 8,
              "master_seed": 1, "m_policy": "none", "margin_factor": 0.5}
    config[key] = value
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps({"config": config}))
    _forbid_sampling(monkeypatch)
    assert _run(["report", "--from", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fpplab: ") and str(bad) in err


@pytest.mark.parametrize("cap", ("abc", "0", "-2"))
def test_simulate_bad_worker_env_exits_2_before_sampling(cap, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FPPLAB_WORKERS", cap)
    _forbid_sampling(monkeypatch)
    out = tmp_path / "out"
    argv = ["simulate", "--dist", "exp:rate=1", "--n", "4", "--replicas", "4", "--out", str(out)]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("fpplab: ") and "FPPLAB_WORKERS" in err
    assert not out.exists()


@pytest.mark.parametrize("workers", ("-3", "0"))
def test_simulate_non_positive_workers_exit_2_before_sampling(workers, tmp_path, monkeypatch,
                                                              capsys):
    _forbid_sampling(monkeypatch)
    out = tmp_path / "out"
    argv = ["simulate", "--dist", "exp:rate=1", "--n", "4", "--replicas", "4",
            "--workers", workers, "--out", str(out)]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("fpplab: ") and "workers" in err
    assert not out.exists()


def test_simulate_m_policy_beyond_a_margin_exits_2_before_sampling(tmp_path, monkeypatch,
                                                                    capsys):
    # n=40 fits m=5, but n=4 has margin ceil(0.5 * 4) = 2
    _forbid_sampling(monkeypatch)
    out = tmp_path / "out"
    argv = ["simulate", "--dist", "exp:rate=1", "--n", "40,4", "--m-policy", "5",
            "--replicas", "50", "--workers", "1", "--out", str(out)]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("fpplab: ") and "margin 2 cannot absorb offsets up to m=5" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    (
        ["truncate-check", "--dist", "exp:rate=1", "--k", "10", "--c5", "inf"],
        ["truncate-check", "--dist", "exp:rate=1", "--k", "10", "--c5", "1e308"],
        ["classify", "--dist", "trunc(exp:rate=1;k=10,c5=1e308)"],
    ),
)
def test_overflowing_truncation_scale_exits_2_naming_c5(argv, tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from an infinite grid
        assert _run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fpplab: ") and "c5" in err and "non-finite" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    (
        (["--n", "5,10,20", "--replicas", "2"], "at least 3 replicas"),
        (["--n", "1,2,3", "--replicas", "4"], "n > 1"),
        # a later --dist replaces exp:rate=1; a one-point law has no variance to fit
        (["--dist", "dirac:c=1", "--n", "5,10,20", "--replicas", "4"], "has one point"),
        (["--dist", "bernoulli:a=1,b=1,p=0.5", "--n", "5,10,20", "--replicas", "4"],
         "has one point"),
    ),
)
def test_simulate_refuses_a_report_it_cannot_finish_before_sampling(argv, message, tmp_path,
                                                                    monkeypatch, capsys):
    _forbid_sampling(monkeypatch)
    out = tmp_path / "out"
    argv = ["simulate", "--dist", "exp:rate=1", "--workers", "1", "--out", str(out)] + argv
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("fpplab: ") and message in err
    assert not out.exists()

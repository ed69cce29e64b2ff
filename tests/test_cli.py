import contextlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import leadsel
from leadsel import LeaderSet, SimConfig, cycle, parse_edge_list, simulate
from leadsel.cli import _holds_non_finite, build_parser, main
from leadsel.verify import DEFAULT_K_VALUES

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def path9(tmp_path, capsys):
    target = tmp_path / "path9.edges"
    assert main(["generate", "path", "--n", "9", "--out", str(target)]) == 0
    capsys.readouterr()
    return str(target)


@pytest.fixture
def cycle6(tmp_path, capsys):
    target = tmp_path / "cycle6.edges"
    assert main(["generate", "cycle", "--n", "6", "--out", str(target)]) == 0
    capsys.readouterr()
    return str(target)


def test_generate_round_trips(tmp_path, capsys):
    target = tmp_path / "er.edges"
    code, _, _ = run(capsys, "generate", "erdos-renyi", "--n", "8", "--p", "0.5",
                     "--seed", "7", "--out", str(target))
    assert code == 0
    first = target.read_text()
    run(capsys, "generate", "erdos-renyi", "--n", "8", "--p", "0.5", "--seed", "7",
        "--out", str(target))
    assert target.read_text() == first
    g = parse_edge_list(first)
    assert g.n == 8


def test_centrality_json_max_at_middle(path9, capsys):
    report = run_json(capsys, "centrality", path9)
    assert report["schema_version"] == "1"
    assert report["graph"] == {"n": 9, "edge_count": 8}
    nodes = report["payload"]["nodes"]
    best = max(nodes, key=lambda r: r["info_centrality"])
    assert best["node"] == 4  # middle of the path
    assert "timing_seconds" in report


def _csv_rows(command, payload):
    """The rows a CSV report must carry, taken from the JSON payload."""
    if command == "select":
        return [{"optimal_set": " ".join(str(v) for v in s), "rho": payload["rho"],
                 "total_error": payload["total_error"]} for s in payload["optimal_sets"]]
    if command == "verify":
        return [{"checks": payload["checks"], "max_rel_dev_noise_free": payload["max_rel_dev_noise_free"],
                 "max_rel_dev_gain": payload["max_rel_dev_gain"], "violations": len(payload["violations"])}]
    return payload["pairs" if command == "pairs" else "nodes"]


@pytest.mark.parametrize("argv, header, count", [
    pytest.param(["centrality"], "node,info_centrality,lplus_diag,certainty_inverse", 6,
                 id="centrality"),
    pytest.param(["select", "--m", "3"], "optimal_set,rho,total_error", 2, id="select"),
    pytest.param(["pairs"], "i,j,rho", 15, id="pairs"),
    pytest.param(["verify"], "checks,max_rel_dev_noise_free,max_rel_dev_gain,violations", 1,
                 id="verify"),
    pytest.param(["simulate", "--leaders", "0,3", "--steps", "2000"],
                 "node,empirical_variance,analytic_variance", 6, id="simulate"),
])
def test_csv_matches_json(cycle6, capsys, argv, header, count):
    report = run_json(capsys, argv[0], cycle6, *argv[1:], "--index-base", "1")
    code, out, _ = run(capsys, argv[0], cycle6, *argv[1:], "--index-base", "1", "--format", "csv")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == header and lines[-1] == ""
    want = _csv_rows(argv[0], report["payload"])
    assert len(want) == len(lines) - 2 == count
    for line, row in zip(lines[1:], want):
        fields = dict(zip(header.split(","), line.split(",")))
        assert fields.keys() == row.keys()
        # each field read back as the type of its JSON value: identical numbers
        assert {key: type(row[key])(field) for key, field in fields.items()} == row


@pytest.mark.parametrize("argv, options", [
    pytest.param(["centrality", "--sigma", "0.5", "--full"],
                 {"graph", "sigma", "full", "index_base"}, id="centrality"),
    pytest.param(["select", "--m", "2", "--mode", "gain", "--k", "2"],
                 {"graph", "m", "mode", "k", "method", "topology", "sigma", "budget", "index_base"},
                 id="select"),
    pytest.param(["pairs", "--bins", "4"],
                 {"graph", "bins", "pair_list", "budget", "index_base"}, id="pairs"),
    pytest.param(["verify", "--m-max", "2"],
                 {"graph", "suite", "count", "n_max", "seed", "tol", "m_max", "k_values", "index_base"},
                 id="verify"),
    pytest.param(["simulate", "--leaders", "0", "--steps", "500", "--burn-in", "50"],
                 {"graph", "leaders", "mode", "k", "sigma", "dt", "steps", "burn_in", "seed", "mu",
                  "index_base"}, id="simulate"),
])
def test_parameters_echo_parsed_options(cycle6, capsys, argv, options):
    argv = [argv[0], cycle6, *argv[1:]]
    report = run_json(capsys, *argv)
    parsed = vars(build_parser().parse_args(argv))
    if argv[0] == "verify":
        # the parser leaves --k-values unset, so that building it loads no verify module
        assert parsed["k_values"] is None
        parsed["k_values"] = DEFAULT_K_VALUES
    assert set(report["parameters"]) == options
    for key in options:
        assert report["parameters"][key] == json.loads(json.dumps(parsed[key]))
    if argv[0] == "verify":
        assert report["parameters"]["k_values"] == [0.1, 1.0, 10.0, 100.0]


def test_centrality_full_matrices(path9, capsys):
    report = run_json(capsys, "centrality", path9, "--full")
    assert len(report["payload"]["resistance"]) == 9
    assert len(report["payload"]["biharmonic"]) == 9


def test_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\n0 x\n")
    code, _, err = run(capsys, "centrality", str(bad))
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "centrality", "/nonexistent/file.edges")
    assert code == 2


def test_disconnected_graph_message_is_bounded(tmp_path, capsys):
    # 99,998 unreached nodes: the message lists ten of them and the count
    big = tmp_path / "big.edges"
    big.write_text("n=100000\n0 1\n")
    code, out, err = run(capsys, "centrality", str(big))
    assert code == 2 and not out
    assert len(err.encode()) < 1024
    assert "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11, ... (99998 in all)]" in err
    small = tmp_path / "small.edges"
    small.write_text("n=5\n0 1\n")
    code, _, err = run(capsys, "centrality", str(small))
    assert code == 2 and "nodes [2, 3, 4] unreachable from node 0" in err


def test_out_of_memory_exit_2_without_traceback(tmp_path, capsys):
    # L of path(20000) alone is 3.2 GB, twice the child's address-space limit
    graph = tmp_path / "path20000.edges"
    assert main(["generate", "path", "--n", "20000", "--out", str(graph)]) == 0
    src = str(Path(leadsel.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    limit = 1536 << 20
    proc = subprocess.run([sys.executable, "-m", "leadsel.cli", "centrality", str(graph)], env=env,
                          capture_output=True, text=True,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 2 and not proc.stdout, proc.stderr
    assert "Traceback" not in proc.stderr
    assert re.fullmatch(r"error: out of memory: .*\(20000, 20000\).*\n", proc.stderr)


def test_select_exhaustive_cycle6(cycle6, capsys):
    report = run_json(capsys, "select", cycle6, "--m", "3")
    payload = report["payload"]
    assert payload["optimal_sets"] == [[0, 2, 4], [1, 3, 5]]
    assert payload["method"] == "exhaustive"
    assert payload["evaluated_count"] == 20


def test_select_index_base_one(cycle6, capsys):
    report = run_json(capsys, "select", cycle6, "--m", "3", "--index-base", "1")
    assert report["payload"]["optimal_sets"] == [[1, 3, 5], [2, 4, 6]]


def test_select_closed_form_path(path9, capsys):
    report = run_json(capsys, "select", path9, "--m", "2", "--method", "closed-form",
                      "--topology", "path")
    assert report["payload"]["optimal_sets"] == [[1, 7]]
    # 1-indexed display matches the usual statement of the formula
    report = run_json(capsys, "select", path9, "--m", "2", "--method", "closed-form",
                      "--topology", "path", "--index-base", "1")
    assert report["payload"]["optimal_sets"] == [[2, 8]]


def test_select_greedy_worse_than_exhaustive_on_cycle12(tmp_path, capsys):
    target = tmp_path / "cycle12.edges"
    run(capsys, "generate", "cycle", "--n", "12", "--out", str(target))
    greedy = run_json(capsys, "select", str(target), "--m", "3", "--method", "greedy")
    exact = run_json(capsys, "select", str(target), "--m", "3", "--method", "exhaustive")
    assert greedy["payload"]["total_error"] > exact["payload"]["total_error"]


def test_select_topology_mismatch_exit_2(path9, capsys):
    code, _, err = run(capsys, "select", path9, "--m", "2", "--method", "closed-form",
                       "--topology", "cycle")
    assert code == 2
    assert "cycle" in err


def test_select_budget_exit_3(cycle6, capsys):
    code, _, err = run(capsys, "select", cycle6, "--m", "3", "--budget", "2")
    assert code == 3
    assert "greedy" in err


def test_select_gain_requires_k(cycle6, capsys):
    code, _, err = run(capsys, "select", cycle6, "--m", "2", "--mode", "gain")
    assert code == 2


def test_pairs_complete4_single_bin(tmp_path, capsys):
    target = tmp_path / "complete4.edges"
    run(capsys, "generate", "complete", "--n", "4", "--out", str(target))
    report = run_json(capsys, "pairs", str(target))
    payload = report["payload"]
    assert len(payload["pairs"]) == 6
    rhos = {r["rho"] for r in payload["pairs"]}
    assert len(rhos) == 1
    assert sum(1 for c in payload["histogram"]["counts"] if c > 0) == 1


def test_pairs_restricted_list(tmp_path, capsys):
    graph_file = tmp_path / "cycle4.edges"
    run(capsys, "generate", "cycle", "--n", "4", "--out", str(graph_file))
    pair_file = tmp_path / "pairs.txt"
    pair_file.write_text("# just one\n0 2\n")
    report = run_json(capsys, "pairs", str(graph_file), "--pair-list", str(pair_file))
    rows = report["payload"]["pairs"]
    assert len(rows) == 1
    assert abs(rows[0]["rho"] - 4.0) < 1e-9


def test_pairs_csv_row_count(cycle6, capsys):
    code, out, _ = run(capsys, "pairs", cycle6, "--format", "csv")
    assert code == 0
    lines = [l for l in out.split("\r\n") if l]
    assert len(lines) == 1 + 15  # header + C(6,2)


_TIMING = re.compile(r'"timing_seconds": [^\n]*')


@pytest.mark.parametrize("fmt,base,pair_list,golden", [
    ("json", "1", None, "pairs_base1.json"),
    ("csv", "1", None, "pairs_base1.csv"),
    ("json", "0", "pairs_list.txt", "pairs_base0_list.json"),
    ("csv", "1", "pairs_list.txt", "pairs_base1_list.csv"),
])
def test_pairs_report_bytes_are_pinned(fmt, base, pair_list, golden, capsys, monkeypatch):
    # the reports of the tuple-per-pair sweep, captured byte for byte;
    # only the wall-clock timing may differ
    monkeypatch.chdir(DATA)
    argv = ["pairs", "pairs_graph.edges", "--format", fmt, "--index-base", base, "--bins", "4"]
    if pair_list:
        argv += ["--pair-list", pair_list]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    expect = (DATA / golden).read_bytes().decode("utf-8")
    assert _TIMING.sub("", out) == _TIMING.sub("", expect)


def test_verify_graph_ok(cycle6, capsys):
    report = run_json(capsys, "verify", cycle6)
    assert report["payload"]["violations"] == []
    assert report["payload"]["max_rel_dev_noise_free"] < 1e-8
    assert report["payload"]["max_rel_dev_gain"] < 1e-8


def test_verify_small_suite(capsys):
    report = run_json(capsys, "verify", "--suite", "small")
    assert report["payload"]["violations"] == []
    assert report["payload"]["checks"] > 500


def test_verify_random_suite_reproducible(capsys):
    a = run_json(capsys, "verify", "--suite", "random", "--count", "4", "--n-max", "7",
                 "--seed", "5")
    b = run_json(capsys, "verify", "--suite", "random", "--count", "4", "--n-max", "7",
                 "--seed", "5")
    assert a["payload"] == b["payload"]
    assert a["payload"]["violations"] == []


def test_verify_needs_target(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_verify_violation_exit_4(cycle6, capsys):
    # an unreachable tolerance forces the identity-violation path
    code, out, err = run(capsys, "verify", cycle6, "--tol", "1e-18")
    assert code == 4
    assert "identity violation" in err
    assert json.loads(out)["payload"]["violations"]


def test_simulate_smoke_and_determinism(tmp_path, capsys):
    target = tmp_path / "cycle4.edges"
    run(capsys, "generate", "cycle", "--n", "4", "--out", str(target))
    argv = ["simulate", str(target), "--leaders", "0,2", "--steps", "20000",
            "--dt", "0.02", "--seed", "12"]
    a = run_json(capsys, *argv)
    b = run_json(capsys, *argv)
    assert a["payload"] == b["payload"]  # byte-identical payload per seed
    assert abs(a["payload"]["analytic_total_error"] - 0.5) < 1e-12
    assert len(a["payload"]["nodes"]) == 4
    # M = 2I: two modes, each sigma^2 dt / (2 (2 - 2 dt)) above 1/4
    assert abs(a["payload"]["discretization_bias"] - 1.0 / 98.0) < 1e-15
    lib = simulate(cycle(4), LeaderSet((0, 2)), SimConfig(dt=0.02, steps=20_000, seed=12))
    assert a["payload"]["mc_standard_error"] == lib.mc_standard_error


def test_simulate_stability_exit_5(tmp_path, capsys):
    target = tmp_path / "complete6.edges"
    run(capsys, "generate", "complete", "--n", "6", "--out", str(target))
    code, _, err = run(capsys, "simulate", str(target), "--leaders", "0", "--mode", "gain",
                       "--k", "50", "--dt", "0.5", "--steps", "1000")
    assert code == 5
    assert "dt" in err


def test_payload_deterministic_across_runs(cycle6, capsys):
    a = run_json(capsys, "select", cycle6, "--m", "2")
    b = run_json(capsys, "select", cycle6, "--m", "2")
    assert json.dumps(a["payload"], sort_keys=True) == json.dumps(b["payload"], sort_keys=True)


def test_out_file_writing(tmp_path, cycle6, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "centrality", cycle6, "--out", str(out))
    assert code == 0 and stdout == ""
    report = json.loads(out.read_text())
    assert report["command"] == "centrality"


def input_error(capsys, *argv):
    """Exit code of an invocation expected to fail on its input, checking that
    it ends with an error message rather than a traceback."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the argument
        code = exc.code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "error" in captured.err
    assert captured.out == ""
    return code


@pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", [
    ("centrality",), ("select", "--m", "2"), ("pairs",), ("simulate", "--leaders", "0", "--steps", "100"),
])
def test_bad_sigma_exit_2(cycle6, capsys, command, sigma):
    assert input_error(capsys, command[0], cycle6, *command[1:], "--sigma", sigma) == 2


@pytest.mark.parametrize("method", ["exhaustive", "greedy"])
def test_select_sigma_zero_exit_2(cycle6, capsys, method):
    # rho = n sigma^2 / (2 error) is 0/0 at sigma = 0
    assert input_error(capsys, "select", cycle6, "--m", "2", "--method", method, "--sigma", "0") == 2


def test_simulate_sigma_zero_exit_2(cycle6, capsys):
    # the relative gap divides by the analytic error, which is 0 at sigma = 0
    argv = ["simulate", cycle6, "--leaders", "0", "--steps", "100", "--sigma", "0"]
    assert input_error(capsys, *argv) == 2


def test_centrality_sigma_zero_allowed(cycle6, capsys):
    report = run_json(capsys, "centrality", cycle6, "--sigma", "0")
    assert all(n["certainty_inverse"] == 0.0 for n in report["payload"]["nodes"])


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_pairs_nonpositive_bins_exit_2(cycle6, capsys, bins):
    assert input_error(capsys, "pairs", cycle6, "--bins", bins) == 2


@pytest.mark.parametrize("k_values", ["1,x", ",", "1,-1"])
def test_verify_bad_k_values_exit_2(cycle6, capsys, k_values):
    assert input_error(capsys, "verify", cycle6, "--k-values", k_values) == 2


def test_select_ignores_leadsel_threads(cycle6, capsys, monkeypatch):
    # the enumeration is serial; a stale thread-count variable changes nothing
    monkeypatch.setenv("LEADSEL_THREADS", "abc")
    report = run_json(capsys, "select", cycle6, "--m", "2")
    assert report["payload"]["optimal_sets"] == [[0, 3], [1, 4], [2, 5]]


def test_select_threads_option_removed(cycle6, capsys):
    assert input_error(capsys, "select", cycle6, "--m", "2", "--threads", "2") == 2


@pytest.mark.parametrize("text", ["n=1\n", "n=2\n0 1\n"], ids=["n1", "n2"])
def test_pairs_too_few_nodes_exit_2(tmp_path, capsys, text):
    # a noise-free pair needs a follower, so the sweep needs n >= 3
    target = tmp_path / "tiny.edges"
    target.write_text(text)
    assert input_error(capsys, "pairs", str(target)) == 2


def test_centrality_single_node_exit_2(tmp_path, capsys):
    # information centrality is n / 0 on one node, which JSON cannot carry
    target = tmp_path / "one.edges"
    target.write_text("n=1\n")
    assert input_error(capsys, "centrality", str(target)) == 2


def test_select_degenerate_gain_exit_2(cycle6, capsys):
    # k = 1e-300 overflows 1/k, so the pair formula has no finite value
    argv = ["select", cycle6, "--m", "2", "--mode", "gain", "--k", "1e-300"]
    assert input_error(capsys, *argv) == 2
    assert input_error(capsys, "verify", cycle6, "--k-values", "1e-300") == 2
    # three leaders: the shifted grounded Gram matrix has an overflowing det
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert input_error(capsys, "select", cycle6, "--m", "3", "--mode", "gain", "--k", "1e-300") == 2


@pytest.mark.parametrize("value", ["0", "-2"])
def test_verify_nonpositive_count_or_m_max_exit_2(cycle6, capsys, value):
    # a verification that checks nothing must not report success
    assert input_error(capsys, "verify", "--suite", "random", f"--count={value}") == 2
    assert input_error(capsys, "verify", cycle6, f"--m-max={value}") == 2


@pytest.mark.parametrize("weight", ["1e16", "1e100", "1e300"])
def test_centrality_heavy_edge_cycle_exit_2(tmp_path, capsys, weight):
    target = tmp_path / "heavy.edges"
    target.write_text(f"n=5\n0 1 {weight}\n1 2\n2 3\n3 4\n0 4\n")
    assert input_error(capsys, "centrality", str(target)) == 2


def test_simulate_huge_sigma_is_finite(cycle6, capsys):
    # sigma^2 is finite, but the square of a sigma-scaled state would overflow
    argv = ["simulate", cycle6, "--leaders", "0", "--steps", "1000", "--sigma", "1e153"]
    payload = run_json(capsys, *argv)["payload"]
    variances = [n["empirical_variance"] for n in payload["nodes"]]
    assert all(math.isfinite(v) for v in variances + [payload["empirical_total_error"]])
    assert payload["empirical_total_error"] > 1e300


@pytest.mark.parametrize("command", [
    pytest.param(("simulate", "@cycle6", "--leaders", "0", "--steps", "1000"), id="simulate"),
    pytest.param(("select", "@path9", "--m", "2", "--method", "closed-form", "--topology", "path"),
                 id="select-closed-form"),
])
def test_oracle_sum_overflow_exit_2_without_warning(cycle6, path9, command):
    # sigma^2 = 1.44e308 is finite, but the oracle's variance sum overflows;
    # a fresh process shows numpy's warnings as a user would see them
    files = {"@cycle6": cycle6, "@path9": path9}
    argv = [files.get(a, a) for a in command] + ["--sigma", "1.2e154"]
    src = str(Path(leadsel.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "leadsel.cli", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "error" in proc.stderr


def test_verify_random_suite_empty_range_exit_2(capsys):
    # the suite draws n from [4, n_max]
    assert input_error(capsys, "verify", "--suite", "random", "--n-max", "3") == 2


def test_verify_index_base_one_shifts_violation_sets(cycle6, capsys):
    _, out0, _ = run(capsys, "verify", cycle6, "--tol", "1e-18")
    code, out1, err = run(capsys, "verify", cycle6, "--tol", "1e-18", "--index-base", "1")
    assert code == 4
    sets0 = [v["set"] for v in json.loads(out0)["payload"]["violations"]]
    sets1 = [v["set"] for v in json.loads(out1)["payload"]["violations"]]
    assert sets0 and sets1 == [[i + 1 for i in s] for s in sets0]
    assert f"set={tuple(sets1[0])}" in err


def test_pairs_sigma_option_removed(cycle6, capsys):
    # the pair sweep reports rho, which does not depend on sigma
    assert input_error(capsys, "pairs", cycle6, "--sigma", "1") == 2


@pytest.mark.parametrize("command", [
    ("generate", "erdos-renyi", "--n", "6", "--p", "0.5"),
    ("verify", "--suite", "random", "--count", "2", "--n-max", "5"),
    ("simulate", "@cycle6", "--leaders", "0", "--steps", "100"),
], ids=lambda command: command[0])
def test_negative_seed_exit_2(cycle6, capsys, command):
    # numpy's generators reject negative seeds
    argv = [cycle6 if a == "@cycle6" else a for a in command]
    assert input_error(capsys, *argv, "--seed", "-1") == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_verify_tol_must_be_finite_and_positive(cycle6, capsys, tol):
    assert input_error(capsys, "verify", cycle6, "--tol", tol) == 2


@pytest.mark.parametrize("command", [
    ("select", "--m", "2"), ("simulate", "--leaders", "0", "--steps", "100"),
], ids=lambda command: command[0])
def test_sigma_squaring_to_zero_exit_2(cycle6, capsys, command):
    # sigma^2 underflows to 0, and the error with it
    assert input_error(capsys, command[0], cycle6, *command[1:], "--sigma", "1e-200") == 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", [
    pytest.param(("centrality", "--sigma", "1e200"), id="centrality-sigma"),
    pytest.param(("select", "--m", "2", "--sigma", "1e200"), id="select-sigma"),
    pytest.param(("simulate", "--leaders", "0", "--steps", "100", "--sigma", "1e200"), id="simulate-sigma"),
    # --k is echoed in noise-free mode too, which does not read it
    pytest.param(("select", "--m", "2", "--k", "inf"), id="select-k"),
])
def test_nonfinite_report_is_not_written(cycle6, capsys, command, fmt):
    argv = [command[0], cycle6, *command[1:], "--format", fmt]
    assert input_error(capsys, *argv) == 2


def test_non_finite_check_walks_the_whole_report():
    # CSV mode checks the report directly instead of encoding it as JSON
    assert not _holds_non_finite({"a": [1, 2.5, (3, -0.0)], "b": {"c": None, "d": "nan"}, "e": 10**400})
    for bad in (math.nan, math.inf, -math.inf):
        assert _holds_non_finite({"a": [1.0, {"b": (2.0, [bad])}]})
        assert _holds_non_finite({"timing": bad})


# Special values, then bounded draws; the options are given as --opt=value so
# that a value starting with '-' still reaches the option's own check.
FLOATS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-300", "1e-200", "1e200", "1e300", "0.5", "2"]),
    st.floats(min_value=0.01, max_value=5.0).map(repr),
    st.floats(min_value=-5.0, max_value=5.0).map(repr),
)


def ints(low, high):
    return st.integers(min_value=low, max_value=high).map(str)


def options(required=None, **optional):
    """The required options and any of the optional ones, as --name=value or,
    for a None value, a bare --name. Every option that sets an amount of work
    is required, so that no draw falls back to a costly default."""
    return st.fixed_dictionaries(required or {}, optional=optional).map(lambda drawn: [
        f"--{name.replace('_', '-')}" + ("" if value is None else f"={value}")
        for name, value in drawn.items()
    ])


COMMON = {"format": st.sampled_from(["json", "csv"]), "index_base": ints(-1, 2)}
MODE = {"mode": st.sampled_from(["noise-free", "gain"]), "k": FLOATS}
GRAPHS = ("cycle6", "path5", "weighted4", "two", "one", "bad")

COMMANDS = st.one_of(
    st.tuples(st.just("centrality"), st.sampled_from(GRAPHS),
              options(**COMMON, sigma=FLOATS, full=st.none())),
    st.tuples(st.just("select"), st.sampled_from(GRAPHS),
              options({"m": ints(-1, 6)}, **COMMON, **MODE, sigma=FLOATS, budget=ints(-1, 40),
                      method=st.sampled_from(["exhaustive", "greedy", "closed-form"]),
                      topology=st.sampled_from(["cycle", "path"]))),
    st.tuples(st.just("pairs"), st.sampled_from(GRAPHS),
              options(**COMMON, bins=ints(-1, 64), budget=ints(-1, 40))),
    st.tuples(st.just("verify"), st.sampled_from(GRAPHS + ("--suite=random",)),
              options({"count": ints(-1, 3), "n_max": ints(-1, 8)}, **COMMON, seed=ints(-2, 5),
                      tol=FLOATS, m_max=ints(-1, 3),
                      k_values=st.lists(FLOATS, min_size=1, max_size=3).map(",".join))),
    st.tuples(st.just("simulate"), st.sampled_from(GRAPHS),
              options({"steps": ints(-1, 2000),
                       "leaders": st.sampled_from(["0", "0,3", "1", "2,4", "1,1", "9", "-1", "x"])},
                      **COMMON, **MODE, sigma=FLOATS, dt=FLOATS, burn_in=ints(-1, 2000),
                      seed=ints(-2, 5), mu=FLOATS)),
    st.tuples(st.just("generate"), st.sampled_from(["cycle", "path", "complete", "erdos-renyi"]),
              options({"n": ints(-1, 30)}, p=FLOATS, seed=ints(-2, 5))),
)


@pytest.fixture(scope="module")
def fuzz_graphs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    texts = {"cycle6": "0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n", "path5": "0 1\n1 2\n2 3\n3 4\n",
             "weighted4": "0 1 0.5\n1 2 3\n2 3 1e-3\n0 2 2\n", "two": "0 1\n", "one": "n=1\n",
             "bad": "0 1\n0 0\n"}
    for name, text in texts.items():
        (root / name).write_text(text)
    return {name: str(root / name) for name in texts}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(derandomize=True, deadline=None, max_examples=1000,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=COMMANDS)
def test_cli_arguments_end_in_documented_exit_codes(fuzz_graphs, command):
    name, target, opts = command
    argv = [name, fuzz_graphs.get(target, target), *opts]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argument
            assert exc.code == 2
            return
    assert code in {0, 2, 3, 4, 5}, (argv, err.getvalue())
    if code in {2, 3, 5}:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    elif name != "generate" and "--format=csv" not in argv:
        json.loads(out.getvalue(), parse_constant=_reject_constant)

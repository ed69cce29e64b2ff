import json

import pytest

from leadsel import parse_edge_list
from leadsel.cli import main


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


def test_centrality_csv_matches_json(path9, capsys):
    report = run_json(capsys, "centrality", path9)
    code, out, _ = run(capsys, "centrality", path9, "--format", "csv")
    assert code == 0
    lines = [l for l in out.split("\r\n") if l]
    assert lines[0] == "node,info_centrality,lplus_diag,certainty_inverse"
    for row, node in zip(lines[1:], report["payload"]["nodes"]):
        fields = row.split(",")
        assert int(fields[0]) == node["node"]
        assert float(fields[1]) == node["info_centrality"]  # identical numbers
        assert float(fields[2]) == node["lplus_diag"]


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

import pytest

from bipmatch.cli import CSV_HEADER, generate, main
from bipmatch.graph_core import write_graph_text
from bipmatch.oracles import hopcroft_karp


def test_generate_gnp_extremes():
    g0 = generate("random-gnp", {"n": 8, "p": 0.0}, seed=1)
    assert g0.edges == ()
    g1 = generate("random-gnp", {"n": 5, "p": 1.0}, seed=1)
    assert len(g1.edges) == 25


def test_generate_gnp_takes_an_empty_right_side(capsys):
    g = generate("random-gnp", {"n": 5, "n2": 0, "p": 1.0}, seed=1)
    assert (g.n_left, g.n_right, g.edges) == (5, 0, ())
    assert generate("random-gnp", {"n": 5, "p": 1.0}, seed=1).n_right == 5
    rc = main(["--algo", "hk", "--gen", "random-gnp", "--n", "5", "--n2", "0",
               "--csv", "-"])
    assert rc == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert (fields["n_left"], fields["n_right"], fields["m"]) == ("5", "0", "0")
    assert fields["matching"] == "0"


def test_generate_determinism():
    a = generate("random-gnp", {"n": 20, "p": 0.3}, seed=7)
    b = generate("random-gnp", {"n": 20, "p": 0.3}, seed=7)
    c = generate("random-gnp", {"n": 20, "p": 0.3}, seed=8)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_generate_regular_degrees():
    g = generate("regular", {"n": 10, "deg": 3}, seed=0)
    from collections import Counter
    left = Counter(u for u, _ in g.edges)
    assert all(left[u] == 3 for u in range(10))


def test_generate_disjoint_paths_structure():
    g = generate("disjoint-paths", {"paths": 5, "plen": 3}, seed=0)
    assert len(g.edges) == 15
    assert len(hopcroft_karp(g)[0]) == 10  # two matched pairs per 3-edge path


def test_generate_two_blocks():
    g = generate("two-blocks", {"n": 6, "p": 0.5, "bridges": 2}, seed=3)
    assert g.n_left == g.n_right == 12


def test_generate_unknown_kind():
    with pytest.raises(ValueError):
        generate("mystery", {}, seed=0)


def test_cli_csv_schema(capsys):
    rc = main(["--algo", "hk,ff,paper", "--backend", "reference",
               "--gen", "random-gnp", "--n", "24", "--p", "0.2",
               "--seed", "5", "--verify", "--csv", "-"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == CSV_HEADER
    columns = CSV_HEADER.split(",")
    assert len(columns) == 21
    for row in out[1:]:
        fields = row.split(",")
        assert len(fields) == len(columns)
        assert fields[columns.index("verified")] == "yes"
        for counter in fields[9:17]:
            assert float(counter) >= 0
        # shatters, cluster_queries, clusters_spawned: no clusters here
        assert fields[18:] == ["0", "0", "0"]


def test_cli_reference_backend_reports_es_scans(capsys):
    rc = main(["--algo", "paper", "--backend", "reference", "--gen", "random-gnp",
               "--n", "64", "--p", "0.1", "--seed", "5", "--verify", "--csv", "-"])
    assert rc == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert int(fields["phases"]) >= 1  # at least one MWU phase ran
    assert int(fields["es_scans"]) > 0  # the reference backend's tree did the work


def test_cli_reports_full_backend_cluster_counters(capsys):
    rc = main(["--algo", "paper", "--backend", "full", "--gen", "two-blocks",
               "--n", "24", "--p", "0.4", "--seed", "3", "--verify", "--csv", "-"])
    assert rc == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["verified"] == "yes" and int(fields["phases"]) >= 1
    assert int(fields["shatters"]) >= 1  # the one MWU phase shatters a cluster
    assert int(fields["cluster_queries"]) >= 0
    assert int(fields["clusters_spawned"]) >= 0


def test_cli_verify_many_seeds(capsys):
    rc = main(["--algo", "paper", "--backend", "reference", "--gen", "random-gnp",
               "--n", "20", "--p", "0.25", "--seed", "0", "--count", "25",
               "--verify", "--csv", "-"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 26


def test_cli_reads_graph_file(tmp_path, capsys):
    g = generate("random-gnp", {"n": 10, "p": 0.4}, seed=2)
    path = tmp_path / "g.bm"
    path.write_text(write_graph_text(g))
    rc = main(["--algo", "paper", "--in", str(path), "--verify", "--csv", "-"])
    assert rc == 0


def test_cli_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.bm"
    path.write_text("p bm 2 2 1\ne 9 9\n")
    rc = main(["--algo", "hk", "--in", str(path)])
    assert rc == 2


def test_cli_missing_generator():
    assert main(["--algo", "hk"]) == 2


def test_cli_writes_csv_file(tmp_path):
    out = tmp_path / "rows.csv"
    rc = main(["--algo", "hk", "--gen", "regular", "--n", "8", "--deg", "2",
               "--csv", str(out)])
    assert rc == 0
    text = out.read_text().splitlines()
    assert text[0] == CSV_HEADER and len(text) == 2


def test_cli_constants_file(tmp_path, capsys):
    cfile = tmp_path / "c.txt"
    cfile.write_text("alpha0 = 0.2\nmwu_gate_coeff = 6\n# comment\n")
    rc = main(["--algo", "paper", "--gen", "random-gnp", "--n", "12", "--p", "0.3",
               "--constants", str(cfile), "--verify", "--csv", "-"])
    assert rc == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense = 1\n")
    assert main(["--algo", "paper", "--gen", "random-gnp", "--constants",
                 str(bad)]) == 2


@pytest.mark.parametrize("name,value", [("alpha0", "nan"), ("alpha0", "inf"),
                                        ("mwu_gate_coeff", "nan")])
def test_cli_non_finite_constant_exits_2_at_load(tmp_path, capsys, name, value):
    cfile = tmp_path / "c.txt"
    cfile.write_text(f"{name} = {value}\n")
    rc = main(["--algo", "paper", "--gen", "random-gnp", "--constants", str(cfile)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.splitlines() == [f"error: constant {name} must be finite, got {float(value)}"]


@pytest.mark.parametrize("name", ["cut_player_c", "c_cmg", "c_prime", "c_hat"])
def test_cli_zero_divisor_constant_exits_2_at_load(tmp_path, capsys, name):
    cfile = tmp_path / "c.txt"
    cfile.write_text(f"{name} = 0\n")
    rc = main(["--algo", "paper", "--gen", "random-gnp", "--constants", str(cfile)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.splitlines() == [f"error: constant {name} must be positive, got 0.0"]


def test_cli_trace_prints_one_line_per_phase_on_stderr(capsys):
    rc = main(["--algo", "paper", "--gen", "random-gnp", "--n", "40", "--p", "0.2",
               "--trace", "--csv", "-"])
    out, err = capsys.readouterr()
    assert rc == 0
    header, row = out.strip().splitlines()
    phases = int(dict(zip(header.split(","), row.split(",")))["phases"])
    lines = err.splitlines()
    assert phases >= 1 and len(lines) == phases
    assert lines[0].startswith("# phase 0: delta=40 collected=")


def test_cli_unwritable_csv_path_exits_2(tmp_path, capsys):
    rc = main(["--algo", "hk", "--gen", "regular", "--n", "8",
               "--csv", str(tmp_path / "missing" / "rows.csv")])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "rows.csv" in err


@pytest.mark.parametrize("algo", [",", "paper,bogus", "bogus"])
def test_cli_unknown_algo_is_a_usage_error(monkeypatch, capsys, algo):
    import bipmatch.cli as cli

    runs = []
    monkeypatch.setattr(cli, "_run_one", lambda *a: runs.append(a))
    rc = main(["--algo", algo, "--gen", "random-gnp", "--n", "6"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and runs == []
    assert len(err.splitlines()) == 1 and err.startswith("error: --algo")


def test_cli_maps_unexpected_errors_to_exit_2(monkeypatch, capsys):
    import bipmatch.cli as cli

    def deep(g):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "hopcroft_karp", deep)
    rc = main(["--algo", "hk", "--gen", "random-gnp", "--n", "6", "--verify"])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 2
    assert err == ["error: RecursionError: maximum recursion depth exceeded"]

    monkeypatch.setattr(cli, "max_matching", lambda *a, **k: 1 / 0)
    assert main(["--algo", "paper", "--gen", "random-gnp", "--n", "6"]) == 2
    assert capsys.readouterr().err.startswith("error: ZeroDivisionError")


def test_cli_verify_rejects_a_matching_with_a_non_edge(monkeypatch, capsys):
    import bipmatch.cli as cli
    from bipmatch.driver import RunReport
    from bipmatch.graph_core import Matching

    def swapped(g, cfg):
        # a maximum matching with the partners of two pairs swapped: right
        # size, no vertex reused, but (u1, v2) is not a graph edge
        pairs = sorted(hopcroft_karp(g)[0].pairs)
        (u1, v1), (u2, v2) = next((a, b) for a in pairs for b in pairs
                                  if a != b and (a[0], b[1]) not in g.edge_set)
        rest = [q for q in pairs if q not in ((u1, v1), (u2, v2))]
        return Matching(rest + [(u1, v2), (u2, v1)]), RunReport()

    monkeypatch.setattr(cli, "max_matching", swapped)
    rc = main(["--algo", "paper", "--gen", "random-gnp", "--n", "12", "--p", "0.2",
               "--seed", "3", "--verify", "--csv", "-"])
    out, err = capsys.readouterr()
    assert rc == 1
    header, row = out.strip().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["verified"] == "NO"
    assert err.startswith("verification FAILED: random-gnp seed=3 algo=paper")
    assert "not a graph edge" in err


def test_cli_target_caps_only_the_paper_matching(capsys):
    rc = main(["--algo", "hk,ff,paper", "--gen", "random-gnp", "--n", "20", "--p", "0.2",
               "--seed", "1", "--target", "3", "--verify", "--csv", "-"])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    header, *rows = out.strip().splitlines()
    sizes = {r["algo"]: int(r["matching"]) for r in
             (dict(zip(header.split(","), row.split(","))) for row in rows)}
    assert sizes == {"hk": 20, "ff": 20, "paper": 3}


@pytest.mark.parametrize("count", ["0", "-2"])
def test_cli_count_below_one_is_a_usage_error(capsys, count):
    rc = main(["--algo", "hk", "--gen", "random-gnp", "--n", "6", "--count", count])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: --count")


@pytest.mark.parametrize("algo", ["hk", "ff", "paper", "hk,paper"])
def test_cli_negative_target_is_a_usage_error(monkeypatch, capsys, algo):
    import bipmatch.cli as cli

    runs = []
    monkeypatch.setattr(cli, "_run_one", lambda *a: runs.append(a))
    rc = main(["--algo", algo, "--gen", "random-gnp", "--n", "5", "--target", "-1",
               "--csv", "-"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and runs == []
    assert err.splitlines() == ["error: --target must be nonnegative, got -1"]

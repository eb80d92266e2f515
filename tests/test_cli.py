import pytest

from bipmatch.cli import CSV_HEADER, generate, main
from bipmatch.graph_core import write_graph_text
from bipmatch.oracles import hopcroft_karp


def test_generate_gnp_extremes():
    g0 = generate("random-gnp", {"n": 8, "p": 0.0}, seed=1)
    assert g0.edges == ()
    g1 = generate("random-gnp", {"n": 5, "p": 1.0}, seed=1)
    assert len(g1.edges) == 25


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
    n_fields = len(CSV_HEADER.split(","))
    for row in out[1:]:
        fields = row.split(",")
        assert len(fields) == n_fields
        assert fields[-1] == "yes"
        for counter in fields[9:17]:
            assert float(counter) >= 0


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

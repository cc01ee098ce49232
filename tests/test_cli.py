import json

import pytest

from balanced_forge import balanced
from balanced_forge._kernel import KERNEL
from balanced_forge._simplex import simplex_min
from balanced_forge.cli import main
from balanced_forge.enumeration import enumerate_mbc, load_catalog, save_catalog

TRIANGLE_TEXT = "n=3; edges=[{1,2},{1,3},{2,3}]\n"
FIG3_TEXT = "n=7; edges=[{1,2,3,4},{1,5,6,7},{3,4,5,6},{3,4,6,7}]\n"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_mbc_enum_count(capsys):
    rc, out, _ = run(capsys, "mbc", "enum", "--players", "3")
    assert rc == 0
    assert out == "count=6\n"


def test_mbc_enum_oracle_and_duality(capsys):
    rc, out, _ = run(capsys, "mbc", "enum", "--players", "3", "--method", "oracle")
    assert (rc, out) == (0, "count=6\n")
    rc, out, _ = run(capsys, "mbc", "enum", "--players", "3", "--method", "duality")
    assert (rc, out) == (0, "count=6\n")


def test_mbc_enum_writes_text_catalog(tmp_path, capsys):
    path = str(tmp_path / "n3.mbc")
    rc, out, _ = run(capsys, "mbc", "enum", "--players", "3", "--out", path, "--json")
    assert rc == 0
    blob = json.loads(out)
    blob.pop("diagnostics")  # checked in test_mbc_enum_json_reports_diagnostics
    assert blob == {"n": 3, "method": "direct", "count": 6, "out": path}
    cat = load_catalog(path)
    assert cat.count == 6
    assert cat.method == "direct"


def test_mbc_enum_json_reports_diagnostics(capsys):
    keys = {
        "direct": {"kernel", "workers", "search_s", "build_s"},
        "duality": {"kernel", "rejected", "k_max", "covers", "accepted"},
        "oracle": {"candidates", "kept", "search_s"},
    }
    for method, want in keys.items():
        rc, out, _ = run(capsys, "mbc", "enum", "--players", "3", "--method", method, "--json")
        assert rc == 0
        diag = json.loads(out)["diagnostics"]
        assert set(diag) == want, method
    rc, out, _ = run(capsys, "mbc", "enum", "--players", "3", "--json")
    diag = json.loads(out)["diagnostics"]
    assert diag["kernel"] == KERNEL and diag["workers"] == 1
    assert diag["search_s"] >= 0 and diag["build_s"] >= 0


def test_mbc_enum_json_reports_the_work_per_size_and_per_k(capsys):
    # the levelwise oracle at n = 4 decides 850 candidates and keeps the 42
    # minimal balanced collections, by size; the duality route accepts,
    # per regularity k, the collections of weight denominator k
    rc, out, _ = run(capsys, "mbc", "enum", "--players", "4", "--method", "oracle", "--json")
    assert rc == 0
    blob = json.loads(out)
    assert (blob["method"], blob["count"]) == ("oracle", 42)
    diag = blob["diagnostics"]
    assert diag["candidates"] == [15, 91, 280, 464]
    assert diag["kept"] == [1, 7, 12, 22]
    assert diag["search_s"] >= 0
    rc, out, _ = run(capsys, "mbc", "enum", "--players", "4", "--method", "duality", "--json")
    diag = json.loads(out)["diagnostics"]
    assert (diag["covers"], diag["accepted"], diag["rejected"]) == ([15, 22, 5], [15, 22, 5], 0)


def test_mbc_enum_writes_json_catalog(tmp_path, capsys):
    path = str(tmp_path / "n3.json")
    rc, _, _ = run(capsys, "mbc", "enum", "--players", "3", "--out", path)
    assert rc == 0
    assert json.loads((tmp_path / "n3.json").read_text())["count"] == 6
    assert load_catalog(path).coalition_sets() == enumerate_mbc(3).coalition_sets()


def test_mbc_enum_bad_players(capsys):
    # n=7 is refused before any search, and only its message names the
    # reason: its catalog needs about 33 GB
    for players in ("1", "9"):
        rc, _, err = run(capsys, "mbc", "enum", "--players", players)
        assert rc == 2
        assert err == "error: enumerate_mbc supports 2 <= n <= 6, got %s\n" % players
    rc, _, err = run(capsys, "mbc", "enum", "--players", "7")
    assert rc == 2
    assert err.startswith("error: enumerate_mbc supports 2 <= n <= 6, got 7; ")
    assert "about 33 GB in memory" in err


def test_mbc_check_minimal(capsys):
    rc, out, _ = run(
        capsys, "mbc", "check", "--collection", "n=3; [{1,2}:1/2, {1,3}:1/2, {2,3}:1/2]"
    )
    assert rc == 0
    assert out.splitlines() == [
        "balanced=true minimal=true",
        "n=3; [{1,2}:1/2, {1,3}:1/2, {2,3}:1/2]",
    ]


def test_mbc_check_weightless_form(capsys):
    rc, out, _ = run(capsys, "mbc", "check", "--collection", "n=3; [{1,2}, {1,3}, {2,3}]")
    assert rc == 0
    assert out.splitlines()[1] == "n=3; [{1,2}:1/2, {1,3}:1/2, {2,3}:1/2]"


@pytest.mark.parametrize(
    "collection, rc, lps",
    [
        ("n=3; [{1,2}:1/2, {1,3}:1/2, {2,3}:1/2]", 0, 0),
        ("n=3; [{1,2}, {1,3}, {2,3}]", 0, 1),
        ("n=2; [{1}:1/2, {2}:1/2, {1,2}:1/2]", 3, 0),
        ("n=2; [{1}, {2}, {1,2}]", 3, 1),
    ],
)
def test_mbc_check_runs_at_most_one_lp(monkeypatch, capsys, collection, rc, lps):
    # weights given are checked, not solved for; a weightless input is
    # solved once, and the rank test alone then decides minimality
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return simplex_min(*args, **kwargs)

    monkeypatch.setattr(balanced, "_balanced_cache", {})
    monkeypatch.setattr(balanced, "simplex_min", counting)
    assert run(capsys, "mbc", "check", "--collection", collection)[0] == rc
    assert len(calls) == lps


MIXED_TEXT = "n=5; [{1}:1, {2,3}:1/3, {2,4}:1/3, {2,5}:1/3, {3,4,5}:2/3]"
MIXED_JSON = (
    '{"n": 5, "coalitions": ["{1}", "{2,3}", "{2,4}", "{2,5}", "{3,4,5}"], '
    '"balanced": true, "minimal": true, "weights": {"{1}": "1", "{2,3}": "1/3", '
    '"{2,4}": "1/3", "{2,5}": "1/3", "{3,4,5}": "2/3"}}'
)


@pytest.mark.parametrize(
    "collection",
    [
        "n=5; [{3,4,5}:4/6, {1}:1, {2,3}:1/3, {2,4}:1/3, {2,5}:1/3]",
        "n=5; [{3,4,5}, {2,5}, {2,4}, {1}, {2,3}]",
    ],
)
def test_mbc_check_output_is_exact(capsys, collection):
    # weights print reduced and in coalition order, whichever form came in
    rc, out, _ = run(capsys, "mbc", "check", "--collection", collection)
    assert (rc, out) == (0, "balanced=true minimal=true\n" + MIXED_TEXT + "\n")
    rc, out, _ = run(capsys, "mbc", "check", "--collection", collection, "--json")
    assert (rc, out) == (0, MIXED_JSON + "\n")


def test_mbc_check_balanced_but_not_minimal(capsys):
    rc, out, _ = run(capsys, "mbc", "check", "--collection", "n=2; [{1}, {2}, {1,2}]")
    assert rc == 3
    assert out.splitlines()[0] == "balanced=true minimal=false"


def test_mbc_check_unbalanced(capsys):
    rc, out, _ = run(capsys, "mbc", "check", "--collection", "n=2; [{1}]", "--json")
    assert rc == 3
    blob = json.loads(out)
    assert blob["balanced"] is False
    assert blob["minimal"] is False
    assert blob["weights"] is None


def test_mbc_check_reads_file(tmp_path, capsys):
    path = tmp_path / "col"
    path.write_text("n=2; [{1}:1, {2}:1]\n")
    rc, out, _ = run(capsys, "mbc", "check", "--in", str(path))
    assert rc == 0
    assert "minimal=true" in out


@pytest.mark.parametrize("lines", [0, 2])
def test_mbc_check_reads_exactly_one_line(tmp_path, capsys, lines):
    path = tmp_path / "col"
    path.write_text("\n" + "n=3; [{1,2}:1/2, {1,3}:1/2, {2,3}:1/2]\n" * lines)
    rc, out, err = run(capsys, "mbc", "check", "--in", str(path))
    assert (rc, out) == (2, "")
    assert err == "error: %s: expected one collection line, found %d\n" % (path, lines)


def test_mbc_check_rejects_empty_item(capsys):
    rc, _, err = run(capsys, "mbc", "check", "--collection", "n=3; [{1,2},]")
    assert rc == 2
    assert err.startswith("error:")


CHECKED_TRIANGLE = "balanced=true minimal=true\nn=3; [{1,2}:1/2, {1,3}:1/2, {2,3}:1/2]\n"
# the three line forms: the body after a header n=3, and the output it gives
LINE_FORMS = {
    "weighted": ("[{1,2}:1/2, {1,3}:1/2, {2,3}:1/2]", CHECKED_TRIANGLE),
    "weightless": ("[{1,2}, {1,3}, {2,3}]", CHECKED_TRIANGLE),
    "hypergraph": ("edges=[{1,2},{1,3},{2,3}]", "n=3; edges=[{1,2},{1,3},{2,3}]\n"),
}


def _read_line_form(tmp_path, capsys, form, text):
    """(exit code, stdout, stderr) of the command that reads the line form."""
    if form == "hypergraph":
        path = tmp_path / "line.hg"
        path.write_text(text + "\n")
        return run(capsys, "hyper", "dual", "--in", str(path))
    return run(capsys, "mbc", "check", "--collection", text)


@pytest.mark.parametrize("form", sorted(LINE_FORMS))
@pytest.mark.parametrize("header", ["n=3", "n = 3", " n=3 "])
def test_line_forms_share_one_header_rule(tmp_path, capsys, form, header):
    body, out = LINE_FORMS[form]
    assert _read_line_form(tmp_path, capsys, form, header + "; " + body) == (0, out, "")


# each case makes a malformed line from the body of a form
MALFORMED_LINES = {
    "header m=3": lambda body: "m=3; " + body,
    "header n 3": lambda body: "n 3; " + body,
    "header n=x": lambda body: "n=x; " + body,
    "header n=0": lambda body: "n=0; " + body,
    "header n=+3": lambda body: "n=+3; " + body,
    "header n=0_3": lambda body: "n=0_3; " + body,
    "header n=\u0663": lambda body: "n=\u0663; " + body,  # an Arabic-Indic 3
    "player +1": lambda body: "n=3; " + body.replace("{1,2}", "{+1,2}"),
    "player 0_1": lambda body: "n=3; " + body.replace("{1,2}", "{0_1,2}"),
    "player \u0661": lambda body: "n=3; " + body.replace("{1,2}", "{\u0661,2}"),
    "no semicolon": lambda body: "n=3 " + body,
    "no closing bracket": lambda body: "n=3; " + body[:-1],
    "no opening bracket": lambda body: "n=3; " + body.replace("[", "", 1),
}


@pytest.mark.parametrize("form", sorted(LINE_FORMS))
@pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
def test_malformed_line_is_usage_error(tmp_path, capsys, form, case):
    text = MALFORMED_LINES[case](LINE_FORMS[form][0])
    rc, out, err = _read_line_form(tmp_path, capsys, form, text)
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_mbc_check_empty_coalition_has_one_message(capsys):
    message = "error: the empty coalition {} does not belong in a collection\n"
    for text in ("n=3; [{}, {1,2,3}]", "n=3; [{}:1, {1,2,3}:1]"):
        assert run(capsys, "mbc", "check", "--collection", text) == (2, "", message)


def test_mbc_enum_rejects_zero_threads(capsys):
    rc, _, err = run(capsys, "mbc", "enum", "--players", "3", "--threads", "0")
    assert rc == 2
    assert "threads" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (("--method", "oracle", "--k-max", "2"), "--k-max"),
        (("--method", "direct", "--k-max", "2"), "--k-max"),
        (("--method", "oracle", "--threads", "4"), "--threads"),
        (("--method", "duality", "--threads", "1"), "--threads"),
    ],
)
def test_mbc_enum_rejects_options_the_method_does_not_take(capsys, argv, option):
    rc, out, err = run(capsys, "mbc", "enum", "--players", "3", *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: %s applies only to" % option)


def test_mbc_check_needs_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mbc", "check"])
    assert exc.value.code == 2
    assert "one of the arguments --in --collection is required" in capsys.readouterr().err


def test_mbc_check_takes_one_input(tmp_path, capsys):
    path = tmp_path / "col"
    path.write_text("n=2; [{1}:1, {2}:1]\n")
    with pytest.raises(SystemExit) as exc:
        main(["mbc", "check", "--in", str(path), "--collection", "n=2; [{1}]"])
    assert exc.value.code == 2
    assert "not allowed with argument --in" in capsys.readouterr().err


def test_hyper_count_spanning(capsys):
    rc, out, _ = run(capsys, "hyper", "count", "--nodes", "3", "--degree", "2", "--size", "3")
    assert (rc, out) == (0, "7\n")


def test_hyper_count_variants(capsys):
    rc, out, _ = run(
        capsys, "hyper", "count", "--nodes", "3", "--degree", "2", "--size", "3", "--total"
    )
    assert (rc, out) == (0, "10\n")
    rc, out, _ = run(
        capsys, "hyper", "count", "--nodes", "3", "--degree", "2", "--size", "3", "--cumulative"
    )
    assert (rc, out) == (0, "8\n")
    rc, out, _ = run(capsys, "hyper", "count", "--graphs", "--nodes", "3")
    assert (rc, out) == (0, "8\n")
    rc, out, _ = run(
        capsys, "hyper", "count", "--nodes", "3", "--degree", "2", "--size", "3", "--json"
    )
    assert rc == 0
    assert json.loads(out) == {"kind": "spanning", "count": 7}


def test_hyper_count_table_csv(capsys):
    rc, out, _ = run(
        capsys, "hyper", "count", "--table", "5", "--degree", "2", "--size", "3"
    )
    assert rc == 0
    assert out == "n,count\n0,0\n1,0\n2,1\n3,7\n4,22\n5,30\n"


def test_hyper_count_missing_args(capsys):
    rc, _, err = run(capsys, "hyper", "count", "--graphs")
    assert rc == 2
    rc, _, err = run(capsys, "hyper", "count", "--nodes", "3")
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "modes",
    [
        ("--cumulative", "--total"),
        ("--graphs", "--table", "3"),
        ("--total", "--graphs"),
        ("--cumulative", "--table", "3"),
    ],
)
def test_hyper_count_modes_exclude_each_other(capsys, modes):
    argv = ["hyper", "count", "--nodes", "3", "--degree", "2", "--size", "3", *modes]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option, mode",
    [
        (("--graphs", "--nodes", "3", "--degree", "2"), "--degree", "--graphs"),
        (("--graphs", "--nodes", "3", "--size", "9"), "--size", "--graphs"),
        (("--table", "3", "--nodes", "9", "--degree", "2", "--size", "3"), "--nodes", "--table"),
    ],
)
def test_hyper_count_rejects_options_the_mode_does_not_take(capsys, argv, option, mode):
    rc, out, err = run(capsys, "hyper", "count", *argv)
    assert (rc, out) == (2, "")
    assert err == "error: %s does not apply to %s\n" % (option, mode)


@pytest.mark.parametrize(
    "mode, option, name",
    [
        ((), "--nodes", "n"),
        ((), "--degree", "k"),
        ((), "--size", "p"),
        (("--total",), "--nodes", "n"),
        (("--total",), "--size", "p"),
        (("--cumulative",), "--degree", "k"),
    ],
)
def test_hyper_count_rejects_negative_sizes(capsys, mode, option, name):
    sizes = {"--nodes": "3", "--degree": "2", "--size": "3", option: "-1"}
    argv = ["hyper", "count", *mode] + [t for kv in sizes.items() for t in kv]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == "error: %s must be >= 0, got -1\n" % name


def test_hyper_enum_text(capsys):
    rc, out, _ = run(
        capsys, "hyper", "enum", "--nodes", "3", "--degree", "2", "--size", "3", "--spanning"
    )
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[-1] == "count=7"


def test_hyper_enum_minimal(capsys):
    rc, out, _ = run(
        capsys, "hyper", "enum", "--nodes", "3", "--degree", "2", "--size", "3", "--minimal"
    )
    assert rc == 0
    assert out.splitlines() == ["n=3; edges=[{1,2},{1,3},{2,3}]", "count=1"]


def test_hyper_enum_json(capsys):
    rc, out, _ = run(
        capsys,
        "hyper", "enum", "--nodes", "3", "--degree", "2", "--size", "3",
        "--spanning", "--json",
    )
    assert rc == 0
    blob = json.loads(out)
    assert blob["count"] == 7
    assert len(blob["hypergraphs"]) == 7


def test_hyper_enum_refuses_a_list_above_the_cap(capsys):
    rc, out, err = run(capsys, "hyper", "enum", "--nodes", "12", "--degree", "6", "--size", "4")
    assert (rc, out) == (2, "")
    assert err.startswith("error: enumerate_uniform(12, 6, 4) would list 30569841225 multisets")


def test_hyper_dual_text(tmp_path, capsys):
    path = tmp_path / "tri"
    path.write_text(TRIANGLE_TEXT)
    rc, out, _ = run(capsys, "hyper", "dual", "--in", str(path))
    assert rc == 0
    assert out == "n=3; edges=[{1,2},{1,3},{2,3}]\n"


def test_hyper_dual_json_sniff(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text('{"n": 3, "edges": [[1,2],[1,3],[2,3]]}')
    rc, out, _ = run(capsys, "hyper", "dual", "--in", str(path))
    assert rc == 0
    assert json.loads(out)["n"] == 3


def test_hyper_decompose_first(tmp_path, capsys):
    path = tmp_path / "fig"
    path.write_text(FIG3_TEXT)
    rc, out, _ = run(capsys, "hyper", "decompose", "--in", str(path))
    assert rc == 0
    assert json.loads(out) == [[1, 3, 6], [2, 4, 5, 7]]


def test_hyper_decompose_all_json(tmp_path, capsys):
    path = tmp_path / "fig"
    path.write_text(FIG3_TEXT)
    rc, out, _ = run(capsys, "hyper", "decompose", "--in", str(path), "--all", "--json")
    assert rc == 0
    blob = json.loads(out)
    assert blob["n"] == 7
    assert blob["size"] == 4
    blocks = [p["blocks"] for p in blob["partitions"]]
    assert [[1, 3, 6], [2, 4, 5, 7]] in blocks
    assert [[1, 3, 4, 5, 7], [2, 6]] in blocks
    assert len(blocks) == 3


def test_game_random_stdout_and_file(tmp_path, capsys):
    rc, out, _ = run(capsys, "game", "random", "--players", "3", "--seed", "42")
    assert rc == 0
    assert json.loads(out)["v"]["{1,2,3}"] == 93
    path = str(tmp_path / "g.json")
    rc, out, _ = run(
        capsys, "game", "random", "--players", "3", "--seed", "42", "--out", path
    )
    assert rc == 0
    assert out == "wrote %s\n" % path


def test_game_core_empty(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    run(capsys, "game", "random", "--players", "3", "--seed", "42", "--out", path)
    rc, out, _ = run(capsys, "game", "core", "--game", path)
    assert rc == 3
    lines = out.splitlines()
    assert lines[0] == "core: empty"
    assert lines[1] == "collection: n=3; [{2}:1, {1,3}:1]"
    assert lines[2] == "efficiency: 105 > v(N) = 93"


def test_game_core_nonempty(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    run(capsys, "game", "random", "--players", "3", "--seed", "86", "--out", path)
    rc, out, _ = run(capsys, "game", "core", "--game", path)
    assert rc == 0
    assert out.splitlines() == ["core: nonempty", "x = (17, 56, 25)"]


def test_game_core_json(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    run(capsys, "game", "random", "--players", "3", "--seed", "42", "--out", path)
    rc, out, _ = run(capsys, "game", "core", "--game", path, "--json")
    assert rc == 3
    blob = json.loads(out)
    assert blob["nonempty"] is False
    assert blob["payment"] is None
    assert blob["efficiency"] == 105
    assert blob["pivots"] == 4


def test_game_core_with_catalog(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    cpath = str(tmp_path / "n3.mbc")
    run(capsys, "game", "random", "--players", "3", "--seed", "42", "--out", gpath)
    save_catalog(enumerate_mbc(3), cpath)
    rc, out, _ = run(capsys, "game", "core", "--game", gpath, "--catalog", cpath)
    assert rc == 3
    assert out.splitlines()[0] == "core: empty"
    # the catalog scan certifies the verdict without a simplex pivot
    rc, out, _ = run(capsys, "game", "core", "--game", gpath, "--catalog", cpath, "--json")
    assert rc == 3
    assert json.loads(out)["pivots"] == 0


def test_game_core_catalog_mismatch(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    cpath = str(tmp_path / "n2.mbc")
    run(capsys, "game", "random", "--players", "3", "--seed", "42", "--out", gpath)
    save_catalog(enumerate_mbc(2), cpath)
    rc, _, err = run(capsys, "game", "core", "--game", gpath, "--catalog", cpath)
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "collection", ["n=2; [{1,2}:1/0]", "n=2; [{1,2}:1, {1,2}:1]", "n=2; [{1}:1, {2}:x]"]
)
def test_mbc_check_rejects_malformed_weighted_collection(capsys, collection):
    rc, out, err = run(capsys, "mbc", "check", "--collection", collection)
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


BAD_CATALOGS = {
    "zero denominator": "mbc-catalog v1 n=2 method=direct count=1\nn=2; [{1,2}:1/0]\n",
    "repeated coalition": "mbc-catalog v1 n=2 method=direct count=1\nn=2; [{1,2}:1, {1,2}:1]\n",
    "mismatched lists": json.dumps(
        {"format": "mbc-catalog", "version": 1, "n": 2, "method": "direct", "count": 1,
         "collections": [{"coalitions": ["{1}", "{2}", "{1,2}"], "weights": ["1", "1"]}]}
    ),
    "non-string coalition": json.dumps(
        {"format": "mbc-catalog", "version": 1, "n": 2, "method": "direct", "count": 1,
         "collections": [{"coalitions": [3], "weights": ["1"]}]}
    ),
    # Fraction(True) is 1, which would make this a valid catalog
    "boolean weight": json.dumps(
        {"format": "mbc-catalog", "version": 1, "n": 2, "method": "direct", "count": 1,
         "collections": [{"coalitions": ["{1,2}"], "weights": [True]}]}
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CATALOGS))
def test_game_core_rejects_malformed_catalog(tmp_path, capsys, case):
    gpath = str(tmp_path / "g.json")
    cpath = tmp_path / "bad.mbc"
    run(capsys, "game", "random", "--players", "2", "--seed", "1", "--out", gpath)
    cpath.write_text(BAD_CATALOGS[case])
    rc, out, err = run(capsys, "game", "core", "--game", gpath, "--catalog", str(cpath))
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


BAD_HYPERGRAPHS = {
    "non-int node id": '{"n": 3, "edges": [[1, 2.5], [3]]}',
    "edges not a list": '{"n": 3, "edges": 5}',
}


@pytest.mark.parametrize("case", sorted(BAD_HYPERGRAPHS))
def test_hyper_dual_rejects_malformed_json(tmp_path, capsys, case):
    path = tmp_path / "h.json"
    path.write_text(BAD_HYPERGRAPHS[case])
    rc, out, err = run(capsys, "hyper", "dual", "--in", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


BAD_GAMES = {
    "not an object": "[1]",
    "v not an object": '{"n": 3, "v": []}',
    "null worth": '{"n": 1, "v": {"{1}": null}}',
    "list worth": '{"n": 1, "v": {"{1}": [1]}}',
    "boolean worth": '{"n": 1, "v": {"{1}": true}}',
}


@pytest.mark.parametrize("case", sorted(BAD_GAMES))
def test_game_core_rejects_malformed_game(tmp_path, capsys, case):
    path = tmp_path / "g.json"
    path.write_text(BAD_GAMES[case])
    rc, out, err = run(capsys, "game", "core", "--game", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, literal",
    [('{"n": 3, "edges": [[1.0, 2], [3]]}', "1.0"), ('{"n": 3.0, "edges": [[1, 2], [3]]}', "3.0")],
)
def test_hyper_dual_rejects_decimal_ids_with_their_literal(tmp_path, capsys, text, literal):
    # 1.0 is not read as the id 1, and the error quotes it as written
    path = tmp_path / "h.json"
    path.write_text(text)
    rc, out, err = run(capsys, "hyper", "dual", "--in", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and literal in err and err.count("\n") == 1


def test_game_core_reads_decimal_worths_exactly(tmp_path, capsys):
    # 0.1 read as a binary double would give {1},{2} efficiency above 1/10
    path = tmp_path / "g.json"
    path.write_text('{"n":2,"v":{"{1}":0.1,"{2}":0,"{1,2}":"1/10"}}')
    rc, out, _ = run(capsys, "game", "core", "--game", str(path), "--json")
    assert rc == 0
    assert json.loads(out)["payment"] == ["1/10", 0]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_game_core_rejects_nonfinite_worths(tmp_path, capsys, constant):
    path = tmp_path / "g.json"
    path.write_text('{"n":1,"v":{"{1}":%s}}' % constant)
    rc, out, err = run(capsys, "game", "core", "--game", str(path))
    assert (rc, out) == (2, "")
    assert err == "error: JSON constant %s is not a number\n" % constant


HUGE = "1e10000000"
CATALOG_HEAD = '"format": "mbc-catalog", "version": 1, "n": 2, "method": "direct", "count": 1'
HUGE_WEIGHTS = {
    "game number": ("game", '{"n":1,"v":{"{1}":%s}}' % HUGE),
    "game string": ("game", '{"n":1,"v":{"{1}":"%s"}}' % HUGE),
    "text catalog": ("catalog", "mbc-catalog v1 n=2 method=direct count=1\nn=2; [{1,2}:%s]\n" % HUGE),
    "JSON catalog": (
        "catalog",
        '{%s, "collections": [{"coalitions": ["{1,2}"], "weights": [%s]}]}' % (CATALOG_HEAD, HUGE),
    ),
    "mbc check": ("collection", "n=2; [{1,2}:%s]" % HUGE),
}


def _read_input(tmp_path, capsys, kind, text):
    """Exit code, stdout and stderr of the command reading text as a kind of input."""
    path = tmp_path / "input"
    path.write_text(text)
    if kind == "game":
        argv = ["game", "core", "--game", str(path)]
    elif kind == "hypergraph":
        argv = ["hyper", "dual", "--in", str(path)]
    elif kind == "catalog":
        gpath = str(tmp_path / "g.json")
        run(capsys, "game", "random", "--players", "2", "--seed", "1", "--out", gpath)
        argv = ["game", "core", "--game", gpath, "--catalog", str(path)]
    else:
        argv = ["mbc", "check", "--collection", text]
    return run(capsys, *argv)


@pytest.mark.parametrize("case", sorted(HUGE_WEIGHTS))
def test_weight_of_more_than_4300_digits_is_refused(tmp_path, capsys, case):
    # 10^10000000 takes seconds to build and could not be printed
    rc, out, err = _read_input(tmp_path, capsys, *HUGE_WEIGHTS[case])
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "more than 4300 digits in its numerator or denominator" in err


ONE_COLLECTION = '"collections": [{"coalitions": ["{1,2}"], "weights": ["1"]}]'
# each document is valid if the last value of its repeated key is kept
REPEATED_KEYS = {
    "game worth": ("game", '{"n":1,"v":{"{1}":5,"{1}":7}}', "{1}"),
    "game n": ("game", '{"n":2,"n":1,"v":{"{1}":5}}', "n"),
    "hypergraph edges": ("hypergraph", '{"n":2,"edges":5,"edges":[[1,2]]}', "edges"),
    "catalog header": ("catalog", '{%s, "count": 1, %s}' % (CATALOG_HEAD, ONE_COLLECTION), "count"),
    "catalog collection": (
        "catalog",
        '{%s, "collections": [{"coalitions": ["{1,2}"], "weights": ["2"], "weights": ["1"]}]}'
        % CATALOG_HEAD,
        "weights",
    ),
}


@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_repeated_json_key_is_refused(tmp_path, capsys, case):
    kind, text, key = REPEATED_KEYS[case]
    rc, out, err = _read_input(tmp_path, capsys, kind, text)
    assert (rc, out) == (2, "")
    assert err == "error: JSON object repeats the key %r\n" % key


@pytest.mark.parametrize("key, literal", [("version", "true"), ("version", "1.0"), ("version", "1e0"),
                                          ("count", "true"), ("count", "1.0")])
def test_catalog_header_number_must_be_a_json_integer(tmp_path, capsys, key, literal):
    # true, 1.0 and 1e0 all equal 1 in Python
    rc, _, _ = _read_input(tmp_path, capsys, "catalog", "{%s, %s}" % (CATALOG_HEAD, ONE_COLLECTION))
    assert rc == 0
    head = CATALOG_HEAD.replace('"%s": 1' % key, '"%s": %s' % (key, literal))
    rc, out, err = _read_input(tmp_path, capsys, "catalog", "{%s, %s}" % (head, ONE_COLLECTION))
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert key in err


def test_game_core_reads_1e300_as_10_to_the_300(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"n":1,"v":{"{1}":1e300}}')
    rc, out, _ = run(capsys, "game", "core", "--game", str(path), "--json")
    assert rc == 0
    assert json.loads(out)["payment"] == [10**300]


MISSING_KEYS = {
    "game": ("game core --game", {"n": 2}, "v"),
    "catalog": (
        "game core --game GAME --catalog",
        {"format": "mbc-catalog", "version": 1, "n": 2, "method": "direct",
         "collections": [{"coalitions": ["{1,2}"], "weights": ["1"]}]},
        "count",
    ),
    "hypergraph": ("hyper dual --in", {"n": 2}, "edges"),
}


@pytest.mark.parametrize("kind", sorted(MISSING_KEYS))
def test_missing_json_key_is_named(tmp_path, capsys, kind):
    command, doc, key = MISSING_KEYS[kind]
    gpath = str(tmp_path / "g.json")
    run(capsys, "game", "random", "--players", "2", "--seed", "1", "--out", gpath)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = command.replace("GAME", gpath).split() + [str(path)]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == "error: %s JSON has no %r key\n" % (kind, key)


def test_missing_file_is_usage_error(capsys):
    rc, _, err = run(capsys, "game", "core", "--game", "/nonexistent/game.json")
    assert rc == 2
    assert err.startswith("error:")
    rc, _, err = run(capsys, "hyper", "dual", "--in", "/nonexistent/h")
    assert rc == 2


def test_verify_example8(capsys):
    rc, out, _ = run(capsys, "verify", "example8")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(ln.startswith("ok  ") for ln in lines[:-1])
    assert lines[-1] == "suite example8: pass"


def test_verify_example8_json(capsys):
    rc, out, _ = run(capsys, "verify", "example8", "--json")
    assert rc == 0
    blob = json.loads(out)
    assert blob["ok"] is True
    assert len(blob["checks"]) == 6


def test_verify_table1_small(capsys):
    rc, out, _ = run(capsys, "verify", "table1", "--max-n", "3")
    assert rc == 0
    assert "suite table1: pass" in out


def test_verify_prop1_small(capsys):
    rc, out, _ = run(capsys, "verify", "prop1", "--max-nodes", "2", "--max-size", "2")
    assert rc == 0
    assert "suite prop1: pass" in out


def test_verify_prop2_small(capsys):
    rc, out, _ = run(capsys, "verify", "prop2", "--max-nodes", "2")
    assert rc == 0
    assert "prop2 non-uniqueness" in out


def test_verify_sharpbs_small(capsys):
    rc, out, _ = run(capsys, "verify", "sharpbs", "--max-n", "2", "--games", "25")
    assert rc == 0
    assert "suite sharpbs: pass" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("sharpbs", "--max-n", "1"),
        ("sharpbs", "--max-n", "7"),
        ("table1", "--max-n", "1"),
        ("table1", "--max-n", "7"),
        ("prop1", "--max-nodes", "0"),
        ("sharpbs", "--max-n", "2", "--games", "0"),
    ],
)
def test_verify_empty_range_is_usage_error(capsys, argv):
    rc, out, err = run(capsys, "verify", *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, options",
    [
        (("example8", "--max-n", "9", "--games", "0"), ["--max-n", "--games"]),
        (("prop2", "--max-n", "6"), ["--max-n"]),
    ],
)
def test_verify_rejects_options_the_suite_does_not_take(capsys, argv, options):
    rc, out, err = run(capsys, "verify", *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    assert all(opt in err for opt in options)

"""End-to-end runs of the command-line front end."""

import hashlib
import json
from collections import Counter
from dataclasses import replace
from functools import partial
from itertools import permutations, product
from math import comb

import pytest

from rowsync.automaton import (Dfa, _enum_shard_stats, cerny_automaton, conjugacy_classes,
                               random_dfa, read_dfa, write_dfa, write_dfa_text)
from rowsync.cli import RunConfig, RunResult, build_parser, config_from_args, main, render, run
from rowsync.errors import ParseError, RowsyncError
from rowsync.suites import run_all
from test_automaton import pair_merge_oracle

CERNY3_TEXT = "3 2\n1 2 0\n1 1 2\n"
CERNY4_TEXT = "4 2\n1 2 3 0\n1 1 2 3\n"


@pytest.fixture
def cerny3_path(tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text(CERNY3_TEXT)
    return str(path)


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_gen_cerny_frozen_text(capsys):
    code, out = run_main(["gen", "cerny", "--n", "3"], capsys)
    assert code == 0
    assert out == CERNY3_TEXT


@pytest.mark.parametrize("k", ["1", "3", "0"])
def test_gen_cerny_refuses_other_alphabets(capsys, k):
    # The Cerny automaton has two letters; a report with k = 2 must not
    # describe a run configured with another --k.
    assert main(["gen", "cerny", "--n", "4", "--k", k, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rowsync: error: ") and "--k" in captured.err


def test_gen_check_round_trip(tmp_path, capsys):
    path = str(tmp_path / "c4.txt")
    assert main(["gen", "cerny", "--n", "4", "-o", path]) == 0
    assert capsys.readouterr().out == ""
    code, out = run_main(["check", path], capsys)
    assert code == 0
    assert "synchronizing: yes" in out
    assert "baaabaaab (length 9)" in out
    assert "within bound" in out


def test_check_json_document(cerny3_path, capsys):
    code, out = run_main(["check", cerny3_path, "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"schema_version", "command", "config", "report"}
    assert doc["schema_version"] == 3
    assert doc["command"] == "check"
    assert doc["config"]["limit"] == 24
    assert not {"output", "command", "q", "filter"} & set(doc["config"])
    # The top-level command is the only place a document states its verb.
    parser = build_parser()
    for argv in (["check", "x"], ["matrix", "x"], ["trace", "x"], ["probe", "x"], ["lemmas"],
                 ["gen", "cerny", "--n", "3"], ["enum", "--n", "2", "--k", "1"]):
        config = config_from_args(parser.parse_args([*argv, "--json"]))
        assert not {"command", "q", "filter"} & set(config.public_fields()), argv[0]
    report = doc["report"]
    assert report["synchronizing"] and report["strongly_connected"]
    assert report["shortest_length"] == 4 and report["shortest_word"] == "baab"
    assert report["bound"] == 4 and report["within_bound"] is True
    assert report["greedy_length"] >= 4 and report["cubic_reference"] == 4


def test_check_not_synchronizing(tmp_path, capsys):
    path = tmp_path / "flip.txt"
    path.write_text("2 1\n1 0\n")
    code, out = run_main(["check", str(path), "--json"], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["synchronizing"] is False
    assert report["shortest_word"] is None and report["greedy_word"] is None


def test_check_synchronizing_matches_pair_criterion(tmp_path):
    # An automaton synchronizes exactly when every pair of states merges.
    # check reads its verdict off the pair table, so the pairs are merged
    # here by the test's own BFS.
    cases = [Dfa(2, 2, (flat[:2], flat[2:])) for flat in product(range(2), repeat=4)]
    groups = [Dfa(3, 2, (p, r)) for p in permutations(range(3)) for r in permutations(range(3))]
    cases += groups + [Dfa(3, 2, ((0, 0, 2), (1, 0, 2))), Dfa(3, 2, ((1, 0, 1), (1, 0, 0)))]
    cases += [Dfa(1, 1, ((0,),)), *map(cerny_automaton, range(3, 13)), cerny_automaton(30)]
    for i, dfa in enumerate(cases):
        path = tmp_path / f"{i}.txt"
        write_dfa(dfa, path)
        report = run(RunConfig(command="check", path=str(path))).document["report"]
        assert report["synchronizing"] == (len(pair_merge_oracle(dfa)) == comb(dfa.n, 2)), dfa.delta
        if dfa in groups:
            assert report["synchronizing"] is False
    # The last case, C_30, is above the default --limit: no exact word, still a greedy one.
    assert report["synchronizing"] and report["shortest_word"] is None
    assert "exact subset search" in report["note"] and report["greedy_length"] is not None


def test_check_respects_limit(cerny3_path, capsys):
    code, out = run_main(["check", cerny3_path, "--limit", "2"], capsys)
    assert code == 0
    assert "exact search skipped" in out
    assert "greedy reset word length" in out


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["gen", "cerny"])
    assert exc.value.code == 1


def test_missing_file_exits_one(capsys):
    assert main(["check", "/nonexistent/automaton.txt"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_file_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n0 1\n")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_invalid_word_exits_one(cerny3_path, capsys):
    assert main(["matrix", cerny3_path, "--word", "xyz"]) == 1
    assert main(["trace", cerny3_path, "--word", "abc,"]) == 1


def test_matrix_of_word(cerny3_path, capsys):
    code, out = run_main(["matrix", cerny3_path, "--word", "ab", "--json"], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["targets"] == [1, 2, 1]
    assert report["rank"] == 2
    assert report["nonzero_columns"] == [1, 2]
    assert report["is_permutation"] is False
    assert report["grid"] == ["0 1 0", "0 0 1", "0 1 0"]


def test_matrix_default_word_is_identity(cerny3_path, capsys):
    code, out = run_main(["matrix", cerny3_path, "--json"], capsys)
    report = json.loads(out)["report"]
    assert report["word"] == "" and report["targets"] == [0, 1, 2]
    assert report["rank"] == 3 and report["is_permutation"] is True


def test_matrix_dot(cerny3_path, capsys):
    code, out = run_main(["matrix", cerny3_path, "--dot"], capsys)
    assert code == 0
    assert out.startswith("digraph")
    assert 'label="a,b"' in out


def test_matrix_dot_refuses_word(cerny3_path, capsys):
    # The DOT export draws the automaton, not a word; a word outside the
    # alphabet must not pass unnoticed.
    assert main(["matrix", cerny3_path, "--dot", "--word", "zz"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--word" in captured.err and "--dot" in captured.err


def test_trace_defaults_to_shortest_word(cerny3_path, capsys):
    code, out = run_main(["trace", cerny3_path, "--json"], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["word"] == "baab"
    assert [r["r_size"] for r in report["records"]] == [2, 2, 2, 1]
    assert [r["dimension"] for r in report["records"]] == [1, 2, 3, 4]


def test_trace_human_table(cerny3_path, capsys):
    # The schema-2 table printed each whole prefix; this one is that table
    # mapped onto the rendered word, once, and each prefix's last letter.
    code, out = run_main(["trace", cerny3_path], capsys)
    assert code == 0
    assert out == ("word: baab\n"
                   " len     |R|  dim\n"
                   "   1  b    2    1\n"
                   "   2  a    2    2\n"
                   "   3  a    2    3\n"
                   "   4  b    1    4\n")


def test_trace_non_synchronizing_exits_one(tmp_path, capsys):
    path = tmp_path / "flip.txt"
    path.write_text("2 1\n1 0\n")
    assert main(["trace", str(path)]) == 1
    assert "not synchronizing" in capsys.readouterr().err


def test_probe_report(cerny3_path, capsys):
    code, out = run_main(["probe", cerny3_path, "--json"], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["q"] == 1
    assert report["matching"]["success"] is True
    assert report["independence_rank"] == 4
    assert report["prefix_column_counterexamples"] == 1
    assert report["bound_verdict"]["status"] == "within-bound"


def test_probe_human_summary(cerny3_path, capsys):
    code, out = run_main(["probe", cerny3_path], capsys)
    assert code == 0
    assert "sink 1" in out
    assert "matching: full" in out
    assert "family rank 4 of 4 (independent)" in out
    assert "1 counterexamples" in out


def test_probe_q_is_refused(cerny3_path, capsys):
    # The sink is where the word lands; no option restates it.
    with pytest.raises(SystemExit) as exc:
        main(["probe", cerny3_path, "--q", "1"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --q 1" in capsys.readouterr().err


def test_probe_json_byte_identical(cerny3_path, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["probe", cerny3_path, "--json", "-o", str(first)]) == 0
    assert main(["probe", cerny3_path, "--json", "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_enum_two_states_one_letter(capsys):
    code, out = run_main(["enum", "--n", "2", "--k", "1", "--json"], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["total_tables"] == 4
    assert report["synchronizing"] == 2
    assert report["length_histogram"] == {"1": 2}
    assert report["max_length"] == 1 and report["max_length_count"] == 2
    assert report["exceeds_bound"] == 0 and report["verdict"] == "within-bound"


def test_enum_filter_is_refused(capsys):
    # --filter sync changed only an echoed count; every report now gives both counts.
    with pytest.raises(SystemExit) as exc:
        main(["enum", "--n", "2", "--k", "2", "--filter", "sync"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --filter sync" in capsys.readouterr().err
    code, out = run_main(["enum", "--n", "2", "--k", "2", "--json"], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert "examined" not in report
    assert report["total_tables"] == 16
    assert report["synchronizing"] == 12
    assert report["length_histogram"] == {"1": 12}
    code, out = run_main(["enum", "--n", "2", "--k", "2"], capsys)
    assert code == 0
    assert "not synchronizing: 4\n" in out


@pytest.mark.parametrize("n,k,sync,histogram", [
    (3, 2, 549, {"1": 153, "2": 324, "3": 48, "4": 24}),
    (3, 3, 18375, {"1": 5859, "2": 10680, "3": 1440, "4": 396}),
    (4, 2, 51520, {"1": 2032, "2": 22032, "3": 17616, "4": 4896, "5": 3072, "6": 1008,
                   "7": 528, "8": 240, "9": 96}),
], ids=["3-2", "3-3", "4-2"])
def test_enum_parallel_matches_serial(capsys, n, k, sync, histogram):
    code, serial = run_main(["enum", "--n", str(n), "--k", str(k), "--json"], capsys)
    assert code == 0
    code, parallel = run_main(["enum", "--n", str(n), "--k", str(k), "--jobs", "3", "--json"], capsys)
    assert code == 0
    assert json.loads(serial)["report"] == json.loads(parallel)["report"]
    report = json.loads(serial)["report"]
    assert report["synchronizing"] == sync
    assert report["length_histogram"] == histogram


def test_enum_class_shards_add_up():
    # Uneven shards of the row-1 classes: the first class alone, classes 1
    # and 2, then the rest split into even and odd positions.  Every shard
    # holds synchronizing tables, so dropping any one of them changes the
    # totals.
    for n, k, total, sync, histogram in (
            (4, 2, 65536, 51520, {1: 2032, 2: 22032, 3: 17616, 4: 4896, 5: 3072, 6: 1008,
                                  7: 528, 8: 240, 9: 96}),
            (3, 3, 19683, 18375, {1: 5859, 2: 10680, 3: 1440, 4: 396})):
        classes, class_id = conjugacy_classes(n)
        picks = (range(0, 1), range(1, 3), range(3, len(classes), 2), range(4, len(classes), 2))
        parts = [_enum_shard_stats((n, k, classes, class_id, picked)) for picked in picks]
        assert sum(part["weight"] for part in parts) == total
        assert sum(sum(part["hist"].values()) for part in parts) == sync
        assert sum((part["hist"] for part in parts), Counter()) == histogram
        for dropped in range(len(parts)):
            assert sum(sum(part["hist"].values()) for i, part in enumerate(parts) if i != dropped) != sync


def test_enum_search_counts(monkeypatch):
    # Tables are searched up to state relabelling and letter permutation: far
    # fewer than one search per letter-0 row class and remaining rows
    # (189, 5,103 and 4,864).  The counts are exact, so a walker that
    # searches a table twice or lists extra tables fails here.
    import rowsync.automaton

    calls = Counter()
    search = rowsync.automaton._search

    def counted(n, k, tables):
        calls[n, k] += 1
        return search(n, k, tables)

    monkeypatch.setattr(rowsync.automaton, "_search", counted)
    for n, k in ((3, 2), (3, 3), (4, 2)):
        assert run(RunConfig(command="enum", n=n, k=k)).exit_code == 0
    assert (calls[3, 2], calls[3, 3], calls[4, 2]) == (77, 931, 1523)


def test_enum_builds_chunk_tables_per_prefix_not_per_table(monkeypatch):
    # Every table's chunk tables are read from tables the walker built once
    # per shard or once per prefix of rows 1..k-1, so no search builds its
    # own, and each distinct prefix has its tables built exactly once: a
    # prefix is held across every last-row class it serves, for k >= 4 too.
    # Piece tables cover one chunk's states, prefix tables all n, and a
    # prefix's rows are decoded as letters 1..k-1 only to build them.
    import rowsync.automaton

    builds, searches, prefixes = [], [], []
    build, masks_of = rowsync.automaton._chunk_tables, rowsync.automaton._successor_masks
    search = rowsync.automaton._search

    def counted_build(masks, w):
        builds.append(len(masks))
        return build(masks, w)

    def recorded_masks(rows, first):
        if first == 1:
            prefixes.append(tuple(map(tuple, rows)))
        return masks_of(rows, first)

    def counted_search(n, k, tables):
        searches.append((n, k))
        return search(n, k, tables)

    monkeypatch.setattr(rowsync.automaton, "_chunk_tables", counted_build)
    monkeypatch.setattr(rowsync.automaton, "_successor_masks", recorded_masks)
    monkeypatch.setattr(rowsync.automaton, "_search", counted_search)
    for n, k, count in ((4, 2, 1523), (3, 3, 931), (2, 5, 63), (3, 4, 9743)):
        builds.clear()
        searches.clear()
        prefixes.clear()
        assert run(RunConfig(command="enum", n=n, k=k)).exit_code == 0
        assert searches == [(n, k)] * count
        assert len(set(prefixes)) == len(prefixes) == builds.count(n)
        assert all(len(rows) == k - 1 for rows in prefixes)
        assert len(builds) < count


def test_enum_builds_no_dfa(monkeypatch):
    # The walker addresses every map by its index and searches chunk tables
    # it builds itself; Dfa validation belongs to input at the boundary.
    def refuse(self):
        raise AssertionError("enum built a Dfa")

    monkeypatch.setattr(Dfa, "__post_init__", refuse)
    report = run(RunConfig(command="enum", n=3, k=2)).document["report"]
    assert report["synchronizing"] == 549
    assert report["length_histogram"] == {"1": 153, "2": 324, "3": 48, "4": 24}


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (2, 3)])
def test_enum_weight_guard_exits_one(capsys, monkeypatch, n, k):
    import rowsync.automaton

    units = rowsync.automaton._enum_units

    def drop_one(*args):
        for position, unit in enumerate(units(*args)):
            if position != 2:
                yield unit

    # A listing that misses tables must not yield a report.
    monkeypatch.setattr(rowsync.automaton, "_enum_units", drop_one)
    assert main(["enum", "--n", str(n), "--k", str(k), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rowsync: error: enum weights cover ")
    assert f"of the {n ** (n * k)} tables" in captured.err


@pytest.fixture
def refuse_listing(monkeypatch):
    """Fails a test whose enum run lists the classes or makes a pool."""
    import multiprocessing

    import rowsync.automaton

    def refuse(*args, **kwargs):
        raise AssertionError("classes listed or pool made before a refusal")

    monkeypatch.setattr(rowsync.automaton, "conjugacy_classes", refuse)
    monkeypatch.setattr(multiprocessing, "Pool", refuse)


def test_enum_budget_exits_one(capsys, refuse_listing):
    # The listing takes O(n^n) bytes; n^n <= n^(nk), so the budget check must
    # come first, and before the limit check.
    for extra in ([], ["--limit", "2"]):
        assert main(["enum", "--n", "4", "--k", "3", "--jobs", "2", *extra]) == 1
        assert capsys.readouterr().err == ("rowsync: error: enumerating 16777216 tables exceeds "
                                           "the budget of 1000000; raise --budget to proceed\n")


def test_enum_limit_below_n_exits_one(capsys, refuse_listing):
    # Every table is searched, so --limit below n is refused before any listing or pool.
    assert main(["enum", "--n", "3", "--k", "2", "--limit", "2", "--jobs", "2"]) == 1
    assert capsys.readouterr().err == ("rowsync: error: exact subset search handles n <= 2 (got n = 3); "
                                       "raise the limit or fall back to greedy_reset_word\n")


@pytest.mark.parametrize("n,k", [(3, 0), (3, -1), (-1, 3)])
def test_enum_rejects_non_positive_sizes(capsys, refuse_listing, n, k):
    # --budget 0 would refuse any table count, so only the size check may answer.
    assert main(["enum", "--n", str(n), "--k", str(k), "--budget", "0", "--jobs", "2"]) == 1
    assert capsys.readouterr().err == f"rowsync: error: need n >= 1 and k >= 1, got n = {n}, k = {k}\n"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_enum_rejects_jobs_below_one(capsys, refuse_listing, jobs):
    # One worker would run, so a report saying "jobs": 0 would not describe the
    # run.  The jobs check comes first, ahead of a size that is refused too.
    for n in ("3", "0"):
        assert main(["enum", "--n", n, "--k", "2", "--jobs", jobs, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rowsync: error: --jobs must be at least 1, got {jobs}\n"
    with pytest.raises(RowsyncError, match="--jobs"):
        run(RunConfig(command="enum", n=3, k=2, jobs=int(jobs)))


def test_unwritable_output_exits_one(tmp_path, capsys):
    path = tmp_path / "missing" / "x.txt"
    assert main(["gen", "cerny", "--n", "3", "-o", str(path)]) == 1
    assert capsys.readouterr().err.startswith("rowsync: error: ")
    assert not path.exists()


def test_undecodable_file_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"3 2\n1 2 0\n1 1 2 # \xe9\n")
    with pytest.raises(ParseError, match="UTF-8"):
        read_dfa(str(path))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith("rowsync: error: not UTF-8 text")


def test_byte_order_mark_is_accepted(tmp_path, capsys):
    text = "4 2\n1 2 3 0\n1 1 2 3\n"
    reports = []
    for name, data in (("plain.txt", text.encode()), ("bom.txt", b"\xef\xbb\xbf" + text.encode())):
        path = tmp_path / name
        path.write_bytes(data)
        code, out = run_main(["check", str(path), "--json"], capsys)
        assert code == 0
        reports.append(json.loads(out)["report"])
    assert reports[0] == reports[1]


def test_gen_random_reproducible(capsys):
    code, first = run_main(["gen", "random", "--n", "5", "--k", "3", "--seed", "7"], capsys)
    assert code == 0
    code, again = run_main(["gen", "random", "--n", "5", "--k", "3", "--seed", "7"], capsys)
    assert first == again
    code, other = run_main(["gen", "random", "--n", "5", "--k", "3", "--seed", "8"], capsys)
    assert first != other
    code, dot = run_main(["gen", "random", "--n", "3", "--k", "2", "--dot"], capsys)
    assert dot.startswith("digraph")


def test_config_round_trip():
    parser = build_parser()
    args = parser.parse_args(["probe", "x.txt", "--word", "ab", "--limit", "9", "--json"])
    config = config_from_args(args)
    assert config == RunConfig(command="probe", path="x.txt", word="ab", limit=9, json_output=True)
    assert "json_output" not in config.public_fields()


def test_public_fields_is_a_fresh_copy():
    config = RunConfig(command="enum", n=3, k=2, json_output=True, output="out.json")
    fields = config.public_fields()
    assert list(fields) == [f for f in RunConfig.__dataclass_fields__
                            if f not in ("command", "output", "json_output")]
    first = dict(fields)
    del fields["k"]
    fields["n"] = 99
    assert (config.command, config.n, config.k, config.output, config.json_output) == \
        ("enum", 3, 2, "out.json", True)
    assert config.public_fields() == first


def test_run_with_config_object(cerny3_path):
    result = run(RunConfig(command="check", path=cerny3_path))
    assert result.exit_code == 0
    assert result.document["report"]["shortest_length"] == 4


def test_lemmas_clean_run(capsys):
    code, out = run_main(["lemmas", "--seed", "0", "--json"], capsys)
    assert code == 0
    suites = json.loads(out)["report"]["suites"]
    assert len(suites) == 4
    assert all(s["violations"] == [] for s in suites)
    assert {s["name"] for s in suites} == {
        "rank-monotonicity", "sum-conditions", "basis-dimension", "sink-equation"}


@pytest.fixture
def bound_one_short(monkeypatch):
    """(n-1)^2 - 1 as the bound, so C_4's shortest reset word, of length 9, exceeds it."""
    import rowsync.cli
    import rowsync.probe

    for module in (rowsync.cli, rowsync.probe):
        monkeypatch.setattr(module, "cerny_bound", lambda n: (n - 1) * (n - 1) - 1)


def test_check_exceeding_bound_exits_two(tmp_path, capsys, bound_one_short):
    path = tmp_path / "c4.txt"
    path.write_text(CERNY4_TEXT)
    code, out = run_main(["check", str(path)], capsys)
    assert code == 2
    assert "bound (n-1)^2 = 8: EXCEEDS BOUND\n" in out
    code, out = run_main(["check", str(path), "--json"], capsys)
    assert code == 2
    report = json.loads(out)["report"]
    assert (report["shortest_length"], report["bound"], report["within_bound"]) == (9, 8, False)


def test_probe_exceeding_bound_exits_two(tmp_path, capsys, bound_one_short):
    path = tmp_path / "c4.txt"
    path.write_text(CERNY4_TEXT)
    code, out = run_main(["probe", str(path)], capsys)
    assert code == 2
    assert "bound: length 9 vs (n-1)^2 = 8: exceeds-bound\n" in out
    code, out = run_main(["probe", str(path), "--json"], capsys)
    assert code == 2
    assert json.loads(out)["report"]["bound_verdict"] == {
        "n": 4, "bound": 8, "length": 9, "status": "exceeds-bound"}


def test_enum_exceeding_bound_exits_two(capsys, bound_one_short):
    code, out = run_main(["enum", "--n", "3", "--k", "2"], capsys)
    assert code == 2
    assert "max shortest length: 4 (bound 3): EXCEEDS BOUND\n" in out
    code, out = run_main(["enum", "--n", "3", "--k", "2", "--json"], capsys)
    assert code == 2
    report = json.loads(out)["report"]
    assert (report["bound"], report["max_length"], report["max_length_count"]) == (3, 4, 24)
    assert report["exceeds_bound"] == 24 and report["verdict"] == "exceeds-bound"


def test_lemmas_violation_exits_two(capsys, monkeypatch):
    # matrix_rank one high breaks every rank-monotonicity sample; the human
    # report prints the first five violations of each failing suite.
    import rowsync.cli
    import rowsync.suites

    rank = rowsync.suites.matrix_rank
    monkeypatch.setattr(rowsync.suites, "matrix_rank", lambda m: rank(m) + 1)
    monkeypatch.setattr(rowsync.cli, "run_all", partial(run_all, samples=8, family_samples=4))
    code, out = run_main(["lemmas"], capsys)
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "rank-monotonicity: 8 checks, 8 violations"
    assert all(line.startswith("  sample ") and ": elimination rank " in line for line in lines[1:6])
    assert [line.split(":")[0] for line in lines[6:]] == ["sum-conditions", "basis-dimension", "sink-equation"]
    assert all(line.endswith(" checks, ok") for line in lines[6:])
    code, out = run_main(["lemmas", "--json"], capsys)
    assert code == 2
    suites = json.loads(out)["report"]["suites"]
    assert [s["ok"] for s in suites] == [False, True, True, True]
    assert len(suites[0]["violations"]) == 8


def test_probe_honours_limit_with_given_word(tmp_path, capsys):
    path = str(tmp_path / "c14.txt")
    assert main(["gen", "cerny", "--n", "14", "-o", path]) == 0
    word = "b" + ("a" * 13 + "b") * 12
    code, out = run_main(["probe", path, "--word", word, "--limit", "5", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["limit"] == 5
    report = doc["report"]
    assert report["bound_verdict"] == {"n": 14, "bound": 169, "length": None,
                                       "status": "skipped-capacity"}
    assert "exact bound check skipped: state count above the exact-search limit" in report["notes"]


def test_probe_without_word_searches_once(cerny3_path, capsys, monkeypatch):
    import rowsync.automaton
    import rowsync.cli
    import rowsync.probe

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((rowsync.cli, "shortest_reset_word"), (rowsync.probe, "shortest_reset_length"),
                         (rowsync.automaton, "_search")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    code, out = run_main(["probe", cerny3_path, "--json"], capsys)
    assert code == 0
    assert calls == ["shortest_reset_word", "_search"]
    assert json.loads(out)["report"]["bound_verdict"] == {
        "n": 3, "bound": 4, "length": 4, "status": "within-bound"}


class PoolRecorder:
    """Stands in for multiprocessing.Pool: records its size, maps in-process."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


def test_enum_jobs_clamped_to_shards_and_cpus(capsys, monkeypatch):
    import multiprocessing

    import rowsync.automaton

    monkeypatch.setattr(multiprocessing, "Pool", PoolRecorder)
    monkeypatch.setattr(PoolRecorder, "sizes", [])
    code, out = run_main(["enum", "--n", "1", "--k", "1", "--jobs", "2", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["report"]["total_tables"] == 1
    assert PoolRecorder.sizes == []

    monkeypatch.setattr(rowsync.automaton.os, "cpu_count", lambda: 1)
    code, serial = run_main(["enum", "--n", "2", "--k", "2", "--jobs", "8", "--json"], capsys)
    assert PoolRecorder.sizes == []

    monkeypatch.setattr(rowsync.automaton.os, "cpu_count", lambda: 2)
    code, parallel = run_main(["enum", "--n", "2", "--k", "2", "--jobs", "8", "--json"], capsys)
    assert PoolRecorder.sizes == [2]
    assert json.loads(parallel)["report"] == json.loads(serial)["report"]


# sha256 of json.dumps(report, sort_keys=True).  The probe and trace hashes
# were recorded before the elimination kernel moved to sparse rows; the prefix
# trace, the matching and the family rank must all come out unchanged.  The
# check hashes were recorded on the search with one 8-state table per chunk,
# before it moved to three fixed chunk tables; at 17 to 24 states all three
# tables hold states.  The one-state hashes were recorded before the probe
# stopped special-casing n = 1 around its distinctive columns.  The C_20 hash
# was recorded on the forward-only search, before the backward side joined it.
# The C_18 probe and the C_15 trace were recorded while matrices still entered
# the basis as dense n*n vectors and every elimination step divided out a gcd.
# Every probe hash was recorded while the family rank was still measured by an
# exact elimination (for C_18, one holding echelon entries up to 17); the probe
# now derives that rank and the solution verdict from the matching, so these
# hashes passing show that the derived fields equal the measured ones.  The
# schema-2 probe hashes were derived from the schema-1 code's reports, with
# independence_expected and independence_ok dropped and the corollary1_* keys
# renamed to prefix_column_*.  The schema-3 probe and trace hashes were derived
# from the schema-2 code's reports, with each prefix record's word dropped and
# prefix_column_verdicts replaced in place by prefix_column_failures, the
# lengths whose verdict was false; the check hashes are unchanged.
@pytest.mark.parametrize("gen,verb,sha256", [
    (["cerny", "--n", "9"], "probe",
     "d289a4110d224cb8ad824b7337294c40ed6f473d6a8dd03809666b013f3e14e3"),
    (["random", "--n", "14", "--k", "2", "--seed", "0"], "probe",
     "662e795bc6564d33c63f03e4429eae14a142650fb1b140eac0fa84d8770ed4f5"),
    (["cerny", "--n", "7"], "trace",
     "6d8d6c5db50bc55b317dfbec92fe6d4f28d2c538dcb5454d222a05aac8e29f2e"),
    (["cerny", "--n", "17"], "check",
     "3d7ca2479dfb4cee52579b6db8023ef6efb712ac3a0cb75737111e41842dc8f6"),
    (["random", "--n", "24", "--k", "3", "--seed", "0"], "check",
     "9312e54529dc0bf10cddbf1452a7a46ad8ca1b0a8a5b173174bcebd057ad2995"),
    (["random", "--n", "22", "--k", "2", "--seed", "0"], "check",
     "d4a6a0beff39631c7cadee91d6cf701a91fe44cc8452532a9fbd54abe2f47d3d"),
    (["random", "--n", "1", "--k", "2", "--seed", "0"], "probe",
     "8299e6185d5d6b6725a8c1ea34f7774c13ab9440ee993a4dfe84e7f1b422ee5d"),
    (["random", "--n", "1", "--k", "2", "--seed", "0"], "trace",
     "0a73963d6f0df61f98e432d81eceafaf6ec8428c1e1711f31d5628a2f0c55781"),
    (["cerny", "--n", "20"], "check",
     "533646e3c15e7d4a73dbb29a77cc8ab66dbe24393b27116495b49bbd15e43670"),
    (["cerny", "--n", "18"], "probe",
     "4b5cd7d5a2c2497bf1ff40b935ada7260bcf1bf3bbbb2cca34c53300a2f87fd3"),
    (["cerny", "--n", "15"], "trace",
     "8a0295c43a8531e234c903d45a05b644a4cfa7d39f00bb48fcce55d727fa93ba"),
], ids=["probe-cerny9", "probe-random14", "trace-cerny7", "check-cerny17", "check-random24",
        "check-random22", "probe-random1", "trace-random1", "check-cerny20", "probe-cerny18",
        "trace-cerny15"])
def test_report_documents_pinned(tmp_path, capsys, gen, verb, sha256):
    path = str(tmp_path / "dfa.txt")
    assert main(["gen", *gen, "-o", path]) == 0
    code, out = run_main([verb, path, "--json"], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == sha256


def test_probe_truncation_and_shortfall_pinned(tmp_path, capsys):
    # C_4's shortest word baaabaaab with a prepended: ten prefixes, nine of
    # rank above one, of which the probe keeps n(n-2) = 8, and the length-1
    # prefix finds no distinctive cell.  Recorded before the matching read
    # the prefix images from the walk; the schema-2 hash was derived from the
    # schema-1 code's report with the two independence aliases dropped and the
    # corollary1_* keys renamed to prefix_column_*, and the schema-3 hash from
    # the schema-2 code's report with the prefix words dropped and the
    # prefix-column verdicts turned into the lengths where they fail.
    path = tmp_path / "c4.txt"
    path.write_text(CERNY4_TEXT)
    code, out = run_main(["probe", str(path), "--word", "abaaabaaab", "--json"], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["notes"][1:] == ["9 prefixes with rank above one, keeping the first 8",
                                   "matching shortfall: 1 prefixes without a distinctive cell"]
    assert report["matching"]["unmatched_prefix_lengths"] == [1]
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == \
        "2b11807a5e9300ee03da5c53c5e976f61daeb4ae857113a0b1ec35a9be08f218"
    code, out = run_main(["probe", str(path), "--word", "abaaabaaab"], capsys)
    assert code == 0
    assert out == ("reset word: abaaabaaab (length 10), sink 1\n"
                   "prefixes offered: 8, cells: 8, matching: short by 1\n"
                   "prefix-column claim: 7 of 10 prefixes keep column 1 nonzero (3 counterexamples)\n"
                   "bound: length 9 vs (n-1)^2 = 9: within-bound\n"
                   "note: empty prefix excluded by convention\n"
                   "note: 9 prefixes with rank above one, keeping the first 8\n"
                   "note: matching shortfall: 1 prefixes without a distinctive cell\n")


def test_trace_prefixes_past_26_letters(tmp_path, capsys):
    # Letters 11 and 12 act as C_3's rotation and merge; the other 25 fix
    # every state.  With 27 letters words render as comma-separated indices.
    # The schema-3 JSON hash and table were derived from the schema-2 code's
    # output: each record's prefix word dropped, and the table mapped onto the
    # word printed once and each prefix's last letter, padded to the widest
    # letter so that |R| and dim stay aligned.
    rows = [" ".join(map(str, range(3)))] * 27
    rows[11], rows[12] = "1 2 0", "1 1 2"
    path = tmp_path / "k27.txt"
    path.write_text("3 27\n" + "\n".join(rows) + "\n")
    code, out = run_main(["trace", str(path), "--json"], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["word"] == "12,11,11,12"
    assert [r["length"] for r in report["records"]] == [1, 2, 3, 4]
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == \
        "ea13f2298ea13940016a7eb8ad11a47ee3f764e21f93cb01795b795041ee5038"
    code, out = run_main(["trace", str(path)], capsys)
    assert code == 0
    assert out == ("word: 12,11,11,12\n"
                   " len      |R|  dim\n"
                   "   1  12    2    1\n"
                   "   2  11    2    2\n"
                   "   3  11    2    3\n"
                   "   4  12    1    4\n")
    c4 = tmp_path / "c4.txt"
    c4.write_text(CERNY4_TEXT)
    for table in (out, run_main(["trace", str(c4)], capsys)[1]):
        assert len({len(line) for line in table.splitlines()[1:]}) == 1


def test_reports_linear_in_the_word(tmp_path, capsys):
    # C_34's shortest word b(a^33 b)^32 has 1,089 letters.  A report that
    # repeats each prefix grows as the square of the word's length, so these
    # caps, a fixed number of bytes per prefix, fail it.  The schema-2 reports
    # took 654 (trace --json), 1,205 (probe --json) and 1,107 (trace) bytes
    # per prefix.
    path = tmp_path / "c34.txt"
    write_dfa(cerny_automaton(34), str(path))
    word = "b" + ("a" * 33 + "b") * 32
    for verb, flags, cap in (("trace", ["--json"], 128), ("probe", ["--json"], 640), ("trace", [], 32)):
        code, out = run_main([verb, str(path), "--word", word, *flags], capsys)
        assert code == 0
        assert len(out.encode()) <= cap * len(word), (verb, flags)


def test_render_matches_stdlib_json(tmp_path, monkeypatch):
    # render writes --json reports with its own encoder; the stdlib's
    # json.dumps(document, indent=2) is the oracle for every byte.
    import rowsync.cli

    monkeypatch.setattr(rowsync.cli, "run_all", partial(run_all, samples=200, family_samples=20))
    configs = [RunConfig(command="enum", n=3, k=2), RunConfig(command="enum", n=2, k=2, budget=16),
               RunConfig(command="lemmas", seed=1), RunConfig(command="gen", kind="cerny", n=5, k=2),
               RunConfig(command="gen", kind="random", n=4, k=3, seed=7, dot=True)]
    tables = [cerny_automaton(n) for n in range(3, 9)] + [random_dfa(6, 2, 1), random_dfa(7, 3, 2)]
    for i, dfa in enumerate(tables):
        path = tmp_path / f"t{i}.txt"
        path.write_text(write_dfa_text(dfa))
        path = str(path)
        configs += [RunConfig(command="check", path=path), RunConfig(command="probe", path=path),
                    RunConfig(command="trace", path=path), RunConfig(command="matrix", path=path, word="ab"),
                    RunConfig(command="matrix", path=path, dot=True)]
    # The probe of test_probe_truncation_and_shortfall_pinned: its assignments
    # hold a None, and its solutions are [].
    shortfall = tmp_path / "c4.txt"
    shortfall.write_text(CERNY4_TEXT)
    configs.append(RunConfig(command="probe", path=str(shortfall), word="abaaabaaab"))
    for config in configs:
        config = replace(config, json_output=True)
        result = run(config)
        assert render(result, config) == json.dumps(result.document, indent=2) + "\n"
        assert render(result, replace(config, json_output=False)) == result.human

    edge = {"empty": [[], {}, [[]], [{}], [[], []], [{}, {}]], "deep": [[[[{"a": [[{"b": {}}]]}]]]],
            "na\u00efve \"q\" \\": ["caf\u00e9 \U0001f600", "tab\tnew\nline", "\"\\", ""],
            "scalars": [1, True, 0, None, -3, 2 ** 70], "bools": [True, False], "ints": [7, -1, 2 ** 70],
            "float": 0.1, "floats": [1e300, -0.0, 2.5], "tuple": (1, ("x", 2)), "nested": {"k": {"l": None}},
            "keys": {3: "int", 2.5: "float", False: "bool", None: "null"},
            # The bulk shapes, written from one format string, and their near misses.
            "rows": [[0, 1, 2], [2, 2, 0]], "rows_bool": [[0, 1], [True, 0]],
            "rows_big": [[2 ** 70, -3], [-(2 ** 70), 0]], "rows_ragged": [[1, 2], [3]],
            "rows_tuples": [(1, 2), (3, 4)], "records": [{"a": 1, "b": -2}, {"a": 3, "b": 2 ** 70}],
            "records_reordered": [{"a": 1, "b": 2}, {"b": 3, "a": 4}],
            "records_extra_key": [{"a": 1}, {"a": 2, "b": 3}], "records_none": [{"a": 1}, None],
            "records_odd_keys": [{"100%d %s": 1, "caf\u00e9": 2}, {"100%d %s": 3, "caf\u00e9": 4}]}
    config = RunConfig(command="check", json_output=True)
    assert render(RunResult(0, edge, ""), config) == json.dumps(edge, indent=2) + "\n"
    for bad in ({"x": [1, {2}]}, {"x": {(1, 2): 3}}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            render(RunResult(0, bad, ""), config)


def test_render_calls_independent_of_word_length(tmp_path, monkeypatch):
    # Each per-prefix list (prefix records, assignments, solutions) is written
    # from one format string, so rendering C_34's reports for b(a^33 b)^32
    # (1,088 prefixes) takes no more encoder calls than C_6's for its
    # 25-letter shortest word.  Written item by item, they took 9,841 (probe)
    # and 4,373 (trace) calls, against 264 and 117.
    import rowsync.cli

    encode = rowsync.cli._encode
    calls = Counter()

    def counted(value, pad):
        calls[label] += 1
        return encode(value, pad)

    monkeypatch.setattr(rowsync.cli, "_encode", counted)
    for n, word in ((6, None), (34, "b" + ("a" * 33 + "b") * 32)):
        path = tmp_path / f"c{n}.txt"
        path.write_text(write_dfa_text(cerny_automaton(n)))
        for verb in ("probe", "trace"):
            label = (verb, n)
            config = RunConfig(command=verb, path=str(path), word=word, json_output=True)
            result = run(config)
            assert render(result, config) == json.dumps(result.document, indent=2) + "\n"
    for verb in ("probe", "trace"):
        assert calls[verb, 34] <= calls[verb, 6] + 4, calls


# sha256 of the rendered --json text, so the layout is pinned and not only the
# parsed report.  Recorded with json.dumps(document, indent=2), or with the
# direct encoder test_render_matches_stdlib_json holds to it, before the
# enum walker's tail cache (enum (4,3): before the walker combined its chunk
# tables); the probe's config path is fixed so that the hash does not depend
# on where the input was written.  The schema-2 hashes were derived from the
# schema-1 code's documents: config.command, config.q, config.filter, enum's
# examined and the probe's two independence aliases dropped, the corollary1_*
# keys renamed in place to prefix_column_*, schema_version set to 2, and the
# result rendered again with json.dumps(document, indent=2).  The schema-3
# hashes were derived the same way from the schema-2 code's documents:
# schema_version set to 3, each prefix record's word dropped, and
# prefix_column_verdicts replaced in place by prefix_column_failures.
@pytest.mark.parametrize("argv,sha256", [
    (["enum", "--n", "3", "--k", "2"], "29f52427377e0817478d312aa54ee37b944d7c6886c19ae38cc9253fdf21e7fa"),
    (["enum", "--n", "3", "--k", "3"], "75d63d1555d51174987a8b7d056e464c1d58ad63f14e48878a3aad36fcfc9ce2"),
    (["enum", "--n", "3", "--k", "3", "--jobs", "2"],
     "b96edfcd39ed5c0b5ecd1c22222dcefadfe8bfb311f54e69d3558a5596ab350f"),
    (["enum", "--n", "4", "--k", "2"], "af790b35db88ed3cd0d3de72764c2e0cdded9a5628b3df5afa75a1165da3d223"),
    (["enum", "--n", "2", "--k", "4"], "f956510b03721388a7d573268cde77dea566d3b66082252d4d0f60c22424b9dc"),
    (["enum", "--n", "4", "--k", "1"], "89d74182e4af8eab093c2a5dc74cb34106f85453e16e5dec81825c360266b560"),
    (["enum", "--n", "4", "--k", "3", "--budget", "16777216"],
     "511f3bf10887422cca3a8cd8af8fedb2a6dff753ba0735e64a87e2412f68bb3a"),
    (["gen", "cerny", "--n", "6"], "c68794a4ff967c1008a9b2c3c4545120e99f3a8ff4bcacc88d630833559139b7"),
    (["probe", "c6.txt"], "87ce56ca737da869191022813a395e87582496be2370f69f28d1bd2d5728311b"),
], ids=["enum-3-2", "enum-3-3", "enum-3-3-jobs2", "enum-4-2", "enum-2-4", "enum-4-1", "enum-4-3",
        "gen-cerny6", "probe-cerny6"])
def test_rendered_json_bytes_pinned(tmp_path, argv, sha256):
    if argv[0] == "probe":
        path = tmp_path / argv[1]
        path.write_text(write_dfa_text(cerny_automaton(6)))
        argv = ["probe", str(path)]
    config = config_from_args(build_parser().parse_args([*argv, "--json"]))
    result = run(config)
    if argv[0] == "probe":
        result.document["config"]["path"] = "c6.txt"
    assert hashlib.sha256(render(result, config).encode()).hexdigest() == sha256

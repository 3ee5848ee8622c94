"""Allocation probe, prefix traces, matching, and bound verdicts."""

import hashlib
import itertools
import json
import random
from collections import deque

import pytest

import rowsync.probe
from rowsync.automaton import (Dfa, cerny_automaton, greedy_reset_word, random_dfa,
                               shortest_reset_word, write_dfa)
from rowsync.cli import RunConfig, main, run
from rowsync.equation import is_solution, sink_matrix
from rowsync.errors import DomainError, RowsyncError
from rowsync.exactlin import span_dimension
from rowsync.probe import allocation_probe, bound_check, maximum_matching, prefix_trace
from rowsync.rowmon import RowMonomialMatrix, matrix_of_word, multiply, nonzero_columns, rank
from test_exactlin import oracle_rank


def test_prefix_trace_cerny3_frozen():
    c3 = cerny_automaton(3)
    word = shortest_reset_word(c3)
    assert word == (1, 0, 0, 1)
    trace = prefix_trace(c3, word)
    assert trace.r_sizes == (2, 2, 2, 1)
    assert trace.dimensions == (1, 2, 3, 4)
    assert trace.word == word
    rows = trace.to_json()
    assert rows[0] == {"length": 1, "r_size": 2, "dimension": 1}


def test_prefix_trace_rejects_non_reset_word():
    c3 = cerny_automaton(3)
    with pytest.raises(DomainError):
        prefix_trace(c3, (0,))
    with pytest.raises(DomainError):
        prefix_trace(c3, ())


def test_prefix_trace_monotone_on_random_automata():
    hits = 0
    for seed in range(120):
        dfa = random_dfa(4, 2, seed=seed)
        word = shortest_reset_word(dfa)
        if word is None:
            continue
        hits += 1
        trace = prefix_trace(dfa, word)
        sizes, dims = trace.r_sizes, trace.dimensions
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert all(a <= b for a, b in zip(dims, dims[1:]))
        assert dims[-1] <= dfa.n * (dfa.n - 1) + 1
    assert hits > 50


def test_maximum_matching_augments():
    # With one column block, cell v is row v.
    assert maximum_matching([[0, 1], [0]], 2, 1) == [1, 0]
    assert maximum_matching([[0], [0]], 2, 1) == [0, None]
    assert maximum_matching([], 3, 1) == []
    assert maximum_matching([[]], 2, 1) == [None]
    crowded = maximum_matching([[1], [0, 1], [0]], 2, 1)
    matched = [v for v in crowded if v is not None]
    assert len(matched) == 2 and len(set(matched)) == 2
    # Cell v is (row v % n, block v // n), tried block by block: the second
    # vertex takes row 1 in block 0, not row 0 in block 1.
    assert maximum_matching([[0], [0, 1]], 2, 2) == [0, 1]
    assert maximum_matching([[1], [1], [1]], 3, 2) == [1, 4, None]
    # The third phase reaches row 3 through vertex 0, which the second moved
    # from row 0 to row 2, so row 2, not row 0, must list it as a partner.
    assert maximum_matching([[0, 2, 3], [1, 2], [0, 1], [0, 1]], 4, 1) == [3, 2, 0, 1]


def test_maximum_matching_deterministic():
    free_rows = [[0, 2], [0, 1], [1, 2], [2]]
    first = maximum_matching(free_rows, 3, 1)
    assert first == maximum_matching(free_rows, 3, 1)
    assert sum(1 for v in first if v is not None) == 3
    second = maximum_matching(free_rows, 3, 2)
    assert second == maximum_matching(free_rows, 3, 2) == [0, 1, 2, 5]


def listed_matching(adjacency, right_size):
    """Hopcroft-Karp over an explicit adjacency list, the oracle for maximum_matching.

    Repeated breadth-first layering over every listed edge, then augmenting
    paths along the layers, each vertex trying its cells in listed order.
    """
    left_size = len(adjacency)
    match_left = [None] * left_size
    match_right = [None] * right_size
    unreachable = left_size + right_size + 1
    dist = [0] * left_size

    def bfs():
        queue = deque()
        for u in range(left_size):
            if match_left[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = unreachable
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_right[v]
                if w is None:
                    found = True
                elif dist[w] == unreachable:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u):
        for v in adjacency[u]:
            w = match_right[v]
            if w is None or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = unreachable
        return False

    while bfs():
        for u in range(left_size):
            if match_left[u] is None:
                dfs(u)
    return match_left


def listed_cells(free_rows, n, columns):
    """Each left vertex's cells, block by block, in its free rows' order."""
    return [[start + r for start in range(0, n * columns, n) for r in free] for free in free_rows]


def first_fit(free_rows, n, columns):
    """Each left vertex in turn takes its first cell not taken yet."""
    taken, out = set(), []
    for cells in listed_cells(free_rows, n, columns):
        v = next((v for v in cells if v not in taken), None)
        taken.add(v)
        out.append(v)
    return out


def probed_families(subjects, monkeypatch):
    """The (free_rows, n, columns) that allocation_probe offers the matching."""
    families = []

    def recording(free_rows, n, columns):
        families.append((free_rows, n, columns))
        return maximum_matching(free_rows, n, columns)

    with monkeypatch.context() as patch:
        patch.setattr(rowsync.probe, "maximum_matching", recording)
        for dfa, word in subjects:
            allocation_probe(dfa, word)
    return families


def synthetic_families():
    # Every family of four vertices over four rows, each with two or three
    # free rows: 3,567 of the 10,000 need augmenting paths.
    subsets = [list(s) for k in (2, 3) for s in itertools.combinations(range(4), k)]
    for free_rows in itertools.product(subsets, repeat=4):
        yield list(free_rows), 4, 1
    rng = random.Random(28)
    for n in range(2, 10):
        for columns in range(1, n + 1):
            for left in range(n * columns + 4):
                # The row density varies, so some families are crowded and some sparse.
                p = rng.random()
                yield [[r for r in range(n) if rng.random() < p] for _ in range(left)], n, columns


def test_maximum_matching_against_listed_oracle(monkeypatch):
    subjects = []
    for n in range(2, 25):
        dfa = cerny_automaton(n)
        subjects.append((dfa, shortest_reset_word(dfa)))
    seed = 0
    while len(subjects) < 23 + 100:
        dfa = random_dfa(13 + seed % 12, 2 + seed // 12 % 2, seed=seed)
        seed += 1
        word = shortest_reset_word(dfa)
        if word is not None:
            subjects.append((dfa, word))
    probed = probed_families(subjects, monkeypatch)
    assert len(probed) == len(subjects)
    assert max(len(free_rows) for free_rows, _, _ in probed) == 24 * 22
    augmented = 0
    for free_rows, n, columns in [*probed, *synthetic_families()]:
        expected = listed_matching(listed_cells(free_rows, n, columns), n * columns)
        assert maximum_matching(free_rows, n, columns) == expected, (free_rows, n, columns)
        augmented += expected != first_fit(free_rows, n, columns)
    assert augmented > 0


def test_allocation_probe_cerny3_frozen():
    c3 = cerny_automaton(3)
    rep = allocation_probe(c3, shortest_reset_word(c3))
    assert rep.q == 1
    assert rep.matching.success
    assert rep.matching.prefix_count == 3
    assert rep.matching.cell_count == 3
    assert rep.matching.cell_columns == (0,)
    assert rep.matching.assignments == ((1, 0, 0), (2, 1, 0), (3, 2, 0))
    assert [s.targets for s in rep.solutions] == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert rep.solutions_ok
    assert rep.independence_rank == 4 == len(rep.solutions) + 1
    assert rep.prefix_column_failures == (2,)
    assert rep.bound.status == "within-bound" and rep.bound.length == 4


def test_allocation_probe_solutions_solve_their_prefixes():
    c4 = cerny_automaton(4)
    word = shortest_reset_word(c4)
    rep = allocation_probe(c4, word)
    assert rep.matching.success and rep.solutions_ok
    rows = rep.trace.to_json()
    for assignment, sol in zip(rep.matching.assignments, rep.solutions):
        length = assignment[0]
        prefix = word[:length]
        assert is_solution(matrix_of_word(c4, prefix), sol, rep.q)
        assert rows[length - 1]["length"] == length


def test_prefix_column_counterexample_counts():
    counts = []
    for n in (3, 4, 5, 6):
        dfa = cerny_automaton(n)
        rep = allocation_probe(dfa, shortest_reset_word(dfa))
        counts.append(len(rep.prefix_column_failures))
        assert rep.matching.success and rep.solutions_ok
    assert counts == [1, 3, 6, 10]


def test_allocation_probe_q_is_the_sink():
    # q is read off the walk, the one state the whole word maps every state to;
    # there is no parameter to restate it.
    for n in range(3, 7):
        dfa = cerny_automaton(n)
        word = shortest_reset_word(dfa)
        for w in (word, (0,) + word, (1,) + word, word + (0,)):
            assert set(matrix_of_word(dfa, w).targets) == {allocation_probe(dfa, w).q}
    c3 = cerny_automaton(3)
    with pytest.raises(TypeError):
        allocation_probe(c3, shortest_reset_word(c3), q=1)


def test_allocation_probe_two_states():
    dfa = Dfa(2, 2, ((0, 1), (0, 0)))
    rep = allocation_probe(dfa, (1,))
    assert rep.matching.prefix_count == 0 and rep.matching.cell_count == 0
    assert rep.matching.success and rep.solutions == () and rep.solutions_ok
    assert rep.independence_rank == 1 and rep.solutions_ok
    rep = allocation_probe(dfa, (0, 1))
    assert rep.matching.prefix_count == 0
    assert any("keeping the first 0" in note for note in rep.notes)
    assert rep.independence_rank == 1


def test_probe_determinism():
    c5 = cerny_automaton(5)
    word = shortest_reset_word(c5)
    a = allocation_probe(c5, word)
    b = allocation_probe(c5, word)
    assert a == b
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_probe_json_shape():
    c3 = cerny_automaton(3)
    doc = allocation_probe(c3, shortest_reset_word(c3)).to_json_dict()
    assert doc["automaton"] == {"n": 3, "k": 2, "delta": [[1, 2, 0], [1, 1, 2]]}
    assert doc["reset_word"] == "baab"
    assert doc["q"] == 1
    assert doc["prefix_column_counterexamples"] == 1
    assert doc["matching"]["assignments"][0] == {"prefix_length": 1, "row": 0, "column": 0}
    assert doc["bound_verdict"] == {"n": 3, "bound": 4, "length": 4, "status": "within-bound"}
    json.dumps(doc)


def test_bound_check_statuses():
    assert bound_check(cerny_automaton(3)).status == "within-bound"
    flip = Dfa(2, 1, ((1, 0),))
    verdict = bound_check(flip)
    assert verdict.status == "not-synchronizing" and verdict.length is None


def test_probe_skips_bound_above_exact_limit():
    n = 25
    collapse = Dfa(n, 1, (tuple([0] * n),))
    rep = allocation_probe(collapse, (0,))
    assert rep.bound.status == "skipped-capacity" and rep.bound.length is None
    assert any("exact-search limit" in note for note in rep.notes)
    assert rep.matching.success


def test_probe_with_greedy_word_on_larger_cerny():
    c6 = cerny_automaton(6)
    word = greedy_reset_word(c6)
    rep = allocation_probe(c6, word)
    assert rep.q == 1
    for assignment, sol in zip(rep.matching.assignments, rep.solutions):
        if assignment is not None:
            assert rank(multiply(matrix_of_word(c6, word[:assignment[0]]), sol)) == 1


def test_probe_all_synchronizing_three_state():
    full = ok = 0
    for table in itertools.product(range(3), repeat=6):
        dfa = Dfa(3, 2, (table[:3], table[3:]))
        word = shortest_reset_word(dfa)
        if word is None:
            continue
        rep = allocation_probe(dfa, word)
        full += rep.matching.success
        ok += bool(rep.matching.success and rep.solutions_ok
                   and rep.independence_rank == len(rep.solutions) + 1)
    assert full == 549
    assert ok == 549


def flattened_prefixes(dfa, word):
    """Row-major 0/1 vectors of the nonempty prefix matrices, built here."""
    n = dfa.n
    out = []
    targets = list(range(n))
    for a in word:
        targets = [dfa.delta[a][t] for t in targets]
        vec = [0] * (n * n)
        for i, t in enumerate(targets):
            vec[i * n + t] = 1
        out.append(vec)
    return out


def assert_trace_matches_oracle(dfa, word):
    """Every prefix dimension of the trace equals oracle_rank of the prefix rows.

    Calling the oracle on every prefix would repeat the elimination of the
    first rows once per prefix, so this checks an equivalent statement with
    one oracle call per prefix that does not raise the dimension, plus one.
    The oracle rank of the first i rows rises by 0 or 1 per row, and by 1
    exactly when row i lies outside the span of the rows before it, which is
    the span of the rows before it that raised the rank.  So the trace's
    dimensions are the oracle's at every prefix exactly when they start at
    0 or 1 and rise by 0 or 1 per prefix, the rows where they rise are
    independent, and each other row lies in the span of the rising rows
    before it.
    """
    rows = flattened_prefixes(dfa, word)
    dims = list(prefix_trace(dfa, word).dimensions)
    assert len(dims) == len(rows)
    steps = [b - a for a, b in zip([0] + dims, dims)]
    assert set(steps) <= {0, 1}
    rising = [row for row, step in zip(rows, steps) if step]
    assert oracle_rank(rising) == len(rising)
    for i, step in enumerate(steps):
        if not step:
            before = [row for row, s in zip(rows[:i], steps) if s]
            assert oracle_rank(before + [rows[i]]) == len(before)


@pytest.mark.parametrize("n", range(3, 13))
def test_prefix_trace_dimensions_against_oracle_cerny(n):
    dfa = cerny_automaton(n)
    assert_trace_matches_oracle(dfa, shortest_reset_word(dfa))


def test_prefix_trace_dimensions_against_oracle_random():
    checked = 0
    for seed in range(200):
        dfa = random_dfa(3 + seed % 10, 2 + seed % 2, seed=seed)
        word = shortest_reset_word(dfa)
        if word is None:
            continue
        assert_trace_matches_oracle(dfa, word)
        checked += 1
        if checked == 20:
            break
    assert checked == 20


def assert_prefix_facts_match_rowmon(dfa, word):
    """Rank, sink-column verdict and JSON row of every prefix, each from its own matrix."""
    trace = prefix_trace(dfa, word)
    rep = allocation_probe(dfa, word)
    rows = trace.to_json()
    assert len(trace.r_sizes) == len(trace.dimensions) == len(rows) == len(word)
    failures = []
    for i in range(1, len(word) + 1):
        m = matrix_of_word(dfa, word[:i])
        assert trace.r_sizes[i - 1] == rank(m)
        if rep.q not in nonzero_columns(m):
            failures.append(i)
        assert rows[i - 1] == {"length": i, "r_size": rank(m), "dimension": trace.dimensions[i - 1]}
    assert rep.prefix_column_failures == tuple(failures)


def test_prefix_facts_against_rowmon():
    for n in range(3, 11):
        dfa = cerny_automaton(n)
        assert_prefix_facts_match_rowmon(dfa, shortest_reset_word(dfa))
    checked = 0
    for seed in range(400):
        dfa = random_dfa(3 + seed % 10, 2 + seed % 2, seed=seed)
        word = shortest_reset_word(dfa)
        if word is None:
            continue
        assert_prefix_facts_match_rowmon(dfa, word)
        checked += 1
        if checked == 40:
            break
    assert checked == 40


def probe_subjects():
    """Shortest and longer reset words, some truncated and some falling short.

    (0,) + word on C_4 is the pinned abaaabaaab case, truncated and short by one.
    """
    subjects = []
    for n in range(3, 13):
        dfa = cerny_automaton(n)
        word = shortest_reset_word(dfa)
        subjects.append((dfa, word))
        if n <= 8:
            subjects += [(dfa, (0,) + word), (dfa, (0, 1) + word), (dfa, (0,) * n + word)]
    assert (cerny_automaton(4), (0, 1, 0, 0, 0, 1, 0, 0, 0, 1)) in subjects
    checked = 0
    for seed in range(200):
        dfa = random_dfa(3 + seed % 9, 2 + seed % 2, seed=seed)
        word = shortest_reset_word(dfa)
        if word is None:
            continue
        subjects += [(dfa, word), (dfa, greedy_reset_word(dfa)), (dfa, (seed % dfa.k, 0) + word)]
        checked += 1
        if checked == 40:
            break
    assert checked == 40
    return subjects


def test_probe_verdicts_against_elimination():
    """The certified verdicts equal what multiplication and exact elimination measure."""
    full = short = truncated = 0
    for dfa, word in probe_subjects():
        rep = allocation_probe(dfa, word)
        truncated += any("keeping the first" in note for note in rep.notes)
        fields = (rep.solutions_ok, rep.independence_rank)
        if not rep.matching.success:
            short += 1
            assert fields == (None, None)
            assert rep.solutions == ()
            continue
        full += 1
        for (length, _, _), sol in zip(rep.matching.assignments, rep.solutions):
            assert is_solution(matrix_of_word(dfa, word[:length]), sol, rep.q)
        measured = span_dimension((*rep.solutions, sink_matrix(dfa.n, rep.q)))
        assert fields == (True, measured)
        assert measured == len(rep.solutions) + 1
    assert full > 50 and short > 10 and truncated > 10


def oracle_subjects():
    """C_2..C_12 and the first 40 synchronizing seeded random automata, each
    with its shortest word and a longer word: an extra leading letter on C_n,
    the greedy word on the random ones."""
    subjects = []
    for n in range(2, 13):
        dfa = cerny_automaton(n)
        word = shortest_reset_word(dfa)
        subjects += [(dfa, word), (dfa, (0,) + word)]
    picked = seed = 0
    while picked < 40:
        dfa = random_dfa(3 + seed % 10, 2 + seed % 2, seed=seed)
        seed += 1
        word = shortest_reset_word(dfa)
        if word is not None:
            subjects += [(dfa, word), (dfa, greedy_reset_word(dfa))]
            picked += 1
    return subjects


def walk_targets(dfa, word):
    """Each nonempty prefix's targets, one state at a time: target[x] is where x goes."""
    targets = list(range(dfa.n))
    for a in word:
        targets = [dfa.delta[a][x] for x in targets]
        yield targets


def test_prefix_column_failures_and_solutions_against_a_walk():
    """The report's failure lengths and solution lists, each rebuilt here from the walk or the assignments."""
    full = short = 0
    for dfa, word in oracle_subjects():
        report = allocation_probe(dfa, word).to_json_dict()
        q = report["q"]
        prefixes = list(walk_targets(dfa, word))
        assert set(prefixes[-1]) == {q}
        failures = [i for i, targets in enumerate(prefixes, start=1) if q not in targets]
        assert report["prefix_column_failures"] == failures
        assert report["prefix_column_counterexamples"] == len(failures)
        matching = report["matching"]
        if not matching["success"]:
            short += 1
            assert report["solutions"] == [] and report["solutions_ok"] is None
            continue
        full += 1
        assignments = matching["assignments"]
        rebuilt = [[a["column"] if x == a["row"] else q for x in range(dfa.n)] for a in assignments]
        assert report["solutions"] == rebuilt
        for a, solution in zip(assignments, report["solutions"]):
            # M_u L is the sink matrix: every state reaches q through the prefix, then the solution.
            assert {solution[t] for t in prefixes[a["prefix_length"] - 1]} == {q}
            assert solution[a["row"]] == a["column"] != q
    assert full > 40 and short > 5


def test_probe_raises_on_a_broken_matching(monkeypatch, tmp_path, capsys):
    # Each fake breaks one fact of the certificate and keeps the others.
    c4 = cerny_automaton(4)
    word = shortest_reset_word(c4)

    def shared_cell(free_rows, n, columns):
        # Two prefixes that may both own the row-r cell of block 0; the rest unmatched.
        u, w, r = next((u, w, r) for u in range(len(free_rows)) for w in range(u)
                       for r in free_rows[u] if r in free_rows[w])
        return [r if x in (u, w) else None for x in range(len(free_rows))]

    def cell_inside_image(free_rows, n, columns):
        # A row outside a prefix's free rows lies inside its image.
        barred = next(r for r in range(n) if r not in free_rows[0])
        return [barred] + [None] * (len(free_rows) - 1)

    path = tmp_path / "c4.txt"
    write_dfa(c4, str(path))
    for broken in (shared_cell, cell_inside_image):
        monkeypatch.setattr(rowsync.probe, "maximum_matching", broken)
        with pytest.raises(RowsyncError, match="the matching is wrong"):
            allocation_probe(c4, word)
        assert main(["probe", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rowsync: error: maximum_matching assigned" in captured.err
        assert "the matching is wrong" in captured.err


def test_probe_matches_more_prefixes_than_the_recursion_limit():
    # b(a^33 b)^32 is C_34's shortest word, 33^2 letters; 34 states are above
    # the exact-search limit.  Its 1,088 prefixes of rank above one, more than
    # Python's default recursion limit of 1,000, fill all 34 * 32 cells.
    c34 = cerny_automaton(34)
    word = (1,) + ((0,) * 33 + (1,)) * 32
    rep = allocation_probe(c34, word)
    assert len(word) == 1089
    assert rep.matching.prefix_count == rep.matching.cell_count == 1088
    assert rep.matching.success and len(rep.solutions) == 1088
    assert rep.bound.status == "skipped-capacity"


def pinned_probe_subjects():
    """C_2..C_16 and the first 100 synchronizing seeded random automata, each
    with its shortest and its greedy word; C_n also with a longer word that
    falls short, and a 25-state collapse above the exact-search limit."""
    subjects = []
    for n in range(2, 17):
        dfa = cerny_automaton(n)
        word = shortest_reset_word(dfa)
        subjects += [(dfa, word), (dfa, greedy_reset_word(dfa)), (dfa, (0,) + word)]
    picked = seed = 0
    while picked < 100:
        dfa = random_dfa(3 + seed % 12, 2 + seed % 2, seed=seed)
        seed += 1
        word = shortest_reset_word(dfa)
        if word is not None:
            subjects += [(dfa, word), (dfa, greedy_reset_word(dfa))]
            picked += 1
    subjects.append((Dfa(25, 1, (tuple([0] * 25),)), (0,)))
    return subjects


def test_probe_reports_pinned():
    # Recorded before the verdicts became properties of the matching: each
    # report's JSON document and every verdict the report object answers.
    # The schema-2 digest was derived from the schema-1 code's reports, with
    # independence_expected and independence_ok dropped from the document and
    # the repr, and the two corollary1_* keys renamed in place to
    # prefix_column_*.  The schema-3 digest was derived from the schema-2
    # code's reports, with each prefix_trace record's word dropped and
    # prefix_column_verdicts replaced in place by prefix_column_failures, the
    # lengths whose verdict was false; this code reproduces it.
    digest = hashlib.sha256()
    short = truncated = skipped = 0
    for dfa, word in pinned_probe_subjects():
        rep = allocation_probe(dfa, word)
        digest.update(json.dumps(rep.to_json_dict()).encode())
        digest.update(repr((rep.matching.success, rep.matching.prefix_count, rep.solutions_ok,
                            rep.independence_rank, rep.bound.bound)).encode())
        short += not rep.matching.success
        truncated += any("keeping the first" in note for note in rep.notes)
        skipped += rep.bound.status == "skipped-capacity"
    assert (short, truncated, skipped) == (14, 28, 1)
    assert digest.hexdigest() == "50911e1b5e8c52fedaab54292fcb0b5bb4f5d7bd42e2205fd87a2d699d2efeff"


def test_probe_and_trace_build_no_matrix(monkeypatch, tmp_path):
    # The walk keeps each prefix's targets, and the report writes each
    # solution from its assignment; only reading .solutions builds matrices.
    built = []
    validate = RowMonomialMatrix.__post_init__

    def counting(self):
        built.append(list(self.targets))
        validate(self)

    monkeypatch.setattr(RowMonomialMatrix, "__post_init__", counting)
    path = tmp_path / "c6.txt"
    write_dfa(cerny_automaton(6), str(path))
    # C_6's shortest word, and that word after an 'a', which falls short of a full matching.
    for word in (None, "a" + "baaaaabaaaaabaaaaabaaaaab"):
        built.clear()
        report = run(RunConfig(command="probe", path=str(path), word=word)).document["report"]
        assert built == []
        assert len(report["solutions"]) == (24 if word is None else 0)
    run(RunConfig(command="trace", path=str(path)))
    run(RunConfig(command="trace", path=str(path), json_output=True))
    assert built == []
    c6 = cerny_automaton(6)
    rep = allocation_probe(c6, shortest_reset_word(c6))
    assert built == []
    solutions = rep.solutions
    assert len(built) == len(solutions) == 24
    assert built == [list(s.targets) for s in solutions] == rep.to_json_dict()["solutions"]

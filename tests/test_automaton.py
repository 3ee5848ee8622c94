"""Automaton construction, reset-word search and the text format.

The expensive searches are checked against two oracles that know nothing
about subset encodings: a brute force that tries every word in length order,
and a breadth-first search over frozensets.  Found words are checked with a
plain frozenset walk, image, which test_rowmon also uses as its oracle.  The
enumeration up to state relabelling and letter permutation is checked
against a brute force over all permutations and against a raw sweep of
every table.
"""

import hashlib
import random
from collections import Counter
from itertools import combinations, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rowsync.automaton
from rowsync.automaton import (EXACT_SEARCH_LIMIT, Dfa, cerny_automaton, cerny_bound,
                               check_word, conjugacy_classes, count_dfas, cubic_bound,
                               format_word, greedy_reset_word, is_strongly_connected,
                               is_synchronizing, parse_word, random_dfa, read_dfa_text,
                               shortest_reset_length, shortest_reset_word, to_dot, write_dfa_text)
from rowsync.cli import RunConfig, run
from rowsync.equation import sink_matrix
from rowsync.errors import CapacityError, DomainError, InvalidWordError, ParseError
from rowsync.exactlin import all_row_monomial, decompose_vij, vij_basis
from rowsync.rowmon import RowMonomialMatrix, identity

# Frozen oracle values, reproduced by brute_force_shortest below.
CERNY_WORDS = {2: "b", 3: "baab", 4: "baaabaaab"}


def all_tables(n, k):
    """Every n-state k-letter table, letter-major in lexicographic order: the raw sweep."""
    for flat in product(range(n), repeat=n * k):
        yield Dfa(n, k, tuple(flat[a * n:(a + 1) * n] for a in range(k)))


def image(dfa, states, word):
    """Image of a state set under a word, one frozenset per letter."""
    current = frozenset(states)
    for a in word:
        current = frozenset(dfa.delta[a][q] for q in current)
    return current


def brute_force_shortest(dfa, max_len):
    """First synchronizing word in (length, lexicographic) order, or None."""
    if dfa.n == 1:
        return ()
    for length in range(1, max_len + 1):
        for letters in product(range(dfa.k), repeat=length):
            image = set(range(dfa.n))
            for a in letters:
                row = dfa.delta[a]
                image = {row[q] for q in image}
            if len(image) == 1:
                return letters
    return None


def test_dfa_validation():
    with pytest.raises(DomainError):
        Dfa(0, 1, ())
    with pytest.raises(DomainError):
        Dfa(2, 0, ())
    with pytest.raises(DomainError):
        Dfa(2, 1, ((0, 2),))
    with pytest.raises(DomainError):
        Dfa(2, 2, ((0, 1),))
    d = Dfa(2, 1, [[1, 0]])
    assert d.delta == ((1, 0),)
    d = Dfa(2, 2, [[1, 0], (0, 1)])
    assert d.delta == ((1, 0), (0, 1))


@pytest.mark.parametrize("n,k,delta,message", [
    (2, 1, [[0, 1.0]], "delta[0][1] = 1.0 outside [0, 2)"),
    (2, 1, [[0, -1]], "delta[0][1] = -1 outside [0, 2)"),
    (2, 1, [[0, 2]], "delta[0][1] = 2 outside [0, 2)"),
    (2, 1, [["0", 1]], "delta[0][0] = '0' outside [0, 2)"),
    (2, 1, [[None, 1]], "delta[0][0] = None outside [0, 2)"),
    (2, 1, [[True, 5]], "delta[0][0] = True outside [0, 2)"),
    (3, 2, [[0, 1, 2], [2, 1, -3]], "delta[1][2] = -3 outside [0, 3)"),
    (3, 2, [[0, 1, 2], [2, 1]], "delta row 1 needs 3 entries, got 2"),
    (3, 2, [[0, 1, 2]], "delta needs one row per letter: expected 2, got 1"),
    # bool is a subclass of int, so an isinstance test would let these through.
    (2, 2, ((True, True), (0, False)), "delta[0][0] = True outside [0, 2)"),
    (2, 2, ((0, 1), (1, False)), "delta[1][1] = False outside [0, 2)"),
    # Sizes are exact ints too: Dfa(True, True, ...) would write "True True" as its header.
    (True, True, ((0,),), "state count must be an int, got True"),
    (2.0, 1, ((0, 1),), "state count must be an int, got 2.0"),
    (2, True, ((0, 1),), "alphabet size must be an int, got True"),
    (2, 1.0, ((0, 1),), "alphabet size must be an int, got 1.0"),
])
def test_dfa_validation_messages(n, k, delta, message):
    with pytest.raises(DomainError) as err:
        Dfa(n, k, delta)
    assert str(err.value) == message


def test_check_word_rejects_bools():
    d = cerny_automaton(3)
    assert check_word(d, [1, 0]) == (1, 0)
    for word in ((True,), (0, False)):
        with pytest.raises(InvalidWordError) as err:
            check_word(d, word)
        assert str(err.value) == f"letter {word[-1]!r} outside alphabet of size 2"


def test_word_rendering_round_trip():
    assert format_word((1, 0, 0, 1), 2) == "baab"
    assert parse_word("baab", 2) == (1, 0, 0, 1)
    assert parse_word("1,0,0,1", 2) == (1, 0, 0, 1)
    assert parse_word("", 2) == ()
    assert format_word((0, 27), 30) == "0,27"
    assert parse_word("0,27", 30) == (0, 27)
    with pytest.raises(InvalidWordError):
        parse_word("abc", 2)
    with pytest.raises(InvalidWordError):
        parse_word("a!b", 2)
    for text, index in (("-1", -1), ("0,-3", -3)):
        with pytest.raises(InvalidWordError) as err:
            parse_word(text, 2)
        assert str(err.value) == f"letter {index} outside alphabet of size 2"


def test_long_letter_words_parse():
    word = tuple(random.Random(0).randrange(3) for _ in range(100_000))
    assert parse_word(format_word(word, 3), 3) == word == parse_word(",".join(map(str, word)), 3)
    text = "ab" * 50_000 + "!"
    with pytest.raises(InvalidWordError) as err:
        parse_word(text, 3)
    assert str(err.value) == f"cannot parse letter '!' in word {text!r}"
    # Each letter is lowered alone: the Kelvin sign reads as 'k', and 'İ' lowers to two characters.
    assert parse_word("a\u212a", 11) == (0, 10)
    with pytest.raises(InvalidWordError) as err:
        parse_word("a\u0130", 26)
    assert str(err.value) == "cannot parse letter '\u0130' in word 'a\u0130'"


@pytest.mark.parametrize("build,args,message", [
    (cerny_automaton, (2.0,), "state count must be an int, got 2.0"),
    (cerny_automaton, (True,), "state count must be an int, got True"),
    (conjugacy_classes, (2.0,), "state count must be an int, got 2.0"),
    (conjugacy_classes, (True,), "state count must be an int, got True"),
    (random_dfa, (2.0, 1, 0), "state count must be an int, got 2.0"),
    (random_dfa, (2, 1.0, 0), "alphabet size must be an int, got 1.0"),
    (count_dfas, (True, 2), "state count must be an int, got True"),
    (count_dfas, (2.0, 2), "state count must be an int, got 2.0"),
    (count_dfas, (2, True), "alphabet size must be an int, got True"),
    (identity, (2.0,), "size must be an int, got 2.0"),
    (vij_basis, (2.0, 2), "size must be an int, got 2.0"),
    (vij_basis, (3, 2.0), "column count must be an int, got 2.0"),
    (sink_matrix, (2.0, 0), "size must be an int, got 2.0"),
    (decompose_vij, (RowMonomialMatrix(2, (0, 1)), 2.0), "column count must be an int, got 2.0"),
    (all_row_monomial, (2.0,), "size must be an int, got 2.0"),
    (all_row_monomial, (True,), "size must be an int, got True"),
], ids=lambda v: getattr(v, "__name__", None))
def test_sizes_must_be_ints(build, args, message):
    # The size-taking functions refuse what Dfa and RowMonomialMatrix refuse,
    # when called, before range() or arithmetic can accept a bool or fail on
    # a float.
    with pytest.raises(DomainError) as err:
        build(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0661", "\uff10", "1.0", "0x1", "--1", "-", "9" * 5000],
                         ids=["underscore", "plus", "arabic-indic", "fullwidth", "point", "hex", "minus-minus",
                              "minus", "5000-digits"])
def test_only_plain_decimal_integers_parse(token):
    # int() takes the first four; the format's integers are ASCII digits after at most a '-'.
    for text, line, column in ((f"{token} 1\n0\n", 1, 1), (f"2 1\n0 {token}\n", 2, 3)):
        with pytest.raises(ParseError) as err:
            read_dfa_text(text)
        assert "is not an integer" in str(err.value)
        assert (err.value.line, err.value.column) == (line, column)
    with pytest.raises(InvalidWordError) as err:
        parse_word(f"0,{token}", 20)
    assert str(err.value).startswith("cannot parse word")


def test_plain_decimal_integers_still_parse():
    assert read_dfa_text("02 1\n01 00\n") == Dfa(2, 1, ((1, 0),))
    with pytest.raises(ParseError) as err:
        read_dfa_text("2 1\n0 -1\n")
    assert "target -1 outside [0, 2)" in str(err.value)
    with pytest.raises(ParseError) as err:
        read_dfa_text("-2 1\n0 0\n")
    assert "header value -2 must be positive" in str(err.value)
    assert parse_word(" 1, 0 10 ", 11) == (1, 0, 10)
    # int() alone reads these as n = 11 and as the word (0, 1).
    with pytest.raises(ParseError):
        read_dfa_text("1_1 1\n" + " ".join(["0"] * 11) + "\n")
    with pytest.raises(InvalidWordError):
        parse_word("\u0660,\u0661", 2)


def test_parse_word_refuses_blank_comma_items():
    # A doubled or stray comma would otherwise drop a letter without a word of warning.
    for text in ("1,,2", ",1", "1,", "1, ,2"):
        with pytest.raises(InvalidWordError) as err:
            parse_word(text, 3)
        assert str(err.value) == f"cannot parse word {text!r} as letter indices"
    assert parse_word("1 , 2", 3) == parse_word("1 2", 3) == (1, 2)


def test_cerny_construction():
    d = cerny_automaton(4)
    assert d.delta == ((1, 2, 3, 0), (1, 1, 2, 3))
    with pytest.raises(DomainError):
        cerny_automaton(1)


def test_cerny_series_shortest_words():
    for n, expected in CERNY_WORDS.items():
        word = shortest_reset_word(cerny_automaton(n))
        assert format_word(word, 2) == expected
        assert len(word) == cerny_bound(n)
    for n in (5, 6):
        assert shortest_reset_length(cerny_automaton(n)) == cerny_bound(n)
    # From n = 12 on the answer comes from a meeting of the two sides.  A
    # forward-only search would take about 2 s and 343 MB at n = 22, and
    # about 1.4 GB at n = 24.
    for n in range(2, 25):
        assert shortest_reset_word(cerny_automaton(n)) == (1,) + ((0,) * (n - 1) + (1,)) * (n - 2)


def test_shortest_word_synchronizes_and_is_minimal():
    for n in (3, 4):
        d = cerny_automaton(n)
        w = shortest_reset_word(d)
        assert len(image(d, range(n), w)) == 1
        assert brute_force_shortest(d, len(w)) == w


def test_shortest_against_brute_force_exhaustive_n2():
    for k in (1, 2):
        for d in all_tables(2, k):
            expected = brute_force_shortest(d, 4)
            got = shortest_reset_word(d)
            assert got == expected


def test_shortest_against_brute_force_exhaustive_n3():
    for d in all_tables(3, 2):
        expected = brute_force_shortest(d, 4)
        got = shortest_reset_word(d)
        assert got == expected, d.delta


def frozenset_bfs_shortest(dfa):
    """Least shortest reset word by BFS over frozensets, letters in index order, or None."""
    start = frozenset(range(dfa.n))
    if len(start) == 1:
        return ()
    words = {start: ()}
    level = [start]
    while level:
        frontier = []
        for subset in level:
            for a in range(dfa.k):
                image = frozenset(dfa.delta[a][q] for q in subset)
                if image in words:
                    continue
                words[image] = words[subset] + (a,)
                if len(image) == 1:
                    return words[image]
                frontier.append(image)
        level = frontier
    return None


def two_component_dfa(n, k, seed):
    """Random letters that keep the states below n // 2 apart from the rest: never synchronizing."""
    rng = random.Random(seed)
    half = n // 2
    delta = tuple(tuple(rng.randrange(half) if q < half else rng.randrange(half, n) for q in range(n))
                  for _ in range(k))
    return Dfa(n=n, k=k, delta=delta)


# Chunk width is w = ceil(n/3), so the third chunk holds n - 2w states: as
# many as the others when 3 divides n (9, 15, 24), one fewer when n is 2 mod
# 3 (8, 17, 23, 26) and two fewer when n is 1 mod 3 (7, 16, 25).  25 and 26
# pass the default limit.
@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 23, 24, 25, 26])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_shortest_against_frozenset_bfs_at_chunk_edges(n, k):
    cases = [random_dfa(n, k, seed=1000 * n + 10 * k + i) for i in range(4)]
    cases += [two_component_dfa(n, k, seed=n * k), Dfa(n, k, [[(q + 1) % n for q in range(n)]] * k)]
    expected = [frozenset_bfs_shortest(d) for d in cases]
    assert expected[-2:] == [None, None]
    limit = 26 if n > EXACT_SEARCH_LIMIT else EXACT_SEARCH_LIMIT
    for d, word in zip(cases, expected):
        assert shortest_reset_word(d, limit) == word, d.delta
        assert shortest_reset_length(d, limit=26) == (None if word is None else len(word)), d.delta


# A forward level of C_n holds more than _SWITCH * n subsets from n = 12 on,
# so these searches start the backward side, and it meets the forward side.
# A third letter that repeats another makes the shortest reset words tie.
@pytest.mark.parametrize("n", [13, 14])
def test_backward_side_against_frozenset_bfs(n):
    a, b = cerny_automaton(n).delta
    for delta in ((b, a), (a, b, a), (a, b, b), (b, a, b)):
        d = Dfa(n, len(delta), delta)
        word = frozenset_bfs_shortest(d)
        assert len(word) == cerny_bound(n)
        assert shortest_reset_word(d) == word, delta
        assert shortest_reset_length(d) == len(word)


def cycle_plus_letter(n):
    """The n-cycle a, with a letter b that fixes every state but 2 -> 7 and 3 -> 4."""
    a = tuple((q + 1) % n for q in range(n))
    b = tuple({2: 7, 3: 4}.get(q, q) for q in range(n))
    return Dfa(n, 2, (a, b))


def recorded_sides(monkeypatch):
    """Record each side choice the search makes: True grows the forward side."""
    choices = []
    choose = rowsync.automaton._grow_forward

    def recorded(*args):
        choices.append(choose(*args))
        return choices[-1]

    monkeypatch.setattr(rowsync.automaton, "_grow_forward", recorded)
    return choices


def test_meeting_against_frozenset_bfs(monkeypatch):
    # Inputs on which the two sides meet.  The cycle-plus-letter family
    # passes the switch from n = 11 on and grows both sides past it at 15
    # and 16, and its words are long (57 at n = 14, 65 at 16).  Random
    # automata meet after a backward level or a few, and C_n from n = 12 on
    # grows the backward side alone past the switch.  The frozenset BFS needs
    # 2^n sets on C_n, so past n = 16 the closed-form word stands in for it.
    cases = [cycle_plus_letter(n) for n in range(8, 17)]
    cases += [random_dfa(n, k, seed=100 * n + 10 * k + i) for n in range(13, 21) for k in (2, 3, 4)
              for i in range(3)]
    cases += [cerny_automaton(n) for n in range(2, 17)]
    expected = [frozenset_bfs_shortest(d) for d in cases]
    cases += [cerny_automaton(n) for n in range(17, 25)]
    expected += [(1,) + ((0,) * (n - 1) + (1,)) * (n - 2) for n in range(17, 25)]
    choices = recorded_sides(monkeypatch)
    met = 0
    for d, word in zip(cases, expected):
        choices.clear()
        assert shortest_reset_word(d) == word, d.delta
        met += True in choices and False in choices
        assert shortest_reset_length(d) == (None if word is None else len(word)), d.delta
    # Both sides grew past the switch in some searches, the forward one too.
    assert met >= 2


def test_backward_side_runs_dry_on_non_synchronizing_automaton(monkeypatch):
    # Each case passes the switch, and one side runs out of new sets.  C_13
    # beside a two-state cycle: the backward side, whose levels are small,
    # runs out of preimage sets.  A random 3-letter automaton on 16 states
    # beside a two-state cycle: the forward side runs out of images, none of
    # which is a singleton.  The last side grown is the one that ran out.
    a, b = cerny_automaton(13).delta
    cerny_cycle = Dfa(15, 2, (a + (14, 13), b + (14, 13)))
    rows = random_dfa(16, 3, seed=3).delta
    random_cycle = Dfa(18, 3, tuple(row + (17, 16) for row in rows))
    choices = recorded_sides(monkeypatch)
    automaton = rowsync.automaton
    for d, last in ((cerny_cycle, False), (random_cycle, True)):
        assert frozenset_bfs_shortest(d) is None
        choices.clear()
        assert shortest_reset_word(d) is None
        assert choices and choices[-1] is last
        assert shortest_reset_length(d) is None
        word = []
        tables = automaton._chunk_tables(automaton._successor_masks(d.delta, 0), automaton._chunk_width(d.n))
        assert automaton._search(d.n, d.k, tables, word) is None
        assert word == []
        assert greedy_reset_word(d) is None


def test_backward_side_alone_and_interleaved(monkeypatch):
    # With _SWITCH = 0 the meeting starts at level 0.  A side choice fixed
    # to the backward side grows it at every step, so it answers alone, by
    # reaching the full set; fixed to the forward side, every forward set is
    # tested against the singletons' meeting tables; seeded random choices
    # interleave the two sides.  No choice may change an answer.
    cases = [d for n, k in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)) for d in all_tables(n, k)]
    cases += [cerny_automaton(n) for n in range(2, 9)]
    cases += [random_dfa(8, k, seed) for k in (1, 2, 3) for seed in range(20)]
    cases += [two_component_dfa(8, 2, seed) for seed in range(3)]
    expected = [frozenset_bfs_shortest(d) for d in cases]
    lengths = [None if word is None else len(word) for word in expected]
    monkeypatch.setattr(rowsync.automaton, "_SWITCH", 0)
    rng = random.Random(0)
    for side in (False, True, None):
        choose = (lambda *args: rng.random() < 0.5) if side is None else (lambda *args: side)
        monkeypatch.setattr(rowsync.automaton, "_grow_forward", choose)
        assert [shortest_reset_word(d) for d in cases] == expected, side
        # The length is counted apart from the word, on each side.
        assert [shortest_reset_length(d) for d in cases] == lengths, side


def test_backward_side_on_enum_tables(monkeypatch):
    # The enum walker's chunk tables have letter 0's piece tables ORed in,
    # and the backward side reads each state's successor mask from them.
    # With _SWITCH = 0 and the side choice fixed to the backward side, every
    # search runs the backward side alone, so a preimage read from the wrong
    # entry changes some histogram.
    sizes = ((3, 2), (3, 3), (4, 2), (2, 4), (3, 4))
    expected = [run(RunConfig(command="enum", n=n, k=k, json_output=True)).document for n, k in sizes]
    monkeypatch.setattr(rowsync.automaton, "_SWITCH", 0)
    monkeypatch.setattr(rowsync.automaton, "_grow_forward", lambda *args: False)
    for (n, k), document in zip(sizes, expected):
        assert run(RunConfig(command="enum", n=n, k=k, json_output=True)).document == document, (n, k)


def test_pair_criterion_agrees_with_subset_search():
    for d in all_tables(3, 2):
        assert is_synchronizing(d) == (shortest_reset_length(d) is not None)


def test_single_state_automaton():
    d = Dfa(1, 1, ((0,),))
    assert is_synchronizing(d)
    assert shortest_reset_word(d) == ()
    assert greedy_reset_word(d) == ()
    assert is_strongly_connected(d)


def test_exact_search_capacity():
    d = cerny_automaton(30)
    with pytest.raises(CapacityError) as err:
        shortest_reset_word(d)
    assert "greedy_reset_word" in str(err.value)
    with pytest.raises(CapacityError):
        shortest_reset_length(d)
    assert shortest_reset_length(cerny_automaton(5), limit=5) == 16


def test_capacity_check_precedes_table_building(monkeypatch):
    # n > limit is refused before any chunk table is built, by both exact
    # searches and by enum --limit, which refuses before its walk.
    def refuse(masks, w):
        raise AssertionError("chunk tables built before the capacity check")

    monkeypatch.setattr(rowsync.automaton, "_chunk_tables", refuse)
    with pytest.raises(CapacityError):
        shortest_reset_word(cerny_automaton(40))
    with pytest.raises(CapacityError):
        shortest_reset_length(cerny_automaton(40))
    with pytest.raises(CapacityError):
        run(RunConfig(command="enum", n=3, k=2, limit=2))


@pytest.mark.parametrize("n", range(1, 11))
def test_enum_combined_tables_equal_built_tables(n):
    # The enum walker ORs letter 0's piece tables into a prefix's chunk
    # tables once, then reads each table's chunk tables by the three piece
    # indices of its letter-0 map.  A wrong piece index or shift would change
    # only some histograms, so one prefix's tables are built once per k and
    # read for 22 letter-0 maps, each checked against a direct build.
    automaton = rowsync.automaton
    rng = random.Random(n)
    w = -(-n // 3)
    hold, m1, m2 = automaton._letter0_tables(n)
    for k in range(1, 5):
        rest = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(k - 1))
        masks = automaton._successor_masks(rest, 1) if k > 1 else [0] * n
        a0, a1, a2 = hold(automaton._chunk_tables(masks, w))
        firsts = [(0,) * n, (n - 1,) * n] + [tuple(rng.randrange(n) for _ in range(n)) for _ in range(20)]
        for first in firsts:
            delta = (first, *rest)
            j = sum(t * n ** (n - 1 - i) for i, t in enumerate(first))
            tables = (a0[j // (m1 * m2)], a1[j // m2 % m1], a2[j % m2])
            assert tables == automaton._chunk_tables(automaton._successor_masks(delta, 0), w), delta
            expected = shortest_reset_word(Dfa(n, k, delta), n)
            word = []
            length = automaton._search(n, k, tables, word)
            assert length == (None if expected is None else len(expected)), delta
            assert (None if length is None else tuple(word)) == expected, delta
            assert automaton._search(n, k, tables) == length, delta


def test_greedy_reset_word():
    d = cerny_automaton(4)
    w = greedy_reset_word(d)
    assert len(image(d, range(4), w)) == 1
    assert len(w) >= cerny_bound(4)
    assert greedy_reset_word(d) == w
    flip = Dfa(2, 1, ((1, 0),))
    assert greedy_reset_word(flip) is None
    assert shortest_reset_word(flip) is None


def test_greedy_beyond_exact_limit():
    d = cerny_automaton(30)
    w = greedy_reset_word(d)
    assert w is not None
    assert len(image(d, range(30), w)) == 1


def pair_table_inputs():
    """Every (3,2) and (2,3) table, Cerny C_2..C_24 and 200 seeded random
    automata (n = 2..24, k = 1..3; with k = 1 many pairs never merge)."""
    rng = random.Random(20)
    cases = [*all_tables(3, 2), *all_tables(2, 3), *map(cerny_automaton, range(2, 25))]
    for _ in range(200):
        n, k = rng.randint(2, 24), rng.randint(1, 3)
        cases.append(Dfa(n, k, tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(k))))
    return cases


def dict_pair_merge_table(dfa):
    """The pair table as it was kept before flat indices: (dist, letter) keyed
    by (p, q) tuples in dicts, with rev as lists of ((p, q), a).  The flat
    table must reproduce both, every first letter included."""
    dist, letter, rev, queue = {}, {}, {}, []
    for pair in combinations(range(dfa.n), 2):
        p, q = pair
        for a, row in enumerate(dfa.delta):
            pa, qa = row[p], row[q]
            if pa == qa:
                if pair not in dist:
                    dist[pair] = 1
                    letter[pair] = a
                    queue.append(pair)
            else:
                tgt = (pa, qa) if pa < qa else (qa, pa)
                if tgt != pair:
                    rev.setdefault(tgt, []).append((pair, a))
    for cur in queue:
        d = dist[cur] + 1
        for src, a in rev.get(cur, ()):
            if src not in dist:
                dist[src] = d
                letter[src] = a
                queue.append(src)
    return dist, letter


def dict_greedy_word(dfa):
    """The greedy word read from dict_pair_merge_table: each round takes the
    least pair by min over combinations, the first one on ties."""
    dist, letter = dict_pair_merge_table(dfa)
    if len(dist) < dfa.n * (dfa.n - 1) // 2:
        return None
    current, out = frozenset(range(dfa.n)), []
    while len(current) > 1:
        p, q = min(combinations(sorted(current), 2), key=dist.__getitem__)
        while p != q:
            a = letter[(p, q) if p < q else (q, p)]
            out.append(a)
            current = frozenset(dfa.delta[a][s] for s in current)
            p, q = dfa.delta[a][p], dfa.delta[a][q]
    return tuple(out)


def pair_maps(dfa):
    """The flat table read back as (dist, letter) maps keyed by (p, q) over
    the pairs that merge, and its merged count."""
    dist, letter, merged = rowsync.automaton._pair_merge_table(dfa)
    n = dfa.n
    flat = {(p, q): p * n + q for p, q in combinations(range(n), 2) if dist[p * n + q]}
    return {pq: dist[i] for pq, i in flat.items()}, {pq: letter[i] for pq, i in flat.items()}, merged


def test_flat_pair_table_against_dict_table():
    # pair_table_inputs() holds C_2..C_24 among its cases.
    for d in pair_table_inputs():
        dist, letter, merged = pair_maps(d)
        assert (dist, letter) == dict_pair_merge_table(d), d.delta
        assert merged == len(dist)
        assert greedy_reset_word(d) == dict_greedy_word(d), d.delta


def test_pair_table_and_greedy_words_pinned():
    # sha256 over every input's sorted distances, sorted first letters and
    # greedy word.  A change to a tie-break or a letter choice changes it,
    # where the pinned check reports would see only some.
    digest = hashlib.sha256()
    for d in pair_table_inputs():
        dist, letter, _ = pair_maps(d)
        digest.update(repr((sorted(dist.items()), sorted(letter.items()), greedy_reset_word(d))).encode())
    assert digest.hexdigest() == "1df6a9c35e97379087ea4ae6c2aa41f504c85f1000e5d3a52194cb83e63a7a9b"


def pair_merge_oracle(dfa):
    """Shortest merging length of each pair (p, q), p < q, that merges: a
    breadth-first search over two-state sets, from that pair alone."""
    out = {}
    for p, q in combinations(range(dfa.n), 2):
        level = seen = {frozenset((p, q))}
        depth = 0
        while level and (p, q) not in out:
            depth += 1
            images = {frozenset(row[s] for s in pair) for pair in level for row in dfa.delta}
            if any(len(pair) == 1 for pair in images):
                out[p, q] = depth
            level = images - seen
            seen = seen | level
    return out


def test_pair_table_against_pair_bfs():
    unmerged = 0
    for d in pair_table_inputs():
        dist, letter, _ = pair_maps(d)
        assert dist == pair_merge_oracle(d), d.delta
        assert letter.keys() == dist.keys(), d.delta
        # The letter starts a shortest merging word: it merges the pair or
        # leads to a pair one step closer.
        for (p, q), a in letter.items():
            s, t = sorted((d.delta[a][p], d.delta[a][q]))
            assert s == t or dist.get((s, t)) == dist[p, q] - 1, (d.delta, p, q)
        unmerged += d.n * (d.n - 1) // 2 - len(dist)
    assert unmerged > 0


def test_strong_connectivity():
    assert is_strongly_connected(cerny_automaton(5))
    assert not is_strongly_connected(Dfa(2, 1, ((0, 0),)))
    assert not is_strongly_connected(Dfa(3, 2, ((0, 0, 1), (1, 1, 2))))


def reachable(edges, start):
    """States a breadth-first search from start reaches along edges[q]."""
    seen = {start}
    queue = [start]
    for q in queue:
        for t in edges[q]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def test_strong_connectivity_against_closure():
    rng = random.Random(8)
    tables = [d for n, k in [*product((1, 2, 3), (1, 2)), (2, 3)] for d in all_tables(n, k)]
    tables += [random_dfa(rng.randint(2, 9), rng.randint(1, 3), seed=rng.randrange(10**9)) for _ in range(200)]
    one_way = 0
    for d in tables:
        edges = [{row[q] for row in d.delta} for q in range(d.n)]
        expected = all(len(reachable(edges, q)) == d.n for q in range(d.n))
        assert is_strongly_connected(d) == expected, d.delta
        one_way += len(reachable(edges, 0)) == d.n and not expected
    # The sweep holds tables where state 0 reaches every state but not every state reaches 0.
    assert one_way > 0


def test_bounds():
    assert [cerny_bound(n) for n in range(2, 7)] == [1, 4, 9, 16, 25]
    assert cubic_bound(4) == 10


def brute_force_classes(n):
    """(least member, size) of every class {s f s^-1 : s in S_n}, by trying every s,
    and the least member of the class of each map."""
    least = {}
    for f in product(range(n), repeat=n):
        if f in least:
            continue
        orbit = set()
        for s in permutations(range(n)):
            g = [0] * n
            for i in range(n):
                g[s[i]] = s[f[i]]
            orbit.add(tuple(g))
        least.update(dict.fromkeys(orbit, min(orbit)))
    sizes = Counter(least.values())
    return sorted(sizes.items()), least


def test_conjugacy_classes():
    # OEIS A001372: maps [n] -> [n] up to relabelling.
    listings = {n: conjugacy_classes(n) for n in range(1, 7)}
    assert [len(listings[n][0]) for n in range(1, 7)] == [1, 3, 7, 19, 47, 130]
    for n, (found, class_id) in listings.items():
        assert sum(size for _, size in found) == n ** n
        assert len(class_id) == n ** n
        assert Counter(class_id) == {c: size for c, (_, size) in enumerate(found)}
        # Orbit-stabiliser: a class has n!/|C(f)| members, C(f) being the
        # relabellings s with s f = f s.
        for f, size in found:
            centraliser = sum(1 for s in permutations(range(n)) if all(s[f[i]] == f[s[i]] for i in range(n)))
            assert size * centraliser == factorial(n), (n, f)
        if n <= 5:
            classes, least = brute_force_classes(n)
            assert found == classes, n
            maps = product(range(n), repeat=n)
            assert [found[c][0] for c in class_id] == [least[f] for f in maps], n
    with pytest.raises(DomainError):
        conjugacy_classes(0)


def test_conjugacy_classes_n7():
    # OEIS A001372 at n = 7, on the 823,543 maps.
    found, class_id = conjugacy_classes(7)
    assert len(found) == 343
    assert sum(size for _, size in found) == 7 ** 7
    assert Counter(class_id) == {c: size for c, (_, size) in enumerate(found)}


def conjugate(s, g):
    """s g s^-1, the map s[i] -> s[g[i]]."""
    h = [0] * len(g)
    for i, t in enumerate(g):
        h[s[i]] = s[t]
    return tuple(h)


def brute_force_centraliser(f):
    """C(f), every relabelling s with s f = f s."""
    return {s for s in permutations(range(len(f))) if all(s[f[i]] == f[s[i]] for i in range(len(f)))}


@pytest.mark.parametrize("n", range(1, 6))
def test_index_permutation_conjugates(n):
    maps = list(product(range(n), repeat=n))
    index = {g: j for j, g in enumerate(maps)}
    for s in permutations(range(n)):
        p = rowsync.automaton._index_permutation(s)
        assert list(p) == [index[conjugate(s, g)] for g in maps], s


def test_centraliser_generators_generate_the_centraliser():
    # The greedy generators' closure under composition is all of C(f), for
    # every class with n <= 6; a trivial C(f) needs none.
    for n in range(1, 7):
        identity = tuple(range(n))
        for f, size in conjugacy_classes(n)[0]:
            generators = rowsync.automaton._centraliser_generators(f, factorial(n) // size)
            closure = [identity]
            for g in closure:
                for t in generators:
                    h = tuple(g[i] for i in t)
                    if h not in closure:
                        closure.append(h)
            assert set(closure) == brute_force_centraliser(f), (n, f)
            assert len(generators) == len(set(generators)) and identity not in generators, (n, f)


@pytest.mark.parametrize("n", range(1, 6))
def test_enum_units_match_brute_force_orbits(n):
    # Each unit's row-2 orbit, flooded here under every member of C(f) with
    # no generators and no index permutations, over classes listed by brute
    # force: the same units, in the same order, with the same weights.
    classes, least = brute_force_classes(n)
    position = {f: c for c, (f, _) in enumerate(classes)}
    maps = list(product(range(n), repeat=n))
    index = {g: j for j, g in enumerate(maps)}
    units = []
    for c, (f, size) in enumerate(classes):
        centre = brute_force_centraliser(f)
        reached = set()
        for j, g in enumerate(maps):
            if position[least[g]] >= c and j not in reached:
                orbit = {index[conjugate(s, g)] for s in centre}
                reached |= orbit
                units.append((c, j, size * len(orbit)))
    listing = conjugacy_classes(n)
    every = range(len(classes))
    assert list(rowsync.automaton._enum_units(n, 1, *listing, every)) == [
        (c, None, size) for c, (_, size) in enumerate(classes)]
    for k in (2, 3):
        assert list(rowsync.automaton._enum_units(n, k, *listing, every)) == units, k


# (1,4), (2,4) and (3,3) have k >= 3 rows, tables repeating a class, and the
# identity row, whose centraliser is all of S_n.  (1,5) and (2,5) have
# three-row tails that repeat classes, so each tail multinomial is checked
# for every row-class pair that shares it.
@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2), (2, 3), (2, 4),
                                 (2, 5), (3, 1), (3, 2), (3, 3)])
def test_enum_weighted_by_class_matches_raw_sweep(n, k):
    hist = Counter()
    for d in all_tables(n, k):
        word = frozenset_bfs_shortest(d)
        if word is not None:
            hist[len(word)] += 1
    report = run(RunConfig(command="enum", n=n, k=k)).document["report"]
    assert report["total_tables"] == n ** (n * k)
    assert report["synchronizing"] == sum(hist.values())
    expected = [(str(length), hist[length]) for length in sorted(hist)]
    assert list(report["length_histogram"].items()) == expected
    assert (report["max_length"], report["max_length_count"]) == (max(hist), hist[max(hist)])


def test_random_dfa_reproducible():
    a = random_dfa(5, 3, seed=42)
    b = random_dfa(5, 3, seed=42)
    c = random_dfa(5, 3, seed=43)
    assert a == b
    assert a != c
    assert a.n == 5 and a.k == 3


def test_text_round_trip():
    for d in (cerny_automaton(4), random_dfa(6, 3, seed=7), Dfa(1, 1, ((0,),))):
        assert read_dfa_text(write_dfa_text(d)) == d


def test_text_format_frozen():
    assert write_dfa_text(cerny_automaton(3)) == "3 2\n1 2 0\n1 1 2\n"


def test_parse_accepts_comments_and_blank_lines():
    text = "# generated\n\n3 2\n1 2 0\n\n1 1 2\n"
    assert read_dfa_text(text) == cerny_automaton(3)
    assert read_dfa_text("3 2  # states letters\n1 2 0 # a\n   # b next\n1 1 2#b\n") == cerny_automaton(3)
    with pytest.raises(ParseError) as err:
        read_dfa_text("3 2\n1 x 0  # a\n1 1 2\n")
    assert (err.value.line, err.value.column) == (2, 3)


@pytest.mark.parametrize("text,fragment", [
    ("", "empty input"),
    ("3\n0 0 0", "header"),
    ("x 2\n", "not an integer"),
    ("0 1\n", "positive"),
    ("2 1\n0 2\n", "outside"),
    ("2 1\n0\n", "targets"),
    ("2 2\n0 1\n", "rows"),
    ("2 1\n0 1\nextra line\n", "rows"),
    ("2 1\n0 z\n", "not an integer"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        read_dfa_text(text)
    assert fragment in str(err.value)


_DFA_NOISE = ["01", "1_0", "\u0663", "-1", "x", "#", "9" * 30]


@st.composite
def dfa_like_texts(draw):
    """Header 'n k' and k rows of n mostly valid targets, with comments and blank lines."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    token = st.sampled_from([str(t) for t in range(n)] * 8 + _DFA_NOISE)
    rows = [" ".join(draw(st.lists(token, min_size=n, max_size=n))) for _ in range(k)]
    lines = [f"{n} {k}"] + rows
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# note", "  "])))
    return "\n".join(lines)


@given(st.one_of(st.text(max_size=40), dfa_like_texts()))
@settings(max_examples=150, deadline=None)
def test_read_dfa_text_round_trips_or_raises_parse_error(text):
    try:
        dfa = read_dfa_text(text)
    except ParseError:
        return
    assert read_dfa_text(write_dfa_text(dfa)) == dfa


@given(st.one_of(st.text(max_size=20), st.text(alphabet="abcz AZ,0123-9\u00b2\u0130", max_size=20)),
       st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_parse_word_round_trips_or_raises_invalid_word(text, k):
    try:
        word = parse_word(text, k)
    except InvalidWordError:
        return
    assert all(0 <= a < k for a in word)
    assert parse_word(format_word(word, k), k) == word


def test_parse_breaks_lines_only_at_newlines():
    assert read_dfa_text("2 1\n0\x0c1\n").delta == ((0, 1),)
    assert read_dfa_text("2 1\r\n0 1\r\n").delta == ((0, 1),)
    assert read_dfa_text("2 1\r0 1\r").delta == ((0, 1),)


def test_parse_error_line_counts_newlines_only():
    for ch in "\x0c\x0b\x1c\x1d\x1e\x85\u2028\u2029":
        with pytest.raises(ParseError) as err:
            read_dfa_text(f"2 2\n0{ch}1\n1 7\n")
        assert "line 3, column 3" in str(err.value), repr(ch)


def test_parse_error_names_line_and_column():
    with pytest.raises(ParseError) as err:
        read_dfa_text("2 1\n0 7\n")
    assert err.value.line == 2
    assert err.value.column == 3
    assert "line 2, column 3" in str(err.value)


def test_dot_export():
    dot = to_dot(cerny_automaton(2))
    assert dot.startswith("digraph")
    assert 'q0 -> q1 [label="a,b"];' in dot
    assert 'q1 -> q0 [label="a"];' in dot
    assert dot.endswith("}\n")


def test_dot_export_beyond_26_letters():
    every = ",".join(str(a) for a in range(27))
    assert f'  q0 -> q0 [label="{every}"];' in to_dot(Dfa(1, 27, [(0,)] * 27))
    split = Dfa(2, 27, [(0, 0) if a % 2 else (1, 0) for a in range(27)])
    dot = to_dot(split)
    assert f'  q0 -> q0 [label="{",".join(str(a) for a in range(1, 27, 2))}"];' in dot
    assert f'  q0 -> q1 [label="{",".join(str(a) for a in range(0, 27, 2))}"];' in dot
    assert f'  q1 -> q0 [label="{every}"];' in dot


@st.composite
def dfas(draw, max_n=6, max_k=3):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    delta = tuple(tuple(draw(st.integers(0, n - 1)) for _ in range(n)) for _ in range(k))
    return Dfa(n=n, k=k, delta=delta)


@given(dfa=dfas())
@settings(max_examples=100, deadline=None)
def test_serialization_round_trip(dfa):
    assert read_dfa_text(write_dfa_text(dfa)) == dfa

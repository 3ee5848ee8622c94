"""Complete deterministic finite automata and reset-word search.

States are 0..n-1, letters are 0..k-1, and a word is any sequence of letter
indices; the empty word acts as the identity.  The exact shortest-word
search is one kernel on bitset-encoded state subsets, whose images come
from three chunk tables of width ceil(n/3).  It runs a forward BFS over the
images of the full set and, once a forward level holds more than 8 n
subsets, a backward BFS over the preimages of the singletons.  Before each
step the side whose next level costs less grows, and the search stops where
the two meet, a forward set inside a backward one, found by three lookups in
chunk tables over the other side's newest level.  On the Cerny automata the
backward levels hold one set each and meet the forward side after about n^2
sets, where the forward side alone visits nearly all 2^n.  The search
answers the shortest reset length by counting levels; only a caller that
asks for the word has the lexicographically least shortest reset word
rebuilt, so the enum walker reads lengths alone.  The polynomial
synchronization test and the greedy heuristic work on the pair automaton
instead, so they stay usable where the exact search does not.
The enum walker lists the tables up to state relabelling and letter
permutation by flooding orbits of map indices along the index permutations of
a few relabellings.  It keeps maps as indices and decodes rows only to build
a shared prefix's chunk tables, with letter 0's piece tables ORed in once.
"""

from __future__ import annotations

import os
import random
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import (chain, combinations_with_replacement, compress, permutations,
                       product, repeat)
from math import factorial, prod
from operator import add, or_
from typing import Sequence

from .errors import CapacityError, DomainError, InvalidWordError, ParseError, RowsyncError

Word = tuple[int, ...]

EXACT_SEARCH_LIMIT = 24
DEFAULT_ENUM_BUDGET = 1_000_000

# class_id mark of a map no class has reached yet.  Every n <= 12 has fewer
# classes (57,903 at n = 12, OEIS A001372).
_UNREACHED = 0xFFFF

_ALPHA = "abcdefghijklmnopqrstuvwxyz"

# The meeting of the two sides starts once a forward level holds more than
# _SWITCH * n subsets; below that the forward side runs alone.
_SWITCH = 8

# _BIT_DIGITS[i] spells bit i of each byte as the digit b"0" or b"1".
_BIT_DIGITS = [bytes(48 + (v >> i & 1) for v in range(256)) for i in range(8)]


def _require_int(name: str, size) -> None:
    """Refuse a size whose type is not exactly int, such as True or 2.0."""
    if type(size) is not int:
        raise DomainError(f"{name} must be an int, got {size!r}")


@dataclass(frozen=True, slots=True)
class Dfa:
    """Complete DFA: ``delta[a][q]`` is the successor of state q under letter a."""

    n: int
    k: int
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for name, size in (("state count", self.n), ("alphabet size", self.k)):
            _require_int(name, size)
            if size < 1:
                raise DomainError(f"{name} must be positive, got {size}")
        delta = tuple(map(tuple, self.delta))
        object.__setattr__(self, "delta", delta)
        if len(delta) != self.k:
            raise DomainError(f"delta needs one row per letter: expected {self.k}, got {len(delta)}")
        n = self.n
        for a, row in enumerate(delta):
            if len(row) != n:
                raise DomainError(f"delta row {a} needs {n} entries, got {len(row)}")
            for q, t in enumerate(row):
                if type(t) is not int or not 0 <= t < n:
                    raise DomainError(f"delta[{a}][{q}] = {t!r} outside [0, {n})")


def check_word(dfa: Dfa, word: Sequence[int]) -> Word:
    """Validate letter indices against the alphabet and return a tuple."""
    w = tuple(word)
    for a in w:
        if type(a) is not int or not 0 <= a < dfa.k:
            raise InvalidWordError(f"letter {a!r} outside alphabet of size {dfa.k}")
    return w


def format_word(word: Sequence[int], k: int) -> str:
    """Render a word: 'a'..'z' when the alphabet fits, else comma-separated indices."""
    if k <= len(_ALPHA):
        return "".join(_ALPHA[a] for a in word)
    return ",".join(str(a) for a in word)


def _decimal(token: str) -> int | None:
    """The value of token if it is ASCII digits after at most a leading '-', else None.

    int() alone would also take '+1', '1_1' and non-ASCII digits.
    """
    if token.isascii() and (token.isdecimal() or token[:1] == "-" and token[1:].isdecimal()):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts from text
            pass
    return None


def parse_word(text: str, k: int) -> Word:
    """Inverse of format_word.  Accepts both renderings."""
    text = text.strip()
    if not text:
        return ()
    if any(ch.isdigit() for ch in text):
        letters = tuple(map(_decimal, text.replace(",", " ").split()))
        if None in letters or "" in map(str.strip, text.split(",")):
            raise InvalidWordError(f"cannot parse word {text!r} as letter indices")
    else:
        # ch.lower() per character, so 'İ' stays refused and the Kelvin sign reads as 'k'.
        letters = tuple(_ALPHA.find(ch.lower()) for ch in text)
        if -1 in letters:
            ch = text[letters.index(-1)]
            raise InvalidWordError(f"cannot parse letter {ch!r} in word {text!r}")
    for a in letters:
        if not 0 <= a < k:
            name = format_word((a,), k) if 0 <= a < len(_ALPHA) else a
            raise InvalidWordError(f"letter {name} outside alphabet of size {k}")
    return letters


def _chunk_width(n: int) -> int:
    """ceil(n/3), the states per chunk of _search's tables, the enum walker's included."""
    return -(-n // 3)


def _chunk_tables(masks: Sequence[int], w: int) -> tuple[list[int], list[int], list[int]]:
    """Chunk c's table maps each subset x of states c*w .. c*w+w-1 (bit i for
    state c*w+i) to the OR of their masks; a chunk with no states keeps [0].

    Built by doubling: adding a state to every subset listed ORs in its mask.
    """
    tables = ([0], [0], [0])
    for q, mask in enumerate(masks):
        table = tables[q // w]
        table += [bits | mask for bits in table]
    return tables


def _successor_masks(rows: Sequence[Sequence[int]], first: int) -> list[int]:
    """Per-state masks of rows taken as letters first, first+1, ...: q's mask
    has bit a*n + t where letter a sends q to t = rows[a - first][q]."""
    n = len(rows[0])
    masks = [0] * n
    for a, row in enumerate(rows, first):
        base = 1 << a * n
        for q, t in enumerate(row):
            masks[q] |= base << t
    return masks


def _check_search_limit(n: int, limit: int) -> None:
    """Refuse an exact search on n states above limit."""
    if n > limit:
        raise CapacityError(f"exact subset search handles n <= {limit} (got n = {n}); "
                            "raise the limit or fall back to greedy_reset_word")


def _meet_tables(sets: Sequence[int], n: int, w: int):
    """(t0, t1, t2, every): chunk tables over a family of subsets of n states.

    Entry y of chunk c's table has bit t set iff sets[t] meets y's states,
    so x is disjoint from some set of the family iff
    t0[x & m] | t1[x >> w & m] | t2[x >> 2w] != every, the family's full
    mask.  State q's mask over the family, bit t iff q is in sets[t], is
    read in C: byte q // 8 of each set's little-endian bytes, taken in
    reverse so that sets[0] ends last, its bit q % 8 spelled as a binary
    digit.
    """
    size = (n + 7) // 8
    raw = b"".join([x.to_bytes(size, "little") for x in reversed(sets)])
    columns = [raw[i::size] for i in range(size)]
    masks = [int(columns[q >> 3].translate(_BIT_DIGITS[q & 7]), 2) for q in range(n)]
    return (*_chunk_tables(masks, w), (1 << len(sets)) - 1)


def _grow_forward(forward: int, backward: int, k: int, forward_tables: bool, backward_tables: bool,
                  w: int) -> bool:
    """Whether the forward side's next level costs no more than the backward side's.

    forward and backward are the sizes of the two newest levels, and
    forward_tables and backward_tables say whether their meeting tables are
    built.  A side's price is its newest level's sets times the k letters,
    plus, unless they are built, the meeting tables over the other side's
    newest level: 3 * 2^w entries and a pass over its sets.
    """
    build = 3 << w
    return (forward * k + (0 if backward_tables else build + backward)
            <= backward * k + (0 if forward_tables else build + forward))


def _search(n: int, k: int, tables, word: list[int] | None = None) -> int | None:
    """The shortest reset length of an n-state, k-letter automaton, read from its chunk tables alone.

    Returns None if the automaton is not synchronizing.  The least shortest
    reset word is rebuilt only when word is given, an empty list that the
    word's letters are written into; callers that need the length alone pass
    none, and no word is built for them.

    Subsets are bitmasks.  The states are cut into three chunks of
    w = ceil(n/3) states, and each chunk has one table mapping every subset
    of its states to the images of that subset under all k letters at once,
    letter a's image in bits a*n .. a*n+n-1 of one integer: _chunk_tables
    over each state's k successors.  The images of any subset are the OR of
    exactly three lookups, and tables[p // w][1 << p % w] is state p's
    successor mask.

    Forward level i holds the images of the full set under words of length
    i that no shorter word gives; backward level j holds the nonempty sets
    s u^-1 of states that a word u of length j sends to a state s, that no
    shorter word gives, level 0 being the n singletons.  A forward set x
    meets a backward set s u^-1 when x lies inside it: then x's word followed
    by u is a reset word.  While its levels hold at most _SWITCH * n subsets
    the forward BFS runs alone, testing each new set against backward level
    0: a singleton found while building level d answers d.  Past that, the
    backward BFS joins it, over preimages read from three more chunk tables
    built the same way from each state's k preimage sets, and before each
    step _grow_forward picks the side that grows by one level.  Each new
    forward set is tested against the newest backward level, and each new
    backward set against the newest forward level, by three lookups in
    _meet_tables over that level, built once per level.  If either side runs
    out of new sets, the automaton is not synchronizing.

    Testing the newest levels alone is exact.  Split a shortest reset word,
    of length L, after i letters.  Its prefix's image x lies at forward
    level i, or a shorter word would reach x and, with the same suffix u,
    make a shorter reset word; x lies inside s u^-1, which lies at backward
    level L - i for the same reason.  So forward level i meets backward
    level L - i, and no level i meets a level j with i + j < L.  Now let the
    sides hold levels 0..I and 0..J with no meeting yet, so L > I + J.  A new
    forward level I + 1 can meet backward level j only if I + 1 + j >= L,
    so only level J, and it does when L = I + J + 1; a new backward level
    J + 1 likewise meets forward level I or nothing.  So the first meeting,
    of forward level I and backward level J, answers I + J.  And if the
    backward side runs out at level J, a reset word would need one at level
    L - I > J, and if the forward side runs out at level I, one at level
    L - J > I; so neither exists.

    Letters are tried in increasing index order, so within each forward
    level the subsets are found in lexicographic order of their least words.
    Every shortest reset word's I-letter prefix reaches a set of forward
    level I inside a set of backward level J, so the least one's prefix is
    the least word of the first such set in level order: the first one
    found by a forward step, or the first one of the hits of a backward
    step.  _spell writes that prefix and the least completion.
    """
    if n == 1:
        return 0
    w = _chunk_width(n)
    t0, t1, t2 = tables
    mask = (1 << w) - 1
    w2 = 2 * w
    full = (1 << n) - 1
    shifts = range(0, k * n, n)
    parent: dict[int, int | None] = {full: None}
    level = [full]
    depth = 0
    switch = _SWITCH * n
    while len(level) <= switch:
        depth += 1
        frontier = []
        push = frontier.append
        for cur in level:
            images = t0[cur & mask] | t1[cur >> w & mask] | t2[cur >> w2]
            for s in shifts:
                nxt = images >> s & full
                if nxt in parent:
                    continue
                parent[nxt] = cur
                if nxt & (nxt - 1) == 0:
                    if word is not None:
                        _spell(word, nxt, parent, (), n, tables)
                    return depth
                push(nxt)
        if not frontier:
            return None
        level = frontier
    # preimages[q] holds state q's k preimage sets, as a successor mask does
    # its images; the chunk tables over them are built once a backward level
    # other than the singletons grows.
    preimages = [0] * n
    for p in range(n):
        sets = tables[p // w][1 << p % w]
        for s in shifts:
            preimages[(sets >> s & full).bit_length() - 1] |= 1 << s + p
    b0 = b1 = b2 = None
    back = [[1 << q for q in range(n)]]
    # 0, the empty preimage, is marked seen so that it is never pushed.
    seen = {0, *back[0]}
    # The meeting tables over the complements of back[-1] and over level.
    back_meet = forward_meet = None
    while True:
        if _grow_forward(len(level), len(back[-1]), k, forward_meet is not None, back_meet is not None, w):
            if back_meet is None:
                back_meet = _meet_tables([full ^ b for b in back[-1]], n, w)
            m0, m1, m2, every = back_meet
            depth += 1
            frontier = []
            push = frontier.append
            for cur in level:
                images = t0[cur & mask] | t1[cur >> w & mask] | t2[cur >> w2]
                for s in shifts:
                    nxt = images >> s & full
                    if nxt in parent:
                        continue
                    parent[nxt] = cur
                    if m0[nxt & mask] | m1[nxt >> w & mask] | m2[nxt >> w2] != every:
                        if word is not None:
                            _spell(word, nxt, parent, back[-2::-1], n, tables)
                        return depth + len(back) - 1
                    push(nxt)
            if not frontier:
                return None
            level = frontier
            forward_meet = None
        else:
            if forward_meet is None:
                forward_meet = _meet_tables(level, n, w)
            m0, m1, m2, every = forward_meet
            if len(back) == 2:
                b0, b1, b2 = _chunk_tables(preimages, w)
            frontier = []
            push = frontier.append
            # Bit t of hits: level[t] lies inside a new backward set.
            hits = 0
            for cur in back[-1]:
                sets = b0[cur & mask] | b1[cur >> w & mask] | b2[cur >> w2] if b0 else preimages[cur.bit_length() - 1]
                for s in shifts:
                    nxt = sets >> s & full
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    out = full ^ nxt
                    if (miss := m0[out & mask] | m1[out >> w & mask] | m2[out >> w2]) != every:
                        if word is None:
                            return depth + len(back)
                        hits |= every ^ miss
                    push(nxt)
            if hits:
                _spell(word, level[(hits & -hits).bit_length() - 1], parent, back[::-1], n, tables)
                return depth + len(back)
            if not frontier:
                return None
            back.append(frontier)
            back_meet = None


def _spell(word: list[int], node: int, parent: dict, levels, n: int, tables) -> None:
    """Write into word the least shortest reset word whose prefix reaches node.

    node is a forward set inside a set of a backward level, and levels are
    the backward levels below that one, newest first.  The prefix is read
    back along the parent links: the search reached each subset first from
    its parent under the least letter that maps the parent onto it, so that
    letter is the one taken.  Then a forward walk from node takes at step t
    the least letter whose image lies inside a set of levels[t].  Such a set
    is s u^-1 for a state s and a word u as long as the rest of the walk, so
    the image has a completion of exactly the remaining length; conversely
    every such completion puts the image inside a set the backward BFS
    reached, and no earlier than at levels[t]'s level, or a shorter reset
    word would exist.  So each step takes the least letter that still leads
    to a shortest reset word.
    """
    w = _chunk_width(n)
    t0, t1, t2 = tables
    mask = (1 << w) - 1
    full = (1 << n) - 1
    start = node
    while (prev := parent[node]) is not None:
        images = t0[prev & mask] | t1[prev >> w & mask] | t2[prev >> 2 * w]
        letter = 0
        while images >> letter * n & full != node:
            letter += 1
        word.append(letter)
        node = prev
    word.reverse()
    node = start
    for targets in levels:
        images = t0[node & mask] | t1[node >> w & mask] | t2[node >> 2 * w]
        image = images & full
        letter = 0
        while not any(image & b == image for b in targets):
            letter += 1
            image = images >> letter * n & full
        word.append(letter)
        node = image


def _dfa_search(dfa: Dfa, limit: int, word: list[int] | None = None) -> int | None:
    """_search on a Dfa, whose tables are built only once the limit check has passed."""
    _check_search_limit(dfa.n, limit)
    return _search(dfa.n, dfa.k, _chunk_tables(_successor_masks(dfa.delta, 0), _chunk_width(dfa.n)), word)


def shortest_reset_word(dfa: Dfa, limit: int = EXACT_SEARCH_LIMIT) -> Word | None:
    """Exact shortest reset word, or None if the automaton is not synchronizing.

    Breadth-first search over subsets reachable from the full state set,
    met in the middle by a backward search over preimages of singletons
    once its levels grow (see _search).  Letters are tried in increasing
    index order, so within each length level subsets are discovered in
    lexicographic order of their least word.  The word is the least word of
    the first meeting set in that order, followed by the least completion
    from it: the lexicographically least among all shortest reset words.
    """
    word: list[int] = []
    return None if _dfa_search(dfa, limit, word) is None else tuple(word)


def shortest_reset_length(dfa: Dfa, limit: int = EXACT_SEARCH_LIMIT) -> int | None:
    """Length of the shortest reset word, or None if the automaton is not synchronizing.

    The same search as shortest_reset_word; it counts BFS levels and rebuilds no word.
    """
    return _dfa_search(dfa, limit)


def _pair_merge_table(dfa: Dfa) -> tuple[list[int], list[int], int]:
    """Shortest-merge data for every state pair p < q, at flat index p*n + q.

    Returns (dist, letter, merged): the length of a shortest word sending
    both states to one state and a first letter of such a word, both 0 where
    no word merges the pair, and the number of pairs that merge.  rev lists
    pair*k + a pair-major with letters ascending, and the BFS reads it in
    that order, which fixes letter.
    """
    n, k = dfa.n, dfa.k
    dist, letter = [0] * (n * n), [0] * (n * n)
    rev: list[list[int]] = [[] for _ in range(n * n)]
    queue: list[int] = []  # the BFS below reads the pairs it appends
    for p in range(n):
        for q in range(p + 1, n):
            pair = p * n + q
            code = pair * k
            for row in dfa.delta:
                pa, qa = row[p], row[q]
                if pa == qa:
                    if not dist[pair]:
                        dist[pair], letter[pair] = 1, code - pair * k
                        queue.append(pair)
                elif (tgt := pa * n + qa if pa < qa else qa * n + pa) != pair:
                    rev[tgt].append(code)
                code += 1
    for cur in queue:
        d = dist[cur] + 1
        for code in rev[cur]:
            src = code // k
            if not dist[src]:
                dist[src], letter[src] = d, code - src * k
                queue.append(src)
    return dist, letter, len(queue)


def is_synchronizing(dfa: Dfa) -> bool:
    """Polynomial test: the automaton synchronizes iff every state pair merges."""
    return _pair_merge_table(dfa)[2] == dfa.n * (dfa.n - 1) // 2


def greedy_reset_word(dfa: Dfa) -> Word | None:
    """Pair-merging heuristic reset word, or None if not synchronizing.

    Repeatedly drives the first, in (p, q) order, of the cheapest-to-merge
    pairs of current states to a collision.  Deterministic and polynomial,
    but in general longer than the word shortest_reset_word returns.
    """
    n = dfa.n
    dist, letter, merged = _pair_merge_table(dfa)
    if merged < n * (n - 1) // 2:
        return None
    current = set(range(n))
    out: list[int] = []
    while len(current) > 1:
        states = sorted(current)
        best = n * n
        for i, s in enumerate(states):
            base = s * n
            for t in states[i + 1:]:
                if dist[base + t] < best:
                    best, p, q = dist[base + t], s, t
        while p != q:
            a = letter[p * n + q if p < q else q * n + p]
            out.append(a)
            row = dfa.delta[a]
            current = {row[s] for s in current}
            p, q = row[p], row[q]
    return tuple(out)


def is_strongly_connected(dfa: Dfa) -> bool:
    """True iff the union digraph of all letters is strongly connected.

    That is, state 0 reaches every state along the edges and along the
    reversed edges.
    """
    n = dfa.n
    successors = list(zip(*dfa.delta))
    predecessors: list[list[int]] = [[] for _ in range(n)]
    for row in dfa.delta:
        for q, t in enumerate(row):
            predecessors[t].append(q)
    for edges in (successors, predecessors):
        seen = {0}
        stack = [0]
        while stack:
            for t in edges[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if len(seen) < n:
            return False
    return True


def cerny_bound(n: int) -> int:
    """(n-1)^2, the conjectured tight bound on shortest reset words."""
    return (n - 1) * (n - 1)


def cubic_bound(n: int) -> int:
    """(n^3 - n)/6, a classical upper bound used here only for comparison."""
    return (n * n * n - n) // 6


def cerny_automaton(n: int) -> Dfa:
    """The n-state two-letter automaton whose shortest reset word has length (n-1)^2.

    Letter a cycles every state forward by one; letter b moves state 0 to 1
    and fixes everything else.
    """
    _require_int("state count", n)
    if n < 2:
        raise DomainError(f"construction needs n >= 2, got {n}")
    a = tuple((i + 1) % n for i in range(n))
    b = tuple(1 if i == 0 else i for i in range(n))
    return Dfa(n=n, k=2, delta=(a, b))


def count_dfas(n: int, k: int) -> int:
    """n^(n*k), the number of complete transition tables with n states and k letters."""
    _require_int("state count", n)
    _require_int("alphabet size", k)
    if n < 1 or k < 1:
        raise DomainError(f"need n >= 1 and k >= 1, got n = {n}, k = {k}")
    return n ** (n * k)


def _index_permutation(s: Sequence[int]) -> array:
    """array('I') p with p[j] the lexicographic index of s g s^-1, g the j-th map.

    s g s^-1 sends s[i] to s[g[i]], so digit i of j, of value t, adds
    s[t] * n^(n-1-s[i]) to p[j]; the sums are built one digit at a time,
    least significant first, straight into arrays.
    """
    n = len(s)
    p = array("I", [0])
    for i in reversed(range(n)):
        place = n ** (n - 1 - s[i])
        p = array("I", chain.from_iterable(map(add, p, repeat(s[t] * place)) for t in range(n)))
    return p


def _row(j: int, n: int) -> tuple[int, ...]:
    """The j-th map [n] -> [n] in lexicographic order: j's n base-n digits."""
    return tuple(j // n ** (n - 1 - i) % n for i in range(n))


def _flood(perms: list[array], marks, j: int, label: int) -> int:
    """Mark the orbit of index j under the group that perms generate with label; return its size.

    Orbits are disjoint, so a member not yet marked with label is unreached.
    """
    marks[j] = label
    orbit = [j]
    for x in orbit:
        for p in perms:
            y = p[x]
            if marks[y] != label:
                marks[y] = label
                orbit.append(y)
    return len(orbit)


def _centraliser_generators(f: Sequence[int], order: int) -> list[tuple[int, ...]]:
    """Generators of C(f), the order relabellings s with s f = f s.

    Each member of C(f), in reverse lexicographic order, that the generators
    so far do not reach is taken as the next, until they reach all of C(f).
    That takes at most 4 generators for n <= 7, where lexicographic order
    takes up to n - 1.
    """
    identity = tuple(range(len(f)))
    generators: list[tuple[int, ...]] = []
    group = {identity}
    for s in permutations(identity[::-1]):
        if len(group) == order:
            break
        if s not in group and tuple(map(s.__getitem__, f)) == tuple(map(f.__getitem__, s)):
            generators.append(s)
            closure = [identity]
            group = {identity}
            for g in closure:
                for h in (tuple(map(g.__getitem__, t)) for t in generators):
                    if h not in group:
                        group.add(h)
                        closure.append(h)
    return generators


def conjugacy_classes(n: int) -> tuple[list[tuple[tuple[int, ...], int]], array]:
    """The maps [n] -> [n] up to state relabelling.

    Returns (classes, class_id).  classes holds (least member, class size)
    pairs in lexicographic order of their least members, and their sizes sum
    to n^n; class_id[j] is the position in classes of the class of the j-th
    map in lexicographic order.  Each map not yet reached, taken in
    lexicographic order, is the least member of a new class, flooded along
    the index permutations of a transposition and an n-cycle, which generate
    all n! relabellings.  The ids take 2 n^n bytes, in an array('H'), and the
    two permutations 4 n^n bytes each, in arrays('I'); each is built and
    flooded in O(n^n) steps.
    """
    _require_int("state count", n)
    if n < 1:
        raise DomainError(f"need n >= 1, got n = {n}")
    perms = [_index_permutation(s) for s in ((1, 0, *range(2, n)), (*range(1, n), 0))] if n > 1 else []
    class_id = array("H", [_UNREACHED]) * n ** n
    classes = []
    for j, d in enumerate(class_id):
        if d == _UNREACHED:
            classes.append((_row(j, n), _flood(perms, class_id, j, len(classes))))
    return classes, class_id


def _enum_units(n: int, k: int, classes, class_id, picked):
    """The tables' first rows up to state relabelling, as (c, j, weight).

    Row 1 is class c's least member, row 2 is the j-th map in lexicographic
    order (j is None when k = 1), and c runs over picked.

    Relabelling the states by a permutation s keeps the shortest reset length
    and conjugates every row by s.  So row 1 is the least member f of a class,
    weighted by the class size.  The relabellings that keep row 1 = f are f's
    centraliser C(f), of order n! over the class size.  Row 2 is every map g
    whose class is at least f's and that is least in its orbit under
    conjugation by C(f), flooded along the index permutations of generators
    of C(f), and the unit's weight is the class size times that orbit's size.
    With k = 1 a unit is the class alone.
    """
    for c in picked:
        f, size = classes[c]
        if k == 1:
            yield c, None, size
            continue
        if size == factorial(n):
            # C(f) is the identity alone, so every orbit is its map alone.
            for j in compress(range(n ** n), map(c.__le__, class_id)):
                yield c, j, size
            continue
        perms = [_index_permutation(s) for s in _centraliser_generators(f, factorial(n) // size)]
        # Maps of lower classes start reached, so each find gives the least
        # member of the next orbit.
        reached = bytearray(map(c.__gt__, class_id))
        j = reached.find(0)
        while j >= 0:
            yield c, j, size * _flood(perms, reached, j, 1)
            j = reached.find(0, j + 1)
        # Freed before the next class builds its own.
        del perms


def _letter0_tables(n: int):
    """(hold, m1, m2): hold(prefix) ORs letter 0's piece tables into prefix,
    the chunk tables of letters 1.., giving (a0, a1, a2); with the map of
    lexicographic index j as letter 0, the chunk tables are a0[j // (m1 * m2)],
    a1[j // m2 % m1] and a2[j % m2].

    Letter 0's part of a chunk's table depends only on the map's piece on its
    states, so the tables of all pieces, at most 2 n^w 2^w entries, are made
    once.  For chunk sizes s0, s1, s2, m1 = n^s1 and m2 = n^s2.
    """
    w = _chunk_width(n)
    sizes = (w, min(w, n - w), max(n - 2 * w, 0))
    pieces = {s: [_chunk_tables(_successor_masks((piece,), 0), w)[0] for piece in product(range(n), repeat=s)]
              for s in set(sizes)}

    def hold(prefix):
        return [[list(map(or_, p, q)) for p in pieces[s]] for s, q in zip(sizes, prefix)]

    return hold, n ** sizes[1], n ** sizes[2]


def _enum_shard_stats(params: tuple) -> dict:
    """Aggregate the tables of the units of _enum_units whose row-1 classes are picked.

    Permuting the letters keeps the shortest reset length, so only tables
    whose rows come in nondecreasing class order are searched: rows 3..k
    range over every map whose class is at least the class of the row
    before.  Each such table stands for the k!/prod(m_c!) orders of its
    class multiset, m_c being the number of rows of class c, and carries its
    unit's weight times that multinomial.  The tails depend only on the
    unit's row classes, so they are built once per row-class pair: for each
    class tuple of rows 3..k-1, their member lists, then each last-row class
    with its members and multinomial.

    For the same reason a table's last row can be letter 0 and rows 1..k-1
    letters 1..k-1, a prefix that many tables share (row 1 for k = 2; the
    unit and rows 3..k-1 for k >= 3, held across every last-row class as row
    1's class and map indices).  When a prefix is first held, its rows are
    decoded, its chunk tables built and letter 0's piece tables ORed in, once,
    so a table's chunk tables are three index reads; k = 1 builds its own.
    Returns the length histogram, whose counts sum to the synchronizing
    count, and the weight covered.
    """
    n, k, classes, class_id, picked = params
    members: list[list[int]] = [[] for _ in classes]
    if k > 2:
        for j, c in enumerate(class_id):
            members[c].append(j)
    hold, m1, m2 = _letter0_tables(n)
    m12 = m1 * m2
    w = _chunk_width(n)
    tails: dict[tuple[int, int], list] = {}
    held = None
    hist: Counter[int] = Counter()
    covered = 0
    for c, j, weight in _enum_units(n, k, classes, class_id, picked):
        f = classes[c][0]
        if k == 1:
            covered += weight
            length = _search(n, 1, _chunk_tables(_successor_masks((f,), 0), w))
            if length is not None:
                hist[length] += weight
            continue
        d = class_id[j]
        if k == 2:
            # The prefix is row 1 alone, so it is held per class.
            if held != c:
                held = c
                a0, a1, a2 = hold(_chunk_tables(_successor_masks((f,), 1), w))
            table_weight = weight if d == c else 2 * weight
            covered += table_weight
            length = _search(n, 2, (a0[j // m12], a1[j // m2 % m1], a2[j % m2]))
            if length is not None:
                hist[length] += table_weight
            continue
        if (shapes := tails.get((c, d))) is None:
            shapes = tails[c, d] = [
                ([members[e] for e in middle],
                 [(members[e], factorial(k) // prod(map(factorial, Counter((c, d, *middle, e)).values())))
                  for e in range((d, *middle)[-1], len(classes))])
                for middle in combinations_with_replacement(range(d, len(classes)), k - 3)]
        groups = (((c, j, *rows), lasts, weight * orders)
                  for middle_members, ends in shapes for rows in product(*middle_members)
                  for lasts, orders in ends)
        for prefix, lasts, table_weight in groups:
            if prefix != held:
                held = prefix
                letters = (f, *(_row(i, n) for i in prefix[1:]))
                a0, a1, a2 = hold(_chunk_tables(_successor_masks(letters, 1), w))
            covered += table_weight * len(lasts)
            for i in lasts:
                length = _search(n, k, (a0[i // m12], a1[i // m2 % m1], a2[i % m2]))
                if length is not None:
                    hist[length] += table_weight
    return {"hist": hist, "weight": covered}


def _enum_lengths(n: int, k: int, budget: int, limit: int, jobs: int) -> Counter[int]:
    """The shortest reset length histogram of all n^(nk) tables: enum's whole pass.

    Jobs below 1, sizes below 1, more tables than budget and n above limit,
    which _search does not check, are refused before the listing, whose O(n^n)
    bytes the budget covers as n^n <= n^(nk).  Dealing the row-1 classes round
    robin to min(jobs, CPU count, class count) workers splits the units about
    evenly (21,132 and 21,629 of (5,2) over two); weights that miss n^(nk) raise.
    """
    if jobs < 1:
        raise RowsyncError(f"--jobs must be at least 1, got {jobs}")
    total = count_dfas(n, k)
    if total > budget:
        raise CapacityError(f"enumerating {total} tables exceeds the budget of {budget}; "
                            "raise --budget to proceed")
    _check_search_limit(n, limit)
    classes, class_id = conjugacy_classes(n)
    workers = min(jobs, os.cpu_count() or 1, len(classes))
    shards = [(n, k, classes, class_id, range(i, len(classes), workers)) for i in range(workers)]
    if workers == 1:
        parts = [_enum_shard_stats(shards[0])]
    else:
        from multiprocessing import Pool  # here, so that importing rowsync does not load it
        with Pool(processes=workers) as pool:
            parts = pool.map(_enum_shard_stats, shards)
    covered = sum(p["weight"] for p in parts)
    if covered != total:
        raise RowsyncError(f"enum weights cover {covered} of the {total} tables; the listing is wrong")
    return sum((p["hist"] for p in parts), Counter())


def _random_dfa(rng: random.Random, n: int, k: int) -> Dfa:
    """Uniform independent transitions drawn from rng, letter by letter."""
    return Dfa(n=n, k=k, delta=tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(k)))


def random_dfa(n: int, k: int, seed: int) -> Dfa:
    """Uniform independent transitions; a fixed seed fixes the table."""
    _require_int("state count", n)
    _require_int("alphabet size", k)
    return _random_dfa(random.Random(seed), n, k)


def write_dfa_text(dfa: Dfa) -> str:
    """Serialize: header line "n k", then one line of targets per letter."""
    lines = [f"{dfa.n} {dfa.k}"]
    for row in dfa.delta:
        lines.append(" ".join(str(t) for t in row))
    return "\n".join(lines) + "\n"


def _column(line: str, index: int) -> int:
    """The 1-based column of the index-th whitespace-separated token of line."""
    return [m.start() + 1 for m in re.finditer(r"\S+", line)][index]


def read_dfa_text(text: str) -> Dfa:
    """Parse the serialized form.  '#' starts a comment; blank lines are skipped."""
    significant: list[tuple[int, str]] = []
    # Only the line ends universal newlines translate; str.splitlines would
    # also break at form feed, '\x85', '\u2028' and others.
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), 1):
        line = raw.split("#", 1)[0]
        if line.strip():
            significant.append((lineno, line))
    if not significant:
        raise ParseError("empty input, expected a header line 'n k'")
    head_no, head = significant[0]
    head_tokens = head.split()
    if len(head_tokens) != 2:
        raise ParseError(f"header must be 'n k', got {len(head_tokens)} tokens", line=head_no)
    header = list(map(_decimal, head_tokens))
    for i, val in enumerate(header):
        if val is None:
            raise ParseError(f"header token {head_tokens[i]!r} is not an integer", line=head_no,
                             column=_column(head, i))
        if val < 1:
            raise ParseError(f"header value {val} must be positive", line=head_no, column=_column(head, i))
    n, k = header
    body = significant[1:]
    if len(body) != k:
        raise ParseError(f"expected {k} transition rows, found {len(body)}",
                         line=body[-1][0] if body else head_no)
    delta = []
    for a, (lineno, raw) in enumerate(body):
        tokens = raw.split()
        if len(tokens) != n:
            raise ParseError(f"row for letter {a} must hold {n} targets, got {len(tokens)}", line=lineno)
        row = list(map(_decimal, tokens))
        if None in row or min(row) < 0 or max(row) >= n:
            # The first bad token is reported, as a token-by-token reading would.
            i, t = next((i, t) for i, t in enumerate(row) if t is None or not 0 <= t < n)
            message = f"target {tokens[i]!r} is not an integer" if t is None else f"target {t} outside [0, {n})"
            raise ParseError(message, line=lineno, column=_column(raw, i))
        delta.append(tuple(row))
    return Dfa(n=n, k=k, delta=tuple(delta))


def read_dfa(path) -> Dfa:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from None
    return read_dfa_text(text)


def write_dfa(dfa: Dfa, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_dfa_text(dfa))


def to_dot(dfa: Dfa) -> str:
    """GraphViz rendering; parallel edges are folded into one labeled edge."""
    lines = ['digraph "automaton" {', "  rankdir=LR;", "  node [shape=circle];"]
    for q in range(dfa.n):
        lines.append(f'  q{q} [label="{q}"];')
    for q in range(dfa.n):
        grouped: dict[int, list[int]] = {}
        for a in range(dfa.k):
            grouped.setdefault(dfa.delta[a][q], []).append(a)
        for t in sorted(grouped):
            label = ",".join(format_word((a,), dfa.k) for a in grouped[t])
            lines.append(f'  q{q} -> q{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

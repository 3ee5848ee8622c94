"""Mechanical probes of the proof procedure on concrete automata.

Nothing in here presumes the procedure works: every step measures what
actually happens and the report carries plain verdicts.  The probe takes a
synchronizing word and walks its prefixes once: the trace, the matching and
the prefix-column failures read each prefix's targets and image from that
walk.  The trace keeps the word once and two int columns beside it, each
prefix's rank and span dimension; prefix i + 1 is word[:i + 1].  The
probe assigns each prefix matrix a distinctive cell through an exact
maximum bipartite matching; each assignment names a solution of the sink
equation, which the report writes from the assignment and builds as a
matrix only when asked.  That the solutions solve it and stay independent
is a property of the construction, certified by the matching, not evidence
about the paper; the informative verdicts are the shortfall and the
prefix-column claim.  Every report is linear in the word's length: a prefix
is its length, never a copy of the word.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .automaton import (Dfa, Word, cerny_bound, check_word, format_word, shortest_reset_length,
                        EXACT_SEARCH_LIMIT)
from .errors import CapacityError, DomainError, RowsyncError
from .exactlin import RationalBasis
from .rowmon import RowMonomialMatrix

__all__ = [
    "PrefixTrace", "prefix_trace", "maximum_matching",
    "MatchingReport", "BoundVerdict", "ProbeReport",
    "allocation_probe", "bound_check",
]


@dataclass(frozen=True)
class PrefixTrace:
    """The reset word, held once, and two columns over its nonempty prefixes.

    Entry i of r_sizes and dimensions belongs to prefix word[:i + 1]: its
    matrix rank and the span dimension of the prefix matrices so far.
    """

    word: Word
    r_sizes: tuple[int, ...]
    dimensions: tuple[int, ...]

    def to_json(self) -> list[dict]:
        """One object per prefix; the prefix is word[:length], so none repeats it."""
        return [{"length": length, "r_size": r_size, "dimension": dimension}
                for length, (r_size, dimension) in enumerate(zip(self.r_sizes, self.dimensions), start=1)]


def _walk(dfa: Dfa, word: Sequence[int]) -> tuple[Word, int, list[tuple[int, ...]], list[frozenset[int]]]:
    """Check a reset word and walk its nonempty prefixes.

    One walk along the word gives each prefix matrix's row targets, shortest
    first, next to its image (the set of its nonzero columns), and the state
    the word synchronizes to.  The Dfa is validated, so no prefix needs a
    RowMonomialMatrix.
    """
    w = check_word(dfa, word)
    targets = tuple(range(dfa.n))
    prefixes, images = [], []
    for a in w:
        row = dfa.delta[a]
        targets = tuple([row[t] for t in targets])
        prefixes.append(targets)
        images.append(frozenset(targets))
    image = images[-1] if images else frozenset(targets)
    if len(image) != 1:
        raise DomainError(
            f"word {format_word(w, dfa.k)!r} does not synchronize: image has {len(image)} states"
        )
    return w, targets[0], prefixes, images


def _trace(n: int, w: Word, prefixes: Sequence[tuple[int, ...]],
           images: Sequence[frozenset[int]]) -> PrefixTrace:
    basis = RationalBasis(n * n)
    dimensions = []
    for targets in prefixes:
        basis._add({r * n + t: 1 for r, t in enumerate(targets)})
        dimensions.append(basis.dimension)
    return PrefixTrace(word=w, r_sizes=tuple(map(len, images)), dimensions=tuple(dimensions))


def prefix_trace(dfa: Dfa, word: Sequence[int]) -> PrefixTrace:
    """Rank and cumulative span dimension along the prefixes of a reset word.

    The rank of each prefix matrix never grows from one prefix to the next,
    and the span dimension never drops; both facts are recorded here and
    asserted elsewhere.
    """
    w, _, prefixes, images = _walk(dfa, word)
    return _trace(dfa.n, w, prefixes, images)


def maximum_matching(free_rows: Sequence[Sequence[int]], n: int, columns: int) -> list[int | None]:
    """Maximum matching of left vertices to cells, deterministic for fixed input.

    Cell v is (row v % n, column block v // n), so there are n * columns
    cells, numbered column-major.  Left vertex u may take every cell whose
    row is in free_rows[u], and tries them block by block, in free_rows[u]'s
    order within a block.  The relation is never listed: the breadth-first
    layering reads, for each row, the left vertices matched into it, and
    scans each row once per phase, since a later scan reaches no vertex
    sooner.  Otherwise this is standard Hopcroft-Karp: repeated layering
    plus augmenting paths along it.  Returns, for each left vertex, its
    matched cell or None.  A phase that augments nothing is a bug in the
    layering and raises RowsyncError.
    """
    left_size = len(free_rows)
    match_left: list[int | None] = [None] * left_size
    match_right: list[int | None] = [None] * (n * columns)
    partners: list[list[int]] = [[] for _ in range(n)]
    starts = range(0, n * columns, n)
    unreachable = left_size + n * columns + 1
    dist = [0] * left_size

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(left_size):
            if match_left[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = unreachable
        scanned = [False] * n
        found = False
        while queue:
            u = queue.popleft()
            for r in free_rows[u]:
                if scanned[r]:
                    continue
                scanned[r] = True
                if len(partners[r]) < columns:
                    found = True
                for w in partners[r]:
                    if dist[w] == unreachable:
                        dist[w] = dist[u] + 1
                        queue.append(w)
        return found

    def dfs(u: int) -> bool:
        # dist[u] holds while u searches: a failed search marks only vertices deeper than u.
        d = dist[u] + 1
        for start in starts:
            for r in free_rows[u]:
                v = start + r
                w = match_right[v]
                if w is None or (dist[w] == d and dfs(w)):
                    old = match_left[u]
                    if old is not None:
                        partners[old % n].remove(u)
                    partners[r].append(u)
                    match_left[u] = v
                    match_right[v] = u
                    return True
        dist[u] = unreachable
        return False

    while bfs():
        if not any([dfs(u) for u in range(left_size) if match_left[u] is None]):
            # A sound layering augments at least once in every phase it opens.
            raise RowsyncError("maximum_matching's layering reached a free cell that no augmenting "
                               "path reaches; the matching is wrong")
    return match_left


@dataclass(frozen=True)
class MatchingReport:
    """Outcome of the prefix-to-cell assignment.

    assignments holds one entry per prefix offered to the matching, in
    prefix order: (prefix_length, row, column) when matched, None when the
    matching left that prefix without a cell.
    """

    cell_count: int
    cell_columns: tuple[int, ...]
    assignments: tuple[tuple[int, int, int] | None, ...]
    unmatched_prefix_lengths: tuple[int, ...]

    @property
    def success(self) -> bool:
        return not self.unmatched_prefix_lengths

    @property
    def prefix_count(self) -> int:
        return len(self.assignments)

    def to_json(self) -> dict:
        return {
            "success": self.success,
            "prefix_count": self.prefix_count,
            "cell_count": self.cell_count,
            "cell_columns": list(self.cell_columns),
            "matched": sum(1 for a in self.assignments if a is not None),
            "assignments": [
                None if a is None else {"prefix_length": a[0], "row": a[1], "column": a[2]}
                for a in self.assignments
            ],
            "unmatched_prefix_lengths": list(self.unmatched_prefix_lengths),
        }


@dataclass(frozen=True)
class BoundVerdict:
    """Shortest reset length against the (n-1)^2 bound."""

    n: int
    length: int | None
    status: str

    @property
    def bound(self) -> int:
        return cerny_bound(self.n)

    def to_json(self) -> dict:
        return {"n": self.n, "bound": self.bound, "length": self.length, "status": self.status}


@dataclass(frozen=True)
class ProbeReport:
    """Everything one probe run measured or certified.  See allocation_probe.

    prefix_column_failures holds, ascending, the prefix lengths at which
    column q of the prefix matrix is zero: the counterexamples to the
    prefix-column claim, reported and not asserted.
    """

    dfa: Dfa
    q: int
    trace: PrefixTrace
    matching: MatchingReport
    prefix_column_failures: tuple[int, ...]
    bound: BoundVerdict
    notes: tuple[str, ...]

    def _solution_targets(self) -> list[list[int]]:
        """Each solution's row targets: q in every row but the assigned row r, which goes to column c."""
        if not self.matching.success:
            return []
        sink = [self.q] * self.dfa.n
        solutions = []
        for _, r, c in self.matching.assignments:
            targets = sink.copy()
            targets[r] = c
            solutions.append(targets)
        return solutions

    @property
    def solutions(self) -> tuple[RowMonomialMatrix, ...]:
        """One solution matrix per matched prefix, in prefix order, built on each read."""
        return tuple(RowMonomialMatrix(n=self.dfa.n, targets=tuple(t)) for t in self._solution_targets())

    @property
    def solutions_ok(self) -> bool | None:
        """True on a full matching, whose certificate it states; None on a shortfall."""
        return self.matching.success or None

    @property
    def independence_rank(self) -> int | None:
        """The family's rank with the sink matrix, one more than the solution count by the certificate."""
        return self.matching.prefix_count + 1 if self.matching.success else None

    def to_json_dict(self) -> dict:
        return {
            "automaton": {"n": self.dfa.n, "k": self.dfa.k,
                          "delta": [list(row) for row in self.dfa.delta]},
            "reset_word": format_word(self.trace.word, self.dfa.k),
            "q": self.q,
            "prefix_trace": self.trace.to_json(),
            "matching": self.matching.to_json(),
            "solutions": self._solution_targets(),
            "solutions_ok": self.solutions_ok,
            "independence_rank": self.independence_rank,
            "prefix_column_failures": list(self.prefix_column_failures),
            "prefix_column_counterexamples": len(self.prefix_column_failures),
            "bound_verdict": self.bound.to_json(),
            "notes": list(self.notes),
        }


def _distinctive_columns(n: int, q: int) -> tuple[int, ...]:
    """Columns eligible for distinctive cells: all but q and one spare column.

    The spare column is the last one, or column 0 when q itself is last, so
    the universe always holds n-2 columns and n(n-2) cells.
    """
    spare = n - 1 if q != n - 1 else 0
    return tuple(c for c in range(n) if c != q and c != spare)


def bound_check(dfa: Dfa, limit: int = EXACT_SEARCH_LIMIT, shortest: int | None = None) -> BoundVerdict:
    """Compare the exact shortest reset length against (n-1)^2.

    shortest is the length of a known shortest reset word, found under the
    same limit; when given, no second subset search runs.  exceeds-bound
    would contradict the conjectured bound and is the one finding callers
    must never swallow.
    """
    length = shortest_reset_length(dfa, limit) if shortest is None else shortest
    bound = cerny_bound(dfa.n)
    if length is None:
        status = "not-synchronizing"
    elif length <= bound:
        status = "within-bound"
    else:
        status = "exceeds-bound"
    return BoundVerdict(n=dfa.n, length=length, status=status)


def allocation_probe(dfa: Dfa, word: Sequence[int], limit: int = EXACT_SEARCH_LIMIT,
                     shortest: int | None = None) -> ProbeReport:
    """Run the full allocation procedure for one synchronizing word.

    Steps: collect the prefixes whose matrix rank exceeds one (at most
    n(n-2) of them), list each one's free rows (the rows outside its image,
    free in its sink equation), compute an exact maximum matching of the
    prefixes to cells (r, c) with r a free row and c a distinctive column,
    a relation that maximum_matching reads from the free rows without
    listing it.  On full success, the solution of prefix i is the sink
    matrix with its assigned row r sent to its column c instead of q; the
    report holds only the assignments, writes each solution's targets from
    them, and builds RowMonomialMatrix objects only when .solutions is read.

    The matching's certificate: the matched cells are distinct, none lies
    in column q, and each cell's row lies outside its prefix's image; a
    failure is a bug in maximum_matching and raises RowsyncError.  So each
    solution solves its prefix's sink equation, and solution i minus the
    sink matrix is the only member nonzero at cell i, so the family with
    the sink matrix has rank one more than the number of matched prefixes.
    The report's solutions_ok and independence_rank read that off the
    matching; they measure nothing.

    Prefixes with larger image sets are offered to the matching first; that
    ordering is a tie-break between maximum matchings, not a correctness
    requirement.  A matching shortfall is recorded as a finding, never an
    error.  q is the state the word synchronizes to.  limit and shortest
    are passed to bound_check.
    """
    w, sink, prefixes, images = _walk(dfa, word)
    n = dfa.n
    notes: list[str] = ["empty prefix excluded by convention"]

    trace = _trace(n, w, prefixes, images)

    # Cell v is (v % n, cell_columns[v // n]): column-major, as maximum_matching numbers them.
    cell_columns = _distinctive_columns(n, sink)
    cell_count = n * len(cell_columns)
    collected = [i for i, r_size in enumerate(trace.r_sizes) if r_size > 1]
    if len(collected) > cell_count:
        notes.append(f"{len(collected)} prefixes with rank above one, keeping the first {cell_count}")
        collected = collected[:cell_count]

    # Image sizes never grow along the word, so in prefix order the prefixes
    # with larger images are offered to the matching first.
    free_rows = [[r for r in range(n) if r not in images[i]] for i in collected]
    match_left = maximum_matching(free_rows, n, len(cell_columns))

    assigned = {i: (v % n, cell_columns[v // n]) for i, v in zip(collected, match_left) if v is not None}
    if (len(set(assigned.values())) < len(assigned)
            or any(c == sink or r in images[i] for i, (r, c) in assigned.items())):
        raise RowsyncError("maximum_matching assigned a shared cell, a cell in column q or a row "
                           "inside a prefix's image; the matching is wrong")
    assignments = tuple((i + 1, *assigned[i]) if i in assigned else None for i in collected)
    unmatched = tuple(i + 1 for i in collected if i not in assigned)
    matching = MatchingReport(cell_count=cell_count, cell_columns=cell_columns,
                              assignments=assignments, unmatched_prefix_lengths=unmatched)
    if not matching.success:
        notes.append(f"matching shortfall: {len(unmatched)} prefixes without a distinctive cell")

    failures = tuple(i for i, image in enumerate(images, start=1) if sink not in image)
    try:
        bound = bound_check(dfa, limit, shortest)
    except CapacityError:
        bound = BoundVerdict(n=n, length=None, status="skipped-capacity")
        notes.append("exact bound check skipped: state count above the exact-search limit")

    return ProbeReport(dfa=dfa, q=sink, trace=trace, matching=matching,
                       prefix_column_failures=failures, bound=bound, notes=tuple(notes))

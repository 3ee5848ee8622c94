"""Randomized and exhaustive invariant suites.

Each suite hammers one cluster of library claims over many instances and
returns a SuiteResult with a violation list that is expected to stay empty.
The suites double as the implementation of the `lemmas` CLI verb and as the
workhorses of the acceptance tests, so their sampling is fully driven by
one seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .automaton import _random_dfa
from .equation import enumerate_solutions, is_solution, leq_q, minimal_solution
from .exactlin import (all_row_monomial, check_sum_conditions, combine, common_column_span_dimension,
                       common_denominator, decompose_vij, express, flatten, matrix_rank,
                       sink_family_dimension, span_dimension, two_column_span_dimension, vij_basis)
from .rowmon import (RowMonomialMatrix, column_rows, column_unit_counts, is_permutation,
                     matrix_of_word, multiply, nonzero_columns, rank)

DEFAULT_SAMPLES = 10_000
DEFAULT_FAMILY_SAMPLES = 1_000


@dataclass
class SuiteResult:
    name: str
    checks: int
    violations: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"name": self.name, "checks": self.checks, "ok": self.ok,
                "violations": list(self.violations), "extras": self.extras}


def rank_monotonicity_suite(samples: int = DEFAULT_SAMPLES, seed: int = 0) -> SuiteResult:
    """Rank equals nonzero-column count, with the product monotonicity laws.

    Per sample: a random automaton, word u and letter a.  Checks that the
    rank of M_u, its column count, matches exact elimination, that
    appending a letter never raises the rank, that prepending one keeps the
    column set inside the old one, and that permutation letters preserve
    everything they should.
    """
    rng = random.Random(seed)
    result = SuiteResult(name="rank-monotonicity", checks=0)
    for idx in range(samples):
        n = rng.randint(2, 6)
        k = rng.randint(1, 4)
        dfa = _random_dfa(rng, n, k)
        u = tuple(rng.randrange(k) for _ in range(rng.randint(0, 2 * n)))
        a = rng.randrange(k)
        m_u = matrix_of_word(dfa, u)
        m_a = matrix_of_word(dfa, (a,))
        cols_u = nonzero_columns(m_u)
        found = []
        if matrix_rank(m_u) != rank(m_u):
            found.append(f"elimination rank {matrix_rank(m_u)} != {rank(m_u)}")
        m_ua = multiply(m_u, m_a)
        m_au = multiply(m_a, m_u)
        if matrix_of_word(dfa, u + (a,)) != m_ua or matrix_of_word(dfa, (a,) + u) != m_au:
            found.append("matrix of concatenation disagrees with product")
        if rank(m_ua) > rank(m_u):
            found.append("appending letter raised rank")
        if not nonzero_columns(m_au) <= cols_u:
            found.append("prepending letter left the old column set")
        if is_permutation(m_a):
            if rank(m_ua) != rank(m_u):
                found.append("permutation letter changed rank on the right")
            if nonzero_columns(m_au) != cols_u:
                found.append("permutation letter changed columns on the left")
            if column_unit_counts(m_au) != column_unit_counts(m_u):
                found.append("permutation letter changed column unit counts")
        merged = {}
        for c in range(n):
            rows = column_rows(m_u, c)
            if rows:
                merged.setdefault(m_a.targets[c], set()).update(rows)
        for c in range(n):
            if set(column_rows(m_ua, c)) != merged.get(c, set()):
                found.append(f"product column {c} is not the merge of source columns")
                break
        if found:
            # The tag is formatted only for a sample that has a violation.
            tag = f"sample {idx} (n={n}, k={k}, u={u}, a={a})"
            result.violations += [f"{tag}: {message}" for message in found]
        result.checks += 1
    return result


def sum_conditions_suite(samples: int = DEFAULT_SAMPLES, seed: int = 1) -> SuiteResult:
    """Coefficient sums of exact combinations of row monomial matrices.

    Solvable instances by construction: the spanning family for the first k
    columns, optionally padded with random members, and a random target in
    its span.  Even-indexed samples check a row monomial target (sums must
    be 1); odd ones fold the target in with coefficient -1 and check the
    zero matrix (sums must be 0).  Every combination is re-evaluated before
    its verdict counts.
    """
    rng = random.Random(seed)
    result = SuiteResult(name="sum-conditions", checks=0)
    for idx in range(samples):
        n = rng.randint(2, 5)
        k = rng.randint(2, n)
        family = vij_basis(n, k)
        for _ in range(rng.randint(0, 3)):
            extra = RowMonomialMatrix(n=n, targets=tuple(rng.randrange(k) for _ in range(n)))
            family.insert(rng.randrange(len(family) + 1), extra)
        target = RowMonomialMatrix(n=n, targets=tuple(rng.randrange(k) for _ in range(n)))
        coeffs = express(target, family)
        found = []
        if coeffs is None:
            found.append("spanning family failed to express target")
        else:
            numerators, denominator = common_denominator(coeffs)
            if combine(numerators, family, n) != [denominator * v for v in flatten(target)]:
                found.append("expressed combination does not reproduce target")
            if idx % 2 == 0:
                verdict = check_sum_conditions(coeffs, family, target)
            else:
                verdict = check_sum_conditions(tuple(coeffs) + (Fraction(-1),), family + [target], None)
            if not verdict.ok:
                found.append("; ".join(verdict.violations))
        if found:
            tag = f"sample {idx} (n={n}, k={k}, target={target.targets})"
            result.violations += [f"{tag}: {message}" for message in found]
        result.checks += 1
    return result


def basis_dimension_suite(max_n: int = 6, samples: int = DEFAULT_FAMILY_SAMPLES,
                          seed: int = 2) -> SuiteResult:
    """Ranks of the distinguished bases and the spaces they sit in.

    For every n up to max_n and every 2 <= k <= n the spanning family must
    have rank n(k-1)+1 and lose exactly one dimension per dropped member.
    Decomposition is replayed on every row monomial target for n <= 4 and on
    random targets beyond.  For n <= 5 the span of all row monomial n x n
    matrices must come out n(n-1)+1 exactly.  Extras carry the measured
    dimensions for the two-column and common-column family readings.
    """
    rng = random.Random(seed)
    result = SuiteResult(name="basis-dimension", checks=0)
    for n in range(2, max_n + 1):
        for k in range(2, n + 1):
            family = vij_basis(n, k)
            expected = n * (k - 1) + 1
            dim = span_dimension(family)
            if len(family) != expected or dim != expected:
                result.violations.append(f"n={n}, k={k}: family size {len(family)}, rank {dim}, expected {expected}")
            for drop in range(len(family)):
                if span_dimension(family[:drop] + family[drop + 1:]) != expected - 1:
                    result.violations.append(f"n={n}, k={k}: dropping member {drop} did not lower rank by one")
            result.checks += 1 + len(family)
            if n <= 4:
                targets_iter = all_row_monomial(n, columns=tuple(range(k)))
            else:
                targets_iter = (RowMonomialMatrix(n=n, targets=tuple(rng.randrange(k) for _ in range(n)))
                                for _ in range(max(1, samples // (n - 1))))
            for t in targets_iter:
                coeffs = decompose_vij(t, k)
                verdict = check_sum_conditions(coeffs, family, t)
                if not verdict.ok:
                    result.violations.append(f"n={n}, k={k}, t={t.targets}: {'; '.join(verdict.violations)}")
                result.checks += 1
    for n in range(1, 6):
        dim = span_dimension(all_row_monomial(n))
        if dim != n * (n - 1) + 1:
            result.violations.append(f"n={n}: full span dimension {dim} != {n * (n - 1) + 1}")
        result.checks += 1
    measured = {}
    for n in range(3, 6):
        pair_dims = sorted({two_column_span_dimension(n, c, d)
                            for c in range(n) for d in range(c + 1, n)})
        measured[str(n)] = {
            "two_column_pairs": pair_dims,
            "single_column_family": sink_family_dimension(n),
            "shared_column_at_most_two": common_column_span_dimension(n, 0),
        }
    result.extras["column_family_dimensions"] = measured
    return result


def sink_equation_suite(random_samples: int = DEFAULT_FAMILY_SAMPLES, seed: int = 3) -> SuiteResult:
    """Solution families of the sink equation, instance i with q = i % n.

    Exhaustive over every 3 x 3 row monomial matrix, then random matrices
    with n in {4, 5}.  q cycles through the columns with the instance and
    takes no random draw, so the matrices are those of a q = 0 run.  Checks
    the counting formulas, that every enumerated candidate really multiplies
    to the sink matrix, and that each minimal solution sits below every
    solution in the q-column order.
    """
    rng = random.Random(seed)
    result = SuiteResult(name="sink-equation", checks=0)

    def check_one(m_u: RowMonomialMatrix, index: int, tag: str):
        n = m_u.n
        q = index % n
        tag = f"{tag} q={q}"
        free = n - len(set(m_u.targets))
        sols = list(enumerate_solutions(m_u, q))
        if len(sols) != n ** free:
            result.violations.append(f"{tag}: found {len(sols)} solutions, expected {n ** free}")
        bad = [s for s in sols if not is_solution(m_u, s, q)]
        if bad:
            result.violations.append(f"{tag}: {len(bad)} enumerated candidates fail the equation")
        minimal = list(enumerate_solutions(m_u, q, minimal=True))
        if len(minimal) != (n - 1) ** free:
            result.violations.append(f"{tag}: found {len(minimal)} minimal solutions, expected {(n - 1) ** free}")
        lo = minimal_solution(m_u, q)
        if lo not in minimal:
            result.violations.append(f"{tag}: default minimal solution is not in the minimal family")
        for small in minimal:
            if not all(leq_q(small, other, q) for other in sols):
                result.violations.append(f"{tag}: minimal solution {small.targets} not below every solution")
                break
        result.checks += 1

    for index, m_u in enumerate(all_row_monomial(3)):
        check_one(m_u, index, f"n=3 targets={m_u.targets}")
    for idx in range(random_samples):
        n = rng.choice((4, 5))
        m_u = RowMonomialMatrix(n=n, targets=tuple(rng.randrange(n) for _ in range(n)))
        check_one(m_u, idx, f"sample {idx} n={n} targets={m_u.targets}")
    return result


def run_all(seed: int = 0, samples: int = DEFAULT_SAMPLES,
            family_samples: int = DEFAULT_FAMILY_SAMPLES) -> list[SuiteResult]:
    """All shipped suites, seeded off one base seed."""
    return [
        rank_monotonicity_suite(samples=samples, seed=seed),
        sum_conditions_suite(samples=samples, seed=seed + 1),
        basis_dimension_suite(samples=family_samples, seed=seed + 2),
        sink_equation_suite(random_samples=family_samples, seed=seed + 3),
    ]

"""Synchronizing automata through row monomial matrices.

Exact shortest reset words, matrices of words with exact rational span
machinery, solution families of the sink equation, and mechanical probes of
the allocation procedure behind the (n-1)^2 bound question.
"""

from .automaton import (Dfa, Word, cerny_automaton, cerny_bound, check_word, conjugacy_classes,
                        count_dfas, cubic_bound, format_word, greedy_reset_word,
                        is_strongly_connected, is_synchronizing, parse_word, random_dfa, read_dfa,
                        read_dfa_text, shortest_reset_length, shortest_reset_word, to_dot,
                        write_dfa, write_dfa_text, EXACT_SEARCH_LIMIT, DEFAULT_ENUM_BUDGET)
from .equation import enumerate_solutions, is_solution, leq_q, minimal_solution, sink_matrix
from .errors import CapacityError, DomainError, InvalidWordError, ParseError, RowsyncError
from .exactlin import (RationalBasis, all_row_monomial, check_sum_conditions, decompose_vij,
                       express, express_vectors, flatten, matrix_rank, span_dimension, units,
                       vij_basis)
from .probe import (BoundVerdict, MatchingReport, PrefixTrace, ProbeReport, allocation_probe,
                    bound_check, maximum_matching, prefix_trace)
from .rowmon import (RowMonomialMatrix, column_rows, column_unit_counts, identity,
                     is_permutation, matrix_of_word, multiply, nonzero_columns, rank)

__version__ = "0.1.0"

"""Greedy case shrinker.

Reduces a failing case to a (locally) minimal statement list that still
fails, by repeatedly trying structural simplifications and keeping any that
preserve the failure:

* delete a statement (anywhere in the tree, innermost positions included);
* replace an ``if`` by its then- or else-body (hoisting the contents);
* replace a ``while`` by its body, run once.

Passes repeat to a fixpoint.  The predicate is re-evaluated from scratch on
every candidate, so shrinking works for any failure mode the oracle can
detect — memory divergence, profile divergence, error-status disagreement
or profile-invariant violations.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Iterator, List

from repro.fuzz.generator import Case, case_stmt_count

Stmt = Dict[str, Any]


def shrink_case(case: Case, still_fails: Callable[[Case], bool]) -> Case:
    """Greedily minimize ``case`` while ``still_fails(candidate)`` holds.

    ``still_fails`` must be true for ``case`` itself; the returned case is
    the smallest variant found (possibly the input, if nothing simplifies).
    """
    current = copy.deepcopy(case)
    progress = True
    while progress:
        progress = False
        for candidate in _candidates(current):
            if case_stmt_count(candidate) >= case_stmt_count(current):
                continue
            if still_fails(candidate):
                current = candidate
                progress = True
                break
    return current


def _candidates(case: Case) -> Iterator[Case]:
    """Yield all one-step simplifications of ``case``, biggest-win first."""
    for new_stmts in _list_variants(case["stmts"]):
        candidate = dict(case)
        candidate["stmts"] = new_stmts
        yield copy.deepcopy(candidate)


def _list_variants(stmts: List[Stmt]) -> Iterator[List[Stmt]]:
    # Whole-statement deletions first: removing an outer statement drops its
    # entire subtree in one predicate evaluation.
    for i in range(len(stmts)):
        yield stmts[:i] + stmts[i + 1 :]
    # Control-flow flattening: an if/loop replaced by (one of) its bodies.
    for i, stmt in enumerate(stmts):
        if stmt["k"] == "if":
            yield stmts[:i] + stmt["then"] + stmts[i + 1 :]
            if stmt["else"]:
                yield stmts[:i] + stmt["else"] + stmts[i + 1 :]
        elif stmt["k"] in ("while", "sloop"):
            yield stmts[:i] + stmt["body"] + stmts[i + 1 :]
    # Recursive simplification inside nested bodies.
    for i, stmt in enumerate(stmts):
        if stmt["k"] == "if":
            for variant in _list_variants(stmt["then"]):
                yield stmts[:i] + [{**stmt, "then": variant}] + stmts[i + 1 :]
            for variant in _list_variants(stmt["else"]):
                yield stmts[:i] + [{**stmt, "else": variant}] + stmts[i + 1 :]
        elif stmt["k"] in ("while", "sloop"):
            for variant in _list_variants(stmt["body"]):
                yield stmts[:i] + [{**stmt, "body": variant}] + stmts[i + 1 :]

"""Query-feature coverage: what the synthesized queries actually exercise.

The paper's effectiveness argument rests on the *surface* its queries cover
— which clauses, functions, and operators appear, how deeply expressions
nest, what pattern shapes occur (§5.3, Figures 11–15) — yet a campaign log
alone only says how many queries ran.  This module maps every test query to
a discrete **feature vector** and accumulates, per (tester, engine, seed)
cell, the set of features covered so far plus a coverage-over-time curve
(distinct features vs. queries issued), the lens GDsmith and similar tools
report as a first-class evaluation metric.

Design rules mirror :mod:`repro.obs.metrics`:

* extraction reuses the AST analyses of :mod:`repro.cypher.analysis` and
  draws no randomness — coverage on or off leaves campaign results
  byte-identical;
* per-cell snapshots are plain JSON dicts with sorted keys, and
  :func:`merge_coverage_snapshots` folds any number of them in **sorted
  cell order**, so the merged grid coverage is independent of worker count
  and completion order (the same barrier-merge discipline as
  :func:`repro.obs.metrics.merge_snapshots`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.cypher import ast
from repro.cypher.analysis import analyze, clause_types_in, functions_in

__all__ = [
    "query_feature_tags",
    "feature_kind",
    "CellCoverage",
    "CoverageSchemaError",
    "COVERAGE_SCHEMA_VERSION",
    "merge_coverage_snapshots",
    "coverage_curve",
]

AnyQuery = Any  # ast.Query | ast.UnionQuery

#: Version stamp written into every coverage snapshot.  Bump when the
#: snapshot layout changes incompatibly; the mergers refuse mixed versions
#: instead of silently mis-merging them.
COVERAGE_SCHEMA_VERSION = 1


class CoverageSchemaError(ValueError):
    """A coverage snapshot carries an incompatible schema version.

    Raised by :func:`merge_coverage_snapshots` and :func:`coverage_curve`
    instead of silently merging mismatched layouts; names the offending
    cell so a bad resume log is traceable to its source.
    """

    def __init__(self, cell: str, found: Any, expected: int):
        self.cell = cell
        self.found = found
        self.expected = expected
        stamp = ("no schema stamp" if found is None
                 else f"schema version {found!r}")
        super().__init__(
            f"coverage snapshot for cell {cell} has {stamp}; this build "
            f"reads version {expected}"
        )


def _check_schema(snapshot: Dict[str, Any], cell: str) -> None:
    version = snapshot.get("schema")
    if version != COVERAGE_SCHEMA_VERSION:
        raise CoverageSchemaError(cell, version, COVERAGE_SCHEMA_VERSION)

# Expression nesting deeper than this is tagged ``depth:5+`` — the paper's
# complexity histograms (Figure 12) flatten the tail the same way.
_DEPTH_CAP = 5
# Path patterns longer than this are tagged ``shape:path-3+``.
_PATH_CAP = 3


def feature_kind(tag: str) -> str:
    """The feature family of a coverage tag (``clause:MATCH`` → ``clause``)."""
    return tag.split(":", 1)[0]


def _operators_in(query: AnyQuery) -> List[str]:
    """Every operator occurrence in *query* (with repeats)."""
    names: List[str] = []

    def visit(expr: ast.Expression) -> None:
        if isinstance(expr, ast.Binary):
            names.append(expr.op)
        elif isinstance(expr, ast.Unary):
            names.append(expr.op)
        elif isinstance(expr, ast.IsNull):
            names.append("IS NOT NULL" if expr.negated else "IS NULL")
        elif isinstance(expr, ast.CaseExpression):
            names.append("CASE")
        elif isinstance(expr, ast.ListIndex):
            names.append("[]")
        elif isinstance(expr, ast.ListSlice):
            names.append("[..]")
        elif isinstance(expr, ast.ListComprehension):
            names.append("list-comprehension")
        elif isinstance(expr, ast.PatternPredicate):
            names.append("pattern-predicate")
        elif isinstance(expr, ast.CountStar):
            names.append("count(*)")
        for child in expr.children():
            visit(child)

    for sub in _flatten(query):
        for clause in sub.clauses:
            for expr in ast.walk_expressions(clause):
                visit(expr)
    return names


def _flatten(query: AnyQuery) -> List[ast.Query]:
    if isinstance(query, ast.UnionQuery):
        return _flatten(query.left) + [query.right]
    return [query]


def _pattern_shapes_in(query: AnyQuery) -> List[str]:
    """Discrete pattern-shape tags: path lengths, direction, label arity."""
    shapes: List[str] = []

    def scan_pattern(pattern: ast.PathPattern) -> None:
        length = len(pattern.relationships)
        if length >= _PATH_CAP:
            shapes.append(f"path-{_PATH_CAP}+")
        else:
            shapes.append(f"path-{length}")
        if pattern.path_variable:
            shapes.append("named-path")
        for rel in pattern.relationships:
            if rel.direction == ast.BOTH:
                shapes.append("undirected-rel")
            if rel.types:
                shapes.append("typed-rel")
        for node in pattern.nodes:
            if len(node.labels) >= 2:
                shapes.append("multi-label-node")
            elif node.labels:
                shapes.append("labeled-node")

    for sub in _flatten(query):
        for clause in sub.clauses:
            if isinstance(clause, (ast.Match, ast.Create)):
                for pattern in clause.patterns:
                    scan_pattern(pattern)
            elif isinstance(clause, ast.Merge):
                scan_pattern(clause.pattern)
    return shapes


# Write clause name → lowercase family tag (repro.synth.state statement
# kinds); DETACH DELETE and DELETE share the ``delete`` family.
_WRITE_FAMILIES = {
    "CREATE": "create",
    "MERGE": "merge",
    "SET": "set",
    "DELETE": "delete",
    "DETACH DELETE": "delete",
    "REMOVE": "remove",
}


def query_feature_tags(query: AnyQuery) -> List[str]:
    """The feature vector of one query, as ``kind:value`` tags (with repeats).

    Families: ``clause`` (clauses and subclauses, Figure 11 accounting),
    ``function`` (lower-cased names), ``operator`` (binary/unary/special
    operators), ``shape`` (pattern shapes), and ``depth`` (max expression
    nesting, capped).  Repeats are preserved so the accumulator can report
    per-feature occurrence counts alongside the covered set.
    """
    clause_names = clause_types_in(query)
    tags = [f"clause:{name}" for name in clause_names]
    # Write-clause *family* tags (lowercase, so they cannot collide with
    # the verbatim clause names above): one per write family occurrence,
    # with DETACH DELETE folding into the ``delete`` family.  These are
    # what the stateful adaptive arms steer on.
    tags.extend(
        f"clause:{_WRITE_FAMILIES[name]}"
        for name in clause_names
        if name in _WRITE_FAMILIES
    )
    tags.extend(f"function:{name}" for name in functions_in(query))
    tags.extend(f"operator:{name}" for name in _operators_in(query))
    tags.extend(f"shape:{name}" for name in _pattern_shapes_in(query))
    depth = analyze(query).expression_depth
    if depth >= _DEPTH_CAP:
        tags.append(f"depth:{_DEPTH_CAP}+")
    else:
        tags.append(f"depth:{depth}")
    return tags


def query_of(proposal: Any) -> Optional[AnyQuery]:
    """The query AST behind a tester proposal (GQS wraps it in a synthesis)."""
    query = getattr(proposal, "query", proposal)
    if isinstance(query, (ast.Query, ast.UnionQuery)):
        return query
    return None


class CellCoverage:
    """Feature coverage accumulated over one (tester, engine, seed) cell.

    ``observe`` is called once per test query; the accumulator tracks
    per-feature occurrence counts, the query index at which each feature was
    first covered, and the coverage-over-time curve — one ``[queries,
    distinct_features]`` point appended whenever a query introduces at least
    one new feature.
    """

    def __init__(self, tester: str, engine: str, seed: int):
        self.tester = tester
        self.engine = engine
        self.seed = seed
        self.queries = 0
        self._counts: Dict[str, int] = {}
        self._first_seen: Dict[str, int] = {}
        self._curve: List[Tuple[int, int]] = []

    def observe(self, proposal: Any) -> None:
        """Fold one proposal's query into the coverage sets."""
        query = query_of(proposal)
        if query is None:
            return
        self.queries += 1
        grew = False
        for tag in query_feature_tags(query):
            if tag not in self._counts:
                self._counts[tag] = 0
                self._first_seen[tag] = self.queries
                grew = True
            self._counts[tag] += 1
        if grew:
            self._curve.append((self.queries, len(self._counts)))

    @property
    def features(self) -> List[str]:
        """The covered feature set, sorted."""
        return sorted(self._counts)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready per-cell coverage snapshot with stable key order."""
        return {
            "schema": COVERAGE_SCHEMA_VERSION,
            "tester": self.tester,
            "engine": self.engine,
            "seed": self.seed,
            "queries": self.queries,
            "features": {
                tag: [self._counts[tag], self._first_seen[tag]]
                for tag in sorted(self._counts)
            },
            "curve": [[q, n] for q, n in self._curve],
        }


def _cell_key(snapshot: Dict[str, Any]) -> Tuple[str, str, int]:
    return (
        str(snapshot.get("tester", "?")),
        str(snapshot.get("engine", "?")),
        int(snapshot.get("seed", 0)),
    )


def merge_coverage_snapshots(
    snapshots: Iterable[Dict[str, Any]],
) -> Dict[str, Any]:
    """Barrier-merge per-cell coverage snapshots into one grid snapshot.

    Cells are folded in sorted (tester, engine, seed) order, so the merged
    feature counts, the grid-level first-seen indices (computed over the
    concatenated query sequence), and the grid coverage curve are identical
    for any worker count and any completion order.

    Every input snapshot's schema version is validated first;
    :class:`CoverageSchemaError` names the offending cell.
    """
    ordered = sorted(snapshots, key=_cell_key)
    for snap in ordered:
        _check_schema(snap, "/".join(str(p) for p in _cell_key(snap)))
    counts: Dict[str, int] = {}
    first_seen: Dict[str, int] = {}
    curve: List[List[int]] = []
    cells: Dict[str, Dict[str, Any]] = {}
    offset = 0
    covered: set = set()
    for snap in ordered:
        key = "/".join(str(part) for part in _cell_key(snap))
        cells[key] = {
            "queries": snap.get("queries", 0),
            "features": len(snap.get("features", {})),
            "curve": [list(point) for point in snap.get("curve", ())],
        }
        for tag, (count, first) in snap.get("features", {}).items():
            counts[tag] = counts.get(tag, 0) + count
            if tag not in first_seen:
                first_seen[tag] = offset + first
        # Extend the grid curve: within this cell, features new to the
        # *grid* move the cumulative count; replay the cell's first-seen
        # events in query order.
        events = sorted(
            (first, tag)
            for tag, (_count, first) in snap.get("features", {}).items()
            if tag not in covered
        )
        for first, tag in events:
            covered.add(tag)
            point = [offset + first, len(covered)]
            if curve and curve[-1][0] == point[0]:
                curve[-1][1] = point[1]
            else:
                curve.append(point)
        offset += snap.get("queries", 0)
    return {
        "schema": COVERAGE_SCHEMA_VERSION,
        "queries": offset,
        "features": {
            tag: [counts[tag], first_seen[tag]] for tag in sorted(counts)
        },
        "curve": curve,
        "cells": cells,
    }


def coverage_curve(snapshot: Dict[str, Any]) -> List[Tuple[int, int]]:
    """The ``(queries, distinct features)`` curve of a coverage snapshot.

    Raises :class:`CoverageSchemaError` on a snapshot written by an
    incompatible build rather than decoding its curve as garbage.
    """
    _check_schema(snapshot, "/".join(str(p) for p in _cell_key(snapshot)))
    return [(int(q), int(n)) for q, n in snapshot.get("curve", ())]

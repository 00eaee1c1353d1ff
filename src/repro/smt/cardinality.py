"""CNF cardinality constraints.

Two families, both operating directly on SAT literals through a
``new_var``/``add_clause`` interface so they can target either the SMT
solver's CNF or a standalone SAT instance:

* **Fixed-threshold** sequential-counter (Sinz) encodings
  (:func:`encode_at_most` and friends): the sequential counter for
  ``sum(lits) <= k`` introduces ``n*k`` auxiliary variables and O(n*k)
  clauses and is arc-consistent under unit propagation.  A budget
  change requires a re-encode.
* **Assumption-selectable** totalizer (:class:`IncrementalAtMost`):
  encodes the unary count up to a cap once (O(n*cap) clauses); every
  threshold ``sum(lits) <= k`` below the cap is then a single
  *assumption literal*, so a budget sweep or binary search re-uses one
  encoding — and one incremental solver with all its learned clauses —
  across every probe.  A threshold at or past the cap needs a larger
  counter, built alongside on the same solver.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence


def encode_at_most(
    lits: Sequence[int],
    k: int,
    new_var: Callable[[], int],
    add_clause: Callable[[List[int]], None],
) -> None:
    """Encode ``sum(lits) <= k`` (each literal counts when true)."""
    n = len(lits)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k >= n:
        return
    if k == 0:
        for lit in lits:
            add_clause([-lit])
        return
    # registers[i][j] is true iff at least j+1 of lits[0..i] are true
    prev: List[int] = []
    for i, lit in enumerate(lits):
        width = min(i + 1, k)
        cur = [new_var() for _ in range(width)]
        # lits[i] -> cur[0]
        add_clause([-lit, cur[0]])
        for j in range(len(prev)):
            # carry: prev[j] -> cur[j]
            add_clause([-prev[j], cur[j]])
            # increment: lit & prev[j] -> cur[j+1]
            if j + 1 < width:
                add_clause([-lit, -prev[j], cur[j + 1]])
        if i >= k:
            # overflow: lit & prev[k-1] -> false
            add_clause([-lit, -prev[k - 1]])
        prev = cur


def encode_at_least(
    lits: Sequence[int],
    k: int,
    new_var: Callable[[], int],
    add_clause: Callable[[List[int]], None],
) -> None:
    """Encode ``sum(lits) >= k`` via at-most on the negated literals."""
    n = len(lits)
    if k <= 0:
        return
    if k > n:
        add_clause([])  # unsatisfiable
        return
    if k == n:
        for lit in lits:
            add_clause([lit])
        return
    encode_at_most([-lit for lit in lits], n - k, new_var, add_clause)


def encode_exactly(
    lits: Sequence[int],
    k: int,
    new_var: Callable[[], int],
    add_clause: Callable[[List[int]], None],
) -> None:
    """Encode ``sum(lits) == k``."""
    encode_at_most(lits, k, new_var, add_clause)
    encode_at_least(lits, k, new_var, add_clause)


# ----------------------------------------------------------------------
# assumption-selectable thresholds (totalizer)
# ----------------------------------------------------------------------
def _merge_counts(
    left: List[int],
    right: List[int],
    new_var: Callable[[], int],
    add_clause: Callable[[List[int]], None],
    cap: int,
) -> List[int]:
    """Totalizer merge: unary counts of two child nodes into their union.

    ``left[i-1]`` / ``right[j-1]`` mean "at least i / j inputs of that
    child are true"; the output ``out[m-1]`` means "at least m inputs of
    the union are true", for ``m <= cap``.  Only the upward direction
    (inputs force outputs) is emitted, which is exactly what ``<= k``
    selection via the negated output needs, and only for ``i + j <=
    cap``: a child count past the cap still forces every kept output.
    """
    p, q = len(left), len(right)
    out = [new_var() for _ in range(min(p + q, cap))]
    for i in range(1, p + 1):
        add_clause([-left[i - 1], out[i - 1]])
    for j in range(1, q + 1):
        add_clause([-right[j - 1], out[j - 1]])
    for i in range(1, min(p, cap - 1) + 1):
        for j in range(1, min(q, cap - i) + 1):
            add_clause([-left[i - 1], -right[j - 1], out[i + j - 1]])
    return out


def encode_totalizer(
    lits: Sequence[int],
    new_var: Callable[[], int],
    add_clause: Callable[[List[int]], None],
    cap: Optional[int] = None,
) -> List[int]:
    """Encode the unary count of ``lits`` up to ``cap``; return the outputs.

    The returned list ``outputs`` has ``min(len(lits), cap)`` literals
    (``cap`` None: one per input); ``outputs[j-1]`` is forced true
    whenever at least ``j`` of ``lits`` are true.  Assuming
    ``-outputs[k]`` therefore enforces ``sum(lits) <= k`` for every ``k
    < len(outputs)``.  A balanced merge tree keeps the auxiliary
    variable count at O(n log n) and the clause count at O(n*cap).
    """
    cap = len(lits) if cap is None else cap
    nodes: List[List[int]] = [[lit] for lit in lits]
    while len(nodes) > 1:
        merged: List[List[int]] = []
        for i in range(0, len(nodes) - 1, 2):
            merged.append(
                _merge_counts(nodes[i], nodes[i + 1], new_var, add_clause, cap)
            )
        if len(nodes) % 2:
            merged.append(nodes[-1])
        nodes = merged
    return nodes[0] if nodes else []


class IncrementalAtMost:
    """``sum(lits) <= k`` for any ``k`` below a cap, selected by assumption.

    Encodes the totalizer count once, truncated at ``cap`` outputs
    (default: none dropped); :meth:`at_most` maps a budget to the
    assumption literal that enforces it (or None when the budget does
    not bind).  Because thresholds are assumptions rather than clauses,
    a solver can answer a whole budget sweep on one encoding, and an
    UNSAT answer's failed-assumption core tells the caller whether the
    budget — as opposed to the rest of the formula — caused the
    infeasibility.
    """

    def __init__(
        self,
        lits: Sequence[int],
        new_var: Callable[[], int],
        add_clause: Callable[[List[int]], None],
        cap: Optional[int] = None,
    ) -> None:
        self.size = len(lits)
        self.cap = self.size if cap is None else min(self.size, cap)
        self.outputs = encode_totalizer(lits, new_var, add_clause, self.cap)

    def at_most(self, k: int) -> Optional[int]:
        """The assumption literal for ``sum <= k`` (None: trivially true).

        Raises ValueError for ``cap <= k < size``: the truncated count
        has no output that could enforce that budget.
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k >= self.size:
            return None
        if k >= self.cap:
            raise ValueError(f"k={k} is past this counter's cap of {self.cap}")
        return -self.outputs[k]

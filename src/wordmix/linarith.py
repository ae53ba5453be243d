"""Exact integer-linear feasibility, plus builders for the trace systems.

Everything here is arbitrary-precision integer or Fraction arithmetic; no
float enters any verdict. The solver stack, cheapest first:

  1. row normalization (gcd division, zero-row consistency),
  2. an integer lattice check ignoring bounds (unimodular column
     elimination plus forward substitution with divisibility tests),
  3. interval propagation over the variable boxes,
  4. branch-and-bound on a phase-1 rational LP relaxation, complete
     thanks to the classical small-solution bound for integer programs;
     when its first, narrow round fails, one LP over the whole rational
     relaxation refutes most infeasible systems before any wider round.

Feasible answers always carry a witness that is re-checked exactly, by
explicit checks that raise WitnessError and so also run under python -O;
running out of node budget raises BudgetExceededError instead of
guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# build is not called here: it stays for perfbench/tracer.py TARGETS
from .debruijn import OccTable, build, walk_occ  # noqa: F401
from .errors import BudgetExceededError, WitnessError
from .traces import OrderedTrace
from .words import ParamList, add_vectors, occ_vector

DEFAULT_NODE_BUDGET = 10_000_000
_PROPAGATION_PASSES = 32

Relation = str  # 'eq' or 'ge'


@dataclass(frozen=True)
class LinearSystem:
    """Integer constraint rows over integer variables with lower bounds.

    Row r demands  sum_j coeffs[r][j] * x[j]  (rel)  rhs[r]  where rel is
    'eq' or 'ge'. Strict inequalities never appear: callers fold them into
    'ge' rows by shifting the right-hand side, which is exact over the
    integers.
    """

    coeffs: tuple[tuple[int, ...], ...]
    rels: tuple[Relation, ...]
    rhs: tuple[int, ...]
    lower: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        if not (len(self.coeffs) == len(self.rels) == len(self.rhs)):
            raise ValueError("row count mismatch")
        for row in self.coeffs:
            if len(row) != len(self.lower):
                raise ValueError("column count mismatch")
        for rel in self.rels:
            if rel not in ("eq", "ge"):
                raise ValueError(f"unknown relation {rel!r}")

    @property
    def n_rows(self) -> int:
        return len(self.coeffs)

    @property
    def n_vars(self) -> int:
        return len(self.lower)

    def satisfied_by(self, x) -> bool:
        x = tuple(x)
        if len(x) != self.n_vars:
            return False
        if any(xj < lj for xj, lj in zip(x, self.lower)):
            return False
        for row, rel, rhs in zip(self.coeffs, self.rels, self.rhs):
            lhs = sum(a * xj for a, xj in zip(row, x))
            if rel == "eq" and lhs != rhs:
                return False
            if rel == "ge" and lhs < rhs:
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "coeffs": [list(row) for row in self.coeffs],
            "rels": list(self.rels),
            "rhs": list(self.rhs),
            "lower": list(self.lower),
        }


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    witness: tuple[int, ...] | None = None


INFEASIBLE = Feasibility(False, None)


def _require(ok: bool, what: str) -> None:
    """Witness re-check that, unlike assert, also runs under python -O."""
    if not ok:
        raise WitnessError(f"{what} failed its exact re-check")


def is_pumping_witness(rows, y) -> bool:
    """Whether y is a nonzero nonnegative integer kernel vector of rows."""
    return (any(y) and all(v >= 0 for v in y)
            and all(sum(a * v for a, v in zip(row, y)) == 0 for row in rows))


# ---------------------------------------------------------------------------
# phase-1 simplex over Fractions


def _phase1(rows, rhs):
    """Feasible point of {rows . x = rhs, x >= 0} over the rationals.

    Returns a list of Fractions (one per column) or None. Bland's rule,
    so termination is unconditional.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    tab = [[Fraction(a) for a in row] for row in rows]
    d = [Fraction(v) for v in rhs]
    for r in range(m):
        if d[r] < 0:
            tab[r] = [-a for a in tab[r]]
            d[r] = -d[r]
    # append one artificial per row
    for r in range(m):
        tab[r].extend(Fraction(1) if i == r else Fraction(0) for i in range(m))
    total = n + m
    basis = [n + r for r in range(m)]

    def cost(j):
        return 1 if j >= n else 0

    while True:
        # reduced costs for minimizing the artificial sum, recomputed
        # from the basis each round (cheap at these sizes, cannot drift)
        art_rows = [r for r in range(m) if basis[r] >= n]
        zrow = [cost(j) - sum(tab[r][j] for r in art_rows)
                for j in range(total)]
        enter = next((j for j in range(total) if zrow[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for r in range(m):
            a = tab[r][enter]
            if a > 0:
                ratio = d[r] / a
                if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave is None:
            # the artificial objective is bounded below by 0, so an
            # unbounded improving direction cannot occur
            raise AssertionError("phase-1 objective unbounded")
        piv = tab[leave][enter]
        tab[leave] = [a / piv for a in tab[leave]]
        d[leave] /= piv
        for r in range(m):
            if r != leave and tab[r][enter]:
                f = tab[r][enter]
                tab[r] = [a - f * p for a, p in zip(tab[r], tab[leave])]
                d[r] -= f * d[leave]
        basis[leave] = enter

    if sum(d[r] for r in range(m) if basis[r] >= n) != 0:
        return None
    point = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            point[basis[r]] = d[r]
    return point


# ---------------------------------------------------------------------------
# integer lattice feasibility (bounds ignored)


def _lattice_solve(rows, rhs):
    """Parametrize ALL integer solutions of rows . z = rhs, ignoring signs.

    Unimodular column operations (tracked in a transform U) bring the
    matrix to a lower-trapezoidal shape; forward substitution then only
    needs divisibility tests. Returns (x0, kernel) with x0 a particular
    integer solution and kernel an integer basis of the solution lattice's
    direction space, or None when no integer solution exists at all.
    Because U is unimodular, x0 + integer combinations of the kernel
    vectors is exactly the integer solution set.
    """
    m = len(rows)
    n = len(rows[0])
    mat = [list(row) for row in rows]
    transform = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_cols(a, b):
        for row in mat:
            row[a], row[b] = row[b], row[a]
        for row in transform:
            row[a], row[b] = row[b], row[a]

    def add_col(dst, src, q):
        for row in mat:
            row[dst] -= q * row[src]
        for row in transform:
            row[dst] -= q * row[src]

    pivots = []  # (row, col) in processing order; col runs 0,1,2,...
    c = 0
    for r in range(m):
        if c >= n:
            break
        while True:
            j0 = next((j for j in range(c, n) if mat[r][j]), None)
            if j0 is None:
                break
            if j0 != c:
                swap_cols(c, j0)
            done = True
            for j in range(c + 1, n):
                if mat[r][j]:
                    q = mat[r][j] // mat[r][c]
                    add_col(j, c, q)
                    if mat[r][j]:
                        done = False
            if done:
                break
            # move the smallest remaining entry into the pivot slot
            jmin = min((j for j in range(c, n) if mat[r][j]),
                       key=lambda j: abs(mat[r][j]))
            if jmin != c:
                swap_cols(c, jmin)
        if c < n and mat[r][c]:
            pivots.append((r, c))
            c += 1

    # every row now has zeros right of its pivot, so the substitution
    # order is forced and free coordinates never feed back into it
    assigned = {}
    pivot_of_row = {r: col for r, col in pivots}
    for r in range(m):
        residual = rhs[r] - sum(mat[r][col] * assigned[col]
                                for col in assigned)
        col = pivot_of_row.get(r)
        if col is None:
            if residual != 0:
                return None
        else:
            if residual % mat[r][col] != 0:
                return None
            assigned[col] = residual // mat[r][col]

    rank = len(pivots)
    x0 = [sum(transform[i][col] * assigned[col] for col in assigned)
          for i in range(n)]
    kernel = [[transform[i][j] for i in range(n)] for j in range(rank, n)]
    _require(all(sum(a * v for a, v in zip(row, x0)) == b
                 for row, b in zip(rows, rhs)), "lattice particular solution")
    _require(all(sum(a * v for a, v in zip(row, vec)) == 0
                 for row in rows for vec in kernel), "lattice kernel basis")
    return x0, kernel


# ---------------------------------------------------------------------------
# interval propagation


def _propagate(rows, rhs, lo, hi):
    """Shrink the box [lo, hi] against the equality rows.

    Returns the shrunk (lo, hi) or None when a domain empties. Also runs a
    per-row divisibility test over the unfixed variables.
    """
    lo = list(lo)
    hi = list(hi)
    n = len(lo)
    for _ in range(_PROPAGATION_PASSES):
        changed = False
        for row, b in zip(rows, rhs):
            terms = [(j, row[j]) for j in range(n) if row[j]]
            span_lo = 0
            span_hi = 0
            for j, a in terms:
                p, q = a * lo[j], a * hi[j]
                span_lo += min(p, q)
                span_hi += max(p, q)
            if not terms:
                if b != 0:
                    return None
                continue
            if b < span_lo or b > span_hi:
                return None
            for j, a in terms:
                p, q = a * lo[j], a * hi[j]
                other_lo = span_lo - min(p, q)
                other_hi = span_hi - max(p, q)
                # a * z_j must land in [b - other_hi, b - other_lo]
                num_lo, num_hi = b - other_hi, b - other_lo
                if a > 0:
                    new_lo = -((-num_lo) // a)
                    new_hi = num_hi // a
                else:
                    new_lo = -((-num_hi) // a)
                    new_hi = num_lo // a
                if new_lo > lo[j]:
                    lo[j] = new_lo
                    changed = True
                if new_hi < hi[j]:
                    hi[j] = new_hi
                    changed = True
                if lo[j] > hi[j]:
                    return None
            free = [a for j, a in terms if lo[j] != hi[j]]
            residual = b - sum(a * lo[j] for j, a in terms if lo[j] == hi[j])
            if not free:
                if residual != 0:
                    return None
            elif residual % math.gcd(*(abs(a) for a in free)) != 0:
                return None
        if not changed:
            break
    return lo, hi


# ---------------------------------------------------------------------------
# branch and bound


def _lp_point(rows, rhs, lo, hi, box_bound):
    """Rational point of the equalities inside the box, or None.

    Box edges equal to the blanket bound are left implicit (z >= 0 covers
    the lower side); tightened edges become explicit slack rows.
    """
    n = len(lo)
    eq_rows = []
    eq_rhs = []
    extra = []  # (var, bound, kind)
    for j in range(n):
        if lo[j] > 0:
            extra.append((j, lo[j], "ge"))
        if hi[j] < box_bound:
            extra.append((j, hi[j], "le"))
    width = n + len(extra)
    for row, b in zip(rows, rhs):
        eq_rows.append(list(row) + [0] * len(extra))
        eq_rhs.append(b)
    for s, (j, bound, kind) in enumerate(extra):
        row = [0] * width
        row[j] = 1
        row[n + s] = -1 if kind == "ge" else 1
        eq_rows.append(row)
        eq_rhs.append(bound)
    point = _phase1(eq_rows, eq_rhs)
    if point is None:
        return None
    return point[:n]


def _solution_bound(rows, rhs, n):
    entries = [abs(a) for row in rows for a in row] + [abs(b) for b in rhs]
    a = max(entries + [1])
    m = max(len(rows), 1)
    return max(n, 1) * (m * a) ** (2 * m + 1)


# nodes a non-final deepening round may spend before escalating
_ROUND_NODES = 4000


def _search_box(rows, rhs, n, cap, allowance):
    """Search [0, cap]^n for z with rows . z = rhs, depth-first.

    Returns (status, witness, nodes) where status is "sat", "unsat"
    (box exhausted without a solution) or "out" (allowance spent first).
    """
    nodes = 0
    stack = [([0] * n, [cap] * n)]
    while stack:
        nodes += 1
        if nodes > allowance:
            return "out", None, nodes
        lo, hi = stack.pop()
        shrunk = _propagate(rows, rhs, lo, hi)
        if shrunk is None:
            continue
        lo, hi = shrunk
        if lo == hi:
            if all(sum(a * z for a, z in zip(row, lo)) == b
                   for row, b in zip(rows, rhs)):
                return "sat", lo, nodes
            continue
        point = _lp_point(rows, rhs, lo, hi, cap)
        if point is None:
            continue
        frac = next((j for j in range(n)
                     if point[j].denominator != 1), None)
        if frac is None:
            # the LP rows are exactly the equalities, so an integral
            # point is already a witness; the box only steers the search
            z = [int(v) for v in point]
            _require(all(v >= 0 for v in z)
                     and all(sum(a * v for a, v in zip(row, z)) == b
                             for row, b in zip(rows, rhs)),
                     "integral LP point")
            return "sat", z, nodes
        split = math.floor(point[frac])
        split = min(max(split, lo[frac]), hi[frac] - 1)
        up_lo = list(lo)
        up_lo[frac] = split + 1
        down_hi = list(hi)
        down_hi[frac] = split
        stack.append((up_lo, hi))
        stack.append((lo, down_hi))
    return "unsat", None, nodes


def _solve_nonneg(x0, kernel, node_budget, system):
    """Find z >= 0 in the integer lattice x0 + span_Z(kernel), or None.

    system is the (rows, rhs) pair whose integer solutions the lattice
    parametrizes, for the rational relaxation check below.

    The equalities are already absorbed into the lattice, so only sign
    constraints remain: find integer t with x0 + K.t >= 0 componentwise.
    Searching over t instead of z matters because the divisibility
    structure that stalls a direct branch-and-bound is fully resolved
    here; what is left is a plain polyhedron.

    t is free-signed, so each round shifts it by half the box width and
    widens geometrically: small solutions of either sign turn up in
    cheap rounds, and only the final round (wide enough for the
    completeness bound) can conclude infeasibility. Rounds share the
    node budget; a non-final round that stalls is abandoned early.

    An integer solution is a rational one. So when the cheap first round
    finds none, one rational LP over system runs before any wider round:
    if it is infeasible, so is the lattice search, which could only have
    concluded that in its final, widest round.
    """
    if all(v >= 0 for v in x0):
        return list(x0)
    d = len(kernel)
    if d == 0:
        return None
    n = len(x0)
    keep = []
    for i in range(n):
        coeffs = [kernel[j][i] for j in range(d)]
        if all(a == 0 for a in coeffs):
            if x0[i] < 0:
                return None
            continue
        keep.append((i, coeffs))
    # bound on |t| for some solution, from the small-solution bound of
    # the sign-split slack form of K.t >= -x0 (variables u, v, s)
    bound = _solution_bound([coeffs for _, coeffs in keep],
                            [-x0[i] for i, _ in keep],
                            2 * d + len(keep))
    width = d + len(keep)
    remaining = node_budget
    cap = first_cap = min(16, 2 * bound)
    while True:
        shift = cap // 2
        rows = []
        rhs = []
        for s, (i, coeffs) in enumerate(keep):
            row = coeffs + [0] * len(keep)
            row[d + s] = -1
            rows.append(row)
            # slack s equals z_i when t = t' - shift
            rhs.append(-x0[i] + shift * sum(coeffs))
        final = cap >= 2 * bound
        allowance = remaining if final else min(remaining, _ROUND_NODES)
        status, sol, used = _search_box(rows, rhs, width, cap, allowance)
        remaining -= used
        if status == "sat":
            t = [v - shift for v in sol[:d]]
            z = [x0[i] + sum(kernel[j][i] * t[j] for j in range(d))
                 for i in range(n)]
            _require(all(v >= 0 for v in z), "nonnegative lattice point")
            return z
        if final and status == "unsat":
            return None
        if cap == first_cap and not final and _phase1(*system) is None:
            return None
        if remaining <= 0:
            raise BudgetExceededError(
                f"integer search exceeded {node_budget} nodes")
        cap = min(cap * 64, 2 * bound)


# ---------------------------------------------------------------------------
# public solver entry points


def solve_system(system: LinearSystem, *,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> Feasibility:
    """Decide a LinearSystem exactly; witnesses are re-validated."""
    n = system.n_vars
    rows = []
    rhs = []
    slacks = 0
    for row, rel, b in zip(system.coeffs, system.rels, system.rhs):
        if rel == "ge":
            slacks += 1
        rows.append((list(row), rel, b))
    eq_rows = []
    eq_rhs = []
    s = 0
    for row, rel, b in rows:
        full = row + [0] * slacks
        if rel == "ge":
            full[n + s] = -1
            s += 1
        eq_rows.append(full)
        eq_rhs.append(b)
    lower = list(system.lower) + [0] * slacks

    # shift to z >= 0
    shifted_rhs = [b - sum(a * l for a, l in zip(row, lower))
                   for row, b in zip(eq_rows, eq_rhs)]
    kept_rows = []
    kept_rhs = []
    for row, b in zip(eq_rows, shifted_rhs):
        if all(a == 0 for a in row):
            if b != 0:
                return INFEASIBLE
            continue
        g = math.gcd(*(abs(a) for a in row))
        if b % g != 0:
            return INFEASIBLE
        kept_rows.append([a // g for a in row])
        kept_rhs.append(b // g)

    if not kept_rows:
        witness = tuple(system.lower)
        _require(system.satisfied_by(witness), "lower-bound witness")
        return Feasibility(True, witness)

    lattice = _lattice_solve(kept_rows, kept_rhs)
    if lattice is None:
        return INFEASIBLE

    z = _solve_nonneg(*lattice, node_budget, (kept_rows, kept_rhs))
    if z is None:
        return INFEASIBLE
    witness = tuple(zj + lj for zj, lj in zip(z[:n], system.lower[:n]))
    _require(system.satisfied_by(witness), "system witness")
    return Feasibility(True, witness)


def homogeneous_nontrivial(coeffs, n_vars: int | None = None) -> Feasibility:
    """Decide ∃ y in N^m, y != 0, with coeffs . y = 0.

    Homogeneity lets the rationals answer for the integers: normalize with
    sum(y) = 1, solve the rational LP, then clear denominators.
    """
    coeffs = [tuple(row) for row in coeffs]
    if n_vars is None:
        if not coeffs:
            raise ValueError("n_vars required when no rows are given")
        n_vars = len(coeffs[0])
    if n_vars == 0:
        return INFEASIBLE
    rows = [list(row) for row in coeffs]
    rows.append([1] * n_vars)
    rhs = [0] * len(coeffs) + [1]
    point = _phase1(rows, rhs)
    if point is None:
        return INFEASIBLE
    scale = math.lcm(*(v.denominator for v in point))
    y = [int(v * scale) for v in point]
    g = math.gcd(*(abs(v) for v in y))
    if g > 1:
        y = [v // g for v in y]
    _require(is_pumping_witness(coeffs, y), "homogeneous witness")
    return Feasibility(True, tuple(y))


# ---------------------------------------------------------------------------
# system builders


def _trace_vectors(T: OrderedTrace, params: ParamList,
                   table: OccTable | None = None):
    """Constant vector of the trace and one occurrence vector per cycle.

    A decision passes its OccTable, which sums each path and cycle once.
    Without one they are counted afresh with walk_occ on the trace's own
    graph, the checked reference the table must agree with.
    """
    if table is not None:
        return table.const(T.path), [table.column(c) for c in T.cycles]
    g = T.graph
    start = occ_vector(g.vertex_word(T.path[0]), params)
    const = add_vectors(start, walk_occ(g, T.path, params))
    columns = [walk_occ(g, cyc, params) for cyc in T.cycles]
    return const, columns


def build_balance_system(T: OrderedTrace, p: ParamList,
                         table: OccTable | None = None) -> LinearSystem:
    """Equalities forcing all occurrence components of the pumped family
    to agree, with every cycle multiplicity at least 1."""
    const, cols = _trace_vectors(T, p, table)
    k = p.k
    m = len(cols)
    coeffs = []
    rhs = []
    for j in range(1, k):
        coeffs.append(tuple(cols[i][0] - cols[i][j] for i in range(m)))
        rhs.append(const[j] - const[0])
    return LinearSystem(tuple(coeffs), ("eq",) * (k - 1), tuple(rhs),
                        (1,) * m, label="balance")


def build_pumping_system(T: OrderedTrace, p: ParamList,
                         table: OccTable | None = None):
    """Homogeneous rows whose nontrivial kernel vectors are pumpable
    multiplicity increments."""
    _, cols = _trace_vectors(T, p, table)
    return pumping_rows(cols, p.k)


def pumping_rows(columns, k: int) -> tuple[tuple[int, ...], ...]:
    """The pumping rows over cycle occurrence columns: row j-1 is
    component 0 minus component j, for j = 1..k-1."""
    return tuple(tuple(c[0] - c[j] for c in columns) for j in range(1, k))


def build_psi_branches(T: OrderedTrace, p1: ParamList, p2: ParamList,
                       tables: tuple[OccTable, OccTable] | None = None,
                       held: int | None = None) -> list[LinearSystem]:
    """Negation branches of the per-trace agreement test for equivalence.

    The trace agrees with both lists iff the two equality chains have the
    same truth value for all multiplicities x >= 1. Each returned system
    is one way to refute that: one chain holds while some adjacent pair of
    the other is strictly ordered. The trace fails iff some branch is
    feasible, and the branch witness pinpoints a separating word.

    The branches holding list 1's chain come first, then those holding
    list 2's. held = 1 or 2 returns only that list's share: the same
    systems, in the same order.
    """
    if p1.alphabet != p2.alphabet:
        raise ValueError("parameter lists must share an alphabet")
    if held not in (None, 1, 2):
        raise ValueError("held must be 1, 2 or None")
    t1, t2 = tables if tables is not None else (None, None)
    const1, cols1 = _trace_vectors(T, p1, t1)
    const2, cols2 = _trace_vectors(T, p2, t2)
    m = len(T.cycles)
    lower = (1,) * m

    def chain_rows(const, cols, k):
        rows = []
        rhs = []
        for j in range(k - 1):
            rows.append(tuple(cols[i][j] - cols[i][j + 1] for i in range(m)))
            rhs.append(const[j + 1] - const[j])
        return rows, rhs

    def strict_row(const, cols, a, b):
        # component a strictly above component b, as a >=-row shifted by 1
        row = tuple(cols[i][a] - cols[i][b] for i in range(m))
        return row, const[b] - const[a] + 1

    eq1_rows, eq1_rhs = chain_rows(const1, cols1, p1.k)
    eq2_rows, eq2_rhs = chain_rows(const2, cols2, p2.k)

    branches = []
    for h, held_rows, held_rhs, broken_const, broken_cols, broken_k in (
            (1, eq1_rows, eq1_rhs, const2, cols2, p2.k),
            (2, eq2_rows, eq2_rhs, const1, cols1, p1.k)):
        if held not in (None, h):
            continue
        for j in range(broken_k - 1):
            for a, b, tag in ((j, j + 1, "above"), (j + 1, j, "below")):
                row, bound = strict_row(broken_const, broken_cols, a, b)
                coeffs = tuple(held_rows) + (row,)
                rels = ("eq",) * len(held_rows) + ("ge",)
                rhs = tuple(held_rhs) + (bound,)
                label = (f"list{h} balanced, other pair {j} "
                         f"component {a} {tag} component {b}")
                branches.append(LinearSystem(coeffs, rels, rhs, lower,
                                             label=label))
    return branches

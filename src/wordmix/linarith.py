"""Exact integer-linear feasibility, plus builders for the trace systems.

Everything here is arbitrary-precision integer arithmetic, the simplex
and its ratio test included (one fraction-free tableau); no Fraction or
float enters any verdict. The solver stack, cheapest first:

  1. row normalization in one pass (slack columns, the shift to z >= 0,
     gcd division, zero-row and divisibility refutations),
  2. one phase-1 rational LP over the whole system: no rational
     solution means no integer one, and most infeasible systems stop
     here, with a Farkas certificate read off the final tableau,
  3. an integer lattice check ignoring bounds (unimodular column
     elimination plus forward substitution with divisibility tests),
  4. interval propagation over the variable boxes,
  5. branch-and-bound on phase-1 LP relaxations of the boxes, complete
     thanks to the classical small-solution bound for integer programs.

Feasible answers always carry a witness that is re-checked exactly, by
explicit checks that raise WitnessError and so also run under python -O;
a refutation by the LP carries a Farkas certificate over the system's
own rows, which a caller may try on other systems; running out of node
budget raises BudgetExceededError instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """A solve's outcome. certificate, when given with an infeasible one,
    is a Farkas certificate y over the system's rows: y_r >= 0 on every
    'ge' row, y . c <= 0 for every column c and y . (rhs - A.lower) > 0,
    so no rational x >= lower solves the rows."""

    feasible: bool
    witness: tuple[int, ...] | None = None
    certificate: tuple[int, ...] | None = field(default=None, compare=False)


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
# phase-1 simplex on one integer tableau


def _pivot(rows, rhs):
    """The final phase-1 tableau of {rows . x = rhs, x >= 0}: (tab, basis,
    den), as _phase1 describes it, for m >= 1 rows."""
    m = len(rows)
    n = len(rows[0])
    tab = []
    for r, (row, b) in enumerate(zip(rows, rhs)):
        sign = -1 if b < 0 else 1
        tab.append([sign * a for a in row] + [int(i == r) for i in range(m)]
                   + [sign * b])
    objective = [-sum(col) for col in zip(*tab)]
    objective[n:n + m] = [0] * m
    tab.append(objective)
    basis = list(range(n, n + m))
    den = 1
    while True:
        enter = next((j for j in range(n + m) if tab[m][j] < 0), None)
        if enter is None:
            break
        # least ratio rhs/entry, ties to the least basis index; every
        # candidate entry is > 0, so ratios compare by cross-multiplying
        leave = None
        for r in range(m):
            e = tab[r][enter]
            if e <= 0:
                continue
            if leave is None:
                leave = r
                continue
            d = tab[r][-1] * tab[leave][enter] - tab[leave][-1] * e
            if d < 0 or (d == 0 and basis[r] < basis[leave]):
                leave = r
        if leave is None:
            # the artificial objective is bounded below by 0, so an
            # unbounded improving direction cannot occur
            raise AssertionError("phase-1 objective unbounded")
        pivot_row = tab[leave]
        piv = pivot_row[enter]
        for r, row in enumerate(tab):
            if r != leave:
                f = row[enter]
                tab[r] = [(piv * a - f * p) // den
                          for a, p in zip(row, pivot_row)]
        basis[leave] = enter
        den = piv
    return tab, basis, den


def _phase1(rows, rhs):
    """Feasible point of {rows . x = rhs, x >= 0} over the rationals.

    Returns (num, den) with den > 0 and x[j] = num[j] / den, one numerator
    per column, or None. Bland's rule, so termination is unconditional.

    The tableau [rows | artificials | rhs] and its objective row (the
    reduced costs of the artificial sum, then minus that sum) are integers
    scaled by den, the absolute determinant of the current basis. A pivot
    on the entry piv takes every other row to (piv*row - f*pivot_row) // den
    and then sets den = piv (Edmonds; Bareiss): the pivot row already holds
    its new values scaled by piv, piv > 0 keeps den positive, and every
    division is exact because each new entry is an integer by Cramer's rule.
    When the optimum is positive the same tableau also holds a Farkas
    certificate; see _farkas.
    """
    if not rows:
        return [], 1
    tab, basis, den = _pivot(rows, rhs)
    if tab[-1][-1]:
        return None
    n = len(rows[0])
    num = [0] * n
    for r, j in enumerate(basis):
        if j < n:
            num[j] = tab[r][-1]
    return num, den


def _farkas(tab, den, rhs) -> list[int]:
    """y with y . rows <= 0 column by column and y . rhs > 0, from a final
    phase-1 tableau of rows whose optimum is positive.

    The objective row holds, scaled by den, the reduced costs c - pi.A'
    of the phase-1 costs (0 on the columns of rows, 1 on the artificials),
    A' being the rows with row r multiplied by sign_r (the sign of rhs_r)
    and pi the simplex multipliers, and in its last entry -pi.b'. At the
    optimum no reduced cost is negative: on the column of artificial r
    that reads pi_r = (den - tab[m][n+r]) / den, on a column j of rows
    pi . A'_j <= 0, and the positive optimum is pi . b' > 0. So
    y_r = sign_r * (den - tab[m][n+r]), pi's image on the unsigned rows
    scaled by den > 0, is an integer certificate.
    """
    m = len(rhs)
    n = len(tab[0]) - m - 1
    obj = tab[m]
    return [(-1 if b < 0 else 1) * (den - obj[n + r])
            for r, b in enumerate(rhs)]


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

    The point comes as (num, den), x[j] = num[j] / den with den > 0. Box
    edges equal to the blanket bound are left implicit (z >= 0 covers
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
    num, den = point
    return num[:n], den


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
        num, den = point
        frac = next((j for j in range(n) if num[j] % den), None)
        if frac is None:
            # the LP rows are exactly the equalities, so an integral
            # point is already a witness; the box only steers the search
            z = [v // den for v in num]
            _require(all(v >= 0 for v in z)
                     and all(sum(a * v for a, v in zip(row, z)) == b
                             for row, b in zip(rows, rhs)),
                     "integral LP point")
            return "sat", z, nodes
        split = num[frac] // den
        split = min(max(split, lo[frac]), hi[frac] - 1)
        up_lo = list(lo)
        up_lo[frac] = split + 1
        down_hi = list(hi)
        down_hi[frac] = split
        stack.append((up_lo, hi))
        stack.append((lo, down_hi))
    return "unsat", None, nodes


def _solve_nonneg(x0, kernel, node_budget):
    """Find z >= 0 in the integer lattice x0 + span_Z(kernel), or None.

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

    The caller has found a nonnegative rational solution, and the kernel
    spans the rational null space, so the rational solutions are
    x0 + span_Q(kernel): x0 >= 0 if the kernel is empty, and x0[i] >= 0
    where no kernel vector moves coordinate i, which needs no sign row.
    Were that false, the search would refute (rightly) or fail the
    nonnegative-lattice-point check, never return a wrong point.
    """
    if all(v >= 0 for v in x0):
        return list(x0)
    d = len(kernel)
    n = len(x0)
    keep = []
    for i in range(n):
        coeffs = [kernel[j][i] for j in range(d)]
        if any(coeffs):
            keep.append((i, coeffs))
    # bound on |t| for some solution, from the small-solution bound of
    # the sign-split slack form of K.t >= -x0 (variables u, v, s)
    bound = _solution_bound([coeffs for _, coeffs in keep],
                            [-x0[i] for i, _ in keep],
                            2 * d + len(keep))
    width = d + len(keep)
    rows = []
    for s, (_, coeffs) in enumerate(keep):
        row = coeffs + [0] * len(keep)
        row[d + s] = -1
        rows.append(row)
    remaining = node_budget
    cap = min(16, 2 * bound)
    while True:
        shift = cap // 2
        # slack s equals z_i when t = t' - shift
        rhs = [-x0[i] + shift * sum(coeffs) for i, coeffs in keep]
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
        if remaining <= 0:
            raise BudgetExceededError(
                f"integer search exceeded {node_budget} nodes")
        cap = min(cap * 64, 2 * bound)


# ---------------------------------------------------------------------------
# public solver entry points


def solve_system(system: LinearSystem, *,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> Feasibility:
    """Decide a LinearSystem exactly; witnesses are re-validated.

    One pass over the rows gives each 'ge' row a slack column, shifts to
    z >= 0, divides by the gcd and refutes a zero or indivisible row.
    Then one rational LP decides the relaxation (no rational solution,
    no integer one); only a system that passes gets its integer lattice
    built, and searched by _solve_nonneg.

    A refutation by the LP carries its Farkas certificate (see
    Feasibility), mapped from the LP's rows onto the system's own rows
    over z = x - lower: with L the lcm of the row gcds g_r, a row divided
    by g_r gets y_r * L / g_r, a dropped zero row gets 0, and the whole is
    divided by its gcd. A slack column -e_r carries y_r, so y . slack <= 0
    reads y_r >= 0 on each 'ge' row. A zero row r with b_r != 0 is
    refuted by y = e_r times the sign of b_r. Only an indivisible row or
    an empty lattice, which refute integers alone, give no certificate.
    """
    n = system.n_vars
    slacks = system.rels.count("ge")
    rows = []
    rhs = []
    origin = []  # the system row of each LP row
    gcds = []  # and the gcd it was divided by
    s = n
    for r, (row, rel, b) in enumerate(zip(system.coeffs, system.rels,
                                          system.rhs)):
        b -= sum(a * lo for a, lo in zip(row, system.lower))
        row = list(row) + [0] * slacks
        if rel == "ge":
            row[s] = -1
            s += 1
        g = math.gcd(*row)
        if g == 0:
            if b != 0:
                # 'eq' (a 'ge' row has its slack): 0 = b, refuted by +-e_r
                y = [0] * len(system.rels)
                y[r] = 1 if b > 0 else -1
                return Feasibility(False, None, tuple(y))
            continue
        if b % g != 0:
            return INFEASIBLE
        rows.append([a // g for a in row])
        rhs.append(b // g)
        origin.append(r)
        gcds.append(g)

    if not rows:
        witness = tuple(system.lower)
        _require(system.satisfied_by(witness), "lower-bound witness")
        return Feasibility(True, witness)

    tab, _, den = _pivot(rows, rhs)
    if tab[-1][-1]:
        lcm = math.lcm(*gcds)
        y = [0] * len(system.rels)
        for r, g, v in zip(origin, gcds, _farkas(tab, den, rhs)):
            y[r] = v * (lcm // g)
        common = math.gcd(*y)
        if common > 1:
            y = [v // common for v in y]
        return Feasibility(False, None, tuple(y))
    lattice = _lattice_solve(rows, rhs)
    if lattice is None:
        return INFEASIBLE

    z = _solve_nonneg(*lattice, node_budget)
    if z is None:
        return INFEASIBLE
    witness = tuple(zj + lj for zj, lj in zip(z[:n], system.lower[:n]))
    _require(system.satisfied_by(witness), "system witness")
    return Feasibility(True, witness)


def homogeneous_nontrivial(coeffs, n_vars: int) -> Feasibility:
    """Decide ∃ y in N^m, y != 0, with coeffs . y = 0.

    Homogeneity lets the rationals answer for the integers: normalize with
    sum(y) = 1 and solve the rational LP. Its numerators lie on the ray of
    its point, so dividing them by their gcd gives the primitive witness.
    """
    coeffs = [tuple(row) for row in coeffs]
    if n_vars == 0:
        return INFEASIBLE
    rows = [list(row) for row in coeffs]
    rows.append([1] * n_vars)
    rhs = [0] * len(coeffs) + [1]
    point = _phase1(rows, rhs)
    if point is None:
        return INFEASIBLE
    num, _ = point
    g = math.gcd(*num)
    y = [v // g for v in num]
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
    to agree, with every cycle multiplicity at least 1. Row j-1 says that
    component 0 equals component j: pumping row j-1 times x equals
    const[j] - const[0]."""
    const, cols = _trace_vectors(T, p, table)
    rhs = tuple(const[j] - const[0] for j in range(1, p.k))
    return LinearSystem(pumping_rows(cols, p.k), ("eq",) * (p.k - 1), rhs,
                        (1,) * len(cols), label="balance")


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


def build_psi_branches(b1: LinearSystem, b2: LinearSystem,
                       held: int | None = None) -> list[LinearSystem]:
    """Negation branches of the per-trace agreement test for equivalence,
    from the two lists' balance systems over the same trace.

    The trace agrees with both lists iff the two balance systems have the
    same solutions x >= 1. Each returned system is one way to refute
    that: list h's balance system holds while the other list's component
    0 lies strictly above or below its component j. That is the other
    balance system's row for component j, negated for "below", as a
    >=-row with its right-hand side shifted by 1, which is exact over the
    integers. All components agree iff component 0 equals each component
    j, so the trace fails iff some branch is feasible, and the branch
    witness pinpoints a separating word.

    The branches holding list 1 come first, then those holding list 2.
    held = 1 or 2 returns only that list's share: the same systems, in
    the same order.
    """
    if b1.n_vars != b2.n_vars:
        raise ValueError("balance systems must share the trace's cycles")
    if held not in (None, 1, 2):
        raise ValueError("held must be 1, 2 or None")
    branches = []
    for h, kept, other in ((1, b1, b2), (2, b2, b1)):
        if held not in (None, h):
            continue
        for j, (row, s) in enumerate(zip(other.coeffs, other.rhs), 1):
            for sign in (1, -1):
                branches.append(LinearSystem(
                    kept.coeffs + (tuple(sign * a for a in row),),
                    kept.rels + ("ge",), kept.rhs + (sign * s + 1,),
                    kept.lower, label=branch_label(h, j, sign)))
    return branches


def branch_label(h: int, j: int, sign: int) -> str:
    """The label of the negation branch that holds list h's balance system
    while the other list's component 0 lies above (sign 1) or below (sign
    -1) its component j."""
    tag = "above" if sign > 0 else "below"
    return f"list{h} balanced, other component 0 {tag} component {j}"

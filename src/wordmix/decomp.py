"""Left-to-right decomposition of a walk into a simple path plus rooted cycles.

Works over any directed graph that answers has_edge queries. Rooted
cycles are kept as written: two rotations of the same cycle are different
objects.

dec peels a cycle off the running path every time the walk revisits a vertex
that is still on the path; comp splices cycles back, last one first, each at
the first occurrence of its root that a duplicate-free prefix can reach.
The two maps are mutually inverse on walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .errors import CompositionUndefinedError, NotAWalkError

Vertex = int
Walk = tuple[Vertex, ...]


def check_walk(g, walk: Walk) -> None:
    if not walk:
        raise NotAWalkError("empty vertex sequence")
    for u, v in zip(walk, walk[1:]):
        if not g.has_edge(u, v):
            raise NotAWalkError(f"({u}, {v}) is not an edge")


def is_path(walk: Walk) -> bool:
    """Non-empty and free of repeated vertices."""
    return len(walk) > 0 and len(set(walk)) == len(walk)


def is_cycle(walk: Walk) -> bool:
    """Closed, at least one edge, and simple apart from the repeated root."""
    return len(walk) >= 2 and walk[0] == walk[-1] and is_path(walk[:-1])


@dataclass(frozen=True)
class Decomposition:
    path: Walk
    cycles: tuple[Walk, ...]


def dec(g, walk: Walk) -> Decomposition:
    """Peel rooted cycles off the walk, left to right.

    The running prefix stays a simple path; whenever the next vertex is
    already on it, the loop just closed is emitted as a cycle rooted at that
    vertex and the path is trimmed back to it.
    """
    check_walk(g, walk)
    path = [walk[0]]
    pos = {walk[0]: 0}
    cycles: list[Walk] = []
    for v in walk[1:]:
        if v not in pos:
            pos[v] = len(path)
            path.append(v)
        else:
            i = pos[v]
            cycles.append(tuple(path[i:]) + (v,))
            for dropped in path[i + 1:]:
                del pos[dropped]
            del path[i + 1:]
    return Decomposition(tuple(path), tuple(cycles))


def _check_cycle(g, cyc: Walk) -> None:
    check_walk(g, cyc)
    if not is_cycle(cyc):
        raise ValueError(f"{cyc} is not a rooted cycle")


def comp(g, walk: Walk, cycles: tuple[Walk, ...]) -> Walk:
    """Splice the cycles back into the walk, processing the list back to front.

    Each cycle goes in at the first occurrence of its root; the prefix up to
    that occurrence must be duplicate-free (a later occurrence can never
    qualify once the first fails, so this is the only candidate).

    A run of r equal consecutive cycles goes in at once, as cyc[1:] * r,
    in time linear in the result. This is the walk that splicing copy by
    copy gives: a copy spliced at the first occurrence i of its root r
    leaves the walk up to i as it was, and the interior of a simple cycle
    avoids r, so the next copy finds r first at i again, behind the same
    duplicate-free prefix, and goes in right there. The run's checks are
    those of its first copy.
    """
    check_walk(g, walk)
    cur = walk
    for cyc, run in groupby(reversed(cycles)):
        _check_cycle(g, cyc)
        root = cyc[0]
        if root not in cur:
            raise CompositionUndefinedError(
                f"cycle root {root} does not occur in the walk")
        i = cur.index(root)
        prefix = cur[:i + 1]
        if len(set(prefix)) != len(prefix):
            raise CompositionUndefinedError(
                f"no duplicate-free prefix reaches the first occurrence of {root}")
        cur = prefix + cyc[1:] * len(list(run)) + cur[i + 1:]
    return cur

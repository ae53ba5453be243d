"""N-dimensional de Bruijn graphs and the walk/word correspondence.

Vertices are all length-N words over the alphabet, stored as base-|A|
integer codes (leftmost symbol most significant). A word w read from a
start vertex v induces the walk that tracks the trailing N-symbol window
of v.w, and that correspondence is a bijection between words and walks.
"""

from __future__ import annotations

from .decomp import check_walk
from .errors import BadStartLengthError, DimensionCapError
from .words import (
    Alphabet,
    OccVector,
    ParamList,
    Word,
    add_vectors,
    occ_vector,
    suffix_indicator,
)

Vertex = int
Walk = tuple[Vertex, ...]

DEFAULT_MAX_VERTICES = 4096


class DeBruijnGraph:
    """Immutable after construction; every query is read-only."""

    def __init__(self, alphabet: Alphabet, dim: int,
                 max_vertices: int = DEFAULT_MAX_VERTICES):
        if dim < 1:
            raise ValueError("graph dimension must be at least 1")
        size = len(alphabet)
        count = size ** dim
        if count > max_vertices:
            raise DimensionCapError(
                f"{size}^{dim} = {count} vertices exceeds the cap of {max_vertices}")
        self.alphabet = alphabet
        self.dim = dim
        self._size = size
        self._window = size ** (dim - 1)
        self._count = count
        self._words = tuple(self._decode(code) for code in range(count))

    def _decode(self, code: int) -> Word:
        out = []
        for _ in range(self.dim):
            code, rem = divmod(code, self._size)
            out.append(self.alphabet.symbols[rem])
        return tuple(reversed(out))

    @property
    def vertex_count(self) -> int:
        return self._count

    @property
    def edge_count(self) -> int:
        return self._count * self._size

    def vertices(self) -> range:
        return range(self._count)

    def encode(self, word: Word) -> Vertex:
        if len(word) != self.dim:
            raise BadStartLengthError(
                f"vertex word must have length {self.dim}, got {len(word)}")
        code = 0
        for sym in word:
            code = code * self._size + self.alphabet.index(sym)
        return code

    def vertex_word(self, v: Vertex) -> Word:
        return self._words[v]

    def shift(self, v: Vertex, symbol: str) -> Vertex:
        """Successor of v along the edge labelled by symbol."""
        return (v % self._window) * self._size + self.alphabet.index(symbol)

    def successors(self, v: Vertex) -> tuple[Vertex, ...]:
        base = (v % self._window) * self._size
        return tuple(base + b for b in range(self._size))

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if not (0 <= u < self._count and 0 <= v < self._count):
            return False
        return v // self._size == u % self._window


def build(alphabet: Alphabet, dim: int,
          max_vertices: int = DEFAULT_MAX_VERTICES) -> DeBruijnGraph:
    return DeBruijnGraph(alphabet, dim, max_vertices)


def walk_of_word(g: DeBruijnGraph, start: Word, word: Word) -> Walk:
    """The walk from start whose step i lands on the trailing window of start.word[:i]."""
    cur = g.encode(start)
    out = [cur]
    for sym in word:
        cur = g.shift(cur, sym)
        out.append(cur)
    return tuple(out)


def word_of_walk(g: DeBruijnGraph, walk: Walk) -> Word:
    """Inverse of walk_of_word, prefixed with the start vertex's word."""
    check_walk(g, walk)
    tail = tuple(g.alphabet.symbols[v % len(g.alphabet)] for v in walk[1:])
    return g.vertex_word(walk[0]) + tail


def walk_occ(g: DeBruijnGraph, walk: Walk, params: ParamList) -> OccVector:
    """Sum of suffix indicators over every vertex after the first.

    This is the occurrence count the walk contributes on top of its start
    vertex: occ(v.w) = occ(v) + walk_occ(walk_of_word(v, w)) whenever the
    parameter words fit inside the window (max_len <= dim).
    """
    if params.max_len > g.dim:
        raise ValueError(
            f"parameter words of length {params.max_len} do not fit in a "
            f"dimension-{g.dim} window")
    check_walk(g, walk)
    counts = [0] * params.k
    for v in walk[1:]:
        for i, c in enumerate(suffix_indicator(g.vertex_word(v), params)):
            counts[i] += c
    return tuple(counts)


class OccTable:
    """Occurrence vectors of one parameter list along the walks of one graph.

    Built once per decision: the suffix indicator of every vertex, then,
    cached on first use, one column per cycle and one constant per path.
    column(w) equals walk_occ(g, w, params) and const(path) equals
    occ(start word) + walk_occ(g, path, params), so every trace sharing a
    cycle or a path reuses its sum. pumping_column(w) is column(w) as a
    column of the pumping rows, component 0 minus component j for
    j = 1..k-1, cached the same way. Walks are taken as given (traces come
    from enumeration); walk_occ is the checked reference.
    """

    def __init__(self, g: DeBruijnGraph, params: ParamList):
        if params.max_len > g.dim:
            raise ValueError(
                f"parameter words of length {params.max_len} do not fit in "
                f"a dimension-{g.dim} window")
        self.g = g
        self.params = params
        self._zero = (0,) * params.k
        self._ind = tuple(suffix_indicator(g.vertex_word(v), params)
                          for v in g.vertices())
        self._columns: dict[Walk, OccVector] = {}
        self._pumping: dict[Walk, tuple[int, ...]] = {}
        self._consts: dict[Walk, OccVector] = {}

    def _sum(self, walk: Walk) -> OccVector:
        ind = self._ind
        counts = list(self._zero)
        for v in walk[1:]:
            for i, c in enumerate(ind[v]):
                counts[i] += c
        return tuple(counts)

    def column(self, walk: Walk) -> OccVector:
        col = self._columns.get(walk)
        if col is None:
            col = self._columns[walk] = self._sum(walk)
        return col

    def pumping_column(self, walk: Walk) -> tuple[int, ...]:
        col = self._pumping.get(walk)
        if col is None:
            c = self.column(walk)
            col = self._pumping[walk] = tuple(c[0] - cj for cj in c[1:])
        return col

    def const(self, path: Walk) -> OccVector:
        const = self._consts.get(path)
        if const is None:
            start = occ_vector(self.g.vertex_word(path[0]), self.params)
            const = self._consts[path] = add_vectors(start, self._sum(path))
        return const


def to_dot(g: DeBruijnGraph, path: Walk = (), cycles: tuple[Walk, ...] = ()) -> str:
    """GraphViz rendering; a decomposition can be overlaid (path solid red,
    cycles dashed blue)."""
    styled: dict[tuple[Vertex, Vertex], str] = {}
    for cyc in cycles:
        for u, v in zip(cyc, cyc[1:]):
            styled[(u, v)] = ' [color="blue", style="dashed"]'
    for u, v in zip(path, path[1:]):
        styled[(u, v)] = ' [color="red", penwidth="2"]'
    lines = ["digraph debruijn {", "  rankdir=LR;"]
    for v in g.vertices():
        lines.append(f'  "{"".join(g.vertex_word(v))}";')
    for u in g.vertices():
        for v in g.successors(u):
            attrs = styled.get((u, v), "")
            lines.append(
                f'  "{"".join(g.vertex_word(u))}" -> "{"".join(g.vertex_word(v))}"{attrs};')
    lines.append("}")
    return "\n".join(lines) + "\n"

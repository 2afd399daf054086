"""Independent brute-force face tracer used to cross-check the library.

Deliberately shares no code with the package: rotations are plain dicts,
the successor is looked up positionally at every step, and visited arcs are
tracked in an explicit set.
"""

from __future__ import annotations

import itertools
import random


def oracle_faces(rotation: dict[int, tuple[int, ...]]) -> list[tuple[tuple[int, int], ...]]:
    arcs = [(v, w) for v, row in rotation.items() for w in row]
    visited: set[tuple[int, int]] = set()
    faces = []
    for arc in arcs:
        if arc in visited:
            continue
        walk = []
        cur = arc
        while cur not in visited:
            visited.add(cur)
            walk.append(cur)
            u, v = cur
            row = rotation[v]
            i = row.index(u)
            cur = (v, row[(i + 1) % len(row)])
        faces.append(tuple(walk))
    return faces


def canonical(face: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    k = face.index(min(face))
    return face[k:] + face[:k]


def canonical_face_set(faces) -> list[tuple[tuple[int, int], ...]]:
    return sorted(canonical(tuple(f)) for f in faces)


def random_rotation_data(rng: random.Random, max_n: int = 8):
    """A random graph on up to max_n vertices with shuffled rotations.

    Returns (n, edges, rows) in plain-python form so both the oracle and
    the library can consume it.
    """
    n = rng.randint(2, max_n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.append((u, v))
    nbrs: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rows = []
    for v in range(n):
        row = nbrs[v][:]
        rng.shuffle(row)
        rows.append(tuple(row))
    return n, edges, rows


def oracle_rotation_violations(rows) -> list[tuple[int, str, int]]:
    """The (vertex, kind, neighbor) of each way the rows fail to list
    exactly each vertex's neighbors, u and v being neighbors when either row
    lists the other; neighbor is the entry at fault, or the one missing.
    Per vertex v: row v's entries in order, then each u it omits though row
    u lists v, in ascending u."""
    n = len(rows)
    out = []
    for v in range(n):
        seen = []
        for w in rows[v]:
            if w == v:
                out.append((v, "self in rotation", w))
            elif w in seen:
                out.append((v, "duplicate neighbor", w))
            elif not 0 <= w < n:
                out.append((v, "non-neighbor present", w))
            seen.append(w)
        for u in range(n):
            if u != v and v in rows[u] and u not in rows[v]:
                out.append((v, "missing neighbor", u))
    return out


def oracle_pair_orbits(images) -> list[int]:
    """The lengths of the orbits of unordered vertex pairs under the
    permutation v -> images[v], found by walking every pair."""
    n = len(images)
    seen: set[frozenset[int]] = set()
    lengths = []
    for u in range(n):
        for v in range(u + 1, n):
            pair = frozenset((u, v))
            length = 0
            while pair not in seen:
                seen.add(pair)
                length += 1
                pair = frozenset(images[w] for w in pair)
            if length:
                lengths.append(length)
    return lengths


def oracle_current_faces(n: int, rows) -> list[list[tuple[int, int]]]:
    """Faces of a current graph as lists of (vertex, slot) arcs.

    Each arc, in row order, takes as its reverse the first arc not yet
    paired in its head's row that points back and carries the negated
    current; an arc with none raises ValueError.  After an arc, a face goes
    on with the rotation successor of its reverse.
    """
    twin: dict[tuple[int, int], tuple[int, int]] = {}
    for v, row in enumerate(rows):
        for i, (w, c) in enumerate(row):
            if (v, i) in twin:
                continue
            want = (n - c) % n
            for j, (u, d) in enumerate(rows[w]):
                if u == v and d == want and (w, j) not in twin and (w, j) != (v, i):
                    twin[(v, i)], twin[(w, j)] = (w, j), (v, i)
                    break
            else:
                raise ValueError(
                    f"arc {v}->{w} with current {c} has no reverse arc carrying {want}"
                )
    visited: set[tuple[int, int]] = set()
    faces = []
    for v, row in enumerate(rows):
        for i in range(len(row)):
            face = []
            arc = (v, i)
            while arc not in visited:
                visited.add(arc)
                face.append(arc)
                w, j = twin[arc]
                arc = (w, (j + 1) % len(rows[w]))
            if face:
                faces.append(face)
    return faces


def random_current_rows(rng: random.Random, max_n: int = 12, max_vertices: int = 5):
    """A random current multigraph as (n, rows): loops, parallel edges with
    equal currents and currents n/2 turn up often, and now and then one
    arc's current is changed so that it may lose its reverse."""
    n = rng.randint(2, max_n)
    nv = rng.randint(1, max_vertices)
    rows: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for _ in range(rng.randint(0, 2 * nv)):
        u, v = rng.randrange(nv), rng.randrange(nv)
        c = n // 2 if rng.random() < 0.2 else rng.randint(1, n - 1)
        for _ in range(2 if rng.random() < 0.2 else 1):
            rows[u].append((v, c))
            rows[v].append((u, n - c))
    for row in rows:
        rng.shuffle(row)
    arcs = [(v, i) for v, row in enumerate(rows) for i in range(len(row))]
    if arcs and rng.random() < 0.15:
        v, i = rng.choice(arcs)
        rows[v][i] = (rows[v][i][0], rng.randint(1, n - 1))
    return n, [tuple(row) for row in rows]


def oracle_current_report(n: int, rows) -> dict:
    """The four properties of a current graph, checked one by one.

    Gives the vertices not of degree 3, the (vertex, sum) pairs where the
    currents entering a vertex do not sum to 0 mod n, the face count from
    ``oracle_current_faces`` (which raises ValueError on an unpaired arc),
    the classes min(c, n - c) of all arcs, and the classes not used by
    exactly two arcs (one edge, seen from both ends).
    """
    uses: dict[int, int] = {}
    for row in rows:
        for _, c in row:
            x = min(c % n, (n - c) % n)
            uses[x] = uses.get(x, 0) + 1
    unbalanced = []
    for v, row in enumerate(rows):
        entering = 0
        for _, c in row:
            entering = (entering + n - c) % n
        if entering:
            unbalanced.append((v, entering))
    return {
        "not_cubic": [v for v, row in enumerate(rows) if len(row) != 3],
        "unbalanced": unbalanced,
        "faces": len(oracle_current_faces(n, rows)),
        "classes": set(uses),
        "repeated": sorted(x for x, count in uses.items() if count != 2),
    }


def oracle_one_face_triples(n: int, x) -> bool:
    """Whether some cubic current graph over Z_n with current set x, one
    edge for each d in x with arcs carrying d and -d, has exactly one face.

    Brute force: the currents on the arcs out of one vertex are a zero-sum
    triple, so split E = x ∪ -x into such triples in every way and give each
    triple both cyclic orders.  A face leaves along arc c, comes back along
    its reverse -c, and goes on with the arc after -c at that vertex.
    """
    elements = sorted({d % n for d in x} | {-d % n for d in x})

    def splits(rest):
        if not rest:
            yield []
            return
        a, others = rest[0], rest[1:]
        for i, b in enumerate(others):
            for c in others[i + 1:]:
                if (a + b + c) % n == 0:
                    left = [e for e in others if e != b and e != c]
                    for tail in splits(left):
                        yield [(a, b, c), *tail]

    for triples in splits(elements):
        for flips in itertools.product((False, True), repeat=len(triples)):
            after = {}
            for (a, b, c), flip in zip(triples, flips):
                order = (a, c, b) if flip else (a, b, c)
                for i in range(3):
                    after[order[i]] = order[(i + 1) % 3]
            length, c = 1, after[-elements[0] % n]
            while c != elements[0]:
                length, c = length + 1, after[-c % n]
            if length == len(elements):
                return True
    return False

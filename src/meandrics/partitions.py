"""Permutations, non-crossing partitions and their lattice operations.

Conventions used throughout the package:

- Permutations are stored in one-line ("word") notation as a tuple of
  0-based images: ``p.images[i] = p(i)``.  Composition is ``(p * q)(i) =
  p(q(i))``.
- Partitions of ``{1, ..., n}`` are stored 0-based internally, as the
  one-line images of their geodesic permutation (below), which determine
  them.  Their blocks, read from its cycles, are a tuple sorted by
  minimum, each block an increasing tuple.  All serialization and
  cycle/block notation at the boundary is 1-based.
- ``length`` of a permutation is the minimal number of transpositions
  whose product is the permutation, which equals ``n - cycle_count``.
- A geodesic permutation is one with ``length(p) + length(p~ * gamma) ==
  n - 1`` for the full cycle ``gamma = (1, 2, ..., n)``; these are exactly
  the permutations whose cycles, read increasingly, are the blocks of a
  non-crossing partition.
- ``enumerate_nc`` streams NC(n) in the order of the Dyck words of the
  fattened pairings (1 = open), lexicographic with 1 before 0: from the
  rainbow to the singletons.  It is the row order of every NC side table
  in :mod:`meandrics.meanders`.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence


class SizeMismatchError(ValueError):
    """Two objects that must live on the same ground set do not."""


class GeodesicViolationError(ValueError):
    """A permutation that should lie on the id--gamma geodesic does not."""


def catalan(n: int) -> int:
    """n-th Catalan number, binom(2n, n) / (n + 1), exact."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------

def _cycles(images: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of i -> images[i], each starting at its minimum,
    ordered by minimum."""
    seen = [False] * len(images)
    out = []
    for i in range(len(images)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = images[j]
        out.append(tuple(cyc))
    return tuple(out)


class Permutation:
    """A permutation of {0, ..., n-1} in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise ValueError("empty permutation")
        seen = [False] * n
        for x in images:
            if not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {images}")
            seen[x] = True
        self.images = images

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def full_cycle(cls, n: int) -> "Permutation":
        """gamma_n = (1, 2, ..., n): i -> i + 1 cyclically."""
        return cls(tuple(range(1, n)) + (0,))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build from disjoint cycles; fixed points may be omitted.

        Cycles are given in the 1-based notation used in all displayed
        examples, e.g. ``from_cycles(5, [(1, 2), (3, 4, 5)])``.
        """
        images = list(range(n))
        for cycle in cycles:
            cycle = [c - 1 for c in cycle]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if not 0 <= a < n:
                    raise ValueError(f"cycle entry {a + 1} out of range")
                images[a] = b
        return cls(images)

    @classmethod
    def from_one_based(cls, images: Iterable[int]) -> "Permutation":
        return cls(x - 1 for x in images)

    def one_based(self) -> tuple[int, ...]:
        """One-line images in 1-based form, the serialization format."""
        return tuple(x + 1 for x in self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def compose(self, other: "Permutation") -> "Permutation":
        """(self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise SizeMismatchError(f"sizes differ: {self.n} != {other.n}")
        img = self.images
        return Permutation(img[x] for x in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation(inv)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, 0-based, each starting at its minimum,
        ordered by minimum."""
        return _cycles(self.images)

    def cycle_count(self) -> int:
        return len(_cycles(self.images))

    def length(self) -> int:
        """Minimal number of transpositions multiplying to self;
        equals n - cycle_count."""
        return self.n - self.cycle_count()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cyc = " ".join(
            "(" + ",".join(str(c + 1) for c in cycle) + ")"
            for cycle in self.cycles()
        )
        return f"Permutation[{cyc}]"


# ---------------------------------------------------------------------------
# Non-crossing partitions
# ---------------------------------------------------------------------------

def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def _owners(blocks: Sequence[Sequence[int]], n: int) -> list[int]:
    """owner[x] = index of the block that holds x."""
    owner = [0] * n
    for k, b in enumerate(blocks):
        for x in b:
            owner[x] = k
    return owner


def _geodesic_images(blocks: Iterable[Sequence[int]], n: int) -> list[int]:
    """One-line images of the permutation whose cycles are the blocks,
    each read increasingly."""
    images = list(range(n))
    for b in blocks:
        for a, c in zip(b, b[1:] + b[:1]):
            images[a] = c
    return images


def _kreweras_images(images: Sequence[int]) -> list[int]:
    """One-line images of p~ gamma for the full cycle gamma."""
    inv = [0] * len(images)
    for i, x in enumerate(images):
        inv[x] = i
    # (p~ gamma)(i) = p~(i + 1 mod n)
    return inv[1:] + inv[:1]


def _on_geodesic(images: Sequence[int]) -> bool:
    """Whether p lies on the id--gamma geodesic: #(p) + #(p~ gamma) ==
    n + 1 in cycle counts.  For p built from blocks by
    :func:`_geodesic_images` this holds exactly when the blocks do not
    cross (Biane)."""
    return len(_cycles(images)) + len(_cycles(_kreweras_images(images))) == len(images) + 1


class NcPartition:
    """A non-crossing partition of {0, ..., n-1}, held as the one-line
    images of its geodesic permutation: each block, read increasingly,
    is one cycle."""

    # images: the geodesic's one-line images, which determine the
    # partition; _blocks: its canonical blocks, read from the cycles on
    # first use.
    __slots__ = ("images", "_blocks")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        if n < 1:
            raise ValueError("n must be >= 1")
        canon = _canonical_blocks(blocks)
        cover = sorted(x for b in canon for x in b)
        if cover != list(range(n)):
            raise ValueError(f"blocks do not partition 0..{n - 1}: {canon}")
        images = _geodesic_images(canon, n)
        if not _on_geodesic(images):
            raise ValueError(f"blocks cross: {canon}")
        self.images = tuple(images)
        self._blocks = canon

    @classmethod
    def _trusted(cls, images: Sequence[int]) -> "NcPartition":
        # Internal: caller guarantees the images of a geodesic permutation.
        # Used by the enumeration streams, from_geodesic,
        # CombSubset.to_partition, kreweras, nc_meet, nc_join and
        # interval_join, whose output the test suite compares with the
        # checking constructor's.
        out = object.__new__(cls)
        out.images = tuple(images)
        out._blocks = None
        return out

    @property
    def n(self) -> int:
        return len(self.images)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Canonical blocks: the geodesic's cycles, each read from its
        minimum, are increasing and come in order of minimum."""
        if self._blocks is None:
            self._blocks = _cycles(self.images)
        return self._blocks

    @classmethod
    def from_one_based(cls, n: int, blocks: Iterable[Iterable[int]]) -> "NcPartition":
        return cls(n, [[x - 1 for x in b] for b in blocks])

    @classmethod
    def singletons(cls, n: int) -> "NcPartition":
        """0_n, the finest partition."""
        return cls(n, [[i] for i in range(n)])

    @classmethod
    def full(cls, n: int) -> "NcPartition":
        """1_n, the one-block partition."""
        return cls(n, [list(range(n))])

    def block_count(self) -> int:
        return len(self.blocks)

    def norm(self) -> int:
        """Length of the geodesic permutation: n - number of blocks."""
        return self.n - len(self.blocks)

    def block_containing(self, i: int) -> tuple[int, ...]:
        for b in self.blocks:
            if i in b:
                return b
        raise ValueError(f"{i} not in ground set")

    def to_geodesic(self) -> Permutation:
        """The permutation whose cycles are the blocks, elements increasing."""
        return Permutation(self.images)

    @classmethod
    def from_geodesic(cls, p: Permutation) -> "NcPartition":
        """Inverse of :meth:`to_geodesic`.

        Raises :class:`GeodesicViolationError` unless ``p`` saturates the
        triangle inequality ``length(p) + length(p~ gamma) == n - 1``.
        """
        if not _on_geodesic(p.images):
            raise GeodesicViolationError(f"not on the id--gamma geodesic: {p!r}")
        # p is the geodesic, so its images are the partition
        return cls._trusted(p.images)

    def kreweras(self) -> "NcPartition":
        """Kreweras complement, computed as p~ * gamma on geodesics."""
        return NcPartition._trusted(_kreweras_images(self.images))

    def fatten(self) -> "NcPartition":
        """The non-crossing pairing of 2n points obtained by doubling.

        Point i (0-based) becomes 2i (its left copy) and 2i+1 (its right
        copy); the right copy of i is paired with the left copy of p(i)
        for the geodesic permutation p.
        """
        pairs = [(2 * i + 1, 2 * j) for i, j in enumerate(self.images)]
        return NcPartition(2 * self.n, [sorted(pr) for pr in pairs])

    def leq(self, other: "NcPartition") -> bool:
        """Reversed refinement order: every block of self inside a block
        of other."""
        if self.n != other.n:
            raise SizeMismatchError("different ground sets")
        owner = _owners(other.blocks, other.n)
        return all(len({owner[x] for x in b}) == 1 for b in self.blocks)

    def to_one_based(self) -> list[list[int]]:
        """Sorted 1-based block lists, e.g. [[1,4,5],[2,3]]."""
        return [[x + 1 for x in b] for b in self.blocks]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NcPartition) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        body = "".join("{" + ",".join(str(x + 1) for x in b) + "}" for b in self.blocks)
        return f"NcPartition({body})"


class CombSubset:
    """An element of the Kreweras complement of the interval partitions.

    Such a partition has at most one nontrivial block, ``Q | {n}`` (the
    comb), with everything else a singleton; it is encoded by the subset
    ``Q`` of {1, ..., n-1} (stored 0-based).
    """

    __slots__ = ("n", "q")

    def __init__(self, n: int, q: Iterable[int]):
        if n < 1:
            raise ValueError("n must be >= 1")
        q = frozenset(q)
        if not all(isinstance(x, int) and 0 <= x < n - 1 for x in q):
            raise ValueError(f"Q must be a subset of 0..{n - 2}: {sorted(q)}")
        self.n = n
        self.q = q

    @classmethod
    def from_one_based(cls, n: int, q: Iterable[int]) -> "CombSubset":
        return cls(n, [x - 1 for x in q])

    @classmethod
    def from_partition(cls, part: NcPartition) -> "CombSubset":
        nontrivial = [b for b in part.blocks if len(b) > 1]
        if len(nontrivial) > 1 or (nontrivial and part.n - 1 not in nontrivial[0]):
            raise ValueError(f"not a comb partition: {part!r}")
        q = set(nontrivial[0]) - {part.n - 1} if nontrivial else set()
        return cls(part.n, q)

    def to_partition(self) -> NcPartition:
        # a comb never crosses, and the singletons are fixed points
        comb = (*sorted(self.q), self.n - 1)
        return NcPartition._trusted(_geodesic_images([comb], self.n))

    def to_geodesic(self) -> Permutation:
        return self.to_partition().to_geodesic()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CombSubset)
                and self.n == other.n and self.q == other.q)

    def __hash__(self) -> int:
        return hash((self.n, self.q))

    def __repr__(self) -> str:
        return f"CombSubset(n={self.n}, Q={{{','.join(str(x + 1) for x in sorted(self.q))}}})"


# ---------------------------------------------------------------------------
# Enumeration (iterative, streaming)
# ---------------------------------------------------------------------------

def _close(images: list[int], stack: list[int], trail: list[int]) -> None:
    """Close the innermost open arch at the next point, len(trail)."""
    a, b = stack.pop(), len(trail)
    trail.append(a)
    # each arch joins one right copy 2i+1 and one left copy 2j: p(i) = j
    i, j = (a // 2, b // 2) if a % 2 else (b // 2, a // 2)
    images[i] = j


def enumerate_nc(n: int) -> Iterator[NcPartition]:
    """Stream all non-crossing partitions of [n]; Catalan(n) of them.

    Walks the arches of the fattened pairing on 2n points depth first,
    opening an arch before closing one, so the Dyck words (1 = open)
    come in lexicographic order with 1 before 0: from the rainbow
    1...10...0 to the singletons 1010...  The walk keeps an explicit
    stack, so no n meets the recursion limit, and holds O(n) state.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    images = [0] * n
    stack: list[int] = []   # left ends of the open arches, innermost last
    trail: list[int] = []   # per point: -1 if it opens, else the left end it closes
    while True:
        while len(trail) < 2 * n:
            # fewer than n opened: opens - closes == len(stack) and
            # opens + closes == len(trail)
            if len(trail) + len(stack) < 2 * n:
                stack.append(len(trail))
                trail.append(-1)
            else:
                _close(images, stack, trail)
        yield NcPartition._trusted(images)
        # back up to the last opening that could have closed instead
        while trail:
            a = trail.pop()
            if a >= 0:
                stack.append(a)
            else:
                stack.pop()
                if stack:
                    _close(images, stack, trail)
                    break
        if not trail:
            return


def _interval_images(n: int, cuts: int) -> list[int]:
    """Geodesic images of the interval partition of 0..n-1 cut after
    every i whose bit is set in the mask cuts: i -> i + 1 inside a block,
    and its last element back to its first."""
    images = list(range(1, n + 1))
    start = 0
    for i in range(n):
        if cuts >> i & 1 or i == n - 1:
            images[i] = start
            start = i + 1
    return images


def enumerate_interval(n: int) -> Iterator[NcPartition]:
    """Stream all interval partitions of [n]; 2^(n-1) of them."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for cuts in range(1 << (n - 1)):
        yield NcPartition._trusted(_interval_images(n, cuts))


def enumerate_kr_interval(n: int) -> Iterator[CombSubset]:
    """Stream Kr Int(n) as comb subsets Q of [n-1]; 2^(n-1) of them."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for mask in range(1 << (n - 1)):
        yield CombSubset(n, [i for i in range(n - 1) if mask >> i & 1])


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------

def refinement_leq(a: NcPartition, b: NcPartition) -> bool:
    return a.leq(b)


def nc_meet(a: NcPartition, b: NcPartition) -> NcPartition:
    """Largest common refinement: blockwise intersections."""
    if a.n != b.n:
        raise SizeMismatchError("different ground sets")
    owner_a = _owners(a.blocks, a.n)
    owner_b = _owners(b.blocks, b.n)
    groups: dict[tuple[int, int], list[int]] = {}
    for x in range(a.n):
        groups.setdefault((owner_a[x], owner_b[x]), []).append(x)
    return NcPartition._trusted(_geodesic_images(groups.values(), a.n))


def nc_join(a: NcPartition, b: NcPartition) -> NcPartition:
    """Smallest common non-crossing coarsening, Kr^-1(Kr a ^ Kr b).

    The Kreweras complement q = p~ gamma reverses the order of NC(n)
    (Kreweras), and its inverse sends q back to p = gamma q~.
    """
    if a.n != b.n:
        raise SizeMismatchError("different ground sets")
    meet = nc_meet(a.kreweras(), b.kreweras())
    p = [0] * a.n
    for i, x in enumerate(meet.images):
        p[x] = (i + 1) % a.n        # (gamma q~)(x) = q~(x) + 1
    return NcPartition._trusted(p)


def _separators(p: NcPartition) -> int:
    # bit i set: the gap between i and i+1 (0-based) is straddled by no block
    straddled = 0
    for blk in p.blocks:
        straddled |= (1 << blk[-1]) - (1 << blk[0])
    return ((1 << (p.n - 1)) - 1) & ~straddled


def interval_join(a: NcPartition, b: NcPartition) -> NcPartition:
    """Smallest interval-partition coarsening of both (interval closure
    of the join): keep exactly the gaps that separate both partitions."""
    if a.n != b.n:
        raise SizeMismatchError("different ground sets")
    cuts = _separators(a) & _separators(b)
    return NcPartition._trusted(_interval_images(a.n, cuts))


def kr_interval_meet(q: CombSubset, b: NcPartition) -> NcPartition:
    """Meet inside Kr Int(n): the comb on (Q | {n}) & b(n), singletons
    elsewhere, whose subset is Q & b(n) because n is not in Q.  Agrees
    with nc_meet when b is itself a comb."""
    if q.n != b.n:
        raise SizeMismatchError("different ground sets")
    return CombSubset(q.n, q.q.intersection(b.block_containing(q.n - 1))).to_partition()

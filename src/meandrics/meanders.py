"""Loop statistics of meandric systems built from partition pairs.

A system of class (alpha, beta) has loops counted by the cycles of
alpha~ * beta on the geodesic permutations.  This module enumerates the
four partition-class pairings exhaustively, producing loop polynomials
and the trivariate generating coefficients, and provides executable
forms of the combinatorial counting lemmas.

It is the one place that knows what a side is.  ``side_partitions``
names the four side kinds (NC(n), Int(n), Kr Int(n) as comb partitions,
and the rainbow), and ``_side`` turns one (kind, n) into a table of
read-only numpy rows, built once and shared by every scan: geodesic
one-line images, block counts and the block of n (without n) as a
bitmask.  Row i is the i-th partition that ``side_partitions`` (and so
the ``enumerate`` command) yields.  The class and cumulant scans read
both their sides from it through ``_CLASS_SIDES`` and ``_KR_SIDES``.

The exhaustive pair scans are vectorized with numpy but remain honest
brute force: every pair is materialized as a permutation composition
whose cycles are counted directly.  Chunks of the scan may be spread
over a thread pool capped by the MEANDER_THREADS environment variable;
partial histograms are merged by integer addition, so the result does
not depend on the split.

A class scan takes one top partition per symmetry orbit.  Rotating both
partitions of a pair (alpha -> gamma alpha gamma~ for the full cycle
gamma) or reflecting both (alpha -> r alpha~ r for r(i) = n-1-i) leaves
#cycles(alpha~ beta), ||alpha|| and ||beta|| unchanged, since the new
product is conjugate to alpha~ beta or to its inverse.  So when the
bottom side is closed under such a group, every top partition in one
orbit meets the bottom side in the same histogram, and the scan counts
each representative's pairs once per member of its orbit.  The group is
derived from the two sides: reflection for every class (NC(n), Int(n)
and the rainbow are closed under it), rotation as well only when both
sides are closed under it, which is the full class alone.  A side that
is not closed under reflection is refused, not scanned.  The pairs that
remain are still composed and counted one by one;
``pairwise_cycle_counts`` keeps the plain, unreduced table that verify
and the tests compare against.
"""

from __future__ import annotations

import enum
import os
import sys
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from .partitions import (
    CombSubset,
    NcPartition,
    SizeMismatchError,
    enumerate_interval,
    enumerate_kr_interval,
    enumerate_nc,
)
from .transforms import LaurentPoly


_T = TypeVar("_T")
_R = TypeVar("_R")


class ResourceLimitError(RuntimeError):
    """An enumeration request exceeded its class budget."""


class MeetNotTrivialError(ValueError):
    """The comb loop formula was applied where the Kr-interval meet is
    nontrivial."""


class MeanderClass(enum.Enum):
    FULL = "full"                 # NC(n) x NC(n)
    SHALLOW_TOP = "shallow-top"   # Int(n) x NC(n)
    THIN = "thin"                 # Int(n) x Int(n)
    SEMI = "semi"                 # Int(n) x {rainbow}


DEFAULT_BUDGETS: dict[MeanderClass, int] = {
    MeanderClass.FULL: 9,
    MeanderClass.SHALLOW_TOP: 10,
    MeanderClass.THIN: 16,
    MeanderClass.SEMI: 16,
}


def _check_cap(what: str, n: int, cap: int) -> None:
    """The one budget check: ResourceLimitError if n exceeds cap."""
    if n > cap:
        raise ResourceLimitError(f"{what} at n={n} exceeds budget {cap}")


def _check_budget(klass: MeanderClass, n: int, budget: int | None) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cap(f"{klass.value} enumeration", n,
               DEFAULT_BUDGETS[klass] if budget is None else budget)


@dataclass(frozen=True)
class LoopPolynomial:
    """Counts of class pairs by number of loops, i.e. the coefficients of
    the meander polynomial in the loop fugacity."""

    n: int
    klass: MeanderClass
    coeffs: Mapping[int, int]

    def evaluate(self, ell: int) -> int:
        return sum(c * ell ** k for k, c in self.coeffs.items())

    def total(self) -> int:
        return sum(self.coeffs.values())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "class": self.klass.value,
            "coeffs": {str(k): self.coeffs[k] for k in sorted(self.coeffs)},
        }

    def csv_rows(self) -> list[tuple[int, int, int]]:
        return [(self.n, k, self.coeffs[k]) for k in sorted(self.coeffs)]


# ---------------------------------------------------------------------------
# Scalar loop counting
# ---------------------------------------------------------------------------

def loop_count(a: NcPartition, b: NcPartition) -> int:
    """Number of loops of the system glued from a (top) and b (bottom):
    the cycle count of a~ * b."""
    if a.n != b.n:
        raise SizeMismatchError("partitions live on different ground sets")
    return a.to_geodesic().inverse().compose(b.to_geodesic()).cycle_count()


def loop_count_comb(q: CombSubset, b: NcPartition) -> int:
    """Loop count via the comb formula
    2 #{c in b' : Q & c = {}} + 1 - #(b') + |Q|,
    valid when the Kr-interval meet of q and b is trivial."""
    if q.n != b.n:
        raise SizeMismatchError("different ground sets")
    n = q.n
    if q.q.intersection(b.block_containing(n - 1)):
        raise MeetNotTrivialError(f"Q meets the block of n: {q!r}, {b!r}")
    rest = [blk for blk in b.blocks if n - 1 not in blk]
    empty = sum(1 for blk in rest if not q.q.intersection(blk))
    return 2 * empty + 1 - len(rest) + len(q.q)


def rainbow(n: int) -> NcPartition:
    """The fully nested pairing (1,n)(2,n-1)...; middle point a singleton
    for odd n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    blocks = [[i, n - 1 - i] for i in range(n // 2)]
    if n % 2:
        blocks.append([n // 2])
    return NcPartition(n, blocks)


# ---------------------------------------------------------------------------
# Bulk enumeration kernel
# ---------------------------------------------------------------------------

def _threads() -> int:
    return _thread_count(os.environ.get("MEANDER_THREADS"))


@lru_cache(maxsize=None)
def _thread_count(raw: str | None) -> int:
    """MEANDER_THREADS as a worker count in 1..os.cpu_count(); unset means
    1.  Other values are clamped into range with one stderr warning."""
    if raw is None:
        return 1
    cpus = os.cpu_count() or 1
    try:
        want = int(raw)
    except ValueError:
        want = 0
    if want < 1:
        print(f"warning: MEANDER_THREADS={raw!r} is not an integer >= 1; "
              f"using 1 thread", file=sys.stderr)
        return 1
    if want > cpus:
        print(f"warning: MEANDER_THREADS={want} exceeds the {cpus} CPUs; "
              f"using {cpus} threads", file=sys.stderr)
        return cpus
    return want


def _ordered_map(fn: Callable[[_T], _R], items: Sequence[_T]) -> Iterator[_R]:
    """fn(item) for each item, yielded in item order.

    The one thread pool of the package: up to MEANDER_THREADS calls run
    at once on worker threads, and the next call is started only when
    the oldest result is taken, so at most that many calls are running
    or done and waiting.  With one worker or one item the calls run on
    the calling thread."""
    workers = min(_threads(), len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    rest = iter(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        window = deque(pool.submit(fn, item) for item in islice(rest, workers))
        while window:
            result = window.popleft().result()
            window.extend(pool.submit(fn, item) for item in islice(rest, 1))
            yield result


def _geodesic_rows(parts: Iterable[NcPartition]) -> tuple[np.ndarray, np.ndarray]:
    """One-line images and block counts for a family of partitions."""
    images = []
    nblocks = []
    for part in parts:
        images.append(part.to_geodesic().images)
        nblocks.append(part.block_count())
    return np.array(images, dtype=np.int16), np.array(nblocks, dtype=np.int64)


def side_partitions(kind: str, n: int) -> Iterator[NcPartition]:
    """The partitions of one side kind, in enumeration order: ``nc`` is
    NC(n), ``interval`` Int(n), ``kr-interval`` Kr Int(n) as comb
    partitions and ``rainbow`` the rainbow alone.  The enumerators are
    looked up at each call, so a wrapper set on this module sees them."""
    if kind == "nc":
        return enumerate_nc(n)
    if kind == "interval":
        return enumerate_interval(n)
    if kind == "kr-interval":
        return (q.to_partition() for q in enumerate_kr_interval(n))
    if kind == "rainbow":
        return iter([rainbow(n)])
    raise ValueError(f"unknown side kind {kind!r}")


class Side(NamedTuple):
    """Read-only rows of one side; row i is the i-th partition of
    ``side_partitions``."""

    imgs: np.ndarray    # (M, n) int16 geodesic one-line images
    blocks: np.ndarray  # (M,) int64 block counts
    masks: np.ndarray   # (M,) int64 bitmask of the block of n, without n


@lru_cache(maxsize=None)
def _side(kind: str, n: int) -> Side:
    """The side table of (kind, n), built once and shared by every scan."""
    parts = list(side_partitions(kind, n))
    imgs, blocks = _geodesic_rows(parts)
    masks = np.array([sum(1 << i for i in p.block_containing(n - 1) if i != n - 1)
                      for p in parts], dtype=np.int64)
    for arr in (imgs, blocks, masks):
        arr.setflags(write=False)
    return Side(imgs, blocks, masks)


def _inverse(imgs: np.ndarray) -> np.ndarray:
    """Row-wise inverses of an (M, n) one-line array."""
    m, n = imgs.shape
    inv = np.empty_like(imgs)
    inv[np.arange(m)[:, None], imgs] = np.arange(n, dtype=imgs.dtype)
    return inv


def _partition_keys(imgs: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """One int64 per geodesic row: bit i is set when i is not the largest
    element of its block, bit n + i when i is the smallest.  These are
    the two ends of each arch of the partition's non-crossing matching on
    2n points, which they determine, so equal keys mean equal partitions.
    The 64 bits hold n <= 32; a class scan at n = 33 would enumerate
    at least 2^32 top partitions."""
    m, n = imgs.shape
    points = np.arange(n)
    bits = np.zeros((m, 64), dtype=bool)
    bits[:, :n] = imgs > points
    bits[:, n:2 * n] = inv >= points
    return np.packbits(bits, axis=1, bitorder="little").view("<i8")[:, 0]


def _generator_moves(imgs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partition keys of the rows, and a (2, M) array holding the row
    index of each row's rotation gamma P gamma~ (first line) and
    reflection r P~ r (second line), or -1 where that image is not a row
    of the side."""
    n = imgs.shape[1]
    inv = _inverse(imgs)
    keys = _partition_keys(imgs, inv)
    images = np.stack([
        _partition_keys(*((np.roll(x, 1, axis=1) + 1) % n for x in (imgs, inv))),
        _partition_keys(n - 1 - inv[:, ::-1], n - 1 - imgs[:, ::-1])])
    order = np.argsort(keys)
    rows = order[np.searchsorted(keys, images, sorter=order).clip(max=len(keys) - 1)]
    rows[keys[rows] != images] = -1
    return keys, rows


def _orbits(a_imgs: np.ndarray, b_imgs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of one A row per orbit of the symmetry group of the pair
    of sides, and each orbit's size.

    The group is the dihedral group when both sides are closed under
    rotation, else the reflection alone; a side not closed under
    reflection raises ValueError.  A row represents its orbit when its
    own key is the smallest key over its 2n (or 2) images, which are
    found by following each generator from row to row."""
    n = a_imgs.shape[1]
    keys, moves = _generator_moves(a_imgs)
    _, b_moves = _generator_moves(b_imgs)
    rotate, reflect = (moves >= 0).all(axis=1) & (b_moves >= 0).all(axis=1)
    if not reflect:
        raise ValueError("a side of the scan is not closed under reflection")
    images = []
    for rows in (np.arange(len(keys)), moves[1]):
        for _ in range(n if rotate else 1):
            images.append(keys[rows])
            rows = moves[0][rows]
    images = np.stack(images)
    reps = np.nonzero(images[0] == images.min(axis=0))[0]
    ordered = np.sort(images[:, reps], axis=0)
    sizes = 1 + np.count_nonzero(np.diff(ordered, axis=0), axis=0)
    return reps, sizes


def _cycle_counts(perms: np.ndarray) -> np.ndarray:
    """Cycle counts of each row of an (M, n) one-line array."""
    m, n = perms.shape
    visited = np.zeros((m, n), dtype=bool)
    counts = np.zeros(m, dtype=np.int64)
    for j in range(n):
        todo = ~visited[:, j]
        counts += todo
        rows = np.nonzero(todo)[0]
        cur = np.full(rows.shape, j, dtype=np.int64)
        while rows.size:
            visited[rows, cur] = True
            cur = perms[rows, cur].astype(np.int64, copy=False)
            keep = cur != j
            rows = rows[keep]
            cur = cur[keep]
    return counts


def _scan_pairs(a_imgs: np.ndarray, b_imgs: np.ndarray,
                reduce: Callable[[slice, np.ndarray], np.ndarray]) -> list[np.ndarray]:
    """reduce(rows, counts) for each chunk of A rows against all of B, in
    chunk order.  rows is the chunk's slice of A; counts holds
    #cycles(alpha~ beta) for its pairs, A-major.  Chunks are mapped over
    the MEANDER_THREADS pool by ``_ordered_map``."""
    ma, n = a_imgs.shape
    inv = _inverse(a_imgs)
    mb = b_imgs.shape[0]
    chunk = max(1, 4_000_000 // max(1, mb * n))

    def run(start: int) -> np.ndarray:
        rows = slice(start, min(start + chunk, ma))
        # (rows, mb, n): (alpha~ beta)(i); np.take returns it C-contiguous,
        # so the reshape below is a view, not a copy
        comp = np.take(inv[rows], b_imgs, axis=1)
        return reduce(rows, _cycle_counts(comp.reshape(-1, n)))

    return list(_ordered_map(run, range(0, ma, chunk)))


def _pair_scan(a_imgs: np.ndarray, a_stat: np.ndarray, b_imgs: np.ndarray,
               b_stat: np.ndarray, n: int,
               a_masks: np.ndarray | None = None,
               b_masks: np.ndarray | None = None) -> dict[tuple[int, int, int], int]:
    """Joint histogram over all pairs of (#cycles(a~ b), a_stat, b_stat).

    When masks are given, only pairs with a_mask & b_mask == 0 are kept
    (the trivial-meet filter of the cumulant sums).  Each chunk is reduced
    to its own histogram, so no (MA, MB) array is ever held.
    """
    base = n + 1
    nbins = base * base * (n + 1)
    a_idx = a_stat * base

    def histogram(rows: slice, counts: np.ndarray) -> np.ndarray:
        idx = counts * base * base + (a_idx[rows, None] + b_stat[None, :]).ravel()
        if a_masks is not None and b_masks is not None:
            idx = idx[((a_masks[rows, None] & b_masks[None, :]) == 0).ravel()]
        return np.bincount(idx, minlength=nbins)

    total = np.sum(_scan_pairs(a_imgs, b_imgs, histogram), axis=0, dtype=np.int64)
    hist: dict[tuple[int, int, int], int] = {}
    for flat in np.nonzero(total)[0]:
        k, rem = divmod(int(flat), base * base)
        a, b = divmod(rem, base)
        hist[(k, a, b)] = int(total[flat])
    return hist


def pairwise_cycle_counts(a_imgs: np.ndarray, b_imgs: np.ndarray) -> np.ndarray:
    """(MA, MB) array of #cycles(alpha~ beta) for one-line image rows."""
    mb = b_imgs.shape[0]
    blocks = _scan_pairs(a_imgs, b_imgs, lambda rows, counts: counts.reshape(-1, mb))
    return np.concatenate(blocks) if blocks else np.empty((0, mb), dtype=np.int64)


# (top, bottom) side kinds of each class scan
_CLASS_SIDES: dict[MeanderClass, tuple[str, str]] = {
    MeanderClass.FULL: ("nc", "nc"),
    MeanderClass.SHALLOW_TOP: ("interval", "nc"),
    MeanderClass.THIN: ("interval", "interval"),
    MeanderClass.SEMI: ("interval", "rainbow"),
}

# (top, bottom) side kinds of each cumulant scan: Kr Int(n) against the
# Kreweras complements of the bottom class, as a set (Kr NC(n) = NC(n)).
_KR_SIDES: dict[MeanderClass, tuple[str, str]] = {
    MeanderClass.SHALLOW_TOP: ("kr-interval", "nc"),
    MeanderClass.THIN: ("kr-interval", "kr-interval"),
}


@lru_cache(maxsize=None)
def _pair_histogram(klass: MeanderClass, n: int) -> Mapping[tuple[int, int, int], int]:
    """{(loops, ||alpha||, ||beta||): count} over all class pairs.

    Scans one A row per symmetry orbit against all of B, one orbit size
    at a time, and counts each pair once per member of the orbit."""
    a, b = (_side(kind, n) for kind in _CLASS_SIDES[klass])
    reps, sizes = _orbits(a.imgs, b.imgs)
    hist: Counter[tuple[int, int, int]] = Counter()
    for size in sorted(set(sizes.tolist())):
        rows = reps[sizes == size]
        scan = _pair_scan(a.imgs[rows], n - a.blocks[rows], b.imgs, n - b.blocks, n)
        for key, count in scan.items():
            hist[key] += size * count
    return dict(sorted(hist.items()))


def meander_polynomial(klass: MeanderClass, n: int,
                       budget: int | None = None) -> LoopPolynomial:
    """Exhaustive loop distribution: coeffs[k] = #{pairs with k loops}."""
    _check_budget(klass, n, budget)
    hist = _pair_histogram(klass, n)
    coeffs: dict[int, int] = {}
    for (k, _, _), c in hist.items():
        coeffs[k] = coeffs.get(k, 0) + c
    return LoopPolynomial(n, klass, coeffs)


def generating_coefficient(klass: MeanderClass, n: int,
                           budget: int | None = None) -> LaurentPoly:
    """Sum over class pairs of Y^||alpha~ beta|| A^||alpha|| B^||beta||."""
    _check_budget(klass, n, budget)
    hist = _pair_histogram(klass, n)
    return LaurentPoly({(n - k, a, b): c for (k, a, b), c in hist.items()})


@lru_cache(maxsize=None)
def _kr_pair_histogram(klass: MeanderClass, n: int) -> Mapping[tuple[int, int, int], int]:
    a, b = (_side(kind, n) for kind in _KR_SIDES[klass])
    # Kr-side exponents: ||alpha~ 1_n|| = n - 1 - ||alpha|| = #blocks - 1,
    # same for beta.  A comb's block-of-n mask is its Q, so the masks keep
    # the pairs with trivial Kr-interval meet.
    return _pair_scan(a.imgs, a.blocks - 1, b.imgs, b.blocks - 1, n,
                      a_masks=a.masks, b_masks=b.masks)


def cumulant_coefficient(klass: MeanderClass, n: int,
                         budget: int | None = None) -> LaurentPoly:
    """Sum over Kr Int(n) x Kr L(n) pairs with trivial Kr-interval meet of
    Y^||alpha~ beta|| A^||alpha~ 1_n|| B^||beta~ 1_n||."""
    if klass not in _KR_SIDES:
        raise ValueError("cumulant coefficients exist for thin and "
                         "shallow-top classes only")
    _check_budget(klass, n, budget)
    hist = _kr_pair_histogram(klass, n)
    return LaurentPoly({(n - k, a, b): c for (k, a, b), c in hist.items()})


# ---------------------------------------------------------------------------
# Counting lemmas and closed-form counts
# ---------------------------------------------------------------------------

def binomial_lemma_check(blocks: Sequence[Iterable[int]], a_val: int,
                         b_val: int) -> tuple[int, int]:
    """Both sides of the subset identity
    sum_Q A^|Q| B^#{c : Q & c = {}}  ==  prod_c ((A+1)^|c| + B - 1)
    for an arbitrary partition (crossing allowed).  Returns (lhs, rhs);
    equality is the tested property, not assumed here.
    """
    blocks = [frozenset(b) for b in blocks]
    ground = sorted(x for b in blocks for x in b)
    m = len(ground)
    if len(set(ground)) != m:
        raise ValueError("blocks overlap")
    if m > 20:
        raise ValueError("ground set too large for the subset scan")
    pos = {x: i for i, x in enumerate(ground)}
    masks = [sum(1 << pos[x] for x in b) for b in blocks]

    qs = np.arange(1 << m, dtype=np.int64)
    sizes = np.zeros(1 << m, dtype=np.int64)
    for i in range(m):
        sizes += (qs >> i) & 1
    empties = np.zeros(1 << m, dtype=np.int64)
    for mask in masks:
        empties += (qs & mask) == 0
    counts = np.zeros((m + 1, len(blocks) + 1), dtype=np.int64)
    np.add.at(counts, (sizes, empties), 1)

    lhs = 0
    for i in range(m + 1):
        for j in range(len(blocks) + 1):
            c = int(counts[i, j])
            if c:
                lhs += c * a_val ** i * b_val ** j
    rhs = 1
    for b in blocks:
        rhs *= (a_val + 1) ** len(b) + b_val - 1
    return lhs, rhs


def thin_count(n: int, k: int) -> int:
    """Thin systems of order n with k loops: 2^(n-1) binom(n-1, k-1)."""
    if n < 1 or not 1 <= k <= n:
        raise ValueError("need n >= 1 and 1 <= k <= n")
    return 2 ** (n - 1) * comb(n - 1, k - 1)


def semi_loop_distribution(n: int) -> LoopPolynomial:
    """Loop distribution of interval x rainbow systems in closed form:
    the X^n coefficient of M(X, Y, 1) re-keyed from Y-degree e to k = n - e
    loops.  For n = 2k it is (2Y)^(k-1) (Y+1)^k, for n = 2k-1 it is
    (2Y(Y+1))^(k-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs: dict[int, int] = {}
    if n % 2 == 0:
        half = n // 2
        for j in range(half + 1):
            coeffs[half + 1 - j] = 2 ** (half - 1) * comb(half, j)
    else:
        half = (n + 1) // 2
        for j in range(half):
            coeffs[half - j] = 2 ** (half - 1) * comb(half - 1, j)
    return LoopPolynomial(n, MeanderClass.SEMI, coeffs)


def shallow_top_meander_count(n: int, m: int) -> int:
    """Shallow-top meanders of order n extracted at A-degree n - m:
    (1/n) binom(n, m-1) binom(n+m-1, 2m-1), always an integer."""
    if n < 1 or not 1 <= m <= n:
        raise ValueError("need n >= 1 and 1 <= m <= n")
    val = Fraction(comb(n, m - 1) * comb(n + m - 1, 2 * m - 1), n)
    if val.denominator != 1:
        raise AssertionError(f"shallow_top_meander_count({n}, {m}) is not integral: {val}")
    return int(val)

"""Loop statistics of meandric systems built from partition pairs.

A system of class (alpha, beta) has loops counted by the cycles of
alpha~ * beta on the geodesic permutations.  This module enumerates the
four partition-class pairings exhaustively, producing loop polynomials
and the trivariate generating coefficients, and provides executable
forms of the combinatorial counting lemmas.

It is the one place that knows what a side is.  ``side_partitions``
names the four side kinds (NC(n), Int(n), Kr Int(n) as comb partitions,
and the rainbow), and ``_side`` streams one (kind, n) from its
enumerator into a table of read-only numpy rows, built once and shared
by every scan: geodesic one-line images, block counts (read off the
images, with no cycle walked) and the block of n (without n) as a
bitmask.  Row i is the i-th partition that ``side_partitions`` (and so
the ``enumerate`` command) yields.  The class and cumulant scans read
both their sides from it through ``_CLASS_SIDES`` and ``_KR_SIDES``.

The exhaustive pair scans are vectorized with numpy but remain honest
brute force: every pair is materialized as a permutation composition
whose cycles ``_cycle_counts`` counts directly, in uint8.  A chunk of
pairs is composed point-major, as an (n, pairs) block whose row i holds
the image of point i in every pair, so each per-point pass of the count
reads one contiguous row.  A fixed point is a 1-cycle, counted by one
comparison with the identity, and every longer cycle is walked once, so
every cycle of every composed pair is still counted.  A scan that
composes at least ``_POOL_CELLS`` (pair, point) cells spreads its chunks
over a thread pool capped by the MEANDER_THREADS environment variable; a
smaller one runs them in order on the calling thread.  Each chunk's
histogram is added to one integer total as it arrives, so the result
depends neither on the split nor on that rule.

A class scan takes one top partition per symmetry orbit.  Reflecting
both partitions of a pair (alpha -> r alpha~ r for r(i) = n-1-i) leaves
#cycles(alpha~ beta), ||alpha|| and ||beta|| unchanged, since the new
product is conjugate to the inverse of alpha~ beta.  Taking the Kreweras
complement of both (alpha -> Kr alpha = alpha~ gamma for the full cycle
gamma) keeps the loop count too, as gamma~ alpha beta~ gamma is
conjugate to the inverse of alpha~ beta, but flips both exponents:
||Kr alpha|| = n - 1 - ||alpha||.  Kr^2 is the rotation, so the group
<Kr, reflection> holds the dihedral group, and its orbits of NC(n) are
about half as many (175 against 336 at n=9, 490 against 980 at n=10).
So when the bottom side is closed under the group, every top partition
in one orbit meets it in the representative's histogram, flipped for
the members an odd number of Kr steps away, and the scan weights each
representative's pairs by its even and its odd members.  The group is
derived from the two sides: reflection for every class (NC(n), Int(n)
and the rainbow are closed under it), Kr as well only when both sides
are closed under it, which is the full class (and Int(2) = NC(2)).  A
side that is not closed under reflection gets the trivial group of
single rows, and so do the cumulant scans, which keep only the pairs
with trivial Kr-interval meet: that filter is not carried along an
orbit, so they weigh each pair once.

When both sides are the same kind (the full and thin classes, and the
Kr thin cumulant scan), the scan also uses the top/bottom swap: beta~
alpha is the inverse of alpha~ beta, so the pair (beta, alpha) has the
loops of (alpha, beta) with the two exponents exchanged, and the meet
filter is symmetric.  B is sorted by orbit key and a representative
meets only the B orbits from its own on; a pair in a later orbit stands
for itself and its mirror image.  A chunk composes and counts the whole
rectangle of its rows against the B suffix they read, and the reducer
discards the pairs before each row's own orbit.  Full n=9 composes 0.45M
pairs (0.42M its rows' own; 0.80M with the dihedral group in place of
<Kr, reflection>), full n=11 43.2M (43.1M; 84.5M), thin n=13 4.31M
(4.24M; 8.5M with the orbits alone) and Kr thin n=12 2.16M (2.10M;
4.19M).  One reducer, ``_pair_histogram``, serves every class and
cumulant scan; ``pairwise_cycle_counts`` fills the plain, unreduced
table that verify and the tests compare against, chunk by chunk.
"""

from __future__ import annotations

import enum
import os
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from math import comb, prod
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


# The fixed caps of every command live here, beside the check that
# enforces them.  Largest n of a class scan without an explicit budget.
DEFAULT_BUDGETS: dict[MeanderClass, int] = {
    MeanderClass.FULL: 10,
    MeanderClass.SHALLOW_TOP: 10,
    MeanderClass.THIN: 16,
    MeanderClass.SEMI: 16,
}
# Largest n of ``enumerate KIND`` without --budget-override; verify's
# profile-sum oracles, which enumerate NC(n), share the "nc" cap.
ENUM_BUDGETS = {"nc": 14, "interval": 16, "kr-interval": 16, "rainbow": 4096}
# Largest ORDER of ``series``.  At these orders thin and semi take about
# 2 s and 100-120 MB, shallow-top about 5-6 s and 50 MB (2 cores).
SERIES_BUDGETS = {"thin": 64, "shallow-top": 28, "semi": 256}
# Largest --budget-override of ``verify lemmas``.  Its
# kreweras-loop-invariance check holds one plain NC(n) x NC(n) uint8
# cycle-count table (24 MB at n = 9, where int64 would take 189 MB and
# set the suite's peak at 250 MB).  Measured on 2 cores (numpy 2.4.6),
# one process per run: the suite at n = 8 takes 2.0 s and peaks at 40 MB
# at one thread and 47 MB at two, at n = 9 11-13 s and 72 MB and 84 MB
# (that check alone 1.8-2.1 s).  NC(10) x NC(10) is 282,105,616 cells,
# 11.9x the 23,639,044 of n = 9, so that one table alone is 282 MB; n = 10
# was not run.
NC_PAIR_TABLE_BUDGET = 9


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
    """Loop count via the comb formula of ``comb_loop_counts``, valid
    when the Kr-interval meet of q and b is trivial."""
    if q.n != b.n:
        raise SizeMismatchError("different ground sets")
    if q.q.intersection(b.block_containing(q.n - 1)):
        raise MeetNotTrivialError(f"Q meets the block of n: {q!r}, {b!r}")
    mask = sum(1 << i for i in q.q)
    return int(comb_loop_counts(np.array([mask], dtype=np.int64), [b])[0, 0])


def comb_loop_counts(q_masks: np.ndarray, bottoms: Sequence[NcPartition]) -> np.ndarray:
    """(len(q_masks), len(bottoms)) int16 table of the comb formula
    2 #{c in b' : Q & c = {}} + 1 - #(b') + |Q|,
    where b' is the blocks of b other than the block of n and bit i of a
    comb mask is i in Q.  It is the loop count of (Q, b) where Q misses
    the block of n, and unchecked elsewhere: ``loop_count_comb`` is the
    checked entry point.  The formula is evaluated once per bottom
    partition, over the whole array of comb masks."""
    sizes = np.array([int(m).bit_count() for m in q_masks], dtype=np.int16)
    table = np.empty((len(q_masks), len(bottoms)), dtype=np.int16)
    for j, b in enumerate(bottoms):
        rest = np.array([sum(1 << i for i in blk) for blk in b.blocks if b.n - 1 not in blk],
                        dtype=np.int64)
        empty = np.count_nonzero((q_masks[:, None] & rest) == 0, axis=1)
        table[:, j] = 2 * empty + 1 - len(rest) + sizes
    return table


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
    """MEANDER_THREADS as a worker count in 1..the CPUs this process may
    use (os.sched_getaffinity where it exists); unset means 1.  Other
    values are clamped into range with one stderr warning."""
    if raw is None:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    try:
        want = int(raw)
    except ValueError:
        want = 0
    if want < 1:
        print(f"warning: MEANDER_THREADS={raw!r} is not an integer >= 1; "
              f"using 1 thread", file=sys.stderr)
        return 1
    if want > cpus:
        print(f"warning: MEANDER_THREADS={want} exceeds the {cpus} usable CPUs; "
              f"using {cpus} threads", file=sys.stderr)
        return cpus
    return want


# marked on the worker threads of _ordered_map's pools
_pool_worker = threading.local()


def _ordered_map(fn: Callable[[_T], _R], items: Sequence[_T]) -> Iterator[_R]:
    """fn(item) for each item, yielded in item order.

    The one thread pool of the package: up to MEANDER_THREADS calls run
    at once on worker threads, and the next call is started only when
    the oldest result is taken, so at most that many calls are running
    or done and waiting.  With one worker or one item the calls run on
    the calling thread, and so do they when that thread is itself one of
    the pool's workers: the pool does not nest, so no more than
    MEANDER_THREADS workers compute at once."""
    workers = min(_threads(), len(items))
    if workers <= 1 or getattr(_pool_worker, "marked", False):
        yield from map(fn, items)
        return
    rest = iter(items)
    with ThreadPoolExecutor(max_workers=workers,
                            initializer=setattr,
                            initargs=(_pool_worker, "marked", True)) as pool:
        window = deque(pool.submit(fn, item) for item in islice(rest, workers))
        while window:
            result = window.popleft().result()
            window.extend(pool.submit(fn, item) for item in islice(rest, 1))
            yield result


def _geodesic_rows(parts: Iterable[NcPartition]) -> tuple[np.ndarray, np.ndarray]:
    """One-line geodesic images, streamed into an int8 table, and int64
    block counts of a nonempty family of partitions.  The images are each
    partition's own, so they need no Permutation check.  A block is an
    increasing cycle of them, which descends once, from its largest point
    to its smallest: the blocks are the points i with images[i] <= i."""
    parts = iter(parts)
    first = next(parts)
    flat = chain(first.images, chain.from_iterable(p.images for p in parts))
    imgs = np.fromiter(flat, dtype=np.int8).reshape(-1, first.n)
    blocks = np.zeros(len(imgs), dtype=np.int64)
    for i in range(first.n):
        blocks += imgs[:, i] <= i
    return imgs, blocks


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


def _last_block_masks(imgs: np.ndarray) -> np.ndarray:
    """int64 bitmasks of the block of n - 1, without n - 1, of geodesic rows:
    its cycle climbs from the minimum.  Every row walks it at once, one
    point a step, by flat index row * n + point into the (M, n) table."""
    m, n = imgs.shape
    masks = np.zeros(m, dtype=np.int64)
    base = np.arange(m) * n
    nxt = imgs.take(base + n - 1)
    while base.size:
        keep = nxt != n - 1
        base, nxt = base[keep], nxt[keep]
        masks[base // n] |= np.left_shift(1, nxt, dtype=np.int64)
        nxt = imgs.take(base + nxt)
    return masks


class Side(NamedTuple):
    """Read-only rows of one side; row i is the i-th partition of
    ``side_partitions``."""

    imgs: np.ndarray    # (M, n) int8 geodesic one-line images (n <= 32)
    blocks: np.ndarray  # (M,) int64 block counts
    masks: np.ndarray   # (M,) int64 bitmask of the block of n, without n


@lru_cache(maxsize=None)
def _side(kind: str, n: int) -> Side:
    """The side table of (kind, n), built once and shared by every scan."""
    imgs, blocks = _geodesic_rows(side_partitions(kind, n))
    masks = _last_block_masks(imgs)
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
    index of each row's Kreweras complement Kr P = P~ gamma (first line)
    and reflection r P~ r (second line), or -1 where that image is not a
    row of the side."""
    n = imgs.shape[1]
    inv = _inverse(imgs)
    keys = _partition_keys(imgs, inv)
    # Kr P has images P~(i + 1) and inverse images P(i) - 1
    images = np.stack([
        _partition_keys(np.roll(inv, -1, axis=1), (imgs - 1) % n),
        _partition_keys(n - 1 - inv[:, ::-1], n - 1 - imgs[:, ::-1])])
    order = np.argsort(keys)
    rows = order[np.searchsorted(keys, images, sorter=order).clip(max=len(keys) - 1)]
    rows[keys[rows] != images] = -1
    return keys, rows


def _orbits(a_imgs: np.ndarray, b_imgs: np.ndarray,
            group: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The A rows in orbit order, each orbit's size and each orbit's
    number of odd members.

    The orbits are those of the symmetry group of the pair of sides,
    generated by each of the Kreweras complement and reflection under
    which both sides are closed: <Kr, reflection> for the full class
    (and for Int(2) = NC(2)) and the reflection for the other classes.
    With group false, or a side closed under neither, the orbits are
    single rows.  Kr^2 is the rotation, so Kr^(2n) is the identity, and
    reflection conjugates Kr to its inverse, so an orbit is the Kr^j
    images of a row and of its reflection, j < 2n, and its size divides
    4n.  A row's orbit key is
    the smallest partition key over those images, found by following
    each generator from row to row, and the row is odd when it is an odd
    number of Kr steps from the row of that key, its orbit's
    representative.  Kr maps ||P|| to n - 1 - ||P||, so the odd members
    meet a closed bottom side in the representative's histogram with
    both exponents flipped.  The rows of one orbit are contiguous,
    orbits in increasing order of key, so orbit i is
    order[first:first + sizes[i]] for first the sum of the sizes before
    it."""
    n = a_imgs.shape[1]
    keys, moves = _generator_moves(a_imgs)
    _, b_moves = _generator_moves(b_imgs)
    kreweras, reflect = (moves >= 0).all(axis=1) & (b_moves >= 0).all(axis=1) & group
    orbit, odd = keys, np.zeros(len(keys), dtype=bool)
    for rows in (np.arange(len(keys)), moves[1])[:1 + reflect]:
        for step in range(2 * n if kreweras else 1):
            image = keys[rows]
            nearer = image < orbit
            orbit = np.where(nearer, image, orbit)
            odd = np.where(nearer, step % 2 == 1, odd)
            rows = moves[0][rows]
    order = np.argsort(orbit, kind="stable")
    _, orbit_idx, sizes = np.unique(orbit, return_inverse=True, return_counts=True)
    return order, sizes, np.bincount(orbit_idx[odd], minlength=len(sizes))


def _cycle_counts(perms: np.ndarray) -> np.ndarray:
    """Cycle counts, in np.min_scalar_type(n), of each permutation of an
    (n, M) point-major array, for ``_scan_pairs``, its one caller: column
    r holds permutation r's one-line images, row i point i's in each.

    A fixed point is a 1-cycle, found by one comparison with the point
    and counted without a walk.  Every other cycle is walked once, from
    its smallest point, and counted there.  The input is not written."""
    n, m = perms.shape
    flat = perms.ravel()
    # state[i * m + r] for point i of permutation r: 0 not yet seen, 1 a
    # fixed point, 2 on a cycle already walked
    state = (flat.reshape(n, m) == np.arange(n, dtype=perms.dtype)[:, None]).view(np.uint8)
    flat_state = state.ravel()
    # at most n cycles a permutation: uint8 up to n = 255
    counts = np.zeros(m, dtype=np.min_scalar_type(n))
    stride = np.intp(m)
    for j in range(n):
        counts += state[j] < 2
        # walk the cycle of j in each permutation where j is unseen, by
        # flat index point * m + permutation, dropping a permutation when
        # its walk returns to j
        col = np.flatnonzero(state[j] == 0)
        pos = col + j * stride
        while pos.size:
            flat_state[pos] = 2
            nxt = flat.take(pos)
            keep = nxt != j
            col = col[keep]
            # intp by dtype, not by value: NumPy 1.x would keep an int8
            # image times a small stride in int8, and the index would wrap
            pos = np.multiply(nxt[keep], stride, dtype=np.intp)
            pos += col
    return counts


# A chunk of the pair scan holds about this many (pair, point) cells, and
# at least one A row.  Each worker holds a chunk's int8 compositions, its
# uint8 cycle states and its int64 walk indices at once, so the bound
# sets the scan's peak.  Measured on 2 cores (numpy 2.4.6) with the
# point-major kernel, medians of 5 runs (2 for full 11) of wall s (with
# interpreter start) / peak MB, one process per run:
#   threads cells   full 9       full 10      full 11      thin 13
#   2       2M      0.24 / 38    0.63 / 55    3.6 / 64     0.50 / 46
#   2       1M      0.25 / 37    0.55 / 45    4.2 / 57     0.54 / 40
#   2       500K    0.26 / 35    0.63 / 41    4.9 / 57     0.71 / 37
#   1       2M      0.27 / 38    0.84 / 44    6.0 / 46     0.61 / 39
#   1       1M      0.25 / 37    0.78 / 38    5.8 / 43     0.61 / 36
#   1       500K    0.24 / 35    0.74 / 36    6.8 / 43     0.65 / 34
# 2M is faster for thin 13 and full 11 at two threads but peaks 6-10 MB
# higher there; 500K is slower for thin 13 and full 11 at two, so 1M stays.
_CHUNK_CELLS = 1_000_000

# A swap-scan chunk composes its whole rectangle, also the cells before
# each row's own orbit, which the reducer discards.  So it ends before the
# first row whose own columns start more than 1/_SKIP_CAP of the way into
# it.  Pairs composed per representative x |B| at full 9, whose rows own
# 0.496 and whose test bounds it at 0.55: no cap 0.608, 1/2 0.574, 1/4
# 0.551, 1/8 0.525 (full 10: 0.517 uncapped, 0.510 at 1/8).
_SKIP_CAP = 8

# A scan goes on the MEANDER_THREADS pool only when its chunks compose at
# least this many (pair, point) cells in all; a smaller one runs its
# chunks in order on the calling thread.  The workers' malloc arenas keep
# their chunk temporaries: at 2 threads one scan alone peaks 4-5 MB
# higher on the pool (thin 12 38.7 against 34.9 MB, one process each),
# and `verify all` 47.2 against 39.9 MB.  Speedup of 2 threads over 1 with
# every chunk on the pool, medians of 5 alternating in-process runs, two
# sweeps, on 2 cores (numpy 2.4.6, point-major kernel):
#   scan            cells   speedup
#   full 8          0.40M   0.77, 0.85
#   thin 11         3.1M    0.87, 0.99
#   full 9          4.0M    1.06, 1.18
#   shallow-top 9   6.0M    1.64, 1.18
#   thin 12         13.4M   1.00, 1.24
#   full 10         42M     1.43, 1.69
#   shallow-top 10  46M     1.42, 1.74
#   thin 13         56M     1.39, 1.37
# The scans under 16M save at most about 30 ms each.  Thin 12 is the
# largest of the 66 scans of `verify all`, so 16M keeps that command off
# the pool, and leaves full 10, shallow-top 10, thin 13 and the
# 212M-cell NC(9) x NC(9) table of `verify lemmas --budget-override 9`
# on it.
_POOL_CELLS = 16_000_000


def _scan_pairs(a_imgs: np.ndarray, b_imgs: np.ndarray,
                reduce: Callable[[slice, slice, np.ndarray], _R],
                first: np.ndarray) -> Iterator[_R]:
    """reduce(rows, cols, counts) for each chunk of A rows, in chunk order.

    rows is the chunk's slice of A and cols the slice of B it reads;
    counts is the (rows, cols) table of #cycles(alpha~ beta).  first, one
    nondecreasing B column per A row, starts row i's own columns: a chunk
    counts the suffix of B from its first row's column, the reducer
    discards each row's cells before its own, and a chunk ends before a
    row whose own columns start more than 1/_SKIP_CAP of the way in.  A
    zero column makes every chunk read all of B, uncut.  Chunks hold at
    most about _CHUNK_CELLS cells.  When they compose at least
    _POOL_CELLS cells in all they are mapped over the MEANDER_THREADS
    pool by ``_ordered_map``, whose iterator this is, so a caller that
    folds the results holds at most MEANDER_THREADS + 1; otherwise they
    run one at a time on the calling thread as the caller takes them."""
    ma, n = a_imgs.shape
    inv = _inverse(a_imgs)
    mb = b_imgs.shape[0]
    bounds = []
    start = 0
    while start < ma:
        c0 = int(first[start])
        stop = min(ma, start + max(1, _CHUNK_CELLS // max(1, (mb - c0) * n)))
        cap = c0 + (mb - c0) // _SKIP_CAP
        stop = min(stop, int(np.searchsorted(first, cap, "right")))
        bounds.append((slice(start, stop), slice(c0, mb)))
        start = stop

    def run(chunk: tuple[slice, slice]) -> _R:
        rows, cols = chunk
        # point-major (n, cols, rows): (alpha~ beta)(i) = inv[r, b[c, i]];
        # np.take returns it C-contiguous, so the reshape is a view, and
        # the block is freed before reduce
        counts = _cycle_counts(np.take(np.ascontiguousarray(inv[rows].T), b_imgs[cols].T,
                                       axis=0).reshape(n, -1))
        # pair c * len(rows) + r is (row r, column c); reduce gets a
        # C-contiguous (rows, cols) copy of the narrow counts, and the
        # per-pair counts are freed before it runs
        counts = np.ascontiguousarray(counts.reshape(cols.stop - cols.start, -1).T)
        return reduce(rows, cols, counts)

    # read on every scan, so a bad MEANDER_THREADS warns whatever the size
    _threads()
    cells = n * sum((r.stop - r.start) * (c.stop - c.start) for r, c in bounds)
    return _ordered_map(run, bounds) if cells >= _POOL_CELLS else map(run, bounds)


def _cells(total: np.ndarray) -> dict[tuple[int, int, int], int]:
    """{(k, a, b): count} of the nonzero cells of a (k, a, b) array, in
    key order."""
    return {(int(k), int(a), int(b)): int(total[k, a, b])
            for k, a, b in zip(*np.nonzero(total))}


def pairwise_cycle_counts(a_imgs: np.ndarray, b_imgs: np.ndarray) -> np.ndarray:
    """(MA, MB) array of #cycles(alpha~ beta) for one-line image rows of
    length n: ``_scan_pairs`` counts in np.min_scalar_type(n) (uint8 up
    to n = 255), and each chunk's counts are stored as they come."""
    table = np.empty((len(a_imgs), len(b_imgs)), dtype=np.min_scalar_type(a_imgs.shape[1]))

    def fill(rows: slice, cols: slice, counts: np.ndarray) -> None:
        table[rows, cols] = counts

    deque(_scan_pairs(a_imgs, b_imgs, fill, np.zeros(len(a_imgs), dtype=np.intp)), maxlen=0)
    return table


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
def _pair_histogram(klass: MeanderClass, n: int,
                    kr: bool = False) -> Mapping[tuple[int, int, int], int]:
    """{(loops, ||alpha||, ||beta||): count} over all class pairs, or with
    kr over the cumulant pairs of ``_KR_SIDES`` whose Kr-interval meet is
    trivial, keyed (loops, #blocks(alpha) - 1, #blocks(beta) - 1).

    Scans one A row per symmetry orbit, in increasing order of orbit key,
    and weights each of its pairs by the orbit's members: the even ones
    add the pair's cell (k, a, b) and the odd ones, an odd number of
    Kreweras steps from the representative, add (k, n-1-a, n-1-b).  This
    is well defined: when an odd element fixes a row, that row's
    histogram over all of B is already invariant under the flip.  When
    both sides are the same kind, B is sorted by orbit key and a row
    meets only the B orbits from its own on: a pair in a later orbit
    counts as (k, a, b) and, for its mirror image, as (k, b, a), a swap
    that commutes with the flip.

    The cumulant scans drop each pair whose block-of-n masks meet (a
    comb's mask is its Q).  That filter is not carried along a Kr or
    reflection orbit, so they take the trivial group of single rows even
    where their sides are closed (Kr Int(2) = NC(2)); the swap of Kr thin
    keeps it, since the masks meet symmetrically."""
    top, bottom = (_KR_SIDES if kr else _CLASS_SIDES)[klass]
    a, b = _side(top, n), _side(bottom, n)
    order, sizes, odd = _orbits(a.imgs, b.imgs, group=not kr)
    last = np.cumsum(sizes)
    first = last - sizes
    reps = order[first]
    if top == bottom:
        # B in A's orbit order: representative i's own orbit is
        # B[first[i]:last[i]]
        b_rows = order
    else:
        # every pair counted once
        b_rows = np.arange(len(b.imgs))
        first, last = np.zeros_like(sizes), np.full_like(sizes, len(b_rows))
    # the distinct (even members, odd members) of the orbits; numpy 2.0.0
    # gives weight_idx a second axis, hence the reshape below
    weights, weight_idx = np.unique(np.stack([sizes - odd, odd], axis=1),
                                    axis=0, return_inverse=True)
    base = n + 1
    label = len(weights) * base ** 3
    # Kr-side exponents: ||alpha~ 1_n|| = n - 1 - ||alpha|| = #blocks - 1
    a_stat, b_stat = (s.blocks - 1 if kr else n - s.blocks for s in (a, b))
    cell_a = a_stat[reps] * base + weight_idx.reshape(-1) * base ** 3
    b_stat = b_stat[b_rows]
    a_masks, b_masks = a.masks[reps], b.masks[b_rows]

    def histogram(rows: slice, cols: slice, counts: np.ndarray) -> np.ndarray:
        # cells (label, weights, k, a, b); label 0, discarded: a pair
        # before the row's own orbit, or a cumulant pair whose masks
        # meet; 1: counted once; 2: counted with its mirror image
        col = np.arange(cols.start, cols.stop)
        idx = counts.astype(np.int64)     # the cells outgrow the narrow counts
        idx *= base * base
        idx += cell_a[rows, None]
        idx += b_stat[None, cols]
        own = col >= first[rows, None]
        later = col >= last[rows, None]
        if kr:
            trivial = (a_masks[rows, None] & b_masks[None, cols]) == 0
            own &= trivial
            later &= trivial
        np.add(idx, label, out=idx, where=own)
        np.add(idx, label, out=idx, where=later)
        cells = np.bincount(idx.ravel(), minlength=3 * label)
        cells = cells.reshape(3, len(weights), base, base, base)
        cells = cells[1] + cells[2] + cells[2].swapaxes(2, 3)
        even, odd_cells = np.tensordot(weights.T, cells, axes=1)
        # the exponents run over 0..n-1: the odd members flip both
        even[:, :n, :n] += odd_cells[:, n - 1::-1, n - 1::-1]
        return even

    # sum drops each histogram once added, before it takes the next
    return _cells(sum(_scan_pairs(a.imgs[reps], b.imgs[b_rows], histogram, first)))


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


def cumulant_coefficient(klass: MeanderClass, n: int,
                         budget: int | None = None) -> LaurentPoly:
    """Sum over Kr Int(n) x Kr L(n) pairs with trivial Kr-interval meet of
    Y^||alpha~ beta|| A^||alpha~ 1_n|| B^||beta~ 1_n||."""
    if klass not in _KR_SIDES:
        raise ValueError("cumulant coefficients exist for thin and "
                         "shallow-top classes only")
    _check_budget(klass, n, budget)
    hist = _pair_histogram(klass, n, kr=True)
    return LaurentPoly({(n - k, a, b): c for (k, a, b), c in hist.items()})


# ---------------------------------------------------------------------------
# Counting lemmas and closed-form counts
# ---------------------------------------------------------------------------

def binomial_lemma_check(blocks: Sequence[Iterable[int]], a_val: int,
                         b_val: int) -> tuple[int, int]:
    """Both sides of the subset identity
    sum_Q A^|Q| B^#{c : Q & c = {}}  ==  prod_c ((A+1)^|c| + B - 1)
    for an arbitrary partition (crossing allowed), the left side summed
    term by term over all 2^m subsets Q.  Returns (lhs, rhs); equality is
    the tested property, not assumed here.
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
    lhs = sum(a_val ** q.bit_count() * b_val ** sum(not q & c for c in masks)
              for q in range(1 << m))
    rhs = prod((a_val + 1) ** len(b) + b_val - 1 for b in blocks)
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

"""Oracle-equivalence checks behind the ``verify`` CLI command.

Every check compares an implemented formula or closed form against an
independent brute-force computation and returns (name, ok, detail); on
failure the detail holds a minimal counterexample.  All randomness is
seeded with fixed constants so repeated runs print identical reports.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator

import numpy as np

from . import matrix_models, meanders, partitions, transforms
from .meanders import MeanderClass
from .transforms import LaurentPoly, TruncSeries

CheckResult = tuple[str, bool, str]

_SEED = 20240809

# (partition, subset) cells per subset-binomial batch
_BATCH_CELLS = 1 << 18

# the A and B values of the subset-binomial identity
_AB_VALUES = (1, 2, 3)


def set_partitions(m: int) -> Iterator[list[list[int]]]:
    """All set partitions of {1..m} via restricted growth strings."""
    a = [0] * m
    while True:
        yield rgs_blocks(a)
        for i in range(m - 1, 0, -1):
            if a[i] <= max(a[:i]):
                a[i] += 1
                for j in range(i + 1, m):
                    a[j] = 0
                break
        else:
            return


def rgs_blocks(labels: Iterable[int]) -> list[list[int]]:
    """The 1-based blocks of a restricted growth string."""
    blocks: list[list[int]] = []
    for i, v in enumerate(labels):
        if v == len(blocks):
            blocks.append([])
        blocks[v].append(i + 1)
    return blocks


def rgs_batches(m: int, rows: int) -> Iterator[np.ndarray]:
    """The restricted growth strings of length m as int8 arrays of at most
    ``rows`` rows, in the lexicographic order of ``set_partitions``.

    Prefixes are extended depth first, one batch at a time, so memory
    stays bounded by ``rows`` rather than by the Bell number.
    """
    def grow(prefix: np.ndarray) -> Iterator[np.ndarray]:
        if prefix.shape[1] == m:
            yield prefix
            return
        # the next label runs over 0..max+1, children in increasing order
        fan = prefix.max(axis=1).astype(np.intp) + 2
        child = np.repeat(prefix, fan, axis=0)
        first = np.repeat(np.cumsum(fan) - fan, fan)
        last = (np.arange(len(child)) - first).astype(np.int8)
        child = np.column_stack([child, last])
        for lo in range(0, len(child), rows):
            yield from grow(child[lo:lo + rows])

    yield from grow(np.zeros((1, 1), dtype=np.int8))


def binomial_sides(labels: np.ndarray,
                   vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the subset binomial identity for a batch of set
    partitions of [m], given as restricted growth strings (rows).

    Returns int64 arrays lhs, rhs of shape (rows, |vals|, |vals|) with
    lhs[p, a, b] = sum over all 2^m subsets Q of A^|Q| B^#{blocks missed
    by Q} and rhs[p, a, b] = prod over blocks c of ((A+1)^|c| + B - 1),
    for A = vals[a], B = vals[b].  The caller keeps both within int64.
    """
    rows, m = labels.shape
    w = m + 1
    # Subsets with top element i are those below 2^i plus i.  Per (p, Q),
    # hit is the bitmask of the blocks Q meets and cell = |Q|*w + #blocks
    # missed; narrow dtypes halve the memory traffic of these passes.
    hit = np.empty((rows, 1 << m), dtype=np.int16 if m < 16 else np.int64)
    cell = np.empty((rows, 1 << m), dtype=np.int16)
    hit[:, 0] = 0
    cell[:, 0] = labels.max(axis=1) + 1
    bit = np.left_shift(1, labels, dtype=hit.dtype)
    for i in range(m):
        old, new = slice(0, 1 << i), slice(1 << i, 2 << i)
        fresh = (hit[:, old] & bit[:, i, None]) == 0
        np.bitwise_or(hit[:, old], bit[:, i, None], out=hit[:, new])
        np.subtract(cell[:, old] + w, fresh, out=cell[:, new])
    key = cell + (np.arange(rows) * w * w)[:, None]
    hist = np.bincount(key.ravel(), minlength=rows * w * w).reshape(rows, w, w)
    pows = vals[:, None] ** np.arange(w)                       # (|vals|, w)
    lhs = pows @ (hist @ pows.T)                               # (rows, A, B)

    sizes = np.bincount((np.arange(rows)[:, None] * m + labels).ravel(),
                        minlength=rows * m).reshape(rows, m)
    # factor per (block size, A, B); size 0 pads the missing blocks
    factor = ((vals + 1)[None, :, None] ** np.arange(w)[:, None, None]
              + vals[None, None, :] - 1)
    factor[0] = 1
    rhs = factor[sizes].prod(axis=1)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Lemma suite
# ---------------------------------------------------------------------------

def check_krint_combs(n_max: int = 8) -> CheckResult:
    name = "krint-equals-comb-partitions"
    total = 0
    for n in range(1, n_max + 1):
        combs = set(meanders.side_partitions("kr-interval", n))
        krs = {p.kreweras() for p in partitions.enumerate_interval(n)}
        if combs != krs:
            return name, False, f"n={n}: comb set differs from Kr(Int)"
        total += len(combs)
    return name, True, f"{total} partitions, n<={n_max}"


def check_kr_interval_meet(n_max: int = 7) -> CheckResult:
    name = "kr-interval-meet-formula"
    checked = 0
    for n in range(1, n_max + 1):
        combs = list(partitions.enumerate_kr_interval(n))
        comb_parts = [c.to_partition() for c in combs]
        ncs = list(partitions.enumerate_nc(n))
        # a comb lies below a partition iff Q sits inside the block of n;
        # a comb's mask is its Q, and |Q| = n - #blocks
        comb_side, nc_side = meanders._side("kr-interval", n), meanders._side("nc", n)
        c_masks, c_sizes = comb_side.masks, n - comb_side.blocks
        below_b = (c_masks[:, None] & ~nc_side.masks[None, :]) == 0    # (comb, beta)
        for q, qp, q_mask in zip(combs, comb_parts, c_masks):
            below_q = (c_masks & ~q_mask) == 0
            # per beta, the first admissible comb of maximal |Q|
            score = np.where(below_b & below_q[:, None], c_sizes[:, None], -1)
            for b, best in zip(ncs, score.argmax(axis=0)):
                got = partitions.kr_interval_meet(q, b)
                if got != comb_parts[best]:
                    return name, False, (f"n={n}, Q={q!r}, beta={b!r}: "
                                         f"{got!r} != {comb_parts[best]!r}")
                checked += 1
            for rp in comb_parts:
                if partitions.kr_interval_meet(q, rp) != partitions.nc_meet(qp, rp):
                    return name, False, f"n={n}: comb meet differs from nc_meet at {q!r}, {rp!r}"
    return name, True, f"{checked} pairs, n<={n_max}"


def check_meet_join_duality(n_max: int = 7) -> CheckResult:
    name = "interval-join-kreweras-duality"
    checked = 0
    for n in range(1, n_max + 1):
        ncs = list(partitions.enumerate_nc(n))
        # interval joins are determined by the intersection of separator
        # sets, Kr-interval meets by the block of n: each side of a pair is
        # read from a table indexed by its mask, holding an id per distinct
        # partition (-1 until the first pair with that mask fills it)
        sep_masks = np.array([partitions._separators(p) for p in ncs])
        kr_bn_masks = meanders._last_block_masks(
            np.array([p.kreweras().images for p in ncs], dtype=np.int8))
        ids: dict[partitions.NcPartition, int] = {}
        lhs_by_cuts = np.full(1 << (n - 1), -1)
        rhs_by_q = np.full(1 << (n - 1), -1)
        for xi, x in enumerate(ncs):
            cuts = sep_masks[xi] & sep_masks
            qmask = kr_bn_masks[xi] & kr_bn_masks
            for yi in np.flatnonzero(lhs_by_cuts[cuts] < 0):
                if lhs_by_cuts[cuts[yi]] < 0:
                    lhs = partitions.interval_join(x, ncs[yi]).kreweras()
                    lhs_by_cuts[cuts[yi]] = ids.setdefault(lhs, len(ids))
            for q in dict.fromkeys(qmask[rhs_by_q[qmask] < 0].tolist()):
                rhs = partitions.CombSubset(n, [i for i in range(n - 1) if q >> i & 1])
                rhs_by_q[q] = ids.setdefault(rhs.to_partition(), len(ids))
            bad = np.flatnonzero(lhs_by_cuts[cuts] != rhs_by_q[qmask])
            if bad.size:
                return name, False, f"n={n}, x={x!r}, y={ncs[bad[0]]!r}: duality fails"
            checked += len(ncs)
    return name, True, f"{checked} pairs, n<={n_max}"


def check_comb_loop_formula(n_max: int = 8) -> CheckResult:
    name = "comb-loop-count-formula"
    checked = 0
    for n in range(1, n_max + 1):
        combs = list(partitions.enumerate_kr_interval(n))
        ncs = list(partitions.enumerate_nc(n))
        comb_side, nc_side = meanders._side("kr-interval", n), meanders._side("nc", n)
        direct = meanders.pairwise_cycle_counts(comb_side.imgs, nc_side.imgs)
        # a comb's mask is its Q, and the formula needs Q to miss the block of n
        admissible = (comb_side.masks[:, None] & nc_side.masks[None, :]) == 0
        formula = meanders.comb_loop_counts(comb_side.masks, ncs)
        bad = np.argwhere(admissible & (formula != direct))
        if len(bad):
            qi, bi = bad[0]
            return name, False, (f"n={n}, Q={combs[qi]!r}, beta={ncs[bi]!r}: "
                                 f"{int(formula[qi, bi])} != {int(direct[qi, bi])}")
        checked += int(np.count_nonzero(admissible))
    return name, True, f"{checked} admissible pairs, n<={n_max}"


def _check_binomial_budget(m_max: int, ab_values: tuple[int, ...]) -> None:
    """ResourceLimitError unless every subset-binomial sum up to m_max
    fits int64: |lhs| <= (V+1)^m V^m and |rhs| <= (V+1)^m 2^m."""
    v = max(abs(x) for x in ab_values)
    if (v + 1) ** m_max * max(2, v) ** m_max >= 1 << 63:
        raise meanders.ResourceLimitError(
            f"subset-binomial sums at m={m_max}, |A|,|B|<={v} overflow int64")


def check_subset_binomial(m_max: int = 10,
                          ab_values: tuple[int, ...] = _AB_VALUES) -> CheckResult:
    name = "subset-binomial-identity"
    _check_binomial_budget(m_max, ab_values)
    checked = 0
    vals = np.array(ab_values, dtype=np.int64)
    for m in range(1, m_max + 1):
        for labels in rgs_batches(m, max(1, _BATCH_CELLS >> m)):
            lhs, rhs = binomial_sides(labels, vals)
            bad = np.nonzero(lhs != rhs)
            if bad[0].size:
                p, ai, bi = (int(x[0]) for x in bad)
                return name, False, (f"m={m}, blocks={rgs_blocks(labels[p])}, "
                                     f"A={int(vals[ai])}, B={int(vals[bi])}: "
                                     f"{int(lhs[p, ai, bi])} != {int(rhs[p, ai, bi])}")
            checked += lhs.size
    return name, True, f"{checked} (partition, A, B) triples, m<={m_max}"


def check_kreweras_loop_invariance(n_max: int = 7) -> CheckResult:
    name = "kreweras-loop-invariance"
    checked = 0
    for n in range(1, n_max + 1):
        ncs = list(partitions.enumerate_nc(n))
        # kr[i], the row of Kr ncs[i]: the Kr pair of cell (i, j) is (kr[i], kr[j])
        row = {p: i for i, p in enumerate(ncs)}
        kr = np.array([row.get(p.kreweras(), -1) for p in ncs])
        if (kr < 0).any():
            return name, False, f"n={n}, alpha={ncs[kr.argmin()]!r}: Kr alpha is not in NC(n)"
        imgs = meanders._side("nc", n).imgs
        plain = meanders.pairwise_cycle_counts(imgs, imgs)
        for i in range(len(ncs)):
            bad = np.flatnonzero(plain[i] != plain[kr[i], kr])
            if bad.size:
                j = int(bad[0])
                return name, False, (f"n={n}, alpha={ncs[i]!r}, beta={ncs[j]!r}: "
                                     f"{int(plain[i, j])} != {int(plain[kr[i], kr[j]])}")
        checked += plain.size
    return name, True, f"{checked} pairs, n<={n_max}"


# ---------------------------------------------------------------------------
# Thin suite
# ---------------------------------------------------------------------------

def check_thin_closed_form(n_max: int = 12) -> CheckResult:
    name = "thin-closed-form"
    m, _ = transforms.thin_series(n_max)
    for n in range(1, n_max + 1):
        brute = meanders.generating_coefficient(MeanderClass.THIN, n)
        if m.coefficient(n) != brute:
            return name, False, f"n={n}: series {m.coefficient(n)!r} != brute {brute!r}"
    return name, True, f"coefficients equal, n<={n_max}"


def check_thin_distribution(n_max: int = 12) -> CheckResult:
    name = "thin-loop-distribution"
    for n in range(1, n_max + 1):
        poly = meanders.meander_polynomial(MeanderClass.THIN, n)
        for k in range(1, n + 1):
            want = meanders.thin_count(n, k)
            got = poly.coeffs.get(k, 0)
            if got != want:
                return name, False, f"n={n}, k={k}: {got} != {want}"
    return name, True, f"counts equal 2^(n-1) C(n-1,k-1), n<={n_max}"


def check_thin_cumulants(n_max: int = 8) -> CheckResult:
    name = "thin-cumulant-coefficients"
    _, k = transforms.thin_series(n_max)
    kernel = transforms.A * transforms.B + (transforms.A + transforms.B) * transforms.Y
    for n in range(1, n_max + 1):
        brute = meanders.cumulant_coefficient(MeanderClass.THIN, n)
        if brute != kernel ** (n - 1) or brute != k.coefficient(n):
            return name, False, f"n={n}: cumulant sum differs from (AB+(A+B)Y)^(n-1)"
    return name, True, f"kappa_n == (AB+(A+B)Y)^(n-1), n<={n_max}"


def check_thin_matrix_model(n_max: int = 16, l_max: int = 5) -> CheckResult:
    name = "thin-matrix-model-exact"
    for l in range(1, l_max + 1):
        for n in range(1, n_max + 1):
            got = matrix_models.thin_exact(n, l)   # asserts the closed form
            want = l * (2 + 2 * l) ** (n - 1)
            if got != want:
                return name, False, f"n={n}, l={l}: {got} != {want}"
    return name, True, f"integer equality, n<={n_max}, l<={l_max}"


def check_thin_matrix_vs_polynomial(n_max: int = 12, l_max: int = 3) -> CheckResult:
    name = "thin-matrix-model-vs-brute-force"
    for n in range(1, n_max + 1):
        poly = meanders.meander_polynomial(MeanderClass.THIN, n)
        for l in range(1, l_max + 1):
            got = matrix_models.thin_exact(n, l)
            want = poly.evaluate(l)
            if got != want:
                return name, False, f"n={n}, l={l}: {got} != {want}"
    return name, True, f"trace equals brute-force polynomial, n<={n_max}, l<={l_max}"


# ---------------------------------------------------------------------------
# Shallow-top suite
# ---------------------------------------------------------------------------

def check_shallow_top_series(n_max: int = 9) -> CheckResult:
    name = "shallow-top-series"
    m, _ = transforms.shallow_top_series(n_max)
    for n in range(1, n_max + 1):
        brute = meanders.generating_coefficient(MeanderClass.SHALLOW_TOP, n)
        if m.coefficient(n) != brute:
            return name, False, f"n={n}: series coefficient differs from brute force"
    return name, True, f"coefficients equal, n<={n_max}"


def check_shallow_top_cumulants(n_max: int = 8) -> CheckResult:
    name = "shallow-top-cumulant-coefficients"
    _, k = transforms.shallow_top_series(n_max)
    for n in range(1, n_max + 1):
        brute = meanders.cumulant_coefficient(MeanderClass.SHALLOW_TOP, n)
        if k.coefficient(n) != brute:
            return name, False, f"n={n}: K coefficient differs from Kr-pair sum"
    return name, True, f"kappa_n matches Kr-pair sum, n<={n_max}"


def check_shallow_top_meander_binomials(n_max: int = 9) -> CheckResult:
    name = "shallow-top-meander-binomials"
    m, _ = transforms.shallow_top_series(n_max)
    for n in range(1, n_max + 1):
        cn = m.coefficient(n).substitute(b=1)
        slice_by_adeg: dict[int, int] = {}
        for (ey, ea, _), c in cn.terms():
            if ey == n - 1:
                slice_by_adeg[ea] = slice_by_adeg.get(ea, 0) + c
        for mm in range(1, n + 1):
            got = slice_by_adeg.get(n - mm, 0)
            want = meanders.shallow_top_meander_count(n, mm)
            if got != want:
                return name, False, f"n={n}, m={mm}: coefficient {got} != {want}"
    return name, True, f"[X^n Y^(n-1) A^(n-m)] M(X,Y,A,1) == shallow_top_meander_count, n<={n_max}"


# ---------------------------------------------------------------------------
# Semi suite
# ---------------------------------------------------------------------------

def check_semi_series(n_max: int = 14) -> CheckResult:
    name = "semi-meander-series"
    s = transforms.semi_meander_series(n_max)
    for n in range(1, n_max + 1):
        brute = meanders.generating_coefficient(MeanderClass.SEMI, n).substitute(b=1)
        if s.coefficient(n) != brute:
            return name, False, f"n={n}: series coefficient differs from brute force"
    return name, True, f"coefficients equal, n<={n_max}"


def check_semi_distribution(n_max: int = 14) -> CheckResult:
    name = "semi-loop-distribution"
    for n in range(1, n_max + 1):
        closed = dict(meanders.semi_loop_distribution(n).coeffs)
        brute = dict(meanders.meander_polynomial(MeanderClass.SEMI, n).coeffs)
        if closed != brute:
            return name, False, f"n={n}: {closed} != {brute}"
        if closed.get(1, 0) != 2 ** ((n + 1) // 2 - 1):
            return name, False, f"n={n}: semi-meander count {closed.get(1, 0)}"
    return name, True, f"two-case formula and 2^(ceil(n/2)-1) count, n<={n_max}"


# ---------------------------------------------------------------------------
# Transform suite
# ---------------------------------------------------------------------------

def _random_series(order: int, rng: random.Random) -> TruncSeries:
    def poly(_):
        return LaurentPoly({(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)):
                            rng.randint(-9, 9) for _ in range(3)})
    return TruncSeries.from_function(order, poly)


def check_transform_round_trips(order: int = 12, trials: int = 8) -> CheckResult:
    name = "transform-round-trips"
    rng = random.Random(_SEED)
    for t in range(trials):
        s = _random_series(order, rng)
        if transforms.boolean_inverse(transforms.boolean_transform(s)) != s:
            return name, False, f"boolean round trip failed on trial {t}"
        if transforms.free_inverse(transforms.free_transform(s)) != s:
            return name, False, f"free round trip failed on trial {t}"
    return name, True, f"{trials} random series, exact to order {order}"


@lru_cache(maxsize=None)
def _size_profiles(kind: str, n: int) -> dict[tuple, int]:
    """Multiplicities of block-size profiles over Int(n) or NC(n); for
    kind 'nc-last' the profile is (|block of n|, sorted other sizes)."""
    profiles: dict[tuple, int] = {}
    for p in meanders.side_partitions(kind.removesuffix("-last"), n):
        if kind == "nc-last":
            last = len(p.block_containing(n - 1))
            rest = tuple(sorted(len(b) for b in p.blocks if n - 1 not in b))
            prof: tuple = (last, rest)
        else:
            prof = tuple(sorted(len(b) for b in p.blocks))
        profiles[prof] = profiles.get(prof, 0) + 1
    return profiles


def _profile_product(products: dict[tuple, LaurentPoly],
                     factors: dict[int, LaurentPoly], prof: tuple) -> LaurentPoly:
    """products[prof]: the product of the longest prefix of prof held in
    products, times factors[size] for each later size, memoising every
    longer prefix on the way, so each distinct profile costs one product."""
    k = len(prof)
    while prof[:k] not in products:
        k -= 1
    for j in range(k, len(prof)):
        products[prof[:j + 1]] = products[prof[:j]] * factors[prof[j]]
    return products[prof]


def check_moment_cumulant_oracle(order: int = 10, trials: int = 4) -> CheckResult:
    name = "moment-cumulant-definition"
    rng = random.Random(_SEED + 1)
    for t in range(trials):
        s = _random_series(order, rng)
        kappas = {i: s.coefficient(i) for i in range(1, order + 1)}
        mb = transforms.boolean_transform(s)
        mf = transforms.free_transform(s)
        products: dict[tuple, LaurentPoly] = {(): transforms.ONE}
        for n in range(1, order + 1):
            for series, kind in ((mb, "interval"), (mf, "nc")):
                total = transforms.ZERO
                for prof, count in _size_profiles(kind, n).items():
                    total = total + _profile_product(products, kappas, prof) * count
                if series.coefficient(n) != total:
                    return name, False, f"trial {t}, n={n}: partition sum differs"
    return name, True, f"{trials} random cumulant series, order {order}"


def check_last_block_sum(order: int = 8) -> CheckResult:
    name = "last-block-composition"
    rng = random.Random(_SEED + 2)
    h = _random_series(order, rng)
    g = _random_series(order, rng)
    lhs = transforms.last_block_sum(h, g)
    hc = {i: h.coefficient(i) for i in range(1, order + 1)}
    gc = {i: g.coefficient(i) for i in range(1, order + 1)}
    # keyed (last, *rest): the one-element prefixes hold h's coefficients
    products: dict[tuple, LaurentPoly] = {(last,): c for last, c in hc.items()}
    for n in range(1, order + 1):
        total = transforms.ZERO
        for (last, rest), count in _size_profiles("nc-last", n).items():
            total = total + _profile_product(products, gc, (last, *rest)) * count
        if lhs.coefficient(n) != total:
            return name, False, f"n={n}: composition differs from block sum"
    return name, True, f"h(X(1+g_hat)) equals the block sum, order {order}"


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

_Check = Callable[..., CheckResult]

SUITES: dict[str, list[tuple[_Check, str]]] = {
    "lemmas": [
        (check_krint_combs, "n_max"),
        (check_kr_interval_meet, "n_max"),
        (check_meet_join_duality, "n_max"),
        (check_comb_loop_formula, "n_max"),
        (check_subset_binomial, "m_max"),
        (check_kreweras_loop_invariance, "n_max"),
    ],
    "thin": [
        (check_thin_closed_form, "n_max"),
        (check_thin_distribution, "n_max"),
        (check_thin_cumulants, "n_max"),
        (check_thin_matrix_model, "n_max"),
        (check_thin_matrix_vs_polynomial, "n_max"),
    ],
    "shallow-top": [
        (check_shallow_top_series, "n_max"),
        (check_shallow_top_cumulants, "n_max"),
        (check_shallow_top_meander_binomials, "n_max"),
    ],
    "semi": [
        (check_semi_series, "n_max"),
        (check_semi_distribution, "n_max"),
    ],
    "transforms": [
        (check_transform_round_trips, "order"),
        (check_moment_cumulant_oracle, "order"),
        (check_last_block_sum, "order"),
    ],
}


# The suites ``verify all`` runs, in order.  A later suite runs by its own
# name, so the pinned stdout of ``verify all`` stays as it is.
ALL = ("lemmas", "thin", "shallow-top", "semi", "transforms")

# The caps each suite's checks reach at --budget-override N: each entry
# takes N and raises ResourceLimitError past its cap.
SUITE_CAPS: dict[str, tuple[Callable[[int], None], ...]] = {
    # the int64 guard first, so that it names an overflow where it applies
    "lemmas": (partial(_check_binomial_budget, ab_values=_AB_VALUES),
               partial(meanders._check_cap, "NC(n) x NC(n) cycle-count table",
                       cap=meanders.NC_PAIR_TABLE_BUDGET)),
    "thin": (partial(meanders._check_budget, MeanderClass.THIN, budget=None),),
    "shallow-top": (partial(meanders._check_budget, MeanderClass.SHALLOW_TOP, budget=None),),
    "semi": (partial(meanders._check_budget, MeanderClass.SEMI, budget=None),),
    # the profile-sum oracles enumerate NC(n)
    "transforms": (partial(meanders._check_cap, "nc enumeration",
                           cap=meanders.ENUM_BUDGETS["nc"]),),
}


def run_suite(suite: str, budget: int | None = None) -> list[CheckResult]:
    """Run one named suite, or the suites of ALL for 'all'; budget
    overrides each check's cap.  The plan is checked first: every entry
    of SUITE_CAPS for every named suite, before the first check runs, so
    a refused budget costs no work."""
    names = ALL if suite == "all" else (suite,)
    if budget is not None:
        for nm in names:
            for check_cap in SUITE_CAPS[nm]:
                check_cap(budget)
    results = []
    for nm in names:
        for fn, cap_kw in SUITES[nm]:
            kwargs = {cap_kw: budget} if budget is not None else {}
            results.append(fn(**kwargs))
    return results

import itertools
import random
import threading
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from meandrics.meanders import (
    DEFAULT_BUDGETS,
    MeanderClass,
    MeetNotTrivialError,
    ResourceLimitError,
    binomial_lemma_check,
    cumulant_coefficient,
    generating_coefficient,
    shallow_top_meander_count,
    loop_count,
    loop_count_comb,
    meander_polynomial,
    pairwise_cycle_counts,
    rainbow,
    semi_loop_distribution,
    side_partitions,
    thin_count,
)
from meandrics.meanders import (
    _CLASS_SIDES,
    _KR_SIDES,
    _geodesic_rows,
    _orbits,
    _pair_histogram,
    _side,
)
from meandrics.partitions import (
    CombSubset,
    NcPartition,
    catalan,
    enumerate_interval,
    enumerate_kr_interval,
    enumerate_nc,
)
from meandrics.transforms import A, B, LaurentPoly, ONE, Y


def plain_histogram(a_imgs, a_stat, b_imgs, b_stat, keep=None):
    """{(loops, a_stat, b_stat): count} over the pairs of the plain table,
    or over those where keep is set."""
    loops = pairwise_cycle_counts(a_imgs, b_imgs)
    if keep is None:
        keep = np.ones(loops.shape, dtype=bool)
    a_stat = np.broadcast_to(a_stat[:, None], loops.shape)
    b_stat = np.broadcast_to(b_stat[None, :], loops.shape)
    return dict(Counter(zip(loops[keep].tolist(), a_stat[keep].tolist(),
                            b_stat[keep].tolist())))


class TestLoopCount:
    def test_worked_example(self):
        a = NcPartition.from_one_based(5, [[1, 2], [3, 4, 5]])
        b = NcPartition.from_one_based(5, [[1, 2, 4], [3], [5]])
        assert loop_count(a, b) == 2

    def test_equal_partitions_give_n_loops(self):
        for n in range(1, 7):
            for x in enumerate_nc(n):
                assert loop_count(x, x) == n

    def test_kreweras_invariance(self):
        for n in range(1, 7):
            ncs = list(enumerate_nc(n))
            for a, b in itertools.product(ncs, repeat=2):
                assert loop_count(a, b) == loop_count(a.kreweras(), b.kreweras())

    def test_parity(self):
        for n in range(1, 7):
            ncs = list(enumerate_nc(n))
            for a, b in itertools.product(ncs, repeat=2):
                k = loop_count(a, b)
                assert (n - k) % 2 == (a.norm() + b.norm()) % 2

    def test_comb_xor_identity(self):
        # #(comb(Q)~ comb(R)) == n - |Q xor R|
        for n in range(2, 9):
            combs = list(enumerate_kr_interval(n))
            for q in combs:
                for r in combs:
                    got = loop_count(q.to_partition(), r.to_partition())
                    assert got == n - len(q.q ^ r.q)

    def test_cycle_counts_of_arbitrary_permutations(self):
        from meandrics.meanders import _cycle_counts
        from meandrics.partitions import Permutation
        rows = [list(p) for n in range(1, 8) for p in itertools.permutations(range(n))]
        rng = np.random.default_rng(5)
        # 32 is the largest n of the scans' int8 rows
        for n in (13, 16, 32):
            rows += [rng.permutation(n).tolist() for _ in range(2000)]
            # rows rich in fixed points: the identity, every single
            # transposition and random involutions
            rows.append(list(range(n)))
            for i, j in itertools.combinations(range(n), 2):
                swap = list(range(n))
                swap[i], swap[j] = j, i
                rows.append(swap)
            for _ in range(200):
                moved = rng.permutation(n)[:2 * rng.integers(n // 2 + 1)]
                involution = list(range(n))
                for i, j in moved.reshape(-1, 2).tolist():
                    involution[i], involution[j] = j, i
                rows.append(involution)
        for n in sorted({len(r) for r in rows}):
            same_n = [r for r in rows if len(r) == n]
            expected = [Permutation(r).cycle_count() for r in same_n]
            for dtype in (np.int8, np.int16):
                perms = np.array(same_n, dtype=dtype)
                before = perms.copy()
                counts = _cycle_counts(perms)
                assert counts.dtype == np.int64
                assert counts.tolist() == expected, (n, dtype)
                assert np.array_equal(perms, before), (n, dtype)

    def test_pairwise_kernel_matches_scalar(self):
        rnd = random.Random(3)
        for n in (2, 4, 6, 8):
            ncs = list(enumerate_nc(n))
            sample = [rnd.choice(ncs) for _ in range(12)]
            imgs, _ = _geodesic_rows(sample)
            table = pairwise_cycle_counts(imgs, imgs)
            for i, a in enumerate(sample):
                for j, b in enumerate(sample):
                    assert int(table[i, j]) == loop_count(a, b)


class TestLoopCountComb:
    def test_empty_comb_on_singletons(self):
        for n in range(1, 9):
            assert loop_count_comb(CombSubset(n, []), NcPartition.singletons(n)) == n

    def test_empty_comb_counts_blocks(self):
        for n in range(1, 8):
            for b in enumerate_nc(n):
                assert loop_count_comb(CombSubset(n, []), b) == b.block_count()

    def test_formula_matches_direct_count(self):
        for n in range(1, 7):
            ncs = list(enumerate_nc(n))
            for q in enumerate_kr_interval(n):
                qp = q.to_partition()
                for b in ncs:
                    if q.q & set(b.block_containing(n - 1)):
                        with pytest.raises(MeetNotTrivialError):
                            loop_count_comb(q, b)
                    else:
                        assert loop_count_comb(q, b) == loop_count(qp, b)


class TestRainbow:
    def test_examples(self):
        assert rainbow(6).to_one_based() == [[1, 6], [2, 5], [3, 4]]
        assert rainbow(6).kreweras().to_one_based() == [[1, 5], [2, 4], [3], [6]]
        assert rainbow(7).to_one_based() == [[1, 7], [2, 6], [3, 5], [4]]
        assert rainbow(7).kreweras().to_one_based() == [[1, 6], [2, 5], [3, 4], [7]]
        assert rainbow(1).to_one_based() == [[1]]

    @pytest.mark.parametrize("n", range(2, 14))
    def test_kreweras_structure(self, n):
        kr = rainbow(n).kreweras()
        blocks = kr.to_one_based()
        assert [n] in blocks
        singles = [b for b in blocks if len(b) == 1]
        if n % 2 == 0:
            assert sorted(singles) == [[n // 2], [n]]
        else:
            assert singles == [[n]]
        assert all(len(b) in (1, 2) for b in blocks)


class TestMeanderPolynomial:
    def test_order_one_all_classes(self):
        for klass in MeanderClass:
            poly = meander_polynomial(klass, 1)
            assert dict(poly.coeffs) == {1: 1}

    def test_full_n2(self):
        assert dict(meander_polynomial(MeanderClass.FULL, 2).coeffs) == {1: 2, 2: 2}

    def test_totals(self):
        for n in range(1, 7):
            assert meander_polynomial(MeanderClass.FULL, n).total() == catalan(n) ** 2
            assert meander_polynomial(MeanderClass.SHALLOW_TOP, n).total() == \
                2 ** (n - 1) * catalan(n)
            assert meander_polynomial(MeanderClass.THIN, n).total() == 4 ** (n - 1)
            assert meander_polynomial(MeanderClass.SEMI, n).total() == 2 ** (n - 1)

    def test_thin_matches_closed_count(self):
        for n in range(1, 9):
            poly = meander_polynomial(MeanderClass.THIN, n)
            for k in range(1, n + 1):
                assert poly.coeffs.get(k, 0) == thin_count(n, k)

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            meander_polynomial(MeanderClass.FULL, DEFAULT_BUDGETS[MeanderClass.FULL] + 1)
        with pytest.raises(ValueError):
            meander_polynomial(MeanderClass.FULL, 0)
        # explicit budget raises the cap
        poly = meander_polynomial(MeanderClass.SEMI, 17, budget=17)
        assert poly.total() == 2 ** 16

    def test_evaluate_and_json(self):
        poly = meander_polynomial(MeanderClass.THIN, 3)
        assert poly.evaluate(1) == 16
        assert poly.evaluate(2) == 2 * (2 + 2 * 2) ** 2
        assert poly.to_json() == {"n": 3, "class": "thin",
                                  "coeffs": {"1": 4, "2": 8, "3": 4}}
        assert poly.csv_rows() == [(3, 1, 4), (3, 2, 8), (3, 3, 4)]


class TestGeneratingCoefficient:
    def test_thin_n2(self):
        assert generating_coefficient(MeanderClass.THIN, 2) == ONE + A * B + (A + B) * Y

    def test_order_one(self):
        for klass in MeanderClass:
            assert generating_coefficient(klass, 1) == ONE

    def test_shallow_top_n3_has_twenty_pairs(self):
        poly = generating_coefficient(MeanderClass.SHALLOW_TOP, 3)
        assert poly.evaluate(1, 1, 1) == 20

    def test_y_marginal_recovers_loop_polynomial(self):
        for klass in MeanderClass:
            for n in range(1, 6):
                poly = generating_coefficient(klass, n).substitute(a=1, b=1)
                marginal = {}
                for (ey, _, _), c in poly.terms():
                    marginal[n - ey] = marginal.get(n - ey, 0) + c
                assert marginal == dict(meander_polynomial(klass, n).coeffs)

    def test_kreweras_primed_exponents(self):
        # the joint distribution is unchanged by passing to Kreweras
        # complements with the primed exponent convention
        for klass in (MeanderClass.THIN, MeanderClass.SHALLOW_TOP, MeanderClass.FULL):
            for n in range(1, 7):
                if klass is MeanderClass.FULL:
                    a_parts = [p.kreweras() for p in enumerate_nc(n)]
                    b_parts = [p.kreweras() for p in enumerate_nc(n)]
                elif klass is MeanderClass.SHALLOW_TOP:
                    a_parts = [p.kreweras() for p in enumerate_interval(n)]
                    b_parts = [p.kreweras() for p in enumerate_nc(n)]
                else:
                    a_parts = [p.kreweras() for p in enumerate_interval(n)]
                    b_parts = a_parts
                a_imgs, a_blocks = _geodesic_rows(a_parts)
                b_imgs, b_blocks = _geodesic_rows(b_parts)
                hist = plain_histogram(a_imgs, (n - 1) - (n - a_blocks),
                                       b_imgs, (n - 1) - (n - b_blocks))
                primed = LaurentPoly({(n - k, a, b): c
                                      for (k, a, b), c in hist.items()})
                assert primed == generating_coefficient(klass, n)


class TestCumulantCoefficient:
    def test_thin_closed_form(self):
        kernel = A * B + (A + B) * Y
        for n in range(1, 8):
            assert cumulant_coefficient(MeanderClass.THIN, n) == kernel ** (n - 1)

    def test_order_one(self):
        assert cumulant_coefficient(MeanderClass.SHALLOW_TOP, 1) == ONE

    def test_rejects_other_classes(self):
        with pytest.raises(ValueError):
            cumulant_coefficient(MeanderClass.FULL, 3)
        with pytest.raises(ValueError):
            cumulant_coefficient(MeanderClass.SEMI, 3)


class TestBinomialLemma:
    def test_single_block(self):
        for m in (1, 2, 5):
            lhs, rhs = binomial_lemma_check([range(1, m + 1)], 3, 7)
            assert lhs == rhs == 4 ** m + 6

    def test_m1(self):
        assert binomial_lemma_check([[1]], 5, 11) == (16, 16)

    def test_random_crossing_partitions(self):
        rnd = random.Random(11)
        for _ in range(25):
            m = rnd.randint(2, 12)
            labels = list(range(1, m + 1))
            rnd.shuffle(labels)
            nblocks = rnd.randint(1, m)
            blocks = [[] for _ in range(nblocks)]
            for i, x in enumerate(labels):
                blocks[i % nblocks].append(x)
            for a_val in (2, 3, 5):
                for b_val in (2, 3, 5):
                    lhs, rhs = binomial_lemma_check(blocks, a_val, b_val)
                    assert lhs == rhs

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            binomial_lemma_check([[1, 2], [2, 3]], 1, 1)


class TestClosedCounts:
    def test_thin_count_small(self):
        assert thin_count(2, 1) == 2 and thin_count(2, 2) == 2
        with pytest.raises(ValueError):
            thin_count(3, 4)

    def test_semi_distribution_n3(self):
        assert dict(semi_loop_distribution(3).coeffs) == {1: 2, 2: 2}

    def test_semi_distribution_matches_bruteforce(self):
        for n in range(1, 11):
            assert dict(semi_loop_distribution(n).coeffs) == \
                dict(meander_polynomial(MeanderClass.SEMI, n).coeffs)

    def test_semi_meander_count(self):
        for n in range(1, 15):
            assert semi_loop_distribution(n).coeffs.get(1, 0) == \
                2 ** ((n + 1) // 2 - 1)

    def test_shallow_top_meander_count_values(self):
        assert shallow_top_meander_count(1, 1) == 1
        assert [shallow_top_meander_count(3, m) for m in (1, 2, 3)] == [1, 4, 1]
        assert [shallow_top_meander_count(4, m) for m in (1, 2, 3, 4)] == [1, 10, 9, 1]
        for n in range(1, 13):
            for m in range(1, n + 1):
                assert shallow_top_meander_count(n, m) >= 1
        with pytest.raises(ValueError):
            shallow_top_meander_count(3, 0)

    def test_shallow_top_meander_count_matches_bruteforce(self):
        for n in range(1, 8):
            poly = generating_coefficient(MeanderClass.SHALLOW_TOP, n).substitute(b=1)
            by_adeg = {}
            for (ey, ea, _), c in poly.terms():
                if ey == n - 1:
                    by_adeg[ea] = by_adeg.get(ea, 0) + c
            for m in range(1, n + 1):
                assert by_adeg.get(n - m, 0) == shallow_top_meander_count(n, m)


class TestOrbitReduction:
    """The class and cumulant scans take one A row per symmetry orbit;
    every count must equal the plain pair-by-pair table."""

    @staticmethod
    def plain_histogram(klass, n, kr=False):
        a, b = (_side(kind, n) for kind in (_KR_SIDES if kr else _CLASS_SIDES)[klass])
        if kr:
            # Kr-side exponents, over the pairs with trivial Kr-interval meet
            return plain_histogram(a.imgs, a.blocks - 1, b.imgs, b.blocks - 1,
                                   (a.masks[:, None] & b.masks[None, :]) == 0)
        return plain_histogram(a.imgs, n - a.blocks, b.imgs, n - b.blocks)

    @pytest.mark.parametrize("klass, n_max, kr", [
        pytest.param(MeanderClass.FULL, 8, False, id="full-8"),
        pytest.param(MeanderClass.SHALLOW_TOP, 9, False, id="shallow-top-9"),
        pytest.param(MeanderClass.THIN, 12, False, id="thin-12"),
        pytest.param(MeanderClass.SEMI, 16, False, id="semi-16"),
        pytest.param(MeanderClass.THIN, 10, True, id="kr-thin-10"),
        pytest.param(MeanderClass.SHALLOW_TOP, 8, True, id="kr-shallow-top-8")])
    def test_reduced_equals_plain(self, klass, n_max, kr):
        for n in range(1, n_max + 1):
            _pair_histogram.cache_clear()
            assert _pair_histogram(klass, n, kr) == self.plain_histogram(klass, n, kr), n
        _pair_histogram.cache_clear()

    @pytest.mark.parametrize("klass, n_max", [(MeanderClass.FULL, 8),
                                              (MeanderClass.THIN, 12)],
                             ids=lambda v: getattr(v, "value", v))
    def test_plain_histogram_is_swap_symmetric(self, klass, n_max):
        # a system and its mirror image have the same loops, since
        # beta~ alpha is the inverse of alpha~ beta: H[k,a,b] == H[k,b,a]
        for n in range(1, n_max + 1):
            side = _side(_CLASS_SIDES[klass][0], n)
            loops = pairwise_cycle_counts(side.imgs, side.imgs)
            norm = n - side.blocks
            base = n + 1
            cells = (loops * base + norm[:, None]) * base + norm[None, :]
            hist = np.bincount(cells.ravel(), minlength=base ** 3).reshape(base, base, base)
            assert (hist == hist.swapaxes(1, 2)).all(), n
            assert hist.sum() == len(side.imgs) ** 2

    @pytest.mark.parametrize("klass, n, kr", [
        pytest.param(MeanderClass.THIN, 12, False, id="thin-12"),
        pytest.param(MeanderClass.FULL, 9, False, id="full-9"),
        pytest.param(MeanderClass.THIN, 12, True, id="kr-thin-12"),
        pytest.param(MeanderClass.FULL, 10, False, id="full-10")])
    def test_swap_halves_the_pairs_composed(self, monkeypatch, klass, n, kr):
        # each representative meets only the B orbits from its own on; a
        # chunk composes its whole rectangle, so its rows' own orbits must
        # start near its first column (full 10 takes 69 chunks)
        from meandrics import meanders as mod
        composed = []
        cycle_counts = mod._cycle_counts

        def counted(perms):
            composed.append(len(perms))
            return cycle_counts(perms)

        monkeypatch.setattr(mod, "_cycle_counts", counted)
        side = _side((_KR_SIDES if kr else _CLASS_SIDES)[klass][0], n)
        _, sizes, _ = _orbits(side.imgs, side.imgs, group=not kr)
        _pair_histogram.cache_clear()
        try:
            _pair_histogram(klass, n, kr)
        finally:
            _pair_histogram.cache_clear()
        assert sum(composed) <= 0.55 * len(sizes) * len(side.imgs)

    def test_full_orbit_counts(self):
        # <Kr, reflection> orbits of NC(n), a group of order 4n
        want = [1, 1, 2, 3, 6, 12, 27, 65, 175, 490]
        for n, count in enumerate(want, 1):
            imgs, _ = _geodesic_rows(enumerate_nc(n))
            order, sizes, odd = _orbits(imgs, imgs)
            assert len(sizes) == count
            assert sorted(order.tolist()) == list(range(catalan(n)))
            assert sizes.sum() == catalan(n)
            assert all((4 * n) % int(s) == 0 for s in sizes)
            assert ((0 <= odd) & (odd <= sizes)).all()

    def test_kreweras_parity_is_well_defined(self):
        # an odd orbit member meets NC(n) in its representative's
        # histogram with both exponents flipped, (k, a, b) -> (k, n-1-a,
        # n-1-b), so a representative fixed by an odd group element must
        # have a flip-invariant histogram; and a dropped flip must show
        # in test_reduced_equals_plain[full-8]
        def reflect(p):
            return NcPartition(p.n, [[p.n - 1 - i for i in blk] for blk in p.blocks])

        def fixed_by_odd(p):
            for q in (p, reflect(p)):
                for j in range(1, 2 * p.n):
                    q = q.kreweras()
                    if j % 2 and q == p:
                        return True
            return False

        fixed = flip_shows = 0
        for n in range(1, 10):
            side = _side("nc", n)
            parts = list(enumerate_nc(n))
            order, sizes, odd = _orbits(side.imgs, side.imgs)
            reps = order[np.cumsum(sizes) - sizes]
            norm = n - side.blocks
            for rep, odd_members, loops in zip(
                    reps, odd, pairwise_cycle_counts(side.imgs[reps], side.imgs)):
                a = int(norm[rep])
                hist = Counter(zip(loops.tolist(), norm.tolist()))
                flipped = Counter({(k, n - 1 - b): c for (k, b), c in hist.items()})
                invariant = a == n - 1 - a and hist == flipped
                if fixed_by_odd(parts[rep]):
                    assert invariant, (n, parts[rep])
                    fixed += 1
                flip_shows += n <= 8 and odd_members > 0 and not invariant
        assert fixed and flip_shows

    @pytest.mark.parametrize("klass", list(MeanderClass), ids=lambda k: k.value)
    def test_orbit_sizes_sum_to_side(self, klass):
        for n in range(1, 11):
            a, b = (_side(kind, n) for kind in _CLASS_SIDES[klass])
            order, sizes, odd = _orbits(a.imgs, b.imgs)
            assert sizes.sum() == len(a.imgs), n
            assert sorted(order.tolist()) == list(range(len(a.imgs))), n
            assert ((0 <= odd) & (odd <= sizes)).all(), n
            if klass is not MeanderClass.FULL:
                # reflection alone: Int(n) is not closed under Kr, except
                # Int(2) = NC(2), whose one orbit has one odd member
                assert set(sizes.tolist()) <= {1, 2}, n
                assert odd.sum() == (n == 2 and klass is not MeanderClass.SEMI), n

    def test_side_not_closed_under_reflection_gets_trivial_group(self):
        # single-row orbits are what keep the cumulant scans' mask filter
        # sound: a mask is not carried along an orbit
        a_imgs, _ = _geodesic_rows(enumerate_interval(4))
        lopsided = NcPartition.from_one_based(4, [[1, 2], [3], [4]])
        b_imgs, _ = _geodesic_rows([lopsided])
        pairs = [(a_imgs, b_imgs), (b_imgs, a_imgs)]
        pairs += [tuple(_side(kind, n).imgs for kind in sides)
                  for sides in _KR_SIDES.values() for n in range(1, 11) if n != 2]
        for top, bottom in pairs:
            order, sizes, odd = _orbits(top, bottom)
            assert sizes.tolist() == [1] * len(top)
            assert odd.tolist() == [0] * len(top)
            assert sorted(order.tolist()) == list(range(len(top)))
        # Kr Int(2) = NC(2) is closed under Kr and reflection, so the
        # cumulant scans ask for the trivial group
        nc2 = _side("kr-interval", 2).imgs
        assert _orbits(nc2, nc2)[1].tolist() == [2]
        order, sizes, odd = _orbits(nc2, nc2, group=False)
        assert sizes.tolist() == [1, 1] and odd.tolist() == [0, 0]
        assert sorted(order.tolist()) == [0, 1]

    def test_full_n9_meander_numbers(self):
        # one-loop coefficients: the meander numbers (OEIS A005315)
        meanders = [1, 2, 8, 42, 262, 1828, 13820, 110954, 933458, 8152860]
        for n, want in enumerate(meanders, 1):
            poly = meander_polynomial(MeanderClass.FULL, n)
            assert poly.coeffs[1] == want, n
            assert poly.total() == catalan(n) ** 2, n


class TestSideTable:
    """Each side kind is enumerated and encoded once per n, read-only, in
    the row order of ``side_partitions``."""

    @staticmethod
    def clear_caches():
        from meandrics import meanders as mod
        for cached in (mod._side, mod._pair_histogram):
            cached.cache_clear()

    @pytest.mark.parametrize("klass, n, enumerator", [
        (MeanderClass.FULL, 7, "enumerate_nc"),
        (MeanderClass.THIN, 8, "enumerate_interval")],
        ids=["full", "thin"])
    def test_scan_enumerates_its_side_once(self, monkeypatch, klass, n, enumerator):
        from meandrics import meanders as mod
        calls = Counter()
        for attr in ("enumerate_nc", "enumerate_interval", "enumerate_kr_interval"):
            def counted(m, attr=attr, fn=getattr(mod, attr)):
                calls[attr, m] += 1
                return fn(m)
            monkeypatch.setattr(mod, attr, counted)
        self.clear_caches()
        try:
            generating_coefficient(klass, n)
        finally:
            self.clear_caches()
        assert calls == {(enumerator, n): 1}

    @pytest.mark.parametrize("kind", ["nc", "interval", "kr-interval", "rainbow"])
    def test_rows_follow_side_partitions(self, kind):
        for n in range(1, 10):
            parts = list(side_partitions(kind, n))
            side = _side(kind, n)
            assert side.imgs.tolist() == [list(p.to_geodesic().images) for p in parts]
            assert side.blocks.tolist() == [p.block_count() for p in parts]
            assert side.masks.tolist() == [
                sum(1 << i for i in p.block_containing(n - 1) if i != n - 1)
                for p in parts]
            for arr in side:
                assert not arr.flags.writeable
            with pytest.raises(ValueError):
                side.imgs[0, 0] = 0

    def test_side_is_streamed_from_its_enumerator(self):
        # no list of NcPartition objects: NC(11)'s side peaked at 8.7x the
        # bytes of its three arrays when built through one, about 2x streamed
        tracemalloc.start()
        try:
            side = _side.__wrapped__("nc", 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * sum(arr.nbytes for arr in side)

    def test_comb_mask_is_q(self):
        for n in range(1, 9):
            assert _side("kr-interval", n).masks.tolist() == [
                sum(1 << i for i in q.q) for q in enumerate_kr_interval(n)]

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            side_partitions("crossing", 3)


class TestDeterminism:
    def test_thread_split_invariance(self, monkeypatch):
        # the reduced full n=9 scan and the plain full n=8 table (1430 x
        # 1430 x 8 cells, in chunks of whole rows of at most
        # _CHUNK_CELLS cells) both have more than one chunk, so two
        # threads really split them
        from meandrics import meanders as mod
        imgs, _ = _geodesic_rows(enumerate_nc(8))
        rows_per_chunk = mod._CHUNK_CELLS // (1430 * 8)
        scan = mod._scan_pairs
        chunks = []

        def counted_scan(*args):
            # the scan yields its chunks' results; count them as they pass
            chunks.append(0)
            for block in scan(*args):
                chunks[-1] += 1
                yield block

        monkeypatch.setattr(mod, "_scan_pairs", counted_scan)

        def run_both():
            mod._pair_histogram.cache_clear()
            chunks.clear()
            poly = generating_coefficient(MeanderClass.FULL, 9)
            assert max(chunks) > 1
            chunks.clear()
            table = pairwise_cycle_counts(imgs, imgs)
            assert chunks == [-(-1430 // rows_per_chunk)]
            return poly, table

        monkeypatch.setattr(mod, "_threads", lambda: 1)
        serial_poly, serial_table = run_both()
        monkeypatch.setattr(mod, "_threads", lambda: 2)
        threaded_poly, threaded_table = run_both()
        mod._pair_histogram.cache_clear()
        assert serial_poly == threaded_poly
        assert (serial_table == threaded_table).all()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_scan_folds_chunks_as_they_stream(self, monkeypatch, threads):
        # the reduced full n=9 scan in one-row chunks: 175 histograms, of
        # which the fold holds no more than the pool's window of
        # MEANDER_THREADS and the one it is adding.  Each result is
        # counted, with the others still alive, as its chunk finishes.
        from meandrics import meanders as mod
        monkeypatch.setattr(mod, "_threads", lambda: threads)
        monkeypatch.setattr(mod, "_CHUNK_CELLS", 1)
        ordered_map = mod._ordered_map
        results, alive = [], []

        def tracked_map(fn, items):
            def tracked(item):
                result = fn(item)
                results.append(weakref.ref(result))
                alive.append(sum(ref() is not None for ref in list(results)))
                return result
            return ordered_map(tracked, items)

        monkeypatch.setattr(mod, "_ordered_map", tracked_map)
        mod._pair_histogram.cache_clear()
        try:
            streamed = generating_coefficient(MeanderClass.FULL, 9)
        finally:
            mod._pair_histogram.cache_clear()
        assert len(results) == 175
        assert max(alive) <= threads + 1
        monkeypatch.undo()
        assert streamed == generating_coefficient(MeanderClass.FULL, 9)

    def test_pool_does_not_nest(self, monkeypatch):
        # a map started on a worker runs its items on that worker, in order
        from meandrics import meanders as mod
        monkeypatch.setattr(mod, "_threads", lambda: 2)

        def outer(item):
            inner = mod._ordered_map(lambda i: (i, threading.get_ident()), range(4))
            return item, threading.get_ident(), list(inner)

        results = list(mod._ordered_map(outer, range(5)))
        assert [item for item, _, _ in results] == list(range(5))
        for _, worker, inner in results:
            assert worker != threading.get_ident()
            assert inner == [(i, worker) for i in range(4)]

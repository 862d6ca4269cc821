import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meandrics.partitions import (
    CombSubset,
    GeodesicViolationError,
    NcPartition,
    Permutation,
    SizeMismatchError,
    _geodesic_images,
    catalan,
    enumerate_interval,
    enumerate_kr_interval,
    enumerate_nc,
    interval_join,
    kr_interval_meet,
    nc_join,
    nc_meet,
    refinement_leq,
)
from meandrics.meanders import rainbow
from meandrics.verify import rgs_batches, rgs_blocks


def catalan_reference(n):
    # independent recurrence C_n = sum C_i C_(n-1-i)
    cs = [1]
    for m in range(1, n + 1):
        cs.append(sum(cs[i] * cs[m - 1 - i] for i in range(m)))
    return cs[n]


def test_catalan_matches_recurrence():
    for n in range(13):
        assert catalan(n) == catalan_reference(n)
    assert catalan(10) == 16796


perm_strategy = st.integers(2, 8).flatmap(
    lambda n: st.permutations(list(range(n)))).map(Permutation)


class TestPermutation:
    def test_compose_involution(self):
        t = Permutation.from_cycles(2, [(1, 2)])
        assert t.compose(t) == Permutation.identity(2)

    def test_compose_worked_example(self):
        alpha = Permutation.from_cycles(5, [(1, 2), (3, 4, 5)])
        beta = Permutation.from_cycles(5, [(1, 2, 4)])
        prod = alpha.inverse().compose(beta)
        assert prod == Permutation.from_cycles(5, [(2, 3, 5, 4)])
        assert prod.cycle_count() == 2

    @given(perm_strategy)
    def test_identity_law(self, p):
        assert Permutation.identity(p.n).compose(p) == p
        assert p.compose(Permutation.identity(p.n)) == p
        assert p.compose(p.inverse()) == Permutation.identity(p.n)

    def test_cycle_count_and_length(self):
        assert Permutation.identity(6).cycle_count() == 6
        assert Permutation.identity(6).length() == 0
        assert Permutation.full_cycle(6).cycle_count() == 1
        assert Permutation.full_cycle(6).length() == 5
        prod = Permutation.from_cycles(5, [(2, 3, 5, 4)])
        assert prod.cycle_count() == 2

    def test_cycles_of_every_permutation(self):
        for n in range(1, 7):
            for images in itertools.permutations(range(n)):
                p = Permutation(images)
                cycles = p.cycles()
                assert sorted(x for c in cycles for x in c) == list(range(n))
                for c in cycles:
                    assert c[0] == min(c)
                    assert all(images[a] == b for a, b in zip(c, c[1:] + c[:1]))
                assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
                assert p.cycle_count() == len(cycles)

    def test_length_is_minimal_transposition_count(self):
        # BFS over the Cayley graph generated by transpositions
        for n in range(2, 6):
            transpositions = []
            for i in range(n):
                for j in range(i + 1, n):
                    img = list(range(n))
                    img[i], img[j] = img[j], img[i]
                    transpositions.append(tuple(img))
            dist = {tuple(range(n)): 0}
            frontier = [tuple(range(n))]
            while frontier:
                nxt = []
                for word in frontier:
                    for t in transpositions:
                        new = tuple(word[t[i]] for i in range(n))
                        if new not in dist:
                            dist[new] = dist[word] + 1
                            nxt.append(new)
                frontier = nxt
            for word, d in dist.items():
                assert Permutation(word).length() == d

    @given(perm_strategy, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_length_class_function(self, p, rnd):
        q = Permutation(rnd.sample(range(p.n), p.n))
        assert p.length() == p.inverse().length()
        assert p.compose(q).length() == q.compose(p).length()
        assert p.length() + p.cycle_count() == p.n

    def test_errors(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])
        with pytest.raises(SizeMismatchError):
            Permutation.identity(3).compose(Permutation.identity(4))

    def test_serialization(self):
        p = Permutation.from_cycles(5, [(1, 4, 5), (2, 3)])
        assert list(p.one_based()) == [4, 3, 2, 5, 1]
        assert Permutation.from_one_based([4, 3, 2, 5, 1]) == p


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_counts(self, n):
        assert sum(1 for _ in enumerate_nc(n)) == catalan(n)
        assert sum(1 for _ in enumerate_interval(n)) == 2 ** (n - 1)
        assert sum(1 for _ in enumerate_kr_interval(n)) == 2 ** (n - 1)

    @staticmethod
    def dyck_word(p):
        # point k of the fattened pairing reads 1 when it opens its pair
        opens = {b[0] for b in p.fatten().blocks}
        return tuple(int(k in opens) for k in range(2 * p.n))

    def test_nc_order_is_decreasing_dyck_words(self):
        # with the Catalan count, this fixes the whole sequence
        for n in range(1, 10):
            words = [self.dyck_word(p) for p in enumerate_nc(n)]
            assert all(a > b for a, b in zip(words, words[1:]))

    def test_nc_order_runs_from_rainbow_to_singletons(self):
        for n in range(1, 12):
            parts = list(enumerate_nc(n))
            assert parts[0] == rainbow(n)
            assert parts[-1] == NcPartition.singletons(n)

    def test_nc_walk_does_not_recurse(self):
        # a recursive walk raises RecursionError long before n = 600
        assert next(enumerate_nc(600)) == rainbow(600)

    def test_no_duplicates_and_valid(self):
        for n in range(1, 9):
            parts = list(enumerate_nc(n))
            assert len(set(parts)) == catalan(n)
            for p in parts:
                # re-validate through the checking constructor
                assert NcPartition(p.n, [list(b) for b in p.blocks]) == p
            ivs = list(enumerate_interval(n))
            assert len(set(ivs)) == 2 ** (n - 1)
            assert all(all(b == tuple(range(b[0], b[-1] + 1)) for b in p.blocks)
                       for p in ivs)
            combs = [q.to_partition() for q in enumerate_kr_interval(n)]
            assert len(set(combs)) == 2 ** (n - 1)
            for p in ivs + combs:
                assert NcPartition(p.n, [list(b) for b in p.blocks]) == p

    def test_constructor_accepts_exactly_nc(self):
        # every set partition of [n]: accepted iff non-crossing, else ValueError
        for n in range(1, 9):
            ncs = set(enumerate_nc(n))
            accepted = 0
            for labels in itertools.chain.from_iterable(rgs_batches(n, 1024)):
                blocks = rgs_blocks(labels)
                zero_based = [[x - 1 for x in b] for b in blocks]
                crossing = any(a < c < b < d
                               for x, y in itertools.permutations(zero_based, 2)
                               for a, b in itertools.combinations(x, 2)
                               for c, d in itertools.combinations(y, 2))
                try:
                    p = NcPartition(n, zero_based)
                except ValueError as exc:
                    assert crossing and "blocks cross" in str(exc)
                    continue
                assert not crossing and p in ncs
                accepted += 1
            assert accepted == len(ncs) == catalan(n)

    def test_n1(self):
        assert [p.to_one_based() for p in enumerate_nc(1)] == [[[1]]]
        assert [p.to_one_based() for p in enumerate_interval(1)] == [[[1]]]

    def test_zero_rejected(self):
        for enum in (enumerate_nc, enumerate_interval, enumerate_kr_interval):
            with pytest.raises(ValueError):
                next(enum(0))

    def test_interval_subset_of_nc(self):
        for n in range(1, 8):
            assert set(enumerate_interval(n)) <= set(enumerate_nc(n))


class TestGeodesic:
    def test_block_cycle_example(self):
        p = NcPartition.from_one_based(5, [[1, 4, 5], [2, 3]])
        assert p.to_geodesic() == Permutation.from_cycles(5, [(1, 4, 5), (2, 3)])

    def test_round_trips(self):
        for n in range(1, 8):
            for p in enumerate_nc(n):
                assert NcPartition.from_geodesic(p.to_geodesic()) == p

    def test_singletons_to_identity(self):
        assert NcPartition.singletons(4).to_geodesic() == Permutation.identity(4)

    def test_geodesic_accepts_exactly_catalan(self):
        for n in range(1, 8):
            accepted = 0
            for images in itertools.permutations(range(n)):
                try:
                    NcPartition.from_geodesic(Permutation(images))
                    accepted += 1
                except GeodesicViolationError:
                    pass
            assert accepted == catalan(n)

    def test_violation(self):
        with pytest.raises(GeodesicViolationError):
            NcPartition.from_geodesic(Permutation.from_cycles(3, [(1, 3, 2)]))

    def test_accepted_transposition_round_trip(self):
        p = Permutation.from_cycles(3, [(1, 3)])
        assert NcPartition.from_geodesic(p).to_geodesic() == p


class TestKreweras:
    def test_figure_example(self):
        a = NcPartition.from_one_based(6, [[1], [2, 6], [3, 4], [5]])
        assert a.kreweras().to_one_based() == [[1, 6], [2, 4, 5], [3]]

    def test_extremes(self):
        for n in range(1, 9):
            assert NcPartition.full(n).kreweras() == NcPartition.singletons(n)
            assert NcPartition.singletons(n).kreweras() == NcPartition.full(n)

    def test_norm_identity(self):
        for n in range(1, 9):
            for a in enumerate_nc(n):
                assert a.norm() + a.kreweras().norm() == n - 1

    def test_double_complement_is_rotation(self):
        for n in range(1, 9):
            gamma = Permutation.full_cycle(n)
            for a in enumerate_nc(n):
                p = a.to_geodesic()
                rotated = gamma.inverse().compose(p).compose(gamma)
                assert a.kreweras().kreweras() == NcPartition.from_geodesic(rotated)

    def test_order_reversing_sampled(self):
        rnd = random.Random(5)
        for n in (4, 5, 6):
            ncs = list(enumerate_nc(n))
            for _ in range(200):
                a, b = rnd.choice(ncs), rnd.choice(ncs)
                if a.leq(b):
                    assert b.kreweras().leq(a.kreweras())


class TestFatten:
    def test_single_point(self):
        assert NcPartition.full(1).fatten().to_one_based() == [[1, 2]]

    def test_figure_example(self):
        # alpha = (1,2)(3,4,5): right copy of i pairs with left copy of p(i)
        f = NcPartition.from_one_based(5, [[1, 2], [3, 4, 5]]).fatten()
        assert f.to_one_based() == [[1, 4], [2, 3], [5, 10], [6, 7], [8, 9]]

    def _pairings_reference(self, n2):
        # independent enumeration of non-crossing perfect matchings
        if n2 == 0:
            return [frozenset()]
        out = []
        for k in range(1, n2, 2):
            for left in self._pairings_reference(k - 1):
                for right in self._pairings_reference(n2 - k - 1):
                    shifted_left = frozenset(tuple(x + 1 for x in pr) for pr in left)
                    shifted_right = frozenset(tuple(x + k + 1 for x in pr) for pr in right)
                    out.append(shifted_left | shifted_right | {(0, k)})
        return out

    def test_bijection_onto_pairings(self):
        for n in range(1, 7):
            image = {frozenset(tuple(b) for b in p.fatten().blocks)
                     for p in enumerate_nc(n)}
            reference = set(self._pairings_reference(2 * n))
            assert image == reference
            assert len(image) == catalan(n)


class TestLattice:
    def test_unit_laws(self):
        for n in range(1, 7):
            one, zero = NcPartition.full(n), NcPartition.singletons(n)
            for x in enumerate_nc(n):
                assert nc_meet(x, one) == x
                assert nc_join(x, zero) == x

    def test_meet_join_against_bruteforce(self):
        for n in range(1, 7):
            ncs = list(enumerate_nc(n))
            index = {z: k for k, z in enumerate(ncs)}
            # leq[a, b]: ncs[a].leq(ncs[b]), built once per n
            leq = np.array([[a.leq(b) for b in ncs] for a in ncs])
            for (xi, x), (yi, y) in itertools.product(enumerate(ncs), repeat=2):
                m, j = nc_meet(x, y), nc_join(x, y)
                ups = leq[xi] & leq[yi]
                downs = leq[:, xi] & leq[:, yi]
                assert j in index and ups[index[j]] and leq[index[j], ups].all()
                assert m in index and downs[index[m]] and leq[downs, index[m]].all()

    @staticmethod
    def assert_checked(r):
        # the images are the geodesic of the blocks read from them, and
        # the checking constructor accepts those blocks as they are
        checked = NcPartition(r.n, r.blocks)
        assert r.images == tuple(_geodesic_images(r.blocks, r.n))
        assert r == checked and r.blocks == checked.blocks

    def test_results_equal_the_checking_constructor(self):
        # kreweras, nc_meet and nc_join build their results unchecked;
        # each must equal the partition the checking constructor makes
        # from the same permutation or blockwise intersections.  So must
        # every other path that builds its result with _trusted.
        for n in range(1, 7):
            gamma = Permutation.full_cycle(n)
            ncs = list(enumerate_nc(n))
            for x in ncs:
                comp = x.to_geodesic().inverse().compose(gamma)
                assert x.kreweras() == NcPartition(n, comp.cycles())
            for x, y in itertools.product(ncs, ncs):
                meet = NcPartition(n, [set(u) & set(v) for u in x.blocks
                                       for v in y.blocks if set(u) & set(v)])
                assert nc_meet(x, y) == meet
                q = nc_meet(x.kreweras(), y.kreweras()).to_geodesic()
                assert nc_join(x, y) == NcPartition(n, gamma.compose(q.inverse()).cycles())
                for r in (nc_meet(x, y), nc_join(x, y), interval_join(x, y)):
                    self.assert_checked(r)
            combs = [q.to_partition() for q in enumerate_kr_interval(n)]
            for r in ncs + list(enumerate_interval(n)) + combs:
                self.assert_checked(r)
                self.assert_checked(r.kreweras())
                self.assert_checked(NcPartition.from_geodesic(r.to_geodesic()))

    def test_kreweras_duality(self):
        for n in range(1, 7):
            ncs = list(enumerate_nc(n))
            for x, y in itertools.product(ncs, ncs):
                assert nc_meet(x, y).kreweras() == nc_join(x.kreweras(), y.kreweras())
                assert nc_join(x, y).kreweras() == nc_meet(x.kreweras(), y.kreweras())

    def test_refinement_matches_geodesic_lengths(self):
        # exhaustive up to n = 7, with the cycle counting vectorized
        import numpy as np
        from meandrics.meanders import pairwise_cycle_counts
        for n in range(1, 8):
            ncs = list(enumerate_nc(n))
            imgs = np.array([p.to_geodesic().images for p in ncs], dtype=np.int16)
            norms = np.array([p.norm() for p in ncs])
            lengths = n - pairwise_cycle_counts(imgs, imgs)   # ||x~ y||
            for i, x in enumerate(ncs):
                for j, y in enumerate(ncs):
                    geodesic = norms[i] + lengths[i, j] == norms[j]
                    assert refinement_leq(x, y) == bool(geodesic)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            nc_meet(NcPartition.full(3), NcPartition.full(4))


class TestIntervalOps:
    def test_idempotent(self):
        for n in range(1, 8):
            for x in enumerate_interval(n):
                assert interval_join(x, x) == x

    def test_join_is_minimal_interval_coarsening(self):
        for n in range(2, 7):
            ivs = list(enumerate_interval(n))
            ncs = list(enumerate_nc(n))
            for x in ncs:
                for y in ncs:
                    j = interval_join(x, y)
                    assert all(b == tuple(range(b[0], b[-1] + 1)) for b in j.blocks)
                    assert x.leq(j) and y.leq(j)
                    assert all(j.leq(z) for z in ivs if x.leq(z) and y.leq(z))

    def test_empty_comb_meet(self):
        for n in range(1, 8):
            q = CombSubset(n, [])
            for b in list(enumerate_nc(n))[:25]:
                assert kr_interval_meet(q, b) == NcPartition.singletons(n)

    def test_comb_meet_equals_nc_meet_on_combs(self):
        for n in range(1, 7):
            combs = list(enumerate_kr_interval(n))
            for q in combs:
                for r in combs:
                    assert kr_interval_meet(q, r.to_partition()) == \
                        nc_meet(q.to_partition(), r.to_partition())


class TestCombSubset:
    def test_combs_are_kreweras_of_intervals(self):
        for n in range(1, 9):
            combs = {q.to_partition() for q in enumerate_kr_interval(n)}
            assert combs == {p.kreweras() for p in enumerate_interval(n)}

    def test_from_partition_round_trip(self):
        for n in range(1, 8):
            for q in enumerate_kr_interval(n):
                assert CombSubset.from_partition(q.to_partition()) == q

    def test_from_partition_rejects_non_comb(self):
        with pytest.raises(ValueError):
            CombSubset.from_partition(NcPartition.from_one_based(4, [[1, 2], [3], [4]]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            CombSubset(3, [2])   # position n-1 is the comb anchor, not in Q


class TestSerialization:
    def test_partition_json(self):
        p = NcPartition.from_one_based(5, [[1, 4, 5], [2, 3]])
        assert p.to_one_based() == [[1, 4, 5], [2, 3]]
        assert json.dumps(p.to_one_based()) == "[[1, 4, 5], [2, 3]]"

import numpy as np
import pytest

from meandrics import cli, meanders, partitions, verify
from meandrics.partitions import CombSubset, NcPartition

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def rgs_rows(m, rows):
    return [row for batch in verify.rgs_batches(m, rows) for row in batch]


class TestRestrictedGrowthStrings:
    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("rows", [1, 7, 1024])
    def test_batches_match_set_partitions_in_order(self, m, rows):
        got = [verify.rgs_blocks(row) for row in rgs_rows(m, rows)]
        assert got == list(verify.set_partitions(m))
        assert len(got) == BELL[m]

    def test_batches_are_bounded(self):
        batches = list(verify.rgs_batches(9, 100))
        assert all(b.shape[0] <= 100 and b.shape[1] == 9 for b in batches)
        assert all(b.dtype == np.int8 for b in batches)
        assert sum(len(b) for b in batches) == BELL[9]


class TestBinomialSides:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_sides_match_scalar_lemma(self, m):
        vals = np.array([1, 2, 3], dtype=np.int64)
        for labels in verify.rgs_batches(m, 64):
            lhs, rhs = verify.binomial_sides(labels, vals)
            for p, row in enumerate(labels):
                blocks = verify.rgs_blocks(row)
                for ai, a in enumerate(vals):
                    for bi, b in enumerate(vals):
                        want = meanders.binomial_lemma_check(blocks, int(a), int(b))
                        assert (lhs[p, ai, bi], rhs[p, ai, bi]) == want

    def test_int64_overflow_is_refused(self):
        with pytest.raises(meanders.ResourceLimitError):
            verify.check_subset_binomial(18)

    # the int64 guard comes first in the lemmas plan, so m=18 keeps its line
    @pytest.mark.parametrize("suite, budget, error", [
        ("lemmas", 18, "subset-binomial sums at m=18, |A|,|B|<=3 overflow int64"),
        ("all", 18, "subset-binomial sums at m=18, |A|,|B|<=3 overflow int64"),
        ("lemmas", 10, "NC(n) x NC(n) cycle-count table at n=10 exceeds budget 9"),
        ("all", 10, "NC(n) x NC(n) cycle-count table at n=10 exceeds budget 9"),
        ("thin", 17, "thin enumeration at n=17 exceeds budget 16"),
        ("shallow-top", 11, "shallow-top enumeration at n=11 exceeds budget 10"),
        ("semi", 17, "semi enumeration at n=17 exceeds budget 16"),
        ("transforms", 15, "nc enumeration at n=15 exceeds budget 14"),
    ], ids=["lemmas", "all", "lemmas-10", "all-10", "thin-17", "shallow-top-11", "semi-17",
            "transforms-15"])
    def test_int64_overflow_is_refused_before_any_check(self, suite, budget, error,
                                                        monkeypatch, capsys):
        def must_not_run(**kwargs):
            raise AssertionError("a check ran before the budgets were checked")

        for nm, checks in verify.SUITES.items():
            monkeypatch.setitem(verify.SUITES, nm, [(must_not_run, kw) for _, kw in checks])
        assert cli.main(["verify", suite, "--budget-override", str(budget)]) == cli.EXIT_RESOURCE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"error: {error}"

    def test_planted_fault_reports_first_counterexample(self, monkeypatch):
        real = verify.binomial_sides

        def faulty(labels, vals):
            lhs, rhs = real(labels, vals)
            for p, row in enumerate(labels):
                if verify.rgs_blocks(row) == [[1, 3], [2]]:
                    rhs[p, 1, 2] += 1
            return lhs, rhs

        monkeypatch.setattr(verify, "binomial_sides", faulty)
        lhs, rhs = meanders.binomial_lemma_check([[1, 3], [2]], 2, 3)
        assert verify.check_subset_binomial(4) == (
            "subset-binomial-identity", False,
            f"m=3, blocks=[[1, 3], [2]], A=2, B=3: {lhs} != {rhs + 1}")


class TestSuitePlan:
    @pytest.mark.parametrize("suite, budget", [
        ("lemmas", meanders.NC_PAIR_TABLE_BUDGET),
        ("thin", 16), ("shallow-top", 10), ("semi", 16), ("transforms", 14)])
    def test_the_plan_passes_at_each_cap(self, suite, budget, monkeypatch, capsys):
        calls = []

        def stub(**kwargs):
            calls.append(kwargs)
            return "stub", True, "not run"

        for nm, checks in verify.SUITES.items():
            monkeypatch.setitem(verify.SUITES, nm, [(stub, kw) for _, kw in checks])
        assert cli.main(["verify", suite, "--budget-override", str(budget)]) == cli.EXIT_OK
        assert calls == [{kw: budget} for _, kw in verify.SUITES[suite]]
        assert capsys.readouterr().out.endswith(f"{len(calls)}/{len(calls)} checks passed\n")

    def test_all_is_todays_five_suites_each_with_a_plan(self):
        assert verify.ALL == ("lemmas", "thin", "shallow-top", "semi", "transforms")
        assert verify.SUITE_CAPS.keys() == verify.SUITES.keys()


class TestKrIntervalMeet:
    def test_calls_kr_interval_meet_on_every_pair(self, monkeypatch):
        calls = []
        real = partitions.kr_interval_meet

        def counting(q, b):
            calls.append((q, b))
            return real(q, b)

        monkeypatch.setattr(partitions, "kr_interval_meet", counting)
        name, ok, detail = verify.check_kr_interval_meet(4)
        pairs = sum(2 ** (n - 1) * partitions.catalan(n) for n in range(1, 5))
        combs_squared = sum(4 ** (n - 1) for n in range(1, 5))
        assert ok and detail == f"{pairs} pairs, n<=4"
        assert len(calls) == pairs + combs_squared

    def test_planted_fault_reports_pair(self, monkeypatch):
        bad_q = CombSubset(3, [0, 1])
        bad_b = NcPartition(3, [[0, 2], [1]])
        real = partitions.kr_interval_meet

        def faulty(q, b):
            if q == bad_q and b == bad_b:
                return NcPartition.singletons(3)
            return real(q, b)

        monkeypatch.setattr(partitions, "kr_interval_meet", faulty)
        want = real(bad_q, bad_b)
        assert want != NcPartition.singletons(3)
        assert verify.check_kr_interval_meet(5) == (
            "kr-interval-meet-formula", False,
            f"n=3, Q={bad_q!r}, beta={bad_b!r}: "
            f"{NcPartition.singletons(3)!r} != {want!r}")


class TestCombLoopFormula:
    def test_scalar_entry_point_is_the_array_form(self):
        for n in range(1, 8):
            combs = list(partitions.enumerate_kr_interval(n))
            ncs = list(partitions.enumerate_nc(n))
            masks = meanders._side("kr-interval", n).masks
            table = meanders.comb_loop_counts(masks, ncs)
            assert table.shape == (len(combs), len(ncs))
            for q, row in zip(combs, table):
                for b, formula in zip(ncs, row):
                    if q.q.intersection(b.block_containing(n - 1)):
                        with pytest.raises(meanders.MeetNotTrivialError):
                            meanders.loop_count_comb(q, b)
                    else:
                        assert meanders.loop_count_comb(q, b) == formula

    def test_scalar_entry_point_checks_ground_sets(self):
        with pytest.raises(partitions.SizeMismatchError):
            meanders.loop_count_comb(CombSubset(3, []), NcPartition.singletons(4))

    def test_planted_fault_reports_first_counterexample(self, monkeypatch):
        n = 4
        combs = list(partitions.enumerate_kr_interval(n))
        ncs = list(partitions.enumerate_nc(n))
        comb_side, nc_side = meanders._side("kr-interval", n), meanders._side("nc", n)
        admissible = np.argwhere((comb_side.masks[:, None] & nc_side.masks) == 0).tolist()
        # two admissible cells, the first in Q-major order holding the later beta
        first = max((cell for cell in admissible if cell[0] == 1), key=lambda c: c[1])
        later = next(cell for cell in admissible if cell[0] > 1 and cell[1] < first[1])
        real = meanders.pairwise_cycle_counts

        def faulty(a_imgs, b_imgs):
            table = real(a_imgs, b_imgs)
            if table.shape == (len(combs), len(ncs)) and a_imgs.shape[1] == n:
                for qi, bi in (later, first):
                    table[qi, bi] += 1
            return table

        monkeypatch.setattr(meanders, "pairwise_cycle_counts", faulty)
        q, b = combs[first[0]], ncs[first[1]]
        loops = meanders.loop_count(q.to_partition(), b)
        assert verify.check_comb_loop_formula(5) == (
            "comb-loop-count-formula", False,
            f"n=4, Q={q!r}, beta={b!r}: {loops} != {loops + 1}")


class TestMeetJoinDuality:
    def test_planted_fault_reports_first_counterexample(self, monkeypatch):
        n, planted = 5, (0b0110, 0b1001)
        real = partitions.interval_join

        def cuts(x, y):
            return partitions._separators(x) & partitions._separators(y)

        def faulty(x, y):
            if x.n == n and cuts(x, y) in planted:
                return NcPartition.full(n)
            return real(x, y)

        monkeypatch.setattr(partitions, "interval_join", faulty)
        ncs = list(partitions.enumerate_nc(n))
        x, y = next((x, y) for x in ncs for y in ncs if cuts(x, y) in planted)
        assert verify.check_meet_join_duality(6) == (
            "interval-join-kreweras-duality", False,
            f"n=5, x={x!r}, y={y!r}: duality fails")


class TestKrewerasLoopInvariance:
    def test_planted_fault_reports_first_counterexample(self, monkeypatch):
        n = 4
        ncs = list(partitions.enumerate_nc(n))
        # a wrong Kr image for one alpha, itself a row of NC(4); the first
        # failing pair in row order lies in an earlier row, in its column
        bad, wrong = ncs[2], ncs[6].kreweras()
        real = NcPartition.kreweras

        def kr(p):
            return wrong if p == bad else real(p)

        monkeypatch.setattr(NcPartition, "kreweras", kr)
        a, b = next((a, b) for a in ncs for b in ncs
                    if meanders.loop_count(a, b) != meanders.loop_count(kr(a), kr(b)))
        assert (ncs.index(a), ncs.index(b)) == (1, 2)
        assert verify.check_kreweras_loop_invariance(5) == (
            "kreweras-loop-invariance", False,
            f"n=4, alpha={a!r}, beta={b!r}: "
            f"{meanders.loop_count(a, b)} != {meanders.loop_count(kr(a), kr(b))}")

    def test_image_outside_nc_fails_without_raising(self, monkeypatch):
        n = 4
        bad = list(partitions.enumerate_nc(n))[5]
        crossing = NcPartition._trusted((2, 3, 0, 1))     # {1,3}{2,4}
        real = NcPartition.kreweras
        monkeypatch.setattr(NcPartition, "kreweras",
                            lambda p: crossing if p == bad else real(p))
        assert verify.check_kreweras_loop_invariance(5) == (
            "kreweras-loop-invariance", False,
            f"n=4, alpha={bad!r}: Kr alpha is not in NC(n)")


class TestProfileSums:
    @staticmethod
    def plant(monkeypatch, planted):
        """One more partition of the first block-size profile of each
        planted (kind, n)."""
        real = verify._size_profiles

        def faulty(kind, n):
            profiles = dict(real(kind, n))
            if (kind, n) in planted:
                profiles[next(iter(profiles))] += 1
            return profiles

        monkeypatch.setattr(verify, "_size_profiles", faulty)

    def test_moment_cumulant_reports_first_counterexample(self, monkeypatch):
        # n before kind: NC(4) is reached before Int(5)
        self.plant(monkeypatch, {("interval", 5), ("nc", 4)})
        assert verify.check_moment_cumulant_oracle() == (
            "moment-cumulant-definition", False, "trial 0, n=4: partition sum differs")

    def test_last_block_reports_first_counterexample(self, monkeypatch):
        self.plant(monkeypatch, {("nc-last", 6), ("nc-last", 3)})
        assert verify.check_last_block_sum() == (
            "last-block-composition", False, "n=3: composition differs from block sum")


# the reports of the array-form checks at each small budget
_SMALL_BUDGET_REPORTS = {
    1: [(verify.check_meet_join_duality, "1 pairs, n<=1"),
        (verify.check_comb_loop_formula, "1 admissible pairs, n<=1"),
        (verify.check_moment_cumulant_oracle, "4 random cumulant series, order 1")],
    2: [(verify.check_meet_join_duality, "5 pairs, n<=2"),
        (verify.check_comb_loop_formula, "4 admissible pairs, n<=2"),
        (verify.check_moment_cumulant_oracle, "4 random cumulant series, order 2")],
}


@pytest.mark.parametrize("budget, binomial, meet", [
    (1, "9 (partition, A, B) triples, m<=1", "1 pairs, n<=1"),
    (2, "27 (partition, A, B) triples, m<=2", "5 pairs, n<=2"),
])
def test_small_budgets_match_recorded_reports(budget, binomial, meet):
    assert verify.check_subset_binomial(budget) == (
        "subset-binomial-identity", True, binomial)
    assert verify.check_kr_interval_meet(budget) == (
        "kr-interval-meet-formula", True, meet)
    for check, detail in _SMALL_BUDGET_REPORTS[budget]:
        assert check(budget)[1:] == (True, detail)

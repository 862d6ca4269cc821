import numpy as np
import pytest

from meandrics import meanders, partitions, verify
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


@pytest.mark.parametrize("budget, binomial, meet", [
    (1, "9 (partition, A, B) triples, m<=1", "1 pairs, n<=1"),
    (2, "27 (partition, A, B) triples, m<=2", "5 pairs, n<=2"),
])
def test_small_budgets_match_recorded_reports(budget, binomial, meet):
    assert verify.check_subset_binomial(budget) == (
        "subset-binomial-identity", True, binomial)
    assert verify.check_kr_interval_meet(budget) == (
        "kr-interval-meet-formula", True, meet)

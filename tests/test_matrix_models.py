import gc
import itertools
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from meandrics import matrix_models, meanders
from meandrics.matrix_models import (
    Model,
    ModelSpec,
    complex_gaussians,
    estimate,
    estimate_sweep,
    omega,
    partial_trace,
    partial_transpose,
    phi_ginibre,
    psi,
    sample_ginibre,
    sample_gue,
    sample_stream,
    thin_exact,
    thin_exact_budget,
    z_nc_nc,
    z_shallow_top,
    z_thin,
)
from meandrics.matrix_models import (
    _STATS,
    _chain_trace_sum,
    _on_omega,
    _stats_gue,
    _stats_nc_nc,
    _stats_shallow_top,
    _stats_wishart,
    check_trace_budget,
    trace_budget,
)
from meandrics.meanders import MeanderClass, ResourceLimitError, meander_polynomial

SEED = 20240809


def choi_matrix(op, dim):
    """Choi matrix sum_ij E_ij (x) op(E_ij)."""
    return _on_omega(lambda e: e, op, dim)


def hermitian_defect(m):
    return float(np.abs(m - m.conj().T).max())


def min_eigenvalue(m):
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())


class TestSampling:
    def test_second_moment(self):
        gen = sample_stream(SEED, 0)
        draws = complex_gaussians(gen, (1000, 1000))
        assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.01

    def test_gue_hermitian(self):
        b = sample_gue(7, sample_stream(SEED, 1))
        assert hermitian_defect(b) == 0.0

    def test_fixed_seed_bit_identical(self):
        a = sample_ginibre(4, 6, sample_stream(SEED, 3))
        b = sample_ginibre(4, 6, sample_stream(SEED, 3))
        assert (a == b).all()

    def test_streams_differ_by_index_and_retry(self):
        a = sample_ginibre(3, 3, sample_stream(SEED, 0))
        b = sample_ginibre(3, 3, sample_stream(SEED, 1))
        c = sample_ginibre(3, 3, sample_stream(SEED, 0, retry=1))
        assert not (a == b).all()
        assert not (a == c).all()

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            sample_ginibre(0, 3, sample_stream(SEED, 0))


class TestLinearAlgebra:
    def test_omega_basics(self):
        assert np.allclose(omega(1), [[1.0]])
        for l in (2, 3):
            om = omega(l)
            assert abs(np.trace(om) - l) < 1e-12
            assert np.linalg.matrix_rank(om) == 1
            assert np.allclose(partial_trace(om, 0, (l, l)), np.eye(l))
            assert np.allclose(partial_trace(om, 1, (l, l)), np.eye(l))

    def test_partial_transpose_of_omega_is_swap(self):
        for d in (2, 3):
            sw = partial_transpose(omega(d), (d, d))
            vecs = np.eye(d)
            for i in range(d):
                for j in range(d):
                    v = np.kron(vecs[i], vecs[j])
                    assert np.allclose(sw @ v, np.kron(vecs[j], vecs[i]))
            assert abs(np.trace(sw) - d) < 1e-12

    def test_partial_transpose_involution_and_trace(self):
        gen = sample_stream(SEED, 5)
        m = complex_gaussians(gen, (12, 12))
        pt = partial_transpose(m, (3, 4))
        assert np.allclose(partial_transpose(pt, (3, 4)), m)
        assert abs(np.trace(pt) - np.trace(m)) < 1e-12

    def test_partial_trace_of_kron(self):
        gen = sample_stream(SEED, 6)
        a = complex_gaussians(gen, (3, 3))
        b = complex_gaussians(gen, (4, 4))
        big = np.kron(a, b)
        assert np.allclose(partial_trace(big, 1, (3, 4)), a * np.trace(b))
        assert np.allclose(partial_trace(big, 0, (3, 4)), b * np.trace(a))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), 0, (2, 2))
        with pytest.raises(ValueError):
            partial_transpose(np.eye(5), (2, 2))


class TestChannels:
    def test_phi_zero(self):
        g = sample_ginibre(2, 9, sample_stream(SEED, 7))
        assert np.allclose(phi_ginibre(g, np.zeros((2, 2))), np.zeros((3, 3)))

    def test_phi_trace_identity(self):
        gen = sample_stream(SEED, 8)
        g = sample_ginibre(3, 16, gen)
        x = complex_gaussians(gen, (3, 3))
        lhs = np.trace(phi_ginibre(g, x))
        rhs = np.trace(g @ g.conj().T @ x)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_phi_first_moment(self):
        # Wick oracle: E[Phi_G(I_l)] = [Tr (x) id](E[G* G]) = l d I_d
        l, d, trials = 2, 5, 3000
        acc = np.zeros((d, d), dtype=complex)
        for i in range(trials):
            g = sample_ginibre(l, d * d, sample_stream(SEED, i))
            acc += phi_ginibre(g, np.eye(l))
        acc /= trials
        assert np.abs(acc - l * d * np.eye(d)).max() < 1.0

    def test_phi_completely_positive(self):
        gen = sample_stream(SEED, 9)
        g = sample_ginibre(3, 16, gen)
        v = complex_gaussians(gen, (3, 1))
        x = v @ v.conj().T
        out = phi_ginibre(g, x)
        assert hermitian_defect(out) < 1e-10
        assert min_eigenvalue(out) > -1e-8 * np.abs(out).max()

    def test_psi(self):
        assert np.allclose(psi(np.array([[3.0]])), [[6.0]])
        for l in (2, 3, 5):
            assert np.allclose(psi(np.eye(l)), (1 + l) * np.eye(l))

    def test_psi_choi(self):
        for l in (2, 3):
            assert np.allclose(choi_matrix(psi, l), omega(l) + np.eye(l * l))


class TestThinExact:
    def test_known_value(self):
        assert thin_exact(3, 2) == 72

    def test_l1(self):
        for n in range(1, 17):
            assert thin_exact(n, 1) == 4 ** (n - 1)

    def test_z_matrix(self):
        for l in (1, 2, 3):
            z = z_thin(l).astype(float)
            assert np.allclose(z, omega(l).real + (2 + l) * np.eye(l * l))

    def test_matches_bruteforce_polynomial(self):
        for n in range(1, 9):
            poly = meander_polynomial(MeanderClass.THIN, n)
            for l in (1, 2, 3):
                assert thin_exact(n, l) == poly.evaluate(l)

    def test_matches_matrix_power(self):
        # Tr[omega_l Z^(n-1)] read off the full matrix power
        for l in (1, 2, 3):
            z = z_thin(l)
            power = np.eye(l * l, dtype=object)
            diag = [i * l + i for i in range(l)]
            for n in range(1, 8):
                assert thin_exact(n, l) == sum(power[p, q] for p in diag for q in diag)
                power = power @ z

    def test_budget(self):
        assert [thin_exact_budget(l) for l in (1, 8, 9, 16, 64, 65)] == \
            [4096, 4096, 2557, 256, 1, 0]
        assert thin_exact(4096, 1) == 4 ** 4095
        for n, l in ((4097, 1), (257, 16), (1, 65)):
            with pytest.raises(ResourceLimitError, match=f"l={l} at n={n}"):
                thin_exact(n, l)


class TestFactorizedAgainstExplicit:
    def test_nc_nc(self):
        second_maps = {"independent": lambda g, gen: sample_ginibre(2, 16, gen),
                       "same": lambda g, gen: g,
                       "conjugate": lambda g, gen: g.conj()}
        for (second_map, second), n in itertools.product(second_maps.items(),
                                                         (1, 2, 3, 4)):
            spec = ModelSpec(Model.NC_NC, n, 2, 4, 5, SEED, second_map=second_map)
            fast = _stats_nc_nc(spec, np.arange(5), 0)
            for idx in range(5):
                gen = sample_stream(SEED, idx)
                g = sample_ginibre(2, 16, gen)
                z = z_nc_nc(g, second(g, gen))
                want = np.trace(np.linalg.matrix_power(z, n)).real * 4.0 ** (-2 - 2 * n)
                assert math.isclose(fast[idx], want, rel_tol=1e-10)

    def test_gue(self):
        for n in (1, 2, 3):
            spec = ModelSpec(Model.GUE_DF, n, 2, 4, 5, SEED)
            fast = _stats_gue(spec, np.arange(5), 0)
            for idx in range(5):
                gen = sample_stream(SEED, idx)
                bs = [sample_gue(4, gen) for _ in range(2)]
                m = sum(np.kron(b, b.conj()) for b in bs)
                want = np.trace(np.linalg.matrix_power(m, 2 * n)).real * 4.0 ** (-2 - 2 * n)
                assert math.isclose(fast[idx], want, rel_tol=1e-10)

    def test_wishart(self):
        for n in (1, 2, 3):
            spec = ModelSpec(Model.WISHART_PT, n, 2, 4, 5, SEED)
            fast = _stats_wishart(spec, np.arange(5), 0)
            for idx in range(5):
                gen = sample_stream(SEED, idx)
                g = sample_ginibre(16, 2, gen)
                w = g @ g.conj().T
                rho = w / np.trace(w).real
                pt = partial_transpose(rho, (4, 4))
                want = np.trace(np.linalg.matrix_power(8 * pt, 2 * n)).real / 16.0
                assert math.isclose(fast[idx], want, rel_tol=1e-10)

    def test_shallow_top(self):
        for n in (1, 2, 3):
            spec = ModelSpec(Model.SHALLOW_TOP, n, 2, 4, 5, SEED)
            fast = _stats_shallow_top(spec, np.arange(5), 0)
            for idx in range(5):
                gen = sample_stream(SEED, idx)
                g = sample_ginibre(2, 16, gen)
                z0, z = z_shallow_top(g)
                want = np.trace(z0 @ np.linalg.matrix_power(z, n - 1)).real * 4.0 ** (-1 - n)
                assert math.isclose(fast[idx], want, rel_tol=1e-10)


def _per_chain_draws(spec, indices, retry):
    """Each sample's matrices drawn from its own stream, in the model's
    order, into one list per chain, and each list stacked: (S, ...) per
    chain.  nc-nc draws H after G, and only for an independent channel."""
    l, d = spec.l, spec.d
    chains = {
        Model.GUE_DF: [lambda gen: np.stack([sample_gue(d, gen) for _ in range(l)])],
        Model.WISHART_PT: [lambda gen: sample_ginibre(d * d, l, gen)],
        Model.SHALLOW_TOP: [lambda gen: sample_ginibre(l, d * d, gen)],
        Model.NC_NC: [lambda gen: sample_ginibre(l, d * d, gen)]
        * (2 if spec.second_map == "independent" else 1),
    }[spec.model]
    draws = [[] for _ in chains]
    for idx in indices:
        gen = sample_stream(spec.seed, int(idx), retry)
        for chain, out in zip(chains, draws):
            out.append(chain(gen))
    return [np.stack(out) for out in draws]


_DRAW_SPECS = [
    ModelSpec(model, n, 2, d, 3 if d == 2 else 2, SEED, second_map=second_map)
    for model, n, second_map in [
        (Model.GUE_DF, 2, "independent"), (Model.WISHART_PT, 2, "independent"),
        (Model.SHALLOW_TOP, 3, "independent"), (Model.NC_NC, 2, "independent"),
        (Model.NC_NC, 2, "same"), (Model.NC_NC, 2, "conjugate")]
    for d in (2, 4)]


@pytest.mark.parametrize("spec", _DRAW_SPECS,
                         ids=lambda s: f"{s.model.value}-{s.second_map}-d{s.d}")
def test_stats_keep_the_bits_of_per_chain_draws(monkeypatch, spec):
    # the samples out of order and on a retry's salted streams
    indices, retry = np.array([5, 0, 3])[:spec.samples], 1
    got = _STATS[spec.model](spec, indices, retry)
    stacks = _per_chain_draws(spec, indices, retry)
    if spec.model is Model.NC_NC:
        w1 = matrix_models._phi_blocks(stacks[0])
        w2 = {"independent": lambda: matrix_models._phi_blocks(stacks[1]),
              "same": lambda: w1, "conjugate": lambda: None}[spec.second_map]()
        want = _chain_trace_sum(w1, w2, spec.n).real * float(spec.d) ** (-2 - 2 * spec.n)
    else:
        # the one chain's stack stands in for the draw; what the model
        # computes from it is its own
        monkeypatch.setattr(matrix_models, "_draw", lambda *args: stacks[0])
        want = _STATS[spec.model](spec, indices, retry)
    assert got.shape == (spec.samples,)
    assert np.array_equal(got, want)


def _reference_chain_trace_sum(w1, w2, length):
    """The recursive descent the chain trace started from: one walk per
    chain, every leaf term added to the sum in lexicographic order."""
    s_count, m = w1.shape[0], w1.shape[1]
    acc = np.zeros(s_count, dtype=complex)
    if length == 1:
        t1 = np.trace(w1, axis1=2, axis2=3)
        t2 = np.trace(w2, axis1=2, axis2=3)
        return np.sum(t1 * t2, axis=1)

    def descend(depth, p1, p2):
        nonlocal acc
        if depth == length - 1:
            for s in range(m):
                t1 = np.einsum("sij,sji->s", p1, w1[:, s])
                t2 = np.einsum("sij,sji->s", p2, w2[:, s])
                acc += t1 * t2
        else:
            for s in range(m):
                descend(depth + 1, p1 @ w1[:, s], p2 @ w2[:, s])

    for s in range(m):
        descend(1, w1[:, s], w2[:, s])
    return acc


class TestChainTrace:
    """_chain_trace_sum returns the reference's bits, with either chain
    form, whatever the thread count and however deep the tree is split."""

    @pytest.mark.parametrize("split", ["1 thread", "2 threads", "deep split"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_bitwise_equal_to_reference(self, monkeypatch, m, split):
        workers = 2 if split == "2 threads" else 1
        monkeypatch.setattr(meanders, "_threads", lambda: workers)
        if split == "deep split":
            monkeypatch.setattr(matrix_models, "_SUBTREE_TERMS", 4)
        subtrees = []
        ordered_map = meanders._ordered_map

        def counted(fn, items):
            subtrees.append(len(items))
            return ordered_map(fn, items)

        monkeypatch.setattr(meanders, "_ordered_map", counted)
        rng = np.random.default_rng(SEED + m)
        for length in range(1, 7):
            for s_count in (1, 3):
                for d in (2, 4):
                    w1, w2 = (complex_gaussians(rng, (s_count, m, d, d))
                              for _ in range(2))
                    assert np.array_equal(_chain_trace_sum(w1, w2, length),
                                          _reference_chain_trace_sum(w1, w2, length))
                    assert np.array_equal(_chain_trace_sum(w1, None, length),
                                          _reference_chain_trace_sum(w1, w1.conj(), length))
        if split == "1 thread":
            assert set(subtrees) == {1}
        elif m > 1:
            # the pool (or the deep split) really ran several subtrees
            assert max(subtrees) > 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_same_chain_walked_once(self, monkeypatch, threads):
        # w2 is w1 (second map "same"): the second chain's products are
        # not taken, and the sum keeps the bits of walking a copy of w1
        monkeypatch.setattr(meanders, "_threads", lambda: threads)
        products = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    products.append(1)
                return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

        def walk(w1, w2, length):
            products.clear()
            result = _chain_trace_sum(w1, w2, length)
            return len(products), result

        rng = np.random.default_rng(SEED)
        for m, length in [(1, 5), (2, 3), (4, 4)]:
            w = complex_gaussians(rng, (3, m, 2, 2)).view(Counted)
            same, same_sum = walk(w, w, length)
            copied, copied_sum = walk(w, w.copy(), length)
            conjugate, _ = walk(w, None, length)
            # words of length L have m^2 + ... + m^(L-1) proper prefixes
            # past the first letter, one product each
            assert same == conjugate == sum(m ** k for k in range(2, length)) > 0
            assert copied == 2 * same
            assert np.array_equal(same_sum, copied_sum)

    @pytest.mark.parametrize("second_map, calls",
                             [("independent", 2), ("same", 1), ("conjugate", 1)])
    def test_nc_nc_builds_letters_once_per_channel(self, monkeypatch, second_map, calls):
        # same reuses G's letters; conjugate reads conj(G)'s as their conjugate
        phi_blocks = matrix_models._phi_blocks
        seen = []
        monkeypatch.setattr(matrix_models, "_phi_blocks",
                            lambda g: seen.append(g) or phi_blocks(g))
        spec = ModelSpec(Model.NC_NC, 2, 2, 4, 3, SEED, second_map=second_map)
        _stats_nc_nc(spec, np.arange(3), 0)
        assert len(seen) == calls

    @pytest.mark.parametrize("threads", [1, 2])
    def test_letters_freed_on_return(self, monkeypatch, threads):
        # the walk leaves no reference cycle: with the cyclic collector
        # off, the letters go as soon as the caller drops them
        monkeypatch.setattr(meanders, "_threads", lambda: threads)
        rng = np.random.default_rng(SEED)
        enabled = gc.isenabled()
        gc.disable()
        try:
            for second in ("conjugate", "same", "independent"):
                w1 = complex_gaussians(rng, (3, 2, 4, 4))
                w2 = {"conjugate": None, "same": w1,
                      "independent": complex_gaussians(rng, (3, 2, 4, 4))}[second]
                refs = [weakref.ref(w) for w in (w1, w2) if w is not None]
                _chain_trace_sum(w1, w2, 3)
                del w1, w2
                assert [r() for r in refs] == [None] * len(refs), second
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_phi_blocks_keep_the_plain_einsum_bits(self, l):
        # the contiguous layout adds the same terms in the same order;
        # signed zeros in G check the sign of zero sums too
        rng = np.random.default_rng(SEED + l)
        for d, s_count in itertools.product((2, 3, 8), (1, 5)):
            g = complex_gaussians(rng, (s_count, l, d * d))
            zero = rng.random(g.shape)
            g[zero < 0.2] = complex(-0.0, 0.0)
            g[zero > 0.8] = complex(0.0, -0.0)
            u = g.conj().reshape(s_count, l, d, d)
            want = np.einsum("sipa,sjpb->sijab", u, u.conj()).reshape(s_count, l * l, d, d)
            got = matrix_models._phi_blocks(g)
            assert np.array_equal(got, want)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))

    def test_conjugate_chain_is_bitwise_conjugate(self):
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            a, b = (complex_gaussians(rng, (3, 16, 16)) for _ in range(2))
            assert np.array_equal(a.conj() @ b.conj(), (a @ b).conj())
            assert np.array_equal(np.einsum("sij,sji->s", a.conj(), b.conj()),
                                  np.einsum("sij,sji->s", a, b).conj())


_BATCH_SPECS = [ModelSpec(Model.GUE_DF, 2, 2, 4, 7, SEED),
                ModelSpec(Model.WISHART_PT, 2, 2, 4, 7, SEED),
                ModelSpec(Model.SHALLOW_TOP, 3, 2, 4, 7, SEED)] + [
    ModelSpec(Model.NC_NC, 2, 2, 4, 7, SEED, second_map=second_map)
    for second_map in ("independent", "same", "conjugate")]


class TestBatches:
    """estimate evaluates its samples in batches of at most _BATCH_CELLS
    cells, and the split changes no bit of its results."""

    @staticmethod
    def counted(monkeypatch, model):
        """The sizes of the batches passed to the model's _STATS entry."""
        stats_fn, sizes = _STATS[model], []
        monkeypatch.setitem(_STATS, model, lambda spec, indices, retry: (
            sizes.append(len(indices)) or stats_fn(spec, indices, retry)))
        return sizes

    @pytest.mark.parametrize("spec", _BATCH_SPECS,
                             ids=lambda s: f"{s.model.value}-{s.second_map}")
    def test_split_keeps_the_bits(self, monkeypatch, spec):
        sizes = self.counted(monkeypatch, spec.model)
        monkeypatch.setattr(matrix_models, "_BATCH_CELLS", 1)
        single = estimate(spec)
        assert sizes == [1] * spec.samples
        sizes.clear()
        monkeypatch.setattr(matrix_models, "_BATCH_CELLS", 1 << 62)
        whole = estimate(spec)
        assert sizes == [spec.samples]
        assert (single.mean, single.stderr) == (whole.mean, whole.stderr)

    @pytest.mark.parametrize("spec", _BATCH_SPECS,
                             ids=lambda s: f"{s.model.value}-{s.second_map}")
    def test_threads_keep_the_bits(self, monkeypatch, spec):
        # batches of at most 2 samples at 1 thread and of 1 at 2 and 3
        # threads, so at least 3 batches at every thread count
        cells = matrix_models._trace_cost(spec.model, spec.n, spec.l, spec.d, 1,
                                          spec.second_map)[1]
        monkeypatch.setattr(matrix_models, "_BATCH_CELLS", 2 * cells)
        stats_fn, batches = _STATS[spec.model], []
        # at 2 threads the first two batches wait for each other, so they
        # run at once, on two workers, however short they are
        both = threading.Barrier(2, timeout=10)

        def recorded(spec, indices, retry):
            batches.append(threading.get_ident())
            if threads == 2 and len(batches) <= 2:
                both.wait()
            return stats_fn(spec, indices, retry)

        monkeypatch.setitem(_STATS, spec.model, recorded)
        reports = {}
        for threads in (1, 2, 3):
            monkeypatch.setattr(meanders, "_threads", lambda: threads)
            batches.clear()
            rep = estimate(spec)
            reports[threads] = (rep.mean, rep.stderr)
            assert len(batches) >= 3
            if threads == 2:
                assert threading.get_ident() not in batches
                assert len(set(batches)) >= 2
        assert reports[1] == reports[2] == reports[3]

    def test_resamples_in_a_later_batch(self, monkeypatch):
        # the exact batches are those of one thread; threads split
        # batches further, which test_threads_keep_the_bits covers
        monkeypatch.setattr(meanders, "_threads", lambda: 1)
        spec = ModelSpec(Model.NC_NC, 2, 2, 4, 9, SEED)
        cells = matrix_models._trace_cost(Model.NC_NC, 2, 2, 4, 1, "independent")[1]
        monkeypatch.setattr(matrix_models, "_BATCH_CELLS", 4 * cells)
        stats_fn, calls = _STATS[Model.NC_NC], []

        def nan_in_second_batch(spec, indices, retry):
            stats = stats_fn(spec, indices, retry)
            if retry == 0 and indices[0] == 4:
                stats[[1, 3]] = np.nan          # samples 5 and 7
            calls.append((indices.tolist(), retry))
            return stats

        monkeypatch.setitem(_STATS, Model.NC_NC, nan_in_second_batch)
        rep = estimate(spec)
        assert calls == [([0, 1, 2, 3], 0), ([4, 5, 6, 7], 0), ([8], 0),
                         ([5, 7], 1)]
        assert rep.resamples == 2
        # samples 5 and 7 come from their retry-1 streams, the rest from
        # their first ones
        want = stats_fn(spec, np.arange(9), 0)
        want[[5, 7]] = stats_fn(spec, np.array([5, 7]), 1)
        assert rep.mean == float(want.mean())
        assert rep.stderr == float(want.std(ddof=1) / 3)

    def test_peak_memory_does_not_grow_with_samples(self, monkeypatch):
        # 400 samples are 2 batches and 1600 are 5 at nc-nc n=2, l=2,
        # d=8 and 1 thread; held in one batch, 1600 samples peaked at 4x
        # 400's.  At 2 threads the batches are half as large and two are
        # alive at once, so the peak stays within the 1-thread bound
        def peak(samples, threads):
            monkeypatch.setattr(meanders, "_threads", lambda: threads)
            tracemalloc.start()
            try:
                estimate(ModelSpec(Model.NC_NC, 2, 2, 8, samples, SEED))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(400, 1)
        assert peak(1600, 1) <= 1.1 * small
        assert peak(1600, 2) <= 1.1 * small


class TestTraceBudget:
    def test_benchmark_and_tests_within_budget(self):
        for model, n, l, d, samples in (
                (Model.GUE_DF, 5, 2, 32, 100), (Model.NC_NC, 2, 2, 32, 1000),
                (Model.NC_NC, 4, 2, 32, 400), (Model.GUE_DF, 3, 2, 32, 400),
                (Model.WISHART_PT, 3, 2, 32, 400), (Model.SHALLOW_TOP, 3, 2, 32, 400)):
            assert n <= trace_budget(model, l, d, samples)

    def test_budget_shrinks_with_size(self):
        assert trace_budget(Model.GUE_DF, 2, 32, 100) == 6
        assert trace_budget(Model.GUE_DF, 2, 32, 400) == 5
        assert trace_budget(Model.NC_NC, 3, 8, 400) == 4
        # operands alone over the cell budget
        assert trace_budget(Model.GUE_DF, 64, 512, 400) == 0
        # one letter: the cost grows linearly in n, and the budget is finite
        assert 0 < trace_budget(Model.GUE_DF, 1, 2, 1) < 10 ** 8

    def test_nc_nc_charges_the_second_chain_only_when_walked(self):
        # same and conjugate letters walk one chain (_chain_trace_sum)
        for l, d, two, one in ((2, 8, 7, 8), (3, 8, 4, 5), (2, 16, 6, 7)):
            assert trace_budget(Model.NC_NC, l, d, 400) == two
            assert trace_budget(Model.NC_NC, l, d, 400, "independent") == two
            for second_map in ("same", "conjugate"):
                assert trace_budget(Model.NC_NC, l, d, 400, second_map) == one
        for second_map in ("same", "conjugate"):
            check_trace_budget(ModelSpec(Model.NC_NC, 8, 2, 8, 400, SEED,
                                         second_map=second_map))
        with pytest.raises(ResourceLimitError, match="at n=8 exceeds budget 7"):
            check_trace_budget(ModelSpec(Model.NC_NC, 8, 2, 8, 400, SEED))

    def test_cells_are_charged_for_one_sample(self):
        # 2 chains x 4 cells x 7 held per sample: within the cell budget
        # however many samples estimate runs, one batch at a time
        check_trace_budget(ModelSpec(Model.NC_NC, 3, 2, 2, 400000, 0))
        assert trace_budget(Model.NC_NC, 2, 2, 400000) == 3

    def test_estimate_refuses_over_budget(self):
        spec = ModelSpec(Model.GUE_DF, 9, 2, 8, 400, SEED)
        with pytest.raises(ResourceLimitError,
                           match="gue-df trace for l=2, d=8, 400 samples at n=9"):
            check_trace_budget(spec)
        with pytest.raises(ResourceLimitError):
            estimate(spec)
        check_trace_budget(ModelSpec(Model.THIN, 4096, 1, 8, 400, SEED))


class TestModelMatrices:
    def test_z_is_hermitian_psd_per_sample(self):
        for idx in range(4):
            gen = sample_stream(SEED, idx)
            g = sample_ginibre(2, 36, gen)
            h = sample_ginibre(2, 36, gen)
            for z in (z_nc_nc(g, h), z_shallow_top(g)[1]):
                assert hermitian_defect(z) < 1e-10
                assert min_eigenvalue(z) > -1e-8 * np.abs(z).max()

    def test_wishart_state_traces(self):
        gen = sample_stream(SEED, 0)
        g = sample_ginibre(25, 3, gen)
        w = g @ g.conj().T
        rho = w / np.trace(w).real
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert abs(np.trace(partial_transpose(rho, (5, 5))) - 1.0) < 1e-12
        assert min_eigenvalue(rho) > -1e-12


class TestEstimate:
    def test_thin_routed_exact(self):
        rep = estimate(ModelSpec(Model.THIN, 3, 2, 8, 100, SEED))
        assert rep.mean == 72.0 and rep.stderr == 0.0
        assert rep.exact_target == 72 and rep.samples == 0

    def test_deterministic(self):
        spec = ModelSpec(Model.NC_NC, 2, 2, 6, 40, SEED)
        r1, r2 = estimate(spec), estimate(spec)
        assert r1 == r2

    def test_targets(self):
        rep = estimate(ModelSpec(Model.NC_NC, 1, 3, 6, 20, SEED))
        assert rep.exact_target == 3
        rep = estimate(ModelSpec(Model.NC_NC, 2, 2, 6, 20, SEED))
        assert rep.exact_target == 12
        rep = estimate(ModelSpec(Model.SHALLOW_TOP, 3, 2, 6, 20, SEED))
        assert rep.exact_target == meander_polynomial(MeanderClass.SHALLOW_TOP, 3).evaluate(2)

    def test_report_json(self):
        rep = estimate(ModelSpec(Model.SHALLOW_TOP, 1, 2, 4, 10, SEED))
        doc = rep.to_json()
        assert doc["model"] == "shallow-top" and doc["exact_target"] == 2
        assert set(doc) == {"model", "n", "l", "d", "samples", "seed",
                            "mean", "stderr", "exact_target"}

    def test_resamples_counted_off_stdout(self, monkeypatch):
        spec = ModelSpec(Model.NC_NC, 2, 2, 6, 20, SEED)
        assert estimate(spec).resamples == 0
        stats_fn = _STATS[Model.NC_NC]
        calls = []

        def nan_once(spec, indices, retry):
            stats = stats_fn(spec, indices, retry)
            if not calls:
                stats[[0, 3]] = np.nan
            calls.append(retry)
            return stats

        monkeypatch.setitem(_STATS, Model.NC_NC, nan_once)
        rep = estimate(spec)
        assert calls == [0, 1] and rep.resamples == 2
        assert math.isfinite(rep.mean) and math.isfinite(rep.stderr)
        assert "resamples" not in rep.to_json()

    def test_sweep(self):
        reports = estimate_sweep(ModelSpec(Model.GUE_DF, 1, 2, 4, 30, SEED), [4, 8])
        assert [r.d for r in reports] == [4, 8]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(Model.NC_NC, 1, 2, 1, 10, SEED)
        with pytest.raises(ValueError):
            ModelSpec(Model.NC_NC, 0, 2, 4, 10, SEED)
        with pytest.raises(ValueError):
            ModelSpec(Model.NC_NC, 1, 2, 4, 10, SEED, second_map="bogus")
        # second_map changes the nc-nc model alone; elsewhere it is refused
        for model in (Model.GUE_DF, Model.WISHART_PT, Model.SHALLOW_TOP, Model.THIN):
            assert ModelSpec(model, 1, 2, 4, 10, SEED).second_map == "independent"
            for second_map in ("same", "conjugate"):
                with pytest.raises(ValueError, match="nc-nc only"):
                    ModelSpec(model, 1, 2, 4, 10, SEED, second_map=second_map)
        # the thin model checks d and samples like every other model
        with pytest.raises(ValueError):
            ModelSpec(Model.THIN, 2, 2, -1, 10, SEED)
        with pytest.raises(ValueError):
            ModelSpec(Model.THIN, 2, 2, 8, -5, SEED)
        # the seed keys Philox in 64 bits; it is refused outside them
        for seed in (0, 2 ** 64 - 1):
            assert ModelSpec(Model.NC_NC, 2, 2, 4, 10, seed).seed == seed
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="seed must be in 0.."):
                ModelSpec(Model.NC_NC, 2, 2, 4, 10, seed)

    def test_second_map_variants(self):
        # the replacement remark: same-G and conjugate-G limits agree with
        # the independent model; checked loosely at moderate dimension
        for variant in ("same", "conjugate"):
            rep = estimate(ModelSpec(Model.NC_NC, 2, 2, 16, 200, SEED,
                                     second_map=variant))
            band = 5 * rep.stderr + 20 * rep.exact_target / 16 ** 2
            assert abs(rep.mean - rep.exact_target) <= band

    def test_convergence_trend_n4(self):
        # module invariant: error nonincreasing over d in {8,16,32} up to n=4
        reports = estimate_sweep(ModelSpec(Model.NC_NC, 4, 2, 8, 400, SEED),
                                 [8, 16, 32])
        errs = [abs(r.mean - r.exact_target) for r in reports]
        for i in range(len(errs) - 1):
            assert errs[i + 1] <= errs[i] + 2 * reports[i + 1].stderr

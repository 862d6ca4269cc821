import math

import numpy as np
import pytest

from meandrics.matrix_models import (
    Model,
    ModelSpec,
    choi_matrix,
    complex_gaussians,
    estimate,
    estimate_sweep,
    hermitian_defect,
    min_eigenvalue,
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
    _stats_gue,
    _stats_nc_nc,
    _stats_shallow_top,
    _stats_wishart,
)
from meandrics.meanders import MeanderClass, ResourceLimitError, meander_polynomial

SEED = 20240809


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
        for n in (1, 2, 3, 4):
            spec = ModelSpec(Model.NC_NC, n, 2, 4, 5, SEED)
            fast = _stats_nc_nc(spec, np.arange(5), 0)
            for idx in range(5):
                gen = sample_stream(SEED, idx)
                g = sample_ginibre(2, 16, gen)
                h = sample_ginibre(2, 16, gen)
                z = z_nc_nc(g, h)
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
        # the thin model checks d and samples like every other model
        with pytest.raises(ValueError):
            ModelSpec(Model.THIN, 2, 2, -1, 10, SEED)
        with pytest.raises(ValueError):
            ModelSpec(Model.THIN, 2, 2, 8, -5, SEED)

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

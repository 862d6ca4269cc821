"""Random-matrix models whose moments recover the meander polynomials.

Five models are provided.  Four are Monte Carlo estimators of a trace
functional whose large-dimension limit is a meander polynomial value:

- ``gue-df``      averages (1/d^2) Tr((sum_i B_i (x) conj(B_i)) / d)^(2n)
  over independent unnormalized GUE matrices B_i;
- ``wishart-pt``  draws a bipartite density matrix rho from the induced
  measure of parameters (d^2, l) and averages
  (1/d^2) Tr(l d rho^Gamma)^(2n);
- ``nc-nc``       forms Z = [Phi_G (x) Phi_H](omega_l) from two Ginibre
  channels and averages (1/d^2) Tr(Z/d^2)^n;
- ``shallow-top`` replaces Phi_H by the deterministic map
  Psi(X) = X + (tr X) I and averages (1/d) Tr[(Z_0/d)(Z/d)^(n-1)].

The fifth, ``thin``, is deterministic: Tr[omega_l Z^(n-1)] for
Z = [Psi (x) Psi](omega_l) is computed in exact integer arithmetic and
equals l (2 + 2l)^(n-1).

Sampling uses the counter-based Philox generator with one stream per
sample, keyed by (seed + 2^64 * sample_index), so results do not depend
on evaluation order; Gaussians come from an explicit Box-Muller
transform on that stream.  For the three models whose matrices have
dimension d^2, traces of powers are evaluated through the exact tensor
factorization of the model (sums of Kronecker products of d x d chains)
instead of materializing the d^2 x d^2 product, which is orders of
magnitude faster at a single trace per sample; the test suite checks
this path against the explicit matrices.

That trace walks the word tree of the chain products once.  Its
subtrees run on the MEANDER_THREADS pool, and the leaf terms are folded
into the sum on the calling thread in the order of the words, so the
result is the same to the bit at every thread count.  For gue-df and
for nc-nc with ``second_map="conjugate"`` the second chain is the exact
complex conjugate of the first and is not walked; nc-nc with
``second_map="same"`` builds the letters once and uses them for both
chains.  ``trace_budget`` bounds each trace by a measured cost model.
``estimate`` evaluates the samples in batches on the same pool, at most
MEANDER_THREADS of them at once and of bounded size together, so its
memory grows with neither their number nor the thread count, and the
results are the same to the bit at every split.  The pool does not
nest: a batch that runs on a worker walks its word tree on that worker,
and only a spec whose samples fit one batch splits its tree over the
pool.
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from . import meanders
from .meanders import MeanderClass, _check_budget, _check_cap, meander_polynomial

logger = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1


class Model(enum.Enum):
    GUE_DF = "gue-df"
    WISHART_PT = "wishart-pt"
    NC_NC = "nc-nc"
    SHALLOW_TOP = "shallow-top"
    THIN = "thin"


@dataclass(frozen=True)
class ModelSpec:
    model: Model
    n: int
    l: int
    d: int
    samples: int
    seed: int
    second_map: str = "independent"   # nc-nc only: independent | same | conjugate

    def __post_init__(self):
        if self.n < 1 or self.l < 1:
            raise ValueError("n and l must be positive")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0 <= self.seed <= _MASK64:
            # sample_stream keys Philox with the low 64 bits of the seed
            raise ValueError(f"seed must be in 0..{_MASK64}, not {self.seed}")
        if self.second_map not in ("independent", "same", "conjugate"):
            raise ValueError(f"unknown second_map {self.second_map!r}")
        if self.second_map != "independent" and self.model is not Model.NC_NC:
            raise ValueError(f"second_map {self.second_map!r} applies to nc-nc "
                             f"only, not {self.model.value}")


@dataclass(frozen=True)
class EstimateReport:
    model: Model
    n: int
    l: int
    d: int
    samples: int
    seed: int
    mean: float
    stderr: float
    exact_target: int
    # samples drawn again because their statistic was not finite, summed
    # over retries; left out of to_json and CSV, which stay pinned
    resamples: int = 0

    def to_json(self) -> dict:
        return {
            "model": self.model.value, "n": self.n, "l": self.l,
            "d": self.d, "samples": self.samples, "seed": self.seed,
            "mean": self.mean, "stderr": self.stderr,
            "exact_target": self.exact_target,
        }


# ---------------------------------------------------------------------------
# RNG: one Philox stream per sample
# ---------------------------------------------------------------------------

def sample_stream(seed: int, index: int, retry: int = 0) -> np.random.Generator:
    """Counter-based generator for one sample; retries get a salted index."""
    key = (seed & _MASK64) + ((index + (retry << 48)) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _box_muller(gen: np.random.Generator, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    u1 = gen.random(shape)
    u2 = gen.random(shape)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    return r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)


def complex_gaussians(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Standard complex Gaussians: real and imaginary parts N(0, 1/2)."""
    re, im = _box_muller(gen, shape)
    return (re + 1j * im) / math.sqrt(2.0)


def sample_ginibre(rows: int, cols: int, gen: np.random.Generator) -> np.ndarray:
    if rows < 1 or cols < 1:
        raise ValueError("dimensions must be positive")
    return complex_gaussians(gen, (rows, cols))


def sample_gue(d: int, gen: np.random.Generator) -> np.ndarray:
    """Unnormalized GUE: (G + G*) / sqrt(2) for a d x d Ginibre G."""
    g = sample_ginibre(d, d, gen)
    return (g + g.conj().T) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Dense helpers
# ---------------------------------------------------------------------------

def omega(l: int) -> np.ndarray:
    """Unnormalized maximally entangled state: rank one, trace l."""
    if l < 1:
        raise ValueError("l must be positive")
    vec = np.zeros(l * l, dtype=complex)
    vec[np.arange(l) * l + np.arange(l)] = 1.0
    return np.outer(vec, vec.conj())


def partial_trace(m: np.ndarray, side: int, dims: tuple[int, int]) -> np.ndarray:
    """Trace out tensor factor ``side`` (0 = left, 1 = right) of a matrix
    on C^dims[0] (x) C^dims[1] with row-major composite indices."""
    d1, d2 = dims
    if m.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"shape {m.shape} does not factor as {dims}")
    r = m.reshape(d1, d2, d1, d2)
    if side == 0:
        return np.einsum("ijik->jk", r)
    if side == 1:
        return np.einsum("ijkj->ik", r)
    raise ValueError("side must be 0 or 1")


def partial_transpose(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the right tensor factor: [id (x) transp](m)."""
    d1, d2 = dims
    if m.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"shape {m.shape} does not factor as {dims}")
    r = m.reshape(d1, d2, d1, d2)
    return r.transpose(0, 3, 2, 1).reshape(d1 * d2, d1 * d2)


def phi_ginibre(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The completely positive map M_l -> M_d attached to a Ginibre
    matrix G of shape (l, d^2): X -> [Tr_d (x) id_d](G* X G), reading
    S = G* as the Stinespring operator C^l -> C^d (x) C^d."""
    l, d2 = g.shape
    d = math.isqrt(d2)
    if d * d != d2:
        raise ValueError("G must have d^2 columns")
    if x.shape != (l, l):
        raise ValueError(f"X must be {l} x {l}")
    big = g.conj().T @ x @ g
    return partial_trace(big, side=0, dims=(d, d))


def psi(x: np.ndarray) -> np.ndarray:
    """The deterministic CP map X -> X + (tr X) I."""
    l = x.shape[0]
    if x.shape != (l, l):
        raise ValueError("square input required")
    return x + np.trace(x) * np.eye(l, dtype=x.dtype)


def _on_omega(left: Callable[[np.ndarray], np.ndarray],
              right: Callable[[np.ndarray], np.ndarray], l: int) -> np.ndarray:
    """[left (x) right](omega_l) = sum_ij left(E_ij) (x) right(E_ij),
    summed over the matrix units E_ij in row-major order of (i, j)."""
    out = None
    for i in range(l):
        for j in range(l):
            e = np.zeros((l, l), dtype=complex)
            e[i, j] = 1.0
            term = np.kron(left(e), right(e))
            out = term if out is None else out + term
    return out


# ---------------------------------------------------------------------------
# Explicit model matrices (used by tests and small dimensions)
# ---------------------------------------------------------------------------

def z_nc_nc(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Z = [Phi_G (x) Phi_H](omega_l), literally summed over basis units."""
    return _on_omega(partial(phi_ginibre, g), partial(phi_ginibre, h), g.shape[0])


def z_shallow_top(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Z0, Z) = ([Phi_G (x) id](omega_l), [Phi_G (x) Psi](omega_l))."""
    phi, l = partial(phi_ginibre, g), g.shape[0]
    return _on_omega(phi, lambda e: e, l), _on_omega(phi, psi, l)


def z_thin(l: int) -> np.ndarray:
    """[Psi (x) Psi](omega_l) = omega_l + (2 + l) I, exact integers."""
    z = np.full((l * l, l * l), 0, dtype=object)
    diag = np.arange(l) * l + np.arange(l)
    for p in diag:
        for q in diag:
            z[p, q] = 1
    for p in range(l * l):
        z[p, p] += 2 + l
    return z


# The cost of thin_exact, measured on 2 cores: each of the n - 1 steps is
# one object matrix-vector product of l^4 multiply-adds at about 24 ns
# each, Z alone holds l^4 object pointers, and for small l the per-step
# overhead and the growing integers dominate.  At each l's largest
# allowed n a call takes at most 1.2 s (l = 8, n = 4096) and peaks at
# most at 160 MB (l = 64, n = 1).
THIN_EXACT_PRODUCTS = 2 ** 24
THIN_EXACT_STEPS = 4096


def thin_exact_budget(l: int) -> int:
    """Largest n for which ``thin_exact(n, l)`` is within budget: n l^4
    multiply-adds at most THIN_EXACT_PRODUCTS, and n at most
    THIN_EXACT_STEPS.  0 when even Z is over budget."""
    return min(THIN_EXACT_STEPS, THIN_EXACT_PRODUCTS // l ** 4)


@lru_cache(maxsize=None)
def thin_exact(n: int, l: int) -> int:
    """Tr[omega_l Z^(n-1)] = u^T Z^(n-1) u for u the indicator of the
    diagonal indices i l + i, by n - 1 exact integer matrix-vector
    products; ``verify thin`` compares it with the closed form
    l (2 + 2l)^(n-1).  ResourceLimitError above ``thin_exact_budget(l)``."""
    if n < 1 or l < 1:
        raise ValueError("n and l must be positive")
    check_target_budget(Model.THIN, n, l)
    z = z_thin(l)
    diag = np.arange(l) * l + np.arange(l)
    u = np.zeros(l * l, dtype=object)
    u[diag] = 1
    v = u
    for _ in range(n - 1):
        v = z @ v
    return int(u @ v)


# ---------------------------------------------------------------------------
# Factorized trace evaluation
# ---------------------------------------------------------------------------

# The leaf terms one subtree of the chain trace may hold (leaves times
# samples): 2^16 complex values, 1 MiB.  The word tree is split deep
# enough that no subtree holds more.
_SUBTREE_TERMS = 1 << 16


def _chain_trace_sum(w1: np.ndarray, w2: np.ndarray | None, length: int) -> np.ndarray:
    """sum over sequences s in [m]^length of
    tr(prod_t w1[s_t]) * tr(prod_t w2[s_t]), batched over samples.

    w1: (S, m, d1, d1), w2: (S, m, d2, d2); returns (S,) complex.  w2 None
    stands for w1.conj(): each product and trace of that chain is then
    the exact complex conjugate of the first chain's, so it is not walked.
    Nor is it when w2 is w1: its traces are then the first chain's.

    The products are taken left to right, one letter at a time, and the
    leaf terms are added to the sum one by one in lexicographic order of
    the sequences, whatever the thread count, so the result is the same
    to the bit.  The word tree is split at the first depth with at least
    MEANDER_THREADS subtrees (deeper while a subtree would hold more than
    _SUBTREE_TERMS terms); the subtrees run on the pool of
    ``meanders._ordered_map`` and return their terms in order.  Called
    on one of that pool's workers, as for one of several sample batches,
    the subtrees run inline on that worker.
    """
    s_count, m = w1.shape[0], w1.shape[1]
    walk2 = w2 is not None and w2 is not w1
    if length == 1:
        t1 = np.trace(w1, axis1=2, axis2=3)
        t2 = (np.trace(w2, axis1=2, axis2=3) if walk2
              else t1.conj() if w2 is None else t1)
        return np.sum(t1 * t2, axis=1)

    def extend(p: np.ndarray | None, w: np.ndarray, s: int) -> np.ndarray:
        return w[:, s] if p is None else p @ w[:, s]

    def subtree(prefix: tuple[int, ...]) -> list[np.ndarray]:
        """The leaf terms of the words that start with prefix, in order."""
        terms = []

        def descend(depth: int, p1: np.ndarray | None, p2: np.ndarray | None) -> None:
            if depth == length - 1:
                for s in range(m):
                    t1 = np.einsum("sij,sji->s", p1, w1[:, s])
                    t2 = (np.einsum("sij,sji->s", p2, w2[:, s]) if walk2
                          else t1.conj() if w2 is None else t1)
                    terms.append(t1 * t2)
            else:
                for s in prefix[depth:depth + 1] if depth < len(prefix) else range(m):
                    descend(depth + 1, extend(p1, w1, s),
                            extend(p2, w2, s) if walk2 else None)

        # descend holds itself in its closure cell; clearing the cell
        # breaks that cycle, which would keep w1 and w2 alive after the
        # return until the cyclic collector ran
        try:
            descend(0, None, None)
        finally:
            del descend
        return terms

    depth = 0
    while depth < length - 1 and (m ** depth < meanders._threads()
                                  or m ** (length - depth) * s_count > _SUBTREE_TERMS):
        depth += 1
    prefixes = list(itertools.product(range(m), repeat=depth))
    acc = np.zeros(s_count, dtype=complex)
    for terms in meanders._ordered_map(subtree, prefixes):
        for term in terms:
            acc += term
    return acc


def _phi_blocks(g: np.ndarray) -> np.ndarray:
    """All Phi_G(E_ij) = U_i^T conj(U_j) stacked: (S, l^2, d, d), where
    U_i is conj(G[i]) reshaped d x d and g is (S, l, d^2)."""
    s_count, l, d2 = g.shape
    d = math.isqrt(d2)
    # u[s, i, a, p] = conj(G[s, i, p d + a]), contiguous in p: einsum
    # adds the p terms in the same order as over the strided
    # "sipa,sjpb" layout, to the same bits, in about half the time
    u = np.ascontiguousarray(g.conj().reshape(s_count, l, d, d).transpose(0, 1, 3, 2))
    blocks = np.einsum("siap,sjbp->sijab", u, u.conj())
    return blocks.reshape(s_count, l * l, d, d)


def _draw(spec: ModelSpec, indices: np.ndarray, retry: int,
          shape_fn: Callable[[np.random.Generator], np.ndarray | list]) -> np.ndarray:
    """shape_fn(stream) of each sample's own stream, an array or a list of
    equal-shape arrays, stacked in the order of indices: (S, *shape).
    np.array copies a list's arrays into place once; stacking each
    sample's list first made the nc-nc benchmark job 8 % slower."""
    return np.array([shape_fn(sample_stream(spec.seed, int(idx), retry))
                     for idx in indices])


def _stats_nc_nc(spec: ModelSpec, indices: np.ndarray, retry: int) -> np.ndarray:
    l, d, n = spec.l, spec.d, spec.n
    # G then H, (S, chains, l, d^2); H = G or conj(G) is not drawn, and the
    # blocks of conj(G), bitwise conj of G's, are read from w2 = None
    chains = 2 if spec.second_map == "independent" else 1
    g = _draw(spec, indices, retry,
              lambda gen: [sample_ginibre(l, d * d, gen) for _ in range(chains)])
    w1 = _phi_blocks(g[:, 0])
    w2 = (_phi_blocks(g[:, 1]) if chains == 2
          else w1 if spec.second_map == "same" else None)
    traces = _chain_trace_sum(w1, w2, n)
    return traces.real * float(d) ** (-2 - 2 * n)


def _stats_gue(spec: ModelSpec, indices: np.ndarray, retry: int) -> np.ndarray:
    l, d, n = spec.l, spec.d, spec.n
    b = _draw(spec, indices, retry,       # (S, l, d, d)
              lambda gen: [sample_gue(d, gen) for _ in range(l)])
    traces = _chain_trace_sum(b, None, 2 * n)
    return traces.real * float(d) ** (-2 - 2 * n)


def _stats_wishart(spec: ModelSpec, indices: np.ndarray, retry: int) -> np.ndarray:
    l, d, n = spec.l, spec.d, spec.n
    g = _draw(spec, indices, retry,       # (S, d^2, l)
              lambda gen: sample_ginibre(d * d, l, gen))
    a = g.T.reshape(l, d, d, -1).transpose(3, 0, 1, 2)   # (S, l, d, d) columns
    trace_w = np.einsum("skl,skl->s", g, g.conj()).real
    c = np.einsum("saij,sbkj->sabik", a, a.conj()).reshape(len(g), l * l, d, d)
    dd = np.einsum("sapj,sbpl->sabjl", a.conj(), a).reshape(len(g), l * l, d, d)
    traces = _chain_trace_sum(c, dd, n).real
    scale = float(l * d) ** (2 * n) / d ** 2
    return scale * traces / trace_w ** (2 * n)


def _stats_shallow_top(spec: ModelSpec, indices: np.ndarray, retry: int) -> np.ndarray:
    l, d, n = spec.l, spec.d, spec.n
    g = _draw(spec, indices, retry, lambda gen: sample_ginibre(l, d * d, gen))
    w = _phi_blocks(g).reshape(len(g), l, l, d, d)
    # Z0[(a,p),(b,q)] = Phi(E_pq)[a,b];  Z adds delta_pq sum_i Phi(E_ii)
    z0 = w.transpose(0, 3, 1, 4, 2).copy()
    z = z0.copy()
    summed = np.einsum("siiab->sab", w)
    eye = np.eye(l)
    z += summed[:, :, None, :, None] * eye[None, None, :, None, :]
    z0 = z0.reshape(len(g), d * l, d * l)
    z = z.reshape(len(g), d * l, d * l)
    power = np.broadcast_to(np.eye(d * l, dtype=complex),
                            z.shape).copy()
    for _ in range(n - 1):
        power = power @ z
    traces = np.einsum("sij,sji->s", z0, power)
    return traces.real * float(d) ** (-1 - n)


_STATS = {
    Model.NC_NC: _stats_nc_nc,
    Model.GUE_DF: _stats_gue,
    Model.WISHART_PT: _stats_wishart,
    Model.SHALLOW_TOP: _stats_shallow_top,
}


def target_class(model: Model) -> MeanderClass | None:
    """The class whose meander polynomial is the model's exact target, or
    None for the thin model, whose target comes from ``thin_exact``."""
    if model is Model.THIN:
        return None
    return MeanderClass.SHALLOW_TOP if model is Model.SHALLOW_TOP else MeanderClass.FULL


def check_target_budget(model: Model, n: int, l: int) -> None:
    """ResourceLimitError when the model's exact target at (n, l) is over
    its budget: the class scan's for a sampled model, thin_exact's for
    the thin one."""
    klass = target_class(model)
    if klass is None:
        _check_cap(f"thin exact target for l={l}", n, thin_exact_budget(l))
    else:
        _check_budget(klass, n, None)


# The cost of a sampled model's trace, measured on 2 cores with one
# thread (numpy 2.4.6) and counted in multiply-adds of a complex matrix
# product, which take at most 0.5 ns each: every node of the word tree
# that _chain_trace_sum walks (a product or a leaf trace; for
# shallow-top, one step of the power of Z) is one batched numpy call
# costing about TRACE_CALL of them (4 us), plus per sample about
# TRACE_SAMPLE (0.35 us) and D^3 for a product of two D x D matrices.  A
# trace may cost TRACE_MULADDS (30 s), and hold (``_trace_cost``) at
# most TRACE_CELLS complex numbers, 256 MiB, in a batch of one sample;
# ``estimate`` holds at most _BATCH_CELLS at a time over larger batches.
# When one batch's word tree is split over the pool, each further
# MEANDER_THREADS worker holds its own products.  Integers, so that no
# size overflows a float.  The model overestimates: gue-df at n=5, l=2,
# d=32 and 100 samples, the largest trace of the benchmark, is 3.4 s by
# the model and took 1.3 s; wishart-pt at n=5, l=2, d=32, 400 samples is
# 18 s and took 12 s for the whole estimate.
TRACE_CALL = 8_000
TRACE_SAMPLE = 700
TRACE_MULADDS = 60 * 10 ** 9
TRACE_CELLS = 1 << 24


def _trace_cost(model: Model, n: int, l: int, d: int, samples: int,
                second_map: str) -> tuple[int, int]:
    """(multiply-adds, complex cells) of a sampled model's trace by the
    model above.  The cells are the operands and what the walk holds per
    sample and chain: one product per level of the word tree, or for
    shallow-top Z0, Z and two powers of Z, counted for one sample: they
    also size ``estimate``'s batches."""
    if model is Model.GUE_DF:       # one conjugate chain over the l B_i
        m, length, dim, chains, held = l, 2 * n, d, 1, l + 2 * n
    elif model is Model.SHALLOW_TOP:
        m, length, dim, chains, held = 1, n, d * l, 1, 5
    else:                           # chains over the l^2 blocks
        m, length, dim, held = l * l, n, d, l * l + n
        # same and conjugate letters walk only the first chain
        chains = 2 if second_map == "independent" else 1
    nodes = length if m == 1 else (m ** (length + 1) - m) // (m - 1)
    call = TRACE_CALL + samples * (TRACE_SAMPLE + dim ** 3)
    return chains * nodes * call, chains * dim * dim * held


def trace_budget(model: Model, l: int, d: int, samples: int,
                 second_map: str = "independent") -> int:
    """Largest n whose trace is within TRACE_MULADDS and TRACE_CELLS at
    these l, d and samples (and for nc-nc, second_map); 0 when even
    n = 1 is over budget."""
    def within(n: int) -> bool:
        muladds, cells = _trace_cost(model, n, l, d, samples, second_map)
        return muladds <= TRACE_MULADDS and cells <= TRACE_CELLS

    lo, hi = 0, 1           # within(lo) holds, or lo is 0
    while within(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if within(mid) else (lo, mid)
    return lo


def check_trace_budget(spec: ModelSpec) -> None:
    """ResourceLimitError when the trace of a sampled spec is over
    ``trace_budget``; the thin model has no trace."""
    if spec.model is not Model.THIN:
        _check_cap(f"{spec.model.value} trace for l={spec.l}, d={spec.d}, "
                   f"{spec.samples} samples", spec.n,
                   trace_budget(spec.model, spec.l, spec.d, spec.samples,
                                spec.second_map))


def exact_target(model: Model, n: int, l: int) -> int:
    klass = target_class(model)
    if klass is None:
        return thin_exact(n, l)
    return meander_polynomial(klass, n).evaluate(l)


# The complex cells, counted by _trace_cost, that the batches of
# estimate's samples in flight may hold together: 2^18, 4 MiB, so a
# run's memory grows with neither its samples nor MEANDER_THREADS, each
# of whose workers holds one batch of at most 2^18 / MEANDER_THREADS
# cells.  Measured on 2 cores (medians of 3, MEANDER_THREADS=2) with the
# benchmark jobs `simulate gue-df 5 2 --samples 100` and `nc-nc 2 2
# --samples 1000`, both at --d 8,16,32, each through cli.main in its own
# process: at 2^18 cells they take 1.16 and 1.33 s and nc-nc peaks at
# 45 MB; 2^19 and 2^20 are no faster (gue-df 1.25 and 1.40 s, nc-nc
# 1.32 s) while the nc-nc peak grows to 52 and 67 MB; 2^17 made gue-df
# 1.3x slower and 2^16 2.2x, as each batch repeats the word tree's numpy
# calls.
_BATCH_CELLS = 1 << 18


def _batched_stats(spec: ModelSpec, indices: np.ndarray, retry: int) -> np.ndarray:
    """The model's statistics of the samples in indices, evaluated in
    consecutive batches of at most _BATCH_CELLS / MEANDER_THREADS cells
    and at least one sample, mapped over the pool of
    ``meanders._ordered_map`` and concatenated in order, so that at most
    MEANDER_THREADS batches' draws and letters are held at a time.  Each
    sample's statistic is computed from its own stream by per-sample
    numpy calls, so the result has the same bits as one batch of all the
    indices on one thread."""
    stats_fn = _STATS[spec.model]
    cells = _trace_cost(spec.model, spec.n, spec.l, spec.d, 1, spec.second_map)[1]
    size = max(1, _BATCH_CELLS // meanders._threads() // cells)
    batches = [indices[i:i + size] for i in range(0, len(indices), size)]
    return np.concatenate(list(meanders._ordered_map(
        lambda batch: stats_fn(spec, batch, retry), batches)))


def estimate(spec: ModelSpec) -> EstimateReport:
    """Monte Carlo estimate of the model's trace functional (exact for
    the thin model).  Deterministic given the spec, including the seed."""
    check_trace_budget(spec)
    target = exact_target(spec.model, spec.n, spec.l)
    if spec.model is Model.THIN:
        return EstimateReport(spec.model, spec.n, spec.l, spec.d, 0,
                              spec.seed, float(target), 0.0, target)
    indices = np.arange(spec.samples)
    stats = _batched_stats(spec, indices, 0)
    bad = ~np.isfinite(stats)
    retry = resamples = 0
    while bad.any() and retry < 5:
        retry += 1
        resamples += int(bad.sum())
        logger.warning("model %s: resampling %d non-finite samples (retry %d)",
                       spec.model.value, int(bad.sum()), retry)
        stats[bad] = _batched_stats(spec, indices[bad], retry)
        bad = ~np.isfinite(stats)
    if bad.any():
        raise FloatingPointError("non-finite samples persisted after retries")
    mean = float(stats.mean())
    stderr = (float(stats.std(ddof=1) / math.sqrt(spec.samples))
              if spec.samples > 1 else 0.0)
    return EstimateReport(spec.model, spec.n, spec.l, spec.d, spec.samples,
                          spec.seed, mean, stderr, target, resamples)


def estimate_sweep(spec: ModelSpec, d_values: Sequence[int]) -> list[EstimateReport]:
    """One report per dimension in d_values, same seed."""
    return [estimate(replace(spec, d=d)) for d in d_values]

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import selfadjoint_defect
from hypothesis import given, settings, strategies as st

from cmc_hyp import bubbles as bb
from cmc_hyp import chart as ch
from cmc_hyp import linearized as lin
from cmc_hyp import phi_expr, reduction
from cmc_hyp.errors import (AmbiguousKernelError, ConvergenceError,
                            NumericsError)
from cmc_hyp.halfspace import HyperbolicPoint

Q0 = HyperbolicPoint(0, 0, 1)


@pytest.fixture(scope="module")
def sys16(grid16, params2):
    return lin.assemble_linearized(params2, Q0, grid16)


def test_j_residual_bubble(grid16, params2):
    U = bb.bubble(params2, HyperbolicPoint(0.3, -0.5, 1.4), grid16)
    res = lin.j_residual(U, params2)
    assert np.max(np.abs(res.values)) < 1e-8


def test_j_residual_detects_nonsolutions(grid16, params2, rng):
    U = bb.bubble(params2, Q0, grid16)
    pert = ch.random_smooth_field(grid16, rng)
    u = ch.SphereField(grid16, U.values + 0.1 * pert.values / max(
        1.0, np.max(np.abs(pert.values))))
    res = lin.j_residual(u, params2)
    assert np.max(np.abs(res.values)) > 1e-3
    bad = ch.SphereField(grid16, U.values - np.array([0, 0, 1.0]))
    with pytest.raises(NumericsError):
        lin.j_residual(bad, params2)
    nan_height = U.values.copy()
    nan_height[0, 2] = np.nan
    with pytest.raises(NumericsError):
        lin.j_residual(ch.SphereField(grid16, nan_height, U.dx, U.dy), params2)


def test_linearization_kills_frame(sys16, grid16, params2):
    frame = bb.tangent_frame(params2, grid16)
    for t in frame.tau:
        out = sys16.apply_direct(t)
        assert np.max(np.abs(out.values)) < 1e-7
    for ell in range(3):
        f = ch.SphereField(grid16, frame.gamma[:, ell, None] * grid16.omega)
        out = sys16.apply_direct(f)
        assert np.max(np.abs(out.values)) < 1e-7
    # the modal matrix annihilates the same directions
    pack = sys16.pack
    assert np.max(np.abs(sys16.apply_modal(pack.frame_modal.T))) < 1e-8


def test_selfadjointness(sys16, grid16, rng):
    assert selfadjoint_defect(sys16, rng) < 1e-12
    a = ch.random_smooth_field(grid16, rng)
    b = ch.random_smooth_field(grid16, rng)
    defect = abs(sys16.form(a, b) - sys16.form(b, a))
    assert defect < 1e-8


def test_modal_vs_direct_forms(sys16, grid16, rng):
    pack = sys16.pack
    for _ in range(5):
        a = ch.random_smooth_field(grid16, rng)
        b = ch.random_smooth_field(grid16, rng)
        weak = pack.project_vector(a.values) @ sys16.apply_modal(
            pack.project_vector(b.values))
        direct = sys16.form(b, a)
        assert weak == pytest.approx(direct, rel=1e-10, abs=1e-10)


def test_fd_consistency_with_residual(grid16, params2, sys16, rng):
    # (J(U + h phi) - J(U)) / h approaches J'(U) phi at first order
    U = bb.bubble(params2, Q0, grid16)
    phi = ch.random_smooth_field(grid16, rng)
    jp = sys16.apply_direct(phi).values
    base = lin.j_residual(U, params2).values
    errs = []
    for h in (1e-3, 1e-4, 1e-5):
        moved = ch.SphereField(grid16, U.values + h * phi.values,
                               U.dx + h * phi.dx, U.dy + h * phi.dy)
        quot = (lin.j_residual(moved, params2).values - base) / h
        errs.append(np.max(np.abs(quot - jp)))
    assert errs[1] < 0.2 * errs[0]
    assert errs[2] < 0.2 * errs[1]


def test_normal_operator(grid16, params2, rng):
    nop = lin.normal_operator(params2, grid16)
    g = grid16
    k = params2.k
    ok = g.omega[:, 2] + k
    one = ch.constant_field(g, 1.0)
    out = nop.apply_direct(one)
    expect = -2.0 * k * g.mu**2 / ok**3 / params2.r**2
    assert np.max(np.abs(out.values - expect)) < 1e-10
    # the three normal kernel functions
    for ell in range(3):
        gam = k * g.omega[:, ell] + (1.0 if ell == 2 else 0.0)
        res = nop.apply_direct(ch.SphereField(g, gam))
        assert np.max(np.abs(res.values)) < 1e-7
    # agreement with the full operator on purely normal fields
    full = lin.assemble_linearized(params2, Q0, g)
    eta = ch.random_smooth_field(g, rng, vector=False)
    f = ch.SphereField(g, eta.values[:, None] * g.omega)
    via_full = np.einsum("ij,ij->i", full.apply_direct(f).values, g.omega)
    via_norm = nop.apply_direct(eta).values
    assert np.max(np.abs(via_full - via_norm)) < 1e-7


def test_quadratic_form(grid16, params2, rng):
    frame = bb.tangent_frame(params2, grid16)
    qf = lin.tangential_quadratic_form(frame.tau[0], params2)
    assert abs(qf.form_value) < 1e-7 and abs(qf.explicit_value) < 1e-7
    f = ch.random_smooth_field(grid16, rng)
    Pf, _ = ch.project_P(f)
    qf = lin.tangential_quadratic_form(Pf, params2)
    assert qf.explicit_value >= 0.0
    assert abs(qf.difference) < 1e-6 * max(abs(qf.explicit_value), 1.0)
    scaled = ch.SphereField(grid16, 2 * Pf.values, 2 * Pf.dx, 2 * Pf.dy)
    qf2 = lin.tangential_quadratic_form(scaled, params2)
    assert qf2.explicit_value == pytest.approx(4 * qf.explicit_value, rel=1e-12)
    with pytest.raises(ValueError):
        lin.tangential_quadratic_form(f, params2)


def test_quadratic_form_positivity(grid16, params2, rng):
    for _ in range(25):
        f = ch.random_smooth_field(grid16, rng)
        Pf, _ = ch.project_P(f)
        qf = lin.tangential_quadratic_form(Pf, params2)
        assert qf.form_value >= -1e-8


def test_split_formulas_match_direct(grid16, params2, sys16, rng):
    # tangential and normal split expressions against the direct application
    g = grid16
    k = params2.k
    ok = g.omega[:, 2] + k
    nop = lin.normal_operator(params2, g)
    for _ in range(5):
        phi = ch.random_smooth_field(g, rng)
        direct = sys16.apply_direct(phi).values
        Pphi, eta = ch.project_P(phi)
        # normal side
        normal_direct = np.einsum("ij,ij->i", direct, g.omega)
        normal_split = nop.apply_direct(eta).values
        assert np.max(np.abs(normal_direct - normal_split)) < 1e-6
        # tangential side, from the displayed first-order expression
        Pphi = ch.differentiate(Pphi)
        dxx, _ = ch.spectral_derivatives(g, Pphi.dx)
        _, dyy = ch.spectral_derivatives(g, Pphi.dy)
        lap = dxx + dyy
        x, y = g.nodes[:, 0], g.nodes[:, 1]
        div_term = -lap / ok[:, None] ** 2 + (
            2.0 * g.mu**2 / ok**3)[:, None] * (
            x[:, None] * Pphi.dx + y[:, None] * Pphi.dy)
        div_term -= np.einsum("ij,ij->i", div_term, g.omega)[:, None] * g.omega
        izgrad = -y[:, None] * Pphi.dx + x[:, None] * Pphi.dy
        rhs = div_term + (2.0 * g.mu**2 / ok**3)[:, None] * np.cross(
            izgrad, g.omega) - (2.0 * g.mu**2 / ok**2)[:, None] * Pphi.values
        tang_direct = direct - normal_direct[:, None] * g.omega
        assert np.max(np.abs(tang_direct - rhs / params2.r**2)) < 1e-6


def test_wedge_integral_identity(grid16, params2, rng):
    # the rearrangement identity behind the nonnegative quadratic form
    g = grid16
    k = params2.k
    ok = g.omega[:, 2] + k
    wz = g.weights / g.mu**2
    for _ in range(5):
        f = ch.random_smooth_field(g, rng)
        psi, _ = ch.project_P(f)
        x, y = g.nodes[:, 0], g.nodes[:, 1]
        iz = -y[:, None] * psi.dx + x[:, None] * psi.dy
        lhs = 2.0 * np.sum(g.weights * np.einsum(
            "ij,ij->i", psi.values, np.cross(iz, g.omega)) / ok**3)
        rhs = 2.0 * np.sum(wz * np.einsum(
            "ij,ij->i", g.omega, np.cross(psi.dx, psi.dy)) / ok**2) \
            + np.sum(g.weights * np.einsum(
                "ij,ij->i", psi.values, psi.values) / ok**2)
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-8)


def test_spectrum(grid24, params2):
    rep = lin.spectrum_normal(params2, grid24, count=8)
    assert abs(rep.eigenvalues[0]) < 1e-8
    assert rep.multiplicities[0] == 1
    assert np.max(np.abs(rep.eigenvalues[1:4] - 4.0)) < 4.0e-3
    assert rep.multiplicities[1] == 3
    assert rep.eigenvalues[4] > 4.0
    assert np.all(rep.residuals < 1e-7)
    with pytest.raises(ValueError):
        lin.spectrum_normal(params2, grid24, count=3)
    doc = rep.to_json()
    assert doc["multiplicities"][0] == 1


def test_kernel(grid16, params2, sys16):
    rep = lin.kernel(sys16)
    assert rep.dimension == 9
    assert rep.gap >= 100.0
    # the kernel basis spans the tangent frame
    pack = sys16.pack
    B = np.stack([pack.project_vector(b.values) for b in rep.basis], axis=1)
    fm = pack.frame_modal.T
    coef = np.linalg.lstsq(B, fm, rcond=None)[0]
    resid = np.linalg.norm(fm - B @ coef, axis=0) / np.linalg.norm(fm, axis=0)
    assert np.max(resid) < 1e-6
    # mass-orthonormality of the returned basis
    gram = np.einsum("anc,bnc,n->ab",
                     np.stack([b.values for b in rep.basis]),
                     np.stack([b.values for b in rep.basis]),
                     grid16.weights)
    assert np.max(np.abs(gram - np.eye(9))) < 1e-10


def test_kernel_gap_is_the_tested_ratio(sys16):
    # the reported gap is the ratio compared with gap_factor: the kernel
    # certifies at its own gap and refuses just above it
    rep = lin.kernel(sys16)
    assert lin.kernel(sys16, gap_factor=rep.gap).dimension == 9
    with pytest.raises(AmbiguousKernelError):
        lin.kernel(sys16, gap_factor=rep.gap * (1 + 1e-12))


def test_kernel_refinement(params2):
    for n in (16, 32):
        g = ch.build_grid(n)
        system = lin.assemble_linearized(params2, Q0, g)
        assert lin.kernel(system).dimension == 9


def _nodal_basis(rep):
    return np.stack([b.values.ravel() for b in rep.basis], axis=1)


@pytest.mark.parametrize("n, k", [(16, 2.0), (24, 1.05), (48, 1.02)])
def test_kernel_matches_full_eigensolve(n, k, monkeypatch):
    # the kernel scans eigenvalues alone; the reference takes them from a
    # full eigh of every block, with the same gap search and selection
    system = lin.assemble_linearized(bb.make_params(k), Q0, ch.build_grid(n))
    rep = lin.kernel(system)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: np.linalg.eigh(A)[0])
    ref = lin.kernel(system)
    assert rep.dimension == ref.dimension
    assert rep.orders == ref.orders
    # past the kernel the values agree to 1e-9 relative, or to eps times
    # the largest: at (24, 1.05) the first value past the 6 found is 9.2e-6,
    # 1.8e-9 of the largest (5.2e3), so both solvers give it only to about
    # 1e-7 relative
    d, sv = rep.dimension, ref.singular_values
    tol = 1e-9 * sv[d:] + np.finfo(float).eps * sv.max()
    assert np.all(np.abs(rep.singular_values[d:] - sv[d:]) <= tol)
    B, R = _nodal_basis(rep), _nodal_basis(ref)
    coef = np.linalg.lstsq(R, B, rcond=None)[0]
    assert np.max(np.linalg.norm(B - R @ coef, axis=0)
                  / np.linalg.norm(B, axis=0)) <= 1e-12


def _count_calls(monkeypatch, name):
    """Record the shape of every matrix passed to ``np.linalg.<name>``."""
    calls, solver = [], getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name,
                        lambda A: calls.append(A.shape) or solver(A))
    return calls


def test_kernel_solves_eigenvectors_only_where_the_kernel_is(grid24, params2,
                                                            monkeypatch):
    # 21 blocks at n = 24; the kernel lies in the three of order |M| <= 1,
    # and a Cholesky factorization rules out all but four blocks
    system = lin.assemble_linearized(params2, Q0, grid24)
    assert len(list(system.pack.vector_blocks())) == 21
    calls = _count_calls(monkeypatch, "eigh")
    scans = _count_calls(monkeypatch, "eigvalsh")
    rep = lin.kernel(system)
    assert len(calls) == 3 and len(scans) == 4
    assert rep.dimension == 9 and sorted(set(rep.orders)) == [0, 1]


def test_spectrum_solves_eigenvectors_only_where_kept_values_are(
        grid24, params2, monkeypatch):
    # 19 scalar blocks at n = 24; the 8 lowest values lie in orders 0-2,
    # and a Cholesky factorization rules out all the blocks past them
    assert len(list(lin.operator_pack(grid24, params2).scalar_blocks())) == 19
    calls = _count_calls(monkeypatch, "eigh")
    scans = _count_calls(monkeypatch, "eigvalsh")
    rep = lin.spectrum_normal(params2, grid24, count=8)
    assert len(calls) == 3 and len(scans) == 3
    assert sorted(set(rep.orders)) == [0, 1, 2]


def _plant(pack, walk, i, block):
    """Make the pack's block walk ``walk`` yield ``block`` in place of its
    ``i``-th entry."""
    blocks = getattr(pack, walk)
    setattr(pack, walk, lambda: (block if j == i else b
                                 for j, b in enumerate(blocks())))


def _solve_every_block(monkeypatch):
    """Switch the certificates' Cholesky exclusion off."""
    monkeypatch.setattr(lin, "_rules_out", lambda *args: False)


@pytest.mark.parametrize("n, k", [(16, 2.0), (24, 1.05), (48, 1.02),
                                  (48, 1e8)])
def test_kernel_matches_every_block(n, k, monkeypatch):
    # the report is bit for bit the one from the eigenvalues of every
    # block, as if no block were ruled out; (24, 1.05) finds 6
    system = lin.assemble_linearized(bb.make_params(k), Q0, ch.build_grid(n))
    rep = lin.kernel(system)
    _solve_every_block(monkeypatch)
    full = lin.kernel(system)
    assert full.singular_values.size == system.size
    assert rep.singular_values.size < system.size
    assert (rep.dimension, rep.gap, rep.orders) == \
        (full.dimension, full.gap, full.orders)
    assert rep.singular_values[:17].tobytes() == \
        full.singular_values[:17].tobytes()
    assert _nodal_basis(rep).tobytes() == _nodal_basis(full).tobytes()
    assert rep.dimension == (6 if k == 1.05 else 9)


@pytest.mark.parametrize("n, k", [(16, 2.0), (24, 1.05), (48, 1.2)])
def test_spectrum_matches_eigenvectors_on_every_block(n, k, monkeypatch):
    # the report is bit for bit the one from eigenpairs of every block,
    # forced here by switching the Cholesky exclusion off and by eigenvalue
    # scans that select all blocks
    grid, params = ch.build_grid(n), bb.make_params(k)
    rep = lin.spectrum_normal(params, grid, count=8)
    _solve_every_block(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: np.zeros(len(A)))
    full = lin.spectrum_normal(params, grid, count=8)
    assert np.array_equal(rep.eigenvalues, full.eigenvalues)
    assert np.array_equal(rep.residuals, full.residuals)
    assert rep.orders == full.orders
    assert rep.multiplicities == full.multiplicities


# a planted smallest eigenvalue relative to the bound: just below it, and
# above it but inside the exclusion's margin
PLANTED = [1.0 - 1e-3, 0.5 * (1.0 + lin.SKIP_MARGIN)]


@pytest.mark.parametrize("factor", PLANTED)
def test_kernel_solves_a_block_planted_below_the_bound(grid24, params2,
                                                       factor, monkeypatch):
    # the block of order 10 moved so that its smallest eigenvalue sits at
    # factor times the window's bound: the Cholesky test fails, the block is
    # solved, and the report is the one from every block of the moved
    # operator, whose window takes the planted value only from below
    system = lin.assemble_linearized(params2, Q0, grid24)
    rep = lin.kernel(system)
    bound = rep.singular_values[16]
    blocks = list(system.pack.vector_blocks())
    i = next(i for i, (M, _, _) in enumerate(blocks) if M == 10)
    M, H, spans = blocks[i]
    A = system.scale * H
    low = np.linalg.eigvalsh(A)[0]
    assert low > 10 * bound and lin._rules_out(A, bound)
    moved = H - (low - factor * bound) / system.scale * np.eye(len(H))
    assert not lin._rules_out(system.scale * moved, bound)
    pack = lin._ModalPack(system.pack.grid, params2)
    _plant(pack, "vector_blocks", i, (M, moved, spans))
    planted = lin.LinearizedSystem(pack, system.scale)
    scans = _count_calls(monkeypatch, "eigvalsh")
    got = lin.kernel(planted)
    assert len(got.singular_values) == len(rep.singular_values) + 2 * len(H)
    assert (len(H),) * 2 in scans
    window = got.singular_values[:17]
    assert np.any(np.abs(window - factor * bound) <= 1e-9 * bound) \
        == (factor < 1)
    assert (window.tobytes() == rep.singular_values[:17].tobytes()) \
        == (factor > 1)
    _solve_every_block(monkeypatch)
    full = lin.kernel(planted)
    assert (got.dimension, got.gap, got.orders) == \
        (full.dimension, full.gap, full.orders)
    assert window.tobytes() == full.singular_values[:17].tobytes()


@pytest.mark.parametrize("factor", PLANTED)
def test_spectrum_solves_a_block_planted_below_the_cut(grid24, params2,
                                                       factor, monkeypatch):
    # the pencil of order 8 moved by a multiple of its mass so that its
    # smallest eigenvalue sits at factor times the cut: the Cholesky test
    # fails, the block is solved, and the spectrum is the one from every
    # block of the moved pencils, which takes the planted value only from
    # below
    rep = lin.spectrum_normal(params2, grid24, count=8)
    pack = lin.operator_pack(grid24, params2)
    m, K, B, spans = list(pack.scalar_blocks())[8]
    Linv = np.linalg.inv(np.linalg.cholesky(B))
    low = np.linalg.eigvalsh(Linv @ K @ Linv.T)[0]
    floor = 1.0 / np.sum(Linv**2)
    ev = rep.eigenvalues
    cut = lin._spectrum_cut(ev, 8)
    assert low > 10 * cut and lin._rules_out(K, cut, B, floor)
    moved = K - (low - factor * cut) * B
    assert not lin._rules_out(moved, cut, B, floor)
    planted = lin._ModalPack(grid24, params2)
    _plant(planted, "scalar_blocks", 8, (m, moved, B, spans))
    monkeypatch.setattr(lin, "operator_pack", lambda grid, params: planted)
    scans = _count_calls(monkeypatch, "eigvalsh")
    got = lin.spectrum_normal(params2, grid24, count=8)
    assert len(scans) == 4 and scans[-1] == K.shape
    assert np.any(np.abs(got.eigenvalues - factor * cut) <= 1e-9 * cut) \
        == (factor < 1)
    assert (got.eigenvalues.tobytes() == ev.tobytes()) == (factor > 1)
    _solve_every_block(monkeypatch)
    full = lin.spectrum_normal(params2, grid24, count=8)
    assert got.eigenvalues.tobytes() == full.eigenvalues.tobytes()
    assert got.residuals.tobytes() == full.residuals.tobytes()
    assert (got.orders, got.multiplicities) == \
        (full.orders, full.multiplicities)


def _move_eigenvectors(monkeypatch, shift):
    """Make ``eigh`` return every eigenvector moved by ``shift``."""
    eigh = np.linalg.eigh

    def moved(A):
        w, v = eigh(A)
        return w, v + shift * np.sin(np.arange(v.size)).reshape(v.shape)

    monkeypatch.setattr(np.linalg, "eigh", moved)


@pytest.mark.parametrize("shift", [0.0, 1e-9])
def test_spectrum_residuals_match_per_pair_formula(grid24, params2, shift,
                                                   monkeypatch):
    # the report's residuals, one matrix product per block, against the
    # backward error |K v - lam B v| / ((|K|_2 + |lam| |B|_2) |v|) pair by
    # pair: at the computed eigenpairs, where both are roundoff, and with
    # every eigenvector moved by ``shift``, which lifts the residuals far
    # above roundoff
    _move_eigenvectors(monkeypatch, shift)
    count = 8
    rep = lin.spectrum_normal(params2, grid24, count=count)
    pairs = []
    for m, K, B, spans in lin.operator_pack(grid24, params2).scalar_blocks():
        Linv = np.linalg.inv(np.linalg.cholesky(B))
        vals, vecs = np.linalg.eigh(Linv @ K @ Linv.T)
        vecs = Linv.T @ vecs
        normK, normB = np.linalg.norm(K, 2), np.linalg.norm(B, 2)
        for lam, v in list(zip(vals, vecs.T))[:count]:
            res = np.linalg.norm(K @ v - lam * (B @ v)) / (
                (normK + abs(lam) * normB) * np.linalg.norm(v))
            pairs += [(lam, res)] * len(spans)
    pairs.sort(key=lambda p: p[0])
    vals, res = (np.array(c) for c in zip(*pairs[:count]))
    assert np.array_equal(rep.eigenvalues, vals)
    assert shift == 0 or res.min() >= 1e-10
    assert np.max(np.abs(rep.residuals - res)) <= 1e-13


@pytest.mark.parametrize("n, k", [(24, 2.0), (32, 1e8)])
def test_spectrum_refuses_moved_eigenvectors(n, k, monkeypatch):
    # eigenvectors moved by 1e-6 lift the backward error above its 1e-7
    # bound at a moderate k and at a large one, where the pencil's scale is
    # far from 1
    _move_eigenvectors(monkeypatch, 1e-6)
    with pytest.raises(ConvergenceError, match="eigenpair residual"):
        lin.spectrum_normal(bb.make_params(k), ch.build_grid(n), count=8)


def test_spectrum_verdict_does_not_depend_on_count(grid16):
    # at k = 1.2, n = 16 the triple at 2k is split; a clustering tolerance
    # that scaled with the last eigenvalue asked for merged it at count 40
    params = bb.make_params(1.2)
    reps = [lin.spectrum_normal(params, grid16, count=c) for c in (5, 8, 40)]
    for rep in reps:
        assert rep.multiplicities[:3] == [1, 2, 1]
        assert rep.verdict()["resolved"] is False


def test_spectrum_verdict_needs_a_zero_eigenvalue(grid16, params2):
    # the same report with lambda_0 = 1e-3 keeps its clusters and its triple
    rep = lin.spectrum_normal(params2, grid16, count=8)
    assert rep.verdict()["resolved"] is True
    lam = rep.eigenvalues.copy()
    lam[0] = 1e-3
    off = replace(rep, eigenvalues=lam).verdict()
    assert off["low_eigenvalue"] == 1e-3
    assert off["triple_at_2k_error"] == rep.verdict()["triple_at_2k_error"]
    assert off["resolved"] is False


def test_kernel_verdict_needs_exactly_nine(grid16, sys16):
    # a tenth direction still reconstructs the frame, but it is a degeneracy
    rep = lin.kernel(sys16)
    assert rep.verdict(sys16)["resolved"] is True
    extra = ch.random_smooth_field(grid16, np.random.default_rng(0))
    wide = replace(rep, dimension=10, basis=rep.basis + [extra],
                   orders=rep.orders + [0])
    verdict = wide.verdict(sys16)
    assert verdict["frame_reconstruction_residual"] <= 1e-6
    assert verdict["resolved"] is False


def test_operator_cache_holds_one_pack(grid16, grid24, params2):
    # one pack at n = 48 holds about 2.5 MB of its own after a certificate
    # and a solve, and no caller alternates (n, k)
    lin.operator_pack(grid16, params2)
    pack = lin.operator_pack(grid24, params2)
    assert lin._pack.cache_info().currsize == 1
    assert lin.operator_pack(grid24, params2) is pack


def _owner(a):
    """The array that owns ``a``'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _own_arrays(pack):
    """The arrays the pack holds of its own: every array in its fields,
    looking into dicts, lists and tuples, less those of the basis it
    shares (its grids hold theirs in objects, which are not looked into)."""
    shared = {id(_owner(a)) for a in _basis_arrays(pack.basis)}
    own = {id(_owner(a)): _owner(a) for v in vars(pack).values()
           for a in _arrays(v)}
    return [a for key, a in own.items() if key not in shared]


class _CachingPack(lin._ModalPack):
    """A planted pack that keeps every block it walks."""

    def vector_blocks(self):
        if "held_vector" not in vars(self):
            self.held_vector = list(super().vector_blocks())
        return iter(self.held_vector)

    def scalar_blocks(self):
        if "held_scalar" not in vars(self):
            self.held_scalar = list(super().scalar_blocks())
        return iter(self.held_scalar)


BUMP = "exp(-hypdist(0,0,1)^2)"
Q_SOLVE = HyperbolicPoint(0.05, 0.0, 1.0)


@pytest.mark.parametrize("planted", [False, True])
def test_pack_holds_no_block_after_a_certificate_and_a_solve(
        params2, planted, monkeypatch):
    # at n = 48 the pack keeps 2.06 MB of saddle inverses and 0.40 MB of
    # frame_modal, besides its densities; 1.9 MB of Gram blocks and
    # 0.44 MB of scalar pencils kept again lift it past the bound
    if planted:
        monkeypatch.setattr(lin, "_ModalPack", _CachingPack)
    lin._pack.cache_clear()
    grid = ch.build_grid(48)
    system = lin.assemble_linearized(params2, Q0, grid)
    lin.kernel(system)
    lin.spectrum_normal(params2, grid, count=8)
    reduction.correct(0.01, Q_SOLVE, phi_expr.phi_to_prescribed(BUMP),
                      params2, grid)
    lin._pack.cache_clear()     # no later test may take the planted pack
    own = _own_arrays(system.pack)
    assert (sum(a.nbytes for a in own) <= 2.8e6) == (not planted)
    assert "frame" not in vars(system.pack)
    assert (grid.size, 3) not in [a.shape for a in own]


def _frame_modal_peak(build):
    """The traced peak bytes of ``build()`` and its result."""
    tracemalloc.start()
    try:
        out = build()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_frame_modal_projects_a_third_of_the_frame_at_a_time(params2):
    # at n = 48 the grouped projection, its transient frame included, peaks
    # at about 2.5 MB; the nine generators as one batch reach 3.1 MB
    grid = ch.build_grid(48)
    pack = lin._ModalPack(grid, params2)
    grouped, fm = _frame_modal_peak(lambda: pack.frame_modal)
    batched, ref = _frame_modal_peak(lambda: pack.project_vector(
        np.stack(bb.tangent_frame(params2, grid).generators())))
    assert grouped <= 2.8e6 < batched
    assert fm.tobytes() == ref.tobytes()


def test_certificate_and_solve_commute_on_one_pack(params2):
    # the blocks are assembled where they are walked, so the order of a
    # certificate and a solve on one pack changes no bit of either
    grid, phi = ch.build_grid(48), phi_expr.phi_to_prescribed(BUMP)
    runs = []
    for kernel_first in (True, False):
        lin._pack.cache_clear()
        system = lin.assemble_linearized(params2, Q0, grid)
        if kernel_first:
            rep = lin.kernel(system)
        state = reduction.correct(0.01, Q_SOLVE, phi, params2, grid)
        if not kernel_first:
            rep = lin.kernel(system)
        runs.append([json.dumps([rep.to_json(), rep.verdict(system)]),
                     rep.singular_values, _nodal_basis(rep), state.nu_modal,
                     state.xi, state.alpha, state.surface.values,
                     state.iterations])
    assert all(map(_same_bits, *runs))


def _same_bits(a, b):
    """Whether two values hold the same arrays bit for bit, looking into
    lists and tuples."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape \
            and a.tobytes() == b.tobytes()
    return a == b


def _certificate(n, k):
    """A pack's operator arrays and its certificate's documents at (n, k)."""
    grid, params = ch.build_grid(n), bb.make_params(k)
    system = lin.assemble_linearized(params, Q0, grid)
    rep = lin.kernel(system)
    spec = lin.spectrum_normal(params, grid, count=8)
    pack = system.pack
    docs = json.dumps([rep.to_json(), rep.verdict(system), spec.to_json(),
                       spec.verdict()])
    return [list(pack.vector_blocks()), list(pack.scalar_blocks()),
            pack.saddle_factors, pack.frame_modal, docs]


def test_pack_on_a_cached_basis_equals_a_cold_one():
    # the basis a pack takes from the cache, after packs at other k on the
    # same grid and a pack on another grid, gives every bit of a cold one
    lin._basis.cache_clear()
    lin._pack.cache_clear()
    cold = _certificate(24, 2.0)
    lin._basis.cache_clear()
    for n, k in ((24, 1.5), (16, 2.0), (24, 3.7)):
        list(lin.operator_pack(ch.build_grid(n),
                               bb.make_params(k)).vector_blocks())
    assert lin._basis.cache_info().currsize == 2
    warm = _certificate(24, 2.0)
    assert lin._basis.cache_info().hits >= 2
    assert all(map(_same_bits, cold, warm))


def _basis_arrays(basis):
    """The arrays the basis shares between packs: its own fields and the
    tables and directions in its lists and tuples (not its grids, which
    hold their own frozen arrays)."""
    return [a for v in vars(basis).values() for a in _arrays(v)]


def test_packs_at_every_k_share_one_read_only_basis(grid24):
    a = lin._ModalPack(grid24, bb.make_params(1.5))
    b = lin._ModalPack(grid24, bb.make_params(3.7))
    assert a.basis is b.basis
    basis = a.basis
    basis.vector_layout
    for name in ("_profiles", "_slots", "_modal", "_fourier", "mode_degrees",
                 "meridian"):
        assert getattr(a, name) is getattr(basis, name)
        assert getattr(b, name) is getattr(basis, name)
    shared = _basis_arrays(basis)
    assert len(shared) > 3 * (basis.degree + 1)
    assert not any(x.flags.writeable for x in shared)
    with pytest.raises(ValueError, match="read-only"):
        a._profiles[0, 0, 0, 0] = 1.0
    # a pack's own blocks stay its own, on the basis's one block map
    assert not np.array_equal(next(a.vector_blocks())[1],
                              next(b.vector_blocks())[1])
    assert a.basis.vector_layout[1] is b.basis.vector_layout[1]


def test_basis_cache_is_bounded():
    # the two grids of a certificate job stay cached; at n = 48 a basis
    # with its vector layout holds about 2.5 MB of arrays of its own,
    # besides its grids
    assert lin._basis.cache_parameters()["maxsize"] == 2
    lin._basis.cache_clear()
    for n in (16, 24, 48):
        lin._basis(n)
    assert lin._basis.cache_info().currsize == 2
    basis = lin._basis(48)
    basis.vector_layout
    owners = {}
    for x in _basis_arrays(basis):
        while isinstance(x.base, np.ndarray):
            x = x.base
        owners[id(x)] = x.nbytes
    assert 2.3e6 < sum(owners.values()) < 2.6e6


# ---------------------------------------------------------------------------
# the block route against a dense reference


def _trig_modes(pack, grid, m, odd):
    """Values and chart derivatives ``(d/dx, d/dy)`` of the orthonormal
    scalar modes ``P_{m,j}(s) cos(m theta)`` (``sin`` if odd) of order
    ``m`` at the nodes of a grid with the pack's polar nodes, from real
    trigonometric tables of the grid's azimuths."""
    P, dP_ds = pack._profiles[m, :, :, :pack.degree - m + 1]
    cos, sin = np.cos(m * grid.theta), np.sin(m * grid.theta)
    tr, dtr = (sin, m * cos) if odd else (cos, -m * sin)
    outer = lambda a, t: (a[:, None, :] * t[None, :, None]).reshape(
        grid.size, -1)
    dx, dy = ch.polar_to_chart(grid, outer(dP_ds, tr).T, outer(P, dtr).T)
    return outer(P, tr), dx.T, dy.T


def _nodal_tables(pack):
    """The orthonormal scalar modes and their chart derivatives at every grid
    node, as three N x nmodes tables built from the pack's profiles."""
    tables = [np.empty((pack.grid.size, pack.nmodes)) for _ in range(3)]
    for m in range(pack.degree + 1):
        for odd in (0, 1) if m else (0,):
            cols = pack.basis._index(m, odd)
            for table, modes in zip(tables, _trig_modes(pack, pack.grid, m,
                                                        odd)):
                table[:, cols] = modes
    return tables


def _ring_blocks(pack):
    """The pack's vector blocks ``{(M, parity): H}`` and scalar pencils
    ``{(m, sin?): (K, B)}`` by quadrature over whole rings of azimuths: each
    block's real columns sampled on the polar nodes times enough azimuths
    (``chart.with_azimuths``) to integrate their products exactly, since a
    vector block of order M carries azimuthal degrees up to M + 4 and a
    scalar one up to m + 1."""
    k, deg = pack.params.k, pack.degree
    vector, scalar = {}, {}
    for M in range(deg + 2):
        for odd in (0, 1):
            ring = ch.with_azimuths(pack.grid, 2 * M + 9)
            groups = lin._vector_groups(M, odd, deg)
            size = sum(deg - m + 1 for m, _ in groups)
            U = np.zeros((3, 3, ring.size, size))  # value/dx/dy, comp
            start = 0
            for m, d in groups:
                J = deg - m + 1
                cos, sin = (_trig_modes(pack, ring, m, odd) for odd in (0, 1))
                for kind in range(3):
                    U[kind, :, :, start:start + J] = (
                        d.real[:, None, None] * cos[kind]
                        - d.imag[:, None, None] * sin[kind])
                start += J
            w, mu, om = ring.weights, ring.mu, ring.omega
            dox, doy = ring.domega_dx, ring.domega_dy
            ok = om[:, 2] + k
            v, ux, uy = U
            dot = lambda a, b: np.einsum("pc,cpj->pj", a, b)
            Ctan, C2 = w / (mu**4 * ok**2), w / (mu**2 * ok**2)
            terms = (
                (dot(dox, ux) - dot(doy, uy), Ctan, 1.0),
                (dot(doy, ux) + dot(dox, uy), Ctan, 1.0),
                (dot(om, ux) + dot(dox, v), C2, 1.0),
                (dot(om, uy) + dot(doy, v), C2, 1.0),
                (dot(om, v), w / ok**3, -2.0 * k),
            )
            H = sum(coef * (B.T @ (weight[:, None] * B))
                    for B, weight, coef in terms)
            vector[(M, odd)] = 0.5 * (H + H.T)
    for m in range(deg + 1):
        for odd in (0, 1) if m else (0,):
            ring = ch.with_azimuths(pack.grid, 2 * m + 3)
            w, mu = ring.weights, ring.mu
            ok = ring.omega[:, 2] + k
            C2 = w / (mu**2 * ok**2)
            p0, px, py = _trig_modes(pack, ring, m, odd)
            K = px.T @ (C2[:, None] * px) + py.T @ (C2[:, None] * py)
            B = p0.T @ ((w / ok**3)[:, None] * p0)
            scalar[(m, odd)] = (0.5 * (K + K.T), 0.5 * (B + B.T))
    return vector, scalar


def _dense_reference(pack):
    """The dense Galerkin matrices from nodal tables of the basis: the weak
    matrix of ``r^2 J'(U)`` on vector modes as five terms
    ``coef * B^T diag(weight) B`` (the two first-order tangential
    expressions, then the scalar normal block on the omega components: two
    derivative parts and the mass part), and the scalar normal pencil."""
    grid, nm, k = pack.grid, pack.nmodes, pack.params.k
    w, mu, om = grid.weights, grid.mu, grid.omega
    ok = om[:, 2] + k
    dox, doy = grid.domega_dx, grid.domega_dy
    p0, px, py = _nodal_tables(pack)
    C2 = w / (mu**2 * ok**2)
    Ctan = w / (mu**4 * ok**2)
    terms = (
        (lambda c: dox[:, c, None] * px - doy[:, c, None] * py, Ctan, 1.0),
        (lambda c: doy[:, c, None] * px + dox[:, c, None] * py, Ctan, 1.0),
        (lambda c: om[:, c, None] * px + dox[:, c, None] * p0, C2, 1.0),
        (lambda c: om[:, c, None] * py + doy[:, c, None] * p0, C2, 1.0),
        (lambda c: om[:, c, None] * p0, w / ok**3, -2.0 * k),
    )
    H = np.zeros((3 * nm, 3 * nm))
    for block, weight, coef in terms:
        B = np.empty((grid.size, 3 * nm))
        for c in range(3):
            B[:, c * nm:(c + 1) * nm] = block(c)
        H += coef * (B.T @ (weight[:, None] * B))
    K = px.T @ (C2[:, None] * px) + py.T @ (C2[:, None] * py)
    Bm = p0.T @ ((w / ok**3)[:, None] * p0)
    sym = lambda A: 0.5 * (A + A.T)
    return sym(H), sym(K), sym(Bm)


def _block_matrix(pack):
    """The pack's vector operator as one dense matrix, applied block by
    block to the identity."""
    system = lin.LinearizedSystem(pack, scale=1.0)
    return system.apply_modal(np.eye(system.size))


def _frame_residual(pack, vecs):
    fm = pack.frame_modal.T
    coef = np.linalg.lstsq(vecs, fm, rcond=None)[0]
    return float(np.max(np.linalg.norm(fm - vecs @ coef, axis=0)
                        / np.linalg.norm(fm, axis=0)))


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("k", [1.5, 2.0, 5.0])
def test_blocks_match_dense_reference(n, k):
    grid, params = ch.build_grid(n), bb.make_params(k)
    system = lin.assemble_linearized(params, Q0, grid)
    pack = system.pack
    H, K, B = _dense_reference(pack)
    top = np.max(np.abs(H))
    assert np.max(np.abs(_block_matrix(pack) - H)) <= 1e-13 * top
    union = np.sort(np.concatenate(
        [np.linalg.eigvalsh(A) for _, A, spans in pack.vector_blocks()
         for _ in spans]))
    vals, vecs = sla.eigh(H)
    assert np.max(np.abs(union - vals)) <= 1e-13 * top
    # the kernel reconstructs the frame to roundoff, or as well as the
    # dense kernel where the grid's own kernel error is larger (n = 16)
    dense = _frame_residual(pack, vecs[:, np.argsort(np.abs(vals))[:9]])
    rep = lin.kernel(system)
    assert rep.dimension == 9
    assert rep.frame_residual(system) <= max(1e-10, 2.0 * dense)
    spec = lin.spectrum_normal(params, grid, count=8)
    ref = sla.eigh(K, B, eigvals_only=True, subset_by_index=[0, 7])
    assert np.all(np.abs(spec.eigenvalues - ref)
                  <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("n", [40, 56])
@pytest.mark.parametrize("k", [1.1, 3.0])
def test_blocks_match_ring_quadrature(n, k):
    # one azimuth with whole-ring weights against the exact ring rule
    pack = lin._ModalPack(ch.build_grid(n), bb.make_params(k))
    vector, scalar = _ring_blocks(pack)
    # each parity range of a held block, in layout order: (M, even), (M, odd)
    held_vector = [(M, H) for M, H, spans in pack.vector_blocks()
                   for _ in spans]
    held_scalar = [(m, (K, B)) for m, K, B, spans in pack.scalar_blocks()
                   for _ in spans]
    assert [M for M, _ in held_vector] == [M for M, _ in vector]
    assert [m for m, _ in held_scalar] == [m for m, _ in scalar]
    top = max(np.max(np.abs(H)) for H in vector.values())
    for key, (_, H) in zip(vector, held_vector):
        assert np.max(np.abs(H - vector[key])) <= 1e-13 * top, key
    for i in (0, 1):
        top = max(np.max(np.abs(pencil[i])) for pencil in scalar.values())
        for key, (_, pencil) in zip(scalar, held_scalar):
            diff = np.max(np.abs(pencil[i] - scalar[key][i]))
            assert diff <= 1e-13 * top, (key, i)


def _arrays(value):
    """Every array held in a value, looking into dicts, lists and tuples."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _arrays(v)
    elif hasattr(value, "shape"):
        yield value


def _held_shapes(*objects):
    """Shapes of every array held in the objects' fields."""
    return [a.shape for obj in objects for v in vars(obj).values()
            for a in _arrays(v)]


def _forbid_modal_products(monkeypatch):
    def dense(*args):
        raise AssertionError("the operator was applied to modal vectors")

    lin._pack.cache_clear()
    monkeypatch.setattr(lin.LinearizedSystem, "apply_modal", dense)


def test_certificate_never_forms_the_dense_operator(grid24, params2,
                                                    monkeypatch):
    _forbid_modal_products(monkeypatch)
    system = lin.assemble_linearized(params2, Q0, grid24)
    lin.kernel(system)
    lin.spectrum_normal(params2, grid24, count=8)
    pack = system.pack
    nm, N = pack.nmodes, grid24.size
    dense_shapes = {(3 * nm, 3 * nm), (N, 3 * nm), (3 * nm, N), (nm, nm)}
    assert not dense_shapes.intersection(_held_shapes(pack, system))


def test_solves_never_form_the_dense_operator(grid24, params2, monkeypatch):
    _forbid_modal_products(monkeypatch)
    phi = phi_expr.phi_to_prescribed("exp(-hypdist(0,0,1)^2)")
    state = reduction.correct(0.01, HyperbolicPoint(0.05, 0.0, 1.0), phi,
                              params2, grid24)
    system = lin.assemble_linearized(params2, Q0, grid24)
    pack = system.pack
    nm, N = pack.nmodes, grid24.size
    dense_shapes = {(N, nm), (nm, N), (N, 3 * nm), (3 * nm, N),
                    (3 * nm + 9, 3 * nm + 9)}
    assert not dense_shapes.intersection(_held_shapes(pack, system, state))


def test_vector_blocks_hold_square_matrices(grid24, params2):
    # the map between modal coefficients and block coordinates is held once,
    # as index data of its nonzeros, not as a coordinate matrix per block
    lin._pack.cache_clear()
    system = lin.assemble_linearized(params2, Q0, grid24)
    lin.kernel(system)
    phi = phi_expr.phi_to_prescribed("exp(-hypdist(0,0,1)^2)")
    reduction.correct(0.01, HyperbolicPoint(0.05, 0.0, 1.0), phi, params2,
                      grid24)
    pack = system.pack
    held = list(_arrays((list(pack.vector_blocks()),
                         pack.basis.vector_layout[1])))
    assert all(a.shape[0] == a.shape[1] for a in held if a.ndim == 2)
    index = sum(a.size for a in held if a.ndim == 1)
    assert index <= 3 * 2 * (3 * pack.nmodes)


def test_block_map_takes_matrices_column_by_column(grid24, params2, rng):
    # a matrix goes through the map one column at a time, with the bits of
    # the single-vector calls, and the map is orthogonal
    pack = lin.operator_pack(grid24, params2)
    X = rng.standard_normal((3 * pack.nmodes, 9))
    for f in (pack.to_blocks, pack.from_blocks):
        assert np.array_equal(f(X), np.stack([f(x) for x in X.T], axis=1))
    assert np.max(np.abs(pack.from_blocks(pack.to_blocks(X)) - X)) <= 1e-14


def _add_at(dst, src, vals, a):
    """``out[dst] += vals * a[src]`` through ``np.add.at``, one column at a
    time: the sums the block map made before its two-part gather."""
    out = np.zeros(np.shape(a))
    a, cols = a.reshape(len(a), -1), out.reshape(len(out), -1)
    for j in range(cols.shape[1]):
        np.add.at(cols[:, j], dst, vals * a[src, j])
    return out


@pytest.mark.parametrize("n", [16, 40])
def test_block_map_sums_as_add_at(n, rng):
    # the map holds each coordinate's first nonzero in coordinate order,
    # for both directions, and the rest at most one per row and column;
    # the gather sums give the bits of np.add.at's (0.0 + p1) + p2,
    # signed zeros included: on all -0.0 that is +0.0 everywhere
    pack = lin._ModalPack(ch.build_grid(n), bb.make_params(2.0))
    (by_row, row_vals), (by_col, col_vals), second = \
        pack.basis.vector_layout[1]
    size = 3 * pack.nmodes
    first = np.arange(size)
    assert np.array_equal(by_col[by_row], first)
    assert np.array_equal(col_vals[by_row], row_vals)
    for index in second[:2]:
        assert np.unique(index).size == index.size
    rows, cols, vals = (np.concatenate(a) for a in zip(
        (first, by_row, row_vals), second))
    X = rng.standard_normal((size, 5))
    X[rng.random(X.shape) < 0.3] = 0.0
    X[rng.random(X.shape) < 0.3] = -0.0
    X[:, 0] = -0.0
    for x in (X, X[:, 1], X[:, 0]):
        assert pack.to_blocks(x).tobytes() == \
            _add_at(rows, cols, vals, x).tobytes()
        assert pack.from_blocks(x).tobytes() == \
            _add_at(cols, rows, vals, x).tobytes()
    assert not np.signbit(pack.to_blocks(X[:, 0])).any()


def test_layout_holds_each_directions_factors_once(grid24, params2):
    # the per-node dot products of the vector Gram terms are the basis's,
    # one read-only copy per direction, with the bits of the products
    # taken per group
    basis = lin._basis(grid24.n)
    mer, deg = basis.meridian, basis.degree
    shared = {}
    # the layout holds order 0 once per parity, then each order once
    for i, (M, groups, _) in enumerate(basis.vector_layout[0]):
        odd = int(i == 1)
        for (m, factors), (m2, d) in zip(groups,
                                         lin._vector_groups(M, odd, deg)):
            assert m == m2
            for f, got in zip((mer.omega, mer.domega_dx, mer.domega_dy),
                              factors):
                assert got.tobytes() == (f @ d)[:, None].tobytes()
                assert not got.flags.writeable
            shared.setdefault(d.tobytes(), factors)
            assert shared[d.tobytes()] is factors
    assert len(shared) == 5


@pytest.mark.parametrize("n", [16, 24, 48])
def test_meridian_modes_are_the_chart_transform(n, params2):
    # the closed form at theta = 0 is the general polar-to-chart transform,
    # value for value, for every order; the angular table is real, the
    # factor of i in d/dy
    pack = lin._ModalPack(ch.build_grid(n), params2)
    for m in range(pack.degree + 1):
        P, dP = pack._profiles[m, :, :, :pack.degree - m + 1]
        expect = (P,) + tuple(a.T for a in ch.polar_to_chart(
            pack.meridian, dP.T, (1j * m * P).T))
        t0, tx, ty = pack.basis.meridian_modes[m]
        assert ty.dtype == np.float64
        for got, want in zip((t0, tx, 1j * ty), expect):
            assert np.array_equal(got, want)


def test_mode_labels(grid24, params2):
    spec = lin.spectrum_normal(params2, grid24, count=8)
    ev, orders = spec.eigenvalues, spec.orders
    assert orders[0] == 0 and abs(ev[0]) < 1e-8
    assert sorted(orders[1:4]) == [0, 1, 1]
    assert orders[4] == 0 and ev[4] == pytest.approx(11.079, abs=1e-3)
    assert orders[5:7] == [1, 1]
    assert np.allclose(ev[5:7], 11.182, atol=1e-3)
    assert orders[7] == 2 and ev[7] == pytest.approx(11.490, abs=1e-3)
    assert spec.to_json()["orders"] == orders
    system = lin.assemble_linearized(params2, Q0, grid24)
    assert lin.kernel(system).to_json()["orders"] == {"0": 3, "1": 6}


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("k", [1.5, 3.0])
def test_cluster_orders_ascend(n, k):
    # roundoff orders the eigenvalues inside a degenerate cluster; its
    # labels must not follow it, and each must label one of its eigenvalues
    params, grid = bb.make_params(k), ch.build_grid(n)
    spec = lin.spectrum_normal(params, grid, count=8)
    pack = lin.operator_pack(grid, params)
    pencils = {m: (K, B) for m, K, B, _ in pack.scalar_blocks()}
    start = 0
    for mult in spec.multiplicities:
        orders = spec.orders[start:start + mult]
        assert orders == sorted(orders), (start, orders)
        lo, hi = spec.eigenvalues[[start, start + mult - 1]]
        tol = 1e-12 * max(1.0, abs(hi))
        for m in orders:
            ev = sla.eigh(*pencils[m], eigvals_only=True)
            assert np.any((ev >= lo - tol) & (ev <= hi + tol)), (lo, m)
        start += mult


# ---------------------------------------------------------------------------
# the FFT transforms and the block-bordered solve


@pytest.mark.parametrize("n", [16, 24, 40])
def test_transforms_match_nodal_tables(n, params2):
    pack = lin.operator_pack(ch.build_grid(n), params2)
    tables = _nodal_tables(pack)
    rng = np.random.default_rng(n)
    coeffs = rng.standard_normal((pack.nmodes, 3))
    for fast, table in zip(pack.synthesis(coeffs.T, jet=True), tables):
        ref = (table @ coeffs).T
        assert np.max(np.abs(fast - ref)) <= 1e-13 * np.max(np.abs(ref))
    fields = rng.standard_normal((2, pack.grid.size, 3))
    ref = np.stack([((pack.grid.weights[:, None] * f).T @ tables[0]).ravel()
                    for f in fields])
    fast = pack.project_vector(fields)
    assert np.max(np.abs(fast - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [16, 24, 40])
def test_modal_laplacian_matches_spectral(n, params2):
    # the Laplacian from the modes' degrees against spectral second
    # derivatives of the exact first ones, on a field with a real tail
    pack = lin.operator_pack(ch.build_grid(n), params2)
    rng = np.random.default_rng(n)
    decay = 10.0 ** (-6.0 * pack.mode_degrees / pack.degree)
    coeffs = (rng.standard_normal((3, pack.nmodes)) * decay).ravel()
    _, dx, dy, lap = pack.nodal_vector_jet(coeffs)
    dxx, _ = ch.spectral_derivatives(pack.grid, dx.T)
    _, dyy = ch.spectral_derivatives(pack.grid, dy.T)
    ref = (dxx + dyy).T
    assert np.max(np.abs(lap - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([8, 12, 16, 24]), st.integers(0, 2**32 - 1),
       st.integers(0, 6))
def test_analysis_inverts_synthesis(n, seed, decades):
    pack = lin._ModalPack(ch.build_grid(n), bb.make_params(2.0))
    rng = np.random.default_rng(seed)
    # coefficients spread over several decades, as a resolved field's are
    coeffs = rng.standard_normal(pack.nmodes) * 10.0 ** (
        -decades * pack.mode_degrees / pack.degree)
    back = pack.analysis(pack.synthesis(coeffs))
    assert np.max(np.abs(back - coeffs)) <= 1e-13 * np.max(np.abs(coeffs))


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("k", [1.02, 1.5, 2.0, 5.0])
def test_saddle_solve_matches_dense_kkt(n, k):
    # k = 1.02 is the worst-conditioned case, cond(KKT) about 5e5 at n = 24
    pack = lin.operator_pack(ch.build_grid(n), bb.make_params(k))
    size, F = 3 * pack.nmodes, pack.frame_modal
    KKT = np.zeros((size + 9, size + 9))
    KKT[:size, :size] = _block_matrix(pack)
    KKT[:size, size:] = -F.T
    KKT[size:, :size] = F
    rng = np.random.default_rng(7)
    r, s = rng.standard_normal(size), rng.standard_normal(9)
    ref = np.linalg.solve(KKT, np.concatenate([r, s]))
    c, m = pack.saddle_solve(r, s)
    assert np.max(np.abs(c - ref[:size])) <= 1e-12 * np.max(np.abs(ref[:size]))
    assert np.max(np.abs(m - ref[size:])) <= 1e-12 * np.max(np.abs(ref[size:]))


def test_saddle_solve_rejects_a_frame_across_blocks(grid16, params2):
    pack = lin._ModalPack(grid16, params2)
    F = pack.frame_modal.copy()
    F[0] += 1e-9 * F[3]                   # mix two generators' blocks
    pack.frame_modal = F
    with pytest.raises(NumericsError, match="several operator blocks"):
        pack.saddle_factors


# ---------------------------------------------------------------------------
# spectral convergence in n


@pytest.mark.parametrize("k", [1.5, 2.0])
def test_resolution(k):
    """The triple eigenvalue at 2k converges geometrically in n down to a
    roundoff floor, and the kernel gap holds at every n."""
    params = bb.make_params(k)
    errors = []
    for n in (8, 12, 16, 20, 24, 32, 48, 64):
        grid = ch.build_grid(n)
        ev = lin.spectrum_normal(params, grid, count=8).eigenvalues
        errors.append(float(np.max(np.abs(ev[1:4] - 2.0 * k)) / (2.0 * k)))
        rep = lin.kernel(lin.assemble_linearized(params, Q0, grid))
        assert rep.gap >= 100.0, (n, rep.gap)
        assert n < 12 or rep.dimension == 9, (n, rep.dimension)
    for coarse, fine in zip(errors, errors[1:]):
        if coarse > 1e-12:
            assert fine <= 0.1 * coarse, errors
        else:
            assert fine <= 1e-12, errors


@pytest.mark.parametrize("k, sizes", [(1.05, range(16, 37, 4)),
                                      (1.02, range(24, 57, 8))])
def test_resolution_rate(k, sizes):
    """Towards k = 1 the triple at 2k converges by ``rho^2`` per unit of n,
    ``rho = k + sqrt(k^2 - 1)``: the Bernstein ellipse of the pole of the
    mass weight ``(cos s + k)^-3`` at ``cos s = -k``.  The measured per-n
    factor rises towards ``rho^2`` (1.685 to 1.769 against 1.877 at
    k = 1.05, 1.399 to 1.435 against 1.491 at k = 1.02) and stays below."""
    params = bb.make_params(k)
    rho2 = (k + np.sqrt(k * k - 1.0)) ** 2
    errors = []
    for n in sizes:
        ev = lin.spectrum_normal(params, ch.build_grid(n), count=8).eigenvalues
        errors.append(float(np.max(np.abs(ev[1:4] - 2.0 * k)) / (2.0 * k)))
    factors = [(coarse / fine) ** (1.0 / sizes.step)
               for coarse, fine in zip(errors, errors[1:])]
    assert all(a < b for a, b in zip(factors, factors[1:])), factors
    assert 0.9 * rho2 <= factors[-1] <= rho2, (factors, rho2)


@pytest.mark.parametrize("n", [112, 128])
def test_certificate_near_k_one(n):
    """Towards k = 1 the triple's error falls only by about
    ``(k + sqrt(k^2 - 1))^2`` per unit of n, so k = 1.01 needs n near 112;
    a certificate there takes a few seconds.  At n = 128 the largest
    singular value is 5.9e16, so a ratio floor of eps times it (13) would
    cover the kernel's whole jump from 1.3e-11 to 3.3e-4; each block's own
    floor keeps the certificate."""
    params, grid = bb.make_params(1.01), ch.build_grid(n)
    system = lin.assemble_linearized(params, Q0, grid)
    rep = lin.kernel(system)
    assert rep.dimension == 9
    assert rep.frame_residual(system) <= 1e-6
    spec = lin.spectrum_normal(params, grid, count=8)
    assert spec.multiplicities[:2] == [1, 3]
    assert np.max(np.abs(spec.eigenvalues[1:4] - 2.02)) / 2.02 <= 1e-3

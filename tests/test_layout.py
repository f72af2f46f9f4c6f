"""The corrector's component-major pass against the ``(N, 3)`` pass it
replaced, kept here as the test oracle.

The corrector keeps its nodal fields component-major, ``(3, N)`` with the
azimuth fastest, so the pack's FFTs run on the last axis.  The oracle is
the former layout: the jet's inverse FFT on axis 2 of a ``(4, n, M, 3)``
array with the chart derivatives taken on ``(N, 3)`` rows, the nodal
residual from ``einsum`` and ``np.cross`` rows, and the projection that
moves the components last before its FFT.  Every floating-point operation
kept its order, so the two must agree bit for bit, on single passes and
on whole corrector solves.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cmc_hyp import bubbles as bb
from cmc_hyp import chart as ch
from cmc_hyp import linearized as lin
from cmc_hyp import reduction as red
from cmc_hyp.halfspace import HyperbolicPoint, positive_heights
from cmc_hyp.phi_expr import phi_to_prescribed

BOX = (-0.4, 0.4, -0.4, 0.4, 0.6, 1.6)
BUMP = "exp(-hypdist(0.1,0,0.9)^2) + 0.02*p1"


def _row_slots(D):
    """Each scalar mode's flat position in a ``(cos/sin, m, j)`` array."""
    return np.concatenate([(odd * D + m) * D + np.arange(D - m) for m in
                           range(D) for odd in ((0, 1) if m else (0,))])


def _polar_to_chart_rows(grid, ds, dt):
    """Chart derivatives of ``(N, ...)`` polar samples."""
    extra = (1,) * (ds.ndim - 1)
    ct = np.cos(grid.theta).reshape((1, -1) + extra)
    st = np.sin(grid.theta).reshape((1, -1) + extra)
    rr = grid.rho.reshape((-1, 1) + extra)
    mu = grid.mu.reshape((grid.n, grid.ntheta) + extra)
    drho = mu * grid.node_shape(ds)
    dt = grid.node_shape(dt)
    dx = ct * drho - st / rr * dt
    dy = st * drho + ct / rr * dt
    return dx.reshape(ds.shape), dy.reshape(ds.shape)


def _jet_rows(pack, coeffs):
    """Values, ``d/dx``, ``d/dy`` and chart Laplacian ``(N, 3)`` of modal
    vector coefficients, the inverse FFT taken on axis 2."""
    grid, D, deg = pack.grid, pack.degree + 1, pack.mode_degrees
    C = coeffs.reshape(3, pack.nmodes).T
    B = 3
    fourier = np.full(D, grid.ntheta / 2.0)
    fourier[0] = grid.ntheta
    slots = _row_slots(D)
    lap = -(deg * (deg + 1.0))[:, None] * C
    F = np.zeros((4, grid.n, grid.ntheta // 2 + 1, B), complex)
    at = 0
    for tables, c in ((pack._profiles, C), (pack._profiles[:, :1], lap)):
        R = np.zeros((2 * D * D, B))
        R[slots] = c
        R = R.reshape(2, D, D, B).transpose(1, 2, 0, 3)
        X = tables.reshape(D, -1, D) @ R.reshape(D, D, 2 * B)
        X = (X[..., :B] - 1j * X[..., B:]) * fourier[:, None, None]
        X = X.reshape(D, -1, grid.n, B).transpose(1, 2, 0, 3)
        F[at:at + len(X), :, :D] = X
        at += len(X)
    F[3, :, :D] = 1j * np.arange(D)[:, None] * F[0, :, :D]
    out = np.fft.irfft(F, n=grid.ntheta, axis=2).reshape(4, grid.size, B)
    out[2] *= grid.mu[:, None] ** 2
    return (out[0],) + _polar_to_chart_rows(grid, out[1], out[3]) + (out[2],)


def _j_nodal_rows(values, dx, dy, lap, params, curvature, eps):
    """Nodal residual of the prescribed-curvature system on ``(N, 3)``
    rows."""
    u3 = positive_heights(values)
    K = np.full(u3.shape, params.k)
    if curvature is not None and eps != 0.0:
        K = params.k + eps * curvature.evaluate(values)
    grad3 = dx[:, 2, None] * dx + dy[:, 2, None] * dy
    norm2 = np.einsum("ij,ij->i", dx, dx) + np.einsum("ij,ij->i", dy, dy)
    cross = np.cross(dx, dy)
    out = -lap / u3[:, None] ** 2 + 2.0 * grad3 / u3[:, None] ** 3
    out[:, 2] -= norm2 / u3**3
    out += (2.0 * K / u3**3)[:, None] * cross
    return out


def _project_rows(pack, fields):
    """Component-major modal coefficients of ``(batch, N, 3)`` data, the
    components moved last before an FFT on axis 1."""
    grid, D = pack.grid, pack.degree + 1
    fields = np.asarray(fields, dtype=float)
    values = np.moveaxis(fields, 1, 0)                  # N, batch, 3
    B = fields.shape[0] * 3
    wv = grid.weights[:, None] * values.reshape(grid.size, B)
    G = np.fft.rfft(wv.reshape(grid.n, grid.ntheta, B), axis=1)[:, :D]
    G = G.transpose(1, 0, 2)
    G = np.concatenate([G.real, -G.imag], axis=2)
    R = np.swapaxes(pack._profiles[:, 0], 1, 2) @ G
    R = R.reshape(D, D, 2, B).transpose(2, 0, 1, 3).reshape(-1, B)
    out = R[_row_slots(D)].reshape(pack.nmodes, fields.shape[0], 3)
    return out.transpose(1, 2, 0).reshape(fields.shape[0], -1)


def _residual_rows(x, eps, phi, pack, base=None, jet=None):
    """``reduction._residual`` computed on ``(N, 3)`` rows, its outputs
    handed back component-major."""
    grid, params = pack.grid, pack.params
    c, m, q = x[:3 * pack.nmodes], x[3 * pack.nmodes:-3], x[-3:]
    if base is None:
        base = red._sample(params, q, grid)
    rows = (_jet_rows(pack, c) if jet is None
            else tuple(np.ascontiguousarray(a.T) for a in jet))
    u = [np.ascontiguousarray(b.T) + n for b, n in zip(base, rows)]
    if not np.min(u[0][:, 2]) > 0.0:
        raise red.CorrectorStopped("left the half-space", "below the plane")
    J = _j_nodal_rows(*u, params, phi, eps)
    rmod = (_project_rows(pack, (J / grid.mu[:, None] ** 2)[None])[0]
            - pack.frame_modal.T @ m)
    g = red._gradient(m, params)
    return ((rmod, pack.frame_modal @ c, g),
            tuple(np.ascontiguousarray(a.T) for a in rows),
            np.ascontiguousarray(J.T))


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _coefficients(pack, seed):
    """Random modal vector coefficients that decay over six decades."""
    rng = np.random.default_rng(seed)
    decay = 10.0 ** (-6.0 * pack.mode_degrees / pack.degree)
    return (rng.standard_normal((3, pack.nmodes)) * decay).ravel()


@pytest.mark.parametrize("n", [16, 24, 40])
def test_jet_equals_the_row_oracle(n, params2):
    pack = lin.operator_pack(ch.build_grid(n), params2)
    c = _coefficients(pack, n)
    for fast, rows in zip(pack.nodal_vector_jet(c), _jet_rows(pack, c)):
        assert fast.shape == (3, pack.grid.size)
        assert _same_bits(fast, rows.T)


@pytest.mark.parametrize("n", [16, 24, 40])
def test_residual_equals_the_row_oracle(n, params2):
    grid = ch.build_grid(n)
    pack = lin.operator_pack(grid, params2)
    phi = phi_to_prescribed(BUMP, probe_box=BOX)
    U = bb.bubble(params2, HyperbolicPoint(0.05, -0.02, 1.1), grid)
    jet = _jet_rows(pack, 1e-2 * _coefficients(pack, n + 1))
    u = [a + b for a, b in zip((U.values, U.dx, U.dy, U.lap), jet)]
    for eps, curvature in ((0.02, phi), (-0.5, phi), (0.0, None)):
        fast = lin._j_nodal(*(np.ascontiguousarray(a.T) for a in u),
                            params2, curvature, eps)
        assert _same_bits(fast, _j_nodal_rows(*u, params2, curvature, eps).T)
    # the (N, 3) entry point runs the same component code
    surface = ch.SphereField(grid, *u)
    assert _same_bits(lin.j_residual(surface, params2, phi, 0.02).values,
                      _j_nodal_rows(*u, params2, phi, 0.02))


@pytest.mark.parametrize("n", [16, 24, 40])
def test_projection_equals_the_row_oracle(n, params2):
    pack = lin.operator_pack(ch.build_grid(n), params2)
    rng = np.random.default_rng(n + 2)
    fields = rng.standard_normal((2, pack.grid.size, 3))
    ref = _project_rows(pack, fields)
    assert _same_bits(pack.project_vector(fields), ref)
    assert _same_bits(pack.project_vector(fields[1]), ref[1])
    assert _same_bits(pack.analysis(fields[1].T).ravel(), ref[1])
    assert _same_bits(pack.frame_modal,
                      _project_rows(pack, np.stack(pack.frame.generators())))


def _design_cycle():
    """The six seeded phis and schedules of one design cycle of the
    benchmark's continuation workloads."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    stream = workloads.phi_stream(np.random.default_rng(1))
    return [next(stream)[1:] for _ in range(6)]


def _solve_states(monkeypatch, residual, grid, params):
    states = []
    correct = red.correct

    def keep(*args, **kwargs):
        states.append(correct(*args, **kwargs))
        return states[-1]

    with monkeypatch.context() as patch:
        patch.setattr(red, "correct", keep)
        patch.setattr(red, "_residual", residual)
        for text, eps in _design_cycle():
            phi = phi_to_prescribed(text, probe_box=BOX)
            reports = red.continuation(eps, phi, params, BOX, grid)
            assert all(r["status"] == "ok" for r in reports)
    return states


@pytest.mark.parametrize("n", [24, 40])
def test_correct_equals_the_row_pass_on_a_design_cycle(n, params2,
                                                       monkeypatch):
    grid = ch.build_grid(n)
    fast = _solve_states(monkeypatch, red._residual, grid, params2)
    rows = _solve_states(monkeypatch, _residual_rows, grid, params2)
    assert len(fast) == len(rows) == 18
    for a, b in zip(fast, rows):
        assert a.iterations == b.iterations
        assert (a.eps, a.q, a.residual_norm, a.constraint_defect) == \
            (b.eps, b.q, b.residual_norm, b.constraint_defect)
        for name in ("nu_modal", "xi", "alpha"):
            assert _same_bits(getattr(a, name), getattr(b, name))
        for name in ("nu", "surface", "residual"):
            fa, fb = getattr(a, name), getattr(b, name)
            for part in ("values", "dx", "dy", "lap"):
                pa, pb = getattr(fa, part), getattr(fb, part)
                assert (pa is None and pb is None) or _same_bits(pa, pb)


def test_warm_state_from_another_grid_is_refused(grid16, grid24, params2):
    phi = phi_to_prescribed(BUMP, probe_box=BOX)
    state = red.correct(0.01, (0.05, 0.0, 1.0), phi, params2, grid16)
    for warm in (state, dataclasses.replace(state, nu=None)):
        with pytest.raises(ValueError, match=r"n = 16.*n = 24"):
            red.correct(0.01, (0.05, 0.0, 1.0), phi, params2, grid24,
                        warm=warm)

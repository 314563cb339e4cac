"""Kernel correctness: Sturm counts against the scalar recurrence and
closed forms, RK4 shooting against analytic solutions."""

import math

import numpy as np
import pytest

from dwcross import _kernels


def scalar_sturm_count(diag, off, shift):
    """The clamped pivot recurrence one shift at a time."""
    e2 = [v * v for v in off]
    pivmin = 2.2250738585072014e-308 * max([1.0] + e2)
    count = 0
    q = 0.0
    for i, d in enumerate(diag):
        q = (d - shift) - e2[i - 1] / q if i else d - shift
        if -pivmin < q < pivmin:
            q = -pivmin
        count += q < 0.0
    return count


class TestSturmKernel:
    def test_reference_counts(self):
        diag = np.array([2.0, 2.0, 2.0])
        off = np.array([-1.0, -1.0])
        shifts = np.array([0.0, 0.6, 1.0, 2.1, 3.5])
        counts = _kernels.sturm_counts(diag, off, shifts)
        # spectrum: 2 - sqrt(2), 2, 2 + sqrt(2)
        assert counts.tolist() == [0, 1, 1, 2, 3]

    @pytest.mark.parametrize("block_rows", [1, 3, 7, 512])
    def test_blocked_pivots_match_scalar_recurrence(self, monkeypatch, block_rows):
        # integer matrices and shifts hit exact zero pivots, so clamped
        # blocks are redone; small blocks put clamps on block edges
        monkeypatch.setattr(_kernels, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            diag = rng.integers(-3, 4, size=n).astype(float)
            off = rng.integers(-2, 3, size=n - 1).astype(float)
            shifts = rng.integers(-5, 6, size=int(rng.integers(1, 10))).astype(float)
            counts = _kernels.sturm_counts(diag, off, shifts)
            assert counts.dtype == np.int64
            assert counts.tolist() == [scalar_sturm_count(diag, off, s) for s in shifts]


class TestShootingKernel:
    def make_flat(self, n_nodes, v=0.0):
        return np.full(2 * (n_nodes - 1) + 1, v)

    def test_free_particle_sine(self):
        n = 801
        h = 4.0 / (n - 1)
        e = 2.31
        k = math.sqrt(e)
        psi, dpsi = _kernels.integrate_schrodinger(self.make_flat(n), h, 1.0, e, 0.0, 1.0)
        x = h * np.arange(n)
        assert np.allclose(psi, np.sin(k * x) / k, atol=1e-9)
        assert np.allclose(dpsi, np.cos(k * x), atol=1e-9)

    def test_forbidden_region_sinh(self):
        n = 401
        h = 1.0 / (n - 1)
        e = 1.0
        v = 5.0
        kappa = math.sqrt(v - e)
        psi, _ = _kernels.integrate_schrodinger(self.make_flat(n, v), h, 1.0, e, 0.0, 1.0)
        x = h * np.arange(n)
        assert np.allclose(psi, np.sinh(kappa * x) / kappa, atol=1e-10)

    def test_rightward_and_leftward_agree_by_symmetry(self):
        # symmetric potential: integrating from either wall of a symmetric
        # span produces mirror-image solutions
        n = 501
        h = 2.0 / (n - 1)
        x = -1.0 + h * np.arange(n)
        v_half = 3.0 * (np.linspace(-1.0, 1.0, 2 * (n - 1) + 1)) ** 2
        e = 1.7
        pl, dl = _kernels.integrate_schrodinger(v_half, h, 1.0, e, 0.0, 1.0)
        pr, dr = _kernels.integrate_schrodinger(v_half[::-1], -h, 1.0, e, 0.0, -1.0)
        assert pl.shape == pr.shape
        # pr runs from x = 1 back to x = -1, so it lists the mirror image
        assert np.allclose(pl, pr, atol=1e-9)
        assert np.allclose(dl, -dr, atol=1e-9)

    def test_renormalization_keeps_pairs_consistent(self):
        # a long forbidden span overflows without renormalization; the
        # stored psi'/psi ratio must stay the analytic coth profile
        n = 3001
        h = 600.0 / (n - 1)
        e = 1.0
        v = 2.0
        psi, dpsi = _kernels.integrate_schrodinger(self.make_flat(n, v), h, 1.0, e, 0.0, 1.0)
        assert np.all(np.isfinite(psi)) and np.all(np.isfinite(dpsi))
        assert np.max(np.abs(psi)) <= 1e100 * (1.0 + 1e-12)
        x = h * np.arange(1, n)
        ratio = dpsi[1:] / psi[1:]
        want = 1.0 / np.tanh(x)  # kappa = 1
        assert np.allclose(ratio[-100:], want[-100:], rtol=1e-8)

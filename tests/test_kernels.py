"""Kernel correctness: Sturm counts against the scalar recurrences and
closed forms, RK4 shooting against analytic solutions and the sequential
step loop, and the kernel signatures the benchmark tracer relies on."""

import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from dwcross import _kernels
from reference_oracles import sequential_rk4


_SAFMIN = 2.2250738585072014e-308


def scalar_sturm_count(diag, off, shift):
    """The clamped forward pivot recurrence one shift at a time."""
    e2 = [v * v for v in off]
    pivmin = _SAFMIN * max([1.0] + e2)
    count = 0
    q = 0.0
    for i, d in enumerate(diag):
        q = (d - shift) - e2[i - 1] / q if i else d - shift
        if -pivmin < q < pivmin:
            q = -pivmin
        count += q < 0.0
    return count


def scalar_twisted_count(diag, off, shift):
    """The clamped twisted recurrence one shift at a time: forward pivots
    over rows 0 .. k-1, backward pivots over rows n-1 .. k+1 and the twist
    pivot of row k = n // 2, each clamped to -pivmin within pivmin of 0."""
    n, k = len(diag), len(diag) // 2
    e2 = [v * v for v in off]
    pivmin = _SAFMIN * max([1.0] + e2)

    def clamped(x):
        return -pivmin if -pivmin < x < pivmin else x

    count = 0
    q = r = None
    for i in range(k):
        q = clamped(diag[i] - shift if q is None else (diag[i] - shift) - e2[i - 1] / q)
        count += q < 0.0
    for i in range(n - 1, k, -1):
        r = clamped(diag[i] - shift if r is None else (diag[i] - shift) - e2[i] / r)
        count += r < 0.0
    twist = diag[k] - shift
    if q is not None:
        twist -= e2[k - 1] / q
    if r is not None:
        twist -= e2[k] / r
    return count + (clamped(twist) < 0.0)


def exact_det(diag, off, shift):
    """det(T - shift) by the continuant recurrence in exact rationals."""
    s = Fraction(shift)
    before, det = Fraction(1), Fraction(1)
    for i, d in enumerate(diag):
        coupling = Fraction(off[i - 1]) ** 2 if i else Fraction(0)
        before, det = det, (Fraction(d) - s) * det - coupling * before
    return det


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
        # blocks are redone; blocks of a few rows put clamps on block edges
        monkeypatch.setattr(_kernels, "_MIN_BLOCK_ROWS", 1)
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            diag = rng.integers(-3, 4, size=n).astype(float)
            off = rng.integers(-2, 3, size=n - 1).astype(float)
            shifts = rng.integers(-5, 6, size=int(rng.integers(1, 10))).astype(float)
            # a block holds both chains' pivots for every shift
            monkeypatch.setattr(_kernels, "_BLOCK_VALUES", 2 * shifts.size * block_rows)
            counts = _kernels.sturm_counts(diag, off, shifts)
            assert counts.dtype == np.int64
            assert counts.tolist() == [scalar_twisted_count(diag, off, s) for s in shifts]
            # the two factorizations share their inertia wherever T - s is
            # regular; at a singular T - s either may count the level at s
            for s, count in zip(shifts, counts):
                if exact_det(diag, off, s) != 0:
                    assert count == scalar_sturm_count(diag, off, s)
                else:
                    eigs = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
                    assert np.sum(eigs < s - 1e-6) <= count <= np.sum(eigs < s + 1e-6)

    @pytest.mark.parametrize(
        "diag, off", [([0.5], []), ([-1.0], []), ([1.0, 3.0], [0.0]), ([2.0, -1.0], [1.5])]
    )
    def test_one_and_two_rows(self, diag, off):
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        eigs = np.linalg.eigvalsh(dense)
        # away from every eigenvalue: below, between, above
        shifts = np.concatenate([eigs - 0.25, eigs + 0.25, 0.5 * (eigs[:-1] + eigs[1:])])
        counts = _kernels.sturm_counts(np.array(diag), np.array(off), shifts)
        assert counts.tolist() == [int(np.sum(eigs < s)) for s in shifts]


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


def _span(kind, n_nodes):
    """(v_half, h, u, energy, y_start, dy_start) of a test span."""
    m = n_nodes - 1
    if kind == "flat":  # allowed: sin(k x) / k
        return np.zeros(2 * m + 1), 4.0 / m, 1.0, 2.31, 0.0, 1.0
    if kind == "forbidden":  # the 600-unit span of the renormalization test
        return np.full(2 * m + 1, 2.0), 600.0 / m, 1.0, 1.0, 0.0, 1.0
    if kind == "steep":  # ~4e6 growth per step: a block overflows unless rescaled
        return np.full(2 * m + 1, 4.0e4), 0.5, 1.0, 0.0, 0.0, 1.0
    x = np.linspace(-3.0, 3.0, 2 * m + 1)
    if kind == "harmonic":  # two turning points, tails forbidden
        return 3.0 * x * x, 6.0 / m, 1.0, 1.7, 0.0, 1.0
    if kind == "reversed":  # leftward from the right wall of a skewed well
        v = 3.0 * x * x + x
        return v[::-1], -6.0 / m, 0.8, 2.2, 0.0, -1.0
    raise ValueError(kind)


class TestShootingAgainstSequentialLoop:
    """The blocked transfer-matrix kernel against the node-by-node loop:
    per-node direction (psi, dpsi)/|.| and magnitude, which pins the
    renormalization schedule, to 1e-9."""

    BLOCK = _kernels._BLOCK_STEPS

    @pytest.mark.parametrize("kind", ["flat", "forbidden", "harmonic", "reversed", "steep"])
    @pytest.mark.parametrize(
        "n_nodes",
        [2, 5, BLOCK + 1, BLOCK + 2, 4 * BLOCK + 7],
        ids=["2", "5", "one-block", "one-block-plus-1", "over-3-blocks"],
    )
    def test_matches_reference(self, kind, n_nodes):
        args = _span(kind, n_nodes)
        psi, dpsi = _kernels.integrate_schrodinger(*args)
        ref_psi, ref_dpsi = sequential_rk4(*args)
        assert psi.shape == dpsi.shape == (n_nodes,)
        norm = np.hypot(psi, dpsi)
        ref_norm = np.hypot(ref_psi, ref_dpsi)
        drift = np.hypot(psi / norm - ref_psi / ref_norm, dpsi / norm - ref_dpsi / ref_norm)
        assert np.max(drift) <= 1e-9
        assert np.allclose(norm, ref_norm, rtol=1e-9, atol=0.0)
        assert np.max(np.maximum(np.abs(psi), np.abs(dpsi))) <= 1e100 * (1.0 + 1e-12)

    def test_long_span_renormalizes_where_the_loop_does(self):
        # e^600 passes 1e100 twice: the nodes stored at magnitude 1 are
        # the renormalization points, the same in both
        args = _span("forbidden", 3001)
        psi, dpsi = _kernels.integrate_schrodinger(*args)
        ref_psi, ref_dpsi = sequential_rk4(*args)
        mag = np.maximum(np.abs(psi), np.abs(dpsi))
        ref_mag = np.maximum(np.abs(ref_psi), np.abs(ref_dpsi))
        resets = np.nonzero(mag[1:] < mag[:-1])[0]
        assert resets.size == 2
        assert resets.tolist() == np.nonzero(ref_mag[1:] < ref_mag[:-1])[0].tolist()

    def test_single_node_returns_start(self):
        psi, dpsi = _kernels.integrate_schrodinger(np.array([1.0]), 0.1, 1.0, 0.5, 0.3, -2.0)
        assert psi.tolist() == [0.3] and dpsi.tolist() == [-2.0]


class TestTracerContract:
    """perfbench/tracer.py wraps both kernels by name and reads their
    work from positional arguments: len(args[0]) half-step samples of
    integrate_schrodinger, and np.size(args[2]) shifts and len(args[0])
    rows of sturm_counts."""

    def test_signatures(self):
        rk4 = inspect.signature(_kernels.integrate_schrodinger)
        assert list(rk4.parameters) == ["v_half", "h", "u", "energy", "y_start", "dy_start"]
        sturm = inspect.signature(_kernels.sturm_counts)
        assert list(sturm.parameters) == ["diag", "offdiag", "shifts"]
        for sig in (rk4, sturm):
            assert all(
                p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD and p.default is p.empty
                for p in sig.parameters.values()
            )

    def test_work_read_from_arguments(self):
        v_half = np.zeros(2 * 40 + 1)
        psi, _ = _kernels.integrate_schrodinger(v_half, 0.01, 1.0, 1.0, 0.0, 1.0)
        assert psi.size == (len(v_half) - 1) // 2 + 1
        diag = np.full(7, 2.0)
        shifts = np.linspace(0.0, 4.0, 5)
        counts = _kernels.sturm_counts(diag, np.full(6, -1.0), shifts)
        assert counts.size == np.size(shifts)

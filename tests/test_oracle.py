"""Finite-difference oracle: assembly, Sturm counting, eigenvalues,
convergence order, and the two-sided Wronskian check."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_oracles import sturm_count
from dwcross import _kernels, cli, models, oracle
from dwcross.errors import ConfigError, DomainError, NonConvergenceError
from dwcross.models import M1Params, M2Params, M3Params, M4Params, UnitsConfig
from dwcross.oracle import (
    OracleConfig,
    TridiagonalHamiltonian,
    _assemble,
    _gershgorin,
    _grid_spec,
    _multisect,
    build_hamiltonian,
    lowest_eigenvalues,
    oracle_levels,
    wronskian_constancy,
)
from dwcross.rootfind import RootfindConfig, solve_levels

U1 = UnitsConfig(1.0)


def tridiag(diag, off):
    return TridiagonalHamiltonian(
        diag=np.asarray(diag, dtype=float),
        offdiag=np.asarray(off, dtype=float),
        x_min=0.0,
        h=1.0,
    )


class TestConfigValidation:
    def test_minimum_points(self):
        with pytest.raises(ConfigError):
            OracleConfig(n_points=400)

    def test_model_defaults(self):
        cfg = OracleConfig()
        assert cfg.resolve_points(M1Params(0.0, 1.0, 1.0)) == 4000
        assert cfg.resolve_points(M3Params(0.0, 1.0, 1.0)) == 6000


class TestBuildHamiltonian:
    def test_box_domain_and_kinetic(self):
        m = M1Params(0.0, 2.0, 2.0)
        T = build_hamiltonian(m, U1, OracleConfig(n_points=1000))
        assert T.x_min == -2.0
        assert T.x_max == pytest.approx(2.0, abs=1e-12)
        kin = 1.0 / (U1.u * T.h * T.h)
        assert np.allclose(T.offdiag, -kin)
        assert np.allclose(T.diag, 2.0 * kin)

    def test_delta_spike_on_node(self):
        m = M1Params(10.0, 2.0, 2.0)
        T = build_hamiltonian(m, U1, OracleConfig(n_points=1000))
        i = T.delta_index
        assert i is not None
        x_delta = T.x_min + (i + 1) * T.h
        assert abs(x_delta) < T.h / 100.0  # snapped grid puts a node at 0
        assert T.diag[i] - T.diag[i + 1] == pytest.approx(10.0 / T.h, rel=1e-9)

    def test_m3_delta_node_exact(self):
        m = M3Params(5.0, 2.0, 1.3)
        T = build_hamiltonian(m, U1, OracleConfig(n_points=1000), e_top=12.0)
        x_delta = T.x_min + (T.delta_index + 1) * T.h
        assert x_delta == pytest.approx(0.0, abs=1e-12)

    def test_harmonic_walls_high_enough(self):
        m = M3Params(0.0, 2.0, 1.0)
        e_top = 9.0
        T = build_hamiltonian(m, U1, OracleConfig(n_points=800), e_top=e_top)
        for wall in (T.x_min, T.x_max):
            hw = m.hw1 if wall < 0 else m.hw2
            v_wall = 0.25 * U1.u * hw * hw * wall * wall
            assert v_wall >= 4.0 * e_top - 1e-9

    def test_delta_on_boundary_rejected(self):
        with pytest.raises(ConfigError, match="boundary"):
            build_hamiltonian(M1Params(5.0, 2.0, 1e-4), U1, OracleConfig(n_points=500))

    def test_offdiag_never_zero(self):
        # nonzero couplings make the discrete spectrum simple
        for m in (M1Params(10.0, 2.0, 2.0), M4Params(10.0, 2.0, 1.0, 0.5)):
            T = build_hamiltonian(m, U1, OracleConfig(n_points=600), e_top=15.0)
            assert np.all(T.offdiag != 0.0)


class TestSturmCount:
    def test_decoupled_two_by_two(self):
        T = tridiag([1.0, 2.0], [0.0])
        assert sturm_count(T, 1.5) == 1
        assert sturm_count(T, 0.5) == 0
        assert sturm_count(T, 2.5) == 2

    def test_coupled_two_by_two(self):
        # eigenvalues of [[2,-1],[-1,2]] are 1 and 3
        T = tridiag([2.0, 2.0], [-1.0])
        assert sturm_count(T, 0.9) == 0
        assert sturm_count(T, 1.1) == 1
        assert sturm_count(T, 3.1) == 2

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            diag = rng.normal(size=n) * 3.0
            off = rng.normal(size=n - 1) * 2.0
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            eigs = np.linalg.eigvalsh(dense)
            T = tridiag(diag, off)
            for shift in rng.normal(size=8) * 4.0:
                assert sturm_count(T, float(shift)) == int(np.sum(eigs < shift))

    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_shift(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 25))
        T = tridiag(rng.normal(size=n), rng.normal(size=n - 1))
        shifts = np.sort(rng.normal(size=10) * 3.0)
        counts = [sturm_count(T, float(s)) for s in shifts]
        assert all(a <= b for a, b in zip(counts[:-1], counts[1:]))


class TestLowestEigenvalues:
    def test_known_three_by_three(self):
        T = tridiag([2.0, 2.0, 2.0], [-1.0, -1.0])
        got = lowest_eigenvalues(T, 3, tol=1e-12)
        want = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
        assert np.allclose(got, want, atol=1e-11)

    def test_discrete_well_closed_form(self):
        # FD eigenvalues of the empty box are exactly
        # 2 (1 - cos(m pi / (N+1))) / (u h^2)
        m = M1Params(0.0, 2.0, 2.0)
        T = build_hamiltonian(m, U1, OracleConfig(n_points=500))
        n_tot = T.size
        got = lowest_eigenvalues(T, 4, tol=1e-12)
        kin = 1.0 / (U1.u * T.h * T.h)
        want = [2.0 * kin * (1.0 - math.cos(j * math.pi / (n_tot + 1))) for j in (1, 2, 3, 4)]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-11)

    def test_argument_validation(self):
        T = tridiag([1.0, 2.0], [0.5])
        with pytest.raises(ValueError):
            lowest_eigenvalues(T, 3)
        with pytest.raises(ValueError):
            lowest_eigenvalues(T, 1, tol=-1.0)

    def test_strictly_increasing(self):
        m = M2Params(10.0, 2.0, 1.0, 2.0)  # symmetric: tight doublets
        T = build_hamiltonian(m, U1, OracleConfig(n_points=2000))
        levels = lowest_eigenvalues(T, 6, tol=1e-11)
        diffs = np.diff(levels)
        assert np.all(diffs > 1e-9)


def cold_levels(T, n, tol):
    """Multisection from the whole Gershgorin interval for every level."""
    lo, hi = _gershgorin(T)
    return _multisect(T, n, tol, lo + (hi - lo) * np.arange(1, 64) / 64)


def assert_count_verified(T, los, his):
    # N(lo_j) <= j < N(hi_j): level j lies in [lo_j, hi_j)
    counts = _kernels.sturm_counts(T.diag, T.offdiag, np.concatenate([los, his]))
    n = len(los)
    j = np.arange(n)
    assert np.all(counts[:n] <= j) and np.all(counts[n:] > j)


def off_seeds(cold, n):
    """Seeds a whole level spacing off: seed j at level j + 1, the top one
    past it by the top spacing, or seed j at level j - 1, the bottom one
    under it by the bottom spacing."""
    above = cold[1:] + (cold[-1] - cold[-2]) * (np.arange(n) == n - 1)
    under = np.concatenate([[2.0 * cold[0] - cold[1]], cold[: n - 1]])
    return above, under


def count_passes(monkeypatch):
    """The shifts of every Sturm pass from here on, one array per pass."""
    passes = []
    sturm_counts = _kernels.sturm_counts

    def counted(diag, offdiag, shifts):
        passes.append(np.array(shifts))
        return sturm_counts(diag, offdiag, shifts)

    monkeypatch.setattr(_kernels, "sturm_counts", counted)
    return passes


def random_tridiagonals():
    rng = np.random.default_rng(5)
    for _ in range(12):
        size = int(rng.integers(8, 80))
        yield tridiag(rng.normal(size=size) * 3.0, rng.normal(size=size - 1))
    # two uncoupled copies of one block: every level an exact doublet
    block_diag = rng.normal(size=9) * 2.0
    block_off = rng.normal(size=8)
    yield tridiag(
        np.concatenate([block_diag, block_diag]), np.concatenate([block_off, [0.0], block_off])
    )


class TestSeededBrackets:
    """lowest_eigenvalues starts from a counted ladder, or for the h/2 grid
    from a first pass that counts at the ends of and inside each seed's
    bracket; both paths must give the levels of a cold start from the
    whole Gershgorin interval."""

    TOL = 1e-10

    @pytest.mark.parametrize("index", range(13))
    def test_ladder_and_seeded_paths_match_cold_start(self, index):
        T = list(random_tridiagonals())[index]
        n = min(6, T.size - 1)
        cold = np.array(cold_levels(T, n + 1, self.TOL))
        assert np.allclose(cold, np.linalg.eigvalsh(dense(T))[: n + 1], rtol=0.0, atol=1e-9)
        got = lowest_eigenvalues(T, n, self.TOL)
        assert np.allclose(got, cold[:n], rtol=0.0, atol=self.TOL)
        for seeds in (cold[:n] + 1e-7, *off_seeds(cold, n)):
            got = lowest_eigenvalues(T, n, self.TOL, _seeds=list(seeds))
            assert np.allclose(got, cold[:n], rtol=0.0, atol=self.TOL)
            # a width far under the spacing: no level lies in its seed's
            # bracket, and each goes on from the counted cell that holds it
            got = np.array(_multisect(T, n, self.TOL, np.append(seeds - 1e-9, seeds + 1e-9)))
            assert np.allclose(got, cold[:n], rtol=0.0, atol=self.TOL)
            assert_count_verified(T, got - self.TOL, got + self.TOL)

    @pytest.mark.parametrize("index", range(13))
    def test_off_seeds_take_few_passes(self, index, monkeypatch):
        # a level its seed's bracket misses goes on from the counted cell
        # between the brackets that holds it
        T = list(random_tridiagonals())[index]
        n = min(6, T.size - 1)
        cold = np.array(cold_levels(T, n + 1, self.TOL))
        passes = count_passes(monkeypatch)
        for seeds in off_seeds(cold, n):
            passes.clear()
            lowest_eigenvalues(T, n, self.TOL, _seeds=list(seeds))
            assert len(passes) <= 12

    def test_seeded_fine_grid_matches_cold_start(self):
        m = M4Params(10.0, 2.0, 2.0, 1.0)
        spec = _grid_spec(m, U1, OracleConfig(n_points=1000), 12.0)
        coarse = lowest_eigenvalues(_assemble(m, U1, spec), 4, 1e-11)
        fine_T = _assemble(m, U1, spec.refined())
        got = lowest_eigenvalues(fine_T, 4, 1e-11, _seeds=coarse)
        assert np.allclose(got, cold_levels(fine_T, 4, 1e-11), rtol=0.0, atol=1e-11)


def dense(T):
    return np.diag(T.diag) + np.diag(T.offdiag, 1) + np.diag(T.offdiag, -1)


class TestOracleRegrowth:
    def count_assemblies(self, monkeypatch):
        grids = []
        assemble = oracle._assemble

        def counted(*args):
            grids.append(args[2])
            return assemble(*args)

        monkeypatch.setattr(oracle, "_assemble", counted)
        return grids

    def test_compare_solves_one_richardson_pair(self, tmp_path, monkeypatch):
        # fig6a's oracle top level lands within 1e-11 of 1.5x the sizing
        # level it was sized from; that is no reason to grow the domain
        grids = self.count_assemblies(monkeypatch)
        out = tmp_path / "fig6a.csv"
        assert cli.main(["compare", "--preset", "fig6a", "--out", str(out)]) == 0
        assert len(grids) == 2
        assert grids[1] == grids[0].refined()

    def test_small_e_top_still_regrows(self, monkeypatch):
        m = M3Params(0.0, 2.0, 2.0)  # levels 1, 3, 5
        grids = self.count_assemblies(monkeypatch)
        got = oracle_levels(m, U1, 3, OracleConfig(n_points=1000), e_top=2.0)
        assert len(grids) >= 4
        assert grids[-2].x_min < grids[0].x_min
        assert np.allclose(got, [1.0, 3.0, 5.0], atol=1e-6)


class TestMultisectionWork:
    def test_richardson_pair_fills_its_passes(self, tmp_path, monkeypatch):
        # every pass shares one shift budget among the open cells, and
        # the h/2 grid's first pass counts inside its seeds' brackets as
        # well as at their ends
        passes = count_passes(monkeypatch)
        out = tmp_path / "fig6b.csv"
        assert cli.main(["compare", "--preset", "fig6b", "--out", str(out)]) == 0
        assert 0 < len(passes) <= 19
        assert max(p.size for p in passes) <= oracle._SHIFT_BUDGET

    @pytest.mark.parametrize("preset", ["fig3", "fig5", "fig6b"])
    def test_no_pass_repeats_a_shift(self, preset, tmp_path, monkeypatch):
        # levels that share a counted cell share its probes: these presets
        # have levels close enough to share a ladder cell
        passes = count_passes(monkeypatch)
        out = tmp_path / f"{preset}.csv"
        assert cli.main(["compare", "--preset", preset, "--out", str(out)]) == 0
        assert all(np.all(np.diff(np.sort(p)) > 0.0) for p in passes)


class TestOracleErrors:
    def test_multisection_names_stage_grid_and_bracket(self):
        T = tridiag([2.0, 2.0, 2.0], [-1.0, -1.0])
        message = (
            r"^multisection: level 0 still open in \[0\.58\d*, 0\.58\d*\] eV "
            r"\(tol=1e-300\) after 300 passes on a 3-point grid$"
        )
        with pytest.raises(NonConvergenceError, match=message):
            _multisect(T, 3, 1e-300, np.array([1.0, 3.0]))

    def test_oracle_levels_names_the_model(self, monkeypatch):
        model = M1Params(0.0, 2.0, 2.0)
        monkeypatch.setattr(oracle, "_LEVEL_TOL", 1e-300)
        with pytest.raises(NonConvergenceError) as info:
            oracle_levels(model, U1, 1, OracleConfig(n_points=500))
        assert str(info.value).startswith(f"{model!r}: multisection: level 0 still open")
        assert re.search(r"on a \d+-point grid$", str(info.value))


class TestOracleLevels:
    def test_infinite_well_with_richardson(self):
        got = oracle_levels(M1Params(0.0, 2.0, 2.0), U1, 1, OracleConfig())
        assert got[0] == pytest.approx((math.pi / 4.0) ** 2, abs=1e-7)

    def test_harmonic_ground_state(self):
        got = oracle_levels(M3Params(0.0, 2.0, 2.0), U1, 1, OracleConfig(n_points=2000), e_top=9.0)
        assert got[0] == pytest.approx(1.0, abs=1e-6)

    def test_delta_immune_odd_level(self):
        got = oracle_levels(M3Params(10.0, 2.0, 2.0), U1, 2, OracleConfig(n_points=3000))
        assert got[1] == pytest.approx(3.0, abs=1e-4)
        assert got[0] > 1.0

    def test_richardson_beats_single_grid(self):
        exact = (math.pi / 4.0) ** 2
        m = M1Params(0.0, 2.0, 2.0)
        plain = oracle_levels(m, U1, 1, OracleConfig(n_points=1000, richardson=False))
        extrap = oracle_levels(m, U1, 1, OracleConfig(n_points=1000, richardson=True))
        assert abs(extrap[0] - exact) < 0.01 * abs(plain[0] - exact)

    def test_domain_doubling_invariance(self, monkeypatch):
        # wall truncation error is exponentially small: doubling the
        # turning-point margin must not move the levels
        m = M4Params(10.0, 2.0, 1.0, 0.5)
        monkeypatch.setattr(models, "_TURNING_POINT_MARGIN", 2.0)
        tight = oracle_levels(m, U1, 3, OracleConfig(n_points=4000))
        monkeypatch.setattr(models, "_TURNING_POINT_MARGIN", 4.0)
        wide = oracle_levels(m, U1, 3, OracleConfig(n_points=8000))
        assert np.allclose(tight, wide, atol=5e-6)

    @pytest.mark.parametrize(
        "model,u,tol",
        [
            (M1Params(10.0, 2.0, 2.0), 1.0, 2e-3),
            (M1Params(10.0, 2.0, 3.7), 1.0, 2e-3),
            (M1Params(20.0, 5.0, 5.0), 0.2625, 2e-3),
            (M2Params(10.0, 2.0, 1.0, 3.0), 1.0, 2e-3),
            (M3Params(10.0, 2.0, 1.5), 1.0, 5e-3),
            (M4Params(10.0, 2.0, 2.0, 1.0), 1.0, 5e-3),
        ],
    )
    def test_agreement_with_analytic_roots(self, model, u, tol):
        units = UnitsConfig(u)
        analytic = solve_levels(model, units, 4)
        reference = oracle_levels(model, units, 4, OracleConfig(), e_top=1.5 * analytic[-1])
        assert np.allclose(analytic, reference, atol=tol)

    def test_electron_mass_units_low_doublet(self):
        # wide symmetric delta-in-box at mu = m_e: the lowest tunneling
        # doublet sits well under 5 eV
        units = UnitsConfig(0.2625)
        levels = solve_levels(M1Params(20.0, 5.0, 5.0), units, 2)
        assert levels[1] < 5.0
        assert levels[1] - levels[0] < 0.5


class TestConvergenceOrder:
    @pytest.mark.parametrize(
        "model,exact,e_top",
        [
            (M1Params(0.0, 2.0, 2.0), [(n * math.pi / 4.0) ** 2 for n in (1, 2, 3)], 8.0),
            (M3Params(0.0, 2.0, 2.0), [1.0, 3.0, 5.0], 9.0),
        ],
    )
    def test_error_quarters_when_h_halves(self, model, exact, e_top):
        cfg = OracleConfig(n_points=1500, richardson=False)
        spec = _grid_spec(model, U1, cfg, e_top)
        coarse = lowest_eigenvalues(_assemble(model, U1, spec), 3, tol=1e-12)
        fine = lowest_eigenvalues(_assemble(model, U1, spec.refined()), 3, tol=1e-12)
        for c, f, x in zip(coarse, fine, exact):
            ratio = abs(c - x) / abs(f - x)
            assert 3.5 <= ratio <= 4.5


class TestWronskianConstancy:
    def test_exact_box_eigenvalue(self):
        m = M1Params(0.0, 2.0, 2.0)
        r = wronskian_constancy(m, U1, (math.pi / 4.0) ** 2, OracleConfig())
        assert r <= 1e-6

    def test_non_eigenvalue_is_order_one(self):
        m = M1Params(0.0, 2.0, 2.0)
        assert wronskian_constancy(m, U1, 0.9, OracleConfig()) >= 0.1

    def test_delta_immune_level(self):
        m = M3Params(10.0, 2.0, 2.0)
        assert wronskian_constancy(m, U1, 3.0, OracleConfig()) <= 1e-5

    @pytest.mark.parametrize(
        "model",
        [
            M1Params(10.0, 2.0, 2.0),
            M2Params(10.0, 2.0, 1.0, 3.0),
            M3Params(10.0, 2.0, 1.5),
            M4Params(10.0, 2.0, 2.0, 1.0),
        ],
    )
    def test_discriminates_eigen_from_non(self, model):
        tight = RootfindConfig(tol_abs=1e-13)
        levels = solve_levels(model, U1, 2, tight)
        for e in levels:
            assert wronskian_constancy(model, U1, e, OracleConfig()) <= 1e-5
        probe = 0.5 * (levels[0] + levels[1])
        assert wronskian_constancy(model, U1, probe, OracleConfig()) >= 0.05

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "model",
        [
            M1Params(10.0, 2.0, 2.0),
            M2Params(10.0, 2.0, 1.0, 3.0),
            M3Params(10.0, 2.0, 1.5),
            M4Params(10.0, 2.0, 2.0, 0.5),
        ],
        ids=lambda m: m.kind,
    )
    def test_non_finite_energy_is_domain_error(self, model, energy):
        # a NaN residual would pass both "> bound" and "< bound" checks
        with pytest.raises(DomainError, match=rf"{model.kind}.*{energy!r}"):
            wronskian_constancy(model, U1, energy, OracleConfig())

    def test_potential_sampled_once_per_span(self, monkeypatch):
        # both directions integrate over the same samples: one potential
        # call per span of the shooting grid, not one per span and side
        model = M4Params(10.0, 2.0, 2.0, 1.0)
        spans = len(oracle._shooting_segments(model, U1, OracleConfig(), 3.0))
        calls = []
        potential = M4Params.potential
        monkeypatch.setattr(
            M4Params, "potential", lambda self, *a: calls.append(1) or potential(self, *a)
        )
        wronskian_constancy(model, U1, 3.0, OracleConfig())
        assert spans > 1 and len(calls) == spans

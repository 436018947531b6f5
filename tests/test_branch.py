import pytest

from qground import branch
from qground.asymptotics import ladder_derivative
from qground.branch import (BranchStore, SweepPlan, energy_identity_check,
                            geometric_ladder, run_sweep, scaled_height_guess)
from qground.errors import (ConstraintViolated, InsufficientNeighbors,
                            InvalidParams, NoConvergence)
from qground.params import Params

from appendix import mprime_agreement


@pytest.fixture(scope="module")
def small_sweep():
    plan = SweepPlan(dim=3, p=3, delta=0.0,
                     omegas=geometric_ladder(1.0, 0.125, 0.5))
    return plan, run_sweep(plan)


class TestLadder:
    def test_geometric_ladder(self):
        assert geometric_ladder(1.0, 0.25, 0.5) == (1.0, 0.5, 0.25)
        with pytest.raises(InvalidParams):
            geometric_ladder(1.0, 2.0, 0.5)

    def test_plan_validates(self):
        with pytest.raises(InvalidParams):
            SweepPlan(dim=3, p=3, delta=0.0, omegas=(0.25, 0.5))
        with pytest.raises(InvalidParams):
            SweepPlan(dim=3, p=11, delta=1.0, omegas=(1.0,))

    def test_plan_needs_a_job(self):
        # checked when the plan is built, before any process could start
        for jobs in (0, -1):
            with pytest.raises(InvalidParams):
                SweepPlan(dim=3, p=3, delta=0.0, omegas=(1.0,), jobs=jobs)

    def test_empty_ladder(self):
        store = run_sweep(SweepPlan(dim=3, p=3, delta=0.0, omegas=()))
        assert len(store) == 0
        assert store.points() == []


class TestSweep:
    def test_all_points_accepted(self, small_sweep):
        _, store = small_sweep
        assert len(store.points()) == 4
        assert store.failures() == []

    def test_warm_start_iterations(self, small_sweep):
        # exact delta = 0 scaling: warm-started points need almost no search
        _, store = small_sweep
        iters = [r.report.iterations for r in store.records()]
        assert all(k <= 5 for k in iters[1:])

    def test_deterministic_csv(self, small_sweep):
        plan, store = small_sweep
        again = run_sweep(plan)
        assert store.to_csv_string() == again.to_csv_string()

    def test_parallel_matches_serial(self, small_sweep):
        # warm-start chains differ between the two schedules, so values
        # agree to solver tolerance; a rerun at the same job count must be
        # byte-identical
        plan, store = small_sweep
        par_plan = SweepPlan(dim=3, p=3, delta=0.0, omegas=plan.omegas, jobs=2)
        par = run_sweep(par_plan)
        assert run_sweep(par_plan).to_csv_string() == par.to_csv_string()
        for a, b in zip(par.points(), store.points()):
            assert a.omega == b.omega
            assert a.mass == pytest.approx(b.mass, rel=1e-9)

    def test_parallel_records_keep_the_ladder_order(self, small_sweep):
        # the chunks come back in order and the store keeps them as walked,
        # with no sort per call
        plan, _ = small_sweep
        store = run_sweep(SweepPlan(dim=3, p=3, delta=0.0,
                                    omegas=plan.omegas, jobs=2))
        assert [r.point.omega for r in store.records()] == list(plan.omegas)
        assert store.records() is store.records()

    def test_mprime_routes_agree(self, small_sweep):
        _, store = small_sweep
        for q in store.points():
            ag = mprime_agreement(q)
            if ag is not None:
                assert ag < 0.01

    def test_failure_recorded_not_raised(self):
        # omega = 0 in a regime with no zero-mass state: recorded, not fatal
        store = run_sweep(SweepPlan(dim=3, p=3, delta=1.0, omegas=(1.0, 0.0)))
        assert len(store.failures()) == 1
        assert "NoGroundState" in store.failures()[0][1]
        assert len(store.points()) == 1


class TestWarmStartChain:
    OMEGAS = (0.5, 0.25, 0.125)

    def test_guess_skips_a_failed_point(self, monkeypatch):
        # the point after a failure is seeded from the last point that
        # solved, rescaled to its own frequency
        real = branch.solve_ground_state
        guesses, heights = {}, {}

        def flaky(params, cfg=None, guess=None):
            guesses[params.omega] = guess
            if params.omega == self.OMEGAS[1]:
                raise NoConvergence("forced")
            rep = real(params, cfg, guess=guess)
            heights[params.omega] = rep.shooting_height
            return rep

        monkeypatch.setattr(branch, "solve_ground_state", flaky)
        store = run_sweep(SweepPlan(dim=3, p=3, delta=1.0, omegas=self.OMEGAS))
        assert [w for w, _ in store.failures()] == [self.OMEGAS[1]]
        w0, _, w2 = self.OMEGAS
        assert guesses[w0] is None
        assert guesses[w2] == scaled_height_guess(
            heights[w0], w0, w2, Params(3, 3, 1.0, w2))


class TestStore:
    def test_csv_roundtrip(self, small_sweep, tmp_path):
        plan, store = small_sweep
        root = store.write(tmp_path)
        assert (root / "branch.csv").exists()
        assert (root / "points").is_dir()
        points = BranchStore.read_branch_csv(root / "branch.csv")
        assert len(points) == len(store.points())
        orig = store.points()
        assert points[0].omega == orig[0].omega
        assert points[0].mass == orig[0].mass
        assert points[1].mprime_fd == orig[1].mprime_fd

    def test_point_sidecars(self, small_sweep, tmp_path):
        import json

        _, store = small_sweep
        root = store.write(tmp_path)
        name = f"{store.points()[0].omega:.17g}.json"
        payload = json.loads((root / "points" / name).read_text())
        assert payload["schema"] == 1
        assert payload["accepted"]
        assert payload["solve"]["pohozaev_residual"] < 1e-6


class TestDerivatives:
    def test_stencil_exactness_on_power_law(self):
        # fine ladder: the five-point stencil nails smooth powers
        omegas = [0.5 * 1.01 ** k for k in range(9)]
        masses = [w ** -0.5 for w in omegas]
        for i in (1, 4, 7):
            d = ladder_derivative(omegas, masses, i)
            exact = -0.5 * omegas[i] ** -1.5
            assert d == pytest.approx(exact, rel=1e-8)

    def test_endpoints_raise(self):
        omegas = [1.0, 0.5, 0.25]
        masses = [1.0, 2.0, 4.0]
        with pytest.raises(InsufficientNeighbors):
            ladder_derivative(omegas, masses, 0)
        with pytest.raises(InsufficientNeighbors):
            ladder_derivative(omegas, masses, 2)

    def test_mprime_fd_on_store(self, small_sweep):
        # the fill sets the difference M' at interior points only
        _, store = small_sweep
        points = store.points()
        assert all(q.mprime_fd is not None for q in points[1:-1])
        assert points[0].mprime_fd is None
        assert points[-1].mprime_fd is None
        # the ladder runs downward; the stencil wants omega increasing
        omegas = [q.omega for q in reversed(points)]
        masses = [q.mass for q in reversed(points)]
        expected = ladder_derivative(omegas, masses, len(points) - 2)
        assert points[1].mprime_fd == pytest.approx(expected, rel=1e-12)

    def test_nls_mass_law_derivative(self, small_sweep, nls33):
        # M' = -(1/2) omega^{-3/2} |Q|_2^2 for N = 3, p = 3, delta = 0
        _, store = small_sweep
        q = store.points()[1]
        expected = -0.5 * q.omega ** -1.5 * nls33.diagnostics.mass
        # a four-point ladder leaves the stencil third-order at this index
        assert q.mprime_fd == pytest.approx(expected, rel=1e-2)
        assert q.mprime_res == pytest.approx(expected, rel=1e-3)


class TestWarmStartHelpers:
    def test_scaled_guess_exact_for_nls(self, nls33):
        params = Params(3, 3, 0.0, 0.25)
        guess = scaled_height_guess(nls33.shooting_height, 1.0, 0.25, params)
        assert guess == pytest.approx(0.5 * nls33.shooting_height, rel=1e-12)


class TestEnergyIdentity:
    def test_fine_ladder_identity(self):
        res = energy_identity_check(Params(3, 3, 0.0, 0.5))
        assert res < 1e-4

    def test_failed_stencil_point_raises(self, monkeypatch):
        def stalled(params, cfg=None, guess=None):
            raise NoConvergence("forced stall")

        monkeypatch.setattr(branch, "solve_ground_state", stalled)
        with pytest.raises(ConstraintViolated, match="forced stall") as info:
            energy_identity_check(Params(3, 3, 0.0, 0.5))
        # the local ladder's top point, 0.5 / 0.95^2, is the first reported
        assert f"omega={0.5 * 0.95 ** -2!r}" in str(info.value)

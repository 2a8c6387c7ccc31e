"""Swappable algebra backend: equivalence, selection, safety, A/B coin.

The load-bearing property is the backend contract (``docs/ALGEBRA.md``):
every vectorized kernel either returns exactly what the pure path
computes or declines to it, so selecting ``numpy`` changes wall-clock and
counters but never a result — including error behaviour.  The suite
cross-checks the kernels over random row matrices (hypothesis), pins the
decline cases (empty, undersized, ragged, non-canonical values), the
selection order (explicit > ``REPRO_ALGEBRA_BACKEND`` > auto-detect), the
unsafe-prime :class:`FieldError`, and the house A/B discipline: one SVSS
coin invocation per seed with the backend on vs off, bit-identical
outputs and per-session justifiers on both engines.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.api import flip_common_coin, run_byzantine_agreement
from repro.errors import FieldError, PolynomialError
from repro.field import DEFAULT_PRIME, Field
from repro.field import backend as backend_mod
from repro.field.backend import (
    BACKEND_ENV_VAR,
    NumpyBackend,
    PureBackend,
    available_backends,
    counters,
    numpy_available,
    resolve_backend,
    set_backend,
)
from repro.poly.fastpath import (
    LagrangeBasis,
    batch_inverse,
    evaluate_rows,
    interpolate_values_rows,
)
from repro.sim.scheduler import FifoScheduler
from tests.test_svec import JUSTIFIERS, coin_justifiers

F = Field()  # default 31-bit Mersenne prime

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not importable"
)


@pytest.fixture(autouse=True)
def _restore_backend():
    """Backend selection is process-global; leave it as we found it."""
    saved = backend_mod._active
    yield
    backend_mod._active = saved


def pure_rows(fn, *args):
    """Run one fastpath call with the pure backend pinned."""
    set_backend("pure")
    return fn(*args)


def numpy_rows(fn, *args):
    set_backend("numpy")
    return fn(*args)


elements = st.integers(min_value=0, max_value=DEFAULT_PRIME - 1)


# ---------------------------------------------------------------------------
# Kernel equivalence (property tests)
# ---------------------------------------------------------------------------


@needs_numpy
class TestKernelEquivalence:
    @given(
        coeff_rows=st.lists(
            st.lists(elements, min_size=1, max_size=8),
            min_size=0,
            max_size=12,
        ).filter(lambda rows: len({len(r) for r in rows}) <= 1),
        xs=st.lists(elements, min_size=0, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_evaluate_rows_matches_pure(self, coeff_rows, xs):
        expected = pure_rows(evaluate_rows, F, coeff_rows, xs)
        assert numpy_rows(evaluate_rows, F, coeff_rows, xs) == expected

    @given(
        data=st.data(),
        m=st.integers(min_value=1, max_value=8),
        k=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_interpolate_rows_matches_pure(self, data, m, k):
        ys_rows = data.draw(
            st.lists(
                st.lists(elements, min_size=m, max_size=m),
                min_size=k,
                max_size=k,
            )
        )
        nodes = list(range(1, m + 1))
        set_backend("pure")
        expected = [
            p.coeffs for p in interpolate_values_rows(F, nodes, ys_rows)
        ]
        set_backend("numpy")
        got = [p.coeffs for p in interpolate_values_rows(F, nodes, ys_rows)]
        assert got == expected

    @given(
        values=st.lists(
            st.integers(min_value=1, max_value=DEFAULT_PRIME - 1),
            min_size=0,
            max_size=200,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_inverse_matches_pure(self, values):
        expected = pure_rows(batch_inverse, F, values)
        assert numpy_rows(batch_inverse, F, values) == expected

    def test_single_point_single_row(self):
        # Below MIN_VECTOR_CELLS: the numpy backend declines, the result
        # is still the pure one.
        rows, xs = [[5, 7]], [3]
        assert numpy_rows(evaluate_rows, F, rows, xs) == pure_rows(
            evaluate_rows, F, rows, xs
        )

    def test_empty_rows(self):
        assert numpy_rows(evaluate_rows, F, [], [1, 2]) == []
        basis = LagrangeBasis(F, [1, 2, 3])
        set_backend("numpy")
        assert basis.interpolate_rows([]) == []
        assert batch_inverse(F, []) == []


# ---------------------------------------------------------------------------
# Decline cases: error behaviour stays the pure path's
# ---------------------------------------------------------------------------


@needs_numpy
class TestDeclines:
    def test_ragged_rows_keep_pure_semantics(self):
        set_backend("numpy")
        ragged = [[1, 2, 3], [4, 5]] * 8
        before = counters.backend_fallbacks
        set_backend("pure")
        expected = evaluate_rows(F, ragged, [1, 2, 3, 4])
        set_backend("numpy")
        assert evaluate_rows(F, ragged, [1, 2, 3, 4]) == expected
        assert counters.backend_fallbacks > before

    def test_wrong_length_row_raises_polynomial_error(self):
        basis = LagrangeBasis(F, [1, 2, 3, 4])
        bad = [[1, 2, 3, 4]] * 7 + [[1, 2]]
        set_backend("numpy")
        with pytest.raises(PolynomialError):
            basis.interpolate_rows(bad)

    def test_zero_in_inverse_batch_raises_field_error(self):
        set_backend("numpy")
        with pytest.raises(FieldError):
            batch_inverse(F, [1] * 100 + [0])

    def test_values_at_or_above_prime_decline(self):
        # The pure evaluator reduces lazily; non-canonical coefficients
        # must decline to it rather than be reduced differently.
        rows = [[DEFAULT_PRIME + 3] * 4] * 8
        xs = [1, 2, 3, 4]
        expected = pure_rows(evaluate_rows, F, rows, xs)
        set_backend("numpy")
        before = counters.backend_fallbacks
        assert evaluate_rows(F, rows, xs) == expected
        assert counters.backend_fallbacks == before + 1

    def test_negative_values_decline(self):
        rows = [[-1] * 4] * 8
        xs = [1, 2, 3, 4]
        expected = pure_rows(evaluate_rows, F, rows, xs)
        set_backend("numpy")
        assert evaluate_rows(F, rows, xs) == expected

    def test_garbage_values_keep_pure_exception(self):
        rows = [["nope"] * 4] * 8
        set_backend("numpy")
        with pytest.raises(TypeError):
            evaluate_rows(F, rows, [1, 2, 3, 4])


# ---------------------------------------------------------------------------
# Prime safety
# ---------------------------------------------------------------------------


@needs_numpy
class TestPrimeSafety:
    def test_unsafe_prime_raises_field_error(self):
        wide = 2**61 - 1  # prime, but 61 bits: products overflow int64
        kernel = resolve_backend("numpy")
        with pytest.raises(FieldError, match="int64"):
            kernel.evaluate_rows(wide, [[1] * 4] * 8, [1, 2, 3, 4])
        with pytest.raises(FieldError, match="int64"):
            kernel.interpolate_rows(wide, [[1] * 4] * 4, [[1] * 4] * 8)
        with pytest.raises(FieldError, match="int64"):
            kernel.batch_inverse(wide, [1] * 100)

    def test_registered_primes_accepted(self):
        from repro.field import INT64_SAFE_PRIMES

        kernel = resolve_backend("numpy")
        for prime in INT64_SAFE_PRIMES.values():
            rows = [[1, 2, 3, 4]] * 8
            out = kernel.evaluate_rows(prime, rows, [1, 2, 3])
            assert out is not None


# ---------------------------------------------------------------------------
# Selection order
# ---------------------------------------------------------------------------


class TestSelection:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend("pure").name == "pure"

    def test_env_beats_auto(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "pure")
        assert resolve_backend(None).name == "pure"

    @needs_numpy
    def test_env_numpy(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend(None).name == "numpy"

    @needs_numpy
    def test_auto_prefers_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None).name == "numpy"
        assert resolve_backend("auto").name == "numpy"

    def test_unknown_spec_rejected(self, monkeypatch):
        with pytest.raises(FieldError, match="unknown algebra backend"):
            resolve_backend("fortran")
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        with pytest.raises(FieldError, match="unknown algebra backend"):
            resolve_backend(None)

    def test_instance_passthrough(self):
        probe = PureBackend()
        assert resolve_backend(probe) is probe

    def test_numpy_absent_auto_falls_back(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_np", None)
        monkeypatch.setattr(backend_mod, "_np_checked", True)
        monkeypatch.setattr(backend_mod, "_NUMPY", None)
        assert available_backends() == ("pure",)
        assert not numpy_available()
        assert resolve_backend("auto").name == "pure"
        with pytest.raises(FieldError, match="not importable"):
            resolve_backend("numpy")
        with pytest.raises(FieldError, match="not importable"):
            NumpyBackend()

    def test_set_backend_activates_globally(self):
        assert set_backend("pure").name == "pure"
        assert backend_mod.active_backend().name == "pure"


# ---------------------------------------------------------------------------
# Counters and runtime plumbing
# ---------------------------------------------------------------------------


@needs_numpy
class TestCounters:
    def test_rows_vectorized_counts_rows(self):
        set_backend("numpy")
        before = counters.rows_vectorized
        evaluate_rows(F, [[1, 2, 3]] * 10, [1, 2, 3])
        assert counters.rows_vectorized == before + 10

    def test_pure_backend_touches_no_counter(self):
        set_backend("pure")
        snap = counters.snapshot()
        evaluate_rows(F, [[1, 2, 3]] * 10, [1, 2, 3])
        batch_inverse(F, list(range(1, 200)))
        assert counters.snapshot() == snap

    def test_runtime_reports_per_run_deltas(self):
        cfg = SystemConfig(n=4, seed=11)
        # Warm the process-global lagrange_basis caches: the first build
        # on a cold cache costs one extra declined batch_inverse, which
        # would skew the replay-equality assertion below.
        flip_common_coin(cfg, scheduler=FifoScheduler(), algebra_backend="numpy")
        first, _ = flip_common_coin(
            cfg, scheduler=FifoScheduler(), algebra_backend="numpy"
        )
        second, _ = flip_common_coin(
            cfg, scheduler=FifoScheduler(), algebra_backend="numpy"
        )
        assert first.algebra_backend == "numpy"
        assert first.rows_vectorized > 0
        # Deltas, not cumulative process totals: a replay reports the
        # same work.
        assert second.rows_vectorized == first.rows_vectorized
        assert second.backend_fallbacks == first.backend_fallbacks

    def test_pure_run_reports_zero(self):
        result, _ = flip_common_coin(
            SystemConfig(n=4, seed=11),
            scheduler=FifoScheduler(),
            algebra_backend="pure",
        )
        assert result.algebra_backend == "pure"
        assert result.rows_vectorized == 0
        assert result.backend_fallbacks == 0


# ---------------------------------------------------------------------------
# The house A/B discipline: backend on/off, both engines
# ---------------------------------------------------------------------------


@needs_numpy
class TestBitIdenticalAB:
    @pytest.mark.parametrize("engine", ["flat", "legacy"])
    @pytest.mark.parametrize("seed", range(3))
    def test_coin_justifiers_identical(self, engine, seed):
        def flip(algebra_backend):
            result, stack = flip_common_coin(
                SystemConfig(n=4, seed=seed),
                scheduler=FifoScheduler(),
                engine=engine,
                algebra_backend=algebra_backend,
            )
            stack.runtime.run_to_quiescence()
            return result, stack

        off, stack_off = flip("pure")
        on, stack_on = flip("numpy")
        assert on.outputs == off.outputs
        assert coin_justifiers(stack_on) == coin_justifiers(stack_off)
        assert on.rows_vectorized > 0
        # The wire stream is untouched: algebra is below the transport.
        assert on.events_dispatched == off.events_dispatched
        assert on.logical_messages == off.logical_messages

    @pytest.mark.parametrize("engine", ["flat", "legacy"])
    def test_agreement_decisions_identical(self, engine):
        def run(algebra_backend):
            return run_byzantine_agreement(
                [0, 1, 1, 0],
                SystemConfig(n=4, seed=5),
                coin="svss",
                engine=engine,
                algebra_backend=algebra_backend,
            )

        off = run("pure")
        on = run("numpy")
        assert on.decisions == off.decisions
        assert on.rounds == off.rounds
        assert on.events_dispatched == off.events_dispatched
        assert on.rows_vectorized > 0

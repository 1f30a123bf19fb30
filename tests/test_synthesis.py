"""Property suite for Householder-based state preparation unitaries."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wigner_lab import core, protocol, synthesis
from wigner_lab.synthesis import synthesize_from_e0, synthesize_to_e0

DIMS = range(2, 9)


def random_unit_vectors(dim, count, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def e0(dim):
    out = np.zeros(dim, dtype=np.complex128)
    out[0] = 1.0
    return out


class TestSynthesizeToE0:
    def test_e0_gives_identity(self):
        result = synthesize_to_e0(e0(4))
        np.testing.assert_array_equal(result.matrix.matrix, np.eye(4))
        assert result.residual == 0.0

    def test_heads_register(self):
        register = protocol.initial_register(protocol.AliceOutcome.HEADS)
        result = synthesize_to_e0(register)
        out = result.matrix.matrix @ register.amplitudes
        assert np.linalg.norm(out - e0(4)) <= 1e-12

    @pytest.mark.parametrize("dim", DIMS)
    def test_random_vectors(self, dim):
        for i, v in enumerate(random_unit_vectors(dim, 20, seed=dim)):
            result = synthesize_to_e0(v)
            assert result.residual <= 1e-10
            assert core.is_unitary(result.matrix, 1e-10).ok, f"vector {i} in dim {dim}"

    def test_phase_convention(self):
        # a pure global phase still lands on +e0, not on a rotated copy
        v = 1j * e0(3)
        result = synthesize_to_e0(v)
        np.testing.assert_allclose(result.matrix.matrix @ v, e0(3), atol=1e-15)

    def test_subnormal_first_entry(self):
        # 1 / |v[0]| overflows for a subnormal v[0] (a warning, an error in
        # this suite): its phase is taken as 1
        result = synthesize_to_e0(np.array([2.2250738585e-313j, 1.0]))
        assert result.residual <= 1e-15

    def test_dim_one(self):
        result = synthesize_to_e0(np.array([-1.0 + 0j]))
        assert result.residual <= 1e-15

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="not a unit vector"):
            synthesize_to_e0(np.array([0.5, 0.0]))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="norm = 0.0"):
            synthesize_to_e0(np.zeros(3))


class TestSynthesizeFromE0:
    def test_target_state(self):
        target = protocol.target_state()
        result = synthesize_from_e0(target)
        out = result.matrix.matrix @ e0(4)
        assert np.linalg.norm(out - target.amplitudes) <= 1e-12

    def test_e0_gives_identity(self):
        result = synthesize_from_e0(e0(5))
        np.testing.assert_array_equal(result.matrix.matrix, np.eye(5))

    @pytest.mark.parametrize("dim", [2, 4, 7])
    def test_is_adjoint_of_to_e0(self, dim):
        for v in random_unit_vectors(dim, 10, seed=31 + dim):
            forward = synthesize_to_e0(v).matrix
            backward = synthesize_from_e0(v).matrix
            assert np.abs(backward.matrix - forward.matrix.conj().T).max() <= 1e-12

    @pytest.mark.parametrize("dim", DIMS)
    def test_round_trip_fixes_input(self, dim):
        for v in random_unit_vectors(dim, 15, seed=77 + dim):
            to = synthesize_to_e0(v).matrix
            back = synthesize_from_e0(v).matrix
            assert np.linalg.norm(back.matrix @ (to.matrix @ v) - v) <= 1e-10



def near_phase_times_e0(dim, phase, log_delta, seed):
    """The unit vector along alpha*e0 + delta*u: alpha = exp(i*phase),
    delta = 10**log_delta and u a random complex unit vector."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = np.exp(1j * phase) * e0(dim) + 10.0**log_delta * u / np.linalg.norm(u)
    return v / np.linalg.norm(v)


class TestNearAPhaseTimesE0:
    """A vector near alpha*e0 is synthesized as accurately as any other: the
    reflection's first entry is computed without cancellation."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 64),
        st.floats(-np.pi, np.pi),
        st.floats(-16, 0),
        st.integers(0, 2**32 - 1),
    )
    @example(2, 0.0, -6.0, 45)  # to_e0 rejected its own matrix: residual 1e-6
    @example(2, 0.0, -3.0, 0)  # from_e0's residual exceeded 1e-12
    def test_both_directions_succeed(self, dim, phase, log_delta, seed):
        v = near_phase_times_e0(dim, phase, log_delta, seed)
        to, back = synthesize_to_e0(v), synthesize_from_e0(v)
        assert to.residual <= synthesis._DEGENERATE
        assert back.residual <= synthesis._DEGENERATE

"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line.  Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import json

import numpy as np

from wigner_lab import core, protocol, synthesis
from wigner_lab.cli import main
from wigner_lab.montecarlo import (
    MistakePolicy,
    TrialConfig,
    analytic_mistake_table,
    compare_distributions,
    run_trials,
)
from wigner_lab.protocol import AliceOutcome, WrongStateLabel


def report(criterion, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {criterion:2d}: {description}{suffix}")
    assert ok, f"criterion {criterion}: {description}{suffix}"


def test_criterion_01_constant_unitarity():
    deviations = {
        key: core.is_unitary(mat, 1e-12).max_deviation
        for key, mat in protocol.named_matrices().items()
    }
    ok = all(d <= 1e-12 for d in deviations.values())
    report(1, "A_h0, A_t01, R unitary at 1e-12", ok, f"max dev {max(deviations.values()):.2e}")


def test_criterion_02_convergent_evolution():
    target = protocol.target_state().amplitudes
    residuals = []
    for outcome in (AliceOutcome.HEADS, AliceOutcome.TAILS):
        evolved = (
            protocol.entangle_matrix().matrix
            @ protocol.reset_matrix(outcome).matrix
            @ protocol.initial_register(outcome).amplitudes
        )
        residuals.append(float(np.linalg.norm(evolved - target)))
    ok = all(r <= 1e-12 for r in residuals)
    report(2, "both evolutions reach the target state at 1e-12", ok, f"residuals {residuals[0]:.2e}, {residuals[1]:.2e}")


def test_criterion_03_charlie_coefficients():
    expansion = core.change_basis(
        protocol.target_state(), [protocol.charlie_basis("A"), protocol.charlie_basis("B")]
    )
    expected = np.array([np.sqrt(1 / 12), -np.sqrt(1 / 12), np.sqrt(1 / 12), np.sqrt(9 / 12)])
    coeff_dev = float(np.abs(expansion.coefficients - expected).max())
    p_okok = abs(expansion.coefficient("ok_ok")) ** 2
    ok = coeff_dev <= 1e-12 and abs(p_okok - 1 / 12) <= 1e-12
    report(3, "joint Hadamard coefficients and P(ok,ok)=1/12", ok, f"coeff dev {coeff_dev:.2e}")


def test_criterion_04_paradox_audit():
    audit = protocol.paradox_audit(protocol.target_state(), tol=1e-12)
    amps_vanish = max(abs(audit.amp_h1), abs(audit.amp_0okA), abs(audit.amp_tokB)) <= 1e-12
    ok = amps_vanish and abs(audit.p_okok - 1 / 12) <= 1e-12 and audit.contradiction_flag
    report(4, "four-condition contradiction fires on the target state", ok, f"p_okok {audit.p_okok:.6f}")


def test_criterion_05_wrong_state_goldens():
    ht = protocol.wrong_state(WrongStateLabel.ABHT).amplitudes
    th = protocol.wrong_state(WrongStateLabel.ABTH).amplitudes
    ok = (
        np.allclose([ht[0].real, ht[2].real, ht[3].real], [0.8471, 0.5137, -0.1361], atol=1e-4)
        and abs(ht[1]) <= 1e-12
        and np.allclose(th.real, [0.6804, -0.2357, 0.6804, -0.1361], atol=1e-4)
    )
    report(5, "wrong-state coefficients match the 4-decimal references at 1e-4", ok)


def test_criterion_06_frame_views():
    ht = protocol.wrong_state(WrongStateLabel.ABHT)
    th = protocol.wrong_state(WrongStateLabel.ABTH)
    bs_ht = protocol.frame_view(ht, "bs")
    checks = [
        np.allclose(bs_ht.coefficients.real, [1.1980, 0, -0.3334, -0.1361], atol=1e-4),
        abs(bs_ht.naive_norm - 1.5649) <= 1e-3,
        np.allclose(protocol.frame_view(th, "bs").coefficients.real, [0.9622, -0.3333, 0, 0.0996], atol=1e-4),
        np.allclose(protocol.frame_view(ht, "as").coefficients.real, [0.8471, 0, 0.6498, -0.1925], atol=1e-4),
        np.allclose(protocol.frame_view(th, "as").coefficients.real, [0.9161, -0.3333, 0.8165, -0.1925], atol=1e-4),
    ]
    report(6, "all four substitution-frame views at 1e-4, naive norm at 1e-3", all(checks), f"naive {bs_ht.naive_norm:.4f}")


def test_criterion_07_physical_norm_despite_naive_norm():
    checks = []
    for label in (WrongStateLabel.ABHT, WrongStateLabel.ABTH):
        state = protocol.wrong_state(label)
        naive = protocol.frame_view(state, "bs").naive_norm
        checks.append(abs(state.norm() - 1.0) <= 1e-10 and abs(naive - 1.0) > 0.01)
    report(7, "wrong states keep unit physical norm while naive norms differ from 1", all(checks))


def test_criterion_08_monte_carlo_frequencies():
    uniform = run_trials(TrialConfig(100_000, 7, MistakePolicy("uniform")))
    table_check = compare_distributions(
        uniform.resultant_states, analytic_mistake_table(MistakePolicy("uniform")), 4.0
    )
    correct = run_trials(TrialConfig(100_000, 7, MistakePolicy("correct")))
    okok_margin = abs(correct.charlie.probability("ok_ok") - 1 / 12)
    ok = table_check.passed and okok_margin <= 0.0035
    report(8, "seeded 1e5-trial frequencies within 4 sigma of closed forms", ok, f"ok_ok margin {okok_margin:.5f}")


def test_criterion_09_synthesis_property_suite():
    rng = np.random.default_rng(2024)
    count, ok = 0, True
    for dim in range(2, 9):
        for _ in range(20):
            z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v = z / np.linalg.norm(z)
            forward = synthesis.synthesize_to_e0(v)
            backward = synthesis.synthesize_from_e0(v)
            round_trip = backward.matrix.matrix @ (forward.matrix.matrix @ v)
            ok = ok and (
                forward.residual <= 1e-10
                and core.is_unitary(forward.matrix, 1e-10).ok
                and np.linalg.norm(round_trip - v) <= 1e-10
            )
            count += 1
    report(9, "synthesis residual/unitarity/round-trip over random unit vectors, dims 2-8", ok, f"{count} vectors")


def test_criterion_10_separability():
    separable_ok = core.is_separable(
        protocol.initial_register(AliceOutcome.HEADS), 1
    ) and core.is_separable(protocol.initial_register(AliceOutcome.TAILS), 1)
    values = core.schmidt_values(protocol.target_state(), 1)
    # oracle: sqrt of reduced-density eigenvalues of the reshaped amplitudes
    m = protocol.target_state().amplitudes.reshape(2, 2)
    oracle = np.sqrt(np.maximum(np.sort(np.linalg.eigvalsh(m @ m.conj().T))[::-1], 0.0))
    ok = (
        separable_ok
        and not core.is_separable(protocol.target_state(), 1)
        and values[1] > core.TOL_RANK
        and abs(values[1] - 0.356822) <= 1e-3
        and np.abs(values - oracle).max() <= 1e-12
    )
    report(10, "registers separable, target entangled with second Schmidt value 0.3568", ok, f"values {values.round(6)}")


def test_criterion_11_simulate_determinism(capsys):
    args = ["simulate", "-n", "100000", "--seed", "7", "--policy", "uniform", "--format", "json"]
    code_a = main(list(args))
    out_a = capsys.readouterr().out
    code_b = main(list(args))
    out_b = capsys.readouterr().out
    ok = code_a == 0 and code_b == 0 and out_a.encode() == out_b.encode()
    json.loads(out_a)
    report(11, "identical simulate invocations emit byte-identical JSON", ok)

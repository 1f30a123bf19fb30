#!/usr/bin/env python3
"""Run the protocol's verification checks, print every named state in its
basis and frame views, and audit the two-qubit states.

A one-stop reproduction of all the coefficient tables the library encodes.
"""

import numpy as np

from wigner_lab import core, protocol


def show(label, expansion, naive=False):
    pieces = ", ".join(f"{l}: {c.real:+.4f}" for l, c in zip(expansion.labels, expansion.coefficients))
    line = f"  {label:<18} {pieces}"
    if naive:
        line += f"   | naive norm {expansion.naive_norm:.4f}"
    print(line)


def main():
    states = protocol.named_states()
    charlie = [protocol.charlie_basis("A"), protocol.charlie_basis("B")]

    print("verification checks (the list `wigner-lab verify` runs):")
    for name, value in protocol.verification_checks():
        print(f"  {name:<20} {value:.2e}")

    print("\ncomputational amplitudes:")
    for key, state in states.items():
        amps = ", ".join(f"{a.real:+.4f}" for a in state.amplitudes)
        print(f"  {key:<10} [{amps}]   norm {state.norm():.10f}")

    print("\ntwo-qubit states in the joint Hadamard (ok/fail) basis:")
    for key in ("psi_AB", "psi_h0", "psi_t01", "psi_ABht", "psi_ABth"):
        show(key, core.change_basis(states[key], charlie))

    print("\nsubstitution-frame views (coefficients need not square-sum to 1):")
    for key in ("psi_AB", "psi_ABht", "psi_ABth"):
        for view in ("bs", "as"):
            show(f"{key} [{view}]", protocol.frame_view(states[key], view), naive=True)

    print("\nparadox audits (h1 amplitude, ok_A|0> and t|ok_B> coefficients, P(ok,ok)):")
    for key in ("psi_AB", "psi_h0", "psi_t01", "psi_ABht", "psi_ABth"):
        a = protocol.paradox_audit(states[key])
        flag = "CONTRADICTION" if a.contradiction_flag else "consistent"
        print(
            f"  {key:<10} {a.amp_h1.real:+.4f}  {a.amp_0okA.real:+.4f}  "
            f"{a.amp_tokB.real:+.4f}  P={a.p_okok:.5f}  -> {flag}"
        )

    print("\nschmidt values across the A|B split:")
    for key in ("psi_h0", "psi_t01", "psi_AB", "psi_ABht", "psi_ABth"):
        values = core.schmidt_values(states[key], 1)
        tag = "separable" if core.is_separable(states[key], 1) else "entangled"
        print(f"  {key:<10} {np.round(values, 6)}  ({tag})")


if __name__ == "__main__":
    main()

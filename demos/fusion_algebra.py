#!/usr/bin/env python3
"""Walk through the post-selected PBS fusion algebra.

Five polarization-entangled pairs enter a chain of four polarizing beam
splitters; demanding one photon per output projects onto the components in
which all fused photons share a polarization, which grows a ten-photon
GHZ state.  This script builds the state vector exactly, checks the
success probability against its closed form, and evaluates the witness.
"""

import numpy as np

from spdclab import qstate

print("=== balanced pairs ===")
bell_net = qstate.reference_network(theta_state=np.pi / 4)
state, prob = qstate.fuse_and_postselect(bell_net)
print(f"post-selection success probability: {prob:.6f}  (1/16 = {1 / 16:.6f})")
ghz = qstate.ghz_state(10)
print(f"max deviation from GHZ_10 amplitudes: {np.abs(state.amps - ghz.amps).max():.2e}")

print("\n=== unbalanced pairs, last two rotated by 90 degrees ===")
theta = 7 * np.pi / 30
net = qstate.reference_network(theta_state=theta)
state, prob = qstate.fuse_and_postselect(net)
print(f"success probability: {prob:.6f}  (cos^4 sin^4 = {np.cos(theta)**4 * np.sin(theta)**4:.6f})")
print(f"amplitudes: all-H {state.amps[0].real:.5f} (cos {np.cos(theta):.5f}), "
      f"all-V {state.amps[-1].real:.5f} (sin {np.sin(theta):.5f})")

print("\n=== witness expectations ===")
for k in (0, 1, 5):
    op = qstate.GlobalOperator(10, ((1.0, tuple([qstate.mk_operator(k, 10)] * 10)),))
    print(f"<M_{k}^x10> on GHZ_10: {qstate.expectation(ghz, op):+.6f}   "
          f"on the unbalanced state: {qstate.expectation(state, op):+.6f}")

witness_op = qstate.witness_decomposition(10)
fid = qstate.expectation(state, witness_op)
overlap = ((np.cos(theta) + np.sin(theta)) / np.sqrt(2)) ** 2
print(f"\nGHZ fidelity of the unbalanced state: {fid:.6f} "
      f"(closed form {overlap:.6f})")

print("\n=== the witness decomposition is exactly the projector (n=3) ===")
dense = qstate.witness_decomposition(3).dense()
target = np.zeros(8, dtype=complex)
target[0] = target[-1] = 2**-0.5
print(f"max entrywise deviation: {np.abs(dense - np.outer(target, target)).max():.2e}")

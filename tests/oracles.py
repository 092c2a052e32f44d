"""Reference computations that the tests check the package against.

They use the package's own building blocks in another way than the solver
does, and no solver path calls them.
"""

from dataclasses import replace

import numpy as np

from cemhelm import cem
from cemhelm.grid import oversample


def conjugate_basis(trial):
    """Test vectors: conjugates of the trial vectors (the local systems are
    complex symmetric with real right-hand sides)."""
    return np.conj(trial) if isinstance(trial, np.ndarray) else trial.conj()


def conjugate_condensation(cond):
    """The condensation of conj(B): Z_e and C_e are real, so only S_e and
    the B_RR diagonals are conjugated."""
    return replace(cond, S=cond.S.conj(), diag=cond.diag.conj())


def adjoint_cem_solve(j, m, forms, P, strict_zero_trace=False):
    """All nbf vectors of element j on its m-layer patch solved with the
    patch system of conj(B), zero-extended: an independent check of the
    conjugate test vectors (`cem.local_cem_solve` solves that of B)."""
    cond = cem._condense(forms, P)
    rows, vals = cem._solve_now(
        conjugate_condensation(cond),
        cem._skeleton_layout(cond, forms.coarse, j, m, strict_zero_trace), [j], m,
        cem._trial_sources(cond, [j], [0]), P.nbf,
    )
    psi = np.zeros((forms.grid.n_nodes, P.nbf), dtype=complex)
    psi[rows[0]] = vals[0]
    return psi, oversample(forms.coarse, j, m)

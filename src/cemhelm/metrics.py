"""Discrete norms and relative errors.

All norms are matrix-weighted with the same assembled operators the solvers
use, so multiscale-vs-reference comparisons are internally consistent.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ZeroReference

__all__ = ["l2_norm", "a_norm", "relative_errors", "ErrorReport"]


def _quad(W, u):
    u = np.asarray(u)
    if u.shape[0] != W.shape[0]:
        raise DimensionMismatch(f"vector of length {u.shape[0]} against {W.shape} matrix")
    return float(np.real(np.vdot(u, W @ u)))


def l2_norm(u, M):
    return np.sqrt(max(_quad(M, u), 0.0))


def a_norm(u, K):
    return np.sqrt(max(_quad(K, u), 0.0))


@dataclass
class ErrorReport:
    e_l2: float
    e_energy: float
    norms: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "e_l2": self.e_l2,
            "e_energy": self.e_energy,
            "norms": dict(self.norms),
            "meta": dict(self.meta),
        }


def relative_errors(u_ref, u_approx, forms, meta=None):
    """Relative L2 and energy errors of u_approx against u_ref."""
    u_ref = np.asarray(u_ref)
    u_approx = np.asarray(u_approx)
    if u_ref.shape != u_approx.shape:
        raise DimensionMismatch(f"{u_ref.shape} vs {u_approx.shape}")
    ref_l2 = l2_norm(u_ref, forms.M)
    ref_a = a_norm(u_ref, forms.K)
    if ref_l2 == 0.0:
        raise ZeroReference("reference field has zero L2 norm")
    diff = u_approx - u_ref
    err_l2 = l2_norm(diff, forms.M)
    err_a = a_norm(diff, forms.K)
    return ErrorReport(
        e_l2=err_l2 / ref_l2,
        e_energy=err_a / ref_a if ref_a > 0.0 else err_a,
        norms={
            "ref_l2": ref_l2,
            "ref_energy": ref_a,
            "diff_l2": err_l2,
            "diff_energy": err_a,
        },
        meta=dict(meta or {}),
    )

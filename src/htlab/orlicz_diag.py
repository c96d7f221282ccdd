"""Young functions, Luxemburg norms and integrability diagnostics.

Exactly four Young-function kinds are implemented: the power family, the
exponential-moment function theta(|a|), its conjugate (1+|a|)log(1+|a|)-|a|,
and the sup-norm indicator. Every weighted-space statement used elsewhere in
the package involves only these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from htlab.errors import DegenerateInputError, ModelValidationError
from htlab.hjb_check import theta, theta_star

KINDS = ("power", "theta_exp", "theta_star_llogl", "sup_norm")


@dataclass(frozen=True)
class YoungFunction:
    """Convex even function vanishing at 0, evaluated elementwise.

    kind "power" carries the exponent p >= 1; the other kinds ignore p.
    """

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelValidationError(f"unknown Young-function kind {self.kind!r}",
                                       reason="bad_young_kind")
        if self.kind == "power":
            if self.p is None or self.p < 1.0:
                raise ModelValidationError("power kind needs exponent p >= 1",
                                           reason="bad_exponent")
        elif self.p is not None:
            raise ModelValidationError(f"kind {self.kind!r} takes no exponent",
                                       reason="bad_exponent")

    def __call__(self, a):
        a = np.abs(np.asarray(a, dtype=float))
        if self.kind == "power":
            out = a ** self.p / self.p
        elif self.kind == "theta_exp":
            return theta(a)
        elif self.kind == "theta_star_llogl":
            return theta_star(a)
        else:  # sup_norm
            out = np.where(a <= 1.0, 0.0, np.inf)
        return out if out.ndim else float(out)

    def conjugate(self) -> "YoungFunction":
        if self.kind == "power":
            if self.p == 1.0:
                return YoungFunction("sup_norm")
            q = self.p / (self.p - 1.0)
            return YoungFunction("power", q)
        if self.kind == "theta_exp":
            return YoungFunction("theta_star_llogl")
        if self.kind == "theta_star_llogl":
            return YoungFunction("theta_exp")
        return YoungFunction("power", 1.0)


@dataclass(frozen=True)
class WeightedMeasure:
    """Strictly positive weights with total mass one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise DegenerateInputError("weights must form a nonempty vector",
                                       reason="empty_measure")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ModelValidationError("weights must be strictly positive",
                                       reason="nonpositive_measure")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ModelValidationError("weights must sum to 1",
                                       reason="unnormalized_measure")
        w = w / w.sum()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def luxemburg_norm(u: np.ndarray, m: WeightedMeasure,
                   gammaY: YoungFunction, rtol: float = 1e-10) -> float:
    """inf{alpha > 0 : integral gamma(|u|/alpha) dm <= 1} by bisection."""
    u = np.abs(np.asarray(u, dtype=float))
    if u.shape != m.weights.shape:
        raise ModelValidationError("vector and measure sizes differ",
                                   reason="dimension_mismatch")
    if not np.all(np.isfinite(u)):
        raise ModelValidationError("vector must be finite",
                                   reason="nonfinite_vector")
    peak = float(u.max())
    if peak == 0.0:
        return 0.0
    if gammaY.kind == "sup_norm":
        return peak

    def mean_value(alpha: float) -> float:
        return float(np.sum(m.weights * gammaY(u / alpha)))

    hi = peak
    while mean_value(hi) > 1.0:
        hi *= 2.0
    lo = 0.5 * hi
    while mean_value(lo) <= 1.0:
        hi = lo
        lo *= 0.5
        if lo < 1e-280:
            # gamma(x)->infinity as x->infinity for the continuous kinds, so
            # the bracket always closes; this is a defensive stop.
            return hi
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if mean_value(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class HolderCheck:
    lhs: float
    rhs: float
    satisfied: bool
    norm_u: float
    norm_v: float


def holder_check(u: np.ndarray, v: np.ndarray, m: WeightedMeasure,
                 gammaY: YoungFunction) -> HolderCheck:
    """Weighted-space pairing bound with the conjugate norm and factor 2."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    lhs = float(np.sum(m.weights * np.abs(u * v)))
    nu = luxemburg_norm(u, m, gammaY)
    nv = luxemburg_norm(v, m, gammaY.conjugate())
    rhs = 2.0 * nu * nv
    return HolderCheck(lhs=lhs, rhs=rhs,
                       satisfied=bool(lhs <= rhs * (1.0 + 1e-12)),
                       norm_u=nu, norm_v=nv)


@dataclass(frozen=True)
class HypothesisReport:
    """Computed integrability quantities behind the transform's entropy bounds.

    On a finite space every integral is a finite sum, so the verdict is
    always satisfied; the value of the report is the numbers themselves.
    """

    v_min: float
    lo: float
    bounded_below: bool
    gamma1_integral: float
    f0_sqlog_integral: float
    gamma1_sqlog_integral: float
    sup_v_conjugate_integral: float
    p: float
    verdict: str

    def report(self) -> str:
        lines = [f"v_min={self.v_min:.6e}",
                 f"lo={self.lo:.6e}",
                 f"bounded_below={'yes' if self.bounded_below else 'no'}",
                 f"gamma1_integral={self.gamma1_integral:.6e}",
                 f"f0_sqlog_integral={self.f0_sqlog_integral:.6e} (p={self.p})",
                 f"gamma1_sqlog_integral={self.gamma1_sqlog_integral:.6e}",
                 f"sup_v_conjugate_integral={self.sup_v_conjugate_integral:.6e}",
                 f"verdict={self.verdict}"]
        return "\n".join(lines) + "\n"


def _sqlog_integral(w: np.ndarray, m: np.ndarray, p: float) -> float:
    logplus = np.where(w > 1.0, np.log(np.maximum(w, 1.0)), 0.0)
    return float(np.sum(w * w * logplus ** p * m))


def hypothesis_report(f0: np.ndarray, gamma1: np.ndarray, V: np.ndarray,
                      m: WeightedMeasure, gammaY: YoungFunction,
                      p: float = 2.0) -> HypothesisReport:
    """Evaluate the standing integrability hypotheses on concrete inputs.

    V may be a single time slice or a full (N+1) x n field; the conjugate
    integral is reported as the sup over time slices. Finiteness of the two
    square-log-power integrals for some p > 1 is a sufficient condition for
    the transformed law to have finite relative entropy.
    """
    if p <= 1.0:
        raise ModelValidationError("exponent must exceed 1", reason="bad_exponent")
    f0 = np.asarray(f0, dtype=float)
    gamma1 = np.asarray(gamma1, dtype=float)
    V = np.atleast_2d(np.asarray(V, dtype=float))
    w = m.weights
    v_min = float(V.min())
    conj = gammaY.conjugate()
    with np.errstate(over="ignore"):
        conj_rows = np.array([float(np.sum(w * conj(row))) for row in V])
    return HypothesisReport(
        v_min=v_min,
        lo=max(0.0, -v_min),
        bounded_below=bool(np.isfinite(v_min)),
        gamma1_integral=float(np.sum(w * gammaY(gamma1))),
        f0_sqlog_integral=_sqlog_integral(f0, w, p),
        gamma1_sqlog_integral=_sqlog_integral(gamma1, w, p),
        sup_v_conjugate_integral=float(conj_rows.max()),
        p=p,
        verdict="satisfied (finite space)")

"""Assembly of cuspidal lower bounds and the GL2 trace.

The core inequality is

    dim H^1_cusp(Gamma, E) >= (1/2) |L + tr1_Eis - tr2_Eis - tr0|,

valid because the involution has eigenvalues +-1 and degree-1 cuspidal
classes pair off under duality.  Every report records whether the
degree-1 Eisenstein trace was exact (inert prime power, class number one,
weight zero) or replaced by the worst-case window [-c, c], so tables can
never silently mix the two regimes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .eisenstein import cusp_count, trace_h2_eis, trace_sigma_h1_eis
from .exactmath import ConformanceError
from .lefschetz import (DEFAULT_BRACKET, lefschetz_level_one, lefschetz_sigma_principal,
                        make_level)
from .quadfield import INERT, SIGMA, TAU, QuadField

EXACT, WORST_CASE = "exact", "worst_case"


class BoundReport(NamedTuple):
    mode: str
    L: int
    tr0: int
    tr2_eis: int
    bound: int
    provenance: dict[str, str]
    warnings: list[str]
    tr1_eis: int | None = None
    tr1_window: int | None = None          # |tr1| <= window in worst-case mode


def cusp_lower_bound(field: QuadField, N: int, k: int) -> BoundReport:
    """Lower bound for dim H^1_cusp(Gamma(N), E_{k,k}) under sigma, the one
    involution with a closed Lefschetz formula at principal level.

    Exact mode needs k = 0, class number one and N = p^n with p inert;
    everything else falls back to the worst-case window bound
    max(0, ceil((|L - tr2 - tr0| - c)/2)) with |tr1| <= c.
    """
    level = make_level(field, N)  # validates N > 2
    prov: dict[str, str] = {}
    warnings: list[str] = []

    L = lefschetz_sigma_principal(field, level, k)
    (p, n, spl), *others = level.factors
    prov["L"] = ("principal-level Lefschetz number (surface-count table)" if p == 2 or others
                 else "prime-power-level Lefschetz number (odd unramified prime)")
    if others:
        warnings.append("composite level: Lefschetz constant outside the validated "
                        "prime-power domain")

    tr2 = trace_h2_eis(field, N, k, SIGMA)  # raises on ramified levels
    prov["tr2_eis"] = "degree-2 Eisenstein trace (unramified level)"
    tr0 = 1 if k == 0 else 0
    prov["tr0"] = ("trivial action on degree 0 of a connected space" if k == 0
                   else "zero on degree 0 (irreducible nontrivial coefficients)")

    if k == 0 and field.h == 1 and not others and spl == INERT:
        tr1 = trace_sigma_h1_eis(field, p, n)
        prov["tr1_eis"] = "degree-1 Eisenstein trace via the cocycle span " \
                          "(inert prime power, class number one)"
        total = L + tr1 - tr2 - tr0
        if total % 2:
            raise ConformanceError(
                f"exact-mode sum {total} is odd; halving would not give an integer")
        bound = abs(total) // 2
        return BoundReport(mode=EXACT, L=L, tr0=tr0, tr1_eis=tr1, tr2_eis=tr2, bound=bound,
                           provenance=prov, warnings=warnings)

    c = cusp_count(field, N)
    prov["tr1_eis"] = "worst-case window from the Eisenstein dimension c(Gamma)"
    raw = abs(L - tr2 - tr0) - c
    bound = max(0, (raw + 1) // 2)  # ceil of raw/2, clamped
    return BoundReport(mode=WORST_CASE, L=L, tr0=tr0, tr1_eis=None, tr1_window=c, tr2_eis=tr2,
                       bound=bound, provenance=prov, warnings=warnings)


# ---------------------------------------------------------------------------
# GL2 trace
# ---------------------------------------------------------------------------


def gl2_trace_sigma1(field: QuadField, k: int, variant: str = DEFAULT_BRACKET) -> Fraction:
    """Trace of sigma on H^1(GL2(O), E_{k,k}):
    -(L(tau) + L(sigma) + 2^t - 4*delta(k,0)) / 4.

    When integral, its absolute value bounds dim H^1(GL2(O), E_{k,k}), which
    embeds into degree-1 cuspidal cohomology of SL2(O).  At odd k the
    bracket reading behind it is still unadjudicated.
    """
    ls = lefschetz_level_one(field, SIGMA, k, variant)
    lt = lefschetz_level_one(field, TAU, k, variant)
    delta = 4 if k == 0 else 0
    return Fraction(-(lt + ls + 2**field.t - delta), 4)

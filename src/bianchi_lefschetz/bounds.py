"""Assembly of cuspidal lower bounds and asymptotic scans.

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
from .exactmath import ConformanceError, InputError, euler_phi
from .lefschetz import (DEFAULT_BRACKET, lefschetz_level_one, lefschetz_sigma_principal,
                        make_level)
from .quadfield import INERT, SIGMA, TAU, QuadField, make_field

EXACT, WORST_CASE = "exact", "worst_case"


class BoundReport(NamedTuple):
    d: int
    N: int
    k: int
    involution: str
    mode: str
    L: int
    tr0: int
    tr2_eis: int
    bound: int
    provenance: dict[str, str]
    warnings: list[str]
    tr1_eis: int | None = None
    tr1_window: int | None = None          # |tr1| <= window in worst-case mode


def cusp_lower_bound(field: QuadField, N: int, k: int,
                     involution: str = SIGMA) -> BoundReport:
    """Lower bound for dim H^1_cusp(Gamma(N), E_{k,k}) under the involution.

    Exact mode needs k = 0, class number one, N = p^n with p inert and the
    untwisted involution; everything else falls back to the worst-case
    window bound max(0, ceil((|L - tr2 - tr0| - c)/2)) with |tr1| <= c.
    """
    if involution == TAU:
        raise InputError("no closed Lefschetz formula at principal level for tau; "
                         "tau is available at level one only")
    if involution != SIGMA:
        raise InputError(f"unknown involution {involution!r}")
    level = make_level(field, N)  # validates N > 2
    prov: dict[str, str] = {}
    warnings: list[str] = []

    L = lefschetz_sigma_principal(field, level, k)
    if len(level.factors) == 1:
        p, n, spl = level.factors[0]
        prov["L"] = ("prime-power-level Lefschetz number (odd unramified prime)"
                     if p != 2 else "principal-level Lefschetz number (surface-count table)")
    else:
        p = n = None
        spl = None
        prov["L"] = "principal-level Lefschetz number (surface-count table)"
        warnings.append("composite level: Lefschetz constant outside the validated "
                        "prime-power domain")

    tr2 = trace_h2_eis(field, N, k, SIGMA)  # raises on ramified levels
    prov["tr2_eis"] = "degree-2 Eisenstein trace (unramified level)"
    tr0 = 1 if k == 0 else 0
    prov["tr0"] = ("trivial action on degree 0 of a connected space" if k == 0
                   else "zero on degree 0 (irreducible nontrivial coefficients)")

    if k == 0 and field.h == 1 and len(level.factors) == 1 and spl == INERT:
        tr1 = trace_sigma_h1_eis(field, p, n)
        prov["tr1_eis"] = "degree-1 Eisenstein trace via the cocycle span " \
                          "(inert prime power, class number one)"
        total = L + tr1 - tr2 - tr0
        if total % 2:
            raise ConformanceError(
                f"exact-mode sum {total} is odd; halving would not give an integer")
        bound = abs(total) // 2
        return BoundReport(d=field.d, N=N, k=k, involution=involution, mode=EXACT,
                           L=L, tr0=tr0, tr1_eis=tr1, tr2_eis=tr2, bound=bound,
                           provenance=prov, warnings=warnings)

    c = cusp_count(field, N)
    prov["tr1_eis"] = "worst-case window from the Eisenstein dimension c(Gamma)"
    raw = abs(L - tr2 - tr0) - c
    bound = max(0, (raw + 1) // 2)  # ceil of raw/2, clamped
    return BoundReport(d=field.d, N=N, k=k, involution=involution, mode=WORST_CASE,
                       L=L, tr0=tr0, tr1_eis=None, tr1_window=c, tr2_eis=tr2,
                       bound=bound, provenance=prov, warnings=warnings)


# ---------------------------------------------------------------------------
# GL2 trace and bound
# ---------------------------------------------------------------------------


class GL2Trace(NamedTuple):
    d: int
    k: int
    variant: str
    value: Fraction
    unadjudicated: bool   # odd weights: bracket reading still open

    @property
    def integral(self) -> bool:
        return self.value.denominator == 1


def gl2_trace_sigma1(field: QuadField, k: int,
                     variant: str = DEFAULT_BRACKET) -> GL2Trace:
    """Trace of sigma on H^1(GL2(O), E_{k,k}):
    -(L(tau) + L(sigma) + 2^t - 4*delta(k,0)) / 4.
    """
    ls = lefschetz_level_one(field, SIGMA, k, variant)
    lt = lefschetz_level_one(field, TAU, k, variant)
    delta = 4 if k == 0 else 0
    value = Fraction(-(lt.value + ls.value + 2**field.t - delta), 4)
    return GL2Trace(d=field.d, k=k, variant=variant, value=value,
                    unadjudicated=k % 2 == 1)


def gl2_lower_bound(field: QuadField, k: int, variant: str = DEFAULT_BRACKET) -> int:
    """|trace| as a lower bound for dim H^1(GL2(O), E_{k,k}); this embeds
    into degree-1 cuspidal cohomology of SL2(O), so it bounds that too."""
    tr = gl2_trace_sigma1(field, k, variant)
    if not tr.integral:
        raise ConformanceError(
            f"GL2 trace {tr.value} is not an integer under variant {variant!r}; "
            "bracket adjudication failure")
    return abs(int(tr.value))


# ---------------------------------------------------------------------------
# Growth scans
# ---------------------------------------------------------------------------


class ScanReport(NamedTuple):
    kind: str
    rows: list[dict]
    min_ratio: Fraction | None = None
    floor_ok: bool | None = None
    constant: bool | None = None


def scan_prime_tower(field: QuadField, p: int, n_values: list[int], k: int = 0) -> ScanReport:
    """Exact bounds up a tower N = p^n next to the volume scale p^{3n}.

    The flag records whether bound / p^{3n} stays above a positive floor,
    which is the desk-scale shadow of the >> p^{3n} growth statement.
    """
    rows = []
    ratios = []
    for n in n_values:
        report = cusp_lower_bound(field, p**n, k)
        ref = p ** (3 * n)
        ratio = Fraction(report.bound, ref)
        ratios.append(ratio)
        rows.append({"n": n, "N": p**n, "bound": report.bound, "mode": report.mode,
                     "reference": ref, "ratio": ratio})
    min_ratio = min(ratios) if ratios else None
    return ScanReport(kind="prime-tower", rows=rows, min_ratio=min_ratio,
                      floor_ok=bool(min_ratio and min_ratio > 0))


def scan_weights(field: QuadField, N: int, k_values: list[int]) -> ScanReport:
    """L(sigma, Gamma(N), .)/(k+1) across weights; linearity makes it constant."""
    rows = []
    per_weight = []
    for k in k_values:
        L = lefschetz_sigma_principal(field, N, k)
        r = Fraction(L, k + 1)
        per_weight.append(r)
        rows.append({"k": k, "L": L, "per_weight": r})
    return ScanReport(kind="weights", rows=rows,
                      constant=len(set(per_weight)) <= 1)


def scan_discriminants(k: int = 0, d_floor: int = -100) -> ScanReport:
    """GL2 bound against Euler phi of |D| over a square-free grid of d.

    Rows where the trace fails integrality are flagged and excluded from
    the ratio minimum instead of aborting the scan.
    """
    from .quadfield import is_square_free

    rows = []
    ratios = []
    for d in range(-2, d_floor - 1, -1):
        if d in (-1, -3) or not is_square_free(d):
            continue
        f = make_field(d)
        tr = gl2_trace_sigma1(f, k)
        phi = euler_phi(abs(f.D))
        row = {"d": d, "D": f.D, "trace": tr.value, "integral": tr.integral,
               "phi_D": phi}
        if tr.integral:
            bound = abs(int(tr.value))
            row["bound"] = bound
            row["ratio"] = Fraction(bound, phi)
            ratios.append(row["ratio"])
        else:
            row["warning"] = "non-integral trace; adjudication diagnostic"
        rows.append(row)
    return ScanReport(kind="discriminants", rows=rows,
                      min_ratio=min(ratios) if ratios else None,
                      floor_ok=None)

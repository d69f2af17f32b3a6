"""The package's self-verification battery.

Ten checks, each measuring a mathematical property of the implementation at
a stated tolerance and reporting one pass/fail record.  Nothing here is a
frozen expected table: every reference value is computed at run time from
an independent route (closed-form spectra, factorials, quadrature, the
matrix-exponential oracle).  The battery is shared by the test suite
(tests/test_acceptance.py) and the command line (`polyosc verify`).
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass

import numpy as np

from . import coherent as co
from . import krawtchouk as kr
from .chains import boson_chain
from .momentsys import moment_round_trip
from .polyrec import RecurrenceCoefficients, worst_of

_P_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
_N_GRID = (2, 5, 10, 25, 50)


@dataclass
class CriterionResult:
    cid: int
    title: str
    measured: float
    bound: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = ("  [%s]" % self.detail) if self.detail else ""
        return "%s  %2d  %-58s  measured %.3e  bound %.1e%s" % (
            tag, self.cid, self.title, self.measured, self.bound, extra,
        )


def criterion_1() -> CriterionResult:
    """Lattice-oscillator spectrum equals N(n + 1/2) - n^2 across a (p, N) grid."""
    t0 = time.perf_counter()
    worst = 0.0
    for p in _P_GRID:
        for N in _N_GRID:
            worst = worst_of(worst, kr.lattice_spectrum_deviation(p, N))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 5.0
    return CriterionResult(
        1, "lattice spectrum N(n+1/2)-n^2 over 25 (p,N) pairs", worst, 1e-9, ok,
        detail="%.2fs (budget 5s)" % dt,
    )


def criterion_2() -> CriterionResult:
    """Grid Hamiltonian: spectrum n + 1/2 and the ladder factorization."""
    worst_spec = 0.0
    worst_fact = 0.0
    for p in _P_GRID:
        for N in _N_GRID:
            worst_spec = worst_of(worst_spec, kr.grid_spectrum_deviation(p, N))
            worst_fact = worst_of(worst_fact, kr.grid_factorization_residual(p, N))
    worst = worst_of(worst_spec, worst_fact)
    return CriterionResult(
        2, "grid spectrum n+1/2 and [A+,A-]/2 + (N+1)/2 factorization",
        worst, 1e-8, worst < 1e-8,
        detail="spectrum %.1e, factorization %.1e" % (worst_spec, worst_fact),
    )


def criterion_3() -> CriterionResult:
    """Hermite-chain profile normalization equals N!/(N+1), N = 1..12."""
    worst = 0.0
    chain = boson_chain(16)
    for N in range(1, 13):
        got = co.profile_normalization(chain, dim=N + 1)
        want = math.factorial(N) / (N + 1.0)
        worst = worst_of(worst, abs(got - want) / want)
    anchors = worst_of(
        abs(co.profile_normalization(chain, dim=2) - 0.5) / 0.5,
        abs(co.profile_normalization(chain, dim=3) - 2.0 / 3.0) / (2.0 / 3.0),
    )
    worst = worst_of(worst, anchors)
    return CriterionResult(
        3, "Hermite normalization constant N!/(N+1), N=1..12",
        worst, 1e-9, worst < 1e-9,
    )


def _random_chain(rng, nmax: int) -> tuple[RecurrenceCoefficients, int]:
    N = int(rng.integers(1, nmax + 1))
    b = np.zeros(N + 1)
    b[:N] = rng.uniform(0.3, 2.0, size=N)
    return RecurrenceCoefficients(b=b), N


def criterion_4() -> CriterionResult:
    """Exponential, series and closed-form coherent states agree pairwise."""
    rng = np.random.default_rng(20260815)
    worst_overlap = worst_distance = 0.0  # deficit 1 - |<u|v>|, ||u - v||_max
    worst_norm = 0.0
    for _ in range(25):
        chain, _N = _random_chain(rng, 8)
        r = rng.uniform(0.0, 3.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        z = r * np.exp(1j * phi)
        agreement = co.route_agreement({
            "exponential": co.coherent_via_exponential(chain, z),
            "series": co.coherent_via_recurrence(chain, z),
            "closed_form": co.coherent_closed_form(chain, z),
        })
        worst_overlap = worst_of(worst_overlap, agreement["worst_overlap_deficit"])
        worst_distance = worst_of(worst_distance, agreement["worst_distance"])
        worst_norm = worst_of(worst_norm, agreement["worst_norm_deficit"])
    measured = worst_of(worst_overlap, worst_distance)
    ok = measured < 1e-7 and worst_norm < 1e-8
    return CriterionResult(
        4, "three-way coherent-state agreement, 25 random (chain, z)",
        measured, 1e-7, ok,
        detail="overlap deficit %.1e, distance %.1e (bound 1e-7), worst norm defect "
        "%.1e (bound 1e-8)" % (worst_overlap, worst_distance, worst_norm),
    )


def criterion_5() -> CriterionResult:
    """Transfer coefficients: recurrence route vs root/weight closed form."""
    rng = np.random.default_rng(1184)
    worst = 0.0
    for _ in range(10):
        chain, N = _random_chain(rng, 6)
        nmax = 3 * N
        d_rec = co.transfer_coefficients(chain, nmax)
        d_cf = co.transfer_closed_form(chain, nmax)
        denom = np.maximum(1.0, np.maximum(np.abs(d_rec), np.abs(d_cf)))
        worst = worst_of(worst, np.abs(d_rec - d_cf) / denom)
    return CriterionResult(
        5, "transfer table closed form vs recurrence, n<=3N, 10 chains",
        worst, 1e-8, worst < 1e-8,
    )


def criterion_6() -> CriterionResult:
    """Finite-sum identity battery on Hermite and lattice chains, N <= 12."""
    worst = 0.0
    pieces = {}
    hermite = boson_chain(16)
    chains = []
    for N in range(2, 13):
        chains.append(("hermite", hermite, N + 1))
        for p in (0.3, 0.5, 0.7):
            chains.append(("krawtchouk", kr.symmetric_chain(p, N), None))
    for label, chain, dim in chains:
        for key, val in co.identity_residuals(chain, dim=dim).items():
            pieces[key] = worst_of(pieces.get(key, 0.0), val)
            worst = worst_of(worst, val)
    detail = ", ".join("%s %.0e" % (k, v) for k, v in sorted(pieces.items()))
    return CriterionResult(
        6, "root/parity identity ledger on Hermite+lattice chains",
        worst, 1e-8, worst < 1e-8, detail=detail,
    )


def criterion_7() -> CriterionResult:
    """Dual orthogonality of kt_n as Psi's Gram pair (rows, columns), N up to 30."""
    worst = 0.0
    # N descending: the 32 records kr._lattice keeps are criterion 8's first reads
    for N in range(30, 0, -1):
        for p in (0.2, 0.5, 0.8):
            worst = worst_of(worst, *kr.grid_orthogonality_residuals(p, N))
    return CriterionResult(
        7, "dual and grid orthogonality as one Gram pair of Psi, N<=30",
        worst, 1e-9, worst < 1e-9,
    )


def criterion_8() -> CriterionResult:
    """Intertwiner: unitarity, ladder transport, Hamiltonian relation."""
    worst_u = worst_t = worst_h = 0.0
    # criterion 7's visits in reverse: its last records are read first, as hits
    for N in range(1, 21):
        for p in (0.8, 0.5, 0.2):
            # T'T - 1 is Psi Psi' - 1 up to the signs diag((-1)^n)
            worst_u = worst_of(worst_u, kr.grid_orthogonality_residuals(p, N)[0])
            worst_t = worst_of(worst_t, kr.transport_residual(p, N))
            worst_h = worst_of(worst_h, kr.hamiltonian_relation_residual(p, N))
    ok = worst_u < 1e-10 and worst_t < 1e-9 and worst_h < 1e-8
    return CriterionResult(
        8, "unitary intertwiner: T'T=1, ladder transport, H relation",
        worst_of(worst_u, worst_t, worst_h), 1e-8, ok,
        detail="unitarity %.1e (1e-10), transport %.1e (1e-9), H %.1e (1e-8)"
        % (worst_u, worst_t, worst_h),
    )


def criterion_9() -> CriterionResult:
    """Moments round-trip and the low-order moment anchors."""
    rng = np.random.default_rng(907)
    worst_rt = 0.0
    worst_anchor = 0.0
    cases = [boson_chain(12)]
    for _ in range(6):
        cases.append(RecurrenceCoefficients(b=rng.uniform(0.3, 2.0, size=12)))
    for chain in cases:
        for N in (2, 4, 8, 12):
            mom, _, rel = moment_round_trip(chain, N)
            worst_rt = worst_of(worst_rt, rel)
            mu2, mu4 = mom.moment(2), mom.moment(4)
            worst_anchor = worst_of(
                worst_anchor,
                abs(chain.b[0] ** 2 - mu2),
                abs(chain.b[1] ** 2 - (mu4 / mu2 - mu2)),
            )
    ok = worst_rt < 1e-8 and worst_anchor < 1e-10
    return CriterionResult(
        9, "moment round-trip b -> mu -> b and b0/b1 moment anchors",
        worst_rt, 1e-8, ok,
        detail="anchors %.1e (bound 1e-10)" % worst_anchor,
    )


def criterion_10() -> CriterionResult:
    """No frozen experimental data: the battery derives every reference.

    There are no published tables or figures to reproduce, so acceptance is
    purely property-based.  As a guard, scan this module's source for long
    decimal literals that would indicate a hard-coded expected value.
    """
    import inspect
    import sys

    src = inspect.getsource(sys.modules[__name__])
    frozen = re.findall(r"\d\.\d{9,}", src)
    ok = len(frozen) == 0
    return CriterionResult(
        10, "property-based battery: no frozen reference decimals", float(len(frozen)),
        1.0, ok, detail="all reference values computed at run time",
    )


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]


def format_report(results) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append("%d/%d criteria passed" % (n_pass, len(results)))
    return "\n".join(lines)

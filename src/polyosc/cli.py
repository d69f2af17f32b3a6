"""Command-line front end.

Subcommands
-----------
spectrum    eigenvalues of the chain Hamiltonian vs. the closed-form diagonal
coherent    one displaced vacuum by all three routes, with cross-overlaps
krawtchouk  residual battery for the binomial-lattice system at (p, N)
moments     recover a chain from moments (handles finite-support truncation)
roots       roots of the closing polynomial of a truncated chain
verify      run the acceptance battery

Output is plain text by default; --format json emits byte-stable JSON
(fixed key order, shortest round-trip floats), --format csv a flat
key,value table.  Exit status: 0 all checks within tolerance, 1 a tolerance
was violated (NaN or inf included) or an ArithmeticError stopped the run, 2
usage errors.  The default tolerance is 1e-8, overridable by --tol or the
POLYOSC_TOL environment variable; a tolerance that is not a positive finite
number, from either source, is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import coherent as co
from . import krawtchouk as kr
from .acceptance import format_report, run_all
from .chains import resolve_chain
from .fockspace import build_symmetric_oscillator, expected_truncated_spectrum, spectrum
from .momentsys import (
    MomentSequence,
    SupportExhaustedError,
    coefficients_from_moments,
    moment_round_trip,
    verify_canonical_orthogonality,
)
from .polyrec import ChainError, roots as chain_roots, worst_of


def _tolerance(text: str) -> float:
    """A tolerance is a positive finite number; anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isfinite(value) and value > 0.0:
        return value
    raise argparse.ArgumentTypeError(
        "tolerance must be a positive finite number, got %r" % text
    )


def _default_tol() -> float:
    text = os.environ.get("POLYOSC_TOL", "1e-8")
    try:
        return _tolerance(text)
    except argparse.ArgumentTypeError as err:
        raise ValueError("POLYOSC_TOL: %s" % err) from None


def _fmt(value):
    """JSON-safe copy: numpy scalars/arrays to plain floats and lists."""
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.floating):
        return float(value)  # .item() keeps extended precision types alive
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.ndarray):
        return [_fmt(v) for v in value.tolist()]
    return value


def _emit(payload: dict | str, args) -> None:
    fmt = args.format
    if fmt == "json":
        text = json.dumps(_fmt(payload), indent=2, sort_keys=False) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        flat = _fmt(payload)

        def walk(prefix, obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    walk(prefix + ("." if prefix else "") + str(k), v)
            elif isinstance(obj, list):
                for i, v in enumerate(obj):
                    walk("%s[%d]" % (prefix, i), v)
            else:
                writer.writerow([prefix, obj])

        walk("", flat)
        text = buf.getvalue()
    else:
        # verify hands over its own one-line-per-criterion report
        text = payload if isinstance(payload, str) else _text_report(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _text_report(payload: dict, indent: str = "") -> str:
    lines = []
    for key, val in payload.items():
        if isinstance(val, dict):
            lines.append("%s%s:" % (indent, key))
            lines.append(_text_report(val, indent + "  ").rstrip("\n"))
        elif isinstance(val, (list, np.ndarray)):
            val = _fmt(val)
            if val and isinstance(val[0], dict):
                lines.append("%s%s:" % (indent, key))
                for item in val:
                    lines.append(_text_report(item, indent + "  ").rstrip("\n"))
                    lines.append("%s  --" % indent)
            else:
                lines.append("%s%s: %s" % (indent, key, " ".join(repr(v) for v in val)))
        else:
            lines.append("%s%s: %r" % (indent, key, _fmt(val)))
    return "\n".join(lines) + "\n"


def _chain_from_args(args):
    return resolve_chain(args.chain, p=args.p, N=args.N, depth=args.depth)


def _dim_from_args(args, chain):
    """--dim, or for an open chain N+1 from --N, else depth+1 from --depth,
    else None (the routes then decide or refuse)."""
    if args.dim is not None or chain.truncated:
        return args.dim
    if args.N is not None:
        return args.N + 1
    if args.depth is not None:
        return chain.depth + 1  # the named open chains hold --depth entries
    return None


# --------------------------------------------------------------------------
# command payload builders: each returns (payload, ok)


def cmd_spectrum(args):
    chain = _chain_from_args(args)
    dim = _dim_from_args(args, chain)
    ops = build_symmetric_oscillator(chain, dim=dim)
    paired, _ = spectrum(ops)
    want = expected_truncated_spectrum(chain, dim=dim)
    dev = worst_of(np.abs(paired - want))
    ok = dev <= args.tol
    payload = {
        "command": "spectrum",
        "chain": chain.label or "custom",
        "dim": ops.dim,
        "eigenvalues": np.sort(paired.real),
        "paired_by_number_state": paired.real,
        "expected_diagonal": want,
        "max_deviation": dev,
        "tolerance": args.tol,
        "pass": bool(ok),
    }
    return payload, ok


def cmd_coherent(args):
    chain = _chain_from_args(args)
    z = complex(args.z[0], args.z[1])
    dim = _dim_from_args(args, chain)
    states = {
        "exponential": co.coherent_via_exponential(chain, z, dim=dim),
        "series": co.coherent_via_recurrence(chain, z, dim=dim),
        "closed_form": co.coherent_closed_form(chain, z, dim=dim),
    }
    agreement = co.route_agreement(states)
    ok = (agreement["worst_overlap_deficit"] <= args.tol
          and agreement["worst_norm_deficit"] <= args.tol)
    payload = {
        "command": "coherent",
        "chain": chain.label or "custom",
        "z": z,
        "dim": len(states["exponential"]),
        "amplitudes": states,
        **agreement,
        "tolerance": args.tol,
        "pass": bool(ok),
    }
    return payload, ok


def _krawtchouk_point(p, N, tol):
    grams = worst_of(*kr.grid_orthogonality_residuals(p, N))
    res = {
        "p": p,
        "N": N,
        "spectrum_deviation": kr.lattice_spectrum_deviation(p, N),
        "grid_spectrum_deviation": kr.grid_spectrum_deviation(p, N),
        "ladder_commutator": kr.ladder_commutator_residual(p, N),
        "dual_orthogonality": grams,
        "grid_orthogonality": grams,
        "difference_equation": kr.difference_equation_residual(p, N),
        "grid_factorization": kr.grid_factorization_residual(p, N),
        "grid_ladder_action": kr.grid_ladder_action_residual(p, N),
        "transport": kr.transport_residual(p, N),
        "hamiltonian_relation": kr.hamiltonian_relation_residual(p, N),
        "difference_forms": kr.difference_form_residual(p, N),
    }
    worst = worst_of(*(v for k, v in res.items() if k not in ("p", "N")))
    res["worst_residual"] = worst
    res["pass"] = bool(worst <= tol)
    return res


def _parse_sweep(expr: str):
    # "p=0.1:0.9:0.2" -> ("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    try:
        var, rng = expr.split("=", 1)
        start, stop, step = (float(t) for t in rng.split(":"))
    except ValueError:
        raise ValueError("bad sweep %r; expected var=start:stop:step" % expr)
    var = var.strip()
    if var != "p":
        raise ValueError("only p sweeps are supported, got %r" % var)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("sweep %r: start, stop and step must be finite" % expr)
    if step <= 0:
        raise ValueError("sweep step must be positive")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    if count < 1:
        raise ValueError("sweep %r yields no point (start above stop)" % expr)
    return var, [round(start + k * step, 12) for k in range(count)]


def cmd_krawtchouk(args):
    tol = args.tol
    if args.sweep:
        _, values = _parse_sweep(args.sweep)
        rows = [_krawtchouk_point(v, args.N, tol) for v in values]
        ok = all(r["pass"] for r in rows)
        payload = {
            "command": "krawtchouk",
            "sweep": "p",
            "N": args.N,
            "tolerance": tol,
            "results": rows,
            "pass": bool(ok),
        }
        return payload, ok
    if args.p is None:
        raise ValueError("krawtchouk needs --p (or --sweep)")
    row = _krawtchouk_point(args.p, args.N, tol)
    payload = {"command": "krawtchouk", "tolerance": tol}
    payload.update(row)
    return payload, row["pass"]


def cmd_moments(args):
    if args.moments is not None:
        mom = MomentSequence([float(t) for t in args.moments.split(",")])
        count = args.count if args.count is not None else len(mom) - 1
        try:
            chain = coefficients_from_moments(mom, count)
            payload = {
                "command": "moments",
                "source": "inline",
                "coefficients": chain.b,
                "supported_depth": len(chain.b),
                "pass": True,
            }
            return payload, True
        except SupportExhaustedError as err:
            payload = {
                "command": "moments",
                "source": "inline",
                "coefficients": err.partial,
                "supported_depth": err.depth,
                "finite_support": True,
                "note": str(err),
                "pass": True,  # truncation is a property of the data, not an error
            }
            return payload, True
    # default: round-trip the named chain through its own moments
    chain = _chain_from_args(args)
    count = args.count if args.count is not None else min(8, chain.valid_depth)
    if count > chain.valid_depth:
        raise ValueError("--count %d exceeds the chain's depth %d" % (count, chain.valid_depth))
    mom, back, rel = moment_round_trip(chain, count)
    worst = worst_of(rel)
    ortho = verify_canonical_orthogonality(back, count)
    ok = worst <= args.tol
    payload = {
        "command": "moments",
        "chain": chain.label or "custom",
        "even_moments": mom.even,
        "recovered": back.b,
        "round_trip_relative_error": worst,
        "orthogonality_residual": ortho,
        "tolerance": args.tol,
        "pass": bool(ok),
    }
    return payload, ok


def cmd_roots(args):
    chain = _chain_from_args(args)
    degree = args.degree
    if degree is None:
        if not chain.truncated:
            raise ValueError("open chain: pass --degree")
        degree = chain.valid_depth + 1
    rs = chain_roots(chain, degree)
    rel = rs.residuals / rs.scale
    ok = worst_of(rel) <= args.tol
    payload = {
        "command": "roots",
        "chain": chain.label or "custom",
        "degree": rs.degree,
        "roots": rs.x,
        "scaled_residuals": rel,
        "tolerance": args.tol,
        "pass": bool(ok),
    }
    return payload, ok


def cmd_verify(args):
    results = run_all()
    ok = all(r.passed for r in results)
    if args.format == "text":
        return format_report(results) + "\n", ok
    payload = {
        "command": "verify",
        "criteria": [
            {
                "id": r.cid,
                "title": r.title,
                "measured": r.measured,
                "bound": r.bound,
                "pass": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "pass": bool(ok),
    }
    return payload, ok


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyosc",
        description="finite oscillators from orthogonal-polynomial recurrence chains",
    )
    ap.add_argument("--version", action="version", version="polyosc " + __version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, chain=True):
        sp.add_argument("--tol", type=_tolerance,
                        help="pass/fail tolerance (env POLYOSC_TOL, default 1e-8)")
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
        sp.add_argument("--out", help="write the report to this file")
        if chain:
            sp.add_argument("--chain", default="boson",
                            help="boson | hermite | krawtchouk | gaussian-moments | file")
            sp.add_argument("--p", type=float, help="lattice parameter in (0,1)")
            sp.add_argument("--N", type=int, help="truncation level")
            sp.add_argument("--depth", type=int, help="open-chain depth")

    sp = sub.add_parser("spectrum", help="Hamiltonian eigenvalues vs closed form")
    common(sp)
    sp.add_argument("--dim", type=int, help="operator dimension (default: chain's)")
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("coherent", help="one coherent state, three routes")
    common(sp)
    sp.add_argument("--z", type=float, nargs=2, metavar=("RE", "IM"), required=True)
    sp.add_argument("--dim", type=int)
    sp.set_defaults(fn=cmd_coherent)

    sp = sub.add_parser("krawtchouk", help="residual battery at (p, N)")
    common(sp, chain=False)
    sp.add_argument("--p", type=float)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--sweep", help='e.g. "p=0.1:0.9:0.2"')
    sp.set_defaults(fn=cmd_krawtchouk)

    sp = sub.add_parser("moments", help="recover a chain from moments")
    common(sp)
    sp.add_argument("--moments", help="comma-separated even moments mu_0,mu_2,...")
    sp.add_argument("--count", type=int, help="how many coefficients to recover")
    sp.set_defaults(fn=cmd_moments)

    sp = sub.add_parser("roots", help="roots of the closing polynomial")
    common(sp)
    sp.add_argument("--degree", type=int)
    sp.set_defaults(fn=cmd_roots)

    sp = sub.add_parser("verify", help="run the acceptance battery")
    common(sp, chain=False)
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.tol is None:
            args.tol = _default_tol()
        payload, ok = args.fn(args)
    except (ValueError, ChainError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except ArithmeticError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    _emit(payload, args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

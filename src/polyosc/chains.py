"""Ready-made recurrence chains and chain-file loading."""

from __future__ import annotations

import json
import os

import numpy as np

from . import krawtchouk as _kr
from .momentsys import coefficients_from_moments, gaussian_even_moments
from .polyrec import RecurrenceCoefficients


def boson_chain(depth: int) -> RecurrenceCoefficients:
    """b_n = sqrt((n+1)/2): the standard boson ladder, open-ended.

    Its monic family is the (probabilists') Hermite family, so this chain
    doubles as the Hermite chain; truncate it by passing dim to the
    oscillator and coherent-state builders.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = np.arange(depth, dtype=float)
    return RecurrenceCoefficients(b=np.sqrt((n + 1.0) / 2.0), label="boson")


def hermite_chain(depth: int) -> RecurrenceCoefficients:
    """Alias of boson_chain; named for the polynomial family it generates."""
    ch = boson_chain(depth)
    ch.label = "hermite"
    return ch


def krawtchouk_chain(p: float, N: int) -> RecurrenceCoefficients:
    """The zero-diagonal truncated lattice chain (see krawtchouk module)."""
    return _kr.symmetric_chain(p, N)


def gaussian_moment_chain(count: int) -> RecurrenceCoefficients:
    """Chain recovered from the Gaussian even moments (2k-1)!!.

    Must reproduce the boson chain; exists as an end-to-end exercise of the
    moment pipeline.
    """
    return coefficients_from_moments(gaussian_even_moments(count + 1), count)


def chain_from_file(path: str) -> RecurrenceCoefficients:
    """Load a chain from disk.

    Accepts either a JSON object {"b": [...], "a": [...](optional)} or a
    plain text file of whitespace/comma separated b values.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        toks = text.replace(",", " ").split()
        if not toks:
            raise ValueError("chain file %s is empty" % path)
        return RecurrenceCoefficients(
            b=[float(t) for t in toks], label=os.path.basename(path)
        )
    if not isinstance(data, dict) or "b" not in data:
        raise ValueError("chain JSON must be an object with a 'b' array")
    return RecurrenceCoefficients(
        b=np.asarray(data["b"], dtype=float),
        a=np.asarray(data["a"], dtype=float) if data.get("a") is not None else None,
        label=data.get("label", os.path.basename(path)),
    )


def resolve_chain(spec: str, p: float | None = None, N: int | None = None,
                  depth: int | None = None) -> RecurrenceCoefficients:
    """Turn a CLI chain spec into coefficients.

    Known names: 'boson', 'hermite' (same chain), 'krawtchouk' (needs p, N),
    'gaussian-moments' (needs depth).  Anything else is read as a file path.
    """
    name = spec.strip().lower()
    if name in ("boson", "hermite"):
        d = depth if depth is not None else (N + 1 if N is not None else 32)
        return hermite_chain(d) if name == "hermite" else boson_chain(d)
    if name == "krawtchouk":
        if p is None or N is None:
            raise ValueError("the krawtchouk chain needs --p and --N")
        return krawtchouk_chain(p, N)
    if name == "gaussian-moments":
        d = depth if depth is not None else (N if N is not None else 8)
        return gaussian_moment_chain(d)
    if os.path.exists(spec):
        return chain_from_file(spec)
    raise ValueError("unknown chain %r (not a name, not a file)" % spec)

"""Span recording for the traced benchmark run.

`install` wraps every public function of every polyosc module and rebinds
the wrapper under each name that refers to the original anywhere in the
package (``coherent`` imports ``eval_monic_tilde``, ``cli`` imports
``spectrum``, ``acceptance.ALL_CRITERIA`` holds the criteria in a tuple).
Each call then records a span: name, start, end, parent span, thread and
op id.  Spans stay in memory; `derive` turns them into per-layer metrics.

A span opened on a worker thread whose own stack is empty takes as parent
the span open on the main thread at that moment.  This is how the
``cmd_krawtchouk`` thread pool's work is attributed to ``cmd_krawtchouk``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("polyrec", "momentsys", "fockspace", "krawtchouk", "coherent", "chains",
          "acceptance", "cli")

# Span fields, kept as plain lists so forked children can send them as JSON.
NAME, START, END, PARENT, THREAD, OP, SID, RAISED, NOTE = range(9)


class Recorder:
    """Collects spans in memory; one instance per benchmark run."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []

    def reset(self):
        self.spans = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1][SID]
        else:
            main = self._main_stack
            parent = main[-1][SID] if main and stack is not main else None
        span = [name, time.perf_counter(), None, parent, threading.get_ident(),
                self.op, next(self._ids), False, None]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span):
        span[END] = time.perf_counter()
        self._stack().pop()


def _key_ktilde(args, kwargs, result):
    p = kwargs.get("p", args[0] if args else None)
    N = kwargs.get("N", args[1] if len(args) > 1 else None)
    return "%r/%r" % (float(p), int(N))


def _key_gauss(args, kwargs, result):
    chain = kwargs.get("chain", args[0] if args else None)
    npoints = kwargs.get("npoints", args[1] if len(args) > 1 else None)
    b = getattr(chain, "b", chain)
    a = getattr(chain, "a", None)
    digest = hashlib.blake2b(memoryview(b).tobytes(), digest_size=8)
    if a is not None:
        digest.update(memoryview(a).tobytes())
    return "%s/%d" % (digest.hexdigest(), npoints)


def _bytes_built(args, kwargs, result):
    return sum(getattr(result, f).nbytes
               for f in ("position", "momentum", "hamiltonian", "lower", "raise_"))


# Functions whose spans carry a note: a call key (for distinct_frac) or a size.
NOTES = {
    "krawtchouk.ktilde_table": _key_ktilde,
    "polyrec.gauss_quadrature": _key_gauss,
    "fockspace.build_symmetric_oscillator": _bytes_built,
}


def _wrap(name, fn, rec):
    note = NOTES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result
        except BaseException:
            span[RAISED] = True
            raise
        finally:
            rec.close(span)

    return traced


def _modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "polyosc" or n.startswith("polyosc."))]


def install(rec):
    """Wrap the public functions of every layer; returns an undo callable."""
    wrappers = {}
    for mod in _modules():
        layer = mod.__name__.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrappers[id(obj)] = _wrap("%s.%s" % (layer, attr), obj, rec)
    undo = []
    for mod in _modules():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
            elif isinstance(obj, tuple) and any(id(o) in wrappers for o in obj):
                setattr(mod, attr, tuple(wrappers.get(id(o), o) for o in obj))
            else:
                continue
            undo.append((mod, attr, obj))

    def uninstall():
        for mod, attr, obj in undo:
            setattr(mod, attr, obj)

    return uninstall


def renumber(spans, first):
    """Give spans sent by a forked child fresh ids from `first`; returns the next.

    Every child starts from the same id counter, so ids repeat across ops.
    """
    ids = {}
    for sp in spans:
        ids[sp[SID]] = first + len(ids)
        sp[SID] = ids[sp[SID]]
    for sp in spans:
        if sp[PARENT] is not None:
            sp[PARENT] = ids[sp[PARENT]]
    return first + len(ids)


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Map span id -> self time: duration minus the union its children cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp[PARENT] is not None:
            children[sp[PARENT]].append((sp[START], sp[END]))
    return {sp[SID]: (sp[END] - sp[START]) - _covered(sp[START], sp[END], children[sp[SID]])
            for sp in spans}


def function_stats(spans, per_process_ops):
    """Per-function calls, total_s, self_s, raised, distinct keys and notes.

    Distinct keys are counted within the process that made the calls: per op
    when each op runs in its own forked child, over the whole run otherwise,
    since only then can state carry from one call to the next.
    """
    selfs = self_times(spans)
    by_sid = {sp[SID]: sp for sp in spans}
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0,
                                 "keys": set(), "note_sum": 0.0, "child_s": 0.0})
    for sp in spans:
        st = stats[sp[NAME]]
        dur = sp[END] - sp[START]
        st["calls"] += 1
        st["total_s"] += dur
        st["self_s"] += selfs[sp[SID]]
        st["raised"] += bool(sp[RAISED])
        note = sp[NOTE]
        if isinstance(note, str):
            st["keys"].add((sp[OP] if per_process_ops else 0, note))
        elif note is not None:
            st["note_sum"] += note
        parent = by_sid.get(sp[PARENT])
        if parent is not None:
            stats[parent[NAME]]["child_s"] += dur
    return stats


# The per-layer metrics named by the benchmark, each with the end-to-end
# metric and workload it should move.  `derive` computes every one.
NAMED = (
    ("krawtchouk.ktilde_table.self_s", "s",
     "op_p50_s, op_tail_s, ops_per_s on lattice_sweep; op_p50_s on verify_cold; nothing on coherent_session"),
    ("krawtchouk.ktilde_table.distinct_frac", "ratio",
     "op_p50_s, op_tail_s, ops_per_s on lattice_sweep; op_p50_s on verify_cold"),
    ("krawtchouk.residuals.self_s", "s", "op_tail_s on lattice_sweep"),
    ("fockspace.build_symmetric_oscillator.self_s", "s",
     "op_tail_s, peak_rss_mb on coherent_session; little on lattice_sweep"),
    ("fockspace.bytes_built", "bytes",
     "op_tail_s, peak_rss_mb on coherent_session; little on lattice_sweep"),
    ("fockspace.spectrum.self_s", "s", "op_tail_s on coherent_session"),
    ("coherent.coherent_closed_form.self_s", "s",
     "op_tail_s, op_p50_s on coherent_session; domain_pass_frac"),
    ("coherent.coherent_via_recurrence.self_s", "s",
     "op_tail_s, op_p50_s on coherent_session; domain_pass_frac"),
    ("coherent.coherent_via_recurrence.raised", "count",
     "failed ops on coherent_session (none at the baseline)"),
    ("coherent.coherent_via_exponential.self_s", "s",
     "op_tail_s, op_p50_s on coherent_session"),
    ("coherent.quadrature_profile.self_s", "s",
     "op_tail_s, op_p50_s on coherent_session"),
    ("polyrec.gauss_quadrature.calls", "count",
     "op_tail_s on coherent_session; op_p50_s on verify_cold"),
    ("polyrec.gauss_quadrature.self_s", "s",
     "op_tail_s on coherent_session; op_p50_s on verify_cold"),
    ("polyrec.gauss_quadrature.distinct_frac", "ratio",
     "op_tail_s on coherent_session; op_p50_s on verify_cold"),
    ("polyrec.eval_monic_tilde.calls", "count",
     "op_tail_s on coherent_session; op_p50_s on verify_cold (criterion 6)"),
    ("polyrec.eval_monic_tilde.self_s", "s",
     "op_tail_s on coherent_session; op_p50_s on verify_cold (criterion 6)"),
    ("momentsys.coefficients_from_moments.self_s", "s", "op_p50_s on verify_cold only"),
) + tuple(
    ("acceptance.criterion_%d.total_s" % k, "s",
     "op_p50_s on verify_cold" + ("; expected to dominate" if k == 7 else ""))
    for k in range(1, 11)
) + (
    ("cli.main.self_s", "s", "ops_per_s on lattice_sweep"),
    ("cli.cmd_krawtchouk.overlap", "ratio",
     "ops_per_s on lattice_sweep; about 1 while its ops sweep one p"),
    ("chains.resolve_chain.self_s", "s", "guard: stays near 0 everywhere"),
) + tuple(
    item for layer in LAYERS for item in (
        ("%s.calls" % layer, "count", "share of op time bounds any gain in this layer"),
        ("%s.self_s" % layer, "s", "share of op time bounds any gain in this layer"),
        ("%s.share" % layer, "ratio", "bound on the op-time gain of a change to this layer"),
    )
) + (
    ("trace.op_p50_s", "s", "traced op_p50_s; against the untraced run it gives the tracing overhead"),
    ("trace.spans_per_op", "count", "tracing cost driver"),
)


def function_table(stats):
    """<module>.<function> -> calls, total_s, self_s, raised over the run."""
    return {name: {k: st[k] for k in ("calls", "total_s", "self_s", "raised")}
            for name, st in sorted(stats.items())}


def derive(stats, n_spans, n_ops, op_time_s, traced_p50_s):
    """The NAMED metrics from one run's function stats.

    Counts and times are per op (divided by n_ops); ratios are over the run.
    A layer's share is its self time over the summed op latency; with the
    thread pool of ``cmd_krawtchouk`` the shares can add up to more than 1.
    """
    n = max(n_ops, 1)
    out = {}

    def fn(name, field):
        st = stats.get(name)
        return st[field] if st else 0

    def distinct(name):
        st = stats.get(name)
        return len(st["keys"]) / st["calls"] if st and st["calls"] else 0.0

    for name, unit, _ in NAMED:
        layer, _, rest = name.partition(".")
        if name == "krawtchouk.residuals.self_s":
            value = sum(st["self_s"] for f, st in stats.items()
                        if f.startswith("krawtchouk.") and f.endswith(("_residual", "_residuals"))) / n
        elif name == "fockspace.bytes_built":
            value = fn("fockspace.build_symmetric_oscillator", "note_sum") / n
        elif name == "cli.cmd_krawtchouk.overlap":
            wall = fn("cli.cmd_krawtchouk", "total_s")
            value = fn("cli.cmd_krawtchouk", "child_s") / wall if wall else 0.0
        elif name == "trace.op_p50_s":
            value = traced_p50_s
        elif name == "trace.spans_per_op":
            value = n_spans / n
        elif rest in ("calls", "self_s", "share"):
            mine = [st for f, st in stats.items() if f.startswith(layer + ".")]
            if rest == "calls":
                value = sum(st["calls"] for st in mine) / n
            else:
                total = sum(st["self_s"] for st in mine)
                value = total / n if rest == "self_s" else (total / op_time_s if op_time_s else 0.0)
        else:
            func, _, field = name.rpartition(".")
            if field == "distinct_frac":
                value = distinct(func)
            else:
                value = fn(func, field) / n
        out[name] = {"value": float(value), "unit": unit}
    return out

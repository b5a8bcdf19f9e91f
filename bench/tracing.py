"""Spans and counters recorded from outside the library.

The tracer wraps public functions and methods of ``padicperiods`` while it is
installed and restores the originals when it is removed, so untraced runs
execute the unmodified library.  A wrapped function records a span (name,
parent, start, end); a wrapped constructor or element operation only bumps a
counter, because it runs hundreds of thousands of times per pass.  A module
function is replaced in every ``padicperiods`` module that imported it by
name, so calls through ``from .padic import smith_form`` are seen too.

Instrument points that a later version of the library no longer has are
skipped; their metrics then read 0.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, metric prefix, note).  ``note(args, result)`` stores one
# value on the span for derived ratios.
SPANS = [
    ("padic", "make_field", "padic.make_field", None),
    ("padic", "smith_form", "padic.smith_form", None),
    ("padic", "certified_rank", "padic.certified_rank", None),
    ("padic", "charpoly", "padic.charpoly", None),
    ("padic", "field_embedding", "padic.field_embedding", None),
    ("padic", "PadicMatrix.inverse", "padic.matrix_inverse", None),
    ("padic", "PadicMatrix.__mul__", "padic.matrix_mul", None),
    ("semilinear", "linearize", "semilinear.linearize", None),
    ("semilinear", "newton_slopes", "semilinear.newton_slopes", None),
    ("models", "build_DH", "models.build_DH", None),
    ("models", "build_DG", "models.build_DG", None),
    ("models", "iota_matrix", "models.iota_matrix", None),
    ("periods", "random_point", "periods.random_point", lambda a, r: a[0]),
    ("periods", "from_matrix", "periods.from_matrix", None),
    ("periods", "fil_G", "periods.fil_G", None),
    ("periods", "fil_H", "periods.fil_H", None),
    ("periods", "subspaces_equal", "periods.subspaces_equal", None),
    ("periods", "omega_membership", "periods.omega_membership",
     lambda a, r: r.status == "indeterminate"),
    ("periods", "act", "periods.act", None),
    # one span per coordinate vector drawn by the sampler: n per candidate
    ("periods", "_random_unit_vectorish", "periods.random_draw", None),
    ("formal", "group_law", "formal.group_law", None),
    ("formal", "height_certificate", "formal.height_certificate", None),
    ("formal", "zeta_action", "formal.zeta_action", None),
    ("ledger", "cm_period_valuations", "ledger.cm_period_valuations", None),
    ("cli", "main", "cli.main", None),
]

# (module, attribute, counter name)
COUNTERS = [
    ("padic", "embed_element", "padic.embed_element.calls"),
    ("padic", "PadicElement.__init__", "padic.element_new.count"),
    ("padic", "PadicElement.__mul__", "padic.element_mul.count"),
    ("padic", "PadicElement.__rmul__", "padic.element_mul.count"),
    ("padic", "PadicElement.inverse", "padic.element_inverse.count"),
    ("padic", "PadicElement.frobenius", "padic.element_frobenius.count"),
    ("padic", "PrecisionError.__init__", "padic.precision_errors.count"),
    ("periods", "RankCertificationError.__init__", "periods.rank_rejections.count"),
]

_MISSING = object()


class Tracer:
    """Spans and counts of the calls made while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.spans = []  # [name, parent index, start, end, note]
        self.stack = []
        self.counts = defaultdict(int)
        self._restore = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        rec = [name, self.stack[-1] if self.stack else -1, perf_counter(), 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec):
        rec[3] = perf_counter()
        self.stack.pop()

    def reset(self):
        self.spans, self.stack = [], []
        self.counts = defaultdict(int)

    def _span_wrapper(self, orig, name, note):
        def wrapped(*args, **kwargs):
            if not self.on:
                return orig(*args, **kwargs)
            rec = self.begin(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.end(rec)
            if note is not None:
                rec[4] = note(args, result)
            return result

        return wrapped

    def _count_wrapper(self, orig, name):
        def wrapped(*args, **kwargs):
            if self.on:
                self.counts[name] += 1
            return orig(*args, **kwargs)

        return wrapped

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every instrument point that exists in the loaded library."""
        mods = {
            name: mod for name, mod in sys.modules.items()
            if name == "padicperiods" or name.startswith("padicperiods.")
        }
        for modname, attr, name, note in SPANS:
            self._patch(mods, modname, attr, lambda o: self._span_wrapper(o, name, note))
        for modname, attr, name in COUNTERS:
            self._patch(mods, modname, attr, lambda o: self._count_wrapper(o, name))

    def _patch(self, mods, modname, attr, make):
        mod = mods.get("padicperiods." + modname)
        if mod is None:
            return
        if "." in attr:
            clsname, meth = attr.split(".")
            cls = getattr(mod, clsname, None)
            orig = getattr(cls, meth, None) if cls is not None else None
            if orig is None:
                return
            self._restore.append((cls, meth, cls.__dict__.get(meth, _MISSING)))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(mod, attr, None)
        if orig is None:
            return
        wrapped = make(orig)
        for m in mods.values():
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._restore.append((m, key, orig))
                    setattr(m, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            if orig is _MISSING:
                delattr(owner, key)
            else:
                setattr(owner, key, orig)
        self._restore = []


def summarize(spans, counts):
    """Per-name calls and self seconds, plus the raw counters and notes.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the harness is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    calls = defaultdict(int)
    total_s = defaultdict(float)
    self_s = defaultdict(float)
    for i, (name, _, t0, t1, _) in enumerate(spans):
        calls[name] += 1
        total_s[name] += t1 - t0
        self_s[name] += (t1 - t0) - child_time[i]
    # sampler acceptance: each random_point call tries draws/n candidates
    draws = defaultdict(int)
    for name, parent, *_ in spans:
        if name == "periods.random_draw" and parent >= 0:
            draws[parent] += 1
    candidates = sum(
        draws[i] / rec[4] for i, rec in enumerate(spans)
        if rec[0] == "periods.random_point" and rec[4]
    )
    omega = [rec[4] for rec in spans if rec[0] == "periods.omega_membership"]
    return {
        "calls": dict(calls),
        "total_s": dict(total_s),
        "self_s": dict(self_s),
        "counts": dict(counts),
        "random_point.candidates": candidates,
        "omega.indeterminate": sum(1 for x in omega if x),
    }

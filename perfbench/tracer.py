"""In-memory span tracer for the charfield2 benchmark.

`Tracer.install` replaces each traced charfield2 function by a wrapper at every
name a caller looks it up under: every charfield2 module attribute bound to the
original function object (so `normal.row_apply` and `tables.row_apply` are both
wrapped, and both record spans named `linalg.row_apply`).  `uninstall` puts the
originals back, so an untraced pass runs the unmodified code.

A span is (name, parent span, work item, start ns, end ns); spans live in flat
arrays until the benchmark writes them out.  In counting mode the wrappers only
count calls, which is how the benchmark checks that a second pass over the same
inputs repeats the first pass's call counts exactly.
"""

import inspect
import time
from array import array

OFF, SPANS, COUNT = 0, 1, 2

# The charfield2 modules, which are also the layers.
LAYERS = ("bitpoly", "linalg", "field", "normal", "witt", "extbasis", "tables",
          "tower", "fixtures", "cli")

# Public functions left untraced: each runs once per inner-loop step (per bit,
# per element check) and does less work than a span costs to record.
UNTRACED = frozenset((
    "bitpoly.degree", "bitpoly.weight", "bitpoly.to_hex", "bitpoly.to_human",
    "bitpoly.parse", "field.validate", "field.max_degree", "field.elem_to_hex",
    "field.elem_parse", "normal.rotl", "normal.frobenius_shift",
    "extbasis.zero", "extbasis.identity", "extbasis.embed_base",
    "extbasis.project_base", "extbasis.ext_to_hex", "extbasis.ext_parse",
    "extbasis.generator_element", "extbasis.quad_generator",
))


def _program_name(base):
    """Span name for extbasis.mul / square: one name per kind and degree."""
    return lambda args: f"{base}.{args[0].kind}.n{args[0].n}"


# Span names that depend on the arguments; the function maps the positional
# arguments to the full span name.
NAMERS = {
    "extbasis.mul": _program_name("extbasis.mul"),
    "extbasis.square": _program_name("extbasis.square"),
    "extbasis.build_kind": lambda args: f"extbasis.build_kind.{args[1]}",
    "cli.main": lambda args: f"cli.{args[0][0]}" if args and args[0] else "cli.main",
}

# Functions whose truthy results are counted (hits over attempts).
COUNT_TRUE = frozenset(("normal.is_normal_element",))

# Methods and properties traced besides module-level functions:
# (module, class, attribute, span name).
MEMBERS = (
    ("normal", "NormalBasisCtx", "mul_rows", "normal.mul_rows"),
    ("field", "FieldCtx", "order_factors", "field.order_factors"),
    ("fixtures", "Fixture", "basis", "fixtures.Fixture.basis"),
)
# Private functions traced because a command's fixed cost sits in them.
PRIVATE = (("cli", "_basis_for_kind"),)


class Tracer:
    """Span recorder with wrappers that can be installed and removed."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.names = []
        self._ids = {}
        self.counts = []          # per name id, filled in COUNT mode
        self.truthy = []          # per name id, filled in SPANS mode
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_work = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.mode = OFF
        self.current = -1
        self.work = -1
        self.work_labels = []
        self._undo = []
        self._targets = self._find_targets()

    # --- names and work items ------------------------------------------
    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.counts.append(0)
            self.truthy.append(0)
        return nid

    def begin_work(self, label):
        """Start a new work item; spans recorded until the next call share it."""
        self.work = len(self.work_labels)
        self.work_labels.append(label)

    def span_count(self):
        return len(self.span_name)

    # --- wrapping --------------------------------------------------------
    def _find_targets(self):
        """(span name, function) for every module-level function to wrap."""
        targets = []
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    targets.append((name, obj))
        for layer, attr in PRIVATE:
            targets.append((f"{layer}.{attr}", getattr(self.modules[layer], attr)))
        return targets

    def _wrap(self, fn, name):
        tr = self
        nid = self.name_id(name)
        namer = NAMERS.get(name)
        count_true = name in COUNT_TRUE
        names_, parents, works = self.span_name, self.span_parent, self.span_work
        starts, ends = self.span_start, self.span_end
        counts, truthy = self.counts, self.truthy
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            mode = tr.mode
            if mode == OFF:
                return fn(*args, **kwargs)
            sid = nid if namer is None else tr.name_id(namer(args))
            if mode == COUNT:
                counts[sid] += 1
                return fn(*args, **kwargs)
            parent = tr.current
            idx = len(names_)
            names_.append(sid)
            parents.append(parent)
            works.append(tr.work)
            starts.append(0)
            ends.append(0)
            tr.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if count_true and result:
                    truthy[sid] += 1
                return result
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                tr.current = parent

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every binding of each traced function in charfield2."""
        if self._undo:
            return
        spaces = [vars(self.package)] + [vars(m) for m in self.modules.values()]
        for name, fn in self._targets:
            wrapped = self._wrap(fn, name)
            for space in spaces:
                for attr, obj in list(space.items()):
                    if obj is fn:
                        self._undo.append((space, attr, obj))
                        space[attr] = wrapped
        for layer, cls_name, attr, name in MEMBERS:
            cls = getattr(self.modules[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, property):
                new = property(self._wrap(raw.fget, name))
            else:
                new = self._wrap(raw, name)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo = []

    # --- results ---------------------------------------------------------
    def arrays(self, lo=0, hi=None):
        """Views of the spans in [lo, hi); parents index the whole record."""
        import numpy as np
        hi = self.span_count() if hi is None else hi
        get = lambda arr, dt: np.frombuffer(arr, dtype=dt)[lo:hi]
        return {"name": get(self.span_name, np.int32),
                "parent": get(self.span_parent, np.int32),
                "work": get(self.span_work, np.int32),
                "start": get(self.span_start, np.int64),
                "end": get(self.span_end, np.int64)}

    def write(self, path, **extra):
        """Write all spans, the name table and work-item labels to an .npz."""
        import numpy as np
        np.savez(path, names=np.array(self.names, dtype=str),
                 work_labels=np.array(self.work_labels, dtype=str),
                 **self.arrays(), **{k: np.asarray(v) for k, v in extra.items()})


def span_stats(tracer, lo, hi, durations_for=()):
    """Per span name among spans [lo, hi): calls and self seconds, plus the
    sorted durations (ns) of the names in `durations_for`.  Every span's
    parent must come from the same range or be a root."""
    import numpy as np
    spans = tracer.arrays()
    name, parent = spans["name"][lo:hi], spans["parent"][lo:hi]
    dur = spans["end"][lo:hi] - spans["start"][lo:hi]
    # Slot 0 collects root spans; slot p + 1 - lo the children of span p.
    child = np.bincount(np.maximum(parent + 1 - lo, 0), weights=dur,
                        minlength=hi - lo + 1)[1:]
    self_ns = dur - child
    del child
    names = tracer.names
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=self_ns, minlength=len(names)) / 1e9
    out = {}
    for nid, nm in enumerate(names):
        if calls[nid]:
            out[nm] = {"calls": int(calls[nid]), "self_s": float(self_s[nid])}
            if nm in durations_for:
                out[nm]["durations_ns"] = np.sort(dur[name == nid])
    return out


def descendants_of(tracer, lo, hi, ancestor, child):
    """Number of `child` spans in [lo, hi) with an `ancestor` span above them."""
    import numpy as np
    names = tracer.names
    if ancestor not in names or child not in names:
        return 0
    aid, cid = names.index(ancestor), names.index(child)
    spans = tracer.arrays()
    name, parent = spans["name"], spans["parent"]
    anc = parent[lo + np.nonzero(name[lo:hi] == cid)[0]].astype(np.int64)
    under = np.zeros(len(anc), dtype=bool)
    while True:
        live = anc >= 0
        if not live.any():
            break
        under[live] |= name[anc[live]] == aid
        anc[live] = parent[anc[live]]
        anc[under] = -1
    return int(under.sum())


def percentile_us(durations_ns, q):
    """The q-quantile (0..1) of sorted durations, in microseconds."""
    n = len(durations_ns)
    return float(durations_ns[min(n - 1, int(q * (n - 1) + 0.5))]) / 1e3


def tail_us(durations_ns):
    """The largest duration with at least ten samples above it (the maximum
    when there are ten or fewer), in microseconds."""
    n = len(durations_ns)
    rank = n - 1 if n <= 10 else n - 11
    return float(durations_ns[rank]) / 1e3

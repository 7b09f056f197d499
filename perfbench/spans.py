"""In-memory span tracer for the traced benchmark run.

A span is (name, start, end, parent, unit): ``unit`` is the traced unit
(one set-up plus one repetition) the span belongs to, and ``parent`` is
the index of the span that was open when it started, or -1.  Spans are
appended to typed arrays so a run with a million spans stays small, and
are written out only when the run ends.

Layer boundaries inside the library are traced by replacing module or
class attributes with timing wrappers (:meth:`Tracer.install`), which the
library's own calls then go through; :meth:`Tracer.uninstall` puts the
originals back.  A layer's self time is its spans' duration minus the
part covered by their child spans (:func:`self_times`).
"""

import time
from array import array
from contextlib import contextmanager

import numpy as np

# Span and counter names are reported as metric names and must match this.
NAME_PATTERN = r"[A-Za-z0-9_.-]+"

BENCH_LAYER = "bench"


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(start, end, parent):
    """Duration of each span minus the durations of its direct children.

    Spans of one thread nest, so a span's children never overlap and the
    part of its interval they cover is the sum of their durations.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = (end - start).astype(float)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


class Tracer:
    """Collects spans and per-unit counters of one traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.unit = array("i")
        self._stack = [-1]
        self.current_unit = -1
        self.counters = {}
        self._installed = []
        self._nbytes_cache = {}

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.unit.append(self.current_unit)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key, value=1):
        """Add ``value`` to a counter of the current unit."""
        slot = (self.current_unit, key)
        self.counters[slot] = self.counters.get(slot, 0) + value

    def nbytes_of(self, obj, compute):
        """Computed byte size of ``obj``'s arrays, cached per object."""
        hit = self._nbytes_cache.get(id(obj))
        if hit is None:
            # keep obj alive so its id cannot be reused by another object
            hit = self._nbytes_cache[id(obj)] = (obj, compute(obj))
        return hit[1]

    def forget_objects(self):
        self._nbytes_cache.clear()

    def wrap(self, fn, name, bytes_of=None, after=None):
        """Return ``fn`` timed as span ``name``.

        ``bytes_of(args)`` adds computed bytes to the ``<name>.bytes``
        counter; ``after(result)`` sees each return value.  A call that
        raises adds one to the ``<name>.raised`` counter.
        """
        open_, close, count = self.open, self.close, self.count
        bytes_key = name + ".bytes"
        raised_key = name + ".raised"

        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                count(raised_key)
                raise
            finally:
                close(idx)
            if bytes_of is not None:
                count(bytes_key, bytes_of(args))
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Wrap each ``(owner, attribute, span name, bytes_of, after)``.

        Returns the targets whose attribute does not exist, so a library
        that renames a boundary shows up as missing rather than failing.
        """
        missing = []
        for owner, attr, name, bytes_of, after in targets:
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            setattr(owner, attr, self.wrap(original, name, bytes_of, after))
            self._installed.append((owner, attr, original))
        return missing

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.unit, dtype=np.int32))

    def totals(self, units):
        """Per span name over the given units: calls, total ns, self ns."""
        name_id, start, end, parent, unit = self.arrays()
        own = self_times(start, end, parent)
        keep = np.isin(unit, np.asarray(list(units), dtype=np.int32))
        k = len(self.names)
        calls = np.bincount(name_id[keep], minlength=k)
        total = np.bincount(name_id[keep], weights=(end - start)[keep].astype(float), minlength=k)
        selft = np.bincount(name_id[keep], weights=own[keep], minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(selft[i]))
                for i, name in enumerate(self.names) if calls[i]}

    def counter_total(self, key, units):
        return sum(self.counters.get((u, key), 0) for u in units)

    def save(self, path):
        name_id, start, end, parent, unit = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, start_ns=start,
                 end_ns=end, parent=parent, unit=unit)

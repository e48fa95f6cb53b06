"""Layer tracing from outside the library.

``Tracer.install`` replaces each traced public function with a timing
wrapper at every name its callers look it up by: the defining module,
every ``maxminlyap`` module that imported it by name (for example
``certifier.project_psd`` or ``setderiv.active_indices``), or the class
attribute for methods.  A wrapper records, per benchmark operation, the
edge from its parent span to itself with a call count, total time and
self time (total minus the time of traced calls made inside it).  Spans
live in memory and are written out once, when the run ends.
"""

import collections
import json
import sys
import time

PACKAGE = "maxminlyap"


def _layer_name(module_name, attr):
    # "maxminlyap.sysdsl.config" -> "sysdsl", "maxminlyap.maxmin" -> "maxmin"
    parts = module_name.split(".")
    return f"{parts[1]}.{attr.split('.')[-1]}"


class Tracer:
    """Span recorder.  One instance per traced pass."""

    def __init__(self):
        self._stack = []  # frames: [span name, time spent in traced children]
        self._op = None
        self.edges = {}  # (op id, parent span, span) -> [calls, total s, self s]
        self.counts = collections.Counter()  # filled by result hooks
        self.durations = {}  # span -> list of (op id, per-call seconds), where kept
        self.ops = []  # one record per benchmark operation
        self._scales = {}  # op id -> scale passed to end_op
        self._undo = []

    # -- benchmark operations (the root span of every request)

    def begin_op(self, op_id, kind, label):
        self._op = {"id": op_id, "kind": kind, "label": label}
        self._stack = [[f"op.{kind}", 0.0]]
        self._op["start"] = time.perf_counter()

    def end_op(self, scale=1.0):
        """``scale`` converts this operation's wall seconds to the
        seconds reported (see refclock.py)."""
        end = time.perf_counter()
        op = self._op
        op["end"] = end
        op["scale"] = scale
        op["self_s"] = (end - op["start"]) - self._stack[0][1]
        self.ops.append(op)
        self._scales[op["id"]] = scale
        self._stack = []
        self._op = None

    # -- wrappers

    def _wrap(self, name, fn, hook, keep_durations):
        edges = self.edges
        durations = self.durations.setdefault(name, []) if keep_durations else None
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else "unscoped"
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                key = (tracer._op["id"] if tracer._op else None, parent, name)
                rec = edges.get(key)
                if rec is None:
                    rec = edges[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if durations is not None:
                    durations.append((key[0], dt))
            if hook is not None:
                hook(tracer.counts, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """targets: (module name, attribute or Class.method, hook, keep_durations)."""
        for module_name, attr, hook, keep in targets:
            module = sys.modules[module_name]
            name = _layer_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, orig, hook, keep), orig)
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, hook, keep)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != PACKAGE:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped, orig)

    def _set(self, owner, key, new, orig):
        setattr(owner, key, new)
        self._undo.append((owner, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

    # -- summaries

    def scale(self, op_id):
        return self._scales.get(op_id, 1.0)

    def totals(self, op_ids=None):
        """span -> [calls, total s, self s] over the given operations, with
        each operation's times scaled as passed to ``end_op``."""
        out = {}
        for (op_id, _parent, name), (calls, total, self_s) in self.edges.items():
            if op_ids is not None and op_id not in op_ids:
                continue
            k = self.scale(op_id)
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += k * total
            rec[2] += k * self_s
        return out

    def scaled_durations(self, span):
        return sorted(self.scale(op_id) * dt for op_id, dt in self.durations.get(span, []))

    def ops_calling(self, span):
        return {op_id for (op_id, _p, name) in self.edges if name == span}

    def write(self, path, meta):
        """Write every recorded span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for op in self.ops:
                fh.write(json.dumps({"op": op}) + "\n")
            for (op_id, parent, name), (calls, total, self_s) in sorted(
                self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1], kv[0][2])
            ):
                fh.write(
                    json.dumps(
                        {
                            "span": name,
                            "parent": parent,
                            "op": op_id,
                            "calls": calls,
                            "total_s": total,
                            "self_s": self_s,
                        }
                    )
                    + "\n"
                )

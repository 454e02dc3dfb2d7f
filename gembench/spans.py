"""In-memory span tracing of gemsurf's public functions, from outside the package.

``Tracer.install`` wraps every public function of the traced modules and
rebinds it in every ``gemsurf`` module namespace that holds it, so calls
between modules and within a module go through the wrapper.  Generator
functions are left alone: their time is spent by whoever iterates them.
Each span records its name, start, end, parent span, operation id, the
vertex count of its first argument and, for a few functions, a key of the
result.  ``remove`` restores the original bindings.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

PACKAGE = "gemsurf"
MODULES = ("core", "moves", "reduction", "surfaces", "catalog", "fileio", "cli")

# Result keys: distinct fingerprints, certificate bytes, catalog classes.
RESULT_KEYS = {
    "moves.fingerprint": hash,
    "fileio.write_certificate": len,
    "catalog.enumerate_contracted": lambda cat: len(cat.classes),
}


def traced_functions() -> dict[str, object]:
    """Span name -> original function, for every public function of MODULES."""
    found = {}
    for short in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isgeneratorfunction(obj):
                continue
            found[f"{short}.{attr}"] = obj
    return found


class Tracer:
    def __init__(self):
        self.functions = traced_functions()
        self.names = list(self.functions)
        self.op = -1
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.arg_n = array("q")
        self.key = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, result_key):
        name, parent, op_of = self.name, self.parent, self.op_of
        start, end, child, arg_n, key = self.start, self.end, self.child, self.arg_n, self.key
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            t0 = clock()
            sid = len(name)
            first = args[0] if args else None
            n = getattr(first, "n", -1)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op_of.append(tracer.op)
            arg_n.append(n if type(n) is int else -1)
            start.append(t0)
            end.append(t0)
            child.append(0.0)
            key.append(0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                t1 = clock()
                end[sid] = t1
                if stack:
                    child[stack[-1]] += t1 - t0
            if result_key is not None:
                key[sid] = result_key(result) & 0x7FFFFFFFFFFFFFFF
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for i, (span_name, fn) in enumerate(self.functions.items()):
            wrappers[id(fn)] = (fn, self._wrap(i, fn, RESULT_KEYS.get(span_name)))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def remove(self) -> None:
        for module, attr, obj in self._saved:
            setattr(module, attr, obj)
        self._saved.clear()

    def spans(self):
        """Yield (sid, name, parent, op, start, end, self_time, arg_n, key) in span-id order."""
        for sid in range(len(self.name)):
            t0, t1 = self.start[sid], self.end[sid]
            yield (sid, self.names[self.name[sid]], self.parent[sid], self.op_of[sid],
                   t0, t1, (t1 - t0) - self.child[sid], self.arg_n[sid], self.key[sid])

    def write(self, path) -> None:
        """Write every span as one CSV line: id,name,parent,op,start,end,self,arg_n."""
        with open(path, "w") as out:
            out.write("id,name,parent,op,start,end,self,arg_n\n")
            for sid, name, parent, op, t0, t1, self_t, n, _ in self.spans():
                out.write(f"{sid},{name},{parent},{op},{t0:.9f},{t1:.9f},{self_t:.9f},{n}\n")

"""Span recording around the program's public functions, from outside it.

`Tracer.install` replaces every public function and public method that
a traced module defines with a wrapper that records a span: name,
start, end, parent span and the current item (one per feature lookup,
so spans of one training sample or one decoded video share it).  Spans
stay in memory until `write_spans` is called at the end of the run.

`Patch` is the shared mechanism: it swaps a function for a wrapper in
every vidcap module namespace that binds it, so `from x import f`
copies are covered too, and restores them all on `undo`.
"""

import functools
import inspect
import sys
import time


class Patch:
    """Replaces functions in place and remembers how to put them back."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make_wrapper):
        """Wrap module.name everywhere it is bound; False if it is missing."""
        original = getattr(module, name, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, key, value))
                    namespace[key] = wrapper
        return True

    def method(self, cls, name, make_wrapper):
        """Wrap a plain, class or static method defined on cls."""
        raw = vars(cls)[name]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make_wrapper(raw.__func__))
        else:
            replacement = make_wrapper(raw)
        self._undo.append((cls, name, raw))
        setattr(cls, name, replacement)

    def undo(self):
        for target, key, value in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._undo.clear()


def public_callables(module, skip=()):
    """(owner, attribute, qualified name) for each public function or
    method that `module` itself defines, excluding qualified names in skip.

    Qualified names drop the package: `nn.adam_step`,
    `features.FeatureStore.get`.
    """
    short = module.__name__.split(".")[-1]
    found = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and f"{short}.{name}" not in skip:
            found.append((module, name, f"{short}.{name}"))
        elif inspect.isclass(obj):
            for attr, raw in sorted(vars(obj).items()):
                func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                qualified = f"{short}.{name}.{attr}"
                if not attr.startswith("_") and inspect.isfunction(func) \
                        and qualified not in skip:
                    found.append((obj, attr, qualified))
    return found


class Tracer:
    """Records spans in memory; single-threaded (the benchmark runs --threads 1).

    label:   qualified name -> fn(args) giving a suffix, e.g. "enc"/"dec".
    measure: qualified name -> fn(args, kwargs, result) giving a number
             stored with the span (bytes written, bytes read, ...).
    item:    qualified name -> fn(args) giving the item id that this call
             and every later span belong to.
    """

    def __init__(self, label=None, measure=None, item=None):
        self.spans = []  # [name, start, end, parent, item, value]
        self.label = label or {}
        self.measure = measure or {}
        self.item_of = item or {}
        self._stack = []
        self._item = None
        self._items_seen = 0
        self._patch = Patch()

    def install(self, modules, skip=()):
        """Wrap the public callables of each module; returns their names."""
        names = []
        for module in modules:
            for owner, attr, qualified in public_callables(module, skip):
                make = functools.partial(self._wrap, qualified)
                if inspect.ismodule(owner):
                    self._patch.function(owner, attr, make)
                else:
                    self._patch.method(owner, attr, make)
                names.append(qualified)
        return names

    def uninstall(self):
        self._patch.undo()

    def _wrap(self, qualified, func):
        label = self.label.get(qualified)
        measure = self.measure.get(qualified)
        item_of = self.item_of.get(qualified)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if item_of is not None:
                self._items_seen += 1
                self._item = f"{item_of(args)}#{self._items_seen}"
            name = f"{qualified}[{label(args)}]" if label else qualified
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self._item, None]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if measure is not None:
                record[5] = measure(args, kwargs, result)
            return result

        return traced


def write_spans(path, tracers):
    """Write the spans of several traced runs as tab-separated lines.

    Times are perf_counter seconds; parent is the index of the enclosing
    span within the same run, empty for a top-level span.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("run\tindex\tname\tstart\tend\tparent\titem\tvalue\n")
        for run, tracer in enumerate(tracers):
            for i, (name, start, end, parent, item, value) in enumerate(tracer.spans):
                fh.write(f"{run}\t{i}\t{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{'' if parent is None else parent}\t{item or ''}\t"
                         f"{'' if value is None else value}\n")

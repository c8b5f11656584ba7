"""Span recording from outside the program: wrappers, patching, self time.

The benchmark traces the library without touching it.  A
:class:`Recorder` holds every span in memory; a :class:`Patcher`
replaces public functions and methods with timing wrappers and puts
every original back on :meth:`Patcher.restore`.

Two details matter for getting the numbers right:

- A function imported with ``from module import name`` is a separate
  binding in the importing module.  Patching only the defining module
  would leave those call sites dark, so :meth:`Patcher.patch_function`
  rebinds every name in every loaded ``repro`` module that refers to
  the same function object.
- Work done inside fork-pool children is invisible here (their spans
  die with them).  The parent-side wait is what the caller pays, so the
  pool entry point is wrapped like any other function and its span
  covers the wait.

Self time is a span's duration minus the part of its interval that its
children cover (the union of their intervals, clipped to the parent),
so nested and overlapping children are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (start, end, parent index or -1)
Interval = Tuple[float, float, int]


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for start, end in clipped:
        if end <= start:
            continue
        if run_start is None or start > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Interval]) -> List[float]:
    """Per span: duration minus the time its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(index, ()), start, end)
        for index, (start, end, _) in enumerate(spans)
    ]


class Recorder:
    """In-memory spans and counters for one traced run (single thread).

    ``spans[i]`` is ``(start, end, parent index)`` and ``keys[i]`` is
    what its wrapper was registered with (a ``(layer, op)`` pair here).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.keys: List[Any] = []
        self.spans: List[Interval] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[Tuple[int, Callable]] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, key: Any, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        # A function re-entering itself (recursion) stays inside its
        # outermost span: one call, no double-counted time.
        if stack and stack[-1][1] is fn:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = stack[-1][0] if stack else -1
        self.keys.append(key)
        self.spans.append((self.clock(), 0.0, parent))
        stack.append((index, fn))
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            start = self.spans[index][0]
            self.spans[index] = (start, self.clock(), parent)

    def parent_key(self) -> Any:
        """Key of the innermost open span (``None`` outside any)."""
        return self.keys[self._stack[-1][0]] if self._stack else None

    def self_times(self) -> List[float]:
        return self_times(self.spans)


#: A probe sees one finished call: (recorder, args, kwargs, result).
Probe = Callable[[Recorder, tuple, dict, Any], None]


#: A filter sees the call's (args, kwargs); False leaves it unrecorded,
#: so its time stays with the caller's span.
When = Callable[[tuple, dict], bool]


def _wrapper(
    recorder: Recorder,
    key: Any,
    fn: Callable,
    probe: Optional[Probe],
    when: Optional[When] = None,
):
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if when is not None and not when(args, kwargs):
            return fn(*args, **kwargs)
        result = recorder.call(key, fn, args, kwargs)
        if probe is not None:
            probe(recorder, args, kwargs, result)
        return result

    return traced


def resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` → (owner object, attribute name)."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Patcher:
    """Installs timing wrappers and remembers how to undo each one."""

    #: Only modules of this package are searched for bindings.
    package = "repro"

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        #: (namespace object, attribute, original raw value)
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch(
        self,
        path: str,
        key: Any,
        probe: Optional[Probe] = None,
        when: Optional[When] = None,
    ) -> None:
        owner, attr = resolve(path)
        if isinstance(owner, type):
            self.patch_method(owner, attr, key, probe, when)
        else:
            self.patch_function(owner, attr, key, probe, when)

    def patch_function(
        self,
        module: Any,
        attr: str,
        key: Any,
        probe: Optional[Probe] = None,
        when: Optional[When] = None,
    ) -> None:
        """Wrap a module-level function at every binding of it in the
        package's loaded modules."""
        original = getattr(module, attr)
        wrapper = _wrapper(self.recorder, key, original, probe, when)
        bound = 0
        prefix = self.package + "."
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self.package or name.startswith(prefix)):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, binding, wrapper)
                    bound += 1
        if bound == 0:
            raise LookupError(f"{module.__name__}.{attr} is bound nowhere")

    def patch_method(
        self,
        cls: type,
        attr: str,
        key: Any,
        probe: Optional[Probe] = None,
        when: Optional[When] = None,
    ) -> None:
        """Wrap a method defined on ``cls`` itself, keeping its kind
        (plain, ``staticmethod`` or ``classmethod``)."""
        raw = vars(cls)[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = _wrapper(self.recorder, key, raw.__func__, probe, when)
            value: Any = type(raw)(wrapped)
        elif callable(raw):
            value = _wrapper(self.recorder, key, raw, probe, when)
        else:
            raise TypeError(f"{cls.__name__}.{attr} is not a function")
        self._set(cls, attr, value)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

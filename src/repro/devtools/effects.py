"""Blocking-effect-under-lock analyzer (:data:`RULE_LOCK_BLOCKING`).

A lock that is held across a blocking call — file or socket I/O,
spawning or reaping a subprocess, ``time.sleep``, joining a thread,
waiting on a ``Future`` or a queue — stalls every other thread that
needs the lock for as long as the effect takes, and upgrades to a full
deadlock the moment the blocked-on work itself needs that lock (the
classic ``Future.result()``-under-lock trap).  This matters most in the
service stack, whose locks are documented leaf/short-critical-section
locks precisely so lock holders never talk to workers
(`PoolBackend` docstring, ``api/backends.py``).

The analyzer rides on :class:`~repro.devtools.lockorder.LockOrderAnalyzer`'s
held-region tracking (``with`` blocks and linear ``acquire``/``release``
pairs, including one-level call edges) via the ``_note_held_call`` hook:
every call made while at least one inventoried lock is held is checked
against a table of blocking effects —

- module-level calls resolved through imports: ``time.sleep``,
  ``subprocess.run``/``Popen``/``call``/``check_call``/``check_output``,
  ``socket.create_connection``/``getaddrinfo``, ``select.select``,
  ``urllib.request.urlopen``, plus the ``open()`` builtin;
- method calls whose receiver the shallow stdlib-constructor inference
  can type: ``Thread.join``, ``Popen.wait``/``communicate``,
  ``Queue.get``/``put``/``join``, ``Executor.shutdown``,
  ``socket.recv``/``send``/``accept``/``connect``, and
  ``read``/``write``/``flush`` on ``open()``/``os.fdopen()`` handles;
- ``.result()`` on any receiver — in this tree that is always
  ``concurrent.futures.Future.result``, the one blocking wait whose
  completer may need the very lock being held;
- calls **one level deep** into project functions whose own body
  directly performs one of the effects above.

Receiver typing is the same deliberately shallow, honest inference the
lock analyzer uses: locals assigned from a recognizable stdlib
constructor and ``self.x = <ctor>(...)`` attributes.  Anything
unresolvable produces *no* finding.  ``Condition.wait`` is exempt by
construction (it releases the lock it waits on); the lock machinery's
own ``acquire``/``release`` traffic is the lock-order analyzer's
business, not this one's.
"""

from __future__ import annotations

import ast

from .findings import LintFinding
from .lockorder import LockId, LockOrderAnalyzer
from .project import (FunctionInfo, Project, SourceModule,
                      iter_nodes_excluding_nested)

__all__ = ["RULE_LOCK_BLOCKING", "BlockingCallAnalyzer", "run_blocking"]

RULE_LOCK_BLOCKING = "lock-blocking-call"

#: Import-resolved module-level callables that block the calling thread.
_BLOCKING_ORIGINS = {
    "time.sleep": "time.sleep()",
    "subprocess.run": "subprocess.run() (spawn + wait)",
    "subprocess.call": "subprocess.call() (spawn + wait)",
    "subprocess.check_call": "subprocess.check_call() (spawn + wait)",
    "subprocess.check_output": "subprocess.check_output() (spawn + wait)",
    "subprocess.Popen": "subprocess.Popen() (process spawn)",
    "socket.create_connection": "socket.create_connection()",
    "socket.getaddrinfo": "socket.getaddrinfo() (DNS)",
    "select.select": "select.select()",
    "urllib.request.urlopen": "urllib.request.urlopen()",
}

#: Stdlib constructors the shallow receiver typing recognises, and the
#: methods that block on each resulting type.
_STDLIB_CTORS = {
    "threading.Thread": "Thread",
    "threading.Timer": "Thread",
    "multiprocessing.Process": "Process",
    "subprocess.Popen": "Popen",
    "queue.Queue": "Queue",
    "queue.LifoQueue": "Queue",
    "queue.PriorityQueue": "Queue",
    "queue.SimpleQueue": "Queue",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "concurrent.futures.ThreadPoolExecutor": "Executor",
    "concurrent.futures.ProcessPoolExecutor": "Executor",
    "open": "file",
    "os.fdopen": "file",
}

_BLOCKING_METHODS = {
    "Thread": {"join"},
    "Process": {"join"},
    "Popen": {"wait", "communicate"},
    "Queue": {"get", "put", "join"},
    "socket": {"recv", "recv_into", "recvfrom", "send", "sendall",
               "accept", "connect"},
    "Executor": {"shutdown"},
    "file": {"read", "readline", "readlines", "write", "writelines",
             "flush"},
}


class BlockingCallAnalyzer(LockOrderAnalyzer):
    """Lock-order walk + blocking-effect findings (module docstring)."""

    def __init__(self, project: Project):
        self.blocking: list[LintFinding] = []
        self.project = project
        #: id(fn) -> first direct blocking effect (description, line).
        self._fn_effects: dict[int, tuple[str, int] | None] = {}
        #: "module:Class.attr" -> stdlib receiver type for self-attrs.
        self._attr_types = self._inventory_stdlib_attrs(project)
        self._locals_cache: dict[int, dict[str, str]] = {}
        for fn in project.functions:
            self._fn_effects[id(fn)] = self._first_direct_effect(fn)
        super().__init__(project)

    # --------------------------------------------------- stdlib receiver types
    @staticmethod
    def _ctor_type(call: ast.AST, module: SourceModule) -> str | None:
        """The stdlib receiver type a constructor call produces, if any."""
        if not isinstance(call, ast.Call):
            return None
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "open" and "open" not in module.imports:
                return "file"
            origin = module.imports.get(func.id)
            return _STDLIB_CTORS.get(origin) if origin else None
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            base = module.imports.get(func.value.id)
            if base:
                return _STDLIB_CTORS.get(f"{base}.{func.attr}")
        return None

    def _inventory_stdlib_attrs(self, project: Project) -> dict[str, str]:
        types: dict[str, str] = {}
        for cls in project.classes.values():
            if cls is None:
                continue
            owner = f"{cls.module.name}:{cls.name}"
            for method in cls.methods.values():
                for node in iter_nodes_excluding_nested(method.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    kind = self._ctor_type(node.value, cls.module)
                    if not kind:
                        continue
                    for target in node.targets:
                        if isinstance(target, ast.Attribute) \
                                and isinstance(target.value, ast.Name) \
                                and target.value.id == "self":
                            types[f"{owner}.{target.attr}"] = kind
        return types

    def _stdlib_locals(self, fn: FunctionInfo) -> dict[str, str]:
        types: dict[str, str] = {}
        for node in iter_nodes_excluding_nested(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                kind = self._ctor_type(node.value, fn.module)
                if kind:
                    types[node.targets[0].id] = kind
        return types

    def _receiver_type(self, expr: ast.AST, fn: FunctionInfo) -> str | None:
        """Stdlib type of a method receiver, or ``None`` (no guessing)."""
        if isinstance(expr, ast.Name):
            cached = self._locals_cache.get(id(fn))
            if cached is None:
                cached = self._locals_cache[id(fn)] = \
                    self._stdlib_locals(fn)
            return cached.get(expr.id)
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self" and fn.cls is not None:
            cls = fn.cls
            while cls is not None:
                kind = self._attr_types.get(
                    f"{cls.module.name}:{cls.name}.{expr.attr}")
                if kind is not None:
                    return kind
                cls = next(
                    (self.project.classes.get(base) for base in cls.bases
                     if self.project.classes.get(base)), None)
        return None

    # ------------------------------------------------------- effect detection
    def _direct_effect(self, call: ast.Call,
                       fn: FunctionInfo) -> str | None:
        """Describe the blocking effect of ``call``, or ``None``."""
        func = call.func
        module = fn.module
        if isinstance(func, ast.Name):
            if func.id == "open" and "open" not in module.imports:
                return "open() (file I/O)"
            origin = module.imports.get(func.id)
            if origin and origin in _BLOCKING_ORIGINS:
                return _BLOCKING_ORIGINS[origin]
            return None
        if not isinstance(func, ast.Attribute):
            return None
        if isinstance(func.value, ast.Name):
            base = module.imports.get(func.value.id)
            if base:
                dotted = f"{base}.{func.attr}"
                if dotted in _BLOCKING_ORIGINS:
                    return _BLOCKING_ORIGINS[dotted]
        if func.attr == "result":
            # Future.result() is this tree's one `.result()` — the
            # blocking wait whose completer may need the held lock.
            return ".result() (Future wait)"
        kind = self._receiver_type(func.value, fn)
        if kind and func.attr in _BLOCKING_METHODS.get(kind, ()):
            return f"{kind}.{func.attr}()"
        return None

    def _first_direct_effect(self, fn: FunctionInfo) \
            -> tuple[str, int] | None:
        for node in iter_nodes_excluding_nested(fn.node):
            if isinstance(node, ast.Call):
                effect = self._direct_effect(node, fn)
                if effect is not None:
                    return effect, node.lineno
        return None

    # --------------------------------------------------------------- the hook
    def _note_held_call(self, call: ast.Call, fn: FunctionInfo,
                        local_types: dict[str, str],
                        held: list[tuple[LockId, int]]) -> None:
        locks = ", ".join(sorted(str(lock) for lock, _ in held))
        effect = self._direct_effect(call, fn)
        if effect is not None:
            self.blocking.append(LintFinding(
                path=fn.module.rel, line=call.lineno,
                rule=RULE_LOCK_BLOCKING,
                message=f"blocking call {effect} while holding {locks} "
                        f"in {fn.qualname}; drop the lock before "
                        f"blocking (holders stall every waiter, and a "
                        f"deadlock if the blocked-on work needs the "
                        f"lock)"))
            return
        callee = self.project.resolve_call(call, fn, local_types)
        if callee is None:
            return
        nested = self._fn_effects.get(id(callee))
        if nested is not None:
            desc, line = nested
            self.blocking.append(LintFinding(
                path=fn.module.rel, line=call.lineno,
                rule=RULE_LOCK_BLOCKING,
                message=f"call to {callee.qualname} while holding "
                        f"{locks} in {fn.qualname}; the callee performs "
                        f"blocking {desc} at {callee.module.rel}:{line}"))


def run_blocking(project: Project) -> list[LintFinding]:
    """Blocking-under-lock findings for an already-loaded project."""
    return sorted(set(BlockingCallAnalyzer(project).blocking))

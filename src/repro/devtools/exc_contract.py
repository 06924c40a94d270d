"""Exception-contract analyzer (:data:`RULE_EXC_UNCLASSIFIED`,
:data:`RULE_EXC_SWALLOWED`).

``repro.api.resilience`` defines the service stack's exception
*contract*: everything a worker dispatch path can raise is either
**retryable** infrastructure failure (``WorkerCrashed`` and its
subclasses, the ``OSError`` family — ``RetryPolicy.retryable`` re-runs
the shard) or **fatal-by-classification** (``BackendError``,
``AnalysisCancelled``, ``ShardPoisoned``, the deterministic validation
errors — the policy propagates them immediately because retrying cannot
help).  An exception outside both sets — a bare ``RuntimeError``, a new
project exception that never joined the taxonomy — reaches the retry
layer with *ambiguous* semantics: today it happens to propagate, but
nothing says whether that was a decision or an accident, and at fleet
scale an unclassified infrastructure error silently becomes
non-retryable data loss.

Two rules:

- ``exc-unclassified`` — a ``raise`` site, in any function reachable
  from the backend launch / worker dispatch seeds (breadth-first over
  resolvable calls, like the determinism pass's fingerprint closure),
  whose exception type is in neither classification.  Resolution is
  honest: ``raise <Name>(...)`` and ``raise <mod>.<Name>(...)`` resolve
  by name (project classes walk their base chain, so a new
  ``FooCrashed(WorkerCrashed)`` is retryable by inheritance); a
  ``raise`` of a variable, a bare re-``raise``, or a dynamically chosen
  class produces no finding; ``raise self._helper(...)`` resolves
  through the helper's return annotation when there is one.  Private
  (underscore-prefixed) project exceptions are internal control flow by
  convention and exempt.
- ``exc-swallowed`` — in the service-path modules (``api/`` and
  ``core/sweep.py``): a bare ``except:`` whose body never re-raises, or
  an ``except Exception:`` / ``except BaseException:`` handler whose
  body is only ``pass``/``...``/``continue``.  Either would eat
  ``WorkerCrashed`` (losing the retry) or ``AnalysisCancelled``
  (losing the cancel) without a trace.

The classification tables below mirror ``RetryPolicy.retryable`` and
the service's terminal handling; extending the taxonomy means adding
the new type here *and* teaching the policy about it — which is the
point.
"""

from __future__ import annotations

import ast

from .findings import LintFinding
from .project import (FunctionInfo, Project, iter_nodes_excluding_nested)

__all__ = ["RULE_EXC_UNCLASSIFIED", "RULE_EXC_SWALLOWED",
           "run_exc_contract", "RETRYABLE_EXCEPTIONS",
           "FATAL_EXCEPTIONS"]

RULE_EXC_UNCLASSIFIED = "exc-unclassified"
RULE_EXC_SWALLOWED = "exc-swallowed"

#: Retryable per ``RetryPolicy.retryable``: worker-crash taxonomy plus
#: the OSError family (transient infrastructure).
RETRYABLE_EXCEPTIONS = frozenset({
    "WorkerCrashed", "WorkerTimeout", "WorkerPreempted",
    "OSError", "IOError", "ConnectionError", "ConnectionResetError",
    "ConnectionAbortedError", "ConnectionRefusedError",
    "BrokenPipeError", "FileNotFoundError", "FileExistsError",
    "PermissionError", "InterruptedError", "TimeoutError",
    "BlockingIOError", "ChildProcessError", "ProcessLookupError",
})

#: Explicitly fatal / propagate-immediately: the non-retryable arms of
#: the taxonomy (``BackendError`` is deterministic, ``ShardPoisoned``
#: is terminal, cancellation/preemption are control flow the service
#: maps to terminal events) plus deterministic validation errors,
#: where a retry would only re-raise.
FATAL_EXCEPTIONS = frozenset({
    "BackendError", "ShardPoisoned", "AnalysisCancelled",
    "SweepCancelled", "SweepPreempted", "ShardMismatch", "QueueFull",
    "ServerDraining", "RemoteError", "RemoteBusy", "SchemaError",
    "ValueError", "TypeError", "KeyError", "IndexError",
    "AttributeError", "LookupError", "ArithmeticError",
    "ZeroDivisionError", "OverflowError", "NotImplementedError",
    "AssertionError", "StopIteration", "ImportError",
    "ModuleNotFoundError", "MemoryError", "RecursionError",
    "KeyboardInterrupt", "SystemExit", "GeneratorExit",
    "UnicodeDecodeError", "UnicodeEncodeError",
})

#: Dispatch-path seeds: every function in the backend and resilience
#: modules (launch, worker mains, retry machinery), plus the service's
#: measurement/launch/completion path by name or ``Class.method``.  The
#: shard run's transitions run as future, timer and ``on_start``
#: callbacks; no call site names them, so only a seed reaches them.
#: ``_GroupRun.announce_degraded_once`` and ``ShardProgress.mark_started``
#: are called through attributes (``self.run``, ``run.progress``) whose
#: type the project index cannot infer, so they are seeded too.
SEED_MODULES = ("api/backends.py", "api/resilience.py")
SEED_SERVICE_FUNCTIONS = frozenset({
    "_measure", "_launch_group", "_finish_group", "_fail_group",
    "_ShardRun.start", "_ShardRun._done", "_ShardRun._mark_started",
    "_GroupRun.announce_degraded_once", "ShardProgress.mark_started",
})

#: Modules whose broad exception handlers the swallow rule audits.
SERVICE_PATH_PREFIXES = ("api/",)
SERVICE_PATH_MODULES = ("core/sweep.py",)


def _dispatch_seeds(project: Project) -> list[FunctionInfo]:
    seeds = []
    for fn in project.functions:
        if fn.module.rel in SEED_MODULES:
            seeds.append(fn)
        elif fn.module.rel.endswith("api/service.py") and (
                fn.name in SEED_SERVICE_FUNCTIONS
                or fn.qualname.partition(":")[2] in SEED_SERVICE_FUNCTIONS):
            seeds.append(fn)
    return seeds


def _dispatch_closure(project: Project) -> list[FunctionInfo]:
    """Functions reachable from the dispatch seeds, breadth-first over
    resolvable calls; closures nested in a reached function count as
    reached (they run on its path)."""
    children: dict[int, list[FunctionInfo]] = {}
    for fn in project.functions:
        if fn.parent is not None:
            children.setdefault(id(fn.parent), []).append(fn)
    seeds = _dispatch_seeds(project)
    seen = {id(fn) for fn in seeds}
    queue = list(seeds)
    closure: list[FunctionInfo] = []
    while queue:
        fn = queue.pop(0)
        closure.append(fn)
        for child in children.get(id(fn), ()):
            if id(child) not in seen:
                seen.add(id(child))
                queue.append(child)
        local_types = project.local_types(fn)
        for node in iter_nodes_excluding_nested(fn.node):
            if not isinstance(node, ast.Call):
                continue
            callee = project.resolve_call(node, fn, local_types)
            if callee is not None and id(callee) not in seen:
                seen.add(id(callee))
                queue.append(callee)
    return closure


def _raised_name(expr: ast.AST, fn: FunctionInfo,
                 project: Project) -> str | None:
    """The exception class name a ``raise`` expression denotes, or
    ``None`` when resolution would be a guess."""
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) \
                    and func.value.id != "self":
                name = func.attr  # mod.ExcName(...)
            else:
                # raise self._helper(...): classify via the helper's
                # return annotation, else stay silent.
                local_types = project.local_types(fn)
                callee = project.resolve_call(expr, fn, local_types)
                returns = getattr(callee.node, "returns", None) \
                    if callee is not None else None
                if isinstance(returns, ast.Name):
                    return returns.id
                if isinstance(returns, ast.Constant) \
                        and isinstance(returns.value, str):
                    return returns.value.rsplit(".", 1)[-1]
                return None
        else:
            return None
    elif isinstance(expr, ast.Name):
        name = expr.id
    else:
        return None
    # A lowercase leading character means a variable or factory
    # (``raise error``, ``raise error_cls(...)``) — dynamic, no guess.
    if not name or not name[0].isupper():
        return None
    return name


def _classify(name: str, project: Project) -> str | None:
    """``"retryable"``/``"fatal"`` for a resolved exception name, or
    ``None`` when it is outside the contract.  Project classes walk
    their (project-resolvable) base chain, so subclasses of classified
    types inherit the classification."""
    seen: set[str] = set()
    frontier = [name]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        if current in RETRYABLE_EXCEPTIONS:
            return "retryable"
        if current in FATAL_EXCEPTIONS:
            return "fatal"
        cls = project.classes.get(current)
        if cls is not None:
            frontier.extend(base.rsplit(".", 1)[-1]
                            for base in cls.bases)
    return None


def _is_trivial_body(body: list[ast.stmt]) -> bool:
    """True when a handler body cannot observe the exception: only
    ``pass``/``...``/docstrings/``continue``."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                     ast.Constant):
            continue
        return False
    return True


def _reraises(body: list[ast.stmt]) -> bool:
    return any(isinstance(node, ast.Raise)
               for stmt in body for node in ast.walk(stmt))


def _broad_handler_names(handler: ast.ExceptHandler) -> list[str]:
    """Names among the handler's types that are Exception/BaseException."""
    nodes = []
    if isinstance(handler.type, ast.Tuple):
        nodes = handler.type.elts
    elif handler.type is not None:
        nodes = [handler.type]
    names = []
    for node in nodes:
        name = node.id if isinstance(node, ast.Name) else (
            node.attr if isinstance(node, ast.Attribute) else None)
        if name in ("Exception", "BaseException"):
            names.append(name)
    return names


def run_exc_contract(project: Project) -> list[LintFinding]:
    findings: list[LintFinding] = []
    # -- exc-unclassified over the dispatch closure -----------------------
    for fn in _dispatch_closure(project):
        for node in iter_nodes_excluding_nested(fn.node):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = _raised_name(node.exc, fn, project)
            if name is None or name.startswith("_"):
                continue  # dynamic raise / private control flow
            if _classify(name, project) is None:
                findings.append(LintFinding(
                    path=fn.module.rel, line=node.lineno,
                    rule=RULE_EXC_UNCLASSIFIED,
                    message=f"{fn.qualname} raises {name}, which is "
                            f"neither retryable nor explicitly fatal "
                            f"in the resilience taxonomy; raise a "
                            f"classified type (BackendError / "
                            f"WorkerCrashed / a validation error) or "
                            f"add {name} to the contract in "
                            f"devtools/exc_contract.py"))
    # -- exc-swallowed over the service-path modules ----------------------
    for module in project.modules:
        if not (module.rel.startswith(SERVICE_PATH_PREFIXES)
                or module.rel in SERVICE_PATH_MODULES):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                if not _reraises(node.body):
                    findings.append(LintFinding(
                        path=module.rel, line=node.lineno,
                        rule=RULE_EXC_SWALLOWED,
                        message="bare 'except:' without re-raise in a "
                                "service path would eat WorkerCrashed "
                                "(losing the retry) and "
                                "AnalysisCancelled (losing the "
                                "cancel); name the exceptions or "
                                "re-raise"))
                continue
            broad = _broad_handler_names(node)
            if broad and _is_trivial_body(node.body):
                findings.append(LintFinding(
                    path=module.rel, line=node.lineno,
                    rule=RULE_EXC_SWALLOWED,
                    message=f"'except {broad[0]}: pass' in a service "
                            f"path silently swallows WorkerCrashed/"
                            f"AnalysisCancelled; handle or narrow the "
                            f"exception types"))
    return sorted(set(findings))

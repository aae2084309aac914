"""Interprocedural concurrency-safety inference (the ``--threads`` pass).

A lockset/thread-escape analysis over the package's ASTs, seeded by the
annotations collected in :mod:`repro.analysis.registry`. For every
function it tracks

* the **lockset** held at each statement — ``with self._lock:`` blocks,
  explicit ``.acquire()``/``.release()`` pairs, locks resolved through
  the ``@guards`` annotations of the signature registry;
* a **thread-escape** set — which classes and functions are reachable
  from more than one thread, seeded by ``threading.Thread(target=...)``,
  ``executor.submit(...)``, ``loop.run_in_executor(...)`` and the
  ``@threads`` entries of ``REPRO_SIGNATURES``;
* a global **lock-order graph** — an edge ``A -> B`` whenever lock ``B``
  is acquired (directly or through a callee's summary, across module
  boundaries) while ``A`` is held.

The rule family (suppress with ``# repro: noqa[REP20x]``):

``REP201``
    Write to a ``@guards``-annotated thread-shared attribute without its
    guard held (constructor initialization is exempt).
``REP202``
    Inconsistent lockset: a guarded field read bare — either annotated
    via ``@guards``, or inferred (a field of a thread-escaping class
    accessed under one lock on at least two sites and bare on another).
``REP203``
    Lock-order cycle: the global lock-order graph contains a cycle, so
    two threads taking the locks in opposite orders can deadlock. Every
    edge participating in a cycle is reported at its acquisition site.
``REP204``
    Blocking call while holding a lock: ``time.sleep``, ``.join()`` /
    ``.get()`` / ``.result()`` / ``.wait()`` without a timeout, socket
    ``recv``/``accept``, anything named by ``@blocking`` — directly or
    through the may-block closure of the call graph.
``REP205``
    Non-atomic check-then-act: a guarded field read without its guard
    and then written under the guard in the same function with no
    guarded re-check in between (the double-checked-init bug).
``REP206``
    Thread started but never joined: a ``threading.Thread`` handle
    (local or ``self.*`` field) that is ``.start()``-ed but has no
    ``.join`` reference anywhere in its owning scope.

Annotation mini-language (module ``REPRO_SIGNATURES`` keys):

.. code-block:: python

    REPRO_SIGNATURES = {
        "@guards": ["ServeEngine._queue guarded_by _lock",
                    "_plan guarded_by _plan_lock"],     # module global
        "@threads": ["ServeEngine._run_batch", "LinkSession"],
        "@blocking": ["fault_point"],
        "LinkSession.coded_energy": "EnergyAccount",   # attribute type
    }

Run with ``repro-tsv lint --threads``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.findings import Finding
from repro.analysis.linter import ImportMap, _noqa_lines, iter_python_files
from repro.analysis.registry import SignatureRegistry, build_registry

__all__ = ["THREAD_RULES", "analyze_threads", "analyze_thread_source"]

#: The concurrency rule family (code -> one-line summary).
THREAD_RULES = {
    "REP201": "unguarded write to a thread-shared attribute",
    "REP202": "inconsistent lockset: guarded field read bare",
    "REP203": "lock-order cycle (potential deadlock)",
    "REP204": "blocking call while holding a lock",
    "REP205": "non-atomic check-then-act on a guarded field",
    "REP206": "thread started but never joined or stopped",
}

#: Constructors that create a kernel thread.
_THREAD_CTORS = frozenset({"threading.Thread", "threading.Timer"})

#: Lock constructors recognized in ``x = threading.Lock()`` pre-scans.
_LOCK_CTORS = frozenset({"threading.Lock", "threading.RLock"})

#: Attribute calls that block unconditionally.
_ALWAYS_BLOCKING_ATTRS = frozenset({"recv", "recv_into", "accept"})

#: Attribute calls that block when called with no timeout argument.
_TIMEOUT_BLOCKING_ATTRS = frozenset({"join", "get", "result", "wait"})

#: Name calls that block (canonical dotted names).
_BLOCKING_CANONICALS = frozenset({"time.sleep", "concurrent.futures.wait"})


class ModuleInfo:
    """One parsed file under analysis."""

    def __init__(self, path: Path, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.imports = ImportMap(tree)
        self.name = _module_name_for(path)


class FunctionInfo:
    """One function or method found in an analyzed module."""

    def __init__(
        self,
        qualname: str,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        module: ModuleInfo,
        class_name: Optional[str] = None,
    ) -> None:
        self.qualname = qualname
        self.node = node
        self.module = module
        self.class_name = class_name


def _module_name_for(path: Path) -> str:
    """Dotted module name, walking up through ``__init__.py`` packages."""
    path = Path(path)
    parts = [] if path.stem == "__init__" else [path.stem]
    directory = path.resolve().parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) or path.stem


def _static_signatures(tree: ast.Module) -> Optional[Mapping]:
    """Extract a module's ``REPRO_SIGNATURES`` dict literal, if present."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "REPRO_SIGNATURES"
        ):
            try:
                value = ast.literal_eval(node.value)
            except (ValueError, TypeError):
                return None
            return value if isinstance(value, dict) else None
    return None


def _load_module(path: Path) -> Optional[ModuleInfo]:
    try:
        source = Path(path).read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError):
        return None  # shallow lint already reports REP000 for these
    return ModuleInfo(Path(path), source, tree)

#: Thread-handle attributes that do not leak the handle to another owner.
_THREAD_METHODS = frozenset(
    {"start", "join", "is_alive", "daemon", "name", "ident"}
)


class _Access:
    """One read/write of a tracked field at one site."""

    __slots__ = ("field", "kind", "locks", "node", "in_init")

    def __init__(
        self,
        field: str,
        kind: str,
        locks: frozenset,
        node: ast.AST,
        in_init: bool,
    ) -> None:
        self.field = field
        self.kind = kind  # "read" | "write"
        self.locks = locks
        self.node = node
        self.in_init = in_init


class _Call:
    """One call site with the lockset held when it executes."""

    __slots__ = ("resolved", "locks", "node")

    def __init__(
        self, resolved: Optional[str], locks: frozenset, node: ast.AST
    ) -> None:
        self.resolved = resolved
        self.locks = locks
        self.node = node


class _Scan:
    """Per-function facts: accesses, lock edges, calls, blocking sites."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.accesses: List[_Access] = []
        self.acquired: Set[str] = set()
        self.edges: List[Tuple[str, str, ast.AST]] = []
        self.calls: List[_Call] = []
        self.blocking: List[Tuple[ast.AST, str, frozenset]] = []
        self.direct_blocks = False


class ThreadAnalyzer:
    """Drives the concurrency pass over a set of modules."""

    def __init__(
        self, modules: Sequence[ModuleInfo], registry: SignatureRegistry
    ) -> None:
        self.modules = list(modules)
        self.registry = registry
        self.findings: List[Finding] = []
        self.functions: Dict[str, FunctionInfo] = {}
        self.module_locks: Dict[str, Set[str]] = {}
        self.class_locks: Dict[str, Set[str]] = {}
        #: Class-body-declared attributes: state shared across instances,
        #: so constructor accesses are NOT exempt from the lock rules.
        self.class_level_fields: Dict[str, Set[str]] = {}
        #: "ClassName.method" -> list of matching fully-qualified names.
        self.member_index: Dict[str, List[str]] = {}
        self.escaped_classes: Set[str] = set()
        self.entry_functions: Set[str] = set()
        self.scans: Dict[str, _Scan] = {}
        for module in self.modules:
            self._collect_functions(module)
            self._collect_locks(module)
        self._seed_annotations()

    # -- collection -----------------------------------------------------------

    def _collect_functions(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module.name}.{node.name}"
                self.functions[qualname] = FunctionInfo(qualname, node, module)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        qualname = f"{module.name}.{node.name}.{item.name}"
                        info = FunctionInfo(
                            qualname, item, module, class_name=node.name
                        )
                        self.functions[qualname] = info
                        key = f"{node.name}.{item.name}"
                        self.member_index.setdefault(key, []).append(qualname)

    def _collect_locks(self, module: ModuleInfo) -> None:
        """Find ``x = threading.Lock()`` declarations (module and class)."""
        mod_locks = self.module_locks.setdefault(module.name, set())
        for node in module.tree.body:
            if self._lock_assign_name(node, module) is not None:
                mod_locks.add(self._lock_assign_name(node, module))
            elif isinstance(node, ast.ClassDef):
                attrs = self.class_locks.setdefault(node.name, set())
                fields = self.class_level_fields.setdefault(node.name, set())
                for item in node.body:
                    name = self._lock_assign_name(item, module)
                    if name is not None:
                        attrs.add(name)
                    elif isinstance(item, ast.Assign):
                        for target in item.targets:
                            if isinstance(target, ast.Name):
                                fields.add(target.id)
                    elif isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        fields.add(item.target.id)
                for item in ast.walk(node):
                    if (
                        isinstance(item, ast.Assign)
                        and len(item.targets) == 1
                        and isinstance(item.targets[0], ast.Attribute)
                        and isinstance(item.targets[0].value, ast.Name)
                        and item.targets[0].value.id == "self"
                        and self._is_lock_ctor(item.value, module)
                    ):
                        attrs.add(item.targets[0].attr)

    def _lock_assign_name(
        self, node: ast.stmt, module: ModuleInfo
    ) -> Optional[str]:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and self._is_lock_ctor(node.value, module)
        ):
            return node.targets[0].id
        return None

    @staticmethod
    def _is_lock_ctor(node: ast.expr, module: ModuleInfo) -> bool:
        return (
            isinstance(node, ast.Call)
            and module.imports.canonical(node.func) in _LOCK_CTORS
        )

    def _seed_annotations(self) -> None:
        """Fold ``@guards`` lock names and ``@threads`` entries in."""
        for lock_id in self.registry.guards.values():
            owner, _, name = lock_id.rpartition(".")
            if not owner:
                continue
            head = owner.rsplit(".", 1)[-1]
            if head[:1].isupper():
                self.class_locks.setdefault(owner, set()).add(name)
            else:
                self.module_locks.setdefault(owner, set()).add(name)
        for entry in self.registry.thread_entries:
            if "." in entry:
                cls = entry.split(".")[0]
                if cls[:1].isupper():
                    self.escaped_classes.add(cls)
                for qualname in self.member_index.get(entry, []):
                    self.entry_functions.add(qualname)
            elif entry[:1].isupper():
                self.escaped_classes.add(entry)
            else:
                for qualname, info in self.functions.items():
                    if info.node.name == entry and info.class_name is None:
                        self.entry_functions.add(qualname)

    # -- call resolution -------------------------------------------------------

    def resolve_call(
        self, call: ast.Call, module: ModuleInfo, class_name: Optional[str]
    ) -> Optional[str]:
        func = call.func
        canonical = module.imports.canonical(func)
        if canonical:
            if canonical in self.functions:
                return canonical
            local = f"{module.name}.{canonical}"
            if local in self.functions:
                return local
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self" and class_name:
                qualname = f"{module.name}.{class_name}.{func.attr}"
                if qualname in self.functions:
                    return qualname
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and class_name
            ):
                attr_type = self.registry.member_attribute(
                    class_name, base.attr
                )
                if attr_type is not None:
                    candidates = self.member_index.get(
                        f"{attr_type}.{func.attr}", []
                    )
                    if len(candidates) == 1:
                        return candidates[0]
        return None

    def resolve_escape_target(
        self, node: ast.expr, module: ModuleInfo, class_name: Optional[str]
    ) -> None:
        """Mark the target of a thread/executor hand-off as escaping."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and class_name
        ):
            self.escaped_classes.add(class_name)
            qualname = f"{module.name}.{class_name}.{node.attr}"
            if qualname in self.functions:
                self.entry_functions.add(qualname)
            return
        canonical = module.imports.canonical(node)
        if not canonical:
            return
        tail = canonical.rsplit(".", 1)[-1]
        if tail[:1].isupper():
            self.escaped_classes.add(tail)
            return
        for candidate in (canonical, f"{module.name}.{canonical}"):
            if candidate in self.functions:
                self.entry_functions.add(candidate)
                info = self.functions[candidate]
                if info.class_name is not None:
                    self.escaped_classes.add(info.class_name)
                return

    def is_blocking_name(self, canonical: str) -> bool:
        if not canonical:
            return False
        if canonical in _BLOCKING_CANONICALS:
            return True
        tail = canonical.rsplit(".", 1)[-1]
        for entry in self.registry.blocking:
            if canonical == entry or tail == entry or canonical.endswith(
                "." + entry
            ):
                return True
        return False

    def record(
        self, module: ModuleInfo, node: ast.AST, code: str, message: str
    ) -> None:
        self.findings.append(
            Finding(
                path=str(module.path),
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0),
                rule=code,
                message=message,
            )
        )

    # -- driving ---------------------------------------------------------------

    def run(self) -> List[Finding]:
        for qualname, info in self.functions.items():
            self.scans[qualname] = _FunctionScanner(self, info).run()
        self._refine_private_entries()
        may_block = self._may_block_closure()
        acquires = self._transitive_acquires()
        self._check_blocking(may_block)
        self._check_lock_order(acquires)
        self._check_field_discipline()
        self._check_thread_joins()
        return self._filtered()

    def _refine_private_entries(self) -> None:
        """Re-scan private helpers with the meet of their call-site locksets.

        ``RateMeter._prune`` style helpers are only ever called with the
        owner's lock held; analyzing them with an empty entry lockset
        would report their guarded-field accesses as bare. A leading
        underscore bounds the callers to the analyzed set, so the meet
        over observed call sites is a sound entry lockset.
        """
        sites: Dict[str, List[frozenset]] = {}
        for scan in self.scans.values():
            for call in scan.calls:
                if call.resolved is not None:
                    sites.setdefault(call.resolved, []).append(call.locks)
        for qualname, locksets in sites.items():
            info = self.functions.get(qualname)
            if info is None:
                continue
            name = info.node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            meet = frozenset.intersection(*locksets) if locksets else frozenset()
            if meet:
                self.scans[qualname] = _FunctionScanner(
                    self, info, entry_locks=meet
                ).run()

    def _may_block_closure(self) -> Dict[str, bool]:
        may_block = {q: s.direct_blocks for q, s in self.scans.items()}
        changed = True
        while changed:
            changed = False
            for qualname, scan in self.scans.items():
                if may_block[qualname]:
                    continue
                for call in scan.calls:
                    if call.resolved and may_block.get(call.resolved):
                        may_block[qualname] = True
                        changed = True
                        break
        return may_block

    def _transitive_acquires(self) -> Dict[str, Set[str]]:
        acquires = {q: set(s.acquired) for q, s in self.scans.items()}
        changed = True
        while changed:
            changed = False
            for qualname, scan in self.scans.items():
                for call in scan.calls:
                    if call.resolved is None:
                        continue
                    extra = acquires.get(call.resolved, set())
                    if not extra <= acquires[qualname]:
                        acquires[qualname] |= extra
                        changed = True
        return acquires

    # -- REP204 ----------------------------------------------------------------

    def _check_blocking(self, may_block: Dict[str, bool]) -> None:
        for qualname, scan in self.scans.items():
            module = scan.info.module
            for node, desc, locks in scan.blocking:
                if locks:
                    self.record(
                        module, node, "REP204",
                        f"blocking call {desc} while holding "
                        f"{self._fmt_locks(locks)}; release the lock or "
                        "add a timeout",
                    )
            seen: Set[int] = set()
            for call in scan.calls:
                if (
                    call.locks
                    and call.resolved
                    and may_block.get(call.resolved)
                    and id(call.node) not in seen
                ):
                    seen.add(id(call.node))
                    self.record(
                        module, call.node, "REP204",
                        f"call to {call.resolved} may block while holding "
                        f"{self._fmt_locks(call.locks)}; move the slow work "
                        "outside the critical section",
                    )

    @staticmethod
    def _fmt_locks(locks: frozenset) -> str:
        return ", ".join(sorted(locks))

    # -- REP203 ----------------------------------------------------------------

    def _check_lock_order(self, acquires: Dict[str, Set[str]]) -> None:
        graph: Dict[str, Set[str]] = {}
        witnesses: List[Tuple[str, str, ast.AST, ModuleInfo]] = []

        def add_edge(a: str, b: str, node: ast.AST, module: ModuleInfo) -> None:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
            witnesses.append((a, b, node, module))

        for scan in self.scans.values():
            module = scan.info.module
            for held, acq, node in scan.edges:
                add_edge(held, acq, node, module)
            for call in scan.calls:
                if call.resolved is None or not call.locks:
                    continue
                for target in acquires.get(call.resolved, ()):
                    for held in call.locks:
                        add_edge(held, target, call.node, module)

        def reaches(start: str, goal: str) -> bool:
            stack, seen = [start], set()
            while stack:
                lock = stack.pop()
                if lock == goal:
                    return True
                if lock in seen:
                    continue
                seen.add(lock)
                stack.extend(graph.get(lock, ()))
            return False

        reported: Set[Tuple[str, int]] = set()
        for a, b, node, module in witnesses:
            if a == b or reaches(b, a):
                key = (str(module.path), getattr(node, "lineno", 1))
                if key in reported:
                    continue
                reported.add(key)
                if a == b:
                    detail = f"{a} re-acquired while already held"
                else:
                    detail = (
                        f"{b} acquired while holding {a}, but the reverse "
                        "order exists elsewhere"
                    )
                self.record(
                    module, node, "REP203",
                    f"lock-order cycle: {detail}; fix a global acquisition "
                    "order",
                )

    # -- REP201 / REP202 / REP205 ---------------------------------------------

    def _check_field_discipline(self) -> None:
        inferred: Dict[str, List[Tuple[_Access, _Scan]]] = {}
        for scan in self.scans.values():
            module = scan.info.module
            guarded: Dict[str, List[_Access]] = {}
            for access in scan.accesses:
                guard = self.registry.guards.get(access.field)
                if guard is None:
                    inferred.setdefault(access.field, []).append(
                        (access, scan)
                    )
                    continue
                guarded.setdefault(access.field, []).append(access)
            for field, events in guarded.items():
                self._check_annotated_field(field, events, module)

        self._check_inferred_fields(inferred)

    def _check_annotated_field(
        self, field: str, events: List[_Access], module: ModuleInfo
    ) -> None:
        guard = self.registry.guards[field]
        owner, _, attr = field.rpartition(".")
        if attr not in self.class_level_fields.get(owner, ()):
            # Instance state: the constructor builds it before the object
            # is shared, so __init__ accesses are exempt. Class-level
            # declarations are shared across instances and stay checked.
            events = [a for a in events if not a.in_init]
        events = sorted(
            events,
            key=lambda a: (
                getattr(a.node, "lineno", 0),
                getattr(a.node, "col_offset", 0),
            ),
        )
        check_then_act: Set[int] = set()
        for i, access in enumerate(events):
            if access.kind != "read" or guard in access.locks:
                continue
            for later in events[i + 1:]:
                if guard not in later.locks:
                    continue
                if later.kind == "read":
                    break  # a guarded re-check: the classic safe pattern
                check_then_act.add(id(access.node))
                self.record(
                    module, access.node, "REP205",
                    f"check-then-act on {field}: read without {guard} here, "
                    "then written under the lock — re-check (or use "
                    "setdefault) inside the critical section",
                )
                break
        flagged_writes: Set[int] = set()
        for access in events:
            if guard in access.locks:
                continue
            if access.kind == "write":
                flagged_writes.add(id(access.node))
                self.record(
                    module, access.node, "REP201",
                    f"write to {field} without holding {guard} "
                    f"(declared guarded_by)",
                )
        for access in events:
            if (
                access.kind == "read"
                and guard not in access.locks
                and id(access.node) not in check_then_act
                and id(access.node) not in flagged_writes
            ):
                self.record(
                    module, access.node, "REP202",
                    f"read of {field} without holding {guard} "
                    f"(declared guarded_by)",
                )

    def _check_inferred_fields(
        self, inferred: Dict[str, List[Tuple[_Access, _Scan]]]
    ) -> None:
        """REP202 by inference: mostly-guarded fields of escaping classes."""
        for field, pairs in inferred.items():
            owner = field.split(".")[0]
            if owner not in self.escaped_classes:
                continue
            events = [
                (access, scan)
                for access, scan in pairs
                if not access.in_init
            ]
            lock_counts: Dict[str, int] = {}
            for access, _ in events:
                for lock in access.locks:
                    lock_counts[lock] = lock_counts.get(lock, 0) + 1
            if not lock_counts:
                continue
            lock = max(sorted(lock_counts), key=lambda k: lock_counts[k])
            if lock_counts[lock] < 2:
                continue
            for access, scan in events:
                if lock not in access.locks:
                    self.record(
                        scan.info.module, access.node, "REP202",
                        f"{field} is accessed under {lock} on "
                        f"{lock_counts[lock]} sites but bare here; guard it "
                        "or annotate the intended discipline with @guards",
                    )

    # -- REP206 ----------------------------------------------------------------

    def _check_thread_joins(self) -> None:
        class_threads: Dict[
            Tuple[str, str], Dict[str, object]
        ] = {}  # (module, class) -> state
        for qualname, info in self.functions.items():
            tracker = _ThreadTracker(info.module)
            tracker.visit_body(info.node)
            for name, state in tracker.locals.items():
                if (
                    state["started"] is not None
                    and not state["joined"]
                    and not state["escaped"]
                ):
                    self.record(
                        info.module, state["started"], "REP206",
                        f"thread {name!r} started but never joined; join it "
                        "on the shutdown path or register a stop hook",
                    )
            if info.class_name is not None:
                key = (info.module.name, info.class_name)
                agg = class_threads.setdefault(
                    key,
                    {"created": {}, "started": {}, "joined": set(),
                     "module": info.module},
                )
                agg["created"].update(tracker.attrs_created)
                agg["started"].update(tracker.attrs_started)
                agg["joined"].update(tracker.attrs_joined)
        for (_, class_name), agg in class_threads.items():
            for attr, node in agg["started"].items():
                if attr in agg["created"] and attr not in agg["joined"]:
                    self.record(
                        agg["module"], node, "REP206",
                        f"thread self.{attr} of {class_name} started but "
                        "never joined; join it on the shutdown path",
                    )

    # -- output ----------------------------------------------------------------

    def _filtered(self) -> List[Finding]:
        by_path = {str(m.path): _noqa_lines(m.source) for m in self.modules}
        kept = []
        for finding in self.findings:
            codes = by_path.get(finding.path, {}).get(finding.line)
            if codes is not None and (not codes or finding.rule in codes):
                continue
            kept.append(finding)
        return sorted(set(kept))


class _ThreadTracker:
    """Track Thread handles (locals and ``self.*``) in one function."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.locals: Dict[str, Dict[str, object]] = {}
        self.attrs_created: Dict[str, ast.AST] = {}
        self.attrs_started: Dict[str, ast.AST] = {}
        self.attrs_joined: Set[str] = set()

    def visit_body(self, func: ast.AST) -> None:
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                self._handle_assign(node)
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute):
                self._handle_attribute(node)
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                state = self.locals.get(node.id)
                if state is not None and not state.get("_shielded", set()) & {
                    id(node)
                }:
                    state["escaped"] = True

    def _handle_assign(self, node: ast.Assign) -> None:
        if not (
            isinstance(node.value, ast.Call)
            and self.module.imports.canonical(node.value.func) in _THREAD_CTORS
        ):
            return
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.locals[target.id] = {
                    "created": node, "started": None, "joined": False,
                    "escaped": False, "_shielded": set(),
                }
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self.attrs_created[target.attr] = node

    def _handle_attribute(self, node: ast.Attribute) -> None:
        base = node.value
        if isinstance(base, ast.Name):
            state = self.locals.get(base.id)
            if state is not None and node.attr in _THREAD_METHODS:
                state["_shielded"].add(id(base))
                if node.attr == "start" and state["started"] is None:
                    state["started"] = node
                elif node.attr == "join":
                    state["joined"] = True
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            if node.attr == "start":
                self.attrs_started.setdefault(base.attr, node)
            elif node.attr == "join":
                self.attrs_joined.add(base.attr)


class _FunctionScanner:
    """Walk one function body tracking the lockset at each statement."""

    def __init__(
        self,
        analyzer: ThreadAnalyzer,
        info: FunctionInfo,
        entry_locks: frozenset = frozenset(),
    ) -> None:
        self.analyzer = analyzer
        self.info = info
        self.module = info.module
        self.class_name = info.class_name
        self.entry_locks = entry_locks
        self.scan = _Scan(info)
        self.in_init = info.node.name in ("__init__", "__new__")
        self.globals_declared: Set[str] = set()
        self.local_names: Set[str] = set()
        self._prescan()

    def _prescan(self) -> None:
        node = self.info.node
        args = node.args
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            self.local_names.add(a.arg)
        if args.vararg:
            self.local_names.add(args.vararg.arg)
        if args.kwarg:
            self.local_names.add(args.kwarg.arg)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                self.globals_declared.update(sub.names)
            elif isinstance(sub, ast.Name) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                self.local_names.add(sub.id)
        self.local_names -= self.globals_declared

    def run(self) -> _Scan:
        self.exec_block(self.info.node.body, set(self.entry_locks))
        return self.scan

    # -- lock identity ---------------------------------------------------------

    def lock_id(self, expr: ast.expr) -> Optional[str]:
        analyzer = self.analyzer
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            base, attr = expr.value.id, expr.attr
            owner = None
            if base == "self" and self.class_name:
                owner = self.class_name
            elif base[:1].isupper():
                owner = base
            if owner is not None and (
                attr in analyzer.class_locks.get(owner, ())
                or "lock" in attr.lower()
            ):
                return f"{owner}.{attr}"
            return None
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in analyzer.module_locks.get(self.module.name, ()) or (
                "lock" in name.lower() and name not in self.local_names
            ):
                return f"{self.module.name}.{name}"
        return None

    def _acquire(self, lock: str, held: Set[str], node: ast.AST) -> None:
        for existing in sorted(held):
            self.scan.edges.append((existing, lock, node))
        if lock in held:  # re-acquisition of a non-reentrant lock
            self.scan.edges.append((lock, lock, node))
        self.scan.acquired.add(lock)
        held.add(lock)

    # -- statements ------------------------------------------------------------

    def exec_block(self, stmts: Sequence[ast.stmt], held: Set[str]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt, held)

    def exec_stmt(self, stmt: ast.stmt, held: Set[str]) -> None:
        if isinstance(stmt, ast.With):
            inner = set(held)
            for item in stmt.items:
                lock = self.lock_id(item.context_expr)
                if lock is not None:
                    self._acquire(lock, inner, stmt)
                else:
                    self.scan_expr(item.context_expr, held)
            self.exec_block(stmt.body, inner)
        elif isinstance(stmt, ast.AsyncWith):
            for item in stmt.items:
                self.scan_expr(item.context_expr, held)
            self.exec_block(stmt.body, set(held))
        elif isinstance(stmt, ast.If):
            self.scan_expr(stmt.test, held)
            self.exec_block(stmt.body, set(held))
            self.exec_block(stmt.orelse, set(held))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.scan_expr(stmt.iter, held)
            self.exec_block(stmt.body, set(held))
            self.exec_block(stmt.orelse, set(held))
        elif isinstance(stmt, ast.While):
            self.scan_expr(stmt.test, held)
            self.exec_block(stmt.body, set(held))
            self.exec_block(stmt.orelse, set(held))
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body, set(held))
            for handler in stmt.handlers:
                self.exec_block(handler.body, set(held))
            self.exec_block(stmt.orelse, set(held))
            self.exec_block(stmt.finalbody, held)
        elif isinstance(stmt, ast.Expr):
            if not self._acquire_release_stmt(stmt.value, held):
                self.scan_expr(stmt.value, held)
        elif isinstance(stmt, ast.Assign):
            self.scan_expr(stmt.value, held)
            for target in stmt.targets:
                self.record_store(target, held)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.scan_expr(stmt.value, held)
                self.record_store(stmt.target, held)
        elif isinstance(stmt, ast.AugAssign):
            self.scan_expr(stmt.value, held)
            # an augmented store reads then writes the target
            self.record_load(stmt.target, held)
            self.record_store(stmt.target, held)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.scan_expr(stmt.value, held)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.scan_expr(stmt.exc, held)
            if stmt.cause is not None:
                self.scan_expr(stmt.cause, held)
        elif isinstance(stmt, ast.Assert):
            self.scan_expr(stmt.test, held)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self.record_store(target, held)
        # Import / Pass / Break / Continue / Global / Nonlocal and nested
        # FunctionDef/ClassDef scopes carry no lockset facts.

    def _acquire_release_stmt(
        self, expr: ast.expr, held: Set[str]
    ) -> bool:
        """Handle statement-level ``X.acquire()`` / ``X.release()``."""
        if not (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("acquire", "release")
        ):
            return False
        lock = self.lock_id(expr.func.value)
        if lock is None:
            return False
        if expr.func.attr == "acquire":
            self._acquire(lock, held, expr)
        else:
            held.discard(lock)
        return True

    # -- field accesses --------------------------------------------------------

    def _field_of_attribute(self, node: ast.Attribute) -> Optional[str]:
        if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
            return None
        if self.class_name is None or "lock" in node.attr.lower():
            return None
        return f"{self.class_name}.{node.attr}"

    def _field_of_name(self, node: ast.Name) -> Optional[str]:
        if node.id in self.local_names and node.id not in self.globals_declared:
            return None
        field = f"{self.module.name}.{node.id}"
        if field in self.analyzer.registry.guards:
            return field
        return None

    def _record_access(
        self, field: str, kind: str, held: Set[str], node: ast.AST
    ) -> None:
        self.scan.accesses.append(
            _Access(field, kind, frozenset(held), node, self.in_init)
        )

    def record_store(self, target: ast.expr, held: Set[str]) -> None:
        if isinstance(target, ast.Attribute):
            field = self._field_of_attribute(target)
            if field is not None:
                self._record_access(field, "write", held, target)
            else:
                self.scan_expr(target.value, held)
        elif isinstance(target, ast.Name):
            field = self._field_of_name(target)
            if field is not None and target.id in self.globals_declared:
                self._record_access(field, "write", held, target)
        elif isinstance(target, ast.Subscript):
            # Mutation through a container: a write to the holding field.
            base = target.value
            self.scan_expr(target.slice, held)
            if isinstance(base, ast.Attribute):
                field = self._field_of_attribute(base)
                if field is not None:
                    self._record_access(field, "write", held, base)
                    return
            if isinstance(base, ast.Name):
                field = self._field_of_name(base)
                if field is not None:
                    self._record_access(field, "write", held, base)
                    return
            self.scan_expr(base, held)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.record_store(element, held)
        elif isinstance(target, ast.Starred):
            self.record_store(target.value, held)

    def record_load(self, target: ast.expr, held: Set[str]) -> None:
        if isinstance(target, ast.Attribute):
            field = self._field_of_attribute(target)
            if field is not None:
                self._record_access(field, "read", held, target)
        elif isinstance(target, ast.Name):
            field = self._field_of_name(target)
            if field is not None:
                self._record_access(field, "read", held, target)
        elif isinstance(target, ast.Subscript):
            self.record_load(target.value, held)

    # -- expressions -----------------------------------------------------------

    def scan_expr(self, node: ast.expr, held: Set[str]) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self.handle_call(child, held)
            elif isinstance(child, ast.Attribute) and isinstance(
                child.ctx, ast.Load
            ):
                field = self._field_of_attribute(child)
                if field is not None:
                    self._record_access(field, "read", held, child)
            elif isinstance(child, ast.Name) and isinstance(
                child.ctx, ast.Load
            ):
                field = self._field_of_name(child)
                if field is not None:
                    self._record_access(field, "read", held, child)

    def handle_call(self, call: ast.Call, held: Set[str]) -> None:
        analyzer = self.analyzer
        canonical = self.module.imports.canonical(call.func)
        blocked = self._blocking_desc(call, canonical)
        if blocked is not None:
            self.scan.direct_blocks = True
            self.scan.blocking.append((call, blocked, frozenset(held)))
        # Thread-escape seeds.
        if canonical in _THREAD_CTORS:
            for kw in call.keywords:
                if kw.arg == "target":
                    analyzer.resolve_escape_target(
                        kw.value, self.module, self.class_name
                    )
        elif isinstance(call.func, ast.Attribute):
            if call.func.attr == "submit" and call.args:
                analyzer.resolve_escape_target(
                    call.args[0], self.module, self.class_name
                )
            elif call.func.attr == "run_in_executor" and len(call.args) >= 2:
                analyzer.resolve_escape_target(
                    call.args[1], self.module, self.class_name
                )
        resolved = analyzer.resolve_call(call, self.module, self.class_name)
        self.scan.calls.append(_Call(resolved, frozenset(held), call))

    def _blocking_desc(
        self, call: ast.Call, canonical: str
    ) -> Optional[str]:
        if self.analyzer.is_blocking_name(canonical):
            if canonical in _BLOCKING_CANONICALS and self._has_timeout(call):
                return None
            return f"{canonical}()"
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            if attr in _ALWAYS_BLOCKING_ATTRS:
                return f".{attr}()"
            if attr in _TIMEOUT_BLOCKING_ATTRS and not self._has_timeout(
                call
            ) and not call.args and not call.keywords:
                return f".{attr}() without a timeout"
        return None

    @staticmethod
    def _has_timeout(call: ast.Call) -> bool:
        return any(kw.arg == "timeout" for kw in call.keywords)


# -- public entry points -------------------------------------------------------


def analyze_threads(paths: Sequence[Union[str, Path]]) -> List[Finding]:
    """Concurrency-lint every Python file under ``paths`` (REP201..206)."""
    modules = []
    for file in iter_python_files(paths):
        module = _load_module(file)
        if module is not None:
            modules.append(module)
    extra = []
    for module in modules:
        raw = _static_signatures(module.tree)
        if raw is not None:
            extra.append((module.name, raw))
    registry = build_registry(extra=extra)
    return ThreadAnalyzer(modules, registry).run()


def analyze_thread_source(
    source: str, path: str = "<string>", module_name: Optional[str] = None
) -> List[Finding]:
    """Concurrency-lint one source string (test/tooling convenience)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return []
    module = ModuleInfo(Path(path), source, tree)
    if module_name is not None:
        module.name = module_name
    raw = _static_signatures(tree)
    extra = [(module.name, raw)] if raw is not None else []
    registry = build_registry(extra=extra)
    return ThreadAnalyzer([module], registry).run()

"""Registry of the concurrency facts seeding the ``--threads`` pass.

Modules annotate themselves with a module-level ``REPRO_SIGNATURES``
dict (statically readable — the concurrency pass also picks these dicts
out of any file it analyzes, so fixtures and new modules can declare
their own). Four kinds of entry feed :mod:`repro.analysis.concurrency`:

``"@guards": ["ClassName.attr guarded_by _lock", "_global guarded_by _l"]``
    declares which lock protects a field. A capitalized head names an
    instance attribute guarded by an attribute lock of the same class;
    a lowercase head names a module global guarded by a module-level
    lock.
``"@threads": ["ClassName", "ClassName.method", "funcname"]``
    declares thread entry points: the named class escapes to another
    thread, or the named callable runs on one.
``"@blocking": ["funcname"]``
    declares callables that may block indefinitely (so calling them
    while holding a lock is REP204).
``"ClassName.attr": "OtherClass"``
    declares the class of an instance attribute, so a call
    ``self.attr.method()`` inside ``ClassName`` resolves to
    ``OtherClass.method`` (lock acquisitions and blocking calls are
    followed through it).

Malformed entries raise ``ValueError`` at registry build time.
"""

from __future__ import annotations

import importlib
from typing import Dict, Mapping, Optional, Sequence, Tuple

__all__ = ["SignatureRegistry", "build_registry"]

#: Modules whose ``REPRO_SIGNATURES`` seed the registry. Kept explicit so
#: the registry is importable without scanning the whole package.
ANNOTATED_MODULES = (
    "repro.core.power",
    "repro.tsv.extractor",
    "repro.runtime.faults",
    "repro.serve.codecs",
    "repro.serve.metrics",
    "repro.serve.session",
    "repro.serve.engine",
    "repro.serve.server",
    "repro.grid.queue",
    "repro.grid.worker",
)


def _is_class_name(token: str) -> bool:
    return token.isidentifier() and token[:1].isupper()


class SignatureRegistry:
    """All concurrency facts, keyed the way the concurrency pass asks."""

    def __init__(self) -> None:
        self.attributes: Dict[str, str] = {}  # "Class.attr" -> class name
        self.guards: Dict[str, str] = {}  # field id -> lock id
        self.thread_entries: set = set()  # "Class", "Class.m", "func"
        self.blocking: set = set()  # callables that may block

    # -- population -----------------------------------------------------------

    def add_module_signatures(self, module_name: str, raw: Mapping) -> None:
        """Merge one module's ``REPRO_SIGNATURES`` dict."""
        for key, spec in raw.items():
            if not isinstance(key, str):
                continue
            if key.startswith("@"):
                self._add_concurrency_spec(module_name, key, spec)
                continue
            head, _, attr = key.partition(".")
            if not (
                _is_class_name(head)
                and attr.isidentifier()
                and isinstance(spec, str)
                and _is_class_name(spec.strip())
            ):
                raise ValueError(
                    f"malformed attribute entry {key!r}: {spec!r}; expected "
                    "'ClassName.attr': 'OtherClass'"
                )
            self.attributes[key] = spec.strip()

    def _add_concurrency_spec(
        self, module_name: str, key: str, spec: Sequence
    ) -> None:
        """Fold one ``@guards`` / ``@threads`` / ``@blocking`` entry in."""
        if not isinstance(spec, (list, tuple)):
            raise ValueError(f"{key} expects a list of strings")
        if key == "@guards":
            for entry in spec:
                self._add_guard(module_name, entry)
        elif key == "@threads":
            self.thread_entries.update(str(entry) for entry in spec)
        elif key == "@blocking":
            self.blocking.update(str(entry) for entry in spec)
        else:
            raise ValueError(f"unknown registry directive {key!r}")

    def _add_guard(self, module_name: str, entry: str) -> None:
        parts = str(entry).split()
        if len(parts) != 3 or parts[1] != "guarded_by":
            raise ValueError(
                f"malformed @guards entry {entry!r}: expected "
                "'<field> guarded_by <lock>'"
            )
        target, _, lock = parts
        head = target.split(".")[0]
        if head[:1].isupper():
            # "ClassName.attr guarded_by _lock": an attribute lock of the
            # same class unless the lock is already dotted.
            field_id = target
            lock_id = lock if "." in lock else f"{head}.{lock}"
        else:
            # "_global guarded_by _lock": module-level names.
            field_id = f"{module_name}.{target}" if module_name else target
            lock_id = f"{module_name}.{lock}" if module_name else lock
        self.guards[field_id] = lock_id

    # -- lookup ---------------------------------------------------------------

    def member_attribute(self, obj_type: str, member: str) -> Optional[str]:
        """Class of ``obj_type.member``, when an entry declares it."""
        return self.attributes.get(f"{obj_type}.{member}")


def build_registry(
    extra: Sequence[Tuple[str, Mapping]] = (),
) -> SignatureRegistry:
    """Assemble the registry from the annotated modules.

    ``extra`` supplies ``(module_name, signatures_dict)`` pairs harvested
    statically from the files under analysis, so fixture files and modules
    outside :data:`ANNOTATED_MODULES` can contribute facts too.
    """
    registry = SignatureRegistry()
    for module_name in ANNOTATED_MODULES:
        try:
            module = importlib.import_module(module_name)
        except Exception:  # pragma: no cover - partial installs
            continue
        raw = getattr(module, "REPRO_SIGNATURES", None)
        if isinstance(raw, dict):
            registry.add_module_signatures(module_name, raw)
    for module_name, raw in extra:
        if isinstance(raw, dict):
            registry.add_module_signatures(module_name, raw)
    return registry

#!/usr/bin/env python
"""Lint: every mutating ``StatefulDriver`` procedure journals its change.

The crash-safety contract is journal-before-ack: a daemon acknowledges
a mutation only after a record for it reached the state directory, and
every journal write funnels through ``StatefulDriver._journal_write``
so the seeded ``MID_JOURNAL`` kill point can tear it.  Both halves
decay silently — a new driver method that updates ``self._domains``
but never journals simply loses that state on the next restart, and a
direct ``self._state.put(...)`` bypasses crash injection — so this
script fails CI when:

* a ``StatefulDriver`` method that (transitively, through ``self.``
  helper calls) mutates persisted bookkeeping cannot (transitively)
  reach a ``self._journal*`` call, a ``flush_state``, or a journal
  checkpoint — unless listed in ``EXEMPT`` with a reason;
* any method other than the ``_journal_write`` funnel calls a journal
  *write* primitive (``put`` / ``delete`` / ``append_torn``) on
  ``self._state``, which would dodge the seeded kill point;
* ``EXEMPT`` names a method the class does not define (stale entry).

Usage::

    python tools/lint_state_writes.py
"""

import ast
import inspect
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import repro.drivers.stateful as stateful_module  # noqa: E402
from repro.drivers.stateful import StatefulDriver  # noqa: E402

#: driver attributes that recovery rebuilds from the journal — writing
#: any of them without journaling loses the write on restart
PERSISTED = {
    "_domains",
    "_uuid_index",
    "_ids",
    "_next_id",
    "_networks",
    "_active_networks",
    "_dhcp_leases",
    "_pools",
    "_active_pools",
    "_pool_volumes",
}

#: method names that mutate the container/record they are called on
MUTATOR_CALLS = {
    "add",
    "append",
    "clear",
    "create",
    "delete",
    "discard",
    "extend",
    "insert",
    "merge",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
}

#: journal write primitives that must stay inside the funnel
JOURNAL_WRITE_PRIMITIVES = {"put", "delete", "append_torn"}
JOURNAL_FUNNEL = "_journal_write"

#: methods allowed to mutate without journaling, with the reason why
EXEMPT = {
    # runtime-only transitions: whether a guest is running/paused is the
    # hypervisor's truth; recovery re-reads it from the backend
    "domain_suspend": "runtime-only state, backend is the truth",
    "domain_resume": "runtime-only state, backend is the truth",
    "domain_reboot": "runtime-only state, backend is the truth",
    # read-only description of the source domain for a migration
    "migrate_begin": "builds a description, mutates nothing persisted",
    # pure orchestration: the per-phase hooks it drives journal themselves
    "migrate_p2p": "delegates to migrate_* hooks, which journal",
    # boot-time convenience wrapper over domain_create, which journals
    "autostart_all": "delegates to domain_create, which journals",
}


def _attribute_chain(node):
    """``self._domains.get`` -> ("self", "_domains", "get"); None if the
    chain is not rooted in a plain name (e.g. rooted in a call)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _subscript_root(node):
    """Peel subscripts: ``self._pool_volumes[pool][vol]`` -> the chain."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _is_self_record_call(node):
    """``self._record(...)`` / ``self._get_pool(...)`` — returns a live
    record object; assigning through it mutates persisted bookkeeping."""
    if not isinstance(node, ast.Call):
        return False
    chain = _attribute_chain(node.func)
    return chain is not None and chain[0] == "self" and chain[1] in {
        "_record",
        "_get_network",
        "_get_pool",
    }


class _MethodScan(ast.NodeVisitor):
    """One pass over a method body: aliases, mutations, journal calls."""

    def __init__(self, name):
        self.name = name
        self.self_calls = set()
        self.mutates = False
        self.journals = False
        self.state_writes = []
        #: locals that alias persisted state (records, container views)
        self.aliases = set()

    # -- alias tracking ------------------------------------------------

    def _value_is_persisted(self, node):
        if _is_self_record_call(node):
            return True
        if isinstance(node, ast.Call):
            node = node.func
        chain = _attribute_chain(_subscript_root(node))
        if chain is None:
            return False
        if chain[0] == "self" and len(chain) > 1 and chain[1] in PERSISTED:
            return True
        return chain[0] in self.aliases

    def visit_Assign(self, node):
        for target in node.targets:
            if isinstance(target, ast.Name) and self._value_is_persisted(node.value):
                self.aliases.add(target.id)
            else:
                self._check_write_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._check_write_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node):
        for target in node.targets:
            self._check_write_target(target)
        self.generic_visit(node)

    # -- mutation detection --------------------------------------------

    def _roots_in_persisted(self, node):
        node = _subscript_root(node)
        inner = node
        while isinstance(inner, ast.Attribute):
            inner = inner.value
        if _is_self_record_call(inner):
            return True
        chain = _attribute_chain(node)
        if chain is None:
            return False
        if chain[0] == "self" and len(chain) > 1 and chain[1] in PERSISTED:
            return True
        return chain[0] in self.aliases

    def _check_write_target(self, target):
        # a bare-name rebind is a local; attribute/subscript writes count
        if isinstance(target, ast.Name):
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_write_target(element)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            base = target.value if isinstance(target, ast.Attribute) else target
            if self._roots_in_persisted(base):
                self.mutates = True

    def visit_Call(self, node):
        chain = _attribute_chain(node.func)
        if chain is not None and chain[0] == "self" and len(chain) == 2:
            method = chain[1]
            self.self_calls.add(method)
            if method.startswith("_journal") or method == "flush_state":
                self.journals = True
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            receiver = node.func.value
            receiver_chain = _attribute_chain(_subscript_root(receiver))
            on_state = receiver_chain is not None and (
                (receiver_chain[0] == "self" and receiver_chain[-1] == "_state")
                or receiver_chain[0] in {"journal"}
            )
            if on_state and attr in JOURNAL_WRITE_PRIMITIVES:
                self.state_writes.append((self.name, node.lineno, attr))
            if on_state and attr == "checkpoint":
                self.journals = True
            if attr in MUTATOR_CALLS and not on_state:
                if self._roots_in_persisted(receiver):
                    self.mutates = True
        self.generic_visit(node)

    def visit_FunctionDef(self, node):  # nested defs share the namespace
        self.generic_visit(node)


def scan_class(tree):
    """Per-method scan of the ``StatefulDriver`` class body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "StatefulDriver":
            class_node = node
            break
    else:
        raise SystemExit("StatefulDriver class not found in stateful.py")
    scans = {}
    for item in class_node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        scan = _MethodScan(item.name)
        # record-shaped parameters alias persisted state too
        for arg in item.args.args:
            if arg.arg == "record":
                scan.aliases.add("record")
        scan.visit(item)
        scans[item.name] = scan
    return scans


def close_over_calls(scans, attribute):
    """Transitive closure of a boolean per-method flag along self-calls."""
    closed = {name: getattr(scan, attribute) for name, scan in scans.items()}
    changed = True
    while changed:
        changed = False
        for name, scan in scans.items():
            if closed[name]:
                continue
            if any(closed.get(callee, False) for callee in scan.self_calls):
                closed[name] = True
                changed = True
    return closed


def lint(source=None):
    if source is None:
        source = inspect.getsource(stateful_module)
    scans = scan_class(ast.parse(source))
    mutates = close_over_calls(scans, "mutates")
    journals = close_over_calls(scans, "journals")

    problems = []
    for name in sorted(EXEMPT):
        if name not in scans:
            problems.append(f"EXEMPT names unknown method {name!r}")
        if not callable(getattr(StatefulDriver, name, None)):
            problems.append(f"EXEMPT entry {name!r} is not a StatefulDriver method")
    for name, scan in sorted(scans.items()):
        if name in EXEMPT:
            continue
        # the journal-before-ack contract binds the public procedure
        # surface; private helpers are building blocks whose callers
        # journal once the full mutation is assembled
        if not name.startswith("_") and mutates[name] and not journals[name]:
            problems.append(
                f"{name} mutates persisted driver state but never reaches "
                f"a self._journal* call (state lost on daemon restart)"
            )
        if name != JOURNAL_FUNNEL:
            for method, lineno, attr in scan.state_writes:
                problems.append(
                    f"{method}:{lineno} calls journal.{attr}() outside the "
                    f"{JOURNAL_FUNNEL} funnel (bypasses MID_JOURNAL crash injection)"
                )
    return problems


def main(argv=None):
    failures = 0
    for why in lint():
        print(f"stateful driver: {why}", file=sys.stderr)
        failures += 1
    if failures:
        print(f"lint_state_writes: {failures} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

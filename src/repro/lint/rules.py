"""The project-specific rule set.

Every rule encodes an invariant the runtime layers (fault injection,
vectorised kernels, observability, the differential fuzzer) *assume* —
here they are machine-checked before a bug can ship:

``rng-discipline``
    No module-level RNG state anywhere in ``repro``: drawing from
    ``np.random.<fn>`` or stdlib ``random.<fn>`` silently couples runs,
    breaking the fuzzer's RNG-neutrality cross-checks and every seeded
    bit-parity claim.  RNG must flow in as a ``Generator`` or seed.
``dtype-contract``
    Array constructors must pass ``dtype=`` explicitly: a silent upcast
    (or platform-dependent default int) breaks the int64 packed-gid
    contract of :class:`repro.perf.PathIndex` and with it the exactness
    of the Theorem 1 / Corollary 2 cycle counts.
``schedule-hygiene``
    A :class:`repro.core.Schedule` constructed outside its defining
    module must either be returned directly to the caller (the producer
    pattern — callers and the suite-wide conftest net validate) or be
    validated in the same function.  The static twin of the PR-4 autouse
    validation net.
``obs-threading``
    Public scheduler entry points (``schedule_*`` / ``simulate_*`` /
    ``run_*`` in the scheduler modules) must accept **and** forward an
    ``obs=`` parameter, so observability can never silently skip a
    stack.
``nondeterminism-ban``
    No wall-clock or OS-entropy reads in kernel/scheduler modules:
    ``time.time``, ``datetime.now``, ``os.urandom`` and friends make
    schedules unreproducible.  (``time.perf_counter`` spans live in
    :mod:`repro.obs`, outside the banned scope, by design.)
``kernel-oracle-pairing``
    Every ``_reference_*`` oracle must sit beside its vectorised public
    twin, and every kernel that *claims* bit-parity with its oracle (by
    naming ``_reference_<itself>`` in its docstring) must still have
    that oracle defined — renames and deletions cannot silently orphan
    either half of a property-tested pair.
``mutable-default``
    No mutable default arguments (list/dict/set literals or
    constructors) — shared state across calls is a nondeterminism bug
    by another name.
``bare-except``
    No bare ``except:`` — it swallows ``KeyboardInterrupt`` and masks
    conformance failures; catch the structured routing errors instead.

Rules self-register in :data:`RULES` at import time; ``repro lint
--list-rules`` prints this table.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .context import ModuleContext
from .findings import Finding

__all__ = ["Rule", "RULES", "register_rule", "all_rule_ids"]


class Rule:
    """Base class: one checkable invariant.

    Subclasses set ``id`` (kebab-case, the suppression token) and
    ``summary``, and implement :meth:`check`; :meth:`applies` scopes the
    rule by dotted module name (``None`` = a script outside the
    package).
    """

    id: str = ""
    summary: str = ""

    def applies(self, module: str | None) -> bool:
        return True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


RULES: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (last one wins,
    so a project can shadow a built-in by re-registering its id)."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"{cls.__name__} has no rule id")
    RULES[rule.id] = rule
    return cls


def all_rule_ids() -> list[str]:
    """The registered rule ids, sorted (the default rule selection)."""
    return sorted(RULES)


def _iter_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


# -- rng-discipline ----------------------------------------------------------

#: numpy.random attributes that construct *seedable, instance-based* RNG
#: machinery rather than drawing from the hidden global BitGenerator
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "RandomState",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: stdlib ``random`` attributes that are instance constructors, not draws
_STDLIB_RANDOM_ALLOWED = {"Random"}


@register_rule
class RngDisciplineRule(Rule):
    id = "rng-discipline"
    summary = (
        "no module-level RNG draws (np.random.<fn> / random.<fn>): "
        "RNG must flow in as a Generator or seed parameter"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in _iter_calls(ctx.tree):
            name = ctx.resolve_call(call)
            if name is None:
                continue
            if name.startswith("numpy.random."):
                attr = name.split(".", 2)[2]
                if "." not in attr and attr not in _NP_RANDOM_ALLOWED:
                    yield self.finding(
                        ctx,
                        call,
                        f"global-state RNG draw {name}(); pass a seeded "
                        "np.random.Generator (np.random.default_rng(seed)) in "
                        "instead",
                    )
            elif name.startswith("random."):
                attr = name.split(".", 1)[1]
                if "." not in attr and attr not in _STDLIB_RANDOM_ALLOWED:
                    yield self.finding(
                        ctx,
                        call,
                        f"global-state RNG draw {name}(); use a seeded "
                        "random.Random(seed) instance or thread a numpy "
                        "Generator through",
                    )


# -- dtype-contract ----------------------------------------------------------

#: constructor -> index of its positional ``dtype`` argument
_DTYPE_CALLS = {
    "numpy.asarray": 1,
    "numpy.empty": 1,
    "numpy.zeros": 1,
    "numpy.ones": 1,
    "numpy.full": 2,
}


@register_rule
class DtypeContractRule(Rule):
    id = "dtype-contract"
    summary = (
        "np.asarray/np.empty/np.zeros/np.ones/np.full must pass an "
        "explicit dtype= (the int64 packed-gid contract)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in _iter_calls(ctx.tree):
            name = ctx.resolve_call(call)
            if name not in _DTYPE_CALLS:
                continue
            if any(kw.arg == "dtype" for kw in call.keywords):
                continue
            if len(call.args) > _DTYPE_CALLS[name]:
                continue  # dtype passed positionally
            if any(kw.arg is None for kw in call.keywords):
                continue  # **kwargs splat may carry dtype; not decidable
            yield self.finding(
                ctx,
                call,
                f"{name}() without an explicit dtype=; platform-dependent "
                "defaults break the int64 routing-kernel contract",
            )


# -- schedule-hygiene --------------------------------------------------------

_SCHEDULE_DEFINING_MODULE = "repro.core.schedule"
_SCHEDULE_NAMES = {
    "repro.core.schedule.Schedule",
    "repro.core.Schedule",
    "repro.Schedule",
}


@register_rule
class ScheduleHygieneRule(Rule):
    id = "schedule-hygiene"
    summary = (
        "a Schedule constructed outside repro.core.schedule must be "
        "returned directly or .validate()d in the same function"
    )

    def applies(self, module: str | None) -> bool:
        return module != _SCHEDULE_DEFINING_MODULE

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for scope in ctx.scopes():
            constructions = []
            returned_directly: set[ast.Call] = set()
            has_validate = False
            for node in _walk_scope(scope):
                if isinstance(node, ast.Call):
                    name = ctx.resolve_call(node)
                    if name in _SCHEDULE_NAMES:
                        constructions.append(node)
                    elif (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr == "validate"
                    ):
                        has_validate = True
                if isinstance(node, ast.Return) and isinstance(
                    node.value, ast.Call
                ):
                    returned_directly.add(node.value)
            if has_validate:
                continue
            for call in constructions:
                if call in returned_directly:
                    # producer pattern: handed straight to the caller,
                    # which the conftest validation net re-validates
                    continue
                yield self.finding(
                    ctx,
                    call,
                    "Schedule constructed here is neither returned directly "
                    "nor validated in this function; call "
                    ".validate(ft, messages) before using it",
                )


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested function scopes.

    A nested ``def`` statement is itself yielded (it *is* a statement of
    this scope) but its body belongs to the inner scope and is skipped.
    """
    body = scope.body if isinstance(
        scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)
    ) else [scope]
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for child in ast.iter_child_nodes(node):
            stack.append(child)


# -- obs-threading -----------------------------------------------------------

#: modules whose public entry points must thread observability through
_SCHEDULER_MODULES = {
    "repro.core.scheduler",
    "repro.core.online",
    "repro.core.greedy",
    "repro.core.reuse_scheduler",
    "repro.hardware.switchsim",
    "repro.hardware.buffered",
    "repro.chaos.engine",
    "repro.perf.batch",
    "repro.perf.driver",
    "repro.serve.shards",
}

_ENTRY_POINT_PREFIXES = ("schedule_", "simulate_", "run_", "batch_")


@register_rule
class ObsThreadingRule(Rule):
    id = "obs-threading"
    summary = (
        "public scheduler entry points (schedule_*/simulate_*/run_*) "
        "must accept and forward obs="
    )

    def applies(self, module: str | None) -> bool:
        return module in _SCHEDULER_MODULES

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for name, fn in ctx.module_level_defs().items():
            if name.startswith("_") or not name.startswith(_ENTRY_POINT_PREFIXES):
                continue
            params = {a.arg for a in fn.args.args} | {
                a.arg for a in fn.args.kwonlyargs
            }
            if "obs" not in params:
                yield self.finding(
                    ctx,
                    fn,
                    f"public entry point {name}() does not accept obs=; "
                    "observability cannot be threaded through this stack",
                )
                continue
            if not _uses_name(fn, "obs"):
                yield self.finding(
                    ctx,
                    fn,
                    f"{name}() accepts obs= but never forwards it "
                    "(resolve_obs(obs) or pass obs= downstream)",
                )


def _uses_name(fn: ast.FunctionDef | ast.AsyncFunctionDef, target: str) -> bool:
    for node in _walk_scope(fn):
        if isinstance(node, ast.Name) and node.id == target and isinstance(
            node.ctx, ast.Load
        ):
            return True
        if isinstance(node, ast.Call) and any(
            kw.arg == target for kw in node.keywords
        ):
            return True
    return False


# -- nondeterminism-ban ------------------------------------------------------

_NONDETERMINISTIC_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "secrets.randbelow",
}

_DETERMINISTIC_MODULES = (
    "repro.core",
    "repro.perf",
    "repro.hardware",
    "repro.faults",
    "repro.chaos",
    "repro.serve",
)


@register_rule
class NondeterminismBanRule(Rule):
    id = "nondeterminism-ban"
    summary = (
        "no wall-clock/OS-entropy reads (time.time, datetime.now, "
        "os.urandom, …) in kernel and scheduler modules"
    )

    def applies(self, module: str | None) -> bool:
        return module is not None and module.startswith(_DETERMINISTIC_MODULES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in _iter_calls(ctx.tree):
            name = ctx.resolve_call(call)
            if name in _NONDETERMINISTIC_CALLS:
                yield self.finding(
                    ctx,
                    call,
                    f"nondeterministic call {name}() in a kernel/scheduler "
                    "module; schedules must be a pure function of their "
                    "inputs and seed",
                )


# -- kernel-oracle-pairing ---------------------------------------------------

_REFERENCE_PREFIX = "_reference_"


@register_rule
class KernelOraclePairingRule(Rule):
    id = "kernel-oracle-pairing"
    summary = (
        "_reference_* oracles and their vectorised public kernels must "
        "exist in pairs (neither half may be orphaned)"
    )

    def applies(self, module: str | None) -> bool:
        return module is not None and module.startswith("repro.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        defs = ctx.module_level_defs()
        for name, fn in defs.items():
            if name.startswith(_REFERENCE_PREFIX):
                public = name[len(_REFERENCE_PREFIX):]
                if public not in defs:
                    yield self.finding(
                        ctx,
                        fn,
                        f"oracle {name}() has no matching public kernel "
                        f"{public}() in this module; the bit-parity property "
                        "tests have nothing to compare against",
                    )
            elif not name.startswith("_"):
                oracle = _REFERENCE_PREFIX + name
                doc = ast.get_docstring(fn) or ""
                if oracle in doc and oracle not in defs:
                    yield self.finding(
                        ctx,
                        fn,
                        f"kernel {name}() claims bit-parity with {oracle}() "
                        "in its docstring but that oracle is not defined in "
                        "this module",
                    )


# -- mutable-default ---------------------------------------------------------

_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray"}


@register_rule
class MutableDefaultRule(Rule):
    id = "mutable-default"
    summary = "no mutable default arguments (list/dict/set literals or calls)"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_literal(default):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in {node.name}(); "
                        "default to None and construct inside the function",
                    )


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CONSTRUCTORS
    )


# -- bare-except -------------------------------------------------------------


@register_rule
class BareExceptRule(Rule):
    id = "bare-except"
    summary = "no bare except: clauses (they swallow KeyboardInterrupt)"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare except: catches KeyboardInterrupt/SystemExit and "
                    "masks conformance failures; name the exception types",
                )

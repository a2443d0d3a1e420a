"""The built-in determinism rules (DET001–DET006).

Each rule statically enforces one of the conventions the repo's bit-parity
guarantee rests on (see README, "Determinism contract"):

* libm routing — last-ulp-divergent transcendentals go through the active
  numeric backend, whose ``exact`` mode calls libm per element (DET001);
* RNG discipline — all randomness derives from
  :func:`repro.utils.rng.ensure_rng` / :func:`~repro.utils.rng.child_rng` /
  :func:`~repro.utils.rng.draw_word` (DET002), and library code never reads
  wall clocks or OS entropy (DET003);
* canonical serialisation — no unordered set iteration that could reach
  event streams or digests (DET004), every ``from_dict`` validates its keys
  (DET005), and private NumPy APIs are only touched with a documented
  fallback (DET006).

Rules are intentionally syntactic: they resolve imports (so ``np.exp`` and
``from numpy import exp`` both match) but do not type-infer.  Where a
pattern is deliberate, the site carries a
``# repro: allow-<rule> -- <justification>`` pragma instead of the rule
growing a special case.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.base import FileContext, Rule

# --------------------------------------------------------------------------- #
# DET001 — libm routing
# --------------------------------------------------------------------------- #

#: NumPy transcendentals whose SIMD kernels diverge from CPython's libm route
#: in the last ulp, with the backend-seam replacement to suggest (the batch
#: path modules take kernels from :func:`repro.backend.active_backend`; the
#: ``exact`` backend routes them through :mod:`math`).
_DIVERGENT_UFUNCS = {
    "numpy.exp": "active_backend().exp (repro.backend; math.exp in exact mode)",
    "numpy.hypot": "active_backend().hypot (repro.backend)",
    "numpy.arccos": "active_backend().acos (repro.backend)",
    "numpy.power": "active_backend().power (repro.backend)",
    "numpy.float_power": "active_backend().power (repro.backend)",
    "numpy.arctan2": "a math.atan2 loop (or a new backend kernel)",
}


def _contains_complex_literal(node: ast.AST) -> bool:
    """True when any descendant constant is complex (e.g. ``-1j * phase``)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, complex):
            return True
    return False


class BareTranscendentalRule(Rule):
    """Bare NumPy transcendental / float-exponent ``**`` in libm-routed scope.

    ``np.exp`` with a complex-literal argument (the ``np.exp(-1j * phase)``
    steering/phase factors) is exempt: complex exp has a single shared kernel
    that the scalar reference path calls too, so batch and scalar layers
    cannot diverge there.  Real-valued transcendentals and ``**`` with a
    non-integral literal exponent take NumPy's SIMD/pow kernels, which differ
    from libm in the last ulp and silently break the sha256 score pins.
    """

    rule_id = "DET001"
    summary = (
        "bare NumPy transcendental (np.exp/np.power/np.hypot/np.arccos/"
        "np.arctan2) or non-integral-literal ** in a libm-routed module"
    )

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.context.resolve(node.func)
        replacement = _DIVERGENT_UFUNCS.get(resolved) if resolved else None
        if replacement is not None:
            exempt = resolved == "numpy.exp" and any(
                _contains_complex_literal(arg) for arg in node.args
            )
            if not exempt:
                self.report(
                    node,
                    f"{resolved} diverges from libm in the last ulp; route "
                    f"through {replacement} to keep batch/scalar bit parity",
                )
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Pow):
            exponent = _literal_number(node.right)
            if isinstance(exponent, float) and not exponent.is_integer():
                self._report_pow(node, exponent)
            elif isinstance(exponent, float):
                # Integral-valued float literals (`** -2.0`) still take the
                # pow kernel on arrays, unlike `** 2` which NumPy
                # strength-reduces to repeated multiplication.
                self._report_pow(node, exponent)
        self.generic_visit(node)

    def _report_pow(self, node: ast.BinOp, exponent: float) -> None:
        self.report(
            node,
            f"`** {exponent}` on an array takes NumPy's pow kernel (last-ulp "
            "divergent from libm); route through active_backend().power "
            "(repro.backend)",
        )


def _literal_number(node: ast.AST) -> Optional[float]:
    """The numeric value of a (possibly negated) literal, else ``None``."""
    sign = 1.0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
        sign = -1.0
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return sign * node.value
    return None


# --------------------------------------------------------------------------- #
# DET002 — RNG discipline
# --------------------------------------------------------------------------- #
class RngDisciplineRule(Rule):
    """Randomness not flowing through ``ensure_rng`` / ``child_rng`` /
    ``draw_word``.

    Any call into ``numpy.random`` (``default_rng``, ``Generator``,
    ``SeedSequence``, ``RandomState``, the legacy global distributions) or
    the stdlib ``random`` module constructs or draws randomness outside the
    one sanctioned seam, :mod:`repro.utils.rng` — whose own construction
    sites carry the pragmas.
    """

    rule_id = "DET002"
    summary = (
        "np.random.* / random.* call outside utils/rng.py — randomness must "
        "flow through ensure_rng/child_rng/draw_word"
    )

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.context.resolve(node.func)
        if resolved is not None:
            if resolved.startswith("numpy.random.") or resolved == "numpy.random":
                self.report(
                    node,
                    f"{resolved} constructs or draws randomness directly; "
                    "derive it via repro.utils.rng.ensure_rng/child_rng/draw_word so "
                    "streams stay order-independent and reproducible",
                )
            elif resolved.startswith("random.") or resolved == "random":
                self.report(
                    node,
                    f"stdlib {resolved} uses the global Mersenne Twister; "
                    "derive randomness via repro.utils.rng instead",
                )
        self.generic_visit(node)


# --------------------------------------------------------------------------- #
# DET003 — wall clocks and OS entropy
# --------------------------------------------------------------------------- #

#: Calls that read a wall clock or an OS entropy source.
_IMPURE_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.clock_gettime",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    """Wall-clock / entropy reads in library code.

    Scores, events, and digests must be pure functions of the seed and the
    config; a timestamp or OS-entropy read anywhere on those paths makes two
    identical runs diverge.  The CLI and benchmark layers are allowlisted via
    ``[tool.repro.lint]`` path scoping; deliberate latency timers carry
    pragmas.
    """

    rule_id = "DET003"
    summary = (
        "wall-clock or entropy source (time.time, datetime.now, os.urandom, "
        "uuid) outside the CLI/benchmark allowlist"
    )

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.context.resolve(node.func)
        if resolved is not None and (
            resolved in _IMPURE_CALLS or resolved.startswith("secrets.")
        ):
            self.report(
                node,
                f"{resolved} is nondeterministic across runs; library results "
                "must be pure functions of the seed and config",
            )
        self.generic_visit(node)


# --------------------------------------------------------------------------- #
# DET004 — unordered set iteration
# --------------------------------------------------------------------------- #


class _SetExprClassifier:
    """Syntactic 'is this expression a set?' with light name tracking."""

    def __init__(self, tree: ast.AST) -> None:
        # Names ever assigned a syntactic set construct anywhere in the file.
        # Coarser than real scoping, but set-typed locals are rare enough that
        # the occasional deliberate use reads best with a pragma anyway.
        self.set_names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                if self._is_set_expr(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.set_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if self._is_set_expr(node.value) and isinstance(node.target, ast.Name):
                    self.set_names.add(node.target.id)

    def is_set(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        return self._is_set_expr(node)

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            # set(a).union(b), {…}.difference(…) — a set method on a set.
            if isinstance(func, ast.Attribute) and self.is_set(func.value):
                if func.attr in (
                    "union",
                    "intersection",
                    "difference",
                    "symmetric_difference",
                    "copy",
                ):
                    return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set(node.left) or self.is_set(node.right)
        return False


class UnorderedSetIterationRule(Rule):
    """Iteration over a set without an explicit ``sorted(...)``.

    Set iteration order depends on ``PYTHONHASHSEED`` for str/bytes elements,
    so a loop over a set that feeds event construction, serialisation, or a
    digest produces different bytes run to run.  Wrapping the iterable in
    ``sorted(...)`` fixes the order *and* silences the rule (the iterable is
    then the ``sorted`` call, not the set).  Dict iteration is insertion-
    ordered and therefore not flagged.
    """

    rule_id = "DET004"
    summary = (
        "iteration over a set feeding ordered output without an explicit "
        "sorted(...)"
    )

    def __init__(self, context: FileContext) -> None:
        super().__init__(context)
        self._classifier = _SetExprClassifier(context.tree)

    def _check_iterable(self, node: ast.AST) -> None:
        if self._classifier.is_set(node):
            self.report(
                node,
                "set iteration order is not deterministic across runs "
                "(PYTHONHASHSEED); wrap the iterable in sorted(...) before it "
                "can reach event streams, serialised output, or digests",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for comp in getattr(node, "generators", []):
            self._check_iterable(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


# --------------------------------------------------------------------------- #
# DET005 — from_dict validation
# --------------------------------------------------------------------------- #
class FromDictValidationRule(Rule):
    """``from_dict`` classmethods that never validate their payload keys.

    Every dict/JSON-buildable dataclass routes through
    :func:`repro.utils.validation.check_known_keys` so a typo in any config
    or record file fails with the same one-line error everywhere.  A
    ``from_dict`` that merely delegates to another ``from_dict`` is accepted —
    the inner call owns the validation.
    """

    rule_id = "DET005"
    summary = "from_dict classmethod that never calls check_known_keys"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for item in node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "from_dict"
            ):
                if not self._validates(item):
                    self.report(
                        item,
                        f"{node.name}.from_dict never calls check_known_keys "
                        "(or delegates to a from_dict that does); unknown keys "
                        "in its payload would pass silently",
                    )
        self.generic_visit(node)

    @staticmethod
    def _validates(func: ast.AST) -> bool:
        for child in ast.walk(func):
            if not isinstance(child, ast.Call):
                continue
            callee = child.func
            if isinstance(callee, ast.Name) and callee.id == "check_known_keys":
                return True
            if isinstance(callee, ast.Attribute) and callee.attr in (
                "check_known_keys",
                "from_dict",
            ):
                return True
        return False


# --------------------------------------------------------------------------- #
# DET006 — private NumPy API access
# --------------------------------------------------------------------------- #
class PrivateNumpyApiRule(Rule):
    """Private NumPy API access without a documented fallback.

    Private modules and attributes (any ``numpy.*._name``) can move or
    vanish between NumPy releases; any use must sit next to a pragma whose
    justification names the fallback that keeps results correct (if slower)
    when the private attribute disappears.
    """

    rule_id = "DET006"
    summary = (
        "private NumPy API access (numpy.*._name) without a pragma "
        "documenting the fallback"
    )

    def _is_private_numpy_path(self, resolved: Optional[str]) -> bool:
        if not resolved or not resolved.startswith("numpy"):
            return False
        components = resolved.split(".")[1:]
        return any(
            part.startswith("_") and not part.startswith("__") for part in components
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if self._is_private_numpy_path(alias.name):
                self.report(
                    node,
                    f"import of private NumPy module {alias.name!r}; add a "
                    "pragma documenting the public fallback",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module is not None:
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                if self._is_private_numpy_path(dotted):
                    self.report(
                        node,
                        f"import of private NumPy API {dotted!r}; add a pragma "
                        "documenting the public fallback",
                    )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        resolved = self.context.resolve(node)
        if self._is_private_numpy_path(resolved):
            self.report(
                node,
                f"access to private NumPy API {resolved!r}; add a pragma "
                "documenting the public fallback",
            )
            # The inner chain (`np.linalg._private` inside
            # `np.linalg._private.func`) would re-fire on the same private
            # component — one finding per access site is enough.
            return
        self.generic_visit(node)


#: The rules the engine runs, by id.
RULES: dict[str, type[Rule]] = {
    rule.rule_id: rule
    for rule in (
        BareTranscendentalRule,
        RngDisciplineRule,
        WallClockRule,
        UnorderedSetIterationRule,
        FromDictValidationRule,
        PrivateNumpyApiRule,
    )
}

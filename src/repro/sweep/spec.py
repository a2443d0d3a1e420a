"""Declarative parameter-sweep specifications.

A :class:`SweepSpec` names the grid of evaluation campaigns the paper's
Section V figures are built from — ROC, per-case, per-distance, per-angle and
per-window-size curves are all "run the same campaign under a different
knob".  The spec is a base :class:`~repro.experiments.runner.EvaluationConfig`
plus named :class:`SweepAxis` entries over its fields (including ``seed``,
which makes replication a regular axis); like ``PipelineConfig`` it
round-trips through dict/JSON, so one spec file describes one sweep
everywhere (CLI, library, CI).

:meth:`SweepSpec.expand` materialises the cross-product into deterministic
:class:`SweepPoint` objects: stable, content-addressed point ids and one
fully-validated ``EvaluationConfig`` per point.  Expansion order is row-major
over the axes (later axes vary fastest) and never depends on how the sweep is
executed, which is what makes sweep results resumable and bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.channel.channel import Link
from repro.experiments.runner import EvaluationConfig
from repro.experiments.scenarios import Scenario, evaluation_cases
from repro.utils.validation import check_known_keys

#: ``EvaluationConfig`` fields a sweep axis may range over.  ``max_workers``
#: is excluded: it is an execution knob that never changes results (the point
#: digest strips it for the same reason), so sweeping it would recompute
#: identical campaigns and present them as a study.
SWEEPABLE_FIELDS: tuple[str, ...] = tuple(
    f.name
    for f in dataclasses.fields(EvaluationConfig)
    if f.name != "max_workers"
)


def canonical_json(data: Any) -> str:
    """Canonical JSON encoding (sorted keys, no whitespace).

    Used both for point-id digests and for :class:`~repro.sweep.store.SweepStore`
    lines, so identical payloads are identical bytes regardless of dict
    insertion order or worker count.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _jsonable(value: Any) -> Any:
    """Convert tuples to lists so axis values serialise like config fields."""
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class SweepAxis:
    """One named axis of a sweep: an ``EvaluationConfig`` field and its values.

    Parameters
    ----------
    field:
        Name of the ``EvaluationConfig`` field the axis ranges over (``seed``
        is an ordinary field, so replication seeds are just another axis).
    values:
        The values the field takes, in sweep order.  List values (e.g. for
        ``schemes``) are kept as given and coerced by
        ``EvaluationConfig.from_dict`` at expansion time.
    """

    field: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if self.field not in SWEEPABLE_FIELDS:
            raise ValueError(
                f"unknown sweep axis field {self.field!r}; "
                f"sweepable fields: {sorted(SWEEPABLE_FIELDS)}"
            )
        if isinstance(self.values, (str, bytes)):
            # tuple("2015") would silently become ('2','0','1','5').
            raise ValueError(
                f"axis {self.field!r} values must be a list of values, "
                f"got the string {self.values!r}"
            )
        try:
            values = tuple(self.values)
        except TypeError:
            raise ValueError(
                f"axis {self.field!r} values must be a list of values, "
                f"got {type(self.values).__name__}"
            ) from None
        if not values:
            raise ValueError(f"axis {self.field!r} requires at least one value")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepAxis":
        """Build an axis from a plain mapping, rejecting unknown keys."""
        if not isinstance(data, Mapping):
            raise ValueError(
                f"a sweep axis must be a mapping with 'field' and 'values' "
                f"keys, got {type(data).__name__}"
            )
        check_known_keys(
            "SweepAxis", data, ("field", "values"), required=("field", "values")
        )
        # Raw values go straight through: __post_init__ owns the coercion and
        # rejects strings/scalars before tuple() could mangle them.
        return cls(field=data["field"], values=data["values"])

    def to_dict(self) -> dict[str, Any]:
        """The axis as a plain JSON-serialisable dict (``from_dict`` inverse)."""
        return {"field": self.field, "values": [_jsonable(v) for v in self.values]}


@dataclass(frozen=True)
class SweepPoint:
    """One materialised point of a sweep.

    Attributes
    ----------
    index:
        Position of the point in row-major expansion order.
    point_id:
        Stable identifier ``"<index>-<digest>"``; the digest is a SHA-1 prefix
        of the point's full canonical config *and* the spec's case subset, so
        a resumed sweep only reuses a stored record when both the
        configuration and the cases that produced it are unchanged.
    overrides:
        The axis assignments of this point (field name -> value).
    config:
        The fully-validated campaign configuration of the point.
    """

    index: int
    point_id: str
    overrides: dict[str, Any]
    config: EvaluationConfig


@dataclass(frozen=True)
class SweepSpec:
    """A declarative parameter sweep over evaluation campaigns.

    Parameters
    ----------
    axes:
        Named axes; the sweep is their cross-product, with later axes varying
        fastest.
    base:
        Campaign configuration every point starts from.
    name:
        Human-readable sweep identifier (recorded in the store).
    cases:
        Optional subset of evaluation case names (``"case-1"`` … ``"case-5"``)
        every point runs over; ``None`` runs the paper's five cases.

    The numeric backend is the base config's ``backend`` (what the CLI's
    ``sweep run --backend`` sets); a ``backend`` axis varies it per point,
    so "same grid under both backends" is just another axis.
    """

    axes: tuple[SweepAxis, ...]
    base: EvaluationConfig = field(default_factory=EvaluationConfig)
    name: str = "sweep"
    cases: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if isinstance(self.axes, (str, bytes)):
            raise ValueError(
                f"axes must be a list of sweep axes, got the string {self.axes!r}"
            )
        try:
            axes = tuple(
                axis if isinstance(axis, SweepAxis) else SweepAxis.from_dict(axis)
                for axis in self.axes
            )
        except TypeError:
            raise ValueError(
                f"axes must be a list of sweep axes, got {type(self.axes).__name__}"
            ) from None
        if not axes:
            raise ValueError("a SweepSpec requires at least one axis")
        fields = [axis.field for axis in axes]
        duplicates = sorted({f for f in fields if fields.count(f) > 1})
        if duplicates:
            raise ValueError(f"duplicate sweep axes: {duplicates}")
        if not self.name:
            raise ValueError("sweep name must be a non-empty string")
        object.__setattr__(self, "axes", axes)
        if isinstance(self.base, Mapping):
            object.__setattr__(self, "base", EvaluationConfig.from_dict(self.base))
        elif not isinstance(self.base, EvaluationConfig):
            raise ValueError(
                f"base must be an EvaluationConfig or a mapping of its fields, "
                f"got {type(self.base).__name__}"
            )
        if self.cases is not None:
            if isinstance(self.cases, (str, bytes)):
                raise ValueError(
                    f"cases must be a list of case names, got the string {self.cases!r}"
                )
            try:
                cases = tuple(self.cases)
            except TypeError:
                raise ValueError(
                    f"cases must be a list of case names, got {type(self.cases).__name__}"
                ) from None
            if not cases:
                raise ValueError("cases must be None or a non-empty sequence of names")
            object.__setattr__(self, "cases", cases)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Build a spec from a plain mapping, rejecting unknown keys."""
        check_known_keys("SweepSpec", data, ("axes", "base", "name", "cases"))
        if "axes" not in data:
            raise ValueError("a SweepSpec requires at least one axis")
        # Raw payloads go straight through: __post_init__ owns coercion and
        # turns every type mistake into a one-line ValueError.
        return cls(
            axes=data["axes"],
            base=data.get("base", {}),
            name=data.get("name", "sweep"),
            cases=data.get("cases"),
        )

    def to_dict(self) -> dict[str, Any]:
        """The spec as a plain JSON-serialisable dict (``from_dict`` inverse)."""
        return {
            "name": self.name,
            "base": self.base.to_dict(),
            "axes": [axis.to_dict() for axis in self.axes],
            "cases": list(self.cases) if self.cases is not None else None,
        }

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse a spec from a JSON object string."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepSpec":
        """Load a spec from a JSON file."""
        return cls.from_json(Path(path).read_text())

    def to_json(self, *, indent: int | None = 2) -> str:
        """The spec as a JSON object string."""
        return json.dumps(self.to_dict(), indent=indent)

    # ------------------------------------------------------------------ #
    # expansion
    # ------------------------------------------------------------------ #
    @property
    def num_points(self) -> int:
        """Number of points in the cross-product."""
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def expand(self) -> list[SweepPoint]:
        """Materialise the cross-product into deterministic sweep points.

        Points are ordered row-major over the axes (the last axis varies
        fastest); ids and configs depend only on the spec content, never on
        how (or how parallel) the sweep is executed.
        """
        base = self.base.to_dict()
        points: list[SweepPoint] = []
        for index, combo in enumerate(
            itertools.product(*(axis.values for axis in self.axes))
        ):
            overrides = {
                axis.field: _jsonable(value)
                for axis, value in zip(self.axes, combo)
            }
            # max_workers is dropped before the point config is built:
            # parallelism belongs to the SweepRunner, results are
            # bit-identical for any worker count, and normalising here keeps
            # both the point ids and the stored record bytes invariant under
            # pure worker-count edits of the base config.
            merged = {**base, **overrides}
            merged.pop("max_workers", None)
            config = EvaluationConfig.from_dict(merged)
            # The digest covers everything that shapes the point's result:
            # its config and the case subset it runs over.
            digest = hashlib.sha1(
                canonical_json(
                    {
                        "config": config.to_dict(),
                        "cases": list(self.cases) if self.cases is not None else None,
                    }
                ).encode()
            ).hexdigest()[:8]
            points.append(
                SweepPoint(
                    index=index,
                    point_id=f"{index:03d}-{digest}",
                    overrides=overrides,
                    config=config,
                )
            )
        return points

    # ------------------------------------------------------------------ #
    # evaluation cases
    # ------------------------------------------------------------------ #
    def evaluation_cases(self) -> list[tuple[Scenario, Link]]:
        """The (scenario, link) cases every point runs, in paper order.

        With :attr:`cases` set, the subset keeps the paper's case order (not
        the spec's listing order) so per-case seed derivation is stable.
        """
        all_cases = evaluation_cases()
        if self.cases is None:
            return all_cases
        known = [link.name for _, link in all_cases]
        unknown = sorted(set(self.cases) - set(known))
        if unknown:
            raise ValueError(
                f"unknown evaluation cases: {unknown}; known cases: {known}"
            )
        wanted = set(self.cases)
        return [(scenario, link) for scenario, link in all_cases if link.name in wanted]

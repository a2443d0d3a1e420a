"""The name-keyed registry behind the detector plugins.

Detection schemes are the one pluggable kind: :mod:`repro.api.registry`
holds their factories in a module-level :class:`Registry`, and a factory is
called with the pipeline config and the link.  Numeric backends and lint
rules are closed tables (:data:`repro.backend.BACKENDS`,
:data:`repro.analysis.rules.RULES`).
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """Entries of one kind keyed by name, in registration order.

    Parameters
    ----------
    kind:
        What an entry is (``"detector"``); error messages name it.
    entry_type:
        The type every entry must be an instance of.
    """

    def __init__(self, kind: str, entry_type: Any) -> None:
        self.kind = kind
        self.entry_type = entry_type
        self._entries: dict[str, T] = {}

    def register(self, name: str, entry: T | None = None) -> Any:
        """Register *entry* under *name*; without *entry*, a decorator that does.

        A name registers once, so a typo cannot silently shadow a built-in;
        to replace an entry, :meth:`unregister` it first.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string, got {name!r}")

        def _register(value: T) -> T:
            if not isinstance(value, self.entry_type):
                raise TypeError(
                    f"{self.kind} must be an instance of "
                    f"{self.entry_type.__name__}, got {value!r}"
                )
            if name in self._entries:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered; unregister it first"
                )
            self._entries[name] = value
            return value

        return _register if entry is None else _register(entry)

    def unregister(self, name: str) -> None:
        """Remove a registration (raises ``KeyError`` if absent)."""
        del self._entries[name]

    def get(self, name: str) -> T:
        """The entry registered under *name*."""
        if name not in self._entries:
            raise ValueError(
                f"unknown {self.kind} {name!r}; "
                f"registered {self.kind}s: {list(self._entries)}"
            )
        return self._entries[name]

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.kind!r}, {list(self._entries)})"

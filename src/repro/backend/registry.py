"""String-keyed numeric backend registry.

Mirrors :class:`repro.api.registry.DetectorRegistry`: factories registered
under a name, decorator or direct registration, an overwrite guard so typos
cannot silently shadow the built-ins, and a get-or-error lookup that names
the registered backends.  Unlike detectors — constructed per link — a backend
is process-wide state, so the registry caches one instance per name and hands
the same instance to every caller.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.backend.base import NumericBackend

#: A backend factory: a zero-argument callable (typically the class itself).
BackendFactory = Callable[[], NumericBackend]


class BackendRegistry:
    """A mutable mapping from backend names to backend factories."""

    def __init__(self) -> None:
        self._factories: dict[str, BackendFactory] = {}
        self._instances: dict[str, NumericBackend] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        factory: BackendFactory | None = None,
        *,
        overwrite: bool = False,
    ):
        """Register *factory* under *name*; usable directly or as a decorator.

        Parameters
        ----------
        name:
            Backend name, e.g. ``"exact"``.  Must be a non-empty string.
        factory:
            Zero-argument callable returning the backend (usually the class).
            When omitted, ``register`` returns a decorator that registers the
            decorated callable.
        overwrite:
            Allow replacing an existing registration (otherwise an error, so
            typos do not silently shadow the built-in backends).
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"backend name must be a non-empty string, got {name!r}")

        def _register(func: BackendFactory) -> BackendFactory:
            if not callable(func):
                raise TypeError(f"backend factory must be callable, got {func!r}")
            if name in self._factories and not overwrite:
                raise ValueError(
                    f"backend {name!r} is already registered; "
                    "pass overwrite=True to replace it"
                )
            self._factories[name] = func
            self._instances.pop(name, None)
            return func

        if factory is None:
            return _register
        return _register(factory)

    def unregister(self, name: str) -> None:
        """Remove a registration (raises ``KeyError`` if absent)."""
        del self._factories[name]
        self._instances.pop(name, None)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> NumericBackend:
        """The (shared) backend instance registered under *name*.

        The first lookup instantiates the factory; later lookups return the
        same instance.
        """
        instance = self._instances.get(name)
        if instance is not None:
            return instance
        factory = self._factories.get(name)
        if factory is None:
            raise ValueError(
                f"unknown backend {name!r}; registered backends: {list(self.names())}"
            )
        instance = factory()
        self._instances[name] = instance
        return instance

    def names(self) -> tuple[str, ...]:
        """Registered backend names, in registration order."""
        return tuple(self._factories)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.names())})"


#: The process-wide registry used when no explicit registry is passed.
DEFAULT_REGISTRY = BackendRegistry()


def register_backend(name: str, *, registry: BackendRegistry | None = None):
    """Decorator registering a backend factory in the (default) registry::

        @register_backend("my-backend")
        class MyBackend:
            name = "my-backend"
            ...
    """
    target = registry if registry is not None else DEFAULT_REGISTRY
    return target.register(name)


def available_backends() -> tuple[str, ...]:
    """Names registered in the default registry (built-ins plus plugins)."""
    return DEFAULT_REGISTRY.names()

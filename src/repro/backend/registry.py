"""The backend registry: backend names to shared backend instances.

A backend is a name plus 8 elementwise transcendentals and takes no
constructor arguments, so :func:`register_backend` registers one instance of
the decorated class at import and every lookup hands out that same instance
(``resolve_backend("fast") is resolve_backend("fast")``).
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.backend.base import NumericBackend
from repro.utils.registry import Registry

B = TypeVar("B", bound=type)

#: The process-wide backend registry (built-ins plus plugins).
DEFAULT_REGISTRY: Registry[NumericBackend] = Registry("backend", NumericBackend)


def register_backend(name: str) -> Callable[[B], B]:
    """Class decorator registering one shared instance of the backend::

        @register_backend("my-backend")
        class MyBackend:
            name = "my-backend"
            ...
    """

    def _register(cls: B) -> B:
        DEFAULT_REGISTRY.register(name, cls())
        return cls

    return _register


def available_backends() -> tuple[str, ...]:
    """Registered backend names (built-ins plus plugins)."""
    return DEFAULT_REGISTRY.names()

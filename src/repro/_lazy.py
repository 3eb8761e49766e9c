"""Package re-exports resolved on first attribute access (PEP 562).

Every sub-package of ``repro`` re-exports its public names, and most of
those names live in modules that pull in the cycle simulator.  A command
served from the result cache needs none of them, so a package
``__init__`` declares *where* each name lives and this module imports
that submodule when the name is first asked for (DESIGN.md section 2,
"Import layering")::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        "flit": ("Flit", "FlitType", "Packet"),
        "network": ("Network",),
    })

``from repro.noc import Network``, ``repro.noc.Network`` and ``from
repro.noc import *`` (through ``__all__``) behave as before; only the
time of the import moves.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(namespace: Dict[str, Any],
                 exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable[[str], Any],
                            Callable[[], List[str]]]:
    """The ``__all__``, ``__getattr__`` and ``__dir__`` of the package
    whose ``globals()`` is ``namespace``; ``exports`` maps each submodule
    to the names the package re-exports from it."""
    package = namespace["__name__"]
    home = {name: submodule
            for submodule, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            submodule = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value  # found directly from now on
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return list(home), __getattr__, __dir__

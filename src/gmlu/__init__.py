"""Exact toolkit for graded universal modal logic over finite models.

Computes the equivalence classes of the depth-d counting fragments,
their exact sizes and entropies, description-complexity bounds (with a
formula-size game and a brute-force oracle at tiny scale), and
phase-transition reports of the class-size distribution.

Submodules load lazily, so a command compiles and runs only the modules
it uses.  The names in ``__all__`` are looked up in their defining
module on first access (PEP 562), and ``_lazy`` binds a submodule that
is registered in ``sys.modules`` at once but executed only when one of
its attributes is first read (``importlib.util.LazyLoader``).  gmlu is
single-threaded: before Python 3.12 a lazy module that two threads read
at once may be executed twice.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_HOMES = {
    "AdmissibleTuple": "classes",
    "Formula": "formulas",
    "ModelProfile": "models",
    "PointedProfile": "models",
    "ScaleCapError": "config",
    "SearchCaps": "config",
    "Vocabulary": "vocab",
    "class_size": "classes",
    "counting_depth": "formulas",
    "enumerate_admissible": "classes",
    "evaluate": "models",
    "format_formula": "formulas",
    "size": "formulas",
    "tuple_of_profile": "classes",
}

__all__ = [*_HOMES, "__version__"]


def _lazy(name: str):
    """The submodule ``gmlu.<name>``: the one in ``sys.modules`` if there
    is one, else a new one registered there and as this package's
    attribute, executed on the first read of one of its attributes."""
    fullname = f"{__name__}.{name}"
    if (module := sys.modules.get(fullname)) is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        globals()[name] = module
    return module


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(_lazy(_HOMES[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

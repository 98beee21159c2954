"""Corrector tableaus rearranged to compute derivatives.

Catalog construction, unit-circle suitability screening, transfer-domain
error analysis, coefficient synthesis from root conditions, and fixed-step
simulation against analytic signals. Each module's ``__all__`` says what it
makes public; the package re-exports those names, in this module order.
"""
from . import tableau, suitability, spectrum, solver, simulator
from .tableau import *  # noqa: F401,F403
from .suitability import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (tableau, suitability, spectrum, solver, simulator)
    for name in module.__all__
]

"""Exact Lefschetz numbers, Eisenstein traces and cuspidal lower bounds
for Bianchi groups, with exhaustive finite-ring oracles for every closed
formula."""

from . import bounds, eisenstein, exactmath, finitering, lefschetz, quadfield
from .exactmath import ConformanceError, InputError
from .quadfield import make_field

__version__ = "0.1.0"

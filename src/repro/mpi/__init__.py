"""Deterministic simulated MPI layer (DESIGN.md §2)."""

from .comm import CommStats, MpiError, SimComm
from .timing import CommModel

__all__ = [
    "CommStats",
    "MpiError",
    "SimComm",
    "CommModel",
]

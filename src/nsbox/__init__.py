"""Periodic-box incompressible Navier-Stokes solver and stability certificates."""

from nsbox.spectral import (
    PeriodicGrid,
    SpectralField,
    lift_2d_to_3d,
)

__version__ = "0.1.0"

__all__ = [
    "PeriodicGrid",
    "SpectralField",
    "lift_2d_to_3d",
]

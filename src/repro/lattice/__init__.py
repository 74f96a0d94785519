"""Discrete velocity models (lattices) and quadrature machinery.

Public surface:

* :func:`get_lattice` / :func:`available_lattices` — obtain validated
  velocity sets by name (``"D3Q19"``, ``"D3Q39"``, ...).
* :class:`VelocitySet` — the lattice abstraction (velocities, weights,
  sound speed, shells, isotropy checks, bytes-per-cell).
* Hermite helpers for equilibrium construction and verification.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "hermite": [
            "double_factorial",
            "gaussian_moment",
            "gaussian_moment_1d",
            "hermite_tensor",
            "hermite_value",
            "multi_indices",
        ],
        "registry": ["available_lattices", "get_lattice", "register_lattice"],
        "shells": ["expand_shells", "shell_size", "signed_permutations"],
        "stencil": ["ShellInfo", "VelocitySet", "build_velocity_set"],
    },
)

__all__ = [
    "available_lattices",
    "build_velocity_set",
    "double_factorial",
    "expand_shells",
    "gaussian_moment",
    "gaussian_moment_1d",
    "get_lattice",
    "hermite_tensor",
    "hermite_value",
    "multi_indices",
    "register_lattice",
    "shell_size",
    "ShellInfo",
    "shell_size",
    "signed_permutations",
    "VelocitySet",
]

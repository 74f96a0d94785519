"""Machine models: Blue Gene specs, torus network, memory, cache, roofline."""

from .. import _lazy

# Eager: the function shares its submodule's name (see repro._lazy).
from .roofline import roofline

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "bluegene": [
            "BLUE_GENE_P",
            "BLUE_GENE_Q",
            "available_machines",
            "get_machine",
        ],
        "cache": ["BGP_CACHE", "BGQ_CACHE", "CacheHierarchy", "CacheLevel"],
        "memory": ["MemoryModel"],
        "roofline": [
            "FLOPS_PER_CELL",
            "Limiter",
            "RooflinePoint",
            "flops_per_cell",
            "hardware_efficiency_bound",
            "torus_lower_bound",
        ],
        "spec": ["MachineSpec"],
        "torus": ["TorusTopology", "torus_shape_for"],
    },
)

__all__ = [
    "available_machines",
    "BGP_CACHE",
    "BGQ_CACHE",
    "BLUE_GENE_P",
    "BLUE_GENE_Q",
    "CacheHierarchy",
    "CacheLevel",
    "flops_per_cell",
    "FLOPS_PER_CELL",
    "get_machine",
    "hardware_efficiency_bound",
    "Limiter",
    "MachineSpec",
    "MemoryModel",
    "roofline",
    "RooflinePoint",
    "torus_lower_bound",
    "TorusTopology",
    "torus_shape_for",
]

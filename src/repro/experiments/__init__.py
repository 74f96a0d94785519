"""One module per reproduced paper artifact + registry."""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "base": ["ExperimentResult"],
        "registry": [
            "EXPERIMENTS",
            "available_experiments",
            "run_all",
            "run_experiment",
        ],
    },
)

__all__ = [
    "available_experiments",
    "EXPERIMENTS",
    "ExperimentResult",
    "run_all",
    "run_experiment",
]

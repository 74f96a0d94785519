"""Reporting: paper reference values, table rendering, ASCII plots."""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "ascii_plot": ["bar_chart"],
        "tables": ["append_column", "diff_rows", "render_csv", "render_table"],
    },
)

__all__ = [
    "append_column",
    "bar_chart",
    "diff_rows",
    "paper_reference",
    "render_csv",
    "render_table",
]

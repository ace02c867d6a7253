"""Real engines the generated SQL can be checked on.

See :mod:`repro.relational.backends.base` for the target abstraction and
the one comparison (:func:`cross_validate`), and
:mod:`repro.relational.backends.sqlite` for the real SQLite member.
"""

from repro.relational.backends.base import (
    Backend,
    align_backend_rows,
    cross_validate,
)
from repro.relational.backends.sqlite import SqliteBackend

__all__ = [
    "Backend",
    "SqliteBackend",
    "align_backend_rows",
    "cross_validate",
]

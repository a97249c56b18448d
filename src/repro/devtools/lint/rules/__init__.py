"""Lint rule implementations; importing this package registers every rule."""

from repro.devtools.lint.rules import (  # noqa: F401  (import-for-side-effect)
    dataclasses,
    floats,
    hotloop,
    parallel,
    scalarization,
    style,
)

"""Canonical fixtures shipped with the package.

Each fixture is a JSON file under ``lefkit/fixtures/`` in the documented
complex interchange format, so the shipped data is what gets tested.
Where a complex has a provenance, its ``meta`` records it as ``source``.
"""

from __future__ import annotations

from importlib import resources

from .complexes import SimplicialComplex, load_complex

FIXTURE_NAMES = ("OCT", "CROSS4", "FAN4", "DUNCE", "BALL10", "C3", "C4", "EDGE", "PATH3")

DECLARED_SPHERES = ("OCT", "CROSS4", "C3", "C4")
GRAPH_FIXTURES = ("C3", "C4", "EDGE", "PATH3")


def load(name: str) -> SimplicialComplex:
    """Load a fixture from its shipped JSON file."""
    ref = resources.files(__package__).joinpath("fixtures", f"{name.lower()}.json")
    with resources.as_file(ref) as path:
        return load_complex(path)

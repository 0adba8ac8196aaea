"""The mining-service registry behind the USING clause.

"Any party interested in using this interface is encouraged to do so by
building its own provider" — at algorithm granularity, that extensibility is
:func:`register_algorithm`: any :class:`MiningAlgorithm` subclass registered
here is immediately usable from ``CREATE MINING MODEL ... USING <name>`` and
appears in the MINING_SERVICES schema rowset.

Service names are case-insensitive; each built-in declares aliases covering
the Microsoft service names and the paper's own ``Decision_Trees_101``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.errors import BindError, SchemaError
from repro.algorithms.base import MiningAlgorithm
from repro.algorithms.decision_tree import DecisionTreeAlgorithm
from repro.algorithms.naive_bayes import NaiveBayesAlgorithm
from repro.algorithms.clustering_em import EMClusteringAlgorithm
from repro.algorithms.clustering_kmeans import KMeansAlgorithm
from repro.algorithms.association import AssociationRulesAlgorithm
from repro.algorithms.linear_regression import LinearRegressionAlgorithm
from repro.algorithms.logistic_regression import LogisticRegressionAlgorithm
from repro.algorithms.sequence import SequenceClusteringAlgorithm

_REGISTRY: Dict[str, Type[MiningAlgorithm]] = {}


def register_algorithm(cls: Type[MiningAlgorithm],
                       replace: bool = False) -> Type[MiningAlgorithm]:
    """Register a mining service class (usable as a decorator).

    Raises :class:`SchemaError` if a name is already taken, unless
    ``replace=True``, and for a half-declared capability: one of
    ``state`` / ``load_state`` without the other.
    """
    if not cls.SERVICE_NAME:
        raise SchemaError(f"{cls.__name__} must define SERVICE_NAME")
    if (cls.state is MiningAlgorithm.state) != \
            (cls.load_state is MiningAlgorithm.load_state):
        raise SchemaError(
            f"{cls.SERVICE_NAME} overrides only one of state() and "
            f"load_state(); a service persists with both or with neither")
    names = [cls.SERVICE_NAME, *cls.ALIASES]
    for name in names:
        key = name.upper()
        if key in _REGISTRY and _REGISTRY[key] is not cls and not replace:
            raise SchemaError(
                f"algorithm name {name!r} is already registered to "
                f"{_REGISTRY[key].SERVICE_NAME}")
    for name in names:
        _REGISTRY[name.upper()] = cls
    return cls


def unregister_algorithm(cls: Type[MiningAlgorithm]) -> None:
    """Remove a service and its aliases (used by plug-in tests)."""
    for name in [cls.SERVICE_NAME, *cls.ALIASES]:
        if _REGISTRY.get(name.upper()) is cls:
            del _REGISTRY[name.upper()]


def resolve_algorithm(name: str) -> Type[MiningAlgorithm]:
    """Service class for a USING-clause name, or raise BindError."""
    cls = _REGISTRY.get(name.upper())
    if cls is None:
        known = sorted({c.SERVICE_NAME for c in _REGISTRY.values()})
        raise BindError(
            f"unknown mining algorithm {name!r} (registered services: "
            f"{', '.join(known)})")
    return cls


def create_algorithm(name: str,
                     parameters: Optional[dict] = None) -> MiningAlgorithm:
    """Instantiate a service with validated USING-clause parameters."""
    return resolve_algorithm(name)(parameters)


def algorithm_services() -> List[Type[MiningAlgorithm]]:
    """Distinct registered service classes, by canonical name."""
    seen = {}
    for cls in _REGISTRY.values():
        seen[cls.SERVICE_NAME.upper()] = cls
    return [seen[key] for key in sorted(seen)]


for _builtin in (DecisionTreeAlgorithm, NaiveBayesAlgorithm,
                 EMClusteringAlgorithm, KMeansAlgorithm,
                 AssociationRulesAlgorithm, LinearRegressionAlgorithm,
                 LogisticRegressionAlgorithm,
                 SequenceClusteringAlgorithm):
    register_algorithm(_builtin)

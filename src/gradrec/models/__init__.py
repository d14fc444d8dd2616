"""Model implementations grouped by scenario, the model registry, and the
training loop.

``MODELS`` maps every ``[model] name`` to its class. Config validation,
the runner and checkpoints look models up there and nowhere else.
"""

from gradrec.models.base import Model, train
from gradrec.models.baselines import GlobalMeanRating, PopularityRanker
from gradrec.models.ranking import BprMf, Cdae, Cml, NeuMf
from gradrec.models.rating import BiasedSvd, FactorizationMachine, ItemAutoRec
from gradrec.models.sequential import AttRec, Caser, Prme

MODELS: dict[str, type[Model]] = {
    name: cls
    for cls in (BiasedSvd, FactorizationMachine, ItemAutoRec, BprMf, Cml, NeuMf, Cdae,
                Prme, Caser, AttRec)
    for name in cls.names
}

__all__ = [
    "MODELS",
    "AttRec",
    "BiasedSvd",
    "BprMf",
    "Caser",
    "Cdae",
    "Cml",
    "FactorizationMachine",
    "GlobalMeanRating",
    "ItemAutoRec",
    "Model",
    "NeuMf",
    "PopularityRanker",
    "Prme",
    "train",
]

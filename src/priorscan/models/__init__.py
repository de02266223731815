"""Model plugins: conjugate normal-hierarchical toy, Bayesian variable
selection under a Zellner g-prior, and desk-scale latent Dirichlet allocation.
"""

from priorscan.models.normal_hier import NormalHierModel
from priorscan.models.varsel import VSModel, synth_regression
from priorscan.models.lda import LDAModel, synth_corpus

__all__ = [
    "NormalHierModel",
    "VSModel",
    "synth_regression",
    "LDAModel",
    "synth_corpus",
]

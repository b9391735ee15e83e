"""The paper's contribution: MTO-Sampler and its supporting theory.

* :mod:`repro.core.criteria` — the edge-manipulation theorems: the
  deterministic non-cross-cutting removal criterion (Theorem 3), its
  cached-degree extension (Theorem 5), and the degree-3 replacement rule
  (Theorem 4);
* :mod:`repro.core.overlay` — the virtual overlay topology the walk
  follows, plus the offline fixpoint construction of G*/G** used by the
  running example;
* :mod:`repro.core.mto` — Algorithm 1, the MTO-Sampler random walk;
* :mod:`repro.core.estimators` — importance-sampling aggregate estimation
  (§IV-A) shared by all samplers.
"""

from repro.core.criteria import (
    extension_criterion,
    is_removable,
    removal_criterion,
    replacement_allowed,
)
from repro.core.estimators import EstimationResult, Estimator, estimate
from repro.core.mto import MTOSampler
from repro.core.overlay import OverlayGraph, build_overlay_fixpoint

__all__ = [
    "extension_criterion",
    "is_removable",
    "removal_criterion",
    "replacement_allowed",
    "EstimationResult",
    "Estimator",
    "estimate",
    "MTOSampler",
    "OverlayGraph",
    "build_overlay_fixpoint",
]

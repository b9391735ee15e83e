"""Random-walk samplers over the restrictive interface.

All walkers speak only to a :class:`~repro.interface.api.RestrictedSocialAPI`
— they never touch the graph — so their query costs are exactly what a
third party would pay:

* :class:`~repro.walks.srw.SimpleRandomWalk` — the paper's baseline
  (Definition 1), stationary ∝ degree;
* :class:`~repro.walks.mhrw.MetropolisHastingsWalk` — uniform-target MH
  walk;
* :class:`~repro.walks.rj.RandomJumpWalk` — MHRW with random jumps (needs
  an id space, as the paper notes);
* the MTO-Sampler lives in :mod:`repro.core.mto` and plugs into the same
  base machinery.
"""

from repro.walks.base import RandomWalkSampler, SamplingRun, WalkSample
from repro.walks.crawlers import BFSCrawler, DFSCrawler, SnowballCrawler
from repro.walks.mhrw import MetropolisHastingsWalk
from repro.walks.nbrw import NonBacktrackingWalk
from repro.walks.parallel import ParallelWalkers
from repro.walks.results import EventDrivenRun, ParallelRun, RunResult
from repro.walks.rj import RandomJumpWalk
from repro.walks.scheduler import EventDrivenWalkers
from repro.walks.srw import SimpleRandomWalk

__all__ = [
    "RandomWalkSampler",
    "RunResult",
    "SamplingRun",
    "WalkSample",
    "BFSCrawler",
    "DFSCrawler",
    "SnowballCrawler",
    "MetropolisHastingsWalk",
    "NonBacktrackingWalk",
    "ParallelRun",
    "ParallelWalkers",
    "EventDrivenRun",
    "EventDrivenWalkers",
    "RandomJumpWalk",
    "SimpleRandomWalk",
]

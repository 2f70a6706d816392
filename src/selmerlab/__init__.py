"""Markov models for p-Selmer rank distributions in quadratic twist families.

The package has five layers, from the bottom up:

* :mod:`selmerlab.distributions`: densities on a truncated rank
  window, parity functionals, and banded row-stochastic operators;
* :mod:`selmerlab.lagrangian`: the mod-p Lagrangian operator, its
  equilibrium constants c_n and states E+/E-, and convergence runs;
* :mod:`selmerlab.twists`: a synthetic prime stream with widths, the
  localization-dimension sampler, and the exact one-step rank kernels;
* :mod:`selmerlab.fans`: stratification bounds, level sampling, fan
  averaging, and the collapse / mixture-bound experiments;
* :mod:`selmerlab.disparity`: the disparity functional, the
  disparity-weighted limit distributions, and average rank.

The command line front end lives in :mod:`selmerlab.cli` and is
installed as ``selmer-lab``.
"""

from .distributions import *
from .errors import *
from .lagrangian import *
from .twists import *
from .fans import *
from .disparity import *

__version__ = "0.1.0"

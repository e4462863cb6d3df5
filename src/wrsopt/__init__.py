"""Derivative-free hyperparameter search built around weighted random
sampling: a uniform exploration phase feeds a tree-ensemble variance
decomposition, whose per-dimension importance weights set the probability
that each dimension is resampled on later steps.  Plain random search,
Sobol sequences, Nelder-Mead, and particle swarm run under the same budget
and logging harness for comparison.

The package root re-exports the library surface that README documents;
everything else is importable from its submodule.
"""

from .engine import RunConfig, execute_run
from .objectives import make_objective
from .space import load_space
from .triallog import read_log, write_log

__version__ = "0.1.0"

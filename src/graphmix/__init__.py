"""Attributed social-network models, growth-trace inference, and
inequality experiments.

The package covers four stages of a typical study: generating attributed
networks from six mechanistic models (pa, pah, patch; dpa, dh, dpah),
fitting and selecting among those models by replaying growth traces,
ranking/visibility and sampling-bias analyses, and contagion experiments
with group-dependent transmission.
"""

from . import generate, graph, inference, netio, ranking, rng, sampling, spreading
from .generate import *
from .graph import *
from .inference import *
from .netio import *
from .ranking import *
from .rng import *
from .sampling import *
from .spreading import *

__version__ = "0.1.0"

# a public name goes in its module's ``__all__`` and nowhere else
__all__ = [
    name
    for module in (generate, graph, inference, netio, ranking, rng, sampling, spreading)
    for name in module.__all__
]

"""tsclab: a self-contained deep-learning engine and evaluation harness
for time series classification.

Nine classifiers (eight gradient-trained networks plus an echo-state
reservoir), a seeded multi-run experiment protocol with rank-based
statistical comparison, and two interpretability tools (class activation
maps and metric MDS of the learned feature space).

Import each name from its module (``tsclab.models``, ...); the package re-exports none.
"""

__version__ = "0.1.0"

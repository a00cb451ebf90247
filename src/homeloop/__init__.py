"""homeloop: a seedable household mobile-manipulation simulator with
closed-loop replanning, hierarchical failure recovery, and a metrics harness.

Layers, bottom to top: a ground-truth 2D world with stochastic action
outcomes; a three-level perception stack (global furniture map, local object
maps, close-up inspection); the six primitive-action APIs; rule-based success
and feasibility verification; a budgeted object/local/global recovery state
machine; pluggable planners (deterministic scripted policy or an external
chat model); and the trial/suite harness with SR/SSR/RR accounting and
deterministic JSON-lines traces.
"""

__version__ = "0.1.0"

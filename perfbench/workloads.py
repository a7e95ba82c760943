"""The benchmark's workloads: `aclab run` configs generated from a seed.

Each workload is a list of configs run one after another, each in its own
interpreter. The seed is written into every config as `scenario.seed` and
`firstvar.seed`; the program sees nothing else of it.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_ANALYSES = ("norms", "monotonicity", "slab", "quantize", "gdelta",
                "firstvar", "sweep")

# Solved configs inherit the scenario default solver tolerance.
SOLVER_TOL = 1e-10

MANUFACTURED_CORPUS = ("planar-1", "stack-2", "stack-3", "stack-2-1d",
                       "stack-3-1d", "circle", "sphere", "constant-zero",
                       "constant-one")


@dataclass(frozen=True)
class Config:
    name: str
    body: str
    analyses: tuple[str, ...]
    solved: bool = False

    def text(self, seed: int) -> str:
        return (self.body + f"analyses = {', '.join(self.analyses)}\n"
                f"scenario.seed = {seed}\nfirstvar.seed = {seed}\n")


_BUBBLE = """scenario.kind = bubble
scenario.center = 0, 0
scenario.radius = 0.5
scenario.epsilon = 0.1, 0.05
grid.extent = 2, 2
grid.origin = -1, -1
grid.points = 321, 321
"""

# The corpus `solved-circle` scenario written inline, so that the seed
# reaches the noise of the initial guess.
_SOLVED_CIRCLE = """scenario.kind = solved-circle
scenario.center = 0, 0
scenario.radius = 0.5
scenario.noise = 0.01
scenario.epsilon = 0.05
grid.extent = 2, 2
grid.origin = -1, -1
grid.points = 481, 481
"""

_SPHERE_129 = """scenario.kind = circle
scenario.center = 0, 0, 0
scenario.radius = 0.4
scenario.epsilon = 0.1
grid.extent = 2, 2, 2
grid.origin = -1, -1, -1
grid.points = 129, 129, 129
"""

WORKLOADS: dict[str, tuple[Config, ...]] = {
    # Newton solves: far start (pseudo-transient, 15 linear solves) and
    # near start (pure Newton, 4 linear solves); spsolve dominates.
    "solve": (
        Config("bubble", _BUBBLE, ("norms", "sweep"), solved=True),
        Config("solved-circle", _SOLVED_CIRCLE,
               ("norms", "monotonicity", "quantize"), solved=True),
    ),
    # Every manufactured corpus scenario with every analysis: derived
    # fields and measures in 1-d, 2-d and 3-d, no solve.
    "corpus-manufactured": tuple(
        Config(name, f"scenario = {name}\n", ALL_ANALYSES)
        for name in MANUFACTURED_CORPUS),
    # One large 3-d state: per-radius ball quadrature and first variation
    # dominate, and memory peaks.
    "sphere-129": (Config("sphere-129", _SPHERE_129, ALL_ANALYSES),),
}


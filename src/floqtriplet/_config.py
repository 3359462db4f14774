"""The variational solver's settings, apart from the solver itself.

`variational` imports scipy.optimize; the CLI reads the defaults of its
`--restarts` and `--seed` options from `VariationalConfig` while it builds
the parser, so the class lives where that costs only the standard library.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class VariationalConfig:
    # random starts beyond one per Floquet state still to reach
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        try:
            object.__setattr__(self, "restarts", operator.index(self.restarts))
        except TypeError:
            raise ValueError(f"restarts must be an integer, got {self.restarts!r}") from None
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")

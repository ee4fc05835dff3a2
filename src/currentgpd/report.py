"""Machine-readable certificates and check records.

Certificates are first-class values: the negative results (winding
obstruction, equicontinuity failure, chart-component obstruction) are the
sharpest computable content and must survive serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def worst_residual(*residuals) -> float:
    """Largest magnitude over any mix of numbers and arrays; 0.0 for none.

    NaN in gives NaN out: one NaN entry anywhere makes the result NaN, so
    a check ``worst_residual(...) <= tol`` fails on it.  Values that are
    not NaN keep their bits.  Numbers take a plain Python path, which keeps
    the per-node checks cheap; arrays reduce with numpy.
    """
    out = 0.0
    for r in residuals:
        m = (abs(r) if isinstance(r, (float, int))
             else np.max(np.abs(r), initial=0.0))
        if m != m:
            return math.nan
        if m > out:
            out = m
    return float(out)


@dataclass
class Certificate:
    kind: str
    inputs: dict
    witness_data: dict
    verdict: str
    max_residual: float

    def to_dict(self):
        return {
            "kind": self.kind,
            "inputs": self.inputs,
            "witness_data": self.witness_data,
            "verdict": self.verdict,
            "max_residual": float(self.max_residual),
        }


@dataclass
class CheckRecord:
    check_name: str
    paper_anchor: str
    status: str              # "pass" | "fail" | "obstructed-as-expected"
    max_residual: float
    n_samples: int
    seed: int
    wall_time_ms: float = 0.0
    details: dict = field(default_factory=dict)
    certificates: list = field(default_factory=list)

    def to_dict(self):
        out = {
            "check_name": self.check_name,
            "paper_anchor": self.paper_anchor,
            "status": self.status,
            "max_residual": float(self.max_residual),
            "n_samples": int(self.n_samples),
            "seed": int(self.seed),
            "wall_time_ms": float(self.wall_time_ms),
        }
        if self.details:
            out["details"] = self.details
        if self.certificates:
            out["certificates"] = [c.to_dict() for c in self.certificates]
        return out

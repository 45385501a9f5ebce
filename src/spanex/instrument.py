"""Abstract operation counters.

Complexity claims are asserted over these counts rather than wall-clock
time, so CI timing noise cannot flip a test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class OpCounter:
    preprocess: int = 0      # list/node operations during evaluation
    enum_work: int = 0       # element visits, descents and pops while enumerating
    count_ops: int = 0       # counter-propagation steps while counting
    detail: Dict[str, int] = field(default_factory=dict)

    def note(self, key: str, amount: int = 1) -> None:
        self.detail[key] = self.detail.get(key, 0) + amount


@dataclass(frozen=True)
class DelayReport:
    """Instrumented enumeration profile for one evaluation."""

    outputs: int
    max_inter_output_work: int
    preprocessing_ops: int

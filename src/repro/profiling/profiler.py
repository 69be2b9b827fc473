"""cProfile-style aggregation of simulated software stacks.

The paper profiles 30 (RPi) / 1000 (TX2) inferences with Python's cProfile
and groups low-level functions into task buckets (Figure 5).  Our engine
computes those components individually; this module assembles them into the
same grouped view so fractions can be compared one-to-one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.summation import serial_sum


@dataclass(frozen=True)
class ProfileEntry:
    """One grouped row of the profile."""

    function: str  # the bucket label the paper uses (e.g. "conv2d")
    group: str  # "one-time" | "per-inference"
    total_s: float
    calls: int = 1

    @property
    def per_call_s(self) -> float:
        return self.total_s / max(1, self.calls)


@dataclass
class StackProfile:
    """A full profile of one (framework, device, model, n_inferences) run."""

    framework: str
    device: str
    model: str
    n_inferences: int
    entries: list[ProfileEntry] = field(default_factory=list)

    def add(self, function: str, group: str, total_s: float, calls: int = 1) -> None:
        if total_s < 0:
            raise ValueError(f"negative time for {function}: {total_s}")
        if total_s == 0:
            return  # cProfile would not show an unexecuted function
        self.entries.append(ProfileEntry(function, group, total_s, calls))

    @property
    def total_s(self) -> float:
        return serial_sum(entry.total_s for entry in self.entries)

    def fractions(self) -> dict[str, float]:
        """Bucket -> fraction of total profiled time (the pie of Figure 5)."""
        total = self.total_s
        if total == 0:
            return {}
        return {entry.function: entry.total_s / total for entry in self.entries}

    def fraction(self, function: str) -> float:
        return self.fractions().get(function, 0.0)

    def top(self, n: int = 5) -> list[ProfileEntry]:
        return sorted(self.entries, key=lambda e: e.total_s, reverse=True)[:n]

    def render(self) -> str:
        lines = [
            f"Stack profile: {self.model} / {self.framework} / {self.device} "
            f"({self.n_inferences} inferences, total {self.total_s:.1f} s)"
        ]
        for entry in self.top(len(self.entries)):
            lines.append(
                f"  {entry.function:28s} {entry.total_s:9.2f} s "
                f"({entry.total_s / self.total_s:6.1%})  [{entry.group}]"
            )
        return "\n".join(lines)

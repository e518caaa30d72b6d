"""The benchmark's workloads: `rctc sweep` configs that differ in which layer dominates.

Each config carries no seed line; the seed comes from the benchmark's
`--seed` argument and nowhere else. `parity_seed` is the seed the source
configuration ships with (the README and acceptance criterion 9), on which
the baseline counts in README.md were recorded. `held_out_seed` is kept back:
a claim made on other seeds is re-checked on it.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    parity_seed: int
    held_out_seed: int
    why: str

    def render(self, seed: int) -> str:
        return f"{self.config}seed = {seed}\n"

    def _values(self, key: str) -> list[str]:
        for line in self.config.splitlines():
            name, _, value = line.partition("=")
            if name.strip() == key:
                return [v.strip() for v in value.split(",")]
        raise KeyError(key)

    @property
    def kind(self) -> str:
        return self._values("kind")[0]

    @property
    def expected_rows(self) -> int:
        """p points x schemes: one CSV row each."""
        return len(self._values("p_grid")) * len(self._values("schemes"))


WORKLOADS = {w.name: w for w in (
    Workload(
        "source_sweep",
        "kind = source\n"
        "rho = 0.9\n"
        "source_variance = 1.0\n"
        "n = 6\n"
        "rate = 5\n"
        "delta = 0.05\n"
        "ts = 0.0125\n"
        "p_grid = 0.05, 0.1, 0.2, 0.3\n"
        "schemes = no_coding, plt, rtc_tc, rc_tc\n",
        parity_seed=1234, held_out_seed=5678,
        why="README source sweep: channel moments and design search dominate; "
            "no simulator, no Lloyd-Max"),
    Workload(
        "lqg_match",
        "kind = lqg\n"
        "n = 6\n"
        "rate = 8\n"
        "delta = 0.05\n"
        "p_grid = 0.005\n"
        "schemes = no_coding, plt, rtc_tc, rc_tc\n"
        "horizon = 400000\n",
        parity_seed=20240601, held_out_seed=20240611,
        why="criterion-9 LQG match at one p: the only workload running the "
            "closed-loop simulator, which takes the largest share"),
    Workload(
        "source_realized",
        "kind = source\n"
        "rho = 0.9\n"
        "source_variance = 1.0\n"
        "n = 4\n"
        "rate = 6\n"
        "delta = 0.05\n"
        "ts = 0.0125\n"
        "p_grid = 0.1, 0.3\n"
        "schemes = no_coding, plt, rtc_tc, rc_tc\n"
        "quantizer_mode = realized\n",
        parity_seed=1234, held_out_seed=8765,
        why="realized Lloyd-Max codebooks and searchsorted encode: codebook "
            "training dominates, channel and design are small"),
)}

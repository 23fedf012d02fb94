"""Campaign job specs: the unit of admission for the campaign scheduler.

A caller submits one :class:`JobSpec` — a (testers × engines × seeds)
grid description plus one :class:`repro.runtime.CellConfig` of campaign
options — and the scheduler decomposes it into
:class:`repro.runtime.CampaignCell`\\ s through the exact same
:func:`repro.experiments.campaign.campaign_grid_cells` path the inline
runner uses.  That sharing is the crash-recovery byte-identity contract in
miniature: a job re-derived from its journaled spec produces the *same*
cells with the *same* SHA-256 seeds, so a restarted scheduler re-runs
exactly the work the dead one had left.

Specs are flat JSON dicts in the journal: the grid keys beside the
:class:`~repro.runtime.CellConfig` fields.  :meth:`JobSpec.from_dict`
validates the grid keys and hands the rest to
:meth:`CellConfig.from_dict`; both raise :class:`ValueError`, so a
malformed submission is refused at admission, never a worker crash
later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.runtime.parallel import CellConfig

__all__ = ["JobSpec"]

_GRID_KEYS = ("testers", "engines", "seeds", "derive_seeds")
#: Per-cell budget of a spec that names none.
_DEFAULT_BUDGET_SECONDS = 30.0


def _tuple_of_str(value: Any, name: str, allowed: Iterable[str]
                  ) -> Tuple[str, ...]:
    if isinstance(value, str):
        value = [value]
    if (not isinstance(value, (list, tuple)) or not value
            or not all(isinstance(item, str) for item in value)):
        raise ValueError(f"{name} must be a non-empty list of strings")
    for item in value:
        if item not in allowed:
            raise ValueError(f"unknown {name[:-1]} {item!r}")
    return tuple(value)


@dataclass(frozen=True, init=False)
class JobSpec:
    """One submitted campaign grid: what to run, with which options.

    Constructed either with a *config* or with the flat
    :class:`~repro.runtime.CellConfig` keyword names (``budget_seconds``
    defaulting to 30 s), exactly as the journal dict spells them.
    """

    testers: Tuple[str, ...]
    engines: Tuple[str, ...]
    seeds: Tuple[int, ...]
    derive_seeds: bool
    config: CellConfig

    def __init__(
        self,
        testers: Iterable[str] = ("GQS",),
        engines: Iterable[str] = ("falkordb",),
        seeds: Iterable[int] = (0,),
        derive_seeds: bool = False,
        config: Optional[CellConfig] = None,
        **options: Any,
    ):
        if config is None:
            config = CellConfig(**{
                "budget_seconds": _DEFAULT_BUDGET_SECONDS, **options,
            })
        elif options:
            raise TypeError(
                f"option(s) {', '.join(sorted(options))} given with config"
            )
        for name, value in (("testers", tuple(testers)),
                            ("engines", tuple(engines)),
                            ("seeds", tuple(seeds)),
                            ("derive_seeds", derive_seeds),
                            ("config", config)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        """Validate and build a spec from a journal dict."""
        from repro.experiments.campaign import TESTER_NAMES
        from repro.gdb import ALL_ENGINE_NAMES

        if not isinstance(data, dict):
            raise ValueError("job spec must be a JSON object")
        config = CellConfig.from_dict({
            "budget_seconds": _DEFAULT_BUDGET_SECONDS,
            **{key: value for key, value in data.items()
               if key not in _GRID_KEYS},
        })
        testers = _tuple_of_str(data.get("testers", ("GQS",)), "testers",
                                TESTER_NAMES)
        engines = _tuple_of_str(data.get("engines", ("falkordb",)),
                                "engines", ALL_ENGINE_NAMES)
        seeds = data.get("seeds", (0,))
        if isinstance(seeds, int):
            seeds = [seeds]
        if (not isinstance(seeds, (list, tuple)) or not seeds
                or not all(isinstance(s, int) and not isinstance(s, bool)
                           for s in seeds)):
            raise ValueError("seeds must be a non-empty list of integers")
        derive_seeds = data.get("derive_seeds", False)
        if not isinstance(derive_seeds, bool):
            raise ValueError("derive_seeds must be true or false")
        return cls(testers, engines, seeds, derive_seeds, config)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready journal form (round-trips via from_dict)."""
        return {
            "testers": list(self.testers),
            "engines": list(self.engines),
            "seeds": list(self.seeds),
            "derive_seeds": self.derive_seeds,
            **self.config.to_dict(),
        }

    def worker_specs(self) -> List[Dict[str, Any]]:
        """The ``_run_cell`` worker spec of every cell (see :meth:`cells`)."""
        return [cell.worker_spec() for cell in self.cells()]

    def cells(self) -> List[Any]:
        """Decompose into grid cells — the same path the CLI grid takes.

        Unsupported (tester, engine) pairings are skipped exactly as
        :func:`campaign_grid_cells` skips them; an empty decomposition is
        rejected at admission so a job can never be accepted and then
        silently do nothing.
        """
        from repro.experiments.campaign import campaign_grid_cells

        cells = campaign_grid_cells(self.testers, self.engines, self.seeds,
                                    derive_seeds=self.derive_seeds,
                                    config=self.config)
        if not cells:
            raise ValueError(
                "job decomposes into no supported (tester, engine) cells"
            )
        return cells

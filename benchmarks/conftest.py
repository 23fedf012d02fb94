"""Shared fixtures for the benchmark/experiment harness.

Each ``bench_*`` module regenerates one table or figure from the paper's
evaluation (§5).  Campaign-style experiments are executed once per benchmark
(``rounds=1``) because they are end-to-end reproductions rather than
micro-benchmarks; their wall-clock time is still recorded by
pytest-benchmark.  Every benchmark prints its table/figure so that
``pytest benchmarks/ --benchmark-only -s`` doubles as the reproduction log.
"""

from __future__ import annotations

import os

import pytest


def bench_jobs() -> int:
    """Worker processes for campaign grids (``REPRO_BENCH_JOBS``, default 1).

    Campaign benchmarks run their (tester × engine × seed) grids through
    :class:`repro.runtime.ParallelCampaignRunner` on the campaign
    scheduler, with this many lease workers; results are identical for any
    jobs value, so this only trades wall-clock for cores.
    """
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def full_campaigns():
    """The compressed full GQS campaign, shared by Table 3/4 and Figures
    10-15 (the paper analyzes the same 36 bug-triggering queries in all of
    them)."""
    from repro.experiments import run_full_gqs_campaigns

    return run_full_gqs_campaigns(seed=0, jobs=bench_jobs())


@pytest.fixture(scope="session")
def day_campaigns():
    """The 24-hour-equivalent campaigns shared by Table 6 and Figure 18."""
    from repro.experiments import table6

    rows, campaigns = table6(seed=0, jobs=bench_jobs())
    return rows, campaigns

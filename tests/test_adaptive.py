"""Tests for coverage-guided adaptive synthesis (repro.runtime.adapt).

The acceptance bar for the feedback loop mirrors the runtime's general
determinism contract: the same cell seed must produce byte-identical event
streams and weight trajectories for any ``--jobs`` value, and a campaign
with adaptation *off* must be byte-identical to the blind baseline — the
policy-object widening of ``SessionPolicy`` may not perturb a single RNG
draw.
"""

import json
import random
import warnings

import pytest

from repro.core.reporting import campaign_to_dict, load_event_stream
from repro.core.runner import GQSTester
from repro.experiments.campaign import run_campaign_grid, run_tool_campaign
from repro.gdb import create_engine
from repro.runtime import (
    ADAPTIVE_STRATEGIES,
    AdaptivePolicy,
    AdaptiveSchedule,
    CampaignKernel,
    EventLog,
    FeatureArm,
    SessionPolicy,
    WeightProfile,
    attach_adaptive_policy,
    default_arms,
    merge_adaptation_snapshots,
)
from repro.runtime.adapt import derive_policy_seed

GATE = 0.05
BUDGET = 6.0


def grid_fingerprint(results):
    return json.dumps(
        {"|".join(map(str, key)): campaign_to_dict(result)
         for key, result in results.items()},
        sort_keys=True,
    )


class TestWeightProfile:
    def test_build_sorts_entries_for_deterministic_hashing(self):
        a = WeightProfile.build(scales={"b": 2.0, "a": 3.0})
        b = WeightProfile.build(scales={"a": 3.0, "b": 2.0})
        assert a == b and hash(a) == hash(b)
        assert a.scales == (("a", 3.0), ("b", 2.0))

    def test_merge_multiplies_scales_and_adds_bumps(self):
        merged = WeightProfile.merge([
            WeightProfile.build(scales={"p": 2.0}, bumps={"n": 1}),
            WeightProfile.build(scales={"p": 3.0}, bumps={"n": 2}),
        ])
        assert dict(merged.scales) == {"p": 6.0}
        assert dict(merged.bumps) == {"n": 3}

    def test_apply_synthesizer_caps_probabilities_and_copies(self):
        from repro.core.synthesizer import SynthesizerConfig

        config = SynthesizerConfig()
        profile = WeightProfile.build(
            scales={"union_probability": 1000.0},
            bumps={"expression_depth": 2},
        )
        out = profile.apply_synthesizer(config)
        assert out.union_probability == 0.95
        assert out.expression_depth == config.expression_depth + 2
        # The caller's config is never mutated.
        assert config.union_probability < 0.95

    def test_apply_generator_bumps_graph_knobs(self):
        from repro.graph.generator import GeneratorConfig

        config = GeneratorConfig(max_nodes=5, max_relationships=6)
        profile = WeightProfile.build(graph_bumps={"max_nodes": 4})
        assert profile.apply_generator(config).max_nodes == 9

    def test_unknown_knob_raises_instead_of_rotting(self):
        from repro.core.synthesizer import SynthesizerConfig

        profile = WeightProfile.build(scales={"renamed_probability": 2.0})
        with pytest.raises(AttributeError):
            profile.apply_synthesizer(SynthesizerConfig())

    def test_empty_profile_is_falsy(self):
        assert not WeightProfile()
        assert WeightProfile.build(bumps={"n": 1})


class TestPolicyAPI:
    def test_blind_policy_hooks_are_inert(self):
        policy = SessionPolicy.long_session()
        assert policy.adaptive is False
        assert policy.strategy is None
        policy.begin(7)
        assert policy.next_weights() is None
        policy.observe(None, None, [], novel=True, signature="sig")
        assert policy.snapshot() is None

    def test_keyword_construction_is_clean(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert SessionPolicy(restart_per_graph=True).restart_per_graph
            assert not SessionPolicy.long_session().restart_per_graph
            assert SessionPolicy.restart_each_graph().restart_per_graph
        with pytest.raises(TypeError):
            SessionPolicy(True)  # restart_per_graph is keyword-only

    def test_policy_equality_and_hash(self):
        assert SessionPolicy.long_session() == SessionPolicy.long_session()
        assert SessionPolicy.long_session() != SessionPolicy.restart_each_graph()
        assert hash(SessionPolicy.long_session()) == hash(SessionPolicy.long_session())
        # An adaptive policy never compares equal to a blind one.
        assert AdaptivePolicy("epsilon") != SessionPolicy.long_session()
        assert AdaptivePolicy("epsilon") == AdaptivePolicy("epsilon")
        assert AdaptivePolicy("epsilon") != AdaptivePolicy("ucb")

    def test_attach_preserves_declared_restart_behavior(self):
        tester = GQSTester()  # declares restart_each_graph
        policy = attach_adaptive_policy(tester, "ucb")
        assert tester.session is policy
        assert policy.adaptive is True
        assert policy.strategy == "ucb"
        assert policy.restart_per_graph is True

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown adaptive strategy"):
            AdaptiveSchedule("anneal")
        assert ADAPTIVE_STRATEGIES == ("epsilon", "ucb")


class TestScheduleDeterminism:
    def _drive(self, strategy, seed, rounds=30):
        schedule = AdaptiveSchedule(strategy)
        schedule.begin(seed)
        rng = random.Random(99)  # feedback stream, fixed across runs
        tags = [arm.name for arm in schedule.arms]
        for _ in range(rounds):
            schedule.next_weights()
            for _ in range(3):
                arm = schedule.arms[rng.randrange(len(schedule.arms))]
                schedule.observe(sorted(arm.tags)[:1], novel=rng.random() < 0.1)
        del tags
        return schedule.snapshot()

    def test_same_seed_same_trajectory(self):
        for strategy in ADAPTIVE_STRATEGIES:
            assert self._drive(strategy, 5) == self._drive(strategy, 5)

    def test_policy_rng_is_decorrelated_from_cell_seed(self):
        assert derive_policy_seed(0) != 0
        assert derive_policy_seed(0) != derive_policy_seed(1)
        # Pinned: a change here silently reshuffles every adaptive campaign.
        assert derive_policy_seed(0) == int.from_bytes(
            __import__("hashlib").sha256(b"adapt|0").digest()[:8], "big"
        )

    def test_ucb_draws_no_randomness(self):
        schedule = AdaptiveSchedule("ucb")
        schedule.begin(3)
        state = schedule._rng.getstate()
        for _ in range(10):
            schedule.next_weights()
        assert schedule._rng.getstate() == state

    def test_unexpressed_arms_are_probed_first(self):
        # UCB ranks pulls==0 arms infinitely urgent, ties by lowest index.
        schedule = AdaptiveSchedule("ucb", arms_per_round=2)
        schedule.begin(0)
        schedule.next_weights()
        assert schedule.history[0] == [
            schedule.arms[0].name, schedule.arms[1].name
        ]

    def test_reward_steers_exploitation(self):
        arms = (
            FeatureArm.build("cold", ["t:cold"], bumps={"extra_lists": 1}),
            FeatureArm.build("hot", ["t:hot"], bumps={"extra_lists": 2}),
        )
        schedule = AdaptiveSchedule("ucb", arms, arms_per_round=1)
        schedule.begin(0)
        for _ in range(20):
            schedule.observe(["t:hot"], novel=True)
            schedule.observe(["t:cold"], novel=False)
        schedule.next_weights()
        assert schedule.history[-1] == ["hot"]

    def test_begin_resets_all_state(self):
        schedule = AdaptiveSchedule("epsilon")
        schedule.begin(1)
        schedule.next_weights()
        schedule.observe(["clause:UNION"], novel=True)
        schedule.begin(1)
        snap = schedule.snapshot()
        assert snap["rounds"] == 0 and snap["observed"] == 0
        assert snap["novel"] == 0 and snap["history"] == []


class TestKernelIntegration:
    def _run(self, adaptive):
        log = EventLog()
        engine = create_engine("falkordb", gate_scale=GATE)
        tester = GQSTester()
        if adaptive:
            attach_adaptive_policy(tester, adaptive)
        result = CampaignKernel(events=log).run(
            tester, engine, BUDGET, seed=11
        )
        return result, log

    def test_adaptive_campaign_emits_adaptation_event(self):
        result, log = self._run("epsilon")
        (event,) = log.of_kind("adaptation")
        snap = event["snapshot"]
        assert snap["strategy"] == "epsilon"
        assert snap["observed"] == result.queries_run
        assert snap["rounds"] == len(snap["history"]) > 0
        assert set(snap["arms"]) == {arm.name for arm in default_arms()}

    def test_campaign_start_declares_strategy_only_when_adaptive(self):
        _, adaptive_log = self._run("ucb")
        (start,) = adaptive_log.of_kind("campaign_start")
        assert start["adaptive"] == "ucb"
        _, blind_log = self._run(None)
        (start,) = blind_log.of_kind("campaign_start")
        assert "adaptive" not in start
        assert blind_log.of_kind("adaptation") == []

    def test_adaptive_campaign_is_deterministic(self):
        first, first_log = self._run("epsilon")
        second, second_log = self._run("epsilon")
        assert campaign_to_dict(first) == campaign_to_dict(second)
        assert first_log.of_kind("adaptation") == second_log.of_kind("adaptation")

    def test_blind_run_matches_convenience_baseline(self):
        # Adaptation off: the widened policy API must reproduce the blind
        # kernel byte-for-byte, including through run_tool_campaign.
        direct = GQSTester().run(
            create_engine("falkordb", gate_scale=GATE), BUDGET, seed=11
        )
        via_campaign = run_tool_campaign(
            "GQS", "falkordb", budget_seconds=BUDGET, seed=11,
            gate_scale=GATE, adaptive=None,
        )
        assert campaign_to_dict(direct) == campaign_to_dict(via_campaign)

    def test_strategies_change_the_trajectory(self):
        _, eps_log = self._run("epsilon")
        _, ucb_log = self._run("ucb")
        (eps_event,) = eps_log.of_kind("adaptation")
        (ucb_event,) = ucb_log.of_kind("adaptation")
        assert eps_event["snapshot"]["history"] != ucb_event["snapshot"]["history"]


class TestGridDeterminism:
    def _grid(self, jobs, tmp_path, name, resume_path=None):
        log = tmp_path / f"{name}.jsonl"
        results = run_campaign_grid(
            ("GQS",), ("falkordb",), seeds=(0, 1), budget_seconds=BUDGET,
            gate_scale=GATE, jobs=jobs, events_path=log,
            adaptive="epsilon", resume_path=resume_path,
        )
        return results, load_event_stream(log)

    def test_jobs_1_and_jobs_2_byte_identical_with_adaptation(self, tmp_path):
        seq, seq_events = self._grid(1, tmp_path, "seq")
        par, par_events = self._grid(2, tmp_path, "par")
        assert grid_fingerprint(seq) == grid_fingerprint(par)
        # Weight trajectories (history) ride in the adaptation events.
        seq_adapt = [e for e in seq_events if e["event"] == "adaptation"]
        par_adapt = [e for e in par_events if e["event"] == "adaptation"]
        assert seq_adapt == par_adapt
        grid_rollups = [e for e in seq_adapt if e.get("scope") == "grid"]
        assert len(grid_rollups) == 1
        assert grid_rollups[0]["snapshot"]["cells"] == 2

    def test_adaptive_grid_resumes_deterministically(self, tmp_path):
        reference, ref_events = self._grid(1, tmp_path, "full")
        lines = (tmp_path / "full.jsonl").read_text().splitlines()
        cut = next(
            i for i, line in enumerate(lines)
            if json.loads(line)["event"] == "cell_complete"
        )
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(lines[: cut + 1]) + "\n")
        resumed, resumed_events = self._grid(
            1, tmp_path, "resumed", resume_path=partial
        )
        assert grid_fingerprint(resumed) == grid_fingerprint(reference)
        ref_rollup = [e for e in ref_events
                      if e["event"] == "adaptation" and e.get("scope") == "grid"]
        res_rollup = [e for e in resumed_events
                      if e["event"] == "adaptation" and e.get("scope") == "grid"]
        assert ref_rollup == res_rollup

    def test_adaptation_changes_what_the_grid_finds(self, tmp_path):
        blind = run_campaign_grid(
            ("GQS",), ("falkordb",), seeds=(0,), budget_seconds=BUDGET,
            gate_scale=GATE,
        )
        adaptive, _ = self._grid(1, tmp_path, "adaptive-only")
        key = ("GQS", "falkordb", 0)
        assert campaign_to_dict(blind[key]) != campaign_to_dict(adaptive[key])


class TestMergeAndRender:
    def test_merge_is_order_insensitive(self):
        a = {"tester": "GQS", "engine": "neo4j", "seed": 0, "strategy": "epsilon",
             "rounds": 3, "observed": 9, "novel": 2,
             "arms": {"union": {"pulls": 4, "reward": 1, "selected": 2}}}
        b = {"tester": "GQS", "engine": "falkordb", "seed": 1, "strategy": "epsilon",
             "rounds": 2, "observed": 6, "novel": 1,
             "arms": {"union": {"pulls": 1, "reward": 0, "selected": 1},
                      "limit": {"pulls": 2, "reward": 1, "selected": 1}}}
        merged = merge_adaptation_snapshots([a, b])
        assert merged == merge_adaptation_snapshots([b, a])
        assert merged["cells"] == 2
        assert merged["rounds"] == 5 and merged["observed"] == 15
        assert merged["arms"]["union"] == {
            "pulls": 5, "reward": 1, "selected": 3
        }
        assert list(merged["arms"]) == sorted(merged["arms"])
        assert merged["strategies"] == ["epsilon"]

    def test_stats_render_gains_adaptation_section(self):
        from repro.obs import render_stats

        log = EventLog()
        engine = create_engine("falkordb", gate_scale=GATE)
        tester = GQSTester()
        attach_adaptive_policy(tester, "epsilon")
        CampaignKernel(events=log).run(tester, engine, BUDGET, seed=2)
        text = render_stats(log.events)
        assert "== adaptation ==" in text
        assert "strategy: epsilon" in text
        assert "union" in text

    def test_blind_stats_render_has_no_adaptation_section(self):
        from repro.obs import render_stats

        log = EventLog()
        CampaignKernel(events=log).run(
            GQSTester(), create_engine("falkordb", gate_scale=GATE),
            BUDGET, seed=2,
        )
        assert "== adaptation ==" not in render_stats(log.events)

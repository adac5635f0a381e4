"""Unit tests for the Q-table, the agent, and the coherence policies.

The Q-table is also checked against a plain-float oracle of the paper's
update recurrence and its greedy/tie-break rule, and a seeded exploring
agent episode is pinned to a golden digest.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators.library import accelerator_by_name
from repro.core.agent import AgentConfig, QLearningAgent
from repro.core.policies import (
    CohmeleonPolicy,
    FixedHeterogeneousPolicy,
    FixedPolicy,
    ManualPolicy,
    RandomPolicy,
    make_policy,
)
from repro.core.profiling import (
    ProfileEntry,
    choose_fixed_heterogeneous,
    choose_mode_for_accelerator,
    profile_summary,
)
from repro.core.qtable import QTable
from repro.core.state import NUM_STATES, CoherenceState
from repro.errors import PolicyError
from repro.soc.coherence import COHERENCE_MODES, CoherenceMode
from repro.units import KB, MB
from repro.utils.rng import SeededRNG

from tests.test_state_reward import make_result, make_snapshot

pytestmark = pytest.mark.usefixtures("reference_core")


def make_request(footprint=16 * KB, accelerator="FFT", tile="acc0"):
    from repro.accelerators.invocation import InvocationRequest
    from repro.soc.address import Buffer, BufferSegment

    buffer = Buffer(name="b", size=footprint, segments=(BufferSegment(0, 0, footprint),))
    return InvocationRequest(
        accelerator=accelerator_by_name(accelerator),
        tile_name=tile,
        buffer=buffer,
        footprint_bytes=footprint,
    )


STATE0 = CoherenceState(0, 0, 0, 0, 0)


class TestQTable:
    def test_dimensions_match_paper(self):
        table = QTable()
        assert table.num_states == 243
        assert table.num_actions == 4
        assert table.values.size == 972

    def test_update_rule(self):
        table = QTable()
        value = table.update(STATE0, CoherenceMode.COH_DMA, reward=1.0, alpha=0.25)
        assert value == pytest.approx(0.25)
        value = table.update(STATE0, CoherenceMode.COH_DMA, reward=1.0, alpha=0.25)
        assert value == pytest.approx(0.4375)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(PolicyError):
            QTable().update(STATE0, CoherenceMode.COH_DMA, 1.0, alpha=1.5)

    def test_best_mode_prefers_highest_value(self):
        table = QTable()
        table.update(STATE0, CoherenceMode.LLC_COH_DMA, 1.0, 0.5)
        assert table.best_mode(STATE0) is CoherenceMode.LLC_COH_DMA

    def test_best_mode_respects_allowed_subset(self):
        table = QTable()
        table.update(STATE0, CoherenceMode.FULL_COH, 1.0, 0.5)
        best = table.best_mode(STATE0, allowed=[CoherenceMode.NON_COH_DMA, CoherenceMode.COH_DMA])
        assert best in (CoherenceMode.NON_COH_DMA, CoherenceMode.COH_DMA)

    def test_best_mode_tie_break_uses_rng(self):
        table = QTable()
        rng = SeededRNG(0)
        chosen = {table.best_mode(STATE0, rng=rng) for _ in range(40)}
        assert len(chosen) > 1

    def test_best_mode_empty_candidates_raises(self):
        with pytest.raises(PolicyError):
            QTable().best_mode(STATE0, allowed=[])

    def test_coverage_and_visited_states(self):
        table = QTable()
        assert table.coverage() == 0.0
        table.update(STATE0, CoherenceMode.COH_DMA, 1.0, 0.5)
        assert table.visited_states() == [0]
        assert table.coverage() == pytest.approx(1 / 243)

    def test_serialisation_roundtrip(self):
        table = QTable()
        table.update(STATE0, CoherenceMode.COH_DMA, 0.7, 0.25)
        restored = QTable.from_dict(table.to_dict())
        assert restored.value(STATE0, CoherenceMode.COH_DMA) == pytest.approx(
            table.value(STATE0, CoherenceMode.COH_DMA)
        )

    def test_from_dict_rejects_wrong_values_shape(self):
        payload = QTable().to_dict()
        payload["values"] = [[0.0] * 4] * 7
        with pytest.raises(PolicyError, match="shape"):
            QTable.from_dict(payload)

    def test_from_dict_rejects_wrong_updates_shape(self):
        """Regression: a mismatched updates matrix was silently accepted."""
        payload = QTable().to_dict()
        payload["updates"] = [[0] * 4] * 7
        with pytest.raises(PolicyError, match="update counts.*shape"):
            QTable.from_dict(payload)

    def test_from_dict_rejects_non_integer_updates(self):
        """Regression: float update counts corrupt visited_states()/coverage()."""
        table = QTable()
        table.update(STATE0, CoherenceMode.COH_DMA, 1.0, 0.5)
        payload = table.to_dict()
        payload["updates"][0][1] = 0.5
        with pytest.raises(PolicyError, match="not integers"):
            QTable.from_dict(payload)
        payload["updates"][0][1] = "three"
        with pytest.raises(PolicyError, match="not numeric"):
            QTable.from_dict(payload)
        payload["updates"][0][1] = -2
        with pytest.raises(PolicyError, match="negative"):
            QTable.from_dict(payload)

    def test_from_dict_rejects_non_finite_values(self):
        for poison in (float("nan"), float("inf"), float("-inf")):
            payload = QTable().to_dict()
            payload["values"][0][0] = poison
            with pytest.raises(PolicyError, match="non-finite"):
                QTable.from_dict(payload)

    def test_from_dict_rejects_missing_and_invalid_fields(self):
        payload = QTable().to_dict()
        del payload["updates"]
        with pytest.raises(PolicyError, match="updates"):
            QTable.from_dict(payload)
        payload = QTable().to_dict()
        payload["num_states"] = "many"
        with pytest.raises(PolicyError, match="num_states"):
            QTable.from_dict(payload)

    def test_from_dict_preserves_visited_states(self):
        table = QTable()
        table.update(STATE0, CoherenceMode.COH_DMA, 1.0, 0.5)
        table.update(5, CoherenceMode.FULL_COH, 0.5, 0.5)
        restored = QTable.from_dict(table.to_dict())
        assert restored.visited_states() == table.visited_states()
        assert restored.coverage() == table.coverage()
        assert (restored.update_counts() == table.update_counts()).all()

    def test_best_mode_exact_ties_only(self):
        """Tie detection is exact equality, independent of Q-value scale.

        The old absolute 1e-12 threshold merged near-ties at large
        magnitudes (consuming RNG draws that should not happen) and was
        never needed for genuine float-equal ties.  Near-equal values must
        deterministically pick the larger; exactly equal values tie.
        """
        table = QTable()
        # Near-tie below the old threshold: 5e-13 beats 0.0, but the old
        # `best - 1e-12` cutoff called them tied, consumed an RNG draw, and
        # could return the strictly worse mode.  (alpha=1.0 sets the entry
        # to exactly the reward.)
        table.update(0, COHERENCE_MODES[0], 5e-13, 1.0)
        rng = SeededRNG(0)
        before = rng.state()
        assert table.best_mode(STATE0, rng=rng) is COHERENCE_MODES[0]
        # No tie -> no RNG draw consumed (the committed determinism digests
        # depend on the exact draw sequence).
        assert rng.state() == before
        # Exactly equal values still tie and draw, at any magnitude.
        table.update(0, COHERENCE_MODES[0], 1e9, 1.0)
        table.update(0, COHERENCE_MODES[1], 1e9, 1.0)
        table.best_mode(STATE0, rng=rng)
        assert rng.state() != before

    def test_reset(self):
        table = QTable()
        table.update(STATE0, CoherenceMode.COH_DMA, 0.7, 0.25)
        table.reset()
        assert table.coverage() == 0.0

    def test_state_index_bounds(self):
        with pytest.raises(PolicyError):
            QTable().value(999, CoherenceMode.COH_DMA)

    def test_update_sequence_digest_is_pinned(self):
        """The exact float trajectory of a seeded 1k-step episode is frozen.

        Guards the float-accumulation hazard in the batched update path:
        the update rule is a sequential recurrence, so any reordering or
        algebraic regrouping (e.g. folding a batch into a cumulative
        product) changes IEEE-754 rounding and moves these digests;
        ``update_batch`` must land on the identical table as the per-step
        replay.
        """

        def episode_args():
            rng = SeededRNG(1234)
            for step in range(1000):
                state = rng.randint(0, NUM_STATES - 1)
                mode = COHERENCE_MODES[rng.randint(0, 3)]
                reward = rng.uniform(-2.0, 2.0)
                yield state, mode, reward, 0.25 * (1.0 - step / 1000)

        table = QTable()
        trace = [table.update(*args) for args in episode_args()]
        # repr() is the shortest round-trip form, so the digest pins every
        # bit of every intermediate value, not just the final table.
        sequence_digest = hashlib.sha256(
            json.dumps([repr(value) for value in trace]).encode()
        ).hexdigest()[:16]
        table_digest = hashlib.sha256(
            json.dumps(table.to_dict(), sort_keys=True).encode()
        ).hexdigest()[:16]
        assert sequence_digest == "f18e3e629c834026"
        assert table_digest == "02d1125c3a155644"

        batched = QTable()
        args = list(episode_args())
        batched.update_batch(
            [state for state, _, _, _ in args],
            [mode for _, mode, _, _ in args],
            [reward for _, _, reward, _ in args],
            [alpha for _, _, _, alpha in args],
        )
        assert batched.to_dict() == table.to_dict()

    def test_update_batch_validates_inputs(self):
        table = QTable()
        # Mismatched sequence lengths.
        with pytest.raises(PolicyError):
            table.update_batch([0, 1], [CoherenceMode.COH_DMA], [1.0], [0.5])
        # Out-of-range learning rate.
        with pytest.raises(PolicyError):
            table.update_batch([0], [CoherenceMode.COH_DMA], [1.0], [1.5])

    def test_rejected_batch_leaves_the_table_unchanged(self):
        # The whole batch is checked before any of it is applied: a bad
        # state or learning rate late in the batch must not leave the
        # earlier updates behind.
        table = QTable()
        before = table.to_dict()
        modes = [CoherenceMode.COH_DMA] * 2
        with pytest.raises(PolicyError, match="out of range"):
            table.update_batch([0, 999], modes, [1.0, 1.0], [0.5, 0.5])
        with pytest.raises(PolicyError, match="learning rate"):
            table.update_batch([0, 1], modes, [1.0, 1.0], [0.5, 1.5])
        assert table.to_dict() == before

    def test_from_dict_never_writes_into_the_payload(self):
        values = np.zeros((NUM_STATES, len(COHERENCE_MODES)))
        updates = np.zeros((NUM_STATES, len(COHERENCE_MODES)), dtype=np.int64)
        table = QTable.from_dict(
            {"num_states": NUM_STATES, "values": values, "updates": updates}
        )
        table.update(STATE0, CoherenceMode.COH_DMA, 1.0, 0.5)
        table.reset(initial_value=3.0)
        assert not values.any() and not updates.any()


#: One TD update: (state, mode index, reward, alpha).
update_strategy = st.tuples(
    st.integers(min_value=0, max_value=NUM_STATES - 1),
    st.integers(min_value=0, max_value=len(COHERENCE_MODES) - 1),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False),
)

episode_strategy = st.lists(update_strategy, min_size=1, max_size=120)


def _oracle(episode):
    """Replay ``episode`` with the paper's recurrence over plain-float rows.

    Returns the table in :meth:`QTable.to_dict` form and the value each
    update produced.
    """
    values = [[0.0] * len(COHERENCE_MODES) for _ in range(NUM_STATES)]
    counts = [[0] * len(COHERENCE_MODES) for _ in range(NUM_STATES)]
    produced = []
    for state, a, reward, alpha in episode:
        values[state][a] = (1.0 - alpha) * values[state][a] + alpha * reward
        counts[state][a] += 1
        produced.append(values[state][a])
    return {"num_states": NUM_STATES, "values": values, "updates": counts}, produced


def _trained(episode):
    table = QTable()
    produced = [
        table.update(state, COHERENCE_MODES[a], reward, alpha)
        for state, a, reward, alpha in episode
    ]
    return table, produced


class TestQTableOracle:
    """The dense table against the plain-float oracle."""

    @given(episode=episode_strategy)
    @settings(max_examples=60, deadline=None)
    def test_updates_follow_the_recurrence(self, episode):
        table, produced = _trained(episode)
        assert (table.to_dict(), produced) == _oracle(episode)

    @given(episode=episode_strategy)
    @settings(max_examples=60, deadline=None)
    def test_update_batch_follows_the_recurrence(self, episode):
        table = QTable()
        states, mode_indices, rewards, alphas = map(list, zip(*episode))
        table.update_batch(
            states, [COHERENCE_MODES[a] for a in mode_indices], rewards, alphas
        )
        assert table.to_dict() == _oracle(episode)[0]

    @given(episode=episode_strategy, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_greedy_choices_and_tie_draws_follow_the_rule(self, episode, seed):
        # Ties draw rng.choice over the maximal modes in canonical order;
        # without an rng (and in best_modes) the first maximal mode wins.
        table, _ = _trained(episode)
        rows = _oracle(episode)[0]["values"]
        rng, oracle_rng = SeededRNG(seed), SeededRNG(seed)
        for state, row in enumerate(rows):
            maximal = [mode for mode, value in zip(COHERENCE_MODES, row) if value == max(row)]
            expected = oracle_rng.choice(maximal) if len(maximal) > 1 else maximal[0]
            assert table.best_mode(state, rng=rng) is expected
            assert table.best_mode(state) is maximal[0]
        assert rng.export_state() == oracle_rng.export_state()
        states = list(range(NUM_STATES))
        assert table.best_modes(states) == [table.best_mode(state) for state in states]


class TestAgent:
    def test_paper_hyperparameters_default(self):
        agent = QLearningAgent()
        assert agent.epsilon == pytest.approx(0.5)
        assert agent.alpha == pytest.approx(0.25)

    def test_linear_decay(self):
        agent = QLearningAgent()
        agent.set_training_progress(0.5)
        assert agent.epsilon == pytest.approx(0.25)
        assert agent.alpha == pytest.approx(0.125)
        agent.set_training_progress(1.0)
        assert agent.epsilon == 0.0

    def test_freeze_stops_learning(self):
        agent = QLearningAgent()
        agent.freeze()
        agent.update(STATE0, CoherenceMode.COH_DMA, 1.0)
        assert agent.qtable.value(STATE0, CoherenceMode.COH_DMA) == 0.0
        assert agent.updates == 0

    def test_unfreeze_restores_hyperparameters(self):
        agent = QLearningAgent()
        agent.freeze()
        agent.unfreeze()
        assert agent.epsilon == pytest.approx(0.5)
        assert agent.learning_enabled

    def test_exploitation_prefers_learned_action(self):
        agent = QLearningAgent(rng=SeededRNG(1))
        agent.update(STATE0, CoherenceMode.LLC_COH_DMA, 1.0)
        agent.freeze()
        assert agent.select_action(STATE0) is CoherenceMode.LLC_COH_DMA

    def test_exploration_reaches_all_actions(self):
        agent = QLearningAgent(AgentConfig(initial_epsilon=1.0), rng=SeededRNG(2))
        chosen = {agent.select_action(STATE0) for _ in range(60)}
        assert chosen == set(COHERENCE_MODES)

    def test_select_respects_allowed(self):
        agent = QLearningAgent(AgentConfig(initial_epsilon=1.0), rng=SeededRNG(3))
        allowed = [CoherenceMode.NON_COH_DMA, CoherenceMode.COH_DMA]
        assert all(agent.select_action(STATE0, allowed) in allowed for _ in range(20))

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(PolicyError):
            AgentConfig(initial_epsilon=1.5)

    def test_summary_counters(self):
        agent = QLearningAgent(rng=SeededRNG(4))
        agent.select_action(STATE0)
        agent.update(STATE0, CoherenceMode.COH_DMA, 0.5)
        summary = agent.summary()
        assert summary["decisions"] == 1
        assert summary["updates"] == 1

    def test_exploring_episode_digest_is_pinned(self):
        """A seeded epsilon-greedy episode is frozen, RNG draws included.

        Exploration draws, tie draws on unvisited states, and decayed
        updates all feed the digest, so a change to any of them moves it.
        """
        rng = SeededRNG(2026)
        agent = QLearningAgent(AgentConfig(), rng=SeededRNG(7))
        steps = 400
        for step in range(steps):
            agent.set_training_progress(step / steps)
            state = rng.randint(0, NUM_STATES - 1)
            mode = agent.select_action(state)
            agent.update(state, mode, rng.uniform(-10.0, 10.0))
        payload = {
            "table": agent.qtable.to_dict(),
            "summary": agent.summary(),
            "rng": agent.rng.export_state(),
        }
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        assert digest == "0ce1cc156ed116c3042dc1c12a2e23580c3c80ad6d8ff76927c944a64736aee4"


class TestFixedPolicies:
    def test_fixed_policy_returns_mode(self):
        policy = FixedPolicy(CoherenceMode.LLC_COH_DMA)
        mode = policy.select_mode(make_snapshot(), make_request(), list(COHERENCE_MODES))
        assert mode is CoherenceMode.LLC_COH_DMA
        assert policy.name == "fixed-llc-coh-dma"

    def test_fixed_full_coh_falls_back_without_private_cache(self):
        policy = FixedPolicy(CoherenceMode.FULL_COH)
        supported = [m for m in COHERENCE_MODES if m is not CoherenceMode.FULL_COH]
        assert policy.select_mode(make_snapshot(), make_request(), supported) is CoherenceMode.COH_DMA

    def test_fixed_hetero_uses_per_accelerator_mode(self):
        policy = FixedHeterogeneousPolicy({"FFT": CoherenceMode.FULL_COH})
        mode = policy.select_mode(make_snapshot(), make_request("FFT" and 16 * KB), list(COHERENCE_MODES))
        assert mode is CoherenceMode.FULL_COH

    def test_fixed_hetero_default_mode(self):
        policy = FixedHeterogeneousPolicy({}, default_mode=CoherenceMode.LLC_COH_DMA)
        mode = policy.select_mode(make_snapshot(), make_request(), list(COHERENCE_MODES))
        assert mode is CoherenceMode.LLC_COH_DMA

    def test_random_policy_covers_supported_modes(self):
        policy = RandomPolicy(SeededRNG(5))
        modes = {
            policy.select_mode(make_snapshot(), make_request(), list(COHERENCE_MODES))
            for _ in range(50)
        }
        assert modes == set(COHERENCE_MODES)

    def test_random_policy_empty_supported_raises(self):
        with pytest.raises(PolicyError):
            RandomPolicy(SeededRNG(5)).select_mode(make_snapshot(), make_request(), [])


class TestManualPolicy:
    def choose(self, footprint, **snapshot_overrides):
        policy = ManualPolicy()
        snapshot = make_snapshot(target_footprint_bytes=footprint, **snapshot_overrides)
        return policy.select_mode(snapshot, make_request(max(footprint, 1)), list(COHERENCE_MODES))

    def test_extra_small_goes_fully_coherent(self):
        assert self.choose(2 * KB) is CoherenceMode.FULL_COH

    def test_l2_sized_depends_on_active_modes(self):
        assert self.choose(24 * KB) is CoherenceMode.COH_DMA
        busy = {m.label: 0 for m in CoherenceMode}
        busy[CoherenceMode.COH_DMA.label] = 2
        assert self.choose(24 * KB, active_per_mode=busy) is CoherenceMode.FULL_COH

    def test_llc_overflow_goes_non_coherent(self):
        assert self.choose(2 * MB) is CoherenceMode.NON_COH_DMA
        assert (
            self.choose(300 * KB, active_footprint_bytes=1 * MB)
            is CoherenceMode.NON_COH_DMA
        )

    def test_mid_size_prefers_coherent_dma(self):
        assert self.choose(200 * KB) is CoherenceMode.COH_DMA

    def test_mid_size_avoids_non_coherent_crowd(self):
        busy = {m.label: 0 for m in CoherenceMode}
        busy[CoherenceMode.NON_COH_DMA.label] = 2
        assert self.choose(200 * KB, active_per_mode=busy) is CoherenceMode.LLC_COH_DMA


class TestCohmeleonPolicy:
    def test_learning_updates_qtable(self):
        policy = CohmeleonPolicy(rng=SeededRNG(6))
        request = make_request()
        snapshot = make_snapshot()
        mode = policy.select_mode(snapshot, request, list(COHERENCE_MODES))
        policy.observe_result(request, mode, snapshot, make_result())
        assert policy.agent.updates == 1
        assert len(policy.decisions) == 1
        assert policy.decisions[0].reward > 0.0

    def test_freeze_and_unfreeze(self):
        policy = CohmeleonPolicy(rng=SeededRNG(7))
        policy.freeze()
        assert policy.agent.epsilon == 0.0
        policy.unfreeze()
        assert policy.agent.epsilon == pytest.approx(0.5)

    def test_decision_breakdown_counts(self):
        policy = CohmeleonPolicy(rng=SeededRNG(8))
        request = make_request()
        snapshot = make_snapshot()
        for _ in range(10):
            policy.select_mode(snapshot, request, list(COHERENCE_MODES))
        breakdown = policy.decision_breakdown()
        assert sum(breakdown.values()) == 10

    def test_clear_history_keeps_qtable(self):
        policy = CohmeleonPolicy(rng=SeededRNG(9))
        request = make_request()
        snapshot = make_snapshot()
        mode = policy.select_mode(snapshot, request, list(COHERENCE_MODES))
        policy.observe_result(request, mode, snapshot, make_result())
        policy.clear_history()
        assert policy.decisions == []
        assert policy.qtable.coverage() > 0.0

    def test_overhead_larger_than_fixed_policies(self):
        assert CohmeleonPolicy.overhead_cycles > FixedPolicy.overhead_cycles


class TestPolicyFactory:
    def test_make_all_standard_kinds(self):
        for kind in (
            "fixed-non-coh-dma",
            "fixed-llc-coh-dma",
            "fixed-coh-dma",
            "fixed-full-coh",
            "fixed-hetero",
            "rand",
            "manual",
            "cohmeleon",
        ):
            policy = make_policy(kind, rng=SeededRNG(0))
            assert policy.name in (kind, f"{kind}")

    def test_unknown_kind_raises(self):
        with pytest.raises(PolicyError):
            make_policy("oracle")


class TestProfiling:
    def entries(self):
        return [
            ProfileEntry("FFT", CoherenceMode.NON_COH_DMA, 16 * KB, 2000.0, 100.0),
            ProfileEntry("FFT", CoherenceMode.COH_DMA, 16 * KB, 1000.0, 0.0),
            ProfileEntry("FFT", CoherenceMode.NON_COH_DMA, 4 * MB, 10000.0, 500.0),
            ProfileEntry("FFT", CoherenceMode.COH_DMA, 4 * MB, 30000.0, 600.0),
        ]

    def test_choose_mode_balances_footprints(self):
        # COH_DMA wins small (2x), NON_COH wins large (3x): NON_COH has the
        # better geometric mean across the two footprints.
        assert choose_mode_for_accelerator(self.entries()) is CoherenceMode.NON_COH_DMA

    def test_choose_fixed_heterogeneous_per_accelerator(self):
        entries = self.entries() + [
            ProfileEntry("GEMM", CoherenceMode.FULL_COH, 16 * KB, 500.0, 0.0),
            ProfileEntry("GEMM", CoherenceMode.NON_COH_DMA, 16 * KB, 1500.0, 10.0),
        ]
        modes = choose_fixed_heterogeneous(entries)
        assert modes["GEMM"] is CoherenceMode.FULL_COH

    def test_empty_profile_raises(self):
        with pytest.raises(PolicyError):
            choose_mode_for_accelerator([])

    def test_profile_summary_contains_all_modes_seen(self):
        summary = profile_summary(self.entries())
        assert set(summary["FFT"]) == {"non-coh-dma", "coh-dma"}

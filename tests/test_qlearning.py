"""Unit tests for the Q-table, the agent, and the coherence policies.

The Q-table is also checked against a plain-float oracle of the paper's
update recurrence and its greedy/tie-break rule, and a seeded exploring
agent episode is pinned to a golden digest.
"""

from __future__ import annotations

import copy
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
)
from repro.core.profiling import (
    ProfileEntry,
    choose_fixed_heterogeneous,
    choose_mode_for_accelerator,
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
        assert [len(row) for row in table.values] == [4] * 243

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
        assert restored.update_counts() == table.update_counts()

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

        Guards the float-accumulation hazard of the update rule: it is a
        sequential recurrence, so any reordering or algebraic regrouping
        (e.g. folding a run of updates into a cumulative product) changes
        IEEE-754 rounding and moves these digests.
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

    @pytest.mark.parametrize("poison", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_reward_is_rejected(self, poison):
        table = QTable()
        table.update(STATE0, CoherenceMode.COH_DMA, 1.0, 0.5)
        before = table.to_dict()
        with pytest.raises(PolicyError, match="reward must be finite"):
            table.update(STATE0, CoherenceMode.COH_DMA, poison, 0.5)
        assert table.to_dict() == before

    def test_deep_copy_shares_no_row(self):
        table = QTable()
        table.update(STATE0, CoherenceMode.COH_DMA, 1.0, 0.5)
        before = table.to_dict()
        clone = copy.deepcopy(table)
        assert clone.to_dict() == before
        rows = {id(row) for row in table._values + table._updates}
        assert rows.isdisjoint(id(row) for row in clone._values + clone._updates)
        clone.update(STATE0, CoherenceMode.COH_DMA, 0.0, 1.0)
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


def _numpy_episode(episode):
    """Replay ``episode`` on float64/int64 matrices with the update expression
    the table used while it stored numpy arrays."""
    values = np.zeros((NUM_STATES, len(COHERENCE_MODES)))
    updates = np.zeros((NUM_STATES, len(COHERENCE_MODES)), dtype=np.int64)
    for state, a, reward, alpha in episode:
        values[state, a] = (1.0 - alpha) * values[state, a] + alpha * float(reward)
        updates[state, a] += 1
    return values, updates


def _numpy_from_dict(payload):
    """The tables the numpy-backed ``from_dict`` built, or ``None`` where it
    rejected the payload (its validation, step for step; an int too large
    for a float escaped it as a bare ``OverflowError``)."""
    try:
        num_states = int(payload["num_states"])
        values = np.array(payload["values"], dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    shape = (num_states, len(COHERENCE_MODES))
    if num_states <= 0 or values.shape != shape or not np.isfinite(values).all():
        return None
    try:
        updates_raw = np.asarray(payload["updates"])
    except (TypeError, ValueError):
        return None
    if updates_raw.shape != shape or not np.issubdtype(updates_raw.dtype, np.number):
        return None
    as_float = np.asarray(updates_raw, dtype=float)
    if not np.isfinite(as_float).all():
        return None
    with np.errstate(invalid="ignore"):  # a count past int64 wraps on the cast
        updates = np.array(updates_raw, dtype=np.int64)
    if (as_float != updates).any() or (updates < 0).any():
        return None
    return values.tolist(), updates.tolist()


#: Exactly representable rewards and rates, so episodes hit exact ties.
tie_update_strategy = st.tuples(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=len(COHERENCE_MODES) - 1),
    st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
    st.sampled_from([0.5, 1.0]),
)


def _payload(values=None, updates=None, num_states=NUM_STATES):
    """A serialised untrained table with some entries, or whole matrices, replaced."""
    payload = QTable(int(num_states)).to_dict()
    payload["num_states"] = num_states
    for key, override in (("values", values), ("updates", updates)):
        if isinstance(override, dict):
            for (row, column), item in override.items():
                payload[key][row][column] = item
        elif override is not None:
            payload[key] = override
    return payload


def _rows(count, row):
    return [list(row) for _ in range(count)]


#: Serialised tables the numpy validation accepted or rejected, by id.
FROM_DICT_PAYLOADS = {
    "valid": _payload(),
    "trained": _trained(
        [(3, 1, 0.7, 0.25), (3, 1, -0.2, 0.5), (9, 0, 1.0, 1.0)]
    )[0].to_dict(),
    "numeric-strings": _payload(
        values={(0, 0): "1.5", (0, 1): " 7 ", (1, 2): "1e3", (2, 3): "-2"}
    ),
    "non-numeric-string": _payload(values={(0, 0): "abc"}),
    "empty-string": _payload(values={(3, 1): ""}),
    "two-dots": _payload(values={(0, 0): "1.5.2"}),
    "bool-values": _payload(values={(0, 0): True, (0, 1): False}),
    "all-bool-values": _payload(values=_rows(NUM_STATES, [True, False, True, False])),
    "none-value": _payload(values={(0, 0): None}),
    "nan-value": _payload(values={(0, 0): float("nan")}),
    "inf-value": _payload(values={(5, 2): float("inf")}),
    "minus-inf-value": _payload(values={(5, 2): float("-inf")}),
    "nan-string": _payload(values={(0, 0): "nan"}),
    "huge-int-value": _payload(values={(0, 0): 10**400}),
    "dict-value": _payload(values={(0, 0): {}}),
    "bool-count": _payload(updates={(0, 0): True}),
    "all-bool-counts": _payload(updates=_rows(NUM_STATES, [True, False, False, True])),
    "integral-float-count": _payload(updates={(0, 0): 2.0}),
    "fractional-count": _payload(updates={(0, 1): 0.5}),
    "nan-count": _payload(updates={(0, 1): float("nan")}),
    "inf-count": _payload(updates={(0, 1): float("inf")}),
    "negative-count": _payload(updates={(0, 1): -2}),
    "negative-float-count": _payload(updates={(0, 1): -1.0}),
    "numeric-string-count": _payload(updates={(0, 1): "3"}),
    "string-count": _payload(updates={(0, 1): "three"}),
    "none-count": _payload(updates={(0, 1): None}),
    "int64-overflow-count": _payload(updates={(0, 1): 2**63}),
    "largest-int64-count": _payload(updates={(0, 1): 2**63 - 1}),
    "too-few-rows": _payload(values=_rows(7, [0.0] * 4)),
    "too-few-count-rows": _payload(updates=_rows(7, [0] * 4)),
    "too-many-columns": _payload(values=_rows(NUM_STATES, [0.0] * 5)),
    "three-dimensional": _payload(values=_rows(NUM_STATES, [[0.0]] * 4)),
    "flat-values": _payload(values=[0.0] * (NUM_STATES * 4)),
    "scalar-values": _payload(values=0.0),
    "string-values": _payload(values="0" * (NUM_STATES * 4)),
    "string-rows": _payload(values=["1234"] * NUM_STATES),
    "ragged-values": _payload(values=_rows(NUM_STATES - 1, [0.0] * 4) + [[0.0] * 3]),
    "ragged-counts": _payload(updates=_rows(NUM_STATES - 1, [0] * 4) + [[0] * 5]),
    "tuples": _payload(values=tuple((1.0, 2.0, 3.0, 4.0) for _ in range(NUM_STATES))),
    "arrays": _payload(
        values=np.arange(NUM_STATES * 4, dtype=float).reshape(NUM_STATES, 4),
        updates=np.ones((NUM_STATES, 4), dtype=np.int64),
    ),
    "bool-array-counts": _payload(updates=np.ones((NUM_STATES, 4), dtype=bool)),
    "zero-dim-array": _payload(values=np.array(1.0)),
    "num-states-string": _payload(num_states="243"),
    "fewer-states": _payload(num_states=2),
    "num-states-mismatch": dict(_payload(), num_states=NUM_STATES + 1),
}


class TestQTableAgainstNumpy:
    """The list-backed table reproduces the float64 matrices it replaced,
    bit for bit: values, counts, greedy choices and the persisted form."""

    @given(episode=st.lists(st.one_of(update_strategy, tie_update_strategy), max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_episodes_match_the_float64_matrices(self, episode):
        values, updates = _numpy_episode(episode)
        table, _ = _trained(episode)
        assert table.values == values.tolist()
        assert table.update_counts() == updates.tolist()
        greedy = [COHERENCE_MODES[int(i)] for i in np.argmax(values, axis=1)]
        assert table.best_modes(range(NUM_STATES)) == greedy
        reference = {
            "num_states": NUM_STATES,
            "values": values.tolist(),
            "updates": updates.tolist(),
        }
        assert json.dumps(table.to_dict(), sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    @pytest.mark.parametrize("name", sorted(FROM_DICT_PAYLOADS))
    def test_from_dict_accepts_what_numpy_accepted(self, name):
        payload = FROM_DICT_PAYLOADS[name]
        expected = _numpy_from_dict(payload)
        try:
            table = QTable.from_dict(payload)
        except PolicyError:
            assert expected is None, f"{name} was accepted before"
        else:
            assert expected is not None, f"{name} was rejected before"
            assert (table.values, table.update_counts()) == expected


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

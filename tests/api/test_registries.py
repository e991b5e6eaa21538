"""Strategy/cost-model registries: built-ins, errors, third-party plug-in.

The acceptance bar: a strategy and a cost model registered here — without
touching ``repro.optimizer.driver`` — must be selectable by name through
:class:`OptimizerConfig` and produce plans through the session.
"""

import random

import pytest

from repro.api import (
    COST_MODELS,
    STRATEGIES,
    CostModel,
    OptimizerConfig,
    PlannerSession,
    Strategy,
)
from repro.optimizer.strategies import (
    DphypStrategy,
    EaAllStrategy,
    EaPruneStrategy,
    H1Strategy,
    H2Strategy,
)
from repro.service.fingerprint import cache_key
from repro.workload import generate_query

BUILTINS = ("dphyp", "ea-all", "ea-prune", "h1", "h2")


class TestStrategyRegistry:
    def test_builtins_registered_in_order(self):
        assert STRATEGIES.names()[:5] == BUILTINS

    def test_create_builds_each_builtin(self):
        assert isinstance(STRATEGIES.create("dphyp"), DphypStrategy)
        assert isinstance(STRATEGIES.create("ea-all"), EaAllStrategy)
        assert isinstance(STRATEGIES.create("ea-prune"), EaPruneStrategy)
        assert isinstance(STRATEGIES.create("h1"), H1Strategy)
        assert isinstance(STRATEGIES.create("h2", factor=1.2), H2Strategy)
        assert STRATEGIES.create("h2", factor=1.2).factor == 1.2

    def test_aliases_and_case(self):
        assert isinstance(STRATEGIES.create("PRUNE"), EaPruneStrategy)
        assert isinstance(STRATEGIES.create("ea_all"), EaAllStrategy)
        # aliases resolve but stay out of the primary listing
        assert "all" in STRATEGIES
        assert "all" not in STRATEGIES.names()

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy 'magic'.*registered:"):
            STRATEGIES.create("magic")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            STRATEGIES.register("dphyp")(lambda **_: DphypStrategy())

    def test_replace_opt_in(self):
        original = STRATEGIES._factories["dphyp"]
        try:
            STRATEGIES.register("dphyp", replace=True)(lambda **_: H1Strategy())
            assert isinstance(STRATEGIES.create("dphyp"), H1Strategy)
        finally:
            STRATEGIES.register("dphyp", replace=True)(original)
        assert isinstance(STRATEGIES.create("dphyp"), DphypStrategy)

    def test_replace_retires_old_aliases(self):
        from repro.optimizer.registry import StrategyRegistry

        registry = StrategyRegistry()
        registry.register("mine", "my-alias")(lambda **_: DphypStrategy())
        registry.register("mine", "mk2", replace=True)(lambda **_: H1Strategy())
        # the stale alias must not keep resolving to the replaced factory
        assert "my-alias" not in registry
        assert isinstance(registry.create("mine"), H1Strategy)
        assert isinstance(registry.create("mk2"), H1Strategy)
        assert registry.names() == ("mine",)

    def test_replace_through_an_alias_is_rejected(self):
        from repro.optimizer.registry import StrategyRegistry

        registry = StrategyRegistry()
        registry.register("mine", "my-alias")(lambda **_: DphypStrategy())
        with pytest.raises(ValueError, match="alias"):
            registry.register("my-alias", replace=True)(lambda **_: H1Strategy())


class TestCostModelRegistry:
    def test_cout_registered(self):
        assert "cout" in COST_MODELS
        assert COST_MODELS.names()[0] == "cout"
        assert COST_MODELS.create("cout").name == "cout"

    def test_unknown_cost_model(self):
        with pytest.raises(ValueError, match="unknown cost model"):
            COST_MODELS.create("free-lunch")


# -- third-party plug-ins (registered once, used by the tests below) ---------


class KeepCheapestStrategy(Strategy):
    """A minimal third-party strategy: single cheapest plan per class."""

    name = "keep-cheapest-test"

    def insert(self, bucket, plan):
        if bucket and not plan.cost < bucket[0].cost:
            return False
        bucket[:] = [plan]
        return True


class PaidScansModel(CostModel):
    """Cout plus a charge for every scanned row."""

    name = "paid-scans-test"

    def scan(self, cardinality):
        return cardinality

    def join(self, op, output_cardinality, left, right):
        return output_cardinality

    def group(self, output_cardinality, child):
        return output_cardinality


if "keep-cheapest-test" not in STRATEGIES:
    STRATEGIES.register("keep-cheapest-test")(lambda **_: KeepCheapestStrategy())
if "paid-scans-test" not in COST_MODELS:
    COST_MODELS.register("paid-scans-test")(PaidScansModel)


@pytest.fixture
def query():
    return generate_query(4, random.Random(7))


class TestThirdPartyPlugins:
    def test_strategy_selected_by_name_through_config(self, query):
        session = PlannerSession(
            config=OptimizerConfig(strategy="keep-cheapest-test", cache_capacity=None)
        )
        handle = session.optimize(query)
        assert handle.strategy == "keep-cheapest-test"
        # keeping one plan per class is a heuristic: never below the optimum
        optimal = session.optimize(query, strategy="ea-prune")
        assert handle.cost >= optimal.cost * (1 - 1e-9)

    def test_cost_model_selected_by_name_through_config(self, query):
        session = PlannerSession(config=OptimizerConfig(cache_capacity=None))
        cout = session.optimize(query)
        paid = session.optimize(query, cost_model="paid-scans-test")
        # scans now cost their cardinality, so every plan got strictly dearer
        assert paid.cost > cout.cost

    def test_cost_models_never_share_cache_entries(self, query):
        default = cache_key(query, "ea-prune")
        paid = cache_key(query, "ea-prune", cost_model="paid-scans-test")
        assert default != paid
        assert default.digest() != paid.digest()

    def test_session_cache_keeps_models_separate(self, query):
        session = PlannerSession(config=OptimizerConfig(cache_capacity=8))
        first = session.optimize(query)
        other_model = session.optimize(query, cost_model="paid-scans-test")
        assert not other_model.cache_hit
        repeat = session.optimize(query)
        assert repeat.cache_hit
        assert repeat.cost == first.cost

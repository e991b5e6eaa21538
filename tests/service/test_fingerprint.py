"""Fingerprint stability: renaming and reordering must not change the key."""

from repro.aggregates.calls import count_star, sum_
from repro.aggregates.vector import AggItem, AggVector
from repro.algebra.expressions import Attr, BinOp, Const, Logical
from repro.query.spec import JoinEdge, Query, RelationInfo
from repro.query.tree import TreeLeaf, TreeNode
from repro.rewrites.pushdown import OpKind
import pytest

from repro.optimizer import OptimizerConfig
from repro.optimizer.strategies import EaPruneStrategy
from repro.service import cache_key, cardinality_snapshot, query_fingerprint
from repro.service.fingerprint import plan_key


def make_relation(name, cardinality=1000.0):
    attrs = (f"{name}.id", f"{name}.j", f"{name}.g", f"{name}.a")
    return RelationInfo(
        name=name,
        attributes=attrs,
        cardinality=cardinality,
        distinct={f"{name}.id": cardinality, f"{name}.g": 10.0},
        keys=(frozenset({f"{name}.id"}),),
    )


def make_query(
    names=("r0", "r1", "r2"),
    swap_equality=False,
    flip_comparison=False,
    local_order=(0, 1),
    op0=OpKind.INNER,
    join_attr0="j",
    group_suffix="g",
    selectivity0=0.01,
    cardinality0=1000.0,
):
    """A 3-relation query, parameterised so tests can vary one axis at a time."""
    a, b, c = names
    relations = [make_relation(a, cardinality0), make_relation(b), make_relation(c)]

    left, right = Attr(f"{a}.{join_attr0}"), Attr(f"{b}.j")
    predicate0 = right.eq(left) if swap_equality else left.eq(right)
    edge0 = JoinEdge(0, op0, predicate0, selectivity0)

    if flip_comparison:
        predicate1 = BinOp(">", Attr(f"{c}.g"), Attr(f"{b}.g"))
    else:
        predicate1 = BinOp("<", Attr(f"{b}.g"), Attr(f"{c}.g"))
    edge1 = JoinEdge(1, OpKind.INNER, predicate1, 0.1)

    tree = TreeNode(1, TreeNode(0, TreeLeaf(0), TreeLeaf(1)), TreeLeaf(2))

    conjuncts = [Attr(f"{a}.g").eq(Const(3)), Attr(f"{a}.a").eq(Const(7))]
    local = Logical("and", tuple(conjuncts[i] for i in local_order))

    return Query(
        relations,
        [edge0, edge1],
        tree,
        group_by=(f"{a}.{group_suffix}",),
        aggregates=AggVector([AggItem("cnt", count_star()), AggItem("s", sum_(f"{c}.a"))]),
        local_predicates={0: (local, 0.05)},
    )


class TestRenamingStability:
    def test_renamed_relations_share_fingerprint(self):
        assert query_fingerprint(make_query()) == query_fingerprint(
            make_query(names=("alpha", "beta", "gamma"))
        )

    def test_renamed_relations_share_snapshot(self):
        assert cardinality_snapshot(make_query()) == cardinality_snapshot(
            make_query(names=("alpha", "beta", "gamma"))
        )

    def test_renamed_relations_share_cache_key(self):
        assert cache_key(make_query()) == cache_key(make_query(names=("x", "y", "z")))


class TestReorderingStability:
    def test_equality_operand_order_is_canonical(self):
        assert query_fingerprint(make_query()) == query_fingerprint(
            make_query(swap_equality=True)
        )

    def test_comparison_direction_is_canonical(self):
        # b.g < c.g and c.g > b.g are the same predicate.
        assert query_fingerprint(make_query()) == query_fingerprint(
            make_query(flip_comparison=True)
        )

    def test_conjunct_order_is_canonical(self):
        assert query_fingerprint(make_query()) == query_fingerprint(
            make_query(local_order=(1, 0))
        )


class TestSensitivity:
    def test_different_join_attribute_changes_fingerprint(self):
        assert query_fingerprint(make_query()) != query_fingerprint(
            make_query(join_attr0="a")
        )

    def test_different_operator_changes_fingerprint(self):
        assert query_fingerprint(make_query()) != query_fingerprint(
            make_query(op0=OpKind.LEFT_OUTER)
        )

    def test_different_grouping_changes_fingerprint(self):
        assert query_fingerprint(make_query()) != query_fingerprint(
            make_query(group_suffix="j")
        )


class TestSnapshotSeparation:
    def test_statistics_change_snapshot_not_fingerprint(self):
        base, changed = make_query(), make_query(cardinality0=5000.0)
        assert query_fingerprint(base) == query_fingerprint(changed)
        assert cardinality_snapshot(base) != cardinality_snapshot(changed)
        assert cache_key(base) != cache_key(changed)

    def test_selectivity_changes_snapshot_not_fingerprint(self):
        base, changed = make_query(), make_query(selectivity0=0.5)
        assert query_fingerprint(base) == query_fingerprint(changed)
        assert cardinality_snapshot(base) != cardinality_snapshot(changed)


class TestSelectivityStructuralKeying:
    """Selectivities must be keyed to edges structurally, not by storage order.

    The fingerprint is storage-order invariant, so a snapshot that hashes
    selectivities in edge-list order loses the predicate→selectivity
    association: two different problems whose edge lists are permuted can
    share a full cache key and silently serve each other's plans.
    """

    @staticmethod
    def _tree_query(inner_sel, outer_sel, swap_storage=False):
        """P joins r0–r1 (inner tree position), Q joins (r0r1)–r2 (root)."""
        relations = [make_relation(n) for n in ("r0", "r1", "r2")]
        p = Attr("r0.j").eq(Attr("r1.j"))
        q = BinOp("<", Attr("r1.g"), Attr("r2.g"))
        if swap_storage:
            # edge 0 = Q at the root, edge 1 = P at the inner position.
            edges = [JoinEdge(0, OpKind.INNER, q, outer_sel), JoinEdge(1, OpKind.INNER, p, inner_sel)]
            tree = TreeNode(0, TreeNode(1, TreeLeaf(0), TreeLeaf(1)), TreeLeaf(2))
        else:
            edges = [JoinEdge(0, OpKind.INNER, p, inner_sel), JoinEdge(1, OpKind.INNER, q, outer_sel)]
            tree = TreeNode(1, TreeNode(0, TreeLeaf(0), TreeLeaf(1)), TreeLeaf(2))
        return Query(relations, edges, tree, group_by=("r0.g",), aggregates=AggVector([AggItem("cnt", count_star())]))

    def test_tree_position_selectivity_swap_changes_key(self):
        # Both queries store selectivities as [0.9, 0.001] in edge-list
        # order, but A puts 0.001 on the inner join and B puts 0.9 there.
        a = self._tree_query(inner_sel=0.001, outer_sel=0.9, swap_storage=True)
        b = self._tree_query(inner_sel=0.9, outer_sel=0.001, swap_storage=False)
        assert query_fingerprint(a) == query_fingerprint(b)  # same structure
        assert cardinality_snapshot(a) != cardinality_snapshot(b)
        assert cache_key(a) != cache_key(b)

    def test_tree_edge_storage_order_is_irrelevant(self):
        # The same problem spelled with permuted edge ids must share the key.
        a = self._tree_query(inner_sel=0.001, outer_sel=0.9, swap_storage=False)
        b = self._tree_query(inner_sel=0.001, outer_sel=0.9, swap_storage=True)
        assert cache_key(a) == cache_key(b)

    @staticmethod
    def _cyclic_query(p_sel, q_sel, swap_storage=False):
        """A cycle: tree edges r0–r1 and (r0r1)–r2, floating P and Q on r0–r2."""
        relations = [make_relation(n) for n in ("r0", "r1", "r2")]
        p = Attr("r0.a").eq(Attr("r2.a"))
        q = Attr("r0.g").eq(Attr("r2.g"))
        tree_e0 = JoinEdge(0, OpKind.INNER, Attr("r0.j").eq(Attr("r1.j")), 0.01)
        tree_e1 = JoinEdge(1, OpKind.INNER, Attr("r1.g").eq(Attr("r2.g")), 0.1)
        if swap_storage:
            floating = [JoinEdge(2, OpKind.INNER, q, q_sel), JoinEdge(3, OpKind.INNER, p, p_sel)]
        else:
            floating = [JoinEdge(2, OpKind.INNER, p, p_sel), JoinEdge(3, OpKind.INNER, q, q_sel)]
        tree = TreeNode(1, TreeNode(0, TreeLeaf(0), TreeLeaf(1)), TreeLeaf(2))
        return Query(relations, [tree_e0, tree_e1, *floating], tree, group_by=("r0.g",), aggregates=AggVector([AggItem("cnt", count_star())]))

    def test_floating_edge_selectivity_swap_changes_key(self):
        # Storage-ordered selectivities are [.., .., 0.001, 0.9] for both,
        # but A attaches 0.001 to predicate P and B attaches it to Q.
        a = self._cyclic_query(p_sel=0.001, q_sel=0.9, swap_storage=True)
        b = self._cyclic_query(p_sel=0.9, q_sel=0.001, swap_storage=False)
        assert query_fingerprint(a) == query_fingerprint(b)  # same structure
        assert cardinality_snapshot(a) != cardinality_snapshot(b)
        assert cache_key(a) != cache_key(b)

    def test_floating_edge_storage_order_is_irrelevant(self):
        a = self._cyclic_query(p_sel=0.001, q_sel=0.9, swap_storage=False)
        b = self._cyclic_query(p_sel=0.001, q_sel=0.9, swap_storage=True)
        assert cache_key(a) == cache_key(b)


class TestStrategyKeying:
    def test_strategies_do_not_share_keys(self):
        query = make_query()
        assert cache_key(query, "ea-prune") != cache_key(query, "dphyp")

    def test_h2_factor_participates(self):
        query = make_query()
        assert cache_key(query, "h2", factor=1.03) != cache_key(query, "h2", factor=1.5)

    def test_factor_irrelevant_for_non_h2(self):
        query = make_query()
        assert cache_key(query, "ea-prune", factor=1.03) == cache_key(
            query, "ea-prune", factor=1.5
        )

    def test_digest_is_stable_hex(self):
        digest = cache_key(make_query()).digest()
        assert len(digest) == 64
        int(digest, 16)  # valid hex


class TestPlanKey:
    """``plan_key`` is the one statement of what a cached plan is keyed
    on; keys derived from outside by spelling the settings out (the e2e
    benchmark's ``layers.py`` does) must stay equal to it."""

    @pytest.mark.parametrize(
        "config",
        [
            OptimizerConfig(),
            OptimizerConfig(strategy="h2", factor=1.5, snapshot_band_width=1.0),
            OptimizerConfig(strategy=EaPruneStrategy("cost-only"), snapshot_band_width=0.5),
            OptimizerConfig(strategy="dphyp", workers=3, deadline_seconds=1.0),
        ],
        ids=["defaults", "h2-banded", "instance-banded", "plumbing-only"],
    )
    def test_equals_the_spelled_out_key_and_pairs_the_exact_snapshot(self, config):
        query = make_query()
        key, exact = plan_key(query, config)
        assert key == cache_key(
            query, config.strategy, config.factor,
            cost_model=config.cost_model_name, band_width=config.snapshot_band_width,
        )
        assert exact == cardinality_snapshot(query)
        assert (key.snapshot == exact) == (config.snapshot_band_width is None)

    def test_plumbing_settings_stay_out_of_the_key(self):
        query = make_query()
        plain = plan_key(query, OptimizerConfig(strategy="dphyp"))
        plumbed = plan_key(query, OptimizerConfig(
            strategy="dphyp", workers=3, deadline_seconds=1.0,
            degradation="error", cache_capacity=None,
        ))
        assert plain == plumbed


class TestOperatorKindSeparation:
    """The SQL operator surface must never share cache keys across kinds.

    A semijoin (EXISTS) and an antijoin (NOT EXISTS) over the same tables
    describe different optimization problems — Sec. 4's plan generators
    produce different plans for them — so serving one's plan for the other
    would be a correctness bug, not a stale-statistics inconvenience.
    """

    @staticmethod
    def _keys(*sqls):
        from repro.sql import Catalog, parse_query

        catalog = Catalog.from_tpch()
        return [cache_key(parse_query(sql, catalog)) for sql in sqls]

    def test_semijoin_antijoin_inner_outer_all_distinct(self):
        template = (
            "SELECT n.n_name, count(*) AS cnt FROM nation n WHERE {} "
            "(SELECT * FROM supplier s WHERE s.s_nationkey = n.n_nationkey) "
            "GROUP BY n.n_name"
        )
        joined = (
            "SELECT n.n_name, count(*) AS cnt FROM nation n "
            "{} supplier s ON s.s_nationkey = n.n_nationkey GROUP BY n.n_name"
        )
        keys = self._keys(
            template.format("EXISTS"),
            template.format("NOT EXISTS"),
            joined.format("JOIN"),
            joined.format("LEFT JOIN"),
            joined.format("FULL JOIN"),
        )
        assert len(set(keys)) == len(keys)

    def test_in_and_not_in_distinct(self):
        template = (
            "SELECT c.c_nationkey, count(*) AS cnt FROM customer c WHERE "
            "c.c_custkey {} (SELECT o.o_custkey FROM orders o) "
            "GROUP BY c.c_nationkey"
        )
        key_in, key_not_in = self._keys(template.format("IN"), template.format("NOT IN"))
        assert key_in != key_not_in

    def test_exists_and_in_same_problem_share_key(self):
        """EXISTS with an equality correlation and IN on the same columns
        bind to the identical semijoin — they must share a cache entry."""
        keys = self._keys(
            "SELECT c.c_nationkey, count(*) AS cnt FROM customer c WHERE EXISTS "
            "(SELECT * FROM orders o WHERE o.o_custkey = c.c_custkey) "
            "GROUP BY c.c_nationkey",
            "SELECT c.c_nationkey, count(*) AS cnt FROM customer c WHERE "
            "c.c_custkey IN (SELECT o.o_custkey FROM orders o) "
            "GROUP BY c.c_nationkey",
        )
        assert keys[0] == keys[1]

    def test_renamed_exists_query_shares_key(self):
        keys = self._keys(
            "SELECT n.n_name, count(*) AS cnt FROM nation n WHERE EXISTS "
            "(SELECT * FROM supplier s WHERE s.s_nationkey = n.n_nationkey) "
            "GROUP BY n.n_name",
            "SELECT x.n_name, count(*) AS cnt FROM nation x WHERE EXISTS "
            "(SELECT * FROM supplier y WHERE y.s_nationkey = x.n_nationkey) "
            "GROUP BY x.n_name",
        )
        assert keys[0] == keys[1]

    def test_right_join_shares_key_with_mirrored_left_join(self):
        """The normalization means both spellings are one problem."""
        keys = self._keys(
            "SELECT n.n_name, count(*) AS cnt FROM supplier s "
            "RIGHT JOIN nation n ON s.s_nationkey = n.n_nationkey "
            "GROUP BY n.n_name",
            "SELECT n.n_name, count(*) AS cnt FROM nation n "
            "LEFT JOIN supplier s ON s.s_nationkey = n.n_nationkey "
            "GROUP BY n.n_name",
        )
        assert keys[0] == keys[1]

    def test_is_null_variants_distinct(self):
        template = (
            "SELECT s.s_name, count(*) AS cnt FROM supplier s "
            "WHERE s.s_acctbal {} GROUP BY s.s_name"
        )
        key_null, key_not_null = self._keys(
            template.format("IS NULL"), template.format("IS NOT NULL")
        )
        assert key_null != key_not_null

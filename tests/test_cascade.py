import json

import numpy as np
import pytest

from reference import random_tree
from tweetlink import cascade
from tweetlink.cascade import Cascade, CascadeMember
from tweetlink.corpus import Document
from tweetlink.errors import (
    ConfigInvalidError,
    CycleDetectedError,
    EmptyInputError,
    RaggedRowsError,
)


def _tweet(tid, created_at, parent=None):
    return Document(
        id=tid, kind="tweet", text="x", created_at=created_at,
        parent_id=parent, parent_kind="none" if parent is None else "reply",
    )


def _cascade_from_rows(rows):
    members = tuple(CascadeMember(tid, parent, t) for tid, parent, t in rows)
    return Cascade(root_id=rows[0][0], members=members)


class TestBuildCascades:
    def test_chain(self):
        docs = [_tweet("t1", 1), _tweet("t2", 2, "t1"), _tweet("t3", 3, "t2")]
        out = cascade.build_cascades(docs)
        assert len(out) == 1
        assert out[0].root_id == "t1"
        assert out[0].member_ids == ("t1", "t2", "t3")

    def test_two_roots(self):
        out = cascade.build_cascades([_tweet("t1", 1), _tweet("t2", 2)])
        assert [c.root_id for c in out] == ["t1", "t2"]
        assert all(c.size == 1 for c in out)

    def test_cycle_detected(self):
        docs = [_tweet("t1", 1, "t2"), _tweet("t2", 1, "t1")]
        with pytest.raises(CycleDetectedError) as err:
            cascade.build_cascades(docs)
        assert set(err.value.ids) == {"t1", "t2"}

    def test_reply_before_its_parent_rejected(self):
        docs = [_tweet("t1", 5), _tweet("t2", 4, "t1")]
        with pytest.raises(ConfigInvalidError, match="'t2'.*'t1'"):
            cascade.build_cascades(docs)

    def test_orphan_promoted(self):
        docs = [_tweet("t1", 1), _tweet("t2", 2, "ghost")]
        with pytest.warns(UserWarning, match="tweet t2 has missing parent ghost") as record:
            out = cascade.build_cascades(docs)
        assert len(out) == 2
        assert {c.root_id for c in out} == {"t1", "t2"}
        assert record[0].filename == __file__  # stacklevel=2: the caller's line

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rows = []
            offset = 0
            for tree_i in range(int(rng.integers(1, 4))):
                tree = random_tree(rng, int(rng.integers(1, 8)), base_time=1000 * tree_i)
                rows.extend(
                    (f"c{tree_i}_{tid}", f"c{tree_i}_{pid}" if pid else None, t)
                    for tid, pid, t in tree
                )
            docs = [_tweet(tid, t, pid) for tid, pid, t in rows]
            out = cascade.build_cascades(docs)
            all_members = [m for c in out for m in c.member_ids]
            assert sorted(all_members) == sorted(d.id for d in docs)
            assert len(set(all_members)) == len(all_members)

    def test_rejects_articles(self):
        art = Document(id="a", kind="article", text="x", created_at=1)
        with pytest.raises(ValueError):
            cascade.build_cascades([art])


class TestCascadeInvariants:
    def test_child_before_parent_rejected(self):
        rows = [("r", None, 10), ("c", "r", 5)]
        with pytest.raises(ValueError):
            _cascade_from_rows(rows)

    def test_two_parentless_rejected(self):
        members = (CascadeMember("r", None, 1), CascadeMember("x", None, 2))
        with pytest.raises(ValueError):
            Cascade(root_id="r", members=members)

    def test_edges(self):
        c = _cascade_from_rows([("r", None, 1), ("a", "r", 2), ("b", "r", 3)])
        assert c.edges == {"r": ["a", "b"]}


class TestCut:
    def test_identity_at_full_size(self):
        c = _cascade_from_rows([("r", None, 1), ("a", "r", 2), ("b", "a", 3)])
        assert cascade.cut(c, c.size) == c
        assert cascade.cut(c, 99) == c

    def test_chain_n2(self):
        c = _cascade_from_rows([("r", None, 1), ("a", "r", 2), ("b", "a", 3)])
        assert cascade.cut(c, 2).member_ids == ("r", "a")

    def test_n1_is_root(self):
        c = _cascade_from_rows([("r", None, 1), ("a", "r", 2), ("b", "a", 3)])
        assert cascade.cut(c, 1).member_ids == ("r",)

    def test_bad_n(self):
        c = _cascade_from_rows([("r", None, 1)])
        with pytest.raises(ValueError):
            cascade.cut(c, 0)

    def test_tie_orders_parent_before_child(self):
        # Child 'aaa' sorts before parent 'zzz' lexicographically but shares
        # its timestamp; the parent must still be kept first.
        c = _cascade_from_rows([("zzz", None, 5), ("aaa", "zzz", 5)])
        assert cascade.cut(c, 1).member_ids == ("zzz",)

    def test_prefix_nesting(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            rows = random_tree(rng, int(rng.integers(1, 15)))
            c = _cascade_from_rows(rows)
            sizes = sorted(rng.integers(1, c.size + 1, size=2))
            small = set(cascade.cut(c, int(sizes[0])).member_ids)
            big = set(cascade.cut(c, int(sizes[1])).member_ids)
            assert small <= big

    def test_cut_is_valid_cascade(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            c = _cascade_from_rows(random_tree(rng, int(rng.integers(2, 12))))
            n = int(rng.integers(1, c.size + 1))
            sub = cascade.cut(c, n)  # Cascade.__post_init__ revalidates the tree
            assert sub.size == min(n, c.size)
            assert sub.root_id == c.root_id


class TestAggregate:
    def test_worked_example(self):
        rows = [[0.2], [0.4], [0.9]]
        assert cascade.aggregate(rows, "mean")[0] == pytest.approx(0.5)
        assert cascade.aggregate(rows, "median")[0] == pytest.approx(0.4)
        assert cascade.aggregate(rows, "max")[0] == pytest.approx(0.9)

    def test_single_row_fixed_point(self):
        row = [0.1, -0.5, 0.9]
        for fn in cascade.AGGREGATIONS:
            np.testing.assert_allclose(cascade.aggregate([row], fn), row)

    def test_elementwise_max(self):
        np.testing.assert_allclose(
            cascade.aggregate([[0.1, 0.8], [0.3, 0.2]], "max"), [0.3, 0.8]
        )

    def test_even_count_median_is_midpoint(self):
        np.testing.assert_allclose(cascade.aggregate([[0.2], [0.6]], "median"), [0.4])

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            cascade.aggregate([], "mean")
        with pytest.raises(RaggedRowsError):
            cascade.aggregate([[0.1], [0.1, 0.2]], "mean")
        with pytest.raises(ValueError):
            cascade.aggregate([[0.1]], "mode")

    @pytest.mark.parametrize("fn", cascade.AGGREGATIONS)
    @pytest.mark.parametrize(
        "layout",
        [
            lambda v: v,
            lambda v: v[::2],
            lambda v: np.asfortranarray(v),
            lambda v: np.rint(v * 10).astype(np.int64),
        ],
        ids=["c-contiguous", "strided", "fortran", "int"],
    )
    def test_array_gives_the_bits_of_its_rows(self, fn, layout):
        values = np.random.default_rng(5).uniform(-1, 1, size=(9, 13))
        block = layout(values)
        assert block.ndim == 2
        expected = cascade.aggregate(list(block), fn)
        assert cascade.aggregate(block, fn).tobytes() == expected.tobytes()

    def test_empty_array_raises(self):
        with pytest.raises(EmptyInputError):
            cascade.aggregate(np.empty((0, 4)), "mean")

    def test_ordering_property(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            rows = rng.uniform(-1, 1, size=(int(rng.integers(1, 6)), 4))
            mx = cascade.aggregate(rows, "max")
            mean = cascade.aggregate(rows, "mean")
            assert (mx >= mean - 1e-12).all()
            assert (mean >= rows.min(axis=0) - 1e-12).all()


class TestExport:
    def test_jsonl(self, tmp_path):
        c = _cascade_from_rows([("r", None, 1), ("a", "r", 2)])
        path = tmp_path / "cascades.jsonl"
        cascade.write_cascades_jsonl([c], path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == [{"root_id": "r", "member_ids": ["r", "a"]}]

"""``--items all`` reads every row as it stands: its records, and the
per-item estimates of its sums, equal those of the full id list given
explicitly, bit for bit."""

from __future__ import annotations

import json

import numpy as np
import pytest

from coordest.cli import main
from coordest.estimators import MC_ITEM_BLOCK, QueryResult, bottomk_estimate, exact_query, sum_estimate
from coordest.functions import max_fn, min_fn, rg_fn
from coordest.model import TauScheme, ingest
from coordest.samplers import PPS_RANK, bottomk_sample, sample_instances

from scalar_reference import samples_of

SALT = 7
# more items than one oracle block, so the oracle's curves span two
N_ITEMS = MC_ITEM_BLOCK + 9


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    rng = np.random.default_rng(20)
    v = rng.uniform(0.2, 6.0, size=(N_ITEMS, 2))
    v[rng.random(v.shape) < 0.2] = 0.0
    # the last row is positive in both instances: the exact sums read it
    v[-1] = (5.0, 4.5)
    path = tmp_path_factory.mktemp("all") / "data.csv"
    path.write_text("item,v1,v2\n" + "".join(f"x{j},{a!r},{b!r}\n" for j, (a, b) in enumerate(v.tolist())))
    return path, ingest(path)


def _record(capsys, argv) -> dict:
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _bits(pairs) -> list:
    return [(i, np.float64(x).view(np.uint64)) for i, x in pairs]


@pytest.mark.parametrize("estimator, query", [
    ("exact", "l1"), ("exact", "jaccard"),
    ("j", "l1"), ("j", "jaccard"),
    ("ht", "maxsum"), ("ht", "jaccard"),
    ("voptimal-oracle", "l1"), ("voptimal-oracle", "jaccard"),
    ("j", "sum --k 5"), ("ht", "sum --k 5"), ("ht", "sum --k 5 --rank exp"),
])
def test_all_record_is_the_full_list_record(table, capsys, estimator, query):
    path, data = table
    query, *more = query.split()
    argv = ["estimate", "--input", str(path), "--salt", str(SALT), "--query", query, "--estimator", estimator, *more]
    every = _record(capsys, [*argv, "--items", "all"])
    listed = _record(capsys, [*argv, "--items", ",".join(data.item_ids)])
    assert every.pop("subset") == "all" and listed.pop("subset") == ",".join(data.item_ids)
    # floats written as repr read back exactly; dumping again keeps -0.0
    assert json.dumps(every) == json.dumps(listed)


@pytest.mark.parametrize("estimator", ["j", "ht", "voptimal-oracle"])
def test_sum_over_all_items_is_the_sum_over_the_full_list(table, estimator):
    _, data = table
    samples = sample_instances(data, TauScheme.pps(4.0, r=2), SALT)
    fs = [min_fn(2), max_fn(2)] + ([rg_fn(1.0, 2)] if estimator != "ht" else [])
    for f in fs:
        every = sum_estimate(samples, f, estimator, None, data=data)
        listed = sum_estimate(samples, f, estimator, list(data.item_ids), data=data)
        assert every == listed
        assert type(every.per_item) is tuple and len(every.per_item) == N_ITEMS
        assert all(type(p) is tuple and type(p[0]) is str and type(p[1]) is float for p in every.per_item)
        assert _bits(every.per_item) == _bits(listed.per_item)


def test_oracle_finds_each_data_row_by_id(table):
    # samples held in another order than the data are matched by id
    _, data = table
    samples = sample_instances(data, TauScheme.pps(4.0, r=2), SALT)
    reordered = samples_of({i: samples[i] for i in reversed(data.item_ids)})
    f = rg_fn(1.0, 2)
    got = sum_estimate(reordered, f, "voptimal-oracle", None, data=data)
    want = dict(sum_estimate(samples, f, "voptimal-oracle", None, data=data).per_item)
    assert [i for i, _ in got.per_item] == list(reversed(data.item_ids))
    assert _bits(got.per_item) == _bits((i, want[i]) for i, _ in got.per_item)


def test_exact_and_bottomk_over_all_items(table):
    _, data = table
    for query in ("l1", "maxsum", "distinct"):
        every, listed = exact_query(data, query, None), exact_query(data, query, list(data.item_ids))
        assert every == listed and _bits(every.per_item) == _bits(listed.per_item)
        assert len(every.per_item) == N_ITEMS
    sample = bottomk_sample(dict(zip(data.item_ids, data.matrix[:, 0].tolist())), 5, PPS_RANK, SALT)
    for estimator in ("ht", "j"):
        every = bottomk_estimate(sample, "sum", estimator, None)
        listed = bottomk_estimate(sample, "sum", estimator, list(data.item_ids))
        assert every == listed and _bits(every.per_item) == _bits(listed.per_item)
        assert type(every.per_item) is tuple and len(every.per_item) == 5


@pytest.mark.parametrize("estimator", ["exact", "j", "ht", "voptimal-oracle"])
@pytest.mark.parametrize("query", ["maxsum", "jaccard"])
def test_empty_input_answers_zero_over_all_items(tmp_path, capsys, estimator, query):
    path = tmp_path / "empty.csv"
    path.write_text("item,v1,v2\n")
    argv = ["estimate", "--input", str(path), "--query", query, "--estimator", estimator]
    assert _record(capsys, argv)["value"] == 0.0


def test_query_result_takes_its_sum_by_keyword():
    # the (id, estimate) pairs of old are no longer a field: passing them,
    # by position or as per_item, fails rather than builds another result
    with pytest.raises(TypeError):
        QueryResult("q", 1.0, (("a", 1.0),))
    with pytest.raises(TypeError):
        QueryResult("q", 1.0, per_item=(("a", 1.0),))
    res = QueryResult("q", 1.0, item_ids=["a"], estimates=[1.0])
    assert res.item_ids == ("a",) and res.per_item == (("a", 1.0),)

"""The benchmark's per-layer tracer (``coordbench/tracer.py``) names
functions of this package and reads their arguments by name.  These tests
read that file only: every layer it traces must resolve, and every work
count must bind on the real signature, so that a rename or a signature
change that would break a traced run fails here first."""

from __future__ import annotations

import importlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from coordest import analysis, cli, estimators, functions, hull, model, samplers
from coordest.functions import max_fn
from coordest.model import TauScheme

TRACER_PATH = Path(__file__).resolve().parent.parent / "coordbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("coordbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(modname: str, attr: str):
    owner = importlib.import_module(f"coordest.{modname}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_function_resolves(tracer):
    for layer, targets in tracer.TRACED.items():
        for modname, attr in targets:
            assert callable(_resolve(modname, attr)), f"{layer}: coordest.{modname}.{attr}"


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    """One call of each counted function, with the arguments the CLI passes
    (positionally where the CLI does): layer -> [(function, args)]."""
    csv_path = tmp_path_factory.mktemp("tracer") / "data.csv"
    csv_path.write_text("item,v1,v2\na,1.0,2.0\nb,0.5,0.0\nc,3.0,1.5\nd,2.0,2.5\n")
    data = cli.ingest(csv_path)
    scheme = TauScheme.pps(4.0, r=2)
    samples = samplers.sample_instances(data, scheme, 3)
    text = io.StringIO()
    samplers.write_samples(samples, text)
    ids = list(data.item_ids)
    values = dict(zip(data.item_ids, data.matrix[:, 0].tolist()))
    points = np.array([(0.1, 2.0), (0.5, 0.5), (1.0, 0.0)])
    return {
        "cli.ingest": [(cli.ingest, (csv_path,))],
        "model.seeds_for_items": [(model.hash_seed, ("a", 3)), (model.seeds_for_items, (ids, 3))],
        "model.seeds_for_salts": [(model.seeds_for_salts, ("a", np.arange(4, dtype=np.uint64)))],
        "samplers.sample_instances": [(samplers.sample_instances, (data, scheme, 3))],
        "samplers.write_samples": [(samplers.write_samples, (samples, io.StringIO()))],
        "samplers.read_samples": [(samplers.read_samples, (io.StringIO(text.getvalue()), scheme))],
        "samplers.bottomk_sample": [(samplers.bottomk_sample, (values, 2, samplers.PPS_RANK, 3))],
        "functions.lower_bound_from_vector": [
            (functions.lower_bound_from_vector, (max_fn(2), (1.0, 2.0), scheme, np.array([0.1, 0.5])))
        ],
        "estimators.estimate_query": [(estimators.estimate_query, (samples, 2, "l1", "j", ids))],
        "estimators.exact_query": [(estimators.exact_query, (data, "l1", ids))],
        "estimators.mc_query_estimates": [
            (estimators.mc_query_estimates, (data, scheme, "l1", ids, np.arange(3, dtype=np.uint64)))
        ],
        "hull.lower_hull": [(hull.lower_hull, (points,))],
        "analysis.curve_table": [(analysis.curve_table, ((1.0, 2.0), max_fn(2), scheme))],
    }


def test_every_work_count_binds_on_the_real_signature(tracer, calls):
    assert set(calls) == set(tracer.COUNTS), "a counted layer has no example call here"
    for layer in tracer.COUNTS:
        assert {fn for fn, _ in calls[layer]} == {_resolve(*target) for target in tracer.TRACED[layer]}, layer
        for fn, args in calls[layer]:
            t = tracer.Tracer()
            tracer._wrap(t, layer, fn)(*args)
            (span,) = t.spans
            assert span[1] == layer and span[5] > 0, f"{layer}: {fn.__qualname__} counted {span[5]}"


"""Command-line harness: ingest CSV instances, draw coordinated samples,
answer multi-instance queries, and run analysis sweeps.

Subcommands:

* ``sample``        draw coordinated samples and write one record per item
* ``estimate``      answer a query (exact or estimated, optionally Monte
                    Carlo over salts, optionally bottom-k mode)
* ``analyze``       per-item competitiveness reports; nonzero exit if any
                    ratio exceeds the certified bound or the implication
                    chain breaks
* ``characterize``  per-item estimability/boundedness/variance verdicts and
                    optional plot-ready curves
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .analysis import _curve_checks, competitiveness_reports, curve_blocks, curve_columns, implication_chain_ok
from .estimators import (
    DEPTH,
    GRID_N,
    LP,
    LPP,
    QUERY_KINDS,
    bottomk_estimate,
    estimate_query,
    exact_query,
    mc_query_estimates,
)
from .functions import ItemFunction, parse_function
from .model import InstanceSet, PiecewiseLinearMap, PpsMap, TauScheme, ingest
from .samplers import (
    EXP_RANK,
    PPS_RANK,
    bottomk_sample,
    inclusion_probability,
    sample_instances,
    write_samples,
)


@contextmanager
def _error_source(where: str):
    """Prefix the message of a ``ValueError`` raised inside with ``where``:
    the flag, or the file and line, that the bad text came from."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text.strip()!r}")
    return x


def parse_scheme(spec: str, r: int) -> TauScheme:
    """Parse an inline scheme spec: ``pps:tau=4`` (shared threshold) or
    ``pps:tau=4,2`` (one threshold per instance).  Errors name the
    ``--scheme`` flag."""
    with _error_source(f"--scheme {spec!r}"):
        name, _, argstr = spec.partition(":")
        if name.strip().lower() != "pps":
            raise ValueError("unknown inline scheme; use a scheme file for piecewise maps")
        key, _, rest = argstr.partition("=")
        if key.strip() != "tau" or not rest:
            raise ValueError("needs tau=<t> or tau=<t1>,...,<tr>")
        taus = [_finite(c) for c in rest.split(",") if c.strip()]
        if len(taus) == 1:
            return TauScheme.pps(taus[0], r=r)
        if len(taus) != r:
            raise ValueError(f"{len(taus)} thresholds for {r} instances")
        return TauScheme.pps(taus)


def parse_scheme_file(text: str, r: int, source: str = "scheme file") -> TauScheme:
    """Key-value scheme config: one ``tau.<i> = pps:<t>`` or
    ``tau.<i> = pwl:u0:t0,u1:t1,...`` line per instance.  Errors name
    ``source`` and the line."""
    entries: dict[int, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        with _error_source(f"{source}: line {lineno}"):
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if not key.startswith("tau."):
                raise ValueError(f"unknown scheme config key {key!r}")
            try:
                i = int(key[4:])
            except ValueError:
                raise ValueError(f"bad instance number {key[4:]!r}") from None
            if i in entries:
                raise ValueError(f"tau.{i} is already defined on line {entries[i][0]}")
        entries[i] = (lineno, value.strip())
    if sorted(entries) != list(range(1, r + 1)):
        raise ValueError(f"{source}: scheme config must define tau.1..tau.{r}")
    maps = []
    for i in range(1, r + 1):
        lineno, value = entries[i]
        with _error_source(f"{source}: line {lineno}: tau.{i}"):
            kind, _, rest = value.partition(":")
            kind = kind.strip().lower()
            if kind == "pps":
                maps.append(PpsMap(_finite(rest)))
            elif kind == "pwl":
                nums = [_finite(x) for x in rest.replace(":", ",").split(",") if x.strip()]
                if len(nums) % 2:
                    raise ValueError("joint list must pair seeds with values")
                maps.append(PiecewiseLinearMap(tuple(zip(nums[::2], nums[1::2]))))
            else:
                raise ValueError(f"unknown map kind {kind!r}")
    return TauScheme(tuple(maps))


def parse_query(spec: str, p: float | None) -> tuple[str, float | None]:
    """Split a query spec like ``lpp:p=2`` (or ``lp:2``) into kind and
    exponent.  The kind is checked first: one of ``QUERY_KINDS``, or
    ``sum`` of bottom-k mode.  Only ``lpp`` and ``lp`` take a parameter,
    the exponent ``p``, from the spec or from ``--p`` (both only when they
    agree); it must be positive and finite.  A bad parameter in the spec
    names the ``--query`` flag, and a ``--p`` the query does not take
    names ``--p``."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in QUERY_KINDS + ("sum",):
        raise ValueError(f"unknown query {spec!r}")
    takes = "p" if kind in (LPP, LP) else "no parameters"
    if p is not None and takes != "p":
        raise ValueError(f"--p applies only to lpp and lp, not {kind}")
    if rest:
        with _error_source(f"--query {spec!r}"):
            key, eq, value = rest.partition("=")
            key = key.strip() if eq else "p"
            if takes != key:
                raise ValueError(f"{kind} takes {takes}, not {key!r}")
            q = float(value if eq else rest)
            if not (math.isfinite(q) and q > 0.0):
                raise ValueError(f"exponent p must be positive and finite, not {q!r}")
            if p is not None and q != p:
                raise ValueError(f"exponent {q!r} conflicts with --p {p!r}")
        p = q
    return kind, p


def resolve_items(spec: str, data: InstanceSet) -> tuple[list[str], str]:
    """Item subset: ``all``, ``both-positive``, ``positive-in:<k>`` (1-based
    instance), or an explicit comma list of ids."""
    spec = spec.strip()
    if spec == "all":
        return list(data.item_ids), "all"
    if spec == "both-positive":
        keep = (data.matrix > 0).all(axis=1)
        return [item for item, ok in zip(data.item_ids, keep.tolist()) if ok], "both-positive"
    if spec.startswith("positive-in:"):
        with _error_source(f"--items {spec!r}"):
            k = int(spec.split(":", 1)[1]) - 1
        if not 0 <= k < data.r:
            raise ValueError(f"instance index out of range in {spec!r}")
        keep = data.matrix[:, k] > 0
        return [item for item, ok in zip(data.item_ids, keep.tolist()) if ok], spec
    ids = [s.strip() for s in spec.split(",") if s.strip()]
    known = set(data.item_ids)
    missing = [i for i in ids if i not in known]
    if missing:
        raise ValueError(f"unknown item ids: {', '.join(missing)}")
    return ids, spec


@dataclass
class RunConfig:
    """Validated knobs shared by the subcommands."""

    input: Path
    scheme_spec: str = "pps:tau=4"
    scheme_file: Path | None = None
    function_spec: str | None = None
    estimator: str = "exact"
    query: str | None = None
    p: float | None = None
    items: str = "all"
    salt: int = 0
    reps: int = 1
    out: Path | None = None
    grid_n: int = GRID_N
    k: int | None = None
    rank: str = "pps"
    instance: int = 1

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError(f"--reps must be at least 1, got {self.reps!r}")
        if self.grid_n < 16:
            raise ValueError(f"--grid-n must be at least 16, got {self.grid_n!r}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"--k must be at least 1, got {self.k!r}")
        if self.p is not None and not (math.isfinite(self.p) and self.p > 0.0):
            raise ValueError(f"--p must be positive and finite, got {self.p!r}")

    def load(self) -> tuple[InstanceSet, TauScheme]:
        data = ingest(self.input)
        if self.scheme_file is not None:
            scheme = parse_scheme_file(Path(self.scheme_file).read_text(), data.r, str(self.scheme_file))
        else:
            scheme = parse_scheme(self.scheme_spec, data.r)
        return data, scheme


def _open_out(path: Path | None) -> IO[str]:
    return sys.stdout if path is None else open(path, "w")


def _close_out(fp: IO[str]) -> None:
    if fp is not sys.stdout:
        fp.close()


def cmd_sample(cfg: RunConfig) -> int:
    data, scheme = cfg.load()
    outcomes = sample_instances(data, scheme, cfg.salt)
    fp = _open_out(cfg.out)
    try:
        write_samples(outcomes, fp)
    finally:
        _close_out(fp)
    return 0


def run_query(cfg: RunConfig) -> dict:
    """One query answer as a JSON-ready record; Monte Carlo over salts when
    ``reps`` exceeds 1."""
    data, scheme = cfg.load()
    if cfg.query is None:
        raise ValueError("estimate needs --query")
    query, p = parse_query(cfg.query, cfg.p)
    cfg = replace(cfg, query=query, p=p)
    ids, subset = resolve_items(cfg.items, data)

    if cfg.k is not None:
        return _run_bottomk_query(cfg, data, ids, subset)
    if cfg.query == "sum":
        raise ValueError("--query sum is a bottom-k query and needs --k")

    record: dict = {
        "query": cfg.query,
        "estimator": cfg.estimator,
        "subset": subset,
        "salt": cfg.salt,
        "reps": cfg.reps,
    }
    if cfg.estimator == "exact":
        res = exact_query(data, cfg.query, ids, p=cfg.p)
    elif cfg.reps == 1:
        samples = sample_instances(data, scheme, cfg.salt)
        res = estimate_query(samples, data.r, cfg.query, cfg.estimator, ids, p=cfg.p, data=data, grid_n=cfg.grid_n)
    else:
        # salts are taken mod 2^64, as hash_seed takes a single salt
        salts = np.uint64(cfg.salt % 2**64) + np.arange(cfg.reps, dtype=np.uint64)
        estimates = mc_query_estimates(
            data, scheme, cfg.query, ids, salts, p=cfg.p, estimator=cfg.estimator, grid_n=cfg.grid_n,
        )
        std = float(estimates.std(ddof=1))
        record.update(value=float(estimates.mean()), stderr=std / math.sqrt(cfg.reps), std=std)
        return record
    record["value"] = res.value
    record.update(res.extras)
    return record


def _run_bottomk_query(cfg: RunConfig, data: InstanceSet, ids: list[str], subset: str) -> dict:
    rank_fn = PPS_RANK if cfg.rank == "pps" else EXP_RANK
    inst = cfg.instance - 1
    if not 0 <= inst < data.r:
        raise ValueError(f"--instance {cfg.instance} out of range")
    values = dict(zip(data.item_ids, data.matrix[:, inst].tolist()))
    sample = bottomk_sample(values, cfg.k, rank_fn, cfg.salt)
    estimator = "ht" if cfg.estimator in ("exact", "ht") else cfg.estimator
    res = bottomk_estimate(sample, cfg.query, estimator, ids)
    members = [
        {
            "item": m.item_id,
            "value": m.value,
            "rank": m.rank,
            "threshold": m.threshold,
            "inclusion_probability": inclusion_probability(rank_fn, m.value, m.threshold),
        }
        for m in sample.members
    ]
    return {
        "query": res.query,
        "estimator": estimator,
        "rank": cfg.rank,
        "k": cfg.k,
        "instance": cfg.instance,
        "subset": subset,
        "salt": cfg.salt,
        "value": res.value,
        "members": members,
    }


def cmd_estimate(cfg: RunConfig) -> int:
    record = run_query(cfg)
    fp = _open_out(cfg.out)
    try:
        fp.write(json.dumps(record, allow_nan=False) + "\n")
    finally:
        _close_out(fp)
    return 0


def _item_function(cfg: RunConfig, r: int, command: str) -> ItemFunction:
    """The ``--function`` of ``command``; a bad spec names the flag."""
    if cfg.function_spec is None:
        raise ValueError(f"{command} needs --function")
    with _error_source(f"--function {cfg.function_spec!r}"):
        return parse_function(cfg.function_spec, r)


def run_analysis(cfg: RunConfig, fp: IO[str]) -> int:
    """Per-item competitiveness reports; returns a nonzero exit code when any
    ratio exceeds the certified bound or the implication chain breaks."""
    data, scheme = cfg.load()
    f = _item_function(cfg, data.r, "analyze")
    ids, subset = resolve_items(cfg.items, data)
    rows = data.matrix[data.indices(ids)]
    reports = competitiveness_reports(rows, f, scheme, grid_n=cfg.grid_n)
    failed = False
    for item, v in zip(ids, rows.tolist()):
        # a variance past the largest float (data near 1e-310) is not JSON
        with _error_source(f"item {item!r}"):
            report = next(reports)
            rec = {"item": item, "vector": v, "function": f.describe(), **report.to_dict()}
            line = json.dumps(rec, allow_nan=False)
        fp.write(line + "\n")
        if not report.competitive_ok or not report.chain_ok:
            failed = True
    return 1 if failed else 0


def cmd_analyze(cfg: RunConfig) -> int:
    fp = _open_out(cfg.out)
    try:
        return run_analysis(cfg, fp)
    finally:
        _close_out(fp)


def _curve_row_format(item: str) -> str:
    """``%``-format of one ``--curves`` row of ``item``: the id quoted as
    ``csv.writer`` quotes it, then the five floats as ``repr``, which is how
    ``csv.writer`` writes a float."""
    buf = io.StringIO()
    csv.writer(buf).writerow((item, ""))
    return buf.getvalue()[:-3].replace("%", "%%") + ",%r,%r,%r,%r,%r\r\n"


def cmd_characterize(cfg: RunConfig, curves: Path | None) -> int:
    data, scheme = cfg.load()
    f = _item_function(cfg, data.r, "characterize")
    ids, _ = resolve_items(cfg.items, data)
    fp = _open_out(cfg.out)
    curves_fp = open(curves, "w", newline="") if curves is not None else None
    if curves_fp is not None:
        curves_fp.write("item,u,lower_bound,hull,j_estimate,v_optimal\r\n")
    failed = False
    items = iter(ids)
    try:
        # one curve per vector serves the verdicts and the curve rows
        for block, fvs, lbfs in curve_blocks(data.matrix[data.indices(ids)], f, scheme):
            columns = curve_columns(block, lbfs, f, scheme, cfg.grid_n, DEPTH) if curves_fp is not None else None
            # items last: zip stops at the end of the block before taking one
            for v, fv, lbf, item in zip(block.tolist(), fvs, lbfs, items):
                with _error_source(f"item {item!r}"):
                    est, bd, fin = _curve_checks(lbf, fv, v, scheme)
                    chain = implication_chain_ok(bd.ok, fin.ok, est.ok)
                    rec = {"item": item, "vector": v, "function": f.describe(),
                           "estimable": est.ok, "estimable_gap": est.value, "bounded": bd.ok,
                           "bounded_slope": bd.value, "finite_variance": fin.ok, "chain_ok": chain}
                    line = json.dumps(rec, allow_nan=False)
                failed = failed or not chain
                fp.write(line + "\n")
                if columns is not None:
                    rows = zip(*(c.tolist() for c in next(columns)))
                    curves_fp.writelines(map(_curve_row_format(item).__mod__, rows))
    finally:
        _close_out(fp)
        if curves_fp is not None:
            curves_fp.close()
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coordest",
        description="Coordinated shared-seed sampling and multi-instance estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every default is RunConfig's
    default = {f.name: f.default for f in fields(RunConfig)}
    grid_help = ("uniform seeds of the hull grid (>= 16), used only by rg and one-sided rg with p > 1; "
                 "other hulls are taken from the curve's corners; one hull per vector serves its estimates and curve rows")

    def common(p: argparse.ArgumentParser, scheme: bool = True):
        p.add_argument("--input", required=True, type=Path, help="instance CSV (item,v1,...,vr)")
        if scheme:
            p.add_argument("--scheme", default=default["scheme_spec"], help="inline scheme, e.g. pps:tau=4")
            p.add_argument("--scheme-file", type=Path, default=None, help="key-value scheme config")
        p.add_argument("--salt", type=int, default=default["salt"])
        p.add_argument("--out", type=Path, default=None, help="output path (default stdout)")

    p_sample = sub.add_parser("sample", help="draw coordinated samples")
    common(p_sample)

    p_est = sub.add_parser("estimate", help="answer a multi-instance query")
    common(p_est)
    p_est.add_argument("--query", required=True, help="l1|lpp:p|lp:p|maxsum|minsum|jaccard|distinct (bottom-k mode adds sum)")
    p_est.add_argument("--p", type=float, default=None, help="exponent for lpp/lp queries")
    p_est.add_argument("--estimator", default=default["estimator"], choices=("exact", "j", "ht", "voptimal-oracle"))
    p_est.add_argument("--items", default=default["items"])
    p_est.add_argument("--reps", type=int, default=default["reps"], help="Monte Carlo repetitions over salts")
    p_est.add_argument("--k", type=int, default=None, help="bottom-k mode: sample size")
    p_est.add_argument("--rank", default=default["rank"], choices=("pps", "exp"))
    p_est.add_argument("--instance", type=int, default=default["instance"], help="bottom-k mode: 1-based instance")
    p_est.add_argument("--grid-n", type=int, default=default["grid_n"], help=grid_help)

    p_an = sub.add_parser("analyze", help="competitiveness reports per item")
    common(p_an)
    p_an.add_argument("--function", required=True, help="item function, e.g. rg:p=2")
    p_an.add_argument("--items", default=default["items"])
    p_an.add_argument("--grid-n", type=int, default=default["grid_n"], help=grid_help)

    p_ch = sub.add_parser("characterize", help="estimability verdicts per item")
    common(p_ch)
    p_ch.add_argument("--function", required=True)
    p_ch.add_argument("--items", default=default["items"])
    p_ch.add_argument("--grid-n", type=int, default=default["grid_n"], help=grid_help)
    p_ch.add_argument("--curves", type=Path, default=None, help="plot-ready curve CSV")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run config of the parsed flags; a field whose flag the
    subcommand lacks keeps its ``RunConfig`` default."""
    flags = {{"scheme": "scheme_spec", "function": "function_spec"}.get(k, k): v for k, v in vars(args).items()}
    return RunConfig(**{f.name: flags[f.name] for f in fields(RunConfig) if f.name in flags})


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    if args.command == "sample":
        return cmd_sample(cfg)
    if args.command == "estimate":
        return cmd_estimate(cfg)
    if args.command == "analyze":
        return cmd_analyze(cfg)
    if args.command == "characterize":
        return cmd_characterize(cfg, args.curves)
    raise AssertionError(f"unhandled command {args.command!r}")


def console_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``coordest`` and ``python -m coordest``: :func:`main`,
    with bad input or a file that cannot be opened reported as one
    ``coordest: error:`` line on stderr and exit code 2, the code argparse
    gives a usage error.  :func:`main` itself raises the ``ValueError`` or
    ``OSError``."""
    try:
        return main(argv)
    except (ValueError, OSError) as exc:
        print(f"coordest: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(console_main())

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
import ctypes
import csv
import functools
import io
import json
import math
import os
import stat
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .analysis import _curve_checks, competitiveness_reports, curve_block, curve_blocks, implication_chain_ok
from .estimators import (
    BOTTOMK_ESTIMATORS,
    BOTTOMK_QUERIES,
    ESTIMATORS,
    LP,
    LPP,
    QUERY_KINDS,
    bottomk_estimate,
    estimate_query,
    exact_query,
    mc_query_estimates,
)
from .functions import ItemFunction, parse_function
from .hull import FloatRangeError
from .model import InstanceSet, PiecewiseLinearMap, TauScheme, ingest
from .samplers import (
    EXP_RANK,
    PPS_RANK,
    bottomk_sample,
    inclusion_probability,
    sample_instances,
    write_samples,
)


@contextmanager
def _error_source(where: str, kind: type[Exception] = ValueError):
    """Prefix the message of a ``kind`` error raised inside with ``where``:
    the flag, or the file and line, that the bad text came from."""
    try:
        yield
    except kind as exc:
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
                maps.append(PiecewiseLinearMap.pps(_finite(rest)))
            elif kind == "pwl":
                nums = [_finite(x) for x in rest.replace(":", ",").split(",") if x.strip()]
                if len(nums) % 2:
                    raise ValueError("joint list must pair seeds with values")
                maps.append(PiecewiseLinearMap(tuple(zip(nums[::2], nums[1::2]))))
            else:
                raise ValueError(f"unknown map kind {kind!r}")
    return TauScheme(tuple(maps))


class UnknownQueryError(ValueError):
    """A query spec of no known kind."""


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
        raise UnknownQueryError(f"unknown query {spec!r}")
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
    instance), or an explicit comma list of distinct ids."""
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
                raise ValueError(f"instance {k + 1} out of range 1..{data.r}")
        keep = data.matrix[:, k] > 0
        return [item for item, ok in zip(data.item_ids, keep.tolist()) if ok], spec
    ids = [s.strip() for s in spec.split(",") if s.strip()]
    if not ids:
        raise ValueError(f"--items {spec!r} names no item id")
    known = set(data.item_ids)
    missing = [i for i in ids if i not in known]
    if missing:
        raise ValueError(f"--items: unknown item ids: {', '.join(missing)}")
    if len(set(ids)) != len(ids):
        repeated = next(i for k, i in enumerate(ids) if i in ids[:k])
        raise ValueError(f"--items: item id {repeated!r} given twice")
    return ids, spec


# the most salts of one Monte Carlo sweep: it holds 8 bytes a salt for the
# salts, for their mixed form and for each of up to two sums, and 2^25
# salts take 1 GiB so
MAX_REPS = 2**25


def load(args: argparse.Namespace) -> tuple[InstanceSet, TauScheme]:
    """The instances of ``--input``, and the scheme of ``--scheme-file``
    or else of ``--scheme``."""
    data = ingest(args.input)
    if args.scheme_file is not None:
        return data, parse_scheme_file(args.scheme_file.read_text(), data.r, str(args.scheme_file))
    return data, parse_scheme(args.scheme, data.r)


def _open_kept(path: str, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def _outputs(*outputs: tuple[Path | None, IO[str] | None, str | None]):
    """Each ``(path, default, newline)`` as a file: ``path`` opened for
    writing, and closed however the block ends; or ``default`` when there
    is no path.  The files are opened in order without truncation and
    emptied once all of them are open, so a path that cannot be opened
    leaves every file as it was."""
    with ExitStack() as stack:
        fps = [default if path is None else stack.enter_context(open(path, "w", newline=newline, opener=_open_kept))
               for path, default, newline in outputs]
        for fp, (path, _, _) in zip(fps, outputs):
            # as opening with O_TRUNC would, only a regular file is emptied;
            # a new one is empty already (truncating it costs 30 us)
            info = None if path is None else os.fstat(fp.fileno())
            if info is not None and stat.S_ISREG(info.st_mode) and info.st_size:
                fp.truncate(0)
        yield fps


def cmd_sample(args: argparse.Namespace) -> int:
    data, scheme = load(args)
    outcomes = sample_instances(data, scheme, args.salt)
    with _outputs((args.out, sys.stdout, None)) as (fp,):
        write_samples(outcomes, fp)
    return 0


def run_query(args: argparse.Namespace) -> dict:
    """One query answer as a JSON-ready record; Monte Carlo over salts when
    ``--reps`` exceeds 1."""
    data, scheme = load(args)
    with _error_source(f"--query {args.query!r}", UnknownQueryError):
        query, p = parse_query(args.query, args.p)
    ids, subset = resolve_items(args.items, data)
    # every item: the estimators read all rows as they stand
    item_ids = None if subset == "all" else ids

    if args.k is not None:
        return _run_bottomk_query(args, query, data, item_ids, subset)
    if query == "sum":
        raise ValueError("--query sum is a bottom-k query and needs --k")

    record: dict = {"query": query, "estimator": args.estimator, "subset": subset, "salt": args.salt,
                    "reps": args.reps}
    if args.estimator == "exact":
        res = exact_query(data, query, item_ids, p=p)
    elif args.reps == 1:
        samples = sample_instances(data, scheme, args.salt)
        res = estimate_query(samples, data.r, query, args.estimator, item_ids, p=p, data=data)
    else:
        # salts are taken mod 2^64, as hash_seed takes a single salt
        salts = np.uint64(args.salt % 2**64) + np.arange(args.reps, dtype=np.uint64)
        estimates = mc_query_estimates(data, scheme, query, ids, salts, p=p, estimator=args.estimator)
        # a mean or spread past the largest float is inf or NaN, which no record holds
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = float(estimates.mean()), float(estimates.std(ddof=1))
        record.update(value=mean, stderr=std / math.sqrt(args.reps), std=std)
        return record
    record["value"] = res.value
    record.update(res.extras)
    return record


def _run_bottomk_query(args: argparse.Namespace, query: str, data: InstanceSet, ids: list[str] | None,
                       subset: str) -> dict:
    rank_fn = PPS_RANK if args.rank == "pps" else EXP_RANK
    if not 1 <= args.instance <= data.r:
        raise ValueError(f"--instance {args.instance} out of range")
    values = dict(zip(data.item_ids, data.matrix[:, args.instance - 1].tolist()))
    # a rank past the largest float is the data's fault, not that of --k
    with _error_source(f"instance {args.instance}", OverflowError), _error_source(f"--k {args.k}"):
        sample = bottomk_sample(values, args.k, rank_fn, args.salt)
    estimator = "ht" if args.estimator in ("exact", "ht") else args.estimator
    # the flag at fault: bottomk_estimate checks the query, the estimator, then whether the rank takes it
    if query not in BOTTOMK_QUERIES:
        where = f"--query {args.query!r}"
    elif estimator not in BOTTOMK_ESTIMATORS:
        where = f"--estimator {args.estimator!r}"
    else:
        where = f"--rank {args.rank!r} with --estimator {args.estimator!r}"
    with _error_source(where):
        res = bottomk_estimate(sample, query, estimator, ids)
    members = [{"item": item, "value": x, "rank": rank, "threshold": sample.threshold,
                "inclusion_probability": inclusion_probability(rank_fn, x, sample.threshold)}
               for item, x, rank in zip(sample.item_ids, sample.values, sample.ranks)]
    return {"query": res.query, "estimator": estimator, "rank": args.rank, "k": args.k, "instance": args.instance,
            "subset": subset, "salt": args.salt, "value": res.value, "members": members}


def cmd_estimate(args: argparse.Namespace) -> int:
    # the flags checked before the input is read
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps!r}")
    if args.reps > MAX_REPS:
        raise ValueError(f"--reps must be at most {MAX_REPS} (1 GiB of salts and sums), got {args.reps!r}")
    if args.k is not None and args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k!r}")
    if args.k is not None and args.reps != 1:
        raise ValueError(f"--reps {args.reps} does not apply with --k: a bottom-k sample is drawn at one salt")
    if args.p is not None and not (math.isfinite(args.p) and args.p > 0.0):
        raise ValueError(f"--p must be positive and finite, got {args.p!r}")
    # the oracle's hull of a value past the largest float fails, and such an answer is not JSON
    with _error_source(f"--query {args.query!r}", FloatRangeError):
        record = run_query(args)
    with _error_source(f"--query {args.query!r}"):
        line = json.dumps(record, allow_nan=False)
    with _outputs((args.out, sys.stdout, None)) as (fp,):
        fp.write(line + "\n")
    return 0


def _curve_row_format(item: str) -> str:
    """``%``-format of one ``--curves`` row of ``item``: the id quoted as
    ``csv.writer`` quotes it, then the five floats as ``repr``, which is how
    ``csv.writer`` writes a float."""
    buf = io.StringIO()
    csv.writer(buf).writerow((item, ""))
    return buf.getvalue()[:-3].replace("%", "%%") + ",%r,%r,%r,%r,%r\r\n"


def _verdicts(rows: np.ndarray, f: ItemFunction, scheme: TauScheme, curves: bool):
    """Per vector of ``rows``: its ``characterize`` fields, whether its chain
    holds, and with ``curves`` its block's :func:`_curve_rows`, from which
    it takes its own; one curve per vector serves the verdicts and the rows."""
    for block, fvs, lbfs in curve_blocks(rows, f, scheme):
        columns = _curve_rows(block, lbfs, f, scheme) if curves else None
        for v, fv, lbf in zip(block.tolist(), fvs, lbfs):
            est, bd, fin = _curve_checks(lbf, fv, v, scheme)
            chain = implication_chain_ok(bd.ok, fin.ok, est.ok)
            yield ({"estimable": est.ok, "estimable_gap": est.value, "bounded": bd.ok, "bounded_slope": bd.value,
                    "finite_variance": fin.ok, "chain_ok": chain}, chain, columns)


CURVE_COLUMNS = ("u", "lower_bound", "hull", "j_estimate", "v_optimal")


def _curve_rows(rows: np.ndarray, lbfs, f: ItemFunction, scheme: TauScheme):
    """The ``--curves`` rows of each vector of a block, in order, as float
    tuples, from one :func:`curve_block` and one ``tolist``; a value that
    is not finite is an error of its vector, naming its column and seed,
    and the error of a hull that fails comes after the vectors before it."""
    columns, ends, error = curve_block(rows, lbfs, f, scheme)
    table = list(zip(*columns.tolist()))
    bad = np.flatnonzero(~np.isfinite(columns).all(axis=0)).tolist()
    for start, end in zip([0] + ends, ends):
        if bad and bad[0] < end:
            block = columns[:, start:end]
            col, row = np.argwhere(~np.isfinite(block))[0].tolist()
            x, u = block[[col, 0], row].tolist()
            raise ValueError(f"the --curves column {CURVE_COLUMNS[col]} is {x!r} at u = {u!r}, "
                             "and only finite values are written")
        yield table[start:end]
    if error is not None:
        raise error


def _check_finite(fields: dict, scope: str = "") -> None:
    """Raise the error of the first float of ``fields``, or of a dict in
    it, that is not finite, naming its field: strict JSON holds none."""
    for name, x in fields.items():
        if isinstance(x, dict):
            _check_finite(x, f"{scope}{name}.")
        elif isinstance(x, float) and not math.isfinite(x):
            raise ValueError(f"{scope}{name} is {x!r}, and only finite values are written")


def cmd_per_vector(args: argparse.Namespace) -> int:
    """``analyze`` and ``characterize``: one JSON record per vector of
    ``--items``, in order, and with ``--curves`` its rows of the curve CSV.
    Each vector's work runs inside its item's error scope, before its
    writes, so a bad vector ends the run after the records of those before
    it.  The exit code is 1 when any record fails its ratio bound or its
    implication chain."""
    data, scheme = load(args)
    with _error_source(f"--function {args.function!r}"):
        f = parse_function(args.function, data.r)
    ids, _ = resolve_items(args.items, data)
    rows = data.matrix[data.indices(ids)]
    curves = getattr(args, "curves", None)
    if args.command == "analyze":
        records = ((rep.to_dict(), rep.competitive_ok and rep.chain_ok, None)
                   for rep in competitiveness_reports(rows, f, scheme))
    else:
        records = _verdicts(rows, f, scheme, curves is not None)
    failed = False
    with _outputs((curves, None, ""), (args.out, sys.stdout, None)) as (curves_fp, fp):
        if curves_fp is not None:
            curves_fp.write(",".join(("item",) + CURVE_COLUMNS) + "\r\n")
        for item, v in zip(ids, rows.tolist()):
            # a record or curve value past the largest float (data near
            # 1e-310 or 1e308) is not written
            with _error_source(f"item {item!r}"):
                fields, ok, columns = next(records)
                _check_finite(fields)
                line = json.dumps({"item": item, "vector": v, "function": f.describe(), **fields}, allow_nan=False)
                curve_rows = None if columns is None else next(columns)
            fp.write(line + "\n")
            if curve_rows is not None:
                curves_fp.writelines(map(_curve_row_format(item).__mod__, curve_rows))
            failed = failed or not ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the four subcommands; :func:`main` parses with the
    one built at import, ``PARSER``.  Its flags are the run's settings, and
    each default is written here once."""
    parser = argparse.ArgumentParser(
        prog="coordest",
        description="Coordinated shared-seed sampling and multi-instance estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.add_argument("--input", required=True, type=Path, help="instance CSV (item,v1,...,vr)")
        p.add_argument("--scheme", default="pps:tau=4", help="inline scheme, e.g. pps:tau=4")
        p.add_argument("--scheme-file", type=Path, default=None, help="key-value scheme config")
        p.add_argument("--salt", type=int, default=0,
                       help="seed salt, taken modulo 2^64: --salt -1 is --salt 18446744073709551615")
        p.add_argument("--out", type=Path, default=None, help="output path (default stdout)")
        return p

    command("sample", "draw coordinated samples")
    p_est = command("estimate", "answer a multi-instance query")
    p_an = command("analyze", "competitiveness reports per item")
    p_ch = command("characterize", "estimability verdicts per item")
    p_est.add_argument("--query", required=True, help="l1|lpp:p|lp:p|maxsum|minsum|jaccard|distinct (bottom-k mode adds sum)")
    p_est.add_argument("--p", type=float, default=None, help="exponent for lpp/lp queries")
    p_est.add_argument("--estimator", default="exact", choices=("exact", *ESTIMATORS))
    for p in (p_an, p_ch):
        p.add_argument("--function", required=True, help="item function, e.g. rg:p=2")
    for p in (p_est, p_an, p_ch):
        p.add_argument("--items", default="all")
    p_est.add_argument("--reps", type=int, default=1, help="Monte Carlo repetitions over salts")
    p_est.add_argument("--k", type=int, default=None, help="bottom-k mode: sample size")
    p_est.add_argument("--rank", default="pps", choices=("pps", "exp"))
    p_est.add_argument("--instance", type=int, default=1, help="bottom-k mode: 1-based instance")
    p_ch.add_argument("--curves", type=Path, default=None, help="plot-ready curve CSV")
    return parser


# argparse keeps nothing from one parse to the next, so every call of main
# shares one parser and a process builds it once
PARSER = build_parser()

# the command of each subcommand, looked up when main runs
COMMANDS = {"sample": cmd_sample, "estimate": cmd_estimate, "analyze": cmd_per_vector, "characterize": cmd_per_vector}


# glibc's malloc moves its mmap and trim thresholds up to the largest block
# freed so far, so the page faults of a command depend on the commands run
# before it in the same process.  Fixed thresholds make each command's cost
# its own: blocks up to 4 MiB come from the heap, and the heap keeps up to
# 64 MiB free before it hands pages back.
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 64 << 20


@functools.cache
def _fix_heap_thresholds() -> None:
    """Set the malloc thresholds once per process; a no-op without glibc's
    ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    mallopt(-1, TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


def main(argv: Sequence[str] | None = None) -> int:
    _fix_heap_thresholds()
    args = PARSER.parse_args(argv)
    return COMMANDS[args.command](args)


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

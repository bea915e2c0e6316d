"""Command-line front end: reproducible experiments with JSON/CSV output.

Exit codes: 0 success, 2 precondition violation, 3 resource guard tripped,
4 internal numeric error.  Every randomized subcommand requires --seed, so
a full flag set reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import ensembles, fourier, gvdistance, linalg, rowdist
from .errors import (CodeTooLarge, MalformedInput, NumericError, PreconditionError,
                     ResourceGuardError, StateSpaceTooLarge)
from .gf import Field, field_new


def _parse_field(text: str) -> Field:
    parts = text.split(",")
    try:
        p, h = map(int, parts) if len(parts) == 2 else (int(text), 1)
    except ValueError:
        raise MalformedInput(f"--field must be p or p,h, got {text!r}") from None
    return field_new(p, h)


def _parse_rate(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"rate {text!r} has a zero denominator") from None


def _count(minimum: int):
    """argparse type: an integer count of at least `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is below {minimum}")
        return value
    return parse


def _unit_interval(text: str) -> float:
    """argparse type: a finite float in [0, 1], as a relative radius or a slack."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"{text} does not lie in [0, 1]")
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as f:
                f.write(text)
        except OSError as e:
            raise MalformedInput(f"cannot write {out}: {e.strerror}") from None
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as e:
        raise MalformedInput(f"cannot read {path}: {e.strerror}") from None


def load_matrix(path: str) -> tuple[Field, np.ndarray]:
    """Matrix input file: {"field": {"p", "h"}, "rows": [[...], ...]}."""
    text = _read(path)
    try:
        doc = json.loads(text)
        p, h, rows = doc["field"]["p"], doc["field"].get("h", 1), doc["rows"]
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        raise MalformedInput(f"malformed matrix file {path}: {e!r}") from None
    fld = field_new(p, h)
    return fld, linalg.as_matrix(rows, fld)


def _feasible_rates(n: int, s: int, points: int, q: int = 1) -> list[Fraction]:
    """Evenly spread rates R = k/n with (1-R)s = s - ks/n integral and q^k
    within ENUM_GUARD, a policy of the sweep's own: each enumeration it runs
    refuses only the ball it walks."""
    rates = [Fraction(k, n) for k in range(1, n)
             if k * s % n == 0 and q ** k <= ensembles.ENUM_GUARD]
    if len(rates) <= points:
        return rates
    picks = np.linspace(0, len(rates) - 1, points).round().astype(int)
    return [rates[i] for i in sorted(set(picks.tolist()))]


def _code(fld: Field, n: int, s: int, rate: Fraction, seed: int) -> ensembles.LinearCode:
    """The layered LDPC code of sparsity s, or a random linear code when s = 0."""
    if s:
        return ensembles.sample_ldpc(ensembles.LdpcEnsembleParams(fld, n, s, rate), seed)
    return ensembles.sample_rlc(n, rate, fld, seed)


def _sweep(fld: Field, n: int, s: int, rates: list[Fraction], trials: int, seed: int,
           statistic) -> list[dict]:
    """One row per rate: `statistic` of `trials` codes, code i drawn at seed + i.

    Code i is `_code` at s, and its statistic is entry i of `values`.  With
    s > 0 entry i of `k` is its dimension, and entry i of `rlc` and of
    `rlc_at_k` is the statistic of a random linear code drawn at seed + i,
    at the rate and at rate k/n (the same code when k/n is the rate): None
    when that code trips the enumeration guard.  A guard trip on code i
    itself stops the sweep, and so does an empty `rates`.
    """
    if not rates:
        raise PreconditionError(f"no rate k/n admits a code to sweep at n = {n}, s = {s}")

    def compared(rate: Fraction, i: int):
        try:
            return statistic(_code(fld, n, 0, rate, seed + i))
        except CodeTooLarge:
            return None

    rows = []
    for rate in rates:
        row = {"rate": [rate.numerator, rate.denominator]}
        for i in range(trials):
            code = _code(fld, n, s, rate, seed + i)
            cells = {"values": statistic(code)}
            if s:
                k, rlc = code.dimension, compared(rate, i)
                at_k = rlc if Fraction(k, n) == rate else compared(Fraction(k, n), i)
                cells.update(k=k, rlc=rlc, rlc_at_k=at_k)
            for key, value in cells.items():
                row.setdefault(key, []).append(value)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> None:
    code = _code(_parse_field(args.field), args.n, args.s, args.rate, args.seed)
    _emit(code.to_json(), args.out)


def cmd_distance_profile(args) -> None:
    if args.empirical and args.format == "csv":
        raise PreconditionError("--empirical writes JSON only; drop --format csv")
    fld = _parse_field(args.field)
    cert = gvdistance.certify_distance(
        fld.q, args.delta, args.eps, args.rate, args.n, args.s or None
    )
    if not args.empirical:
        _emit(cert.to_csv() if args.format == "csv" else cert.to_json(), args.out)
        return
    [row] = _sweep(fld, args.n, cert.params.s, [args.rate], args.trials, args.seed,
                   lambda code: round(ensembles.min_distance(code)[0] * args.n))
    weights = row.pop("values")
    doc = json.loads(cert.to_json())
    doc["empirical_min_weight_histogram"] = {str(w): weights.count(w) for w in sorted(set(weights))}
    doc.update(row)
    _emit(json.dumps(doc, indent=1), args.out)


def cmd_threshold(args) -> None:
    tau = rowdist.RowDistribution.from_json(_read(args.tau))
    report = rowdist.rstar(tau)
    doc = json.loads(report.to_json())
    if args.empirical:
        if tau.ell != 1 or tau.field.q != 2:
            raise PreconditionError("the empirical sweep takes single-column tau over F_2 only")
        weight = tau.mass((1,)) * args.n
        if weight.denominator != 1:
            raise PreconditionError(f"tau(1) * n = {weight} is not an integer weight")
        rows = _sweep(tau.field, args.n, 0, _feasible_rates(args.n, 0, 12, tau.field.q),
                      args.trials, args.seed,
                      lambda code: ensembles.has_codeword_of_weight(code, int(weight)))
        doc["empirical_sweep"] = [
            {"rate": row["rate"], "frequency": sum(row["values"]) / args.trials} for row in rows
        ]
    _emit(json.dumps(doc, indent=1), args.out)


def cmd_ldpc_contain(args) -> None:
    fld, m = load_matrix(args.matrix)
    n = m.shape[0]
    params = ensembles.LdpcEnsembleParams(fld, n, args.s, args.rate)
    report = fourier.ldpc_contain_bound(m, params, args.eps)
    doc = json.loads(report.to_json())
    tau = rowdist.row_distribution_of(fld, m)
    try:
        layer = fourier.exact_layer_prob(tau, n, args.s)
        doc["exact_probability"] = layer ** params.t
    except StateSpaceTooLarge:
        doc["exact_probability"] = None
    if args.trials:
        freq = ensembles.mc_ldpc_contains(m, params, args.trials, args.seed)
        doc["monte_carlo"] = {
            "trials": args.trials,
            "frequency": freq,
            "standard_error": (freq * (1 - freq) / args.trials) ** 0.5,
        }
    _emit(json.dumps(doc, indent=1), args.out)


def cmd_listdecode(args) -> None:
    fld = _parse_field(args.field)
    rows = _sweep(fld, args.n, args.s, _feasible_rates(args.n, args.s, 8), args.trials,
                  args.seed, lambda code: ensembles.max_list_size(code, args.alpha).max_list_size)
    for row in rows:
        sizes = row.pop("values")
        row.update(max_list_sizes=sizes, median=float(np.median(sizes)))
    tau, r_est = rowdist.listdec_threshold_search(
        fld, Fraction(args.alpha).limit_denominator(args.n), args.list_size,
        seed=args.seed,
    )
    doc = {"alpha": args.alpha, "list_size": args.list_size, "rate_scan": rows,
           "threshold_upper_estimate": float(r_est), "witness_tau": json.loads(tau.to_json())}
    _emit(json.dumps(doc, indent=1), args.out)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ldpclab")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("sample", help="sample a code and write its JSON form")
    p.add_argument("--field", required=True)
    p.add_argument("--n", type=_count(1), required=True)
    p.add_argument("--rate", type=_parse_rate, required=True)
    p.add_argument("--s", type=_count(0), default=0, help="sparsity; 0 = random linear")
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("distance-profile", help="distance certificate grid")
    p.add_argument("--field", required=True)
    p.add_argument("--n", type=_count(1), required=True)
    p.add_argument("--rate", type=_parse_rate, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--s", type=_count(0), default=0)
    p.add_argument("--empirical", action="store_true")
    p.add_argument("--trials", type=_count(1), default=50)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    common(p)
    p.set_defaults(func=cmd_distance_profile)

    p = sub.add_parser("threshold", help="containment threshold of a distribution")
    p.add_argument("--tau", required=True, help="distribution JSON file")
    p.add_argument("--n", type=_count(1), default=48)
    p.add_argument("--empirical", action="store_true")
    p.add_argument("--trials", type=_count(1), default=200)
    common(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("ldpc-contain", help="containment bound vs oracles")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--s", type=_count(1), required=True)
    p.add_argument("--rate", type=_parse_rate, required=True)
    p.add_argument("--eps", type=_unit_interval, default=0.1)
    p.add_argument("--trials", type=_count(0), default=0)
    common(p)
    p.set_defaults(func=cmd_ldpc_contain)

    p = sub.add_parser("listdecode", help="list sizes across rates")
    p.add_argument("--field", required=True)
    p.add_argument("--n", type=_count(1), required=True)
    p.add_argument("--s", type=_count(1), required=True)
    p.add_argument("--alpha", type=_unit_interval, required=True)
    p.add_argument("--list-size", type=_count(1), default=1)
    p.add_argument("--trials", type=_count(1), default=10)
    common(p)
    p.set_defaults(func=cmd_listdecode)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except PreconditionError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return 2
    except ResourceGuardError as e:
        print(f"resource guard: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())

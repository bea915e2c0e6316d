"""The four benchmark workloads, each shaped like an experiment users run.

A workload builds its inputs from the workload seed as a list of rounds; a
round is a fixed sequence of item shapes, so every run sees the same mix of
shapes whatever the seed.  `run` is the timed call into ldpclab; `keep`
turns its output into a compact record (outside the item time); `check`,
`check_pool`, `extras` and `check_cli` verify outputs with oracles that do
not depend on the program's random stream.

All ldpclab calls go through module attributes (`ensembles.sample_rlc`, not a
bare imported name) so that the tracer's rebinding sees them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from ldpclab import cli, ensembles, fourier, gf, gvdistance, linalg, rowdist

TOL = 1e-9


@dataclass(frozen=True)
class Item:
    index: int
    shape: str
    data: tuple


def _rounds(spec: list[list[tuple[str, tuple]]]) -> list[list[Item]]:
    """Number the (shape, data) pairs of each round consecutively."""
    out, idx = [], 0
    for row in spec:
        items = []
        for shape, data in row:
            items.append(Item(idx, shape, data))
            idx += 1
        out.append(items)
    return out


def _gf2_rank(m: np.ndarray) -> int:
    """Rank over F_2 by XOR elimination on Python integers."""
    basis: dict[int, int] = {}
    for row in np.asarray(m, dtype=np.uint8):
        v = int.from_bytes(np.packbits(row).tobytes(), "big")
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def _within_4se(freq: float, p: float, trials: int) -> bool:
    return abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / trials) + 1e-15


def _fraction(x) -> Fraction:
    """A threshold from CLI JSON: [num, den] or a float."""
    return Fraction(*x) if isinstance(x, list) else Fraction(x)


def digest(rec):
    """Hashable form of a record, for comparing repeated items."""
    if isinstance(rec, np.ndarray):
        return (rec.shape, rec.tobytes())
    if isinstance(rec, (tuple, list)):
        return tuple(digest(x) for x in rec)
    return rec


class Workload:
    name = ""
    rounds_per_s = 1.0  # typical rounds per second on the reference 2-vCPU x86_64 VM
    trace_rounds = 1    # rounds of the fixed-work traced run
    # hostspeed kernels whose mean slowdown normalises this workload's times
    host_kernels = ("py", "vec", "big", "frac")

    rounds: list[list[Item]]

    def run(self, item: Item):
        raise NotImplementedError

    def keep(self, item: Item, out):
        return out

    def check(self, item: Item, rec) -> list[str]:
        return []

    def check_pool(self, done: list[tuple[Item, object]]) -> list[tuple[str, int]]:
        """Problems found across items, each with the number of items it affects."""
        return []

    def extras(self) -> list[str]:
        """Once-per-run calls outside the item loop; returns problems."""
        return []

    def cli_argv(self, outdir: Path) -> list[str]:
        raise NotImplementedError

    def check_cli(self, doc: dict) -> list[str]:
        return []

    def properties(self, done: list[tuple[Item, object]]) -> dict:
        return {}


class RlcWeight(Workload):
    """Criterion 10: weight-12 words in random linear codes over F_2, n = 48."""

    name = "rlc-weight"
    N, WEIGHT = 48, 12
    LOW, HIGH = Fraction(3, 48), Fraction(17, 48)
    # one low-rate code per two high-rate codes: the median then falls inside
    # the high-rate cluster and p90 inside the low-rate one, not between them
    ROUND = (LOW, HIGH, HIGH)
    rounds_per_s, trace_rounds = 18.0, 100

    def __init__(self, seed: int, n_rounds: int):
        self.seed = seed
        self.field = gf.field_new(2)
        rng = np.random.default_rng([seed, 1])
        seeds = rng.integers(0, 2 ** 62, size=(n_rounds, len(self.ROUND)))
        self.rounds = _rounds([
            [(f"R={r}", (r, int(s))) for r, s in zip(self.ROUND, row)]
            for row in seeds.tolist()
        ])

    def run(self, item):
        rate, code_seed = item.data
        code = ensembles.sample_rlc(self.N, rate, self.field, code_seed)
        return code, ensembles.has_codeword_of_weight(code, self.WEIGHT)

    def keep(self, item, out):
        code, hit = out
        return (bool(hit), code.h.astype(np.uint8), code.generator.astype(np.uint8))

    def check(self, item, rec):
        hit, h, g = rec
        problems = []
        if g.shape[1] != self.N - _gf2_rank(h):
            problems.append(f"item {item.index}: dim {g.shape[1]} != n - rank(H)")
        if (h.astype(np.int64) @ g.astype(np.int64) % 2).any():
            problems.append(f"item {item.index}: H.G != 0")
        if _gf2_rank(g.T) != g.shape[1]:
            problems.append(f"item {item.index}: generator columns dependent")
        return problems

    def _hits(self, done):
        tally = {r: [0, 0] for r in (self.LOW, self.HIGH)}
        for item, (hit, h, g) in done:
            tally[item.data[0]][0] += hit
            tally[item.data[0]][1] += 1
        return tally

    def check_pool(self, done):
        problems = []
        for rate, (hits, count) in self._hits(done).items():
            if not count:
                continue
            freq = hits / count
            ok = freq < 0.2 if rate == self.LOW else freq > 0.8
            if not ok:
                problems.append((f"R={rate}: weight-{self.WEIGHT} hit frequency "
                                 f"{freq:.3f} on the wrong side of the gate", count))
        return problems

    def cli_argv(self, outdir):
        tau = rowdist.RowDistribution.from_dict(
            self.field, 1, {(0,): Fraction(3, 4), (1,): Fraction(1, 4)})
        path = outdir / f"{self.name}-tau.json"
        path.write_text(tau.to_json())
        # the sweep covers rates up to 1 - 1/n; at n = 48 the top rates exceed
        # the 2^24 enumeration guard, so the pass runs at n = 24
        return ["threshold", "--tau", str(path), "--empirical", "--n", "24",
                "--trials", "2", "--seed", str(self.seed)]

    def check_cli(self, doc):
        sweep = doc.get("empirical_sweep", [])
        if len(sweep) != 12 or not all(0 <= s["frequency"] <= 1 for s in sweep):
            return ["threshold --empirical: malformed sweep"]
        return []

    def properties(self, done):
        tally = self._hits(done)
        k_sum = sum(rec[2].shape[1] for _, rec in done)
        return {
            "items": len(done),
            "hits_by_rate": {str(r): {"hits": h, "items": c} for r, (h, c) in tally.items()},
            "hit_frac": sum(h for h, _ in tally.values()) / max(1, len(done)),
            "mean_k": k_sum / max(1, len(done)),
        }


class LdpcDistance(Workload):
    """Criterion 11 plus a certificate: min distance of LDPC codes, n = 60."""

    name = "ldpc-distance"
    N, S, RATE = 60, 6, Fraction(1, 3)
    DELTA, EPS = 0.05, 0.1
    rounds_per_s, trace_rounds = 7.0, 40
    # the enumeration is vectorised numpy over large arrays; in traces the
    # pure-Python, Fraction and 2 MiB kernels slowed in ways its items did
    # not, and normalising by them widened its run-to-run spread
    host_kernels = ("vec",)

    def __init__(self, seed: int, n_rounds: int):
        self.seed = seed
        self.field = gf.field_new(2)
        self.params = ensembles.LdpcEnsembleParams(self.field, self.N, self.S, self.RATE)
        rng = np.random.default_rng([seed, 2])
        seeds = rng.integers(0, 2 ** 62, size=n_rounds)
        self.rounds = _rounds([[("ldpc", (int(s),))] for s in seeds.tolist()])

    def run(self, item):
        code = ensembles.sample_ldpc(self.params, item.data[0])
        d, witness = ensembles.min_distance(code)
        return code, d, witness

    def keep(self, item, out):
        code, d, w = out
        return (d, w.astype(np.uint8), code.h.astype(np.uint8), code.dimension)

    def check(self, item, rec):
        d, w, h, k = rec
        problems = []
        weight = int(np.count_nonzero(w))
        if weight == 0:
            problems.append(f"item {item.index}: zero witness")
        if (h.astype(np.int64) @ w.astype(np.int64) % 2).any():
            problems.append(f"item {item.index}: H.w != 0")
        if abs(d * self.N - weight) > TOL:
            problems.append(f"item {item.index}: witness weight {weight} != d*n {d * self.N}")
        if k != self.N - _gf2_rank(h):
            problems.append(f"item {item.index}: dim {k} != n - rank(H)")
        return problems

    def extras(self):
        problems = []
        cert = gvdistance.certify_distance(2, self.DELTA, self.EPS, self.RATE, self.N, self.S)
        if not all(math.isfinite(x) for row in cert.rows for x in row):
            problems.append("certificate has a non-finite row")
        if not 0 <= cert.failure_probability <= 1:
            problems.append(f"failure probability {cert.failure_probability} outside [0, 1]")
        params = gvdistance.GvParams(2, self.S, self.RATE, self.DELTA, self.EPS)
        for w in range(1, math.floor(self.DELTA * self.N) + 1):
            lp = gvdistance.p_lambda_exact(w / self.N, self.N, params)
            if math.isnan(lp) or lp > TOL:
                problems.append(f"log_q P_lambda at w={w} is {lp}")
        return problems

    def cli_argv(self, outdir):
        return ["distance-profile", "--field", "2", "--n", str(self.N),
                "--rate", str(self.RATE), "--delta", str(self.DELTA),
                "--eps", str(self.EPS), "--s", str(self.S), "--empirical",
                "--trials", "2", "--seed", str(self.seed)]

    def check_cli(self, doc):
        hist = doc.get("empirical_min_weight_histogram", {})
        rows_ok = all(math.isfinite(x) for row in doc.get("rows", []) for x in row)
        if sum(hist.values()) != 2 or not rows_ok:
            return ["distance-profile --empirical: malformed output"]
        return []

    def properties(self, done):
        ks = [rec[3] for _, rec in done]
        weights: dict[int, int] = {}
        for _, rec in done:
            wt = int(np.count_nonzero(rec[1]))
            weights[wt] = weights.get(wt, 0) + 1
        return {
            "items": len(done),
            "mean_k": sum(ks) / max(1, len(ks)),
            "codewords_enumerated": sum(2 ** k for k in ks),
            "min_weight_histogram": {str(w): weights[w] for w in sorted(weights)},
        }


class LdpcContain(Workload):
    """Criteria 9 and 2: containment of a fixed M, bound vs exact DP vs Monte Carlo."""

    name = "ldpc-contain"
    S, RATE, EPS = 3, Fraction(1, 3), 0.1
    # label: (p, h, n, nonzero row types with multiplicity, trials per MC call)
    SHAPES = {
        "F2-l1": (2, 1, 24, (((1,), 4),), 10_000),
        "F2-l2": (2, 1, 24, (((1, 0), 2), ((0, 1), 2)), 10_000),
        "F3-l1": (3, 1, 24, (((1,), 2),), 10_000),
        "F3-l2": (3, 1, 24, (((1, 0), 2), ((0, 1), 2)), 10_000),
        "F4-l1": (2, 2, 12, (((1,), 2),), 100),
        "F4-l2": (2, 2, 12, (((1, 0), 2), ((0, 1), 2)), 100),
    }
    rounds_per_s, trace_rounds = 2.7, 14

    def __init__(self, seed: int, n_rounds: int):
        self.seed = seed
        self.fields = {}
        self.params = {}
        for label, (p, h, n, rows, trials) in self.SHAPES.items():
            fld = gf.field_new(p, h)
            self.fields[label] = fld
            self.params[label] = ensembles.LdpcEnsembleParams(fld, n, self.S, self.RATE)
        rng = np.random.default_rng([seed, 3])
        spec = []
        for _ in range(n_rounds):
            row = []
            for label in self.SHAPES:
                row.append((label, (self._matrix(label, rng),
                                    *map(int, rng.integers(0, 2 ** 62, size=2)))))
            spec.append(row)
        self.rounds = _rounds(spec)

    def _matrix(self, label, rng) -> np.ndarray:
        """Full-rank M: the shape's row types, each scaled by a random unit,
        at random positions among zero rows."""
        p, h, n, rows, trials = self.SHAPES[label]
        fld = self.fields[label]
        m = np.zeros((n, len(rows[0][0])), dtype=np.int64)
        i = 0
        for vec, count in rows:
            for _ in range(count):
                m[i] = fld.mul(int(rng.integers(1, fld.q)), np.array(vec, dtype=np.int64))
                i += 1
        return m[rng.permutation(n)]

    def run(self, item):
        m, seed_ldpc, seed_rlc = item.data
        fld, params = self.fields[item.shape], self.params[item.shape]
        trials = self.SHAPES[item.shape][4]
        rep = fourier.ldpc_contain_bound(m, params, self.EPS)
        tau = rowdist.row_distribution_of(fld, m)
        exact = fourier.exact_layer_prob(tau, params.n, self.S) ** params.t
        f_ldpc = ensembles.mc_ldpc_contains(m, params, trials, seed_ldpc)
        f_rlc = ensembles.mc_rlc_contains(m, self.RATE, fld, trials, seed_rlc)
        return fld.q ** rep.log_q_bound, exact, f_ldpc, f_rlc

    def check(self, item, rec):
        bound, exact, f_ldpc, f_rlc = rec
        problems = []
        if not 0 <= exact <= 1:
            problems.append(f"item {item.index}: exact probability {exact} outside [0, 1]")
        if f_ldpc > bound:
            problems.append(f"item {item.index}: LDPC frequency {f_ldpc} above bound {bound}")
        return problems

    def _by_shape(self, done):
        groups: dict[str, list] = {}
        for item, rec in done:
            groups.setdefault(item.shape, []).append(rec)
        return groups

    def check_pool(self, done):
        problems = []
        for label, recs in self._by_shape(done).items():
            p, h, n, rows, trials = self.SHAPES[label]
            exacts = [r[1] for r in recs]
            exact = exacts[0]
            # the layer probability depends only on the row-type counts
            if any(abs(e - exact) > TOL * max(exact, 1e-300) for e in exacts):
                problems.append((f"{label}: exact probability varies across items", len(recs)))
            total = trials * len(recs)
            f_ldpc = sum(r[2] for r in recs) / len(recs)
            f_rlc = sum(r[3] for r in recs) / len(recs)
            if not _within_4se(f_ldpc, exact, total):
                problems.append((f"{label}: LDPC frequency {f_ldpc:.3e} vs exact "
                                 f"{exact:.3e} beyond 4 SE over {total} trials", len(recs)))
            q, ell = p ** h, len(rows[0][0])
            p_rlc = float(q) ** (-float(1 - self.RATE) * ell * n)
            if not _within_4se(f_rlc, p_rlc, total):
                problems.append((f"{label}: RLC frequency {f_rlc:.3e} vs "
                                 f"{p_rlc:.3e} beyond 4 SE over {total} trials", len(recs)))
        return problems

    def cli_argv(self, outdir):
        m = next(it.data[0] for it in self.rounds[0] if it.shape == "F2-l2")
        path = outdir / f"{self.name}-matrix.json"
        path.write_text(json.dumps({"field": {"p": 2, "h": 1}, "rows": m.tolist()}))
        return ["ldpc-contain", "--matrix", str(path), "--s", str(self.S),
                "--rate", str(self.RATE), "--trials", "20000", "--seed", str(self.seed)]

    def check_cli(self, doc):
        mc = doc.get("monte_carlo", {})
        if doc.get("exact_probability") is None or not 0 <= mc.get("frequency", -1) <= 1:
            return ["ldpc-contain --trials: malformed output"]
        return []

    def properties(self, done):
        trials = {"prime": 0, "ext": 0}
        for item, _ in done:
            kind = "ext" if self.fields[item.shape].h > 1 else "prime"
            trials[kind] += 2 * self.SHAPES[item.shape][4]  # LDPC and RLC calls
        return {
            "items": len(done),
            "mc_trials": trials,
            "ext_trial_share": trials["ext"] / max(1, sum(trials.values())),
            "items_by_shape": {k: len(v) for k, v in self._by_shape(done).items()},
        }


class Threshold(Workload):
    """Thresholds and Fourier bounds of seeded row distributions."""

    name = "threshold"
    # label: (kind, p, h, ell)
    SHAPES = {
        "dense-F2^4": ("dense", 2, 1, 4),
        "dense-F3^3": ("dense", 3, 1, 3),
        "dense-F4^2": ("dense", 2, 2, 2),
        "sparse-F2^5": ("sparse", 2, 1, 5),
        "sparse-F3^4": ("sparse", 3, 1, 4),
        "conv-F2^10": ("conv", 2, 1, 10),
        "conv-F3^6": ("conv", 3, 1, 6),
        "conv-F5^4": ("conv", 5, 1, 4),
    }
    # multiplicities put the median in the middle of the dense-F3^3 cluster
    # and p90 inside the sparse-F2^5 one, not on a boundary between shapes;
    # three dense-F3^3 items per round give the median more samples
    ROUND = ("conv-F5^4", "conv-F3^6", "conv-F2^10", "dense-F4^2",
             "dense-F3^3", "dense-F3^3", "dense-F3^3", "dense-F2^4",
             "sparse-F3^4", "sparse-F2^5", "sparse-F2^5")
    CONV_SUPPORT = 30
    CONV_POWERS = (2, 3, 5)
    rounds_per_s, trace_rounds = 0.7, 6

    def __init__(self, seed: int, n_rounds: int):
        self.seed = seed
        self.fields = {label: gf.field_new(p, h) for label, (_, p, h, _) in self.SHAPES.items()}
        rng = np.random.default_rng([seed, 4])
        self.rounds = _rounds([
            [(label, (self._tau(label, rng),)) for label in self.ROUND]
            for _ in range(n_rounds)
        ])

    def _tau(self, label, rng) -> rowdist.RowDistribution:
        kind, p, h, ell = self.SHAPES[label]
        fld = self.fields[label]
        q = fld.q
        if kind == "dense":
            # every vector of F_q^ell with a positive mass k / (4 q^ell)
            size, den = q ** ell, 4 * q ** ell
            cuts = np.sort(rng.choice(np.arange(1, den), size=size - 1, replace=False))
            parts = np.diff([0, *cuts.tolist(), den])
            masses = {tuple(linalg.index_vector(i, ell, q).tolist()): Fraction(int(c), den)
                      for i, c in enumerate(parts)}
            return rowdist.RowDistribution.from_dict(fld, ell, masses)
        if kind == "sparse":
            # a basis of a random hyperplane plus one more vector in it
            while True:
                basis = rng.integers(0, q, size=(ell - 1, ell))
                if linalg.rank(fld, basis) == ell - 1:
                    break
            vecs = {tuple(int(x) for x in b) for b in basis}
            while len(vecs) < ell:
                coeffs = rng.integers(0, q, size=(1, ell - 1))
                v = linalg.matmul(fld, coeffs, basis)[0]
                if v.any():
                    vecs.add(tuple(int(x) for x in v))
            return rowdist.RowDistribution.from_dict(
                fld, ell, {v: Fraction(1, len(vecs)) for v in vecs})
        vecs = set()
        while len(vecs) < self.CONV_SUPPORT:
            vecs.add(tuple(int(x) for x in rng.integers(0, q, size=ell)))
        return rowdist.RowDistribution.from_dict(
            fld, ell, {v: Fraction(1, len(vecs)) for v in vecs})

    def run(self, item):
        tau = item.data[0]
        if self.SHAPES[item.shape][0] == "conv":
            twist = fourier.scalar_twist(tau)
            return twist, [fourier.conv_power_at_zero(twist, s) for s in self.CONV_POWERS]
        rep = rowdist.rstar(tau)
        delta = rowdist.smoothness(tau)
        return rep, delta, fourier.fourier_coefficient_bound(tau, delta)

    def keep(self, item, out):
        if self.SHAPES[item.shape][0] == "conv":
            twist, values = out
            return ("conv", tuple(values), float(np.sum(twist.values.real ** 2)))
        rep, delta, (max_coeff, bound, holds) = out
        return ("rstar", bool(rep.r_star >= rep.r_expected), float(rep.r_star),
                Fraction(delta), bool(holds))

    def check(self, item, rec):
        kind, p, h, ell = self.SHAPES[item.shape]
        problems = []
        if rec[0] == "conv":
            _, values, twist_sq = rec
            size = (p ** h) ** ell
            # two twisted samples sum to 0 with probability sum_x tw(x) tw(-x),
            # and the twist is symmetric under x -> -x
            if abs(size * values[0] - twist_sq) > TOL:
                problems.append(f"item {item.index}: s=2 power {size * values[0]} != {twist_sq}")
            for s, v in zip(self.CONV_POWERS, values):
                if not -TOL <= size ** (s - 1) * v <= 1 + TOL:
                    problems.append(f"item {item.index}: s={s} zero-sum probability outside [0, 1]")
            return problems
        _, ordered, r_star, delta, holds = rec
        if not ordered:
            problems.append(f"item {item.index}: r* below the expectation threshold")
        if delta > 0 and not holds:
            problems.append(f"item {item.index}: coefficient bound fails on a smooth tau")
        if (kind == "sparse") != (delta == 0):
            problems.append(f"item {item.index}: smoothness {delta} contradicts the support span")
        return problems

    def extras(self):
        alpha = Fraction(1, 4)
        tau, r = rowdist.listdec_threshold_search(self.fields["dense-F2^4"], alpha, 1, seed=self.seed)
        if not rowdist.is_bad_list(tau, alpha)[0] or not math.isfinite(float(r)):
            return ["listdec_threshold_search returned a tau that is not a bad list"]
        return []

    def cli_argv(self, outdir):
        tau = next(it.data[0] for it in self.rounds[0] if it.shape == "dense-F2^4")
        path = outdir / f"{self.name}-tau.json"
        path.write_text(tau.to_json())
        return ["threshold", "--tau", str(path), "--seed", str(self.seed)]

    def check_cli(self, doc):
        if _fraction(doc["r_star"]) < _fraction(doc["r_expected"]):
            return ["threshold: r* below the expectation threshold"]
        return []

    def properties(self, done):
        rstar_recs = [rec for _, rec in done if rec[0] == "rstar"]
        proper = sum(1 for rec in rstar_recs if rec[3] == 0)
        shapes = sorted({(self.fields[it.shape].q, self.SHAPES[it.shape][3]) for it, _ in done})
        return {
            "items": len(done),
            "tau_with_proper_span": {"count": proper, "of": len(rstar_recs)},
            "proper_span_share": proper / max(1, len(rstar_recs)),
            "distinct_fourier_shapes": len(shapes),
            "fourier_shapes": [f"F{q}^{ell}" for q, ell in shapes],
        }


WORKLOADS = {w.name: w for w in (RlcWeight, LdpcDistance, LdpcContain, Threshold)}

"""Batch command line: parse problem files, dispatch analyses, emit reports.

Every verb reads JSON, writes a JSON report (--out) and prints a fixed-width
human summary.  Exit status: 0 for a decisive result, 2 for undetermined,
1 for input errors.  Reports are byte-identical for identical
(input, seed, flags).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from .blockdecomp import (
    BlockDecomposition,
    Tile,
    eliminate,
    has_generic_rank_p,
    useful_tiles,
    verify_block_decomposition,
)
from .gitnorm import (
    find_destabilizer,
    git_norm,
    polytope_membership,
)
from .polycore import (
    FloatRangeError,
    PolyMatrix,
    fraction_from_json,
    fraction_to_json,
    hs_norm,
    is_int,
    number_from_json,
    polymatrix_from_json,
    support_set,
)
from .radon import (
    CurvatureForm,
    NonTransverse,
    RadonProblem,
    balanced_check,
    curvature_form,
    model_exponents,
    semistability_verdict,
)
from .sublevel import estimate_integral, integral_inputs, sample_omega
from .tileplan import solve_plan, tile_point


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are input errors: one line, no usage."""

    def error(self, message):
        raise InputError(message)


def parse_rational(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}: {exc}") from exc


def _load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise InputError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path}: the top level is not a JSON object")
    return obj


def _matrix_from(obj: dict, path: str) -> PolyMatrix:
    try:
        return polymatrix_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: not a polynomial matrix: {exc}") from exc


def _decomposition_from(obj: dict, path: str) -> BlockDecomposition:
    try:
        return BlockDecomposition.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: not a block decomposition "
                         f"({type(exc).__name__}: {exc})") from exc


def _emit(report: dict, out: str | None):
    # strict JSON: a non-finite float (a bound past the float range) is null
    text = json.dumps(report, default=_json_default)
    text = json.dumps(json.loads(text, parse_constant=lambda _: None),
                      sort_keys=True, indent=2, allow_nan=False)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:  # a directory, in a missing directory, unwritable
            raise InputError(str(exc)) from exc
    return text


def _json_default(v):
    if isinstance(v, Fraction):
        return fraction_to_json(v)
    raise TypeError(f"not serializable: {type(v)}")


def _table(rows):
    if not rows:
        return
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))


def _rat_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _value_str(x: float, digits: int) -> str:
    """x with ``digits`` decimals: fixed point below 1e15, scientific from 1e15
    up and for a nonzero x whose fixed point would be all zeros."""
    fixed = f"{x:.{digits}f}"
    return fixed if abs(x) < 1e15 and (float(fixed) or not x) else f"{x:.{digits}e}"


# -- verbs -------------------------------------------------------------------------


def cmd_hsnorm(args) -> int:
    M = _matrix_from(_load(args.input), args.input)
    value = hs_norm(M)
    _table([["hsnorm", _value_str(value, 9)]])
    _emit({"value": value}, args.out)
    return 0


def cmd_gitnorm(args) -> int:
    M = _matrix_from(_load(args.input), args.input)
    est = git_norm(M, args.sigma)
    _table([
        ["value", _value_str(est.value, 6)],
        ["status", est.status],
        ["foc_residual", f"{est.foc_residual:.3e}"],
    ])
    _emit(est.to_json(), args.out)
    return 0 if est.status in ("converged", "drift-to-zero") else 2


def cmd_polytope(args) -> int:
    M = _matrix_from(_load(args.input), args.input)
    res = polytope_membership(support_set(M), args.sigma)
    _table([["member", str(res.member)]])
    _emit(res.to_json(), args.out)
    return 0


def cmd_destabilize(args) -> int:
    M = _matrix_from(_load(args.input), args.input)
    dest = find_destabilizer(support_set(M), args.sigma,
                             sigma_uniform=args.sigma_uniform)
    if dest is None:
        _table([["destabilizer", "none"]])
        _emit({"destabilizer": None}, args.out)
        return 0
    _table([
        ["margin", _rat_str(dest.margin)],
        ["w_p", " ".join(map(_rat_str, dest.w_p))],
        ["w_q", " ".join(map(_rat_str, dest.w_q))],
        ["w_d", " ".join(map(_rat_str, dest.w_d))],
    ])
    _emit({"destabilizer": dest.to_json()}, args.out)
    return 0


def _incidence_from(obj: dict, path: str) -> PolyMatrix:
    M = _matrix_from(obj, path)
    if not has_generic_rank_p(M):
        raise InputError(f"{path}: not an incidence matrix (generic rank below p = {M.p})")
    return M


def cmd_blockdecomp(args) -> int:
    if args.verify:
        obj = _load(args.verify)
        try:
            M = _incidence_from(obj["matrix"], args.verify)
            decomp = _decomposition_from(obj["decomposition"], args.verify)
        except KeyError as exc:
            raise InputError(f"{args.verify}: missing field {exc}") from exc
        if (decomp.p, decomp.q, decomp.d) != (M.p, M.q, M.d):
            raise InputError(
                f"{args.verify}: the decomposition is for {decomp.p} x {decomp.q} "
                f"matrices in {decomp.d} variables, the matrix is {M.p} x {M.q} "
                f"in {M.d}")
        rep = verify_block_decomposition(M, decomp)
        _table([["verification", "PASS" if rep.ok else "FAIL"]])
        _table([["D"] + [" ".join(map(str, row)) for row in decomp.D]])
        _emit(rep.to_json(), args.out)
        return 0
    M = _incidence_from(_load(args.input), args.input)
    A, B, R, decomp = eliminate(M)
    rep = verify_block_decomposition(M, decomp)
    _table([["row_groups", decomp.row_groups], ["col_groups", decomp.col_groups]])
    _table([["D"] + [" ".join(map(str, row)) for row in decomp.D]])
    _table([["self-check", "PASS" if rep.ok else "FAIL"]])
    _emit({"decomposition": decomp.to_json(), "verified": rep.ok}, args.out)
    return 0


def cmd_tiles(args) -> int:
    obj = _load(args.input)
    decomp = _decomposition_from(
        obj["decomposition"] if "decomposition" in obj else obj, args.input)
    tiles = useful_tiles(decomp)
    rows = [["I", "J"]] + [[str(t.I), str(t.J)] for t in tiles]
    _table(rows)
    _emit({"tiles": [t.to_json() for t in tiles]}, args.out)
    return 0


def cmd_plan(args) -> int:
    obj = _load(args.input)
    try:
        decomp = _decomposition_from(obj["decomposition"], args.input)
        tiles = [(Tile(tuple(e["I"]), tuple(e["J"])), fraction_from_json(e["sigma"]))
                 for e in obj["tiles"]]
        pts = [tile_point(decomp, tile, sig) for tile, sig in tiles]
        sigma = args.sigma
        if sigma is None and "sigma" in obj:
            sigma = number_from_json(obj["sigma"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{args.input}: not a tile plan problem "
                         f"({type(exc).__name__}: {exc})") from exc
    plan = solve_plan(pts, decomp.p, decomp.q, sigma=sigma)
    if plan is None:
        _table([["plan", "infeasible"]])
        _emit({"plan": None}, args.out)
        return 2
    _table([
        ["theta", " ".join(_rat_str(t) for t in plan.theta)],
        ["sigma", _rat_str(plan.sigma_total)],
        ["tau", _rat_str(plan.tau)],
    ])
    _emit(plan.to_json(), args.out)
    return 0


def cmd_sublevel(args) -> int:
    if not (1 <= args.samples <= sys.maxsize and 1 <= args.omegas <= sys.maxsize):
        raise InputError(f"--samples and --omegas must be at least 1 and at most {sys.maxsize}")
    if not 0 <= args.seed <= 2 ** 128 - args.omegas:
        # omega k and its Philox streams are keyed by seed + k
        raise InputError("--seed must be at least 0, and --seed + --omegas - 1 below 2**128")
    obj = _load(args.input)
    try:
        M = _matrix_from(obj["matrix"], args.input)
        weight, tau, domain = integral_inputs(
            M, number_from_json(obj.get("weight", 1)),
            args.tau if args.tau is not None else fraction_from_json(obj["tau"]),
            [[number_from_json(x) for x in iv] for iv in obj["domain"]])
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"{args.input}: not a sublevel problem "
                         f"({type(exc).__name__}: {exc})") from exc
    n_omegas = args.omegas
    rows = [["omega", "estimate", "stderr"]]
    report = {"tau": tau, "omegas": [], "max_estimate": 0.0}
    for k in range(n_omegas):
        try:
            omega = sample_omega(args.seed + k, args.scale_max, M.q)
        except ValueError as exc:
            raise InputError(f"--scale-max {args.scale_max}: {exc}") from exc
        est = estimate_integral(M, weight, tau, domain, omega,
                                seed=args.seed + k, n_samples=args.samples,
                                stratified=args.stratified)
        report["omegas"].append({
            "log_scale": list(map(float, omega.log_scale)),
            "estimate": est.value,
            "stderr": est.std_error,
            "flagged": est.flagged,
        })
        report["max_estimate"] = max(report["max_estimate"], est.value)
        rows.append([k, f"{est.value:.6f}", f"{est.std_error:.2e}"])
    _table(rows)
    _table([["max_estimate", f"{report['max_estimate']:.6f}"]])
    _emit(report, args.out)
    return 0


def _form_from(obj: dict, path: str) -> CurvatureForm:
    """The curvature form of a tensor file, or of a problem file with phi
    at its ``point`` (the origin by default)."""
    try:
        if "tensor" in obj:
            return CurvatureForm([[[fraction_from_json(v) for v in row]
                                   for row in plane] for plane in obj["tensor"]])
        if "phi" in obj:
            prob = RadonProblem.from_json(obj)
            point = obj.get("point", [0] * (prob.n + prob.nt))
            return curvature_form(prob, [number_from_json(v) for v in point])
    except (KeyError, TypeError, ValueError, ZeroDivisionError, NonTransverse) as exc:
        raise InputError(f"{path}: not a curvature form problem "
                         f"({type(exc).__name__}: {exc})") from exc
    raise InputError(f"{path}: need a tensor or a problem with phi")


def cmd_semistable(args) -> int:
    Q = _form_from(_load(args.input), args.input)
    verdict = semistability_verdict(Q)
    _table([["state", verdict.state], ["detail", verdict.detail]])
    _emit(verdict.to_json(), args.out)
    return 0 if verdict.state in ("positive", "unstable") else 2


def cmd_radon(args) -> int:
    if args.exponents:
        if None in (args.n, args.n1, args.k):
            raise InputError("--exponents needs --n, --n1 and --k")
        try:
            me = model_exponents(args.n, args.n1, args.k)
        except ValueError as exc:
            raise InputError(f"--exponents: {exc}") from exc
        _table([["r2", _rat_str(me["r2"])], ["r1", _rat_str(me["r1"])]])
        _emit({k: v for k, v in me.items()}, args.out)
        return 0
    if args.balanced:
        obj = _load(args.balanced)
        try:
            alphas = [tuple(a) for a in obj["alphas"]]
            k, d = obj.get("k"), obj.get("d")
            if not all(map(is_int, [obj["type"], *(x for a in alphas for x in a),
                                    *(v for v in (k, d) if v is not None)])):
                raise TypeError("type, k, d and the exponents must be integers")
            res = balanced_check(alphas, obj["type"], k=k, d=d)
        except (KeyError, TypeError) as exc:
            raise InputError(f"{args.balanced}: not a balanced set problem "
                             f"({type(exc).__name__}: {exc})") from exc
        rows = [["balanced", str(res.ok)]]
        if res.ok:
            rows += [["sigma", _rat_str(res.sigma)], ["r", _rat_str(res.r)],
                     ["target", _rat_str(res.target)]]
        else:
            rows += [["reason", res.reason]]
        _table(rows)
        _emit({
            "ok": res.ok, "sigma": res.sigma, "N": res.N, "r": res.r,
            "target": res.target, "reason": res.reason,
        }, args.out)
        return 0
    return cmd_semistable(args)


VERBS = {
    "hsnorm": cmd_hsnorm,
    "gitnorm": cmd_gitnorm,
    "semistable": cmd_semistable,
    "destabilize": cmd_destabilize,
    "polytope": cmd_polytope,
    "blockdecomp": cmd_blockdecomp,
    "tiles": cmd_tiles,
    "plan": cmd_plan,
    "sublevel": cmd_sublevel,
    "radon": cmd_radon,
}


RESTARTS_HELP = ("accepted and ignored: the critical-point search of gitnorm "
                 "and of the verdict is deterministic, so --restarts and "
                 "--seed do not change its result")


@lru_cache(maxsize=1)  # each build leaves ~500 objects in reference cycles
def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="semistab",
        description="semistability certificates and sublevel-set checks")
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, need_input=True):
        if need_input:
            p.add_argument("--input", required=True)
        else:
            p.add_argument("--input")
        p.add_argument("--out")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("hsnorm")
    common(p)
    p = sub.add_parser("gitnorm")
    common(p)
    p.add_argument("--sigma", type=parse_rational, required=True)
    p.add_argument("--restarts", type=int, default=64, help=RESTARTS_HELP)
    p = sub.add_parser("semistable")
    common(p)
    p.add_argument("--restarts", type=int, default=64, help=RESTARTS_HELP)
    p = sub.add_parser("destabilize")
    common(p)
    p.add_argument("--sigma", type=parse_rational, required=True)
    p.add_argument("--sigma-uniform", action="store_true", dest="sigma_uniform")
    p = sub.add_parser("polytope")
    common(p)
    p.add_argument("--sigma", type=parse_rational, required=True)
    p = sub.add_parser("blockdecomp")
    common(p, need_input=False)
    p.add_argument("--verify")
    p = sub.add_parser("tiles")
    common(p)
    p = sub.add_parser("plan")
    common(p)
    p.add_argument("--sigma", type=parse_rational)
    p = sub.add_parser("sublevel")
    common(p)
    p.add_argument("--tau", type=parse_rational)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--omegas", type=int, default=1)
    p.add_argument("--scale-max", type=float, default=0.0, dest="scale_max")
    p.add_argument("--stratified", action="store_true")
    p = sub.add_parser("radon")
    common(p, need_input=False)
    p.add_argument("--exponents", action="store_true")
    p.add_argument("--balanced")
    p.add_argument("--n", type=int)
    p.add_argument("--n1", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--restarts", type=int, default=64, help=RESTARTS_HELP)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "blockdecomp" and not (args.input or args.verify):
            parser.error("blockdecomp needs --input or --verify")
        if args.verb == "radon" and not (args.exponents or args.balanced
                                         or args.input):
            parser.error("radon needs --exponents, --balanced or --input")
        return VERBS[args.verb](args)
    except SystemExit:  # --help; every parse error is an InputError
        return 0
    except (InputError, FloatRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

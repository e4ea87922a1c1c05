"""Command line interface to the tables, class data, and consistency checks.

Every subcommand writes one deterministic document to stdout; progress and
timing diagnostics go to stderr, so repeated runs with the same arguments
produce byte-identical stdout. Formats: ``json`` (the default; every document
carries ``"schema": 1``), ``csv`` (flat rows, exact values as text), and
``pretty`` (aligned text; the only renderer that prints floating point, with
values rounded at 1e-10 for display). ``_emit`` is the one place a format is
chosen: each data subcommand states its json document, its rows and the text
around its pretty table once and hands them to it. Exit status: 0 on success,
1 when a verify check fails, 2 on an invalid configuration (the error is
reported as a JSON object on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from collections.abc import Callable
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .bruteforce import (
    DEFAULT_MAX_ORDER,
    _prime_power,
    class_census,
    symmetric_count,
    twisted_fs,
)
from .charmap import (
    CharLabel,
    char_table,
    circ_product,
    conductor,
    dl_character,
    pi_class,
    star_product,
)
from .exactnum import Cyclotomic, QPoly
from .multipartitions import (
    MultiPartition,
    centralizer_order,
    class_size,
    enumerate_mp,
    unitary_group_order,
)
from .orbits import _divisors, enumerate_orbits, level_order, orbit_count
from .reptables import (
    degree_hook,
    degree_records,
    degree_sum,
    degree_sum_delta,
    even_degree_sum,
    gelfand_graev,
    irreducible_multiplicities,
    model_decomposition,
    sp_induction,
)

SCHEMA = 1


# ---------------------------------------------------------------- rendering


def mp_text(mp: MultiPartition) -> str:
    """Compact one-line label: (size,residue):parts blocks joined by |.

    >>> from ennola.multipartitions import enumerate_mp
    >>> [mp_text(mu) for mu in enumerate_mp(2, "phi", 2)][:3]
    ['(1,0):1|(1,1):1', '(1,0):1|(1,2):1', '(1,0):1.1']
    """
    if not mp.assignment:
        return "()"
    return "|".join(
        f"({orb.size},{orb.residue}):" + ".".join(str(x) for x in lam)
        for orb, lam in mp.assignment
    )


def _signed_join(parts: list[tuple[str, str]]) -> str:
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += sign + body
    return out


def cyc_text(v: Cyclotomic) -> str:
    """Exact text for a cyclotomic value, rationals as plain fractions.

    >>> cyc_text(Cyclotomic.root(3) + 2)
    '2+z3'
    >>> cyc_text(Cyclotomic.from_rational(Fraction(-1, 2)))
    '-1/2'
    """
    if not v.terms:
        return "0"
    parts = []
    for i, c in v.terms:
        g = math.gcd(c, v.den)
        magnitude = str(abs(c) // g) + ("" if g == v.den else f"/{v.den // g}")
        if i == 0:
            body = magnitude
        else:
            var = f"z{v.conductor}" + (f"^{i}" if i > 1 else "")
            body = var if magnitude == "1" else f"{magnitude}*{var}"
        parts.append(("-" if c < 0 else "+", body))
    return _signed_join(parts)


def qpoly_text(p: QPoly) -> str:
    """Text of a polynomial in q, highest exponent first.

    >>> qpoly_text(QPoly({3: 1, 1: -1}))
    'q^3-q'
    """
    if not p.coeffs:
        return "0"
    parts = []
    for e, c in reversed(p.coeffs):
        if e == 0:
            body = str(abs(c))
        else:
            var = "q" if e == 1 else f"q^{e}"
            body = var if abs(c) == 1 else f"{abs(c)}*{var}"
        parts.append(("-" if c < 0 else "+", body))
    return _signed_join(parts)


def float_text(z: complex) -> str:
    """Display form of a complex float, rounded at 1e-10.

    >>> float_text(0.9999999999999998 + 1e-13j)
    '1'
    >>> float_text(-0.5 + 0.8660254037844387j)
    '-0.5+0.8660254038i'
    """
    re = round(z.real, 10) + 0.0
    im = round(z.imag, 10) + 0.0
    if im == 0:
        return f"{re:.10g}"
    return f"{re:.10g}{'+' if im > 0 else '-'}{abs(im):.10g}i"


def _json_key(key) -> str:
    """A dict key as ``json.dumps`` writes it: str, int, float, bool and None
    keys become strings; any other key is a TypeError."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_text(o, level: int, memo: dict, keep: bool = True) -> str:
    """``json.dumps(o, indent=2)`` for a value nested ``level`` deep.

    Each list or dict is one ``join``. A dict's text is kept in ``memo`` by
    (id, level), unless ``keep`` is false, so a dict that the document shares,
    like the value dicts of ``CharTable.rendered``, is encoded once per depth;
    the caller keeps the document alive, so no id is reused while ``memo``
    lives.
    """
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or o is True or o is False or isinstance(o, float):
        return json.dumps(o)
    if isinstance(o, int):
        return int.__repr__(o)
    outer = "\n" + "  " * level
    inner = outer + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        body = [_json_text(v, level + 1, memo) for v in o]
        return "[" + inner + ("," + inner).join(body) + outer + "]"
    if not isinstance(o, dict):
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    text = memo.get((id(o), level))
    if text is None:
        if not o:
            return "{}"
        body = [_json_key(k) + ": " + _json_text(v, level + 1, memo) for k, v in o.items()]
        text = "{" + inner + ("," + inner).join(body) + outer + "}"
        if keep:
            memo[id(o), level] = text
    return text


def _emit_json(doc: dict) -> None:
    # the same bytes as json.dumps(doc, indent=2) + "\n", written one top-level
    # entry at a time, and a top-level list one element at a time; no such
    # piece is kept once written, so no whole-document string exists: at
    # chartable --n 4 --q 3 that string is 369 MB, while its 35344 cells hold
    # 512 distinct value dicts, each encoded once
    write = sys.stdout.write
    memo: dict = {}
    sep = "{\n  "
    for key, value in doc.items():
        write(sep + _json_key(key) + ": ")
        sep = ",\n  "
        if isinstance(value, (list, tuple)) and value:
            item_sep = "[\n    "
            for item in value:
                write(item_sep + _json_text(item, 2, memo, keep=False))
                item_sep = ",\n    "
            write("\n  ]")
        else:
            write(_json_text(value, 1, memo, keep=False))
    write("\n}\n" if doc else "{}\n")


def _emit_csv(header: list[str], rows: list[list[str]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _table_text(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]

    def line(cells: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip() + "\n"

    return "".join(map(line, [header, ["-" * w for w in widths], *rows]))


def _emit(args, doc: Callable, header: list[str], rows: Callable, before="", after="") -> int:
    """Write one subcommand's document in ``args.format``.

    The only place the three formats are chosen. ``doc()`` is the json body,
    written after ``schema`` and ``command``; ``header`` and ``rows()`` are the
    csv rows and the pretty table, which ``before`` and ``after`` frame. Both
    callables run only for the format that needs them, so csv never builds the
    json document.
    """
    if args.format == "json":
        _emit_json({"schema": SCHEMA, "command": args.command, **doc()})
    elif args.format == "csv":
        _emit_csv(header, rows())
    else:
        sys.stdout.write(before + _table_text(header, rows()) + after)
    return 0


# ----------------------------------------------------------- data commands


def _cmd_orbits(args: argparse.Namespace) -> int:
    q, n = args.q, args.n
    theta = enumerate_orbits(q, "theta", n)
    phi = enumerate_orbits(q, "phi", n)
    counts = [
        {"m": m, "orbits": orbit_count(q, m), "level_order": level_order(q, m)}
        for m in range(1, n + 1)
    ]
    return _emit(
        args,
        lambda: {
            "q": q,
            "max_size": n,
            "theta": [o.to_json() for o in theta],
            "phi": [o.to_json() for o in phi],
            "counts": counts,
        },
        ["kind", "size", "residue"],
        lambda: [[o.kind, str(o.size), str(o.residue)] for o in theta + phi],
        after="\n" + _table_text(
            ["m", "orbits of size m", "q^m - (-1)^m"],
            [[str(c["m"]), str(c["orbits"]), str(c["level_order"])] for c in counts],
        ),
    )


def _cmd_classes(args: argparse.Namespace) -> int:
    n, q = args.n, args.q
    order = unitary_group_order(q, n)
    items = [
        {
            "label": mp_text(mu),
            "mu": mu.to_json(),
            "centralizer": centralizer_order(mu),
            "size": class_size(mu),
        }
        for mu in enumerate_mp(q, "phi", n)
    ]
    return _emit(
        args,
        lambda: {"n": n, "q": q, "order": order, "count": len(items), "classes": items},
        ["label", "centralizer", "size"],
        lambda: [[it["label"], str(it["centralizer"]), str(it["size"])] for it in items],
        before=f"U_{n}(F_{q*q}), order {order}, {len(items)} classes\n\n",
    )


def _cmd_chartable(args: argparse.Namespace) -> int:
    n, q = args.n, args.q
    table = char_table(n, q)
    # csv writes exact text; pretty is the only renderer of floats
    render = cyc_text if args.format == "csv" else lambda v: float_text(v.approx())
    return _emit(
        args,
        table.to_json,
        [""] + [mp_text(mu) for mu in table.cols],
        lambda: [
            [mp_text(label.lam)] + row
            for label, row in zip(table.rows, table.rendered(render))
        ],
        before=f"character table of U_{n}(F_{q**2}), order {unitary_group_order(q, n)}\n"
        "class sizes: " + " ".join(str(s) for s in table.class_sizes) + "\n\n",
    )


def _cmd_degrees(args: argparse.Namespace) -> int:
    m, q = args.m, args.q
    records = degree_records(m, q)
    total = degree_sum(m, q)
    return _emit(
        args,
        lambda: {
            "m": m,
            "q": q,
            "degree_sum": total,
            "records": [
                {
                    "label": r.label.to_json(),
                    "text": mp_text(r.label.lam),
                    "degree": r.degree,
                    "tau_parity": r.tau_parity,
                    "height": r.height,
                    "odd_conjugate": r.odd_conjugate,
                    "polynomial": qpoly_text(r.polynomial),
                }
                for r in records
            ],
        },
        ["label", "degree", "tau_parity", "height", "odd_conjugate", "polynomial"],
        lambda: [
            [
                mp_text(r.label.lam),
                str(r.degree),
                str(r.tau_parity),
                str(r.height),
                str(r.odd_conjugate),
                qpoly_text(r.polynomial),
            ]
            for r in records
        ],
        after=f"\ndegree sum: {total}\n",
    )


def _constituents(elem) -> list[tuple[CharLabel, int]]:
    mults = irreducible_multiplicities(elem)
    out = []
    for label in sorted(mults, key=lambda lab: lab.lam.sort_key()):
        v = mults[label]
        if v.denominator != 1:
            raise AssertionError(f"non-integral multiplicity {v}")
        out.append((label, int(v)))
    return out


def _cmd_decompose(args: argparse.Namespace) -> int:
    q = args.q
    if args.kind == "model":
        dec = model_decomposition(args.m, q, allow_even_q=args.allow_even_q)
        degrees = [
            (r, label, degree_hook(label.lam)) for r, labels in dec.parts for label in labels
        ]
        total = sum(degree for _, _, degree in degrees)
        return _emit(
            args,
            lambda: {"kind": "model", **dec.to_json(), "degree_sum": total},
            ["r", "label", "degree"],
            lambda: [[str(r), mp_text(label.lam), str(degree)] for r, label, degree in degrees],
            after=f"\ndegree sum: {total}\n",
        )

    if args.kind == "gelfand-graev":
        elem = gelfand_graev(args.m, q)
        meta = {"m": args.m}
    else:
        elem = sp_induction(args.r, q, allow_even_q=args.allow_even_q)
        meta = {"r": args.r}
    parts = [(label, mult, degree_hook(label.lam)) for label, mult in _constituents(elem)]
    total = sum(mult * degree for _, mult, degree in parts)
    return _emit(
        args,
        lambda: {
            "kind": args.kind,
            **meta,
            "q": q,
            "count": len(parts),
            "value_at_identity": total,
            "constituents": [
                {
                    "label": label.to_json(),
                    "text": mp_text(label.lam),
                    "multiplicity": mult,
                    "degree": degree,
                }
                for label, mult, degree in parts
            ],
        },
        ["label", "multiplicity", "degree"],
        lambda: [[mp_text(label.lam), str(mult), str(degree)] for label, mult, degree in parts],
        after=f"\nvalue at the identity: {total}\n",
    )


def _cmd_bruteforce(args: argparse.Namespace) -> int:
    n, q = args.n, args.q
    census = class_census(n, q, args.max_group_order)
    header = ["label", "size"]

    def rows() -> list[list[str]]:
        return [[mp_text(mu), str(size)] for mu, size in census.items()]

    if args.format == "csv":
        # csv lists the census alone; only json and pretty print the counts below
        return _emit(args, dict, header, rows)
    count = symmetric_count(n, q, args.max_group_order)
    indicators = twisted_fs(n, q, "transpose_inverse", args.max_group_order)
    order = unitary_group_order(q, n)
    fs = list(indicators.values())
    return _emit(
        args,
        lambda: {
            "n": n,
            "q": q,
            "order": order,
            "classes": [
                {"mu": mu.to_json(), "label": mp_text(mu), "size": size}
                for mu, size in census.items()
            ],
            "symmetric_count": count,
            "fs_indicators": {mp_text(label.lam): v for label, v in indicators.items()},
        },
        header,
        rows,
        before=f"U_{n}(F_{q*q}) by matrix enumeration, order {order}\n\n",
        after=f"\nsymmetric elements: {count}\ntwisted indicators: "
        + ("all 1" if all(v == 1 for v in fs) else " ".join(str(v) for v in fs))
        + "\n",
    )


# --------------------------------------------------------------- verification


class _Unsupported(Exception):
    """A check needs the brute-force model at a size the model refuses."""


def _check_divsum(args: argparse.Namespace) -> tuple[bool, str]:
    top = args.m if args.m is not None else 8
    q = args.q
    for m in range(1, top + 1):
        lhs = sum(r * orbit_count(q, r) for r in _divisors(m))
        rhs = level_order(q, m)
        if lhs != rhs:
            return False, f"m={m}: weighted orbit count {lhs}, level order {rhs}"
    return True, f"sum of r*d_r equals q^m - (-1)^m for m up to {top} at q={q}"


def _check_class_equation(args: argparse.Namespace) -> tuple[bool, str]:
    n, q = args.n, args.q
    order = unitary_group_order(q, n)
    mus = enumerate_mp(q, "phi", n)
    total = 0
    for mu in mus:
        a = centralizer_order(mu)
        if order % a:
            return False, f"centralizer {a} of {mp_text(mu)} does not divide {order}"
        total += order // a
    if total != order:
        return False, f"class sizes sum to {total}, group order is {order}"
    detail = f"{len(mus)} class sizes tile the group order {order}"
    try:
        census = class_census(n, q, args.max_group_order)
    except ValueError:
        # the brute-force model refuses this size; the census clause is left out
        return True, detail
    for mu, size in census.items():
        if size != class_size(mu):
            return False, f"brute size {size} at {mp_text(mu)}, formula {class_size(mu)}"
    return True, detail + "; the brute-force census agrees class by class"


def _check_orthogonality(args: argparse.Namespace) -> tuple[bool, str]:
    n, q = args.n, args.q
    table = char_table(n, q)
    order = unitary_group_order(q, n)
    m = len(table.rows)
    # every entry at the common conductor, so the sums never change conductor
    support = [[(k, v) for k, v in enumerate(row) if v] for row in table.rendered(lambda v: v)]
    weighted = [{k: v.conj() * table.class_sizes[k] for k, v in row} for row in support]
    zero = Cyclotomic.zero(conductor(q, n))
    for i in range(m):
        for j in range(i, m):
            other = weighted[j]
            acc = zero
            for k, v in support[i]:
                w = other.get(k)
                if w is not None:
                    acc = acc + v * w
            expected = order if i == j else 0
            if acc != expected:
                return (
                    False,
                    f"rows {mp_text(table.rows[i].lam)} and "
                    f"{mp_text(table.rows[j].lam)}: weighted inner product "
                    f"{cyc_text(acc)}, expected {expected}",
                )
    return True, f"all {m}x{m} row pairs orthonormal at (n, q) = ({n}, {q})"


def _check_degree_sum(args: argparse.Namespace) -> tuple[bool, str]:
    m = args.m if args.m is not None else args.n
    q = args.q
    value = degree_sum(m, q)
    delta = degree_sum_delta(m, q)
    if value != delta:
        return False, f"hook route gives {value}, specialization gives {delta}"
    return (
        True,
        f"value {value} at m={m}, q={q} by hook product, principal "
        "specialization, and the closed form",
    )


def _check_even_sum(args: argparse.Namespace) -> tuple[bool, str]:
    m = args.m if args.m is not None else max(args.n // 2, 1)
    q = args.q
    value = even_degree_sum(m, q)
    return True, f"value {value} over even-conjugate labels at rank {2 * m}, q={q}"


def _check_sameprod(args: argparse.Namespace) -> tuple[bool, str]:
    n, q = args.n, args.q
    pairs = 0
    for na in range(1, n):
        for nb in range(1, n - na + 1):
            for ma in enumerate_mp(q, "phi", na):
                for mb in enumerate_mp(q, "phi", nb):
                    star = star_product(pi_class(ma), pi_class(mb))
                    circ = circ_product(pi_class(ma), pi_class(mb))
                    if star != circ:
                        return (
                            False,
                            f"products differ at {mp_text(ma)} x {mp_text(mb)}",
                        )
                    pairs += 1
    return True, f"Ennola and induction products agree on {pairs} class pairs"


def _check_dl(args: argparse.Namespace) -> tuple[bool, str]:
    n, q = args.n, args.q
    count = 0
    for size in range(1, n + 1):
        for nu in enumerate_mp(q, "theta", size):
            dl_character(nu)
            count += 1
    return True, f"{count} Deligne-Lusztig characters agree along both routes"


def _check_unsym(args: argparse.Namespace) -> tuple[bool, str]:
    n, q = args.n, args.q
    try:
        brute = symmetric_count(n, q, args.max_group_order)
    except ValueError as exc:
        raise _Unsupported(str(exc)) from exc
    total = degree_sum(n, q)
    if brute != total:
        return False, f"symmetric count {brute}, degree sum {total}"
    return True, f"{brute} symmetric group elements match the degree sum"


def _check_fs(args: argparse.Namespace) -> tuple[bool, str]:
    n, q = args.n, args.q
    try:
        indicators = twisted_fs(n, q, "transpose_inverse", args.max_group_order)
    except ValueError as exc:
        raise _Unsupported(str(exc)) from exc
    bad = [label for label, v in indicators.items() if v != 1]
    if bad:
        return False, f"indicator {indicators[bad[0]]} at {mp_text(bad[0].lam)}"
    return (
        True,
        f"all {len(indicators)} twisted indicators equal 1 and their "
        "degree-weighted sum counts the symmetric elements",
    )


_CHECKS = {
    "divsum": _check_divsum,
    "class-equation": _check_class_equation,
    "orthogonality": _check_orthogonality,
    "degree-sum": _check_degree_sum,
    "even-sum": _check_even_sum,
    "sameprod": _check_sameprod,
    "dl": _check_dl,
    "unsym": _check_unsym,
    "fs": _check_fs,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    names = list(_CHECKS) if args.check == "all" else [args.check]
    failed = False
    t0 = time.perf_counter()
    for name in names:
        start = time.perf_counter()
        try:
            ok, detail = _CHECKS[name](args)
            status = "PASS" if ok else "FAIL"
        except _Unsupported as exc:
            if args.check != "all":
                raise ValueError(str(exc)) from exc
            status, detail = "SKIP", str(exc)
        except AssertionError as exc:
            status, detail = "FAIL", f"internal invariant failed: {exc}"
        elapsed = time.perf_counter() - start
        sys.stdout.write(f"{status} {name}: {detail}\n")
        sys.stderr.write(f"  {name}: {elapsed:.3f}s\n")
        failed = failed or status == "FAIL"
    sys.stderr.write(f"total: {time.perf_counter() - t0:.3f}s\n")
    return 1 if failed else 0


# -------------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ennola",
        description="Exact class data and character tables of finite unitary groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *names: str) -> None:
        if "n" in names:
            p.add_argument("--n", type=int, required=True, help="matrix rank")
        if "q" in names:
            p.add_argument("--q", type=int, required=True, help="base field order")
        if "m" in names:
            p.add_argument("--m", type=int, required=True, help="total size")
        if "format" in names:
            p.add_argument(
                "--format", choices=("json", "csv", "pretty"), default="json"
            )

    p = sub.add_parser("orbits", help="Frobenius orbits and their counts")
    add_common(p, "n", "q", "format")
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("classes", help="conjugacy class labels and sizes")
    add_common(p, "n", "q", "format")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("chartable", help="full character table, exact entries")
    add_common(p, "n", "q", "format")
    p.set_defaults(func=_cmd_chartable)

    p = sub.add_parser("degrees", help="character degree records")
    add_common(p, "m", "q", "format")
    p.set_defaults(func=_cmd_degrees)

    p = sub.add_parser("decompose", help="multiplicities of induced characters")
    p.add_argument("kind", choices=("gelfand-graev", "sp-induction", "model"))
    p.add_argument("--q", type=int, required=True, help="base field order")
    p.add_argument("--m", type=int, help="total size (gelfand-graev, model)")
    p.add_argument("--r", type=int, help="half rank (sp-induction)")
    p.add_argument("--allow-even-q", action="store_true")
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="consistency checks, PASS or FAIL per line")
    p.add_argument("check", choices=tuple(_CHECKS) + ("all",))
    p.add_argument("--n", type=int, default=2, help="matrix rank")
    p.add_argument("--q", type=int, default=2, help="base field order")
    p.add_argument("--m", type=int, help="total size for size-graded checks")
    p.add_argument("--max-group-order", type=int)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bruteforce", help="matrix-enumeration ground truth")
    add_common(p, "n", "q", "format")
    p.add_argument("--max-group-order", type=int, default=DEFAULT_MAX_ORDER)
    p.set_defaults(func=_cmd_bruteforce)

    return parser


def _validate(args: argparse.Namespace) -> None:
    if getattr(args, "q", None) is not None:
        _prime_power(args.q)
    for name in ("n", "m"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    r = getattr(args, "r", None)
    if r is not None and r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    bound = getattr(args, "max_group_order", None)
    if bound is not None and bound < 1:
        raise ValueError("max-group-order must be positive")
    if getattr(args, "command", "") == "decompose":
        needed, other = ("r", "m") if args.kind == "sp-induction" else ("m", "r")
        if getattr(args, needed) is None:
            raise ValueError(f"{args.kind} needs --{needed}")
        if getattr(args, other) is not None:
            raise ValueError(f"{args.kind} takes no --{other}")
        if args.kind == "gelfand-graev" and args.allow_even_q:
            raise ValueError("gelfand-graev takes no --allow-even-q")
    if getattr(args, "command", "") == "verify":
        if args.m is not None and args.check not in ("divsum", "degree-sum", "even-sum", "all"):
            raise ValueError(f"{args.check} takes no --m")
        # the flag defaults to None so that explicit use is seen here
        if args.max_group_order is None:
            args.max_group_order = DEFAULT_MAX_ORDER
        elif args.check not in ("class-equation", "unsym", "fs", "all"):
            raise ValueError(f"{args.check} takes no --max-group-order")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(json.dumps({"schema": SCHEMA, "error": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

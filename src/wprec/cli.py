"""Command line front end.

Subcommands:

* ``compute``: one mixed correlator, exact.
* ``volume``: one intersection volume, open (n >= 1) or closed (n = 0).
* ``hodge``: one pairing against the top Hodge weightings.
* ``table``: constant or volume tables as csv, or json with ``--json``.
* ``verify``: named consistency sweeps; exits 1 when any finds a mismatch.

Values print as exact fractions.  ``--decimal N`` switches the printed
value to an N-place decimal rendering; ``--json`` wraps the result with
its inputs, keeping the value as an exact ``num/den`` string.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .cache import default_cache_path, load_cache, save_new_records, seed_engine
from .constants import ALPHA, GAMMA_FACT, GAMMA_ODD
from .correlator import (
    INITIAL_VALUES,
    CorrelatorEngine,
    CorrelatorKey,
    check_dilaton_identity,
    check_kdv_identity,
    check_shift_identity,
    check_string_identity,
    check_transfer_identity,
    parse_psi,
)
from .hodge import (
    LAMBDA_G,
    LAMBDA_G_GM1,
    FileBaseValues,
    HodgeEngine,
    check_pairing_reduction,
)
from .kmz import KmzOracle
from .multiindex import MultiIndex, indices_of_weight
from .numbers import moduli_dim
from .series import shift_check
from .sweeps import (
    correlator_signatures,
    hodge_signatures,
    kdv_cases,
    pairing_reduction_cases,
    rshift_cases,
    run_cases,
    volume_signatures,
)
from .volumes import VolumeEngine


def _size(text: str) -> int:
    """argparse type of the table and verify sizes: a non-negative decimal
    integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _places(text: str) -> int:
    """argparse type of --decimal: 0 to 1000 places."""
    if not (text.isdecimal() and len(text) <= 4 and int(text) <= 1000):
        raise argparse.ArgumentTypeError(
            f"expected an integer from 0 to 1000, got {text!r}"
        )
    return int(text)


def _decimal_text(value: Fraction, places: int) -> str:
    """Exact round-half-even decimal rendering with the given scale."""
    scaled = round(value * Fraction(10) ** places)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _emit(args: argparse.Namespace, payload: dict, value: Fraction) -> None:
    if args.json:
        if args.decimal is not None:
            payload["decimal"] = _decimal_text(value, args.decimal)
        print(json.dumps(payload, sort_keys=True))
    elif args.decimal is not None:
        print(_decimal_text(value, args.decimal))
    else:
        print(value)


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit json")
    parser.add_argument(
        "--decimal",
        type=_places,
        default=None,
        metavar="N",
        help="also render the value with N decimal places (0 to 1000)",
    )


def _resolve_cache(option: str | None) -> str | None:
    """Turn the --cache option into a path; '' means consult WPREC_CACHE."""
    if option != "":
        return option
    path = default_cache_path()
    if path is None:
        raise ValueError("--cache given without a path and WPREC_CACHE unset")
    return path


def _cmd_compute(args: argparse.Namespace) -> int:
    key = CorrelatorKey.make(
        args.genus, MultiIndex.from_text(args.kappa), parse_psi(args.psi)
    )
    cache_path = _resolve_cache(args.cache)
    engine = CorrelatorEngine()
    if cache_path is not None:
        try:
            seed_engine(engine, load_cache(cache_path))
        except FileNotFoundError:
            pass
    value = engine.correlator(key.genus, key.kappa, key.psi)
    if cache_path is not None:
        save_new_records(cache_path, engine.memo)
    in_dimension = key.kappa.weight + sum(key.psi) == moduli_dim(
        key.genus, len(key.psi)
    )
    if args.strict and not in_dimension:
        print(
            "wprec: signature is unstable or off-dimension; the value is 0",
            file=sys.stderr,
        )
        return 1
    payload = {
        "genus": key.genus,
        "kappa": key.kappa.to_text(),
        "psi": list(key.psi),
        "value": str(value),
    }
    _emit(args, payload, value)
    return 0


def _cmd_volume(args: argparse.Namespace) -> int:
    kappa = MultiIndex.from_text(args.kappa)
    value = VolumeEngine().volume(args.genus, args.points, kappa)
    payload = {
        "genus": args.genus,
        "n": args.points,
        "kappa": kappa.to_text(),
        "value": str(value),
    }
    _emit(args, payload, value)
    return 0


def _cmd_hodge(args: argparse.Namespace) -> int:
    kappa = MultiIndex.from_text(args.kappa)
    psi = parse_psi(args.psi)
    provider = FileBaseValues(args.provider) if args.provider else None
    engine = HodgeEngine(provider)
    if args.route == "direct":
        value = engine.correlator_direct(args.genus, args.tag, kappa, psi)
    else:
        value = engine.correlator(args.genus, args.tag, kappa, psi)
    payload = {
        "genus": args.genus,
        "tag": args.tag,
        "kappa": kappa.to_text(),
        "psi": list(psi),
        "value": str(value),
    }
    _emit(args, payload, value)
    return 0


# The table sizes each table reads, with their values when not given.
_TABLE_SIZES = {
    "constants": {"max_weight": 6},
    "volumes": {"max_genus": 2, "max_n": 4},
}
_TABLE_OPTIONS = dict.fromkeys(d for reads in _TABLE_SIZES.values() for d in reads)


def _cmd_table(args: argparse.Namespace) -> int:
    kind = "constants" if args.constants else "volumes"
    (sizes,) = _read_options(
        args, f"the {kind} table", [_TABLE_SIZES[kind]], _TABLE_OPTIONS
    )
    if args.constants:
        table = {
            "alpha": ALPHA,
            "gamma_odd": GAMMA_ODD,
            "gamma_fact": GAMMA_FACT,
        }[args.constants]
        header = ("weight", "kappa", "value")
        rows = [
            (w, b.to_text(), str(table.value(b)))
            for w in range(sizes.max_weight + 1)
            for b in indices_of_weight(w)
        ]
    else:
        volumes = VolumeEngine()
        header = ("genus", "n", "kappa", "value")
        # An unstable (g, n) has dimension -1, which no kappa index fills.
        rows = [
            (genus, n, b.to_text(), str(volumes.volume(genus, n, b)))
            for genus in range(sizes.max_genus + 1)
            for n in range(sizes.max_n + 1)
            for b in indices_of_weight(moduli_dim(genus, n))
        ]
    if args.json:
        print(
            json.dumps([dict(zip(header, row)) for row in rows], sort_keys=True)
        )
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return 0


def _signature_text(genus: int, kappa: MultiIndex, psi) -> str:
    return CorrelatorKey.make(genus, kappa, psi).text()


class _Engines(NamedTuple):
    """The engines of one verify run, shared by every suite it runs, and the
    records of the cache file it checks, read before the first suite."""

    correlator: CorrelatorEngine
    kmz: KmzOracle
    volumes: VolumeEngine
    hodge: HodgeEngine
    cache_records: dict[CorrelatorKey, Fraction] | None


# The sides of an identity case: both values come from the same engine.
_IDENTITY = ("", "")


def _sweep(cases, positive: bool = False):
    """A suite that runs its case stream through the suite runner."""
    return lambda engines, sizes: run_cases(cases(engines, sizes), positive)


def _oracle_cases(engines: _Engines, sizes: argparse.Namespace):
    for genus, kappa, psi in correlator_signatures(sizes.max_dim):
        yield (
            _signature_text(genus, kappa, psi),
            engines.correlator.correlator(genus, kappa, psi),
            engines.kmz.kmz_expand(genus, kappa, psi),
            ("engine ", "expansion "),
        )


def _identities(check, signatures):
    """The suite entry, --max-dim 6 by default, that checks an identity of
    the run's correlator engine at each (genus, kappa, psi) or
    (genus, kappa, psi, r) of signatures(max_dim); an r is passed on to the
    check and names the case " (r=N)"."""

    def cases(engines: _Engines, sizes: argparse.Namespace):
        for genus, kappa, psi, *r in signatures(sizes.max_dim):
            lhs, rhs = check(engines.correlator, genus, kappa, psi, *r)
            name = _signature_text(genus, kappa, psi)
            if r:
                name += f" (r={r[0]})"
            yield name, lhs, rhs, _IDENTITY

    return {"max_dim": 6}, _sweep(cases)


def _transfer_signatures(max_dim: int):
    for sig in correlator_signatures(max_dim, min_n=1):
        if CorrelatorKey.make(*sig) not in INITIAL_VALUES:
            yield sig


_string_signatures = partial(correlator_signatures, min_n=0, shell=1)
_dilaton_signatures = partial(correlator_signatures, min_n=0)


def _volume_cases(engines: _Engines, sizes: argparse.Namespace):
    volumes, engine = engines.volumes, engines.correlator
    sides = ("volume ", "correlator ")
    for genus, n, kappa in volume_signatures(sizes.max_dim):
        yield (
            f"V_{{{genus},{n}}}({kappa.to_text() or '1'})",
            volumes.volume(genus, n, kappa),
            engine.correlator(genus, kappa, (0,) * n),
            sides,
        )
    for genus in range(2, (sizes.max_dim + 3) // 3 + 1):
        for kappa in indices_of_weight(3 * genus - 3):
            yield (
                f"V_{{{genus}}}({kappa.to_text()})",
                volumes.volume_closed(genus, kappa),
                engine.correlator(genus, kappa, ()),
                sides,
            )


def _hodge_cases(engines: _Engines, sizes: argparse.Namespace):
    engine = engines.hodge
    for genus, tag, kappa, psi in hodge_signatures(sizes.max_genus):
        yield (
            f"{_signature_text(genus, kappa, psi)}|{tag}",
            engine.correlator(genus, tag, kappa, psi),
            engine.correlator_direct(genus, tag, kappa, psi),
            ("expansion ", "direct "),
        )
    for genus, tag, d, d0, rest in pairing_reduction_cases(sizes.max_genus):
        lhs, rhs = check_pairing_reduction(engine, genus, tag, d, d0, rest)
        name = f"g={genus} {tag} d={d} d0={d0} rest={rest}"
        yield name, lhs, rhs, _IDENTITY


def _shift(engines: _Engines, sizes: argparse.Namespace):
    t_vars = sizes.cutoff + 1 if sizes.t_vars is None else sizes.t_vars
    return shift_check(
        sizes.cutoff, sizes.s_vars, t_vars, engines.correlator, engines.kmz
    )


def _cache_cases(engines: _Engines, sizes: argparse.Namespace):
    """Every cached record, in key order, against the run's unseeded engine."""
    records = engines.cache_records
    for key in sorted(records):
        yield (
            key.text(),
            records[key],
            engines.correlator.correlator(key.genus, key.kappa, key.psi),
            ("cached ", "recomputed "),
        )


# name: (defaults, run(engines, sizes) -> Report). The defaults map each
# verify option the suite reads to its value when not given; an option that
# no suite of the run reads is refused. Suites run in this order.
SUITES = {
    "oracle": ({"max_dim": 7}, _sweep(_oracle_cases, positive=True)),
    "transfer": _identities(check_transfer_identity, _transfer_signatures),
    "string": _identities(check_string_identity, _string_signatures),
    "dilaton": _identities(check_dilaton_identity, _dilaton_signatures),
    "kdv": _identities(check_kdv_identity, kdv_cases),
    "rshift": _identities(check_shift_identity, rshift_cases),
    "volume": ({"max_dim": 7}, _sweep(_volume_cases)),
    "shift": ({"cutoff": 6, "s_vars": 3, "t_vars": None}, _shift),
    "hodge": ({"max_genus": 3, "provider": None}, _sweep(_hodge_cases)),
    "cache": ({"cache": None}, _sweep(_cache_cases)),
}
# Every verify size or path option, in a fixed order for messages.
_VERIFY_OPTIONS = dict.fromkeys(dest for reads, _ in SUITES.values() for dest in reads)


def _flags(dests) -> str:
    return ", ".join("--" + dest.replace("_", "-") for dest in dests)


def _read_options(
    args: argparse.Namespace, reader: str, readers, options
) -> list[argparse.Namespace]:
    """Each of readers' options as given, or else that reader's default.
    Refuse any of options that was given but that no reader reads, so no
    size is silently ignored."""
    given = {dest: getattr(args, dest) for dest in options}
    reads = [dest for dest in options if any(dest in r for r in readers)]
    refused = [d for d in options if d not in reads and given[d] is not None]
    if refused:
        raise ValueError(
            f"{reader} does not read {_flags(refused)}; it reads {_flags(reads)}"
        )
    return [
        argparse.Namespace(
            **{d: v if given[d] is None else given[d] for d, v in defaults.items()}
        )
        for defaults in readers
    ]


def _cmd_verify(args: argparse.Namespace) -> int:
    names = [name for name in SUITES if name in (args.suite or ())]
    if not names:
        raise ValueError("choose a suite (--suite NAME)")
    several = f"the run of the {', '.join(names)} suites"
    reader = several if len(names) > 1 else f"the {names[0]} suite"
    readers = [SUITES[name][0] for name in names]
    sizes = _read_options(args, reader, readers, _VERIFY_OPTIONS)
    provider = FileBaseValues(args.provider) if args.provider else None
    records = None
    if "cache" in names:
        path = args.cache or default_cache_path()
        if not path:
            raise ValueError("cache suite needs --cache PATH or WPREC_CACHE")
        records = load_cache(path)
    engines = _Engines(
        CorrelatorEngine(),
        KmzOracle(),
        VolumeEngine(),
        HodgeEngine(provider),
        records,
    )
    code = 0
    for name, suite_sizes in zip(names, sizes):
        ok, cases, detail = SUITES[name][1](engines, suite_sizes)
        if ok:
            print(f"PASS ({cases} cases)")
        else:
            print(f"FAIL after {cases} cases: {detail}")
            code = 1
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wprec",
        description="Exact mixed psi/kappa intersection values on moduli "
        "of stable curves: correlators, volumes, Hodge pairings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="evaluate one mixed correlator exactly"
    )
    compute.add_argument("-g", "--genus", type=int, required=True)
    compute.add_argument(
        "--kappa",
        default="",
        help="kappa index, comma joined 'index:multiplicity' pairs",
    )
    compute.add_argument(
        "--psi", default="", help="comma separated psi exponents"
    )
    _add_output_options(compute)
    compute.add_argument(
        "--cache",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="read/extend a value cache (WPREC_CACHE when no path given)",
    )
    compute.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when the gates force the value to zero",
    )
    compute.set_defaults(func=_cmd_compute)

    volume = sub.add_parser(
        "volume", help="one intersection volume V_{g,n}(kappa)"
    )
    volume.add_argument("-g", "--genus", type=int, required=True)
    volume.add_argument(
        "-n", "--points", type=int, required=True, help="0 for the closed space"
    )
    volume.add_argument("--kappa", default="")
    _add_output_options(volume)
    volume.set_defaults(func=_cmd_volume)

    hodge = sub.add_parser(
        "hodge", help="one pairing against a top Hodge weighting"
    )
    hodge.add_argument("-g", "--genus", type=int, required=True)
    hodge.add_argument(
        "--tag", choices=(LAMBDA_G_GM1, LAMBDA_G), required=True
    )
    hodge.add_argument("--kappa", default="")
    hodge.add_argument("--psi", default="")
    hodge.add_argument(
        "--provider",
        metavar="PATH",
        help="file of base pairing values ('genus,tag,num/den' lines)",
    )
    hodge.add_argument(
        "--route", choices=("primary", "direct"), default="primary"
    )
    _add_output_options(hodge)
    hodge.set_defaults(func=_cmd_hodge)

    table = sub.add_parser("table", help="print value tables (csv or json)")
    which = table.add_mutually_exclusive_group(required=True)
    which.add_argument(
        "--constants", choices=("alpha", "gamma_odd", "gamma_fact")
    )
    which.add_argument("--volumes", action="store_true")
    table.add_argument("--max-weight", type=_size)
    table.add_argument("--max-genus", type=_size)
    table.add_argument("--max-n", type=_size)
    table.add_argument("--json", action="store_true", help="json instead of csv")
    table.set_defaults(func=_cmd_table)

    verify = sub.add_parser("verify", help="run consistency sweeps")
    verify.add_argument("--suite", action="append", choices=tuple(SUITES))
    for name in ("oracle", "shift"):
        verify.add_argument(
            f"--{name}",
            action="append_const",
            const=name,
            dest="suite",
            help=f"shorthand for --suite {name}",
        )
    verify.add_argument("--max-dim", type=_size)
    verify.add_argument("--cutoff", type=_size)
    verify.add_argument("--s-vars", type=_size)
    verify.add_argument("--t-vars", type=_size, help="default: cutoff + 1")
    verify.add_argument("--max-genus", type=_size)
    verify.add_argument("--provider", metavar="PATH")
    verify.add_argument("--cache", metavar="PATH")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse before 3.13 reads --name=-- as []
        parser.error("'--' is not an option value")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"wprec: {exc}", file=sys.stderr)
        return 2
    except (LookupError, OSError) as exc:
        print(f"wprec: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("wprec: signature too deep for the recursion limit", file=sys.stderr)
        return 1
    except MemoryError:
        print("wprec: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

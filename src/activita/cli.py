"""Command-line front end: activity, order, complex, shell, tutte, verify, corpus.

All randomness flows from --seed / --order-seed, so outputs are byte-identical
for identical (spec, seed, cap).  Exit codes: 0 ok, 1 check failed, 2 usage
or input error.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import asdict
from pathlib import Path

import click

from .activity import activity_profile
from .bitsets import parse_subset, subset_label, subset_str
from .complexes import COMPLEX_KINDS, build_complex
from .corpus import builtin_corpus, corpus_from_env
from .errors import ActivitaError, ParseError
from .matroid import Matroid
from .orders import POSET_KINDS, Poset, build_poset, random_extension
from .shelling import ShellingReport, verify_shelling
from .specio import parse_spec, spec_dict
from .suite import run_suite
from .tutte import tutte_by_activities


def _load(path: str) -> Matroid:
    try:
        return parse_spec(Path(path).read_bytes())
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}") from exc
    except ActivitaError as exc:
        raise click.UsageError(f"{path}: {exc}") from exc


def _echo_json(data) -> None:
    click.echo(json.dumps(data, indent=2, sort_keys=True))


@click.group()
def main() -> None:
    """Matroid activities, active orders, activity complexes and shellings."""


@main.command()
@click.argument("matroid", type=click.Path())
@click.argument("subset")
def activity(matroid: str, subset: str) -> None:
    """Print the four activity sets of SUBSET as JSON."""
    m = _load(matroid)
    try:
        mask = parse_subset(subset, m.n)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    prof = activity_profile(m, mask)
    _echo_json(
        {
            "EA": subset_str(prof.ea, m.n),
            "EP": subset_str(prof.ep, m.n),
            "IA": subset_str(prof.ia, m.n),
            "IP": subset_str(prof.ip, m.n),
        }
    )


def poset_dot(poset: Poset, n: int, name: str) -> str:
    """DOT digraph of the cover relations, ranked by poset height."""
    lines = [f'digraph "{name}" {{', "  rankdir=BT;", "  node [shape=plaintext];"]
    for a, b in poset.covers():
        lines.append(f'  "{subset_label(a, n)}" -> "{subset_label(b, n)}";')
    by_height: dict[int, list[int]] = {}
    for idx, h in enumerate(poset.heights):
        by_height.setdefault(h, []).append(poset.elements[idx])
    for h in sorted(by_height):
        names = " ".join(f'"{subset_label(e, n)}";' for e in by_height[h])
        lines.append(f"  {{rank=same; {names}}}")
    lines.append("}")
    return "\n".join(lines) + "\n"


@main.command()
@click.argument("matroid", type=click.Path())
@click.option("--kind", type=click.Choice(POSET_KINDS), default="extint-bases")
@click.option("--dot", "dot_path", type=click.Path(), default=None,
              help="Write a DOT digraph of cover relations to this path.")
@click.option("--json", "as_json", is_flag=True, help="Print elements and covers as JSON.")
def order(matroid: str, kind: str, dot_path: str | None, as_json: bool) -> None:
    """Build one of the active orders and export its Hasse diagram."""
    m = _load(matroid)
    poset = build_poset(m, kind)
    if dot_path:
        Path(dot_path).write_text(poset_dot(poset, m.n, kind))
        click.echo(f"wrote {dot_path} ({len(poset.covers())} cover edges)")
        return
    data = {
        "kind": kind,
        "elements": [subset_str(e, m.n) for e in poset.elements],
        "covers": [
            [subset_str(a, m.n), subset_str(b, m.n)] for a, b in poset.covers()
        ],
    }
    if as_json:
        _echo_json(data)
    else:
        click.echo(f"{kind}: {len(poset)} elements, {len(data['covers'])} covers")
        for a, b in data["covers"]:
            click.echo(f"  {a or chr(0x2205)} < {b or chr(0x2205)}")


def _facet_json(cx, mask: int, n: int, tag: int) -> dict:
    sup = cx.supports(mask)
    return {
        "x": subset_str(sup.get("x", 0), n),
        "y": subset_str(sup.get("y", 0), n),
        "z": subset_str(sup.get("z", 0), n),
        "I": subset_str(tag, n),
    }


@main.command("complex")
@click.argument("matroid", type=click.Path())
@click.option("--kind", type=click.Choice(COMPLEX_KINDS), default="augmented-ea")
@click.option("--json", "as_json", is_flag=True)
def complex_cmd(matroid: str, kind: str, as_json: bool) -> None:
    """Build an activity complex; print facets, dimension and f/h-vectors."""
    m = _load(matroid)
    cx = build_complex(m, kind)
    data = {
        "kind": kind,
        "dimension": cx.dimension,
        "facets": [
            _facet_json(cx, mask, m.n, tag)
            for mask, tag in zip(cx.facets, cx.tags)
        ],
        "f": list(cx.fh.f),
        "h": list(cx.fh.h),
    }
    if as_json:
        _echo_json(data)
    else:
        click.echo(f"{kind}: {len(cx.facets)} facets, dimension {cx.dimension}")
        click.echo(f"f = {data['f']}")
        click.echo(f"h = {data['h']}")


_SHELL_POSET = {
    "augmented-ea": "extint-ind",
    "ea": "extint-bases",
    "nbc": "nbc-extint",
    "augmented-nbc": "nbc-extint",
}


def _report_json(report: ShellingReport, cx, n: int) -> dict:
    data = asdict(report)
    data["restrictions"] = [
        {k: subset_str(v, n) for k, v in cx.supports(r).items()}
        for r in report.restrictions
    ]
    data["failing_pair"] = list(report.failing_pair) if report.failing_pair else None
    data["h_from_restrictions"] = (
        list(report.h_from_restrictions) if report.h_from_restrictions else None
    )
    return data


@main.command()
@click.argument("matroid", type=click.Path())
@click.option("--complex", "--kind", "kind", type=click.Choice(COMPLEX_KINDS),
              default="augmented-ea")
@click.option("--order", "order_kind", type=click.Choice(["extint", "flip"]),
              default="extint", help="Which order on independent sets to extend.")
@click.option("--order-seed", "--seed", "seed", type=int, default=0)
@click.option("--report", "report_path", type=click.Path(), default=None)
def shell(matroid: str, kind: str, order_kind: str, seed: int,
          report_path: str | None) -> None:
    """Shell a complex along a seeded linear extension and report restrictions."""
    m = _load(matroid)
    if order_kind == "flip":
        if kind != "augmented-ea":
            raise click.UsageError("--order flip applies to the augmented-ea complex")
        poset_kind = "flip-ind"
    else:
        poset_kind = _SHELL_POSET[kind]
    cx = build_complex(m, kind)
    extension = random_extension(build_poset(m, poset_kind), random.Random(seed))
    # the nbc complex's facets are the maximal nbc sets: they keep the order in
    # which the extension lists them, the other nbc sets are skipped
    facet_order = [cx.facet_by_tag[t] for t in extension if t in cx.facet_by_tag]
    report = verify_shelling(cx, facet_order)
    data = _report_json(report, cx, m.n)
    data["complex"] = kind
    data["order"] = order_kind
    data["seed"] = seed
    if report_path:
        Path(report_path).write_text(json.dumps(data, indent=2, sort_keys=True))
    click.echo("shelling: " + ("ok" if report.verdict else f"FAILED at {report.failing_pair}"))
    if not report.verdict:
        sys.exit(1)


@main.command()
@click.argument("matroid", type=click.Path())
@click.option("--json", "as_json", is_flag=True)
def tutte(matroid: str, as_json: bool) -> None:
    """Print the Tutte polynomial as a sorted monomial list."""
    m = _load(matroid)
    poly = tutte_by_activities(m)
    if as_json:
        _echo_json({"terms": [list(t) for t in poly.terms()]})
    else:
        click.echo(repr(poly))


@main.command()
@click.argument("matroids", type=click.Path(), nargs=-1)
@click.option("--cap", type=click.IntRange(min=1), default=200,
              help="Linear extensions per poset.")
@click.option("--seed", type=int, default=0)
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Write machine-readable findings to this path.")
@click.option("--builtin/--no-builtin", default=True,
              help="Include the built-in corpus (default on).")
def verify(matroids: tuple[str, ...], cap: int, seed: int,
           report_path: str | None, builtin: bool) -> None:
    """Run the full theorem-verification suite; nonzero exit on any failure."""
    corpus: dict[str, Matroid] = {}
    if builtin:
        corpus.update(builtin_corpus())
    try:
        corpus.update(corpus_from_env())
    except ParseError as exc:
        raise click.UsageError(str(exc)) from exc
    for path in matroids:
        corpus[Path(path).stem] = _load(path)
    if not corpus:
        raise click.UsageError("no matroids to verify")
    findings = run_suite(corpus, cap=cap, seed=seed)
    failed = [f for f in findings if not f.ok]
    for f in findings:
        status = "PASS" if f.ok else "FAIL"
        detail = f" ({f.detail})" if f.detail else ""
        click.echo(f"{status} {f.matroid}: {f.check}{detail}")
    click.echo(f"{len(findings) - len(failed)}/{len(findings)} checks passed")
    if report_path:
        Path(report_path).write_text(
            json.dumps(
                {
                    "cap": cap,
                    "seed": seed,
                    "matroids": sorted(corpus),
                    "findings": [asdict(f) for f in findings],
                    "ok": not failed,
                },
                indent=2,
                sort_keys=True,
            )
        )
    if failed:
        sys.exit(1)


@main.command()
@click.option("--dir", "out_dir", type=click.Path(), default=None,
              help="Write one spec JSON per corpus matroid into this directory.")
def corpus(out_dir: str | None) -> None:
    """List the built-in corpus (optionally dumping spec files)."""
    entries = builtin_corpus()
    for name, m in entries.items():
        click.echo(f"{name}: n={m.n} rank={m.rank} bases={len(m.bases)}")
    if out_dir:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for name, m in entries.items():
            (directory / f"{name}.json").write_text(
                json.dumps(spec_dict(m), indent=2, sort_keys=True)
            )
        click.echo(f"wrote {len(entries)} spec files to {directory}")


if __name__ == "__main__":
    main()

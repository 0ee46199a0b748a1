"""Command-line front end: activity, order, complex, shell, tutte, verify, corpus.

All randomness flows from --seed / --order-seed, so outputs are byte-identical
for identical (spec, seed, cap).  Exit codes: 0 ok, 1 check failed, 2 usage
or input error.
"""

from __future__ import annotations

import json
import random
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .activity import activity_profile
from .bitsets import parse_subset, subset_label, subset_str
from .complexes import COMPLEX_KINDS, SimplicialComplex, blocks, build_complex
from .corpus import builtin_corpus
from .errors import ActivitaError
from .matroid import Matroid
from .orders import POSET_KINDS, Poset, build_poset, random_extension
from .shelling import ShellingReport, h_complex_check, property_H_check, verify_shelling
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


@contextmanager
def _writing(path: str):
    """The output ``path``; a failed write or ``mkdir`` in the block is a usage error."""
    try:
        yield Path(path)
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}") from exc


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


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
    prof = activity_profile(m, mask)._asdict()
    click.echo(_json({key.upper(): subset_str(s, m.n) for key, s in prof.items()}))


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
    covers = poset.covers()
    if dot_path:
        with _writing(dot_path) as out:
            out.write_text(poset_dot(poset, m.n, kind))
        click.echo(f"wrote {dot_path} ({len(covers)} cover edges)")
    elif as_json:
        click.echo(_json({
            "kind": kind,
            "elements": [subset_str(e, m.n) for e in poset.elements],
            "covers": [[subset_str(a, m.n), subset_str(b, m.n)] for a, b in covers],
        }))
    else:
        click.echo(f"{kind}: {len(poset)} elements, {len(covers)} covers")
        for a, b in covers:
            click.echo(f"  {subset_label(a, m.n)} < {subset_label(b, m.n)}")


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
            dict(zip("xyzI", (subset_str(s, m.n) for s in (*blocks(m.n, mask), tag))))
            for mask, tag in zip(cx.facets, cx.tags)
        ],
        "f": list(cx.fh.f),
        "h": list(cx.fh.h),
    }
    if as_json:
        click.echo(_json(data))
    else:
        click.echo(f"{kind}: {len(cx.facets)} facets, dimension {cx.dimension}")
        click.echo(f"f = {data['f']}")
        click.echo(f"h = {data['h']}")


_SHELL_POSET = {
    ("augmented-ea", "extint"): "extint-ind",
    ("augmented-ea", "flip"): "flip-ind",
    ("ea", "extint"): "extint-bases",
    ("nbc", "extint"): "nbc-extint",
    ("augmented-nbc", "extint"): "nbc-extint",
}


def _report_json(cx: SimplicialComplex, order: list[int], report: ShellingReport, n: int) -> dict:
    """The report, with property (H) and the h-complex check (None unless it shells)."""
    data = report._asdict()
    shelled, restrictions = report.verdict, report.restrictions
    data["property_h"] = property_H_check(cx, order, restrictions) if shelled else None
    data["h_complex"] = h_complex_check(restrictions) if shelled else None
    data["restrictions"] = [
        {k: subset_str(v, n) for k, v in zip("xyz", blocks(n, r)) if v}
        for r in restrictions
    ]
    data["h_from_restrictions"] = report.h_from_restrictions or None
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
    poset_kind = _SHELL_POSET.get((kind, order_kind))
    if poset_kind is None:
        raise click.UsageError("--order flip applies to the augmented-ea complex")
    cx = build_complex(m, kind)
    extension = random_extension(build_poset(m, poset_kind), random.Random(seed))
    # the nbc complex's facets are the maximal nbc sets: they keep the order in
    # which the extension lists them, the other nbc sets are skipped
    facet_order = [cx.facet_by_tag[t] for t in extension if t in cx.facet_by_tag]
    report = verify_shelling(cx, facet_order)
    if report_path:
        data = _report_json(cx, facet_order, report, m.n)
        data.update(complex=kind, order=order_kind, seed=seed)
        with _writing(report_path) as out:
            out.write_text(_json(data))
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
        click.echo(_json({"terms": poly.terms()}))
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
    entries = [(k, m, "the built-in corpus") for k, m in builtin_corpus().items()] if builtin else []
    entries += [(Path(path).stem, _load(path), path) for path in matroids]
    corpus: dict[str, Matroid] = {}
    sources: dict[str, str] = {}
    for name, m, source in entries:
        if name in sources:
            raise click.UsageError(f"duplicate matroid name {name!r}: {sources[name]} and {source}")
        corpus[name], sources[name] = m, source
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
        report = {"cap": cap, "seed": seed, "matroids": sorted(corpus), "ok": not failed}
        with _writing(report_path) as out:
            out.write_text(_json({**report, "findings": [f._asdict() for f in findings]}))
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
        with _writing(out_dir) as directory:
            directory.mkdir(parents=True, exist_ok=True)
            for name, m in entries.items():
                (directory / f"{name}.json").write_text(_json(spec_dict(m)))
        click.echo(f"wrote {len(entries)} spec files to {directory}")


if __name__ == "__main__":
    main()

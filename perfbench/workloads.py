"""The benchmark's three workloads: inputs, one measured pass, output gates.

Every pass is closed-loop with one client and starts from cold library
caches, as a fresh ``activita`` process would: ``verify`` builds its corpus
anew, W4 is constructed anew, and each CLI command parses its spec file
again.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

CORPUS_CAP = 200
CORPUS_FINDINGS = 317
# sha256 of `activita verify --cap 200 --seed 0` stdout at the commit that
# added this benchmark; CLI stdout must stay byte-identical.
CORPUS_DIGEST_SEED0 = "aa36b876a19da83bd0ef8a8421b2d271a5f7bf4f5a0f4a5620d6bde8f81a99d0"

W4_CAP = 20
W4_EDGES = ((1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3), (5, 4))

COLD_SPECS = 60
COLD_PRIMES = (2, 3, 5)
# fixes which matroids the cold queries use; --seed relabels them
SHAPE_SEED = 1
# sha256 of the cold-queries command stream's stdout at seed 0, recorded at the
# same commit as CORPUS_DIGEST_SEED0
COLD_DIGEST_SEED0 = "37c0f4ef1fca974dd98abd8cf81fd9bb4ab9d7f9d9109ea2f860f5b49f7dc305"


@dataclass
class PassResult:
    """One pass of a workload: operations, their latencies and stdout."""

    attempted: int = 0
    failed: int = 0
    latencies_s: list[float] = field(default_factory=list)
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    outputs: list[tuple[list[str], str]] = field(default_factory=list)


def run_cli(cli, argv: list[str]) -> tuple[bool, str]:
    """Run one `activita` command in-process; True iff it exited with 0."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            cli.main.main(args=argv, prog_name="activita", standalone_mode=False)
    except SystemExit as exc:
        return exc.code in (0, None), buf.getvalue()
    except Exception:  # a crashing command is a failed operation, not a crashed bench
        traceback.print_exc()
        return False, buf.getvalue()
    return True, buf.getvalue()


class Workload:
    """A workload: ``setup`` builds inputs, ``run_pass`` runs one pass (timing
    its operations by ``clock``, if it has any) and ``check`` gates the
    outputs of all passes.  Every pass must print the same stdout, and at
    seed 0 its digest must equal ``digest_seed0``."""

    name = ""
    cap: int | None = None
    digest_seed0: str | None = None

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def discard(self) -> None:
        """Drop the inputs of the last set-up; called before the next one, untimed."""

    def check(self, activita, passes: list[PassResult]) -> list[str]:
        return []


# -- corpus ---------------------------------------------------------------------


class Corpus(Workload):
    """`activita verify --cap 200` on the built-in corpus, through the CLI."""

    name = "corpus"
    cap = CORPUS_CAP
    digest_seed0 = CORPUS_DIGEST_SEED0

    def setup(self, activita) -> None:
        activita.builtin_corpus()

    def run_pass(self, activita, cli, clock) -> PassResult:
        ok, out = run_cli(cli, ["verify", "--cap", str(self.cap), "--seed", str(self.seed)])
        lines = out.splitlines()
        findings = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
        failing = sum(ln.startswith("FAIL ") for ln in findings)
        res = PassResult(
            attempted=max(len(findings), 1),
            failed=failing or (0 if ok else 1),
            digest=hashlib.sha256(out.encode()).hexdigest(),
        )
        if not ok:
            res.problems.append("verify exited nonzero")
        if len(findings) != CORPUS_FINDINGS or failing:
            res.problems.append(
                f"expected {CORPUS_FINDINGS}/{CORPUS_FINDINGS} PASS, got "
                f"{len(findings) - failing}/{len(findings)}"
            )
        return res


# -- scale-w4 -------------------------------------------------------------------


class ScaleW4(Workload):
    """`run_suite` at cap 20 on the wheel W4, the middle rung of the ladder."""

    name = "scale-w4"
    cap = W4_CAP

    def setup(self, activita) -> None:
        activita.graphic(5, W4_EDGES)

    def run_pass(self, activita, cli, clock) -> PassResult:
        res = PassResult()
        try:
            w4 = activita.graphic(5, W4_EDGES)
            findings = activita.run_suite({"W4": w4}, cap=self.cap, seed=self.seed)
        except Exception:  # a crashing suite is one failed operation
            traceback.print_exc()
            res.attempted = res.failed = 1
            res.problems.append("run_suite raised")
            return res
        res.attempted = len(findings)
        res.failed = sum(not f.ok for f in findings)
        text = "\n".join(f"{f.ok} {f.matroid}: {f.check} ({f.detail})" for f in findings)
        res.digest = hashlib.sha256(text.encode()).hexdigest()
        res.problems.extend(
            f"FAIL {f.matroid}: {f.check} ({f.detail})" for f in findings if not f.ok
        )
        return res


# -- cold-queries ---------------------------------------------------------------


def _shapes(count: int) -> list[dict]:
    """The fixed stream of matroids the cold queries run on.

    A mix of uniform, graphic and linear (GF(2), GF(3), GF(5)) specs with n
    from 5 to 8 and rank up to 4; every tenth spec has rank 0.  Graphic specs
    may repeat an edge (parallel elements) and rarely contain a self-loop (a
    matroid loop).
    """
    rng = random.Random(SHAPE_SEED)
    specs = []
    for k in range(count):
        n = rng.randint(5, 8)
        kind = ("uniform", "graphic", "linear")[k % 3]
        rank0 = k % 10 == 9
        if kind == "uniform":
            spec = {"type": "uniform", "r": 0 if rank0 else rng.randint(1, 4), "n": n}
        elif kind == "graphic":
            vertices = 1 if rank0 else rng.randint(2, 5)
            edges = []
            for _ in range(n):
                u = rng.randint(1, vertices)
                v = u if rank0 or rng.random() < 0.05 else rng.choice(
                    [w for w in range(1, vertices + 1) if w != u])
                edges.append([u, v])
            spec = {"type": "graphic", "vertices": vertices, "edges": edges}
        else:
            p = rng.choice(COLD_PRIMES)
            rows = rng.randint(1, 4)
            matrix = [[0 if rank0 else rng.randrange(p) for _ in range(n)] for _ in range(rows)]
            spec = {"type": "linear", "p": p, "matrix": matrix}
        specs.append(spec)
    return specs


def generate_specs(seed: int, count: int = COLD_SPECS) -> list[tuple[dict, str, int]]:
    """(spec, subset for `activity`, order seed for `shell`) for each shape.

    The seed relabels each matroid: it shuffles the ground elements (edges or
    columns), renames graph vertices, scales columns by nonzero field elements
    and adds a multiple of one row to another.  So every seed yields the same
    isomorphism classes, and comparable work, in a different element order,
    which is what activities, orders and complexes depend on.
    """
    rng = random.Random(seed)
    out = []
    for spec in _shapes(count):
        if spec["type"] == "graphic":
            n = len(spec["edges"])
            names = rng.sample(range(1, spec["vertices"] + 1), spec["vertices"])
            edges = [[names[u - 1], names[v - 1]] for u, v in spec["edges"]]
            rng.shuffle(edges)
            spec = {**spec, "edges": [e if rng.random() < 0.5 else e[::-1] for e in edges]}
        elif spec["type"] == "linear":
            p, rows = spec["p"], [list(r) for r in spec["matrix"]]
            n = len(rows[0])
            cols = rng.sample(range(n), n)
            scale = [rng.randrange(1, p) for _ in range(n)]
            rows = [[row[c] * s % p for c, s in zip(cols, scale)] for row in rows]
            if len(rows) > 1:
                i, j = rng.sample(range(len(rows)), 2)
                f = rng.randrange(p)
                rows[i] = [(a + f * b) % p for a, b in zip(rows[i], rows[j])]
            spec = {**spec, "matrix": rows}
        else:
            n = spec["n"]
        subset = "".join(str(e) for e in range(1, n + 1) if rng.random() < 0.5)
        out.append((spec, subset, rng.randrange(1000)))
    return out


class ColdQueries(Workload):
    """Five CLI commands on each of 60 generated spec files."""

    name = "cold-queries"
    digest_seed0 = COLD_DIGEST_SEED0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.setups = 0

    def setup(self, activita) -> None:
        # a fresh directory each time: rewriting existing files took from 4 to
        # 56 ms on ext4, writing new ones a steady 3 ms
        self.setups += 1
        specdir = self.workdir / f"specs{self.setups}"
        specdir.mkdir()
        self.commands = []
        for idx, (spec, subset, order_seed) in enumerate(generate_specs(self.seed)):
            path = specdir / f"q{idx:02d}.json"
            path.write_text(json.dumps(spec))
            p = str(path)
            self.commands += [
                ["activity", p, subset],
                ["order", p, "--kind", "extint-ind", "--json"],
                ["complex", p, "--kind", "augmented-ea", "--json"],
                ["shell", p, "--order-seed", str(order_seed)],
                ["tutte", p],
            ]

    def discard(self) -> None:
        shutil.rmtree(self.workdir / f"specs{self.setups}", ignore_errors=True)

    def run_pass(self, activita, cli, clock) -> PassResult:
        res = PassResult()
        digest = hashlib.sha256()
        for argv in self.commands:
            start = clock()
            ok, out = run_cli(cli, argv)
            res.latencies_s.append(clock() - start)
            res.attempted += 1
            res.failed += not ok
            # spec paths differ between checkouts; hash the file name only
            digest.update(" ".join([argv[0], Path(argv[1]).name, *argv[2:]]).encode())
            digest.update(out.encode())
            if argv[0] in ("shell", "tutte"):
                res.outputs.append((argv, out))
            if not ok:
                res.problems.append(f"`activita {' '.join(argv)}` failed")
            elif argv[0] == "shell" and out != "shelling: ok\n":
                res.problems.append(f"`activita {' '.join(argv)}` printed {out!r}")
        res.digest = digest.hexdigest()
        return res

    def check(self, activita, passes: list[PassResult]) -> list[str]:
        problems = []
        # the last pass's spec files are the only ones not yet discarded
        for argv, out in passes[-1].outputs:
            if argv[0] != "tutte":
                continue
            m = activita.parse_spec(Path(argv[1]).read_bytes())
            expected = repr(activita.tutte_by_deletion_contraction(m)) + "\n"
            if out != expected:
                problems.append(
                    f"`activita {' '.join(argv)}` printed {out!r}, expected {expected!r}")
        return problems


WORKLOADS = {w.name: w for w in (Corpus, ScaleW4, ColdQueries)}

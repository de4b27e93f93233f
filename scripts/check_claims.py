#!/usr/bin/env python
"""The paper's claims, checked against one committed figures document.

``benchmarks/results/figures.json`` is ``repro figures --json`` at bench
size (:data:`REGENERATE`): every figure and table of the paper's
evaluation, as the one document ``repro.api.figures`` returns and the
job service serves.  This script reads only that document; it never
simulates.  It

* evaluates each claim of the evaluation as a named predicate and
  prints the ledger: the claim, the paper's value, the measured value
  and ``pass``/``FAIL``, or ``gap`` for a known fidelity gap, which is
  stated but not gated;
* renders the ledger into EXPERIMENTS.md between ``<!-- claims:NAME -->``
  and ``<!-- /claims:NAME -->`` markers, rewriting every block that
  drifted from the document.

Exit status 1 names each failed predicate and each drifted (now
rewritten) or missing block; 0 means the document holds every claim
and EXPERIMENTS.md quotes it exactly.

Usage: python scripts/check_claims.py  (no flags)
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
DOCUMENT = REPO / "benchmarks" / "results" / "figures.json"
EXPERIMENTS = REPO / "EXPERIMENTS.md"

#: The request the committed document answers: the bench size.
BENCH_REQUEST = {
    "fig": "all", "refs": 120_000, "warmup": 40_000, "seed": 0,
    "ecc_area_entries": 1,
}
REGENERATE = (
    "PYTHONPATH=src python -m repro figures --json "
    "benchmarks/results/figures.json --refs 120000 --warmup 40000 "
    "--jobs 2 --no-cache"
)

#: Figure 1's high-dirty benchmarks, named in the paper's text.
OUTLIERS = ("apsi", "mesa", "gap", "parser")
#: Figures 3-6 columns, most aggressive cleaning first.
COLUMNS = ("64K", "256K", "1M", "4M", "org")

Doc = Dict[str, Any]
Series = Dict[str, Dict[str, float]]


class Claim(NamedTuple):
    """One row of the ledger."""

    name: str
    claim: str
    paper: str
    measured: str
    #: None for a stated fidelity gap: reported, never gated.
    ok: Optional[bool]

    @property
    def verdict(self) -> str:
        return "gap" if self.ok is None else "pass" if self.ok else "FAIL"


# -- reading the document -------------------------------------------------


def section(doc: Doc, prefix: str) -> Dict[str, Any]:
    """The document's section whose title starts with ``prefix``."""
    for sec in doc["sections"]:
        if sec["title"].startswith(prefix):
            return sec
    raise KeyError(f"the document has no {prefix!r} section")


def series(doc: Doc, prefix: str) -> Series:
    return section(doc, prefix)["series"]


def column(rows: Series, col: str) -> Dict[str, float]:
    return {bench: row[col] for bench, row in rows.items()}


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def averages(rows: Series) -> Dict[str, float]:
    """Per column, the average over the benchmarks."""
    return {col: mean(column(rows, col).values()) for col in COLUMNS}


def _pct(value: float, digits: int = 1) -> str:
    return f"{value:.{digits}f}%"


def _each(values: Dict[str, float], names, digits: int = 1) -> str:
    return ", ".join(f"{n} {values[n]:.{digits}f}" for n in names)


# -- the claims, one function per EXPERIMENTS.md block --------------------


def table1_claims(doc: Doc) -> List[Claim]:
    lines = section(doc, "Table 1:")["text"].splitlines()
    claims = []
    for name, claim, paper in (
        ("table1.ruu", "issue window", "64-entry RUU"),
        ("table1.lsq", "load/store queue", "32-entry LSQ"),
        ("table1.issue-rate", "decode and issue rate",
         "4 instructions per cycle"),
        ("table1.int-units", "integer units", "4 INT add, 1 INT mult/div"),
        ("table1.fp-units", "floating-point units", "1 FP add, 1 FP mult/div"),
    ):
        line = next((ln for ln in lines if paper in ln), None)
        measured = " ".join(line.split()) if line else "missing"
        claims.append(Claim(name, claim, paper, measured, line is not None))
    return claims


def figure1_claims(doc: Doc) -> List[Claim]:
    f1 = column(series(doc, "Figure 1:"), "dirty %")
    avg = mean(f1.values())
    return [
        Claim("fig1.average", "suite average dirty %, within 35–65%",
              "51.6%", _pct(avg), 35.0 <= avg <= 65.0),
        Claim("fig1.outliers",
              "apsi, mesa, gap and parser above the suite average",
              "apsi, mesa, gap, parser", _each(f1, OUTLIERS),
              all(f1[n] > avg for n in OUTLIERS)),
    ]


def _monotone(avgs: Dict[str, float]) -> bool:
    """Smaller interval -> fewer dirty lines, with 1 point of slack."""
    values = [avgs[c] for c in COLUMNS]
    return all(a <= b + 1.0 for a, b in zip(values, values[1:]))


def _kept_at_4m(rows: Series, names) -> Tuple[str, bool]:
    """Each of ``names`` keeps over 80% of its org dirty % at 4M."""
    kept = {n: 100.0 * rows[n]["4M"] / rows[n]["org"] for n in names}
    return (_each(kept, names, 0) + " % of org",
            all(rows[n]["4M"] > 0.8 * rows[n]["org"] for n in names))


def figures3_4_claims(doc: Doc) -> List[Claim]:
    fp, int_ = series(doc, "Figure 3:"), series(doc, "Figure 4:")
    fp_avg, int_avg = averages(fp), averages(int_)
    streaming = ("applu", "swim", "mgrid", "equake")
    fp_kept, fp_kept_ok = _kept_at_4m(fp, streaming)
    mcf_kept, mcf_kept_ok = _kept_at_4m(int_, ("mcf",))
    cleaned = {
        n: 100.0 * int_[n]["64K"] / int_[n]["org"] for n in ("gap", "parser")
    }
    one_m = mean([fp_avg["1M"], int_avg["1M"]])
    claims = []
    for name, suite, avgs in (("fig3", "FP", fp_avg), ("fig4", "INT", int_avg)):
        claims.append(Claim(
            f"{name}.monotone",
            f"{suite} averages fall as the interval shrinks (1-point slack)",
            "yes",
            " / ".join(f"{avgs[c]:.1f}" for c in COLUMNS)
            + " (64K/256K/1M/4M/org)",
            _monotone(avgs),
        ))
    claims += [
        Claim("fig3.streaming-4M",
              "applu, swim, mgrid, equake keep over 80% of org at 4M",
              "little reduction", fp_kept, fp_kept_ok),
        Claim("fig4.mcf-4M", "mcf keeps over 80% of org at 4M",
              "little reduction", mcf_kept, mcf_kept_ok),
        Claim("fig4.outliers-64K", "gap, parser under 25% of org at 64K",
              "cleanable", _each(cleaned, ("gap", "parser"), 0) + " % of org",
              all(int_[n]["64K"] < 0.25 * int_[n]["org"]
                  for n in ("gap", "parser"))),
    ]
    for name, suite, avgs in (("fig3", "FP", fp_avg), ("fig4", "INT", int_avg)):
        claims.append(Claim(
            f"{name}.256K-average", f"{suite} 256K average within 5–22%",
            "12.5%", _pct(avgs["256K"]), 5.0 <= avgs["256K"] <= 22.0,
        ))
    claims.append(Claim(
        "gap.1M-dirty", "1M-interval average dirty %", "~25%",
        f"{_pct(one_m, 0)} ({_pct(fp_avg['1M'], 0)} FP / "
        f"{_pct(int_avg['1M'], 0)} INT)",
        None,
    ))
    return claims


#: The paper's Figures 5/6 averages: suite -> (org %, 1M %).
PAPER_TRAFFIC = {"FP": (1.08, 1.13), "INT": (1.12, 1.16)}


def figures5_6_claims(doc: Doc) -> List[Claim]:
    claims = []
    ratios = []
    for name, suite, prefix in (("fig5", "FP", "Figure 5:"),
                                ("fig6", "INT", "Figure 6:")):
        rows = series(doc, prefix)
        avg = averages(rows)
        org, one_m, small = avg["org"], avg["1M"], avg["64K"]
        paper_org, paper_1m = PAPER_TRAFFIC[suite]
        ratios += [org / paper_org, one_m / paper_1m]
        margin = {b: r["64K"] - r["org"] for b, r in rows.items()}
        worst = min(margin, key=margin.get)
        claims += [
            Claim(f"{name}.1M-near-org",
                  f"{suite} 1M average at most 1.35 × org + 0.3",
                  f"{paper_1m:.2f}% vs {paper_org:.2f}%",
                  f"{_pct(one_m, 2)} vs {_pct(org, 2)}",
                  one_m <= org * 1.35 + 0.3),
            Claim(f"{name}.64K-costs-more",
                  f"{suite} 64K average at least 1M − 0.2",
                  "yes", f"{_pct(small, 2)} vs {_pct(one_m, 2)}",
                  small >= one_m - 0.2),
            Claim(f"{name}.never-below-org",
                  f"every {suite} benchmark at 64K at least org − 0.5",
                  "—", f"smallest 64K − org: {margin[worst]:+.2f} ({worst})",
                  margin[worst] >= -0.5),
        ]
    claims.append(Claim(
        "gap.traffic-scale", "org and 1M averages vs the paper's, both suites",
        "1.08–1.16%", f"{min(ratios):.1f}–{max(ratios):.1f}× the paper's",
        None,
    ))
    return claims


def figure7_claims(doc: Doc) -> List[Claim]:
    f7 = column(series(doc, "Figure 7:"), "dirty %")
    f1 = column(series(doc, "Figure 1:"), "dirty %")
    top = max(f7, key=f7.get)
    return [
        Claim("fig7.cap-25", "every benchmark at most 25% dirty", "< 25%",
              f"max {_pct(f7[top])} ({top}), average {_pct(mean(f7.values()))}",
              all(v <= 25.0 + 1e-6 for v in f7.values())),
        Claim("fig7.outliers-cleaned",
              "apsi, mesa, gap, parser under half their Figure 1 value",
              "mostly cleaned",
              ", ".join(f"{n} {f1[n]:.1f}→{f7[n]:.1f}" for n in OUTLIERS),
              all(f7[n] < 0.5 * f1[n] for n in OUTLIERS)),
    ]


def figure8_claims(doc: Doc) -> List[Claim]:
    f8 = series(doc, "Figure 8:")
    avg = {col: mean(column(f8, col).values())
           for col in ("WB", "Clean-WB", "ECC-WB", "total")}
    org = mean([
        averages(series(doc, "Figure 5:"))["org"],
        averages(series(doc, "Figure 6:"))["org"],
    ])
    return [
        Claim("fig8.ecc-wb-dominates",
              "average ECC-WB at least Clean-WB and WB", "ECC-WB most",
              f"ECC-WB {_pct(avg['ECC-WB'], 2)} vs Clean-WB "
              f"{_pct(avg['Clean-WB'], 2)} vs WB {_pct(avg['WB'], 2)}",
              avg["ECC-WB"] >= avg["Clean-WB"]
              and avg["ECC-WB"] >= avg["WB"]),
        Claim("fig8.total-near-org",
              "average total at most the org average (Figures 5/6) + 3.0",
              "1.20/1.19% vs 1.08/1.12%",
              f"{_pct(avg['total'], 2)} vs {_pct(org, 2)}",
              avg["total"] <= org + 3.0),
    ]


def area_claims(doc: Doc) -> List[Claim]:
    area = section(doc, "Protection area")["area"]
    conv = dict(area["conventional"])["total"]
    ours = dict(area["proposed"])["total"]
    red = area["reduction"]
    return [
        Claim("area.conventional", "conventional: data ECC + tag/status",
              "128 + 4 = 132 KB", f"{conv:.2f} KiB", conv == 132.0),
        Claim("area.proposed",
              "proposed: parity + written + tag + status + ECC array",
              "16+2+2+2+32 = 54 KB", f"{ours:.2f} KiB", ours == 54.0),
        Claim("area.reduction", "reduction within 0.5 points of 59%", "59%",
              _pct(100 * red), abs(red - 0.59) <= 0.005),
    ]


def ipc_claims(doc: Doc) -> List[Claim]:
    loss = column(series(doc, "IPC"), "loss %")
    claims = []
    for name, suite, prefix, paper in (("fp", "FP", "Figure 3:", "0.14%"),
                                       ("int", "INT", "Figure 4:", "0.65%")):
        losses = {b: loss[b] for b in series(doc, prefix)}
        avg = mean(losses.values())
        top = max(losses, key=losses.get)
        claims += [
            Claim(f"ipc.{name}-average", f"{suite} average loss under 1%",
                  paper, _pct(avg, 2), avg < 1.0),
            Claim(f"ipc.{name}-max", f"every {suite} benchmark's loss under 5%",
                  "< 1%", f"max {_pct(losses[top], 2)} ({top})",
                  losses[top] < 5.0),
        ]
    return claims


#: EXPERIMENTS.md block name -> the claims rendered into it, in order.
BLOCKS: Dict[str, Callable[[Doc], List[Claim]]] = {
    "table1": table1_claims,
    "figure1": figure1_claims,
    "figures3-4": figures3_4_claims,
    "figures5-6": figures5_6_claims,
    "figure7": figure7_claims,
    "figure8": figure8_claims,
    "area": area_claims,
    "ipc": ipc_claims,
}


def ledger(doc: Doc) -> Dict[str, List[Claim]]:
    """``{block: claims}`` for every block of :data:`BLOCKS`."""
    return {block: claims(doc) for block, claims in BLOCKS.items()}


# -- EXPERIMENTS.md blocks -------------------------------------------------


def render_block(claims: List[Claim]) -> str:
    lines = [
        "| predicate | claim | paper | measured | verdict |",
        "|---|---|---|---|---|",
    ]
    lines += [
        f"| `{c.name}` | {c.claim} | {c.paper} | {c.measured} | {c.verdict} |"
        for c in claims
    ]
    return "\n".join(lines) + "\n"


def render_blocks(claims: Dict[str, List[Claim]]) -> Dict[str, str]:
    """``{block: body}`` of a :func:`ledger`."""
    return {block: render_block(rows) for block, rows in claims.items()}


_BLOCK = re.compile(
    r"<!-- claims:(?P<name>[\w-]+) -->\n(?P<body>.*?)<!-- /claims:(?P=name) -->",
    re.S,
)


def read_blocks(text: str) -> Dict[str, str]:
    """``{name: body}`` of every claims block in ``text``."""
    return {m["name"]: m["body"] for m in _BLOCK.finditer(text)}


def sync(text: str, blocks: Dict[str, str]) -> Tuple[str, List[str], List[str]]:
    """``(new text, drifted, missing)``: ``text`` with every block
    replaced by its rendering in ``blocks``, the names of the blocks
    that changed, and the names ``text`` has no block for."""
    present = read_blocks(text)
    missing = [name for name in blocks if name not in present]
    drifted = [name for name, body in blocks.items()
               if name in present and present[name] != body]

    def render(m: "re.Match[str]") -> str:
        body = blocks.get(m["name"], m["body"])
        return f"<!-- claims:{m['name']} -->\n{body}<!-- /claims:{m['name']} -->"

    return _BLOCK.sub(render, text), drifted, missing


# -- the gate --------------------------------------------------------------


def main() -> int:
    where = DOCUMENT
    try:
        doc = json.loads(DOCUMENT.read_text(encoding="utf-8"))
        request = doc["request"]
        claims = ledger(doc)
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"FAIL: cannot read the claims from {where}: {err!r}; "
              f"regenerate it with: {REGENERATE}")
        return 1
    if request != BENCH_REQUEST:
        print(f"FAIL: {where} answers {request}, not the bench size "
              f"{BENCH_REQUEST}; regenerate it with: {REGENERATE}")
        return 1
    rows = [c for block in claims.values() for c in block]
    width = max(len(c.name) for c in rows)
    for c in rows:
        print(f"{c.verdict:4}  {c.name:{width}}  {c.claim}: "
              f"paper {c.paper}; measured {c.measured}")
    failures = [f"FAIL: claim {c.name}: {c.claim} (measured {c.measured})"
                for c in rows if c.ok is False]

    text = EXPERIMENTS.read_text(encoding="utf-8")
    new_text, drifted, missing = sync(text, render_blocks(claims))
    if new_text != text:
        EXPERIMENTS.write_text(new_text, encoding="utf-8")
    failures += [
        f"FAIL: EXPERIMENTS.md block claims:{name} drifted from the "
        f"document (rewritten; commit it)" for name in drifted
    ]
    failures += [
        f"FAIL: EXPERIMENTS.md has no claims:{name} block" for name in missing
    ]
    for line in failures:
        print(line)
    gaps = sum(c.ok is None for c in rows)
    print(f"{len(rows) - gaps} predicates, {gaps} stated gaps, "
          f"{len(claims)} EXPERIMENTS.md blocks: "
          f"{'FAILED' if failures else 'OK'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

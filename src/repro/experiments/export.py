"""Structured export of experiment results.

Everything the figure drivers produce is plain nested dicts of floats;
this module stamps them with the run configuration, serialises to JSON
and offers :func:`regenerate_all` — the one-call driver behind
``python -m repro figures --json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.experiments.figures import (
    area_table,
    figure1,
    figure3_4,
    figure5_6,
    figure7,
    figure8,
    ipc_loss,
    reference_grid,
)
from repro.experiments.pool import SweepEngine
from repro.experiments.runner import RunConfig

PathLike = Union[str, Path]


def config_metadata(config: RunConfig) -> Dict[str, Any]:
    """The provenance block attached to every export."""
    return {
        "geometry": {
            "name": config.geometry.name,
            "l1_bytes": config.geometry.l1_bytes,
            "l2_bytes": config.geometry.l2_bytes,
            "interval_scale": config.geometry.interval_scale,
        },
        "n_refs": config.n_refs,
        "warmup_refs": config.warmup_refs,
        "seed": config.seed,
    }


def regenerate_all(
    config: RunConfig = RunConfig(),
    include_ipc: bool = True,
    ipc_insts: Optional[int] = None,
    engine: Optional["SweepEngine"] = None,
    ecc_area_entries: int = 1,
) -> Dict[str, Any]:
    """Regenerate every figure/table of the paper; return one document.

    The document maps figure names to their data plus a ``config``
    provenance block.  This is the expensive full sweep (~all of the
    paper's evaluation); size it via ``config``, and pass a
    :class:`~repro.experiments.pool.SweepEngine` to parallelise and
    cache the grid.  ``ecc_area_entries`` is the shared ECC entries
    per set of the area section.
    """
    doc: Dict[str, Any] = {"config": config_metadata(config)}

    # Each cell is simulated once: Figure 1 reads the sweeps' 'org'
    # runs, Figures 7 and 8 share the full-scheme runs.
    sweeps, full = reference_grid(config, engine)
    for suite, (fig_d, fig_t) in (("fp", ("figure3", "figure5")),
                                  ("int", ("figure4", "figure6"))):
        doc[fig_d] = figure3_4(suite, config, sweep=sweeps[suite])
        doc[fig_t] = figure5_6(suite, config, sweep=sweeps[suite])
    doc["figure1"] = figure1(config, sweep={**sweeps["fp"], **sweeps["int"]})
    doc["figure7"] = figure7(config, full=full)
    doc["figure8"] = figure8(config, full=full)

    conv, ours, red = area_table(ecc_entries_per_set=ecc_area_entries)
    doc["area"] = {
        "conventional_kib": conv.total_kib,
        "proposed_kib": ours.total_kib,
        "reduction": red,
        "conventional_components": dict(conv.components),
        "proposed_components": dict(ours.components),
    }

    if include_ipc:
        doc["ipc"] = {}
        for suite in ("fp", "int"):
            doc["ipc"].update(
                ipc_loss(config, suite=suite, n_insts=ipc_insts,
                         engine=engine)
            )
    return doc


def save_json(document: Dict[str, Any], path: PathLike) -> None:
    """Write an export document as indented JSON."""
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True))


def load_json(path: PathLike) -> Dict[str, Any]:
    """Read back an export document."""
    return json.loads(Path(path).read_text())

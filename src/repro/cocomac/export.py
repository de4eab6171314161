"""Export utilities for the connectivity database and macaque models.

Downstream analyses (graph statistics, visualisation, cross-checks
against the real CoCoMac) need standard formats: GraphML via networkx,
adjacency CSV, and a region table.  All exporters are deterministic and
round-trip-tested.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cocomac.database import ConnectivityDatabase
from repro.cocomac.model import MacaqueModel

if TYPE_CHECKING:
    import networkx as nx


def to_graphml(db: ConnectivityDatabase, path: str | Path) -> Path:  # repro: obs-flush
    """Write the region graph as GraphML (nodes carry all metadata)."""
    import networkx as nx  # the GraphML functions alone need it
    path = Path(path)
    nx.write_graphml(db.graph(), path)
    return path


def from_graphml(path: str | Path) -> nx.DiGraph:
    """Read back a GraphML export (as a networkx graph)."""
    import networkx as nx
    return nx.read_graphml(Path(path), node_type=int)


def adjacency_csv(db: ConnectivityDatabase) -> str:
    """Dense 0/1 adjacency as CSV, with region names as header and index."""
    order = [r.index for r in db.regions]
    names = [r.name for r in db.regions]
    matrix = db.adjacency(order)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["region"] + names)
    for name, row in zip(names, matrix):
        writer.writerow([name] + [int(v) for v in row])
    return buf.getvalue()


def region_table_csv(model: MacaqueModel) -> str:
    """Per-region table: class, volume, cores, in/out degree, gray share."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["region", "class", "volume", "imputed", "cores",
         "out_connections", "in_connections", "gray_fraction"]
    )
    counts = model.connection_counts
    for i, name in enumerate(model.region_names):
        writer.writerow(
            [
                name,
                model.region_classes[i],
                round(model.volumes.volumes[name], 6),
                int(name in model.volumes.imputed),
                int(model.cores[i]),
                int(counts[i].sum()),
                int(counts[:, i].sum()),
                round(model.gray_fraction_of(i), 6),
            ]
        )
    return buf.getvalue()


def export_model(  # repro: obs-flush
    model: MacaqueModel, directory: str | Path
) -> list[Path]:
    """Write every export for one macaque model; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    paths.append(to_graphml(model.database, directory / "reduced_graph.graphml"))
    (directory / "adjacency.csv").write_text(adjacency_csv(model.database))
    paths.append(directory / "adjacency.csv")
    (directory / "regions.csv").write_text(region_table_csv(model))
    paths.append(directory / "regions.csv")
    paths.append(
        Path(model.coreobject.to_json(directory / "coreobject.json") or "")
        and directory / "coreobject.json"
    )
    return paths

"""Topology Zoo loader (GraphML).

The paper evaluates on AttMpls and Chinanet "from the Topology
Zoo [48]".  This module loads any Topology Zoo ``.graphml`` file into a
:class:`~repro.topo.graph.Topology`, using the Zoo's ``Latitude`` /
``Longitude`` node attributes to derive link latencies.  Nodes without
coordinates inherit the mean coordinate of their neighbours (the Zoo
has occasional gaps); files without any coordinates fall back to a
constant latency.

A small embedded sample (a 4-node toy in Zoo format) supports offline
tests; real Zoo files from topology-zoo.org load the same way.
"""

from __future__ import annotations

import io
from typing import Optional, Union

from repro.topo.graph import Topology
from repro.topo.paths import components

GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"

SAMPLE_GRAPHML = """<?xml version='1.0' encoding='utf-8'?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key attr.name="label" attr.type="string" for="node" id="d0"/>
  <key attr.name="Latitude" attr.type="double" for="node" id="d1"/>
  <key attr.name="Longitude" attr.type="double" for="node" id="d2"/>
  <graph edgedefault="undirected">
    <node id="0"><data key="d0">Vienna</data>
      <data key="d1">48.21</data><data key="d2">16.37</data></node>
    <node id="1"><data key="d0">Munich</data>
      <data key="d1">48.14</data><data key="d2">11.58</data></node>
    <node id="2"><data key="d0">Zurich</data>
      <data key="d1">47.38</data><data key="d2">8.54</data></node>
    <node id="3"><data key="d0">Milan</data>
      <data key="d1">45.46</data><data key="d2">9.19</data></node>
    <edge source="0" target="1"/>
    <edge source="1" target="2"/>
    <edge source="2" target="3"/>
    <edge source="0" target="3"/>
  </graph>
</graphml>
"""


class ZooParseError(ValueError):
    """Raised when a GraphML document cannot be interpreted."""


def _key_map(root) -> dict[str, str]:
    """GraphML key id -> attribute name."""
    keys = {}
    for key in root.findall(f"{GRAPHML_NS}key"):
        name = key.get("attr.name")
        key_id = key.get("id")
        if name and key_id:
            keys[key_id] = name
    return keys


def _node_data(node, keys) -> dict[str, str]:
    data = {}
    for item in node.findall(f"{GRAPHML_NS}data"):
        name = keys.get(item.get("key", ""), item.get("key", ""))
        data[name] = (item.text or "").strip()
    return data


def load_graphml(
    source: Union[str, io.IOBase],
    name: Optional[str] = None,
    capacity: float = 100.0,
    fallback_latency_ms: float = 5.0,
) -> Topology:
    """Parse Topology Zoo GraphML into a Topology.

    ``source`` may be a path, an XML string, or a file-like object.
    Multi-edges collapse to one link; self-loops are dropped (both
    occur in Zoo data).  Disconnected files keep only the largest
    connected component (standard practice when using Zoo graphs).
    """
    # Imported here: no built-in topology is GraphML, so most runs
    # never parse XML.
    import xml.etree.ElementTree as ET

    if isinstance(source, str) and source.lstrip().startswith("<"):
        root = ET.fromstring(source)
    elif isinstance(source, str):
        root = ET.parse(source).getroot()
    else:
        root = ET.parse(source).getroot()

    graph = root.find(f"{GRAPHML_NS}graph")
    if graph is None:
        raise ZooParseError("no <graph> element")
    keys = _key_map(root)

    labels: dict[str, str] = {}
    coords: dict[str, tuple[float, float]] = {}
    for node in graph.findall(f"{GRAPHML_NS}node"):
        node_id = node.get("id")
        if node_id is None:
            raise ZooParseError("node without id")
        data = _node_data(node, keys)
        label = data.get("label") or f"node{node_id}"
        # Zoo labels repeat occasionally; disambiguate with the id.
        if label in labels.values():
            label = f"{label}_{node_id}"
        labels[node_id] = label
        try:
            coords[node_id] = (float(data["Latitude"]), float(data["Longitude"]))
        except (KeyError, ValueError):
            pass

    edges: set[frozenset] = set()
    for edge in graph.findall(f"{GRAPHML_NS}edge"):
        a, b = edge.get("source"), edge.get("target")
        if a is None or b is None:
            raise ZooParseError("edge without endpoints")
        if a == b:
            continue                        # self-loop
        if a not in labels or b not in labels:
            raise ZooParseError(f"edge references unknown node {a!r}/{b!r}")
        edges.add(frozenset((a, b)))

    # Fill missing coordinates from neighbours (common in Zoo files).
    adjacency: dict[str, list[str]] = {}
    for pair in edges:
        a, b = tuple(pair)
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    for node_id in labels:
        if node_id in coords:
            continue
        neighbour_coords = [
            coords[n] for n in adjacency.get(node_id, []) if n in coords
        ]
        if neighbour_coords:
            coords[node_id] = (
                sum(c[0] for c in neighbour_coords) / len(neighbour_coords),
                sum(c[1] for c in neighbour_coords) / len(neighbour_coords),
            )

    topo_name = name or graph.get("id") or "zoo"
    topo = Topology(
        topo_name,
        coordinates={
            labels[node_id]: coord for node_id, coord in coords.items()
        },
    )
    for label in labels.values():
        topo.add_node(label)
    for pair in sorted(edges, key=sorted):
        a, b = sorted(pair)
        la, lb = labels[a], labels[b]
        if la in topo.coordinates and lb in topo.coordinates:
            topo.add_edge(la, lb, capacity=capacity)
        else:
            topo.add_edge(la, lb, latency_ms=fallback_latency_ms, capacity=capacity)

    # Keep the largest connected component (the first, on a tie).
    if topo.adj and not topo.is_connected():
        largest = max(components(topo.adj), key=len)
        topo.adj = {node: peers for node, peers in topo.adj.items() if node in largest}
        topo.invalidate_path_cache()
    topo.validate()
    return topo


def sample_zoo_topology() -> Topology:
    """The embedded 4-node sample in Topology Zoo format."""
    return load_graphml(SAMPLE_GRAPHML, name="zoo-sample")

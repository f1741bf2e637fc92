"""Weighted DAG lowering of a netlist and critical (longest) path extraction.

Following the paper, every directed net ``u -> v`` is weighted with the insertion
loss of its *incident* (destination) vertex ``v``, optionally multiplied by a
per-instance loss multiplicity (e.g. the broadcast path through ``CW - 1`` crossings
stores ``(CW - 1) x`` the crossing loss on that edge).  The total insertion loss of a
path from a light source to a detector is then the source device's own loss plus the
sum of edge weights along the path, and the link-budget critical path is the longest
such weighted path.

Ties decide which path is reported, so the longest-path search follows a fixed
order, the one of the graph library it replaced (``tests/test_dag_oracle.py`` checks
it against that library on random DAGs):

- nodes are visited in topological generations, each generation in instance order
  and each node's successors in first-net order (duplicate nets count once);
- a node's best predecessor is the first maximum over its predecessors in
  first-net order, and a negative distance restarts the path at the node;
- the path ends at the first node, in that visiting order, of maximum distance, and
  its length is summed edge by edge from the start;
- :meth:`CircuitDAG.longest_path_from` walks simple paths depth first in successor
  order, sink by sink in instance order, and keeps the first maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.devices.library import DeviceLibrary
from repro.netlist.netlist import Netlist


@dataclass(frozen=True)
class CriticalPath:
    """The highest-insertion-loss source-to-sink path of a circuit DAG."""

    instances: Tuple[str, ...]
    insertion_loss_db: float

    def __len__(self) -> int:
        return len(self.instances)


class CircuitDAG:
    """Weighted DAG view of a :class:`~repro.netlist.netlist.Netlist`.

    ``loss_multipliers`` maps instance name -> multiplier applied to that instance's
    insertion loss on every edge pointing at it; this is how parametric broadcast /
    sharing losses enter the link budget without materializing the flattened circuit.
    """

    def __init__(
        self,
        netlist: Netlist,
        library: DeviceLibrary,
        loss_multipliers: Optional[Mapping[str, float]] = None,
    ) -> None:
        netlist.validate(device_names=library.names())
        self.netlist = netlist
        self.library = library
        self.loss_multipliers: Dict[str, float] = dict(loss_multipliers or {})
        for name, multiplier in self.loss_multipliers.items():
            if name not in netlist:
                raise KeyError(f"loss multiplier given for unknown instance {name!r}")
            if multiplier < 0:
                raise ValueError(
                    f"loss multiplier for {name!r} must be non-negative, got {multiplier}"
                )
        # Edge weights keyed both ways, each map in instance order and each
        # neighbour map in first-net order; a duplicate net keeps one edge.
        names = netlist.instances
        self._succ: Dict[str, Dict[str, float]] = {name: {} for name in names}
        self._pred: Dict[str, Dict[str, float]] = {name: {} for name in names}
        for src, dst in netlist.edge_list():
            # The tiny epsilon breaks ties in favour of longer paths so the critical
            # path always extends through lossless devices down to the detector.
            loss_db = self._instance_loss_db(dst) + 1e-9
            self._succ[src][dst] = loss_db
            self._pred[dst][src] = loss_db

    # -- graph structure ------------------------------------------------------------
    def _instance_loss_db(self, name: str) -> float:
        device = self.library.get(self.netlist.device_of(name))
        multiplier = self.loss_multipliers.get(name, 1.0)
        return device.insertion_loss_db * multiplier

    def _topological_order(self) -> List[str]:
        """Kahn's sort by generations: sources first, in instance order."""
        indegree = {name: len(pred) for name, pred in self._pred.items()}
        generation = [name for name, degree in indegree.items() if degree == 0]
        order: List[str] = []
        while generation:
            order.extend(generation)
            ready: List[str] = []
            for name in generation:
                for child in self._succ[name]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        ready.append(child)
            generation = ready
        return order

    def _paths_to(self, path: List[str], sink: str) -> Iterator[List[str]]:
        """Every path from ``path``'s end to ``sink``, depth first by successor."""
        for child in self._succ[path[-1]]:
            if child == sink:
                yield path + [child]
            else:
                yield from self._paths_to(path + [child], sink)

    # -- analyses -------------------------------------------------------------------
    def path_insertion_loss_db(self, path: List[str]) -> float:
        """Total insertion loss along an explicit instance path."""
        if not path:
            return 0.0
        total = self._instance_loss_db(path[0])
        for src, dst in zip(path, path[1:]):
            loss_db = self._succ.get(src, {}).get(dst)
            if loss_db is None:
                raise ValueError(f"path step {src!r} -> {dst!r} is not a net")
            total += loss_db
        return total

    def critical_path(self) -> CriticalPath:
        """Longest (highest-loss) source-to-sink path.

        Uses the weighted longest-path algorithm on the DAG; the source instance's
        own insertion loss is added on top of the edge weights.
        """
        if not self._succ:
            return CriticalPath(instances=(), insertion_loss_db=0.0)
        if not any(self._succ.values()):
            # Degenerate single-instance circuits: the worst device alone.
            worst = max(self._succ, key=self._instance_loss_db)
            return CriticalPath(
                instances=(worst,), insertion_loss_db=self._instance_loss_db(worst)
            )
        dist: Dict[str, Tuple[float, str]] = {}  # name -> (distance, predecessor)
        for name in self._topological_order():
            candidates = [
                (dist[pred][0] + loss_db, pred)
                for pred, loss_db in self._pred[name].items()
            ]
            best = max(candidates, key=lambda entry: entry[0], default=(0.0, name))
            dist[name] = best if best[0] >= 0 else (0.0, name)
        node = max(dist, key=lambda name: dist[name][0])
        path = [node]
        while dist[node][1] != node:
            node = dist[node][1]
            path.append(node)
        path.reverse()
        loss = 0.0  # a plain loop: sum() compensates float error from Python 3.12
        for src, dst in zip(path, path[1:]):
            loss += self._succ[src][dst]
        loss += self._instance_loss_db(path[0])
        return CriticalPath(instances=tuple(path), insertion_loss_db=float(loss))

    def total_insertion_loss_db(self) -> float:
        """Convenience accessor for the critical-path loss."""
        return self.critical_path().insertion_loss_db

    def level_of(self, name: str) -> int:
        """Topological (ASAP) level of an instance; level 0 holds the sources."""
        levels = self.netlist.topological_levels()
        for idx, group in enumerate(levels):
            if name in group:
                return idx
        raise KeyError(f"unknown instance {name!r}")

    def longest_path_from(self, source: str) -> CriticalPath:
        """Longest-loss path starting at a specific source instance."""
        if source not in self.netlist:
            raise KeyError(f"unknown instance {source!r}")
        best_path: List[str] = [source]
        best_loss = self._instance_loss_db(source)
        for sink in self.netlist.sinks():
            if sink == source:
                continue
            for path in self._paths_to([source], sink):
                loss = self.path_insertion_loss_db(path)
                if loss > best_loss:
                    best_loss = loss
                    best_path = path
        return CriticalPath(instances=tuple(best_path), insertion_loss_db=best_loss)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitDAG(netlist={self.netlist.name!r}, "
            f"nodes={len(self._succ)}, edges={sum(map(len, self._succ.values()))})"
        )

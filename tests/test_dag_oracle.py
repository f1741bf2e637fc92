"""The stdlib :class:`CircuitDAG` against networkx on random netlists.

Ties decide which critical path is reported, and the committed tables hold
those paths' losses, so the oracle is the networkx-backed implementation the
stdlib one replaced, verbatim: same graph, same weights, same calls.  The
random netlists are built to make ties common -- few distinct losses, zero
losses, zero and repeated multipliers, duplicate nets, isolated instances and
instance orders that are not topological.
"""

import random

import pytest

from repro.devices.base import Device, DeviceCategory, DeviceSpec
from repro.devices.library import DeviceLibrary
from repro.netlist import CircuitDAG, Netlist

nx = pytest.importorskip("networkx")

SEEDS = range(240)

#: Few distinct losses, two of them equal and one zero, so sums tie often.
LOSSES_DB = {"d0": 0.0, "d1": 0.5, "d2": 0.5, "d3": 1.0, "d4": 0.25}
MULTIPLIERS = (0.0, 1.0, 2.0, 0.5)


def _library() -> DeviceLibrary:
    return DeviceLibrary(
        Device(
            DeviceSpec(
                name=name,
                category=DeviceCategory.PHOTONIC,
                width_um=1.0,
                height_um=1.0,
                insertion_loss_db=loss,
            )
        )
        for name, loss in LOSSES_DB.items()
    )


def _random_dag(seed: int):
    rng = random.Random(seed)
    count = rng.randint(1, 11)
    rank = list(range(count))
    rng.shuffle(rank)  # nets run from lower to higher rank: acyclic, not in order
    netlist = Netlist(name=f"random_{seed}")
    names = [f"n{i}" for i in range(count)]
    for name in names:
        netlist.add_instance(name, rng.choice(sorted(LOSSES_DB)))
    density = rng.choice((0.15, 0.35, 0.6))
    pairs = [(a, b) for a in range(count) for b in range(count) if rank[a] < rank[b]]
    rng.shuffle(pairs)
    for a, b in pairs:
        if rng.random() < density:
            netlist.connect(names[a], names[b])
            if rng.random() < 0.2:
                netlist.connect(names[a], names[b])  # duplicate net
    multipliers = {
        name: rng.choice(MULTIPLIERS) for name in names if rng.random() < 0.4
    }
    return netlist, multipliers


class _NetworkxDAG:
    """The networkx-backed critical-path code the stdlib DAG replaced."""

    def __init__(self, dag: CircuitDAG) -> None:
        self.dag = dag
        self.graph = nx.DiGraph()
        for name, inst in dag.netlist.instances.items():
            self.graph.add_node(name, device=inst.device, role=inst.role)
        for src, dst in dag.netlist.edge_list():
            self.graph.add_edge(src, dst, loss_db=dag._instance_loss_db(dst) + 1e-9)

    def path_insertion_loss_db(self, path):
        total = self.dag._instance_loss_db(path[0])
        for src, dst in zip(path, path[1:]):
            total += self.graph.edges[src, dst]["loss_db"]
        return total

    def critical_path(self):
        if self.graph.number_of_nodes() == 0:
            return (), 0.0
        if self.graph.number_of_edges() == 0:
            worst = max(self.graph.nodes, key=self.dag._instance_loss_db)
            return (worst,), self.dag._instance_loss_db(worst)
        path = nx.dag_longest_path(self.graph, weight="loss_db")
        loss = nx.dag_longest_path_length(self.graph, weight="loss_db")
        loss += self.dag._instance_loss_db(path[0])
        return tuple(path), float(loss)

    def longest_path_from(self, source):
        best_path = [source]
        best_loss = self.dag._instance_loss_db(source)
        for sink in self.dag.netlist.sinks():
            if sink == source:
                continue
            for path in nx.all_simple_paths(self.graph, source, sink):
                loss = self.path_insertion_loss_db(path)
                if loss > best_loss:
                    best_loss = loss
                    best_path = list(path)
        return tuple(best_path), best_loss


def test_random_netlists_cover_the_tie_cases():
    netlists = [_random_dag(seed) for seed in SEEDS]
    assert len(netlists) >= 200
    duplicated = isolated = 0
    for netlist, _ in netlists:
        edges = netlist.edge_list()
        duplicated += len(edges) != len(set(edges))
        touched = {name for edge in edges for name in edge}
        isolated += len(netlist) > 1 and len(touched) < len(netlist)
    assert duplicated >= 20 and isolated >= 20


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_networkx(seed):
    library = _library()
    netlist, multipliers = _random_dag(seed)
    dag = CircuitDAG(netlist, library, loss_multipliers=multipliers)
    oracle = _NetworkxDAG(dag)
    path = dag.critical_path()
    assert (path.instances, path.insertion_loss_db) == oracle.critical_path()
    for source in netlist.instances:
        path = dag.longest_path_from(source)
        assert (path.instances, path.insertion_loss_db) == oracle.longest_path_from(
            source
        )

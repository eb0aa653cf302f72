# mpclint: module=repro.dynamic.fixture_updates_ok
"""Clean: mutators invalidate; the owner class manages its own memos."""


def apply_update(tree, clustering, node, value):
    tree.node_data[node] = value
    clustering.invalidate_payload_plans(nodes=[node])


class ClusteringPlan:
    def invalidate_payload_plans(self):
        self._node_inputs = None
        self._edge_infos = None


def read_only(tree, node):
    return tree.node_data[node]

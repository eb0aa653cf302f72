# mpclint: module=repro.dynamic.fixture_updates
"""True positives: payload/cache mutations without invalidation."""


def apply_update(tree, node, value):
    tree.node_data[node] = value


def patch_edges(tree, patch):
    tree.edge_data.update(patch)


def poke_plan(plan):
    plan._node_inputs = None

"""Pairwise model and spanning-forest bound tests against enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from osstar.graphical import (PairwiseModel, SubspaceProposal, ising_grid,
                              max_spanning_forest)


def all_configs(model):
    return list(itertools.product(*[range(d) for d in model.domains]))


def triangle():
    rng = np.random.default_rng(42)
    return PairwiseModel(
        domains=[2, 3, 2],
        log_psi=[rng.normal(size=2), rng.normal(size=3), rng.normal(size=2)],
        edges=[(0, 1, rng.normal(size=(2, 3))),
               (0, 2, rng.normal(size=(2, 2))),
               (1, 2, rng.normal(size=(3, 2)))])


def chain():
    rng = np.random.default_rng(7)
    return PairwiseModel(
        domains=[2, 2, 2],
        log_psi=[rng.normal(size=2) for _ in range(3)],
        edges=[(0, 1, rng.normal(size=(2, 2))),
               (1, 2, rng.normal(size=(2, 2)))])


def test_model_validation():
    psi, phi = [[0, 0], [0, 0]], [[0, 0], [0, 0]]
    for args, match in [
            (([0], [[]], []), "domains must be positive"),
            (([2, 2], [[0, 0]], []), "one log_psi per node required"),
            (([2], [[0.0]], []), r"log_psi\[0\] must have shape \(2,\)"),
            (([2, 2], [[0, math.inf], [0, 0]], []),
             r"log_psi\[0\] must be finite"),
            (([2, 2], psi, [(0, 2, phi)]), r"edge \(0,2\) out of range"),
            (([2, 2], psi, [(1, 0, phi)]), r"edge \(1,0\) must satisfy u < v"),
            (([2, 2], psi, [(0, 1, phi), (0, 1, phi)]),
             r"duplicate edge \(0,1\)"),
            (([2, 2], psi, [(0, 1, [[0, 0]])]),
             r"log_phi for edge \(0,1\) has wrong shape"),
            (([2, 2], psi, [(0, 1, [[0, math.nan], [0, 0]])]),
             r"log_phi for edge \(0,1\) must be finite")]:
        with pytest.raises(ValueError, match=match):
            PairwiseModel(*args)
    with pytest.raises(ValueError, match=r"node ids must be 0\.\.n-1"):
        PairwiseModel.from_dict({"nodes": [{"id": 1, "domain": 2,
                                            "log_psi": [0, 0]}], "edges": []})
    # finite potentials whose largest magnitudes sum past the largest float
    with pytest.raises(ValueError, match="sum past the largest float"):
        PairwiseModel([1, 2], [[1e308], [0, -1e308]], [])
    with pytest.raises(ValueError, match="sum past the largest float"):
        PairwiseModel([2, 2], [[1e308, 0], [0, 0]],
                      [(0, 1, [[0, 0], [0, -1e308]])])


NODE = {"id": 0, "domain": 2, "log_psi": [0, 0]}


@pytest.mark.parametrize("data, match", [
    ({"nodes": [NODE]}, "no 'edges' key"),
    ({"nodes": [{"id": 0, "log_psi": [0, 0]}], "edges": []}, "no 'domain'"),
    ({"nodes": 5, "edges": []}, "malformed model"),
    ([NODE], "malformed model"),
    ({"nodes": [{**NODE, "domain": 2.5}], "edges": []},
     "domain of node 0 must be an integer, got 2.5"),
    ({"nodes": [{**NODE, "domain": True}], "edges": []},
     "must be an integer, got True"),
    ({"nodes": [NODE, {**NODE, "id": 1}],
      "edges": [{"u": 0.9, "v": 1, "log_phi": [[0, 0], [0, 0]]}]},
     "edge end u must be an integer, got 0.9"),
    ({"nodes": [NODE, {**NODE, "id": 1}],
      "edges": [{"u": 0, "v": False, "log_phi": [[0, 0], [0, 0]]}]},
     "edge end v must be an integer, got False"),
])
def test_malformed_model_data_is_a_value_error(data, match):
    with pytest.raises(ValueError, match=match):
        PairwiseModel.from_dict(data)


def test_integer_values_of_any_int_type_load():
    m = PairwiseModel([np.int64(2), 3], [[0, 0], [0, 0, 0]],
                      [(np.int32(0), 1, np.zeros((2, 3)))])
    assert m.domains == [2, 3] and (m.edges[0].u, m.edges[0].v) == (0, 1)
    assert PairwiseModel.from_dict(m.to_dict()).domains == [2, 3]


def test_json_roundtrip_is_exact():
    m = triangle()
    m2 = PairwiseModel.from_json(m.to_json())
    for x in all_configs(m):
        assert m.log_p(x) == m2.log_p(x)


def test_ising_grid_layout_and_determinism():
    m = ising_grid(2, 2, sigma=0.7, seed=3)
    assert m.n_nodes == 4
    assert [(e.u, e.v) for e in m.edges] == [(0, 1), (0, 2), (1, 3), (2, 3)]
    for eid in range(len(m.edges)):
        j = m.log_phi(eid)[0][0]
        assert np.allclose(m.log_phi(eid), [[j, -j], [-j, j]])
    m2 = ising_grid(2, 2, sigma=0.7, seed=3)
    for x in all_configs(m):
        assert m.log_p(x) == m2.log_p(x)
    m3 = ising_grid(2, 2, sigma=0.7, seed=4)
    assert any(m.log_p(x) != m3.log_p(x) for x in all_configs(m))
    with pytest.raises(ValueError, match="grid must be at least 1x1"):
        ising_grid(0, 3)


def rng_free_model(ranges):
    """Triangle with prescribed phi ranges, zero unaries."""
    edges = [(0, 1), (0, 2), (1, 2)]
    return PairwiseModel(
        domains=[2, 2, 2],
        log_psi=[[0.0, 0.0]] * 3,
        edges=[(u, v, [[0.0, -r], [-r, 0.0]])
               for (u, v), r in zip(edges, ranges)])


def test_prim_keeps_largest_ranges():
    m = rng_free_model([3.0, 1.0, 2.0])
    assert max_spanning_forest(m, range(m.n_nodes)).edge_ids == {0, 2}
    # all ranges equal: ties resolved toward the smallest edge id
    m = rng_free_model([1.0, 1.0, 1.0])
    assert max_spanning_forest(m, range(m.n_nodes)).edge_ids == {0, 1}


def test_disconnected_graph_rejected_but_forest_allowed():
    m = PairwiseModel([2, 2, 2], [[0, 0]] * 3, [(0, 1, [[0, 1], [1, 0]])])
    forest = max_spanning_forest(m, [0, 1, 2])
    assert forest.roots == [0, 2]
    assert forest.edge_ids == {0}


def test_tree_structured_model_is_bounded_exactly():
    # exactly one edge is off the spanning tree of a triangle
    assert len(SubspaceProposal(triangle(), {}).offtree_ids) == 1
    m = chain()
    q = SubspaceProposal(m, {})
    assert q.offtree_ids == []
    for x in all_configs(m):
        assert math.isclose(q.score(x), m.log_p(x), rel_tol=0, abs_tol=1e-12)
    config, log_q = q.argmax()
    best = max(all_configs(m), key=m.log_p)
    assert config == best


def test_sampling_law_matches_subspace_masses():
    m = triangle()
    q = SubspaceProposal(m, {})
    scores = {x: q.score(x) for x in all_configs(m)}
    z = np.logaddexp.reduce(list(scores.values()))
    rng = np.random.default_rng(0)
    n = 30_000
    freq = {x: 0 for x in scores}
    for _ in range(n):
        x, log_q = q.sample(rng)
        assert log_q == scores[x]
        freq[x] += 1
    for x, s in scores.items():
        assert abs(freq[x] / n - math.exp(s - z)) < 0.02


def test_conditioned_subspace():
    q = SubspaceProposal(triangle(), {0: 1})
    rng = np.random.default_rng(2)
    for _ in range(700):
        x, _ = q.sample(rng)
        assert x[0] == 1


def test_fully_conditioned_subspace_scores_exactly():
    m = triangle()
    for x in all_configs(m):
        q = SubspaceProposal(m, dict(enumerate(x)))
        assert q.score(x) == m.log_p(x)
        assert q.mass_log() == m.log_p(x)
        config, log_q = q.argmax()
        assert config == x and log_q == m.log_p(x)


def test_forest_without_node():
    m = ising_grid(3, 3, sigma=0.5, seed=9)
    f = max_spanning_forest(m, range(m.n_nodes))
    assert sorted(f.order) == list(range(9))
    g = f.without(4)
    assert sorted(g.order) == [0, 1, 2, 3, 5, 6, 7, 8]
    for c in f.children[4]:
        assert g.parent[c] is None
        assert c in g.roots
    for j in g.order:
        p = g.parent[j]
        if p is not None:
            assert g.order.index(p) < g.order.index(j)
            e = m.edges[g.edge_of[j]]
            assert {e.u, e.v} == {j, p}
    assert 4 not in g.parent and 4 not in g.children
    with pytest.raises(KeyError, match="node 4 not in forest"):
        g.without(4)


def reference_without(f, node):
    """Forest.without by comprehensions: fresh copies of every list, and
    the preorder of the sorted roots walked again."""
    parent = {j: p for j, p in f.parent.items() if j != node}
    children = {j: [c for c in cs if c != node]
                for j, cs in f.children.items() if j != node}
    edge_of = {j: e for j, e in f.edge_of.items() if j != node}
    roots = [r for r in f.roots if r != node]
    for c in f.children[node]:
        parent[c] = None
        edge_of.pop(c, None)
        roots.append(c)
    roots.sort()
    order = []
    for r in roots:
        stack = [r]
        while stack:
            j = stack.pop()
            order.append(j)
            stack.extend(sorted(children[j], reverse=True))
    return roots, parent, children, edge_of, order


@pytest.mark.parametrize("shape,seed", [((3, 3), 9), ((4, 5), 1),
                                        ((5, 5), 0), ((6, 4), 3),
                                        ((4, 4), 2), ((6, 6), 5)])
def test_forest_without_matches_the_comprehensions(shape, seed):
    m = ising_grid(*shape, sigma=0.5, seed=seed)
    full = max_spanning_forest(m, range(m.n_nodes))
    # every node of the full forest, then every node of forests cut from
    # it, whose lists are shared with the full forest's and which have
    # several roots; each forest first holds the edge rows of a max pass
    forests = [full]
    for _ in range(3):
        f = forests[-1]
        inner = [j for j in f.order if f.parent[j] is not None
                 and f.children[j]]
        forests.append(f.without(inner[len(inner) // 2]))
    assert len(forests[-1].roots) > 3
    hit = set()
    for f in forests:
        SubspaceProposal(m, {j: 0 for j in range(m.n_nodes)
                             if j not in f.parent}, f).beta("max")
        for k in f.order:
            g = f.without(k)
            roots, parent, children, edge_of, order = reference_without(f, k)
            assert g.order == order and g.roots == roots
            assert g.parent == parent and g.children == children
            assert g.edge_of == edge_of
            assert g.edge_ids == frozenset(edge_of.values())
            # the cached rows of every node that keeps its edge, shared
            assert g.rows.keys() == f.rows.keys() - {k, *f.children[k]}
            assert all(g.rows[j] is f.rows[j] for j in g.rows)
            hit.add("root" if f.parent[k] is None else
                    "inner" if f.children[k] else "leaf")
    assert hit == {"root", "inner", "leaf"}


def reference_forest(model, free):
    """The quadratic Prim scan: per component from its smallest free node,
    rescan every tree node's edges for the crossing edge of largest
    (range, -edge id), then link the chosen edges in the order chosen."""
    free = set(free)
    roots, parent, children, edge_of = [], {}, {}, {}
    for start in sorted(free):
        if start in parent:
            continue
        in_tree, chosen = {start}, []
        while True:
            best = None
            for j in in_tree:
                for eid, other in model.adjacency[j]:
                    if other in in_tree or other not in free:
                        continue
                    key = (model.phi_range_log[eid], -eid)
                    if best is None or key > best[0]:
                        best = (key, eid, j, other)
            if best is None:
                break
            _, eid, inside, outside = best
            in_tree.add(outside)
            chosen.append((eid, inside, outside))
        roots.append(start)
        parent[start] = None
        for j in in_tree:
            children[j] = []
        for eid, inside, outside in chosen:
            parent[outside] = inside
            children[inside].append(outside)
            edge_of[outside] = eid
    order = []
    for r in roots:
        stack = [r]
        while stack:
            j = stack.pop()
            order.append(j)
            stack.extend(sorted(children[j], reverse=True))
    return roots, parent, children, edge_of, order


@st.composite
def forest_cases(draw):
    """Models of 1-9 nodes with half-integer potentials, so phi ranges tie
    and zero-range edges occur, and a free subset, which may split the
    graph into several components."""
    n = draw(st.integers(1, 9))
    domains = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    halves = st.integers(-3, 3).map(lambda k: k / 2)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [(u, v, [draw(st.lists(halves, min_size=domains[v],
                                   max_size=domains[v]))
                      for _ in range(domains[u])])
             for u, v in pairs if draw(st.booleans())]
    model = PairwiseModel(domains, [np.zeros(d) for d in domains], edges)
    return model, draw(st.sets(st.integers(0, n - 1)))


def path_of_three():
    """Path 0-1-2 with equal ranges: freeing {0, 2} cuts it in two."""
    phi = [[0.0, 0.5], [0.5, 0.0]]
    return PairwiseModel([2, 2, 2], [np.zeros(2)] * 3,
                         [(0, 1, phi), (1, 2, phi)])


@settings(max_examples=300, deadline=None)
@given(forest_cases())
@example((path_of_three(), {0, 2}))
@example((rng_free_model([1.0, 1.0, 1.0]), {0, 1, 2}))
def test_max_spanning_forest_matches_the_quadratic_scan(case):
    m, free = case
    f = max_spanning_forest(m, free)
    roots, parent, children, edge_of, order = reference_forest(m, free)
    assert f.roots == roots
    assert f.parent == parent
    assert f.edge_of == edge_of
    assert f.children == children  # lists in order: messages add in it
    assert f.order == order
    assert f.edge_ids == set(edge_of.values())


def split_case():
    m = ising_grid(2, 2, 1.0, seed=3)
    return m, SubspaceProposal(m, {0: 0})


def test_child_must_keep_its_parents_values():
    # a child that changed node 0 would reuse the parent's unary rows and
    # report a log mass of 7.3417 against 7.2533 for its own subspace
    m, parent = split_case()
    with pytest.raises(ValueError, match="keep its parent's values"):
        SubspaceProposal(m, {0: 1, 1: 0}, parent.forest.without(1),
                         parent_leaf=parent)


@pytest.mark.parametrize("assigned, count", [({0: 0}, 0),
                                             ({0: 0, 1: 0, 2: 1}, 2)])
def test_child_must_add_exactly_one_node(assigned, count):
    m, parent = split_case()
    with pytest.raises(ValueError, match="exactly one node more than its "
                                         f"parent, not {count}"):
        SubspaceProposal(m, assigned, parent.forest, parent_leaf=parent)


def test_child_must_be_given_its_forest():
    m, parent = split_case()
    with pytest.raises(ValueError, match="needs its forest"):
        SubspaceProposal(m, {0: 0, 1: 1}, parent_leaf=parent)


def test_argmax_tie_takes_lexicographically_smallest():
    anti = np.log(np.array([[1.0, 2.0], [2.0, 1.0]]))
    m = PairwiseModel([2, 2], [np.zeros(2), np.zeros(2)], [(0, 1, anti)])
    # maxima tie at (0,1) and (1,0)
    config, val = SubspaceProposal(m, {}).argmax()
    assert config == (0, 1)
    assert val == pytest.approx(math.log(2.0))


def test_argmax_fully_tied_model_returns_zero_config():
    flat = np.zeros((2, 2))
    m = PairwiseModel([2, 2, 2], [np.zeros(2)] * 3,
                      [(0, 1, flat), (1, 2, flat)])
    config, val = SubspaceProposal(m, {}).argmax()
    assert config == (0, 0, 0)
    assert val == 0.0


@st.composite
def small_models(draw):
    """Small models with integer log potentials (exact ties are common)
    and a partial assignment; edges are any subset of the node pairs."""
    n = draw(st.integers(2, 6))
    domains = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    ints = st.integers(-2, 2)
    log_psi = [draw(st.lists(ints, min_size=d, max_size=d)) for d in domains]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [(u, v, [draw(st.lists(ints, min_size=domains[v],
                                   max_size=domains[v]))
                      for _ in range(domains[u])])
             for u, v in pairs if draw(st.booleans())]
    model = PairwiseModel(domains, log_psi, edges)
    assigned = {}
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        assigned[i] = draw(st.integers(0, domains[i] - 1))
    return model, assigned


def preorder_tie():
    """Tree 0-2-1, so preorder (0, 2, 1) is not node order; x1 != x2 ties
    at node 2, where the smaller value leads to the larger configuration."""
    anti = np.log(np.array([[1.0, 2.0], [2.0, 1.0]]))
    return PairwiseModel([2, 2, 2], [np.zeros(2)] * 3,
                         [(0, 2, np.zeros((2, 2))), (1, 2, anti)])


@settings(max_examples=300, deadline=None)
@given(small_models())
@example((preorder_tie(), {}))
def test_argmax_matches_clamped_search_and_enumeration(case):
    m, assigned = case
    q = SubspaceProposal(m, assigned)
    config, log_q = q.argmax()
    assert config == q._full(q._argmax_clamped())
    inside = [x for x in all_configs(m)
              if all(x[i] == v for i, v in assigned.items())]
    scores = {x: q.score(x) for x in inside}
    best = max(scores.values())
    assert config == min(x for x, s in scores.items() if s == best)
    assert log_q == best == q.max_log()


class TopRng:
    """Stub generator whose every uniform is the largest double below 1."""

    def random(self, n=None):
        u = 1 - 2.0 ** -53
        return u if n is None else np.full(n, u)


def test_sample_stays_inside_a_wide_domain():
    # with 16 values numpy's pairwise probs.sum() exceeds the cumsum's last
    # entry here, so scaling by it sent the search past the last value
    log_psi = np.random.default_rng(0).normal(size=16) * 8
    sp = SubspaceProposal(PairwiseModel([16], [log_psi], []), {})
    config, _ = sp.sample(TopRng())
    assert config == (15,)


# -- the numpy formulation that the Python-float rows equal bit for bit --

def bits(values) -> list[str]:
    return [float(x).hex() for x in np.ravel(values)]


def np_phi(m, eid, j):
    """Edge eid's potential as a numpy matrix (j's value, other value)."""
    phi = np.array(m.log_phi(eid))
    return phi if m.edges[eid].u == j else phi.T


def reference_eff(leaf, j):
    b = np.array(leaf.model.log_psi(j))
    for eid, other in leaf.model.adjacency[j]:
        if other in leaf.assigned:
            b = b + np_phi(leaf.model, eid, j)[:, leaf.assigned[other]]
    return b


def reference_pass(leaf, semiring):
    """(beta, messages, fold): numpy arrays, one reduce per block."""
    reduce = {"sum": np.logaddexp.reduce, "max": np.maximum.reduce}[semiring]
    f = leaf.forest
    beta, msg = {}, {}
    for j in reversed(f.order):
        b = reference_eff(leaf, j)
        for c in f.children[j]:
            b = b + msg[c]
        beta[j] = b
        if f.parent[j] is not None:
            msg[j] = reduce(b[:, None] + np_phi(leaf.model, f.edge_of[j], j),
                            axis=0)
    fold = reference_const(leaf)[0]
    for r in f.roots:
        fold += float(reduce(beta[r]))
    return beta, msg, fold


def reference_const(leaf):
    """(const, capped edges): the edges with both ends assigned at their
    value and the free off-forest edges at their max, in edge-id order."""
    m, a = leaf.model, leaf.assigned
    const, capped = 0.0, set()
    for i in sorted(a):
        const += np.array(m.log_psi(i))[a[i]]
    for eid, e in enumerate(m.edges):
        if e.u in a and e.v in a:
            const += np.array(m.log_phi(eid))[a[e.u], a[e.v]]
        elif e.u not in a and e.v not in a and \
                eid not in leaf.forest.edge_ids:
            const += np.array(m.log_phi(eid)).max()
            capped.add(eid)
    return float(const), capped


def reference_log_sum(m, x, capped=()):
    total = 0.0
    for i in range(m.n_nodes):
        total += np.array(m.log_psi(i))[x[i]]
    for eid, e in enumerate(m.edges):
        phi = np.array(m.log_phi(eid))
        total += phi.max() if eid in capped else phi[x[e.u], x[e.v]]
    return float(total)


def mixed_grid():
    """3x4 grid of 2- and 3-valued nodes with normal potentials."""
    rng = np.random.default_rng(11)
    domains = [2 + (i % 3 == 1) for i in range(12)]
    pairs = [(i, i + 1) for i in range(12) if i % 4 != 3] + \
        [(i, i + 4) for i in range(8)]
    return PairwiseModel(
        domains, [rng.normal(size=d) for d in domains],
        [(u, v, rng.normal(size=(domains[u], domains[v])))
         for u, v in sorted(pairs)])


@pytest.mark.parametrize("model", [ising_grid(5, 5, sigma=0.5, seed=4),
                                   mixed_grid()], ids=["ising5x5", "mixed"])
def test_rows_equal_the_numpy_pass_bit_for_bit(model):
    # full and child builds, both semirings, with the parent's passes
    # computed or not before each split, then scores with and without
    # capped edges at configurations inside each leaf
    rng = np.random.default_rng(0)
    leaves = [SubspaceProposal(model, {})]
    for step in range(12):
        leaf = leaves[int(rng.integers(len(leaves)))]
        for sr in ("sum", "max")[:step % 3]:
            leaf.beta(sr)
        k = leaf.free[int(rng.integers(len(leaf.free)))]
        forest = leaf.forest.without(k)
        leaves += [SubspaceProposal(model, {**leaf.assigned, k: v}, forest,
                                    parent_leaf=leaf)
                   for v in range(model.domains[k])]
    leaves += [SubspaceProposal(model, leaf.assigned, leaf.forest)
               for leaf in leaves]
    for leaf in leaves:
        const, capped = reference_const(leaf)
        assert leaf.const.hex() == const.hex()
        assert set(leaf.offtree_ids) == capped
        assert all(bits(leaf.eff[j]) == bits(reference_eff(leaf, j))
                   for j in leaf.free)
        for sr, fold in (("sum", leaf.mass_log), ("max", leaf.max_log)):
            beta, msg, want = reference_pass(leaf, sr)
            assert all(bits(leaf.beta(sr)[j]) == bits(beta[j])
                       for j in leaf.free)
            assert leaf._msg[sr].keys() == msg.keys()
            assert all(bits(leaf._msg[sr][j]) == bits(msg[j]) for j in msg)
            assert fold().hex() == want.hex()
        for _ in range(4):
            x = tuple(leaf.assigned.get(i, int(rng.integers(d)))
                      for i, d in enumerate(model.domains))
            assert model.log_p(x).hex() == reference_log_sum(model, x).hex()
            assert leaf.score(x).hex() == \
                reference_log_sum(model, x, capped).hex()

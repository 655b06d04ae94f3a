"""Tree-decomposition values and the constructive operations on them."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgesep import (Graph, LineView, attach_vertex, glue, line_graph,
                     partition_line_graph, product_blowup, validate_decomposition,
                     width)
from edgesep import treedecomp
from edgesep.formats import emit_decomposition
from edgesep.generators import cycle, grid, outerplanar, random_tree, star, toroidal_grid
from edgesep.treedecomp import (Decomposition, TreeDecomposition, least_common_node,
                                reduced, validate_blowup)
from reference_validators import outcome
from reference_validators import validate_decomposition as reference_validate_decomposition

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])


def singleton(clique) -> TreeDecomposition:
    """One-node decomposition whose bag is the given clique, designated."""
    d = Decomposition()
    return d.freeze(d.add(clique))


class TestValidate:
    def test_single_bag_for_triangle(self):
        ok, why = validate_decomposition(K3, singleton((0, 1, 2)))
        assert ok and why is None

    def test_missing_edge_pair(self):
        d = TreeDecomposition(bags=((0, 1), (2,)), tree_edges=((0, 1),))
        ok, why = validate_decomposition(K3, d)
        assert not ok and "edge coverage" in why

    def test_vertex_in_disconnected_bags(self):
        g = Graph(3, [(0, 1), (1, 2)])
        d = TreeDecomposition(bags=((0, 1), (1, 2), (1, 0)),
                              tree_edges=((0, 1), (1, 2)))
        # vertex 0 sits in bags 0 and 2 but not in bag 1 between them
        ok, why = validate_decomposition(g, d)
        assert not ok and "subtree connectivity" in why

    def test_empty_decomposition_of_empty_graph(self):
        ok, _ = validate_decomposition(Graph(0), TreeDecomposition((), ()))
        assert ok


class TestWidth:
    def test_single_bag_of_three(self):
        assert width(singleton((0, 1, 2))) == 2

    def test_all_singleton_bags(self):
        d = TreeDecomposition(bags=((0,), (1,)), tree_edges=((0, 1),))
        assert width(d) == 0

    def test_empty(self):
        assert width(TreeDecomposition((), ())) == -1


class TestSingleton:
    def test_clique_of_three(self):
        d = singleton((2, 0, 1))
        assert d.bags == ((0, 1, 2),) and d.designated == 0
        assert d.root_clique == (0, 1, 2) and width(d) == 2

    def test_empty_clique(self):
        assert width(singleton(())) == -1

    def test_single(self):
        assert width(singleton((7,))) == 0


def _copy_into(d: Decomposition, value: TreeDecomposition) -> int:
    """Append a decomposition value to ``d``; returns its designated node there."""
    off = len(d.bags)
    for bag in value.bags:
        d.add(bag)
    d.tree_edges += [(a + off, b + off) for a, b in value.tree_edges]
    return value.designated + off


def _glued(first, second, shared) -> TreeDecomposition:
    d = Decomposition()
    a, b = _copy_into(d, first), _copy_into(d, second)
    return d.freeze(glue(d, a, b, shared))


class TestGlue:
    def test_two_singletons_sharing_a_vertex(self):
        d = _glued(singleton((0, 1)), singleton((0, 2)), (0,))
        union = Graph(3, [(0, 1), (0, 2)])
        ok, why = validate_decomposition(union, d)
        assert ok, why
        assert width(d) == 1
        assert d.root_clique == (0,) and d.bags[d.designated] == (0,)

    def test_disjoint_glue(self):
        d = _glued(singleton((0, 1)), singleton((2, 3)), ())
        ok, why = validate_decomposition(Graph(4, [(0, 1), (2, 3)]), d)
        assert ok, why
        assert width(d) == 1

    def test_designated_missing_shared_clique(self):
        with pytest.raises(ValueError, match="shared clique"):
            _glued(singleton((0, 1)), singleton((2, 3)), (0,))


class TestAttachVertex:
    def test_width_stays_at_clique_size(self):
        d = Decomposition()
        leaf = attach_vertex(d, d.add((0, 1)), 2, (0, 1))     # host bag of width 1
        d2 = d.freeze(leaf)
        ok, why = validate_decomposition(K3, d2)
        assert ok, why
        assert width(d2) == 2 == len((0, 1))

    def test_attach_to_empty_clique(self):
        d = Decomposition()
        d = d.freeze(attach_vertex(d, d.add((0,)), 1, ()))
        ok, why = validate_decomposition(Graph(2), d)
        assert ok, why

    def test_clique_not_present(self):
        d = Decomposition()
        with pytest.raises(ValueError, match="does not contain the clique"):
            attach_vertex(d, d.add((0, 1)), 5, (3, 4))


def reference_glue(d: Decomposition, first: int, second: int, shared) -> int:
    """The set-based ``glue`` that the in-place bag test replaced, kept as its reference."""
    shared = set(shared)
    for side, node in (("first", first), ("second", second)):
        if not shared <= set(d.bags[node]):
            raise ValueError(f"glue: {side} node's bag does not contain the shared clique")
    conn = d.add(shared)
    d.tree_edges += ((conn, first), (conn, second))
    return conn


def reference_attach_vertex(d: Decomposition, host: int, v: int, clique) -> int:
    """The set-based ``attach_vertex`` that the in-place bag test replaced."""
    clique = set(clique)
    if not clique <= set(d.bags[host]):
        raise ValueError("attach_vertex: the host bag does not contain the clique")
    clique.add(v)
    leaf = d.add(clique)
    d.tree_edges.append((host, leaf))
    return leaf


# bags over 0..7 as unsorted lists, which may repeat an element
BAG_LISTS = st.lists(st.lists(st.integers(0, 7), max_size=5), min_size=1, max_size=6)


@st.composite
def cliques_at(draw, bags):
    """Ids drawn from one bag, repeats allowed, or from anywhere, with a node."""
    node = draw(st.integers(0, len(bags) - 1))
    pool = sorted(set(bags[node])) if bags[node] and draw(st.booleans()) else list(range(10))
    return node, draw(st.lists(st.sampled_from(pool), max_size=4))


def _outcome(op, bags, edges, *args):
    """What ``op`` returns and leaves in a fresh Decomposition, or the error it raises."""
    d = Decomposition()
    for bag in bags:
        d.add(bag)
    d.tree_edges += edges
    try:
        return op(d, *args), d.bags, d.tree_edges
    except ValueError as e:
        return str(e), d.bags, d.tree_edges


class TestInPlaceBagTests:
    """``glue``, ``attach_vertex`` and ``least_common_node`` copy no bag."""

    @SETTINGS
    @given(BAG_LISTS, st.data())
    def test_attach_vertex_matches_the_set_based_reference(self, bags, data):
        host, clique = data.draw(cliques_at(bags))
        v = data.draw(st.integers(0, 10))
        edges = [(0, i) for i in range(1, len(bags))]
        assert _outcome(attach_vertex, bags, edges, host, v, tuple(clique)) == \
            _outcome(reference_attach_vertex, bags, edges, host, v, tuple(clique))

    @SETTINGS
    @given(BAG_LISTS, st.data())
    def test_glue_matches_the_set_based_reference(self, bags, data):
        first, shared = data.draw(cliques_at(bags))
        second = data.draw(st.integers(0, len(bags) - 1))
        assert _outcome(glue, bags, [], first, second, iter(shared)) == \
            _outcome(reference_glue, bags, [], first, second, iter(shared))

    def test_a_repeated_clique_id_is_held_once(self):
        d = Decomposition()
        leaf = attach_vertex(d, d.add((1, 2)), 0, (2, 2, 1))
        conn = glue(d, 0, leaf, [1, 1])
        assert d.bags == [(1, 2), (0, 1, 2), (1,)] and (leaf, conn) == (1, 2)

    @SETTINGS
    @given(BAG_LISTS, st.lists(st.integers(0, 9), min_size=1, max_size=4))
    def test_least_common_node_is_the_least_bag_holding_every_member(self, bags, members):
        nodes_of: dict = {}
        for i, bag in enumerate(bags):
            for x in bag:
                nodes_of.setdefault(x, []).append(i)
        want = next((i for i, bag in enumerate(bags) if set(members) <= set(bag)), None)
        assert least_common_node(nodes_of.get(x, ()) for x in members) == want
        assert least_common_node(nodes_of.get(x, ()) for x in set(members)) == want


class TestProductBlowup:
    def test_two_parts_merge_sizes(self):
        d = singleton((0, 1))
        blown = product_blowup(d, [(0, 1, 2), (3, 4)])
        assert blown.bags == ((0, 1, 2, 3, 4),)
        assert width(blown) == 4

    def test_singleton_parts_keep_width(self):
        d = _glued(singleton((0, 1)), singleton((1, 2)), (1,))
        blown = product_blowup(d, [(10,), (11,), (12,)])
        assert width(blown) == width(d)

    def test_grid_pipeline_blowup_validates_on_line_graph(self):
        g = grid(3, 3)
        res = partition_line_graph(g, 5)
        blown = product_blowup(res.partition.decomp, res.partition.parts)
        lg = line_graph(g)
        ok, why = validate_decomposition(lg, blown)
        assert ok, why


@st.composite
def clique_chains(draw):
    """Small random decompositions built from the constructive ops only."""
    base = draw(st.integers(2, 4))
    d = Decomposition()
    top = d.add(range(base))
    edges = {(i, j) for i in range(base) for j in range(i + 1, base)}
    n = base
    for _ in range(draw(st.integers(0, 4))):
        host = draw(st.integers(0, len(d.bags) - 1))
        bag = d.bags[host]
        k = draw(st.integers(1, len(bag)))
        clique = bag[:k]
        edges.update((min(v, n), max(v, n)) for v in clique)
        top = attach_vertex(d, host, n, clique)
        n += 1
    return Graph(n, sorted(edges)), d.freeze(top)


class TestPreservation:
    @SETTINGS
    @given(clique_chains())
    def test_attach_preserves_validity(self, pair):
        g, d = pair
        ok, why = validate_decomposition(g, d)
        assert ok, why

    @SETTINGS
    @given(clique_chains(), clique_chains())
    def test_glue_respects_width_bound(self, p1, p2):
        g1, d1 = p1
        _, d2 = p2
        shared = ()
        merged = _glued(d1, d2, shared)
        assert width(merged) == max(width(d1), width(d2), len(shared) - 1)

    @SETTINGS
    @given(clique_chains(), st.data())
    def test_breaking_mutations_flip_the_verdict(self, pair, data):
        g, d = pair
        assert validate_decomposition(g, d)[0]
        choice = data.draw(st.sampled_from(["drop-element", "rewire"]))
        if choice == "drop-element":
            # deleting a vertex's only bag occurrence must break coverage
            occurrences = {}
            for i, bag in enumerate(d.bags):
                for v in bag:
                    occurrences.setdefault(v, []).append(i)
            singles = sorted(v for v, occ in occurrences.items() if len(occ) == 1)
            victim = data.draw(st.sampled_from(singles))
            idx = occurrences[victim][0]
            bags = list(d.bags)
            bags[idx] = tuple(v for v in bags[idx] if v != victim)
            mutated = TreeDecomposition(tuple(bags), d.tree_edges)
        else:
            if not d.tree_edges:
                return
            # re-wiring a tree edge onto itself must break the tree shape
            i = data.draw(st.integers(0, len(d.tree_edges) - 1))
            edges = list(d.tree_edges)
            a, _ = edges[i]
            edges[i] = (a, a)
            mutated = TreeDecomposition(d.bags, tuple(edges))
        assert not validate_decomposition(g, mutated)[0]


@st.composite
def line_decompositions(draw):
    """A graph and a blown-up decomposition of its line graph, maybe corrupted.

    The valid blow-up comes from the pipeline.  A corruption drops one
    element of one bag, which can uncover a line edge or split the element's
    subtree, or adds one element to one bag, which can split its subtree.
    """
    n = draw(st.integers(3, 9))
    tree = random_tree(n, draw(st.integers(0, 99)))
    extra = draw(st.lists(st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)]),
                          unique=True, max_size=4))
    g = Graph(n, set(tree.edges) | set(extra))
    res = partition_line_graph(g, 5)
    assume(not hasattr(res, "branch_sets"))
    d = product_blowup(res.partition.decomp, res.partition.parts)
    bags = [list(b) for b in d.bags]
    kind = draw(st.sampled_from(["valid", "drop", "add"]))
    node = draw(st.integers(0, len(bags) - 1))
    if kind == "drop" and bags[node]:
        bags[node].remove(draw(st.sampled_from(bags[node])))
    elif kind == "add":
        bags[node] = sorted(set(bags[node]) | {draw(st.integers(0, g.m - 1))})
    return g, TreeDecomposition(bags=tuple(tuple(b) for b in bags), tree_edges=d.tree_edges)


class TestLineGraphValidation:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(line_decompositions())
    def test_view_verdict_matches_the_line_graph(self, inst):
        g, d = inst
        assert validate_decomposition(LineView(g), d) == validate_decomposition(line_graph(g), d)

    def test_first_uncovered_line_edge_is_named(self):
        # L(P_4) is the path 0 - 1 - 2; bags {0,1} and {2} miss the edge (1,2)
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        d = TreeDecomposition(bags=((0, 1), (2,)), tree_edges=((0, 1),))
        assert validate_decomposition(LineView(g), d) == \
            (False, "edge coverage: edge (1,2) in no bag")


def first_disconnected_element(d: TreeDecomposition):
    """The per-element BFS that the top count replaced, kept as its oracle.

    Returns the first element, in order of first bag occurrence, whose
    nodes do not induce a connected subtree, or None.
    """
    nbrs = [[] for _ in range(d.n_nodes)]
    for a, b in d.tree_edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    nodes_of: dict = {}
    for i, bag in enumerate(d.bags):
        for v in bag:
            nodes_of.setdefault(v, []).append(i)
    for v, nodes in nodes_of.items():
        node_set = set(nodes)
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            x = stack.pop()
            for y in nbrs[x]:
                if y in node_set and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != node_set:
            return v
    return None


@st.composite
def subtree_instances(draw):
    """A random tree of bags over n elements, valid or with split subtrees.

    Tree edges come in random order and orientation, so the BFS parents the
    validator uses differ from the drawn ones.  The graph has no edges and
    every element lies in some bag, so only subtree connectivity can fail.
    A bag may repeat an element, as a parsed artifact can.
    """
    k = draw(st.integers(1, 9))
    n = draw(st.integers(1, 6))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, k)]
    edges = [(b, a) if draw(st.booleans()) else (a, b)
             for a, b in draw(st.permutations(edges))]
    bags = [draw(st.lists(st.integers(0, n - 1), max_size=n)) for _ in range(k)]
    for v in range(n):
        if not any(v in bag for bag in bags):
            bags[draw(st.integers(0, k - 1))].append(v)
    if draw(st.booleans()):         # make it valid: each element on one path
        bags = [[] for _ in range(k)]
        for v in range(n):
            a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            for node in _tree_path(edges, k, a, b):
                bags[node].append(v)
    return Graph(n), TreeDecomposition(bags=tuple(tuple(sorted(b)) for b in bags),
                                       tree_edges=tuple(edges))


def _tree_path(edges, k, a, b):
    nbrs = [[] for _ in range(k)]
    for x, y in edges:
        nbrs[x].append(y)
        nbrs[y].append(x)
    parent = {a: None}
    order = [a]
    for x in order:
        for y in nbrs[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path


class TestSubtreeConnectivity:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(subtree_instances())
    def test_top_count_matches_the_bfs(self, inst):
        g, d = inst
        v = first_disconnected_element(d)
        want = (True, None) if v is None else \
            (False, f"subtree connectivity: vertex {v} spans a disconnected node set")
        assert validate_decomposition(g, d) == want

    @SETTINGS
    @given(line_decompositions())
    def test_top_count_matches_the_bfs_on_pipeline_blowups(self, inst):
        g, d = inst
        ok, why = validate_decomposition(LineView(g), d)
        if ok or why.startswith("subtree"):
            v = first_disconnected_element(d)
            assert (ok, why) == ((True, None) if v is None else (
                False, f"subtree connectivity: vertex {v} spans a disconnected node set"))


@st.composite
def loose_decompositions(draw):
    """Any small graph with any small bags on a tree, a near-tree or a forest.

    Elements may fall outside the graph or repeat in a bag, and a designated
    node and root clique may be set, so every clause of the validator can
    be the first one violated.
    """
    n = draw(st.integers(0, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))
              if pairs else ())
    k = draw(st.integers(0, 7))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, k)]
    if k and draw(st.integers(0, 4)) == 0:
        edges = draw(st.lists(st.tuples(st.integers(-1, k), st.integers(-1, k)), max_size=k))
    bags = [draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else [] for _ in range(k)]
    if k and draw(st.booleans()):               # cover every vertex
        for v in range(n):
            if not any(v in bag for bag in bags):
                bags[draw(st.integers(0, k - 1))].append(v)
    if k and draw(st.integers(0, 5)) == 0:      # an element outside the graph
        bags[draw(st.integers(0, k - 1))].append(draw(st.sampled_from([-1, n])))
    bags = [tuple(sorted(bag)) for bag in bags]
    designated = draw(st.none() | st.integers(-1, k))
    root = draw(st.none() | st.lists(st.integers(0, max(n - 1, 0)), max_size=3).map(tuple))
    return g, TreeDecomposition(bags=tuple(bags), tree_edges=tuple(edges),
                                designated=designated, root_clique=root)


def _mutated_tree_or_bag(data, d: TreeDecomposition, n: int) -> TreeDecomposition:
    """``d`` as is, or with one tree edge broken or repeated, or one bag given
    an element out of range or one that is not an int.

    A float passes ``0 <= v < n``, and the reference then files it under its
    own key, where a flat list cannot, so only values no comparison admits
    are drawn.
    """
    k = d.n_nodes
    edges, bags = [list(e) for e in d.tree_edges], [list(b) for b in d.bags]
    kind = data.draw(st.sampled_from(["none", "break", "repeat", "out-of-range", "non-int"]))
    if kind in ("break", "repeat") and edges:
        i = data.draw(st.integers(0, len(edges) - 1))
        a, b = edges[i]
        if kind == "break":
            edges[i] = data.draw(st.sampled_from([[a, a], [a, k], [-1, b], [a, (b + 1) % k]]))
        else:
            edges.append(data.draw(st.sampled_from([[a, b], [b, a]])))
    elif kind in ("out-of-range", "non-int") and bags:
        odd = st.sampled_from([-1, n] if kind == "out-of-range" else [None, "x"])
        bags[data.draw(st.integers(0, k - 1))].append(data.draw(odd))
    if data.draw(st.booleans()):        # lists, as ``verify`` decodes them
        return d._replace(bags=bags, tree_edges=edges)
    return d._replace(bags=tuple(map(tuple, bags)), tree_edges=tuple(map(tuple, edges)))


class TestSetFreeValidation:
    """``validate_decomposition`` reads node lists, with the verdicts of the set copies."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(loose_decompositions())
    def test_any_decomposition_gets_the_reference_verdict(self, inst):
        g, d = inst
        assert validate_decomposition(g, d) == reference_validate_decomposition(g, d)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(line_decompositions(), st.data())
    def test_a_line_decomposition_gets_the_reference_verdict(self, inst, data):
        g, d = inst
        d = _mutated_tree_or_bag(data, d, g.m)
        for target in (LineView(g), line_graph(g)):
            assert outcome(validate_decomposition, target, d) == \
                outcome(reference_validate_decomposition, target, d)

    @SETTINGS
    @given(subtree_instances())
    def test_split_subtrees_get_the_reference_verdict(self, inst):
        g, d = inst
        assert validate_decomposition(g, d) == reference_validate_decomposition(g, d)

    @SETTINGS
    @given(clique_chains(), st.data())
    def test_a_designated_bag_gets_the_reference_verdict(self, pair, data):
        g, d = pair
        node = data.draw(st.integers(-1, d.n_nodes))
        root = data.draw(st.lists(st.integers(0, g.n - 1), max_size=3).map(tuple))
        d = d._replace(designated=node, root_clique=root)
        assert validate_decomposition(g, d) == reference_validate_decomposition(g, d)


@st.composite
def factored_instances(draw):
    """A graph and H's decomposition and parts as the pipeline returns them,
    or with one mutation: an edge moved to another part, a part removed
    from every bag, a tree edge dropped or repeated, or a part id out of
    range put in a bag."""
    family = draw(st.sampled_from(["tree", "outerplanar", "grid", "cycle", "star", "toroidal"]))
    n = draw(st.integers(3, 24))
    g = {"tree": lambda: random_tree(n, draw(st.integers(0, 99))),
         "outerplanar": lambda: outerplanar(n, draw(st.integers(0, 99))),
         "grid": lambda: grid(draw(st.integers(1, 5)), draw(st.integers(2, 6))),
         "cycle": lambda: cycle(n),
         "star": lambda: star(n),
         "toroidal": lambda: toroidal_grid(3, draw(st.integers(3, 5)))}[family]()
    res = partition_line_graph(g, draw(st.integers(4, 6)))
    assume(not hasattr(res, "branch_sets"))         # certificates have no blow-up
    d, parts = res.partition.decomp, list(res.partition.parts)
    bags, edges = list(d.bags), list(d.tree_edges)
    kind = draw(st.sampled_from(["none", "move", "unplace", "drop-edge", "repeat-edge",
                                 "out-of-range"]))
    if kind == "move" and len(parts) > 1:
        i, j = draw(st.permutations(range(len(parts))))[:2]
        e = draw(st.sampled_from(parts[i]))
        parts[i] = tuple(x for x in parts[i] if x != e)
        parts[j] = tuple(sorted(parts[j] + (e,)))
    elif kind == "unplace":
        pid = draw(st.integers(0, len(parts) - 1))
        bags = [tuple(x for x in bag if x != pid) for bag in bags]
    elif kind == "drop-edge" and edges:
        del edges[draw(st.integers(0, len(edges) - 1))]
    elif kind == "repeat-edge" and edges:
        a, b = draw(st.sampled_from(edges))
        edges.append(draw(st.sampled_from([(a, b), (b, a)])))
    elif kind == "out-of-range":
        node = draw(st.integers(0, len(bags) - 1))
        bags[node] = tuple(sorted(bags[node] + (draw(st.sampled_from([-1, len(parts)])),)))
    d = d._replace(bags=tuple(bags), tree_edges=tuple(edges))
    return g, d, tuple(parts), kind


class TestFactoredBlowup:
    """``validate_blowup`` and ``emit_decomposition(d, m, parts)`` read (D_H,
    parts), with the verdict, width and text of the blow-up itself."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(factored_instances())
    def test_the_factored_check_gets_the_blowups_verdict_width_and_text(self, inst):
        g, d, parts, kind = inst

        def blown_verdict():
            blowup = product_blowup(d, parts)
            return (*validate_decomposition(LineView(g), blowup), width(blowup))

        assert outcome(validate_blowup, g, d, parts) == outcome(blown_verdict)
        assert outcome(emit_decomposition, d, g.m, parts) == \
            outcome(lambda: emit_decomposition(product_blowup(d, parts), g.m))
        if kind == "none":          # the pipeline's own results need no blow-up
            assert treedecomp._factored_width(g, d, parts) is not None


@st.composite
def nested_decompositions(draw):
    """A valid decomposition with nested and empty bags on a random tree.

    Each element lies on the path between two drawn nodes, and the graph
    joins every two elements that share a bag.  Tree edges come in random
    order and orientation; the designated node's bag is its root clique.
    """
    k = draw(st.integers(1, 10))
    n = draw(st.integers(0, 6))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, k)]
    edges = [(b, a) if draw(st.booleans()) else (a, b)
             for a, b in draw(st.permutations(edges))]
    bags = [set() for _ in range(k)]
    for v in range(n):
        a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        for node in _tree_path(edges, k, a, b):
            bags[node].add(v)
    bags = tuple(tuple(sorted(b)) for b in bags)
    g = Graph(n, sorted({(u, v) for bag in bags for i, u in enumerate(bag) for v in bag[i + 1:]}))
    designated = draw(st.none() | st.integers(0, k - 1))
    return g, TreeDecomposition(bags=bags, tree_edges=tuple(edges), designated=designated,
                                root_clique=None if designated is None else bags[designated])


def _nested_edge(d: TreeDecomposition):
    """A tree edge of ``d`` whose one bag lies inside the other, or None."""
    for a, b in d.tree_edges:
        x, y = set(d.bags[a]), set(d.bags[b])
        if x <= y or y <= x:
            return a, b
    return None


class TestReduced:
    """``reduced`` contracts each bag that lies inside a neighbour's."""

    def test_a_bag_inside_both_neighbours_joins_the_first_one_met(self):
        d = TreeDecomposition(bags=((0, 1), (1,), (1, 2)), tree_edges=((0, 1), (1, 2)),
                              designated=1, root_clique=(1,))
        assert reduced(d) == TreeDecomposition(bags=((0, 1), (1, 2)), tree_edges=((0, 1),),
                                               designated=0, root_clique=(1,))

    @pytest.mark.parametrize("bags, edges, want", [
        # the BFS meets the smaller id first, then the larger one
        (((0, 1), (5,), (0, 1)), ((2, 1), (0, 2)), ((0, 1), (5,))),
        # the BFS meets the larger id first; the smaller one takes its place
        (((5,), (0, 1), (6,), (0, 1)), ((0, 3), (3, 1), (1, 2)), ((5,), (0, 1), (6,))),
    ])
    def test_equal_bags_keep_the_smaller_id(self, bags, edges, want):
        r = reduced(TreeDecomposition(bags=bags, tree_edges=edges, designated=len(bags) - 1))
        assert r.bags == want
        assert r.bags[r.designated] == bags[-1]

    def test_a_chain_of_growing_bags_is_one_node(self):
        d = TreeDecomposition(bags=((), (0,), (0, 1), (0, 1, 2)),
                              tree_edges=((0, 1), (1, 2), (2, 3)), designated=0)
        assert reduced(d) == TreeDecomposition(bags=((0, 1, 2),), tree_edges=(), designated=0)

    def test_the_empty_and_one_node_decompositions_stay(self):
        for d in (TreeDecomposition((), ()), singleton((0, 2))):
            assert reduced(d) == d

    @pytest.mark.parametrize("edges", [((0, 1),), ((0, 1), (1, 2), (0, 2)), ((0, 1), (0, 1))])
    def test_a_forest_or_a_cycle_is_refused(self, edges):
        d = TreeDecomposition(bags=((0,),) * 3, tree_edges=edges)
        with pytest.raises(ValueError, match="not a tree"):
            reduced(d)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(nested_decompositions())
    def test_a_valid_decomposition_stays_valid_keeps_its_width_and_is_reduced(self, inst):
        g, d = inst
        r = reduced(d)
        assert validate_decomposition(g, r) == (True, None)
        assert _nested_edge(r) is None
        assert width(r) == width(d)
        assert r.n_nodes <= max(1, g.n)
        kept = iter(d.bags)             # survivors are bags of d, in id order
        assert all(any(bag == b for b in kept) for bag in r.bags)
        if d.designated is not None:
            assert set(d.bags[d.designated]) <= set(r.bags[r.designated])
        assert reduced(r) == r

"""Code the package no longer carries, kept as the tests' references.

* linear algebra: ``Subspace``, the canonical-residue view of reduced
  rows, with ``rref``, the matrix sum and the subspace basis, membership
  and dimension that only the tests read, and ``solve``, one solution of
  a linear system;
* the matrix model's zero class, and its classes as it keyed them: the
  residue modulo the maps through the projective, with the stable basis
  that residue chose;
* the matrix model's dense route: one reduced span per pair, whose
  residues gave a class's coordinates, the tables of keys built from
  matrix products, and the matrices ``_post`` and ``_pre`` of a table;
  the canonical covers and inclusions of Jordan blocks as matrices, the
  action of t as a matrix, the syzygy of a module checked on the
  dense kernel of its projective cover, the syzygy of a class lifted
  through the projective covers by a dense solve, and the almost split
  sequences checked by dense solves on the radical maps built by
  definition (t . End(m) on the endomorphisms);
* the matrix model's echelon route for the radical: the stable classes
  of the radical basis maps, Rad^k(X, m) as
  echelon rows eliminated per module and level, and the classes killed
  by every radical class into their source, or by every radical class
  out of their target, as the kernels of the composites' rows;
* layer tables: a table built from a ``{k: {vertex: multiplicity}}``
  mapping, the per-vertex knitting push on any shape, and the TSV and
  JSON writers that read a table's ``layers`` mapping;
* the center request: ``support_report`` and ``support_payload`` as they
  read the window one vertex at a time and labelled each distinct vertex
  through one ``Vertex``-keyed dict.
"""

import operator
from collections import Counter
from operator import itemgetter

from meshknit import center, jordan, mesh
from meshknit.errors import (
    DimensionError,
    FieldMismatchError,
    InternalCheckError,
    PreconditionError,
    UnsupportedParameterError,
)
from meshknit.linalg import Matrix, _clear, _echelon, _kernel, _mix, _residue, rank
from meshknit.quiver import TUBE
from meshknit.serialize import SCHEMA_VERSION, config_line

# -- linear algebra ---------------------------------------------------------------


class Subspace:
    """A subspace of F^n maintained in reduced row echelon form.

    ``insert`` adds a spanning vector and ``residue`` returns the canonical
    representative of a vector modulo the subspace; it lies in the
    subspace when the residue is zero.  Because the stored rows are
    mutually reduced, the residue is a canonical form: congruent vectors
    reduce identically.
    """

    def __init__(self, field, ambient_dim):
        self.field = field
        self.ambient_dim = ambient_dim
        # pivot column -> row, 1 at its pivot and 0 at the other pivots (see ``_clear``)
        self._rows = {}

    def residue(self, vec):
        v = self.field.coerce_row(vec)
        if len(v) != self.ambient_dim:
            raise DimensionError(f"vector length {len(v)} != ambient dim {self.ambient_dim}")
        # each row is 1 at its pivot, so this subtracts v[pivot] * row for every pivot
        return tuple(_residue(self.field.char, self._rows.items(), v))

    def insert(self, vec) -> bool:
        """Add a vector to the spanning set; True if the rank grew."""
        v = self.residue(vec)
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        _clear(self.field.char, self._rows, pivot, v)
        return True

    def extend(self, vecs) -> int:
        """Insert each vector; the number that raised the rank."""
        return sum(map(self.insert, vecs))


def rref(m):
    """Reduced row echelon form and the pivot columns."""
    space = Subspace(m.field, m.cols)
    space.extend(m.data)
    return Matrix._of(m.field, tuple(subspace_basis(space)), m.cols), tuple(sorted(space._rows))


def matrix_sum(a, b):
    """a + b, refusing mixed fields and shapes."""
    if a.field != b.field:
        raise FieldMismatchError(f"cannot add over {a.field} and {b.field}")
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionError(f"shape mismatch: ({a.rows}x{a.cols}) + ({b.rows}x{b.cols})")
    p = a.field.char
    pairs = zip(a.data, b.data)
    if p:
        out = tuple(tuple((x + y) % p for x, y in zip(r1, r2)) for r1, r2 in pairs)
    else:
        out = tuple(tuple(map(operator.add, r1, r2)) for r1, r2 in pairs)
    return Matrix._of(a.field, out, a.cols)


def subspace_basis(space) -> list[tuple]:
    """The reduced rows of a Subspace, ordered by pivot column."""
    return [space._rows[c] for c in sorted(space._rows)]


def span_contains(space, vec) -> bool:
    return not any(space.residue(vec))


def span_dim(space) -> int:
    return len(space._rows)


def solve(m, b):
    """One solution of m x = b, or None when inconsistent.

    The particular solution is canonical: free coordinates are zero.  It is the
    kernel vector of (m | -b) for its last column, when that column is free; the
    kernel vectors, in free-column order, are all 0 there when it is a pivot.
    """
    if len(b) != m.rows:
        raise DimensionError(f"rhs length {len(b)} != row count {m.rows}")
    f = m.field
    aug = [row + (f.coerce(-bi),) for row, bi in zip(m.data, f.coerce_row(b))]
    kernel = _kernel(f.char, m.cols + 1, aug)
    if not (kernel and kernel[-1][-1]):
        return None
    return kernel[-1][:-1]


def zero_map(ctx, x, y):
    """The zero class x -> y of the matrix model's context."""
    return ctx.classify(x, y, Matrix.zeros(ctx.field, y.dim, x.dim))


_proj_spans = {}


def proj_span(ctx, x, y):
    """Flattened span of the maps x -> y that factor through the projective."""
    key = (ctx.field, x, y)
    if key not in _proj_spans:
        space = _proj_spans[key] = Subspace(ctx.field, x.dim * y.dim)
        p = ctx.projective
        space.extend(g.mul(f).flatten() for f in ctx.hom_basis(x, p) for g in ctx.hom_basis(p, y))
    return _proj_spans[key]


def stable_residue(ctx, x, y, matrix):
    """The canonical residue of a map x -> y modulo ``proj_span``: two maps are stably
    equal exactly when their residues are equal tuples."""
    return proj_span(ctx, x, y).residue(matrix.flatten())


def stable_maps(ctx, x, y):
    """The ``hom_basis`` maps whose residues are independent of the residues before them."""
    span = Subspace(ctx.field, x.dim * y.dim)
    return [b for b in ctx.hom_basis(x, y) if span.insert(stable_residue(ctx, x, y, b))]


_reduced_spans = {}


def reduced(ctx, x, y):
    """(span, maps) as the matrix model built them: ``maps``, the stable basis, are the
    ``hom_basis`` maps independent of the maps through the projective and of those before
    them; ``span`` is the reduced span of the flattened maps through the projective, with
    zero tails, and of the k-th of ``maps`` with minus the k-th unit tail (tails
    ``len(hom_basis)`` long).  A map x -> y with coordinates a on ``maps`` reduces to
    (0, a, 0)."""
    key = (ctx.field, x, y)
    if key not in _reduced_spans:
        p, basis = ctx.projective, ctx.hom_basis(x, y)
        width, units = x.dim * y.dim, Matrix.identity(ctx.field, len(basis)).scale(-1).data
        zero = (ctx.field.zero,) * len(basis)
        space = Subspace(ctx.field, width + len(basis))
        products = (g.mul(f) for f in ctx.hom_basis(x, p) for g in ctx.hom_basis(p, y))
        space.extend(g.flatten() + zero for g in products)
        maps = []
        for b in basis:
            v = space.residue(b.flatten() + units[len(maps)])
            if any(v[:width]):  # else b is stably a combination of the maps before it
                space.insert(v)
                maps.append(b)
        _reduced_spans[key] = space, maps
    return _reduced_spans[key]


def dense_key(ctx, x, y, matrix):
    """A matrix's coordinates on the dense stable basis, read off its residue."""
    space, maps = reduced(ctx, x, y)
    width = x.dim * y.dim
    v = space.residue(matrix.flatten() + (ctx.field.zero,) * (space.ambient_dim - width))
    if any(v[:width]):
        raise PreconditionError(f"matrix does not commute with t: not a map {x} -> {y}")
    return v[width : width + len(maps)]


def dense_table(ctx, x, u, y):
    """Entry [i][j]: the key of the i-th dense stable map u -> y after the j-th x -> u."""
    return [[dense_key(ctx, x, y, b.mul(a)) for a in reduced(ctx, x, u)[1]] for b in reduced(ctx, u, y)[1]]


def dense_post(table):
    """Matrices M_j: M_j times the coordinates of c are those of c . b_j."""
    return [list(zip(*column)) for column in zip(*table)]


def dense_pre(table):
    """Matrices M_i: M_i times the coordinates of f are those of b_i . f."""
    return [list(zip(*row)) for row in table]


def proj_matrix(field, i, j):
    """The canonical surjection J_i ->> J_j (j <= i) as a dense matrix: kill the top powers."""
    return Matrix(field, [[1 if a == c else 0 for c in range(i)] for a in range(j)])


def incl_matrix(field, i, j):
    """The canonical embedding J_i -> J_j (i <= j) as a dense matrix: multiply by t^(j-i)."""
    return Matrix(field, [[1 if a == c + (j - i) else 0 for c in range(i)] for a in range(j)])


def dense_omega_map(ctx, f):
    """``omega_map`` as the matrix model lifted it: solve for the lift of f through the
    projective covers on ``hom_basis(J_n, J_n)`` (the solver's canonical particular
    solution), move the source's cover kernel along it, check that it lands in the
    target's cover kernel, and classify the restriction."""
    n, i, j = ctx.n, f.source.block, f.target.block
    src_omega, tgt_omega = ctx.omega_object(f.source), ctx.omega_object(f.target)
    pi_i, pi_j = proj_matrix(ctx.field, n, i), proj_matrix(ctx.field, n, j)
    lift_basis = ctx.hom_basis(ctx.projective, ctx.projective)
    lifts = Matrix(ctx.field, list(zip(*(pi_j.mul(b).flatten() for b in lift_basis))))
    coeffs = solve(lifts, f.matrix.mul(pi_i).flatten())
    if coeffs is None:
        raise InternalCheckError("projective lift does not exist", witness=f)
    lift = _mix(ctx.field.char, coeffs, [b.flatten() for b in lift_basis])
    lift = Matrix._of(ctx.field, tuple(lift[r * n : (r + 1) * n] for r in range(n)), n)
    moved = lift.mul(incl_matrix(ctx.field, n - i, n))
    if any(moved.data[r][c] for r in range(j) for c in range(n - i)):
        raise InternalCheckError("lift does not preserve cover kernels", witness=f)
    restricted = Matrix(ctx.field, [row[: n - i] for row in moved.data[j:]])
    return ctx.classify(src_omega, tgt_omega, restricted)


def t_matrix(field, x):
    """The action of t on x: the shift down each Jordan block."""
    d = x.dim
    rows = [[0] * d for _ in range(d)]
    offset = 0
    for b in x.blocks:
        for a in range(b - 1):
            rows[offset + a + 1][offset + a] = 1
        offset += b
    return Matrix(field, rows)


def dense_omega_object(ctx, x):
    """``omega_object`` as the matrix model checked it: the kernel basis of the dense
    projective cover J_n ->> J_i must be the columns of the inclusion kappa: J_{n-i} -> J_n,
    and kappa must carry the action of t on J_{n-i} to that on J_n."""
    n, i = ctx.n, x.block
    if i == n:
        raise PreconditionError(f"{x} is projective; omega is undefined")
    pi = proj_matrix(ctx.field, n, i)
    kernel = _kernel(ctx.field.char, pi.cols, pi.data)
    if len(kernel) != n - i:
        raise InternalCheckError(f"projective cover of J{i} has kernel of dim {len(kernel)}", witness=x)
    kappa = incl_matrix(ctx.field, n - i, n)
    if kernel != list(zip(*kappa.data)):
        raise InternalCheckError(f"unexpected kernel basis for cover of J{i}", witness=x)
    omega = jordan.indec(n, n - i)
    if t_matrix(ctx.field, ctx.projective).mul(kappa) != kappa.mul(t_matrix(ctx.field, omega)):
        raise InternalCheckError(f"kernel of cover of J{i} does not carry the J{n - i} action", witness=x)
    return omega


def rad_module_basis(ctx, u, m):
    """Maps spanning the non-isomorphisms u -> m of indecomposables, by definition: every
    map when u and m differ, and t . End(m), the radical of the local ring End(m), when they
    are equal."""
    if u != m:
        return ctx.hom_basis(u, m)
    return [t_matrix(ctx.field, m).mul(b) for b in ctx.hom_basis(m, m)]


def dense_ar_sequence(m, field):
    """``ar_sequence`` as the matrix model checked it: non-splitness and the lifting
    property solved as dense systems on the products ``right . b``."""
    ctx = jordan.context(m.n, field)
    i, n, f = m.block, ctx.n, ctx.field
    if i == n:
        raise PreconditionError(f"{m} is projective; no almost split sequence")
    middle = jordan.JordanModule(tuple(b for b in (i + 1, i - 1) if 1 <= b <= n), n)
    left_parts, right_parts = [], []
    for b in middle.blocks:
        if b == i + 1:
            left_parts.append(incl_matrix(ctx.field, i, b))
            right_parts.append(proj_matrix(ctx.field, b, i).scale(-1))
        else:
            left_parts.append(proj_matrix(ctx.field, i, b))
            right_parts.append(incl_matrix(ctx.field, b, i))
    left = Matrix(f, [row for part in left_parts for row in part.data])
    right = Matrix(f, [sum(rows, ()) for rows in zip(*(part.data for part in right_parts))])
    checks = {
        "composite_zero": right.mul(left) == Matrix.zeros(f, i, i),
        "left_injective": rank(left) == i,
        "right_surjective": rank(right) == i,
        "exact_at_middle": rank(left) + rank(right) == middle.dim,
    }

    def through_right(u_mod):
        return Matrix(f, list(zip(*(right.mul(b).flatten() for b in ctx.hom_basis(u_mod, middle)))))

    checks["non_split"] = solve(through_right(m), Matrix.identity(f, i).flatten()) is None
    checks["lifting"] = all(
        solve(columns, u.flatten()) is not None
        for u_mod in ctx.indecomposables(include_projective=True)
        for columns in [through_right(u_mod)]
        for u in rad_module_basis(ctx, u_mod, m)
    )
    stable = jordan.JordanModule(tuple(b for b in middle.blocks if b != n), n)
    return jordan.ARSequence(m, middle, stable, i + 1 == n, left, right, ctx.av_class(m), checks)


def rad_stable_basis(ctx, x, y):
    """Spanning classes of the non-isomorphisms x -> y of indecomposables: the
    ``stable_basis(x, y)`` classes of the basis maps in ``_radical(x, y)``, every class for
    x != y and every class but the identity's for x = y."""
    radical = ctx._radical_positions(x, y)
    return [b for s, b in enumerate(ctx.stable_basis(x, y)) if s in radical]


def row_basis(p, rows):
    """Echelon rows spanning the rows: a vector is killed by these exactly when by those."""
    return tuple(row for _, row in _echelon(p, rows))


def echelon_radical_layers(m, k_max, field):
    """``radical_layers_bruteforce`` as it held Rad^k(X, m): echelon rows of coordinates on
    ``stable_basis(X, m)``, each level eliminated per module from the combinations of the
    composites b . g, b in ``stable_basis(Z, m)`` and g in ``rad_stable_basis(X, Z)``, with
    the rows of Rad^(k-1)(Z, m)."""
    ctx = jordan.context(m.n, field)
    p, zero, indecs = ctx.field.char, ctx.field.zero, ctx.indecomposables()
    through = {
        (x, z): [jordan._composites(zero, pre, g.key) for g in rad_stable_basis(ctx, x, z)]
        for x in indecs
        for z in indecs
        for pre in [ctx._pre(x, z, m)]
    }
    spans = {x: Matrix.identity(ctx.field, ctx.stable_dim(x, m)).data for x in indecs}
    dims = [{x: len(spans[x]) for x in indecs}]
    for _ in range(k_max + 1):
        spans = {
            x: row_basis(p, (_mix(p, h, b_g) for z in indecs for b_g in through[x, z] for h in spans[z]))
            for x in indecs
        }
        dims.append({x: len(spans[x]) for x in indecs})
    rows = [
        (k, indecs[0].vertex(), (1,), [level[x] - below[x] for x in indecs])
        for k, (level, below) in enumerate(zip(dims, dims[1:]))
    ]
    return mesh.LayerTable(m.vertex(), rows, k_max, k_max)


def radical_rows(ctx, x, y):
    """Rows that kill the key of a class f: x -> y exactly when f . g = 0 for every g in
    ``rad_stable_basis(u, x)``, u running over the indecomposables ("epis"), and exactly when
    h . f = 0 for every h in ``rad_stable_basis(y, u)`` ("monos"), in echelon form."""
    p, zero, indecs = ctx.field.char, ctx.field.zero, ctx.indecomposables()
    epis = (
        jordan._composites(zero, pre, g.key)
        for u in indecs
        for pre in [ctx._pre(u, x, y)]
        for g in rad_stable_basis(ctx, u, x)
    )
    monos = (
        jordan._composites(zero, post, h.key)
        for u in indecs
        for post in [ctx._post(x, y, u)]
        for h in rad_stable_basis(ctx, y, u)
    )
    return {name: row_basis(p, jordan._transposed(blocks)) for name, blocks in (("epis", epis), ("monos", monos))}


def echelon_killed_by_radical(ctx, x, y):
    """``killed_by_radical`` as the kernel of the "epis" ``radical_rows``."""
    return _kernel(ctx.field.char, ctx.stable_dim(x, y), radical_rows(ctx, x, y)["epis"])


# -- layer tables -----------------------------------------------------------------


def table_from_layers(target, layers, k_max, valid_through):
    """A LayerTable holding ``layers``: one row per entry, a row of no entry per empty layer."""
    rows = []
    for k, row in layers.items():
        if not row:
            rows.append((k, target, (0,) * len(target.coords), []))
        for v, mult in row.items():
            # a dihedral-like step, so some hand-made tables reach the writers' grid path
            step = (2, -2) if len(v.coords) == 2 else (1,) * len(v.coords)
            rows.append((k, v, step, [mult]))
    return mesh.LayerTable(target, rows, k_max, valid_through)


def knit_push(q, m, k_max, window):
    """``knit_layers`` as it pushed the tube and ZA-infinity mesh by mesh, on any shape."""
    if k_max < 0:
        raise UnsupportedParameterError(f"k_max must be >= 0, got {k_max}")
    q.validate(m)
    win = mesh._Window(q, window, k_max + 2)
    win.check_base(m)
    rows = {0: {m: 1}}
    for k in range(1, k_max + 1):
        acc = Counter()
        for v, mult in rows[k - 1].items():
            for w in q._mesh(v).middles:
                acc[w] += mult
        for v, mult in rows.get(k - 2, {}).items():
            acc[q._mesh(v).start] -= mult
        row = {win.check(x): mult for x, mult in acc.items() if mult}
        if any(mult < 0 for mult in row.values()):
            return table_from_layers(m, rows, k_max, k - 1)
        rows[k] = row
    return table_from_layers(m, rows, k_max, k_max)


def labels(vertices):
    """``str(v)`` of each vertex, from one test of the components (the writers' old labeller)."""
    components = set(map(itemgetter(0), vertices))
    fmt = "J%s" if components == {TUBE} else None if TUBE in components else "%s,%s"
    if fmt:
        try:
            return {v: fmt % v[1] for v in vertices}
        except TypeError:  # a coordinate tuple of another length
            pass
    return {v: str(v) for v in vertices}


def layer_table_payload(table, config):
    """The JSON writer as it read ``table.layers``."""
    names = labels([v for row in table.layers.values() for v in row])
    layers = [
        {"k": k, "row": {names[v]: mult for v, mult in table.layers.get(k, {}).items()}}
        for k in range(table.valid_through + 1)
    ]
    return {
        "schema": SCHEMA_VERSION,
        "kind": "layer-table",
        "config": dict(config),
        "target": str(table.target),
        "k_max": table.k_max,
        "valid_through": table.valid_through,
        "truncated": table.truncated,
        "layers": layers,
    }


def layer_table_tsv(table, config):
    """The TSV writer as it read ``table.layers``, one dict entry per vertex."""
    lines = [
        f"# schema: {SCHEMA_VERSION}",
        f"# config: {config_line(config)}",
        f"# target: {table.target}",
        f"# k_max: {table.k_max}",
        f"# valid_through: {table.valid_through}",
    ]
    if table.truncated:
        lines.append("# truncated: true")
    columns = table.valid_through + 1
    lines.append("\t".join(["vertex", *map(str, range(columns))]))
    zeros = "\t0" * columns
    cells = [v for row in table.layers.values() for v in row]
    text = labels(cells)
    if len(text) == len(cells):  # each vertex in one layer
        for k, row in table.layers.items():
            head, tail = zeros[: 2 * k], zeros[2 * k + 2 :]
            for v, mult in row.items():
                text[v] = f"{text[v]}{head}\t{mult}{tail}" if 0 <= k < columns else text[v] + zeros
    else:  # fill each line layer by layer, counting the layers it holds
        filled = dict.fromkeys(text, 0)
        for k in range(columns):
            for v, mult in table.layers.get(k, {}).items():
                text[v] = f"{text[v]}{zeros[: 2 * (k - filled[v])]}\t{mult}"
                filled[v] = k + 1
        for v, count in filled.items():
            text[v] += zeros[2 * count :]
    order = sorted(text, key=itemgetter(1))
    order.sort(key=itemgetter(0))
    lines += map(text.__getitem__, order)
    lines.append("")
    return "\n".join(lines)


# -- the center request -------------------------------------------------------------


def support_report(e, window):
    """``center.support_report`` as it read the supports one window vertex at a time."""
    per_vertex = {v: e._image_supports([v])[0] for v in e.quiver.window(window)}
    return center.SupportReport(
        element_kind=e.kind,
        degree=e.degree,
        window=window,
        element_support=[v for v, factors in per_vertex.items() if factors],
        per_vertex_hom_support=per_vertex,
        finite_flags=dict.fromkeys(per_vertex, True),
    )


def support_payload(support, propagation, config):
    """``serialize.support_payload`` as it labelled each distinct vertex through one dict."""
    per_vertex = support.per_vertex_hom_support
    vertices = [*per_vertex, *support.finite_flags, *support.element_support]
    label = labels(list(dict.fromkeys(vertices + [w for ws in per_vertex.values() for w in ws])))
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": support.element_kind,
        "config": dict(config),
        "degree": support.degree,
        "window": support.window,
        "support": [label[v] for v in sorted(support.element_support)],
        "per_vertex": {label[v]: [label[w] for w in ws] for v, ws in per_vertex.items()},
        "finite_flags": {label[v]: flag for v, flag in support.finite_flags.items()},
    }
    if propagation is not None:
        payload["hypotheses"] = dict(propagation.hypotheses)
        payload["support_min_two"] = propagation.support_min_two
        payload["applicable"] = propagation.applicable
        payload["conclusion"] = propagation.conclusion
        payload["notes"] = list(propagation.notes)
    return payload

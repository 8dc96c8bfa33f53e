"""Graded-center elements on quiver components: supports and theorem checks.

An element of degree r assigns to each vertex u a morphism class
u -> sigma_pow(u, -r); elements here are modeled by their image-functor
layer tables rather than by raw morphisms, which keeps the bookkeeping
exactly where the support arguments live (composition factors).  Three
kinds are provided:

* single-orbit elements: the almost-vanishing class on one shift orbit,
  zero elsewhere; image tables are single simple factors.
* diamond elements (the mu construction): supported everywhere on the
  dihedral family, with image tables given by diamond cokernels.
* sums with pairwise disjoint supports (the zero element is the empty
  sum).

Cross-component compositions are zero by model assignment; the
factorization criterion behind that rule is nevertheless verified on
the mesh side (no image-table factor survives beyond the diamond grid).

Degree bookkeeping is strict: the codomain forced by the degree must be
the Serre image on the supported orbit, otherwise construction fails
with :class:`~meshknit.errors.DegreeError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import compress

from .errors import (
    DegreeError,
    InvalidVertexError,
    PreconditionError,
    QuiverKindError,
    UnsupportedParameterError,
)
from .mesh import LayerTable, diamond_cokernel, rim_obstruction_check
from .quiver import Arrow, DihedralFamily, TranslationQuiver, Vertex, ZAInf, new_vertex


def _empty_table(v: Vertex) -> LayerTable:
    return LayerTable(target=v, rows=[], k_max=0, valid_through=0)


class GradedCenterElement:
    """Base: a degree, a quiver, and image tables per vertex."""

    kind: str
    quiver: TranslationQuiver
    degree: int

    def supports(self, v: Vertex) -> bool:
        raise NotImplementedError

    def image_table(self, v: Vertex) -> LayerTable:
        raise NotImplementedError

    def image_support(self, v: Vertex) -> list[Vertex]:
        """The vertices of the image table at v, sorted."""
        return self._image_supports([self.quiver.validate(v)])[0]

    def _image_supports(self, vertices: list[Vertex]) -> list[list[Vertex]]:
        """:meth:`image_support` at each of the valid vertices."""
        return [sorted(self.image_table(v).multiplicities()) for v in vertices]


class SingleOrbitElement(GradedCenterElement):
    """Almost-vanishing classes along one shift orbit, zero elsewhere.

    ``scalars`` records the chosen nonzero multiple per windowed orbit
    vertex; the image table is scalar independent (the image of a
    nonzero multiple is the same simple functor).
    """

    kind = "single-orbit"

    def __init__(
        self,
        quiver: TranslationQuiver,
        base: Vertex,
        degree: int,
        scalars: dict[Vertex, int],
    ):
        self.quiver = quiver
        self.base = base
        self.degree = degree
        self.scalars = dict(scalars)

    def orbit_contains(self, v: Vertex) -> bool:
        q = self.quiver
        try:
            q.validate(v)
        except InvalidVertexError:
            return False
        return q.shift_orbit(v) == q.shift_orbit(self.base)

    def supports(self, v: Vertex) -> bool:
        return self.orbit_contains(v)

    def image_table(self, v: Vertex) -> LayerTable:
        q = self.quiver
        if q.shift_orbit(q.validate(v)) == q.shift_orbit(self.base):
            return LayerTable(v, [(0, v, (0,) * len(v.coords), [1])], k_max=0, valid_through=0)
        return _empty_table(v)


class DiamondElement(GradedCenterElement):
    """The mu-type element on the dihedral family: degree 2n-1 Diamond(n).

    The image table at m is the diamond cokernel anchored at m, built at m
    on a window that just holds the far corner m + (2n, 2n); the cokernel's
    cost does not depend on the window.  Its entries depend on coordinates
    relative to m only (across components too), so the supports are one
    sorted list of offsets, read once at (0, 0) and added to each vertex: a
    translation keeps the order of the vertices it moves.
    """

    kind = "diamond"

    def __init__(self, quiver: DihedralFamily, n: int):
        if not isinstance(quiver, DihedralFamily):
            raise QuiverKindError(
                f"diamond elements live on the dihedral family, got {quiver.kind}"
            )
        if n < 1:
            raise UnsupportedParameterError(f"n must be >= 1, got {n}")
        self.quiver = quiver
        self.n = n
        self.degree = 2 * n - 1
        self._support_offsets: list[tuple[int, int]] | None = None

    def supports(self, v: Vertex) -> bool:
        self.quiver.validate(v)
        return True

    def image_table(self, v: Vertex) -> LayerTable:
        i, j = self.quiver.validate(v).coords
        # the window holds the far corner (i + 2n, j + 2n)
        return diamond_cokernel(self.quiver, v, self.n, max(abs(i), abs(j)) // 2 + self.n + 1)

    def _image_supports(self, vertices: list[Vertex]) -> list[list[Vertex]]:
        offsets = self._support_offsets
        if offsets is None:  # the sorted support at (0, 0); window n + 1 holds its corner (2n, 2n)
            table = diamond_cokernel(self.quiver, self.quiver.vertex(0, 0), self.n, self.n + 1)
            offsets = self._support_offsets = [w.coords for w in table.multiplicities()]
        # every support in one list, cut per vertex
        flat = [new_vertex((c, (i + di, j + dj))) for c, (i, j) in vertices for di, dj in offsets]
        return [flat[at : at + len(offsets)] for at in range(0, len(flat), len(offsets))]


class SumElement(GradedCenterElement):
    """Sum of elements with pairwise disjoint supports (possibly empty)."""

    kind = "sum"

    def __init__(self, quiver: TranslationQuiver, degree: int, parts: tuple):
        self.quiver = quiver
        self.degree = degree
        self.parts = parts

    def supports(self, v: Vertex) -> bool:
        return any(p.supports(v) for p in self.parts)

    def image_table(self, v: Vertex) -> LayerTable:
        self.quiver.validate(v)
        for p in self.parts:
            if p.supports(v):
                return p.image_table(v)
        return _empty_table(v)


def single_orbit_element(
    q: TranslationQuiver,
    v: Vertex,
    degree: int,
    window: int = 4,
    scalars: dict[Vertex, int] | None = None,
) -> SingleOrbitElement:
    """Element supported on the shift orbit of v, with degree checking.

    The class at each orbit vertex u targets sigma_pow(u, -degree); that
    vertex must be the Serre image of u, since a single-object value is
    forced to be almost vanishing.  Additionally no orbit member may be
    an arrow neighbor of another (otherwise naturality across the
    connecting mesh is not automatic); this is checked on the window.
    The degree rule is checked at v too, whose orbit may miss the window.
    """
    q.validate(v)
    key = q.shift_orbit(v)
    orbit = [u for u in q.window(window) if q.shift_orbit(u) == key]

    for u in (*orbit, v):
        target = q._sigma_pow(u, -degree)
        serre = q._sigma_pow(q._tau(u, 1), 1)
        if target != serre:
            raise DegreeError(
                f"degree {degree} forces codomain {target} at {u}, but the "
                f"almost-vanishing codomain is the Serre image {serre}"
            )

    element = SingleOrbitElement(q, v, degree, {})
    for u in orbit:
        neighbors = [a.target for a in q.arrows_out(u)] + [a.source for a in q.arrows_in(u)]
        for w in neighbors:
            if q.shift_orbit(w) == key:
                raise PreconditionError(f"orbit member {w} is an arrow neighbor of {u}")

    if scalars is None:
        scalars = {u: 1 for u in orbit}
    else:
        for u, c in scalars.items():
            if not element.orbit_contains(u):
                raise PreconditionError(f"scalar given at non-orbit vertex {u}")
            if c == 0:
                raise PreconditionError(f"zero scalar at {u}")
    element.scalars = dict(scalars)
    return element


def mu_element(q: DihedralFamily, n: int) -> DiamondElement:
    """Diamond(n) element of degree 2n-1 on the dihedral family."""
    return DiamondElement(q, n)


def sum_elements(
    elements: list[GradedCenterElement],
    quiver: TranslationQuiver | None = None,
    window: int = 4,
) -> SumElement:
    """Sum with pairwise disjoint supports; the empty sum is zero.

    Disjointness is required because the sum's image table at a vertex
    is read off the unique supporting part.  Overlap is detected
    intensionally for orbit pairs and on the window otherwise.
    """
    parts: list[GradedCenterElement] = []
    for e in elements:
        if isinstance(e, SumElement):
            parts.extend(e.parts)
        else:
            parts.append(e)
    if not parts:
        if quiver is None:
            raise PreconditionError("the empty sum needs an explicit quiver")
        return SumElement(quiver, 0, ())
    q = parts[0].quiver
    if quiver is not None and quiver is not q:
        raise PreconditionError("quiver argument disagrees with the parts")
    degree = parts[0].degree
    for e in parts[1:]:
        if e.quiver is not q:
            raise PreconditionError("summands live on different quivers")
        if e.degree != degree:
            raise PreconditionError(
                f"summands have mixed degrees {degree} and {e.degree}"
            )
    for a_idx in range(len(parts)):
        for b_idx in range(a_idx + 1, len(parts)):
            a, b = parts[a_idx], parts[b_idx]
            if isinstance(a, SingleOrbitElement) and isinstance(b, SingleOrbitElement):
                overlap = a.orbit_contains(b.base)
            else:
                overlap = any(
                    a.supports(v) and b.supports(v) for v in q.window(window)
                )
            if overlap:
                raise PreconditionError("summand supports overlap")
    return SumElement(q, degree, tuple(parts))


@dataclass
class SupportReport:
    """Per-vertex image-functor supports of an element on a window."""

    element_kind: str
    degree: int
    window: int
    element_support: list[Vertex]
    per_vertex_hom_support: dict[Vertex, list[Vertex]]
    finite_flags: dict[Vertex, bool]


def support_report(e: GradedCenterElement, window: int) -> SupportReport:
    """Read supports off the image tables over the window.

    A vertex is in the element support exactly when its image table is
    nonempty; ``_image_supports`` reads the window's in one call, and a
    diamond element shifts one list of offsets.  Tables here are finite
    mappings by construction, so the finiteness flags record a verified
    (if unexciting) hypothesis.
    """
    vertices = e.quiver.window(window)
    supports = e._image_supports(vertices)
    return SupportReport(
        element_kind=e.kind,
        degree=e.degree,
        window=window,
        element_support=list(compress(vertices, supports)),
        per_vertex_hom_support=dict(zip(vertices, supports)),
        finite_flags=dict.fromkeys(vertices, True),
    )


@dataclass
class PropagationReport:
    """Hypotheses and conclusion of the support-propagation theorem.

    The fourth hypothesis splits: ``hom_support_finite`` (per-vertex
    supports finite) is reported with the numbered hypotheses, while the
    existential size requirement lives in ``support_min_two``; the
    theorem needs both, recorded in ``applicable``.  The conclusion
    (support covers every windowed vertex of the touched components) is
    evaluated unconditionally since elements may satisfy it without the
    theorem forcing them to.  ``support`` is the report they were read from.
    """

    quiver_kind: str
    element_kind: str
    degree: int
    window: int
    hypotheses: dict[str, bool]
    support_min_two: bool
    applicable: bool
    conclusion: bool
    hom_support_sizes: dict[Vertex, int]
    support: SupportReport
    notes: list[str] = dataclass_field(default_factory=list)

    @property
    def hypotheses_hold(self) -> bool:
        return all(self.hypotheses.values())


def check_propagation(
    q: TranslationQuiver, e: GradedCenterElement, window: int
) -> PropagationReport:
    """Evaluate the propagation theorem's hypotheses and conclusion.

    Hypotheses, each checked on every window vertex:

    1. the shift power of the Calabi-Yau degree acts as the Serre image;
    2. the shift power of (degree - cy_degree) stays in the tau orbit;
    3. every mesh has at most two middle terms;
    4. per-vertex hom supports are finite (see ``support_min_two`` for
       the companion size requirement).
    """
    if e.quiver is not q:
        raise PreconditionError("element does not live on the given quiver")
    notes: list[str] = []
    rep = support_report(e, window)
    # the report's window, built once: valid vertices, so the hypotheses call the hooks
    vertices = rep.per_vertex_hom_support

    taus = [q._tau(v, 1) for v in vertices]
    try:
        hyp_cy = all(
            q._sigma_pow(v, q.cy_degree) == q._sigma_pow(tv, 1) for v, tv in zip(vertices, taus)
        )
    except QuiverKindError:
        # Odd shift powers are not representable here; verify the squared
        # identity instead, which is what the component can express.
        hyp_cy = all(q._sigma_pow(v, 2 * q.cy_degree) == tv for v, tv in zip(vertices, taus))
        notes.append(
            "calabi_yau checked at even shift powers only (odd powers leave the component)"
        )

    shift_exp = e.degree - q.cy_degree
    try:
        hyp_orbit = all(
            q.tau_orbit(v) == q.tau_orbit(q._sigma_pow(v, shift_exp)) for v in vertices
        )
    except QuiverKindError:
        hyp_orbit = False
        notes.append(
            f"shift power {shift_exp} not representable on this component"
        )

    # the middles of the mesh ending at v are the targets of the arrows out of tau(v)
    hyp_mesh = all(len(q._arrows(tv)) <= 2 for tv in taus)

    sizes = {v: len(ws) for v, ws in rep.per_vertex_hom_support.items()}
    hyp_finite = all(rep.finite_flags.values())
    min_two = any(size >= 2 for size in sizes.values())

    support_set = set(rep.element_support)
    touched = {v.component for v in support_set}
    conclusion = bool(support_set) and all(
        v in support_set for v in vertices if v.component in touched
    )

    hypotheses = {
        "calabi_yau": hyp_cy,
        "shift_preserves_tau_orbits": hyp_orbit,
        "meshes_at_most_two_middles": hyp_mesh,
        "hom_support_finite": hyp_finite,
    }
    applicable = all(hypotheses.values()) and min_two
    if not min_two:
        notes.append(
            "per-vertex hom supports all have size < 2; the propagation "
            "theorem is not applicable to this element"
        )
    if isinstance(q, ZAInf):
        notes.append(
            "on the ZA-infinity component the rim obstruction rules out "
            "applicable elements; see a_inf_obstruction"
        )
    return PropagationReport(
        quiver_kind=q.kind,
        element_kind=e.kind,
        degree=e.degree,
        window=window,
        hypotheses=hypotheses,
        support_min_two=min_two,
        applicable=applicable,
        conclusion=conclusion,
        hom_support_sizes=sizes,
        support=rep,
        notes=notes,
    )


@dataclass
class ObstructionReport:
    """Rim-composite vanishing sweep on the ZA-infinity component."""

    degree: int
    window: int
    rim_positions: list[int]
    failures: list[int]
    small_window: bool

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok


def a_inf_obstruction(q: ZAInf, r: int, window: int) -> ObstructionReport:
    """Certify that no propagating element of degree r exists on ZA-infinity.

    The blocking fact is degree independent: at every rim vertex the
    double-step composite through the unique mesh middle is zero in the
    mesh category, so the factorization the propagation argument needs
    dies on the rim.  Each rim position in the window is checked by an
    honest reduction.
    """
    if not isinstance(q, ZAInf):
        raise QuiverKindError(f"a_inf_obstruction needs a ZA-infinity quiver, got {q.kind}")
    if window < 1:
        raise UnsupportedParameterError(f"window must be >= 1, got {window}")
    positions = list(range(-window, window))
    failures = [
        pos
        for pos in positions
        if not rim_obstruction_check(q, q.vertex(1, pos), window)
    ]
    return ObstructionReport(
        degree=r,
        window=window,
        rim_positions=positions,
        failures=failures,
        small_window=window < 2,
    )


def cross_component_vanishing(
    e: GradedCenterElement, f_source: Vertex, f_target: Vertex
) -> bool:
    """Composition of e's value with a cross-component class is zero.

    The model assigns zero to all cross-component compositions; for
    diamond elements the criterion licensing that assignment is
    verified on the mesh side: no image-table factor at the target
    survives beyond the diamond grid, so every class from outside it
    (cross-component classes included) factors through the two diamond
    edge maps and dies in the cokernel.
    """
    q = e.quiver
    q.validate(f_source)
    q.validate(f_target)
    if f_source.component == f_target.component:
        raise PreconditionError(
            f"{f_source} and {f_target} lie in the same component"
        )
    if isinstance(e, DiamondElement):
        (i, j), limit = f_target.coords, 2 * e.n - 2
        support = e.image_support(f_target)
        return all(0 <= a - i <= limit and 0 <= b - j <= limit for _, (a, b) in support)
    return True


def factor_distance_ok(e: DiamondElement, m: Vertex) -> bool:
    """Every image-table factor sits at path distance <= 2n from m."""
    if not isinstance(e, DiamondElement):
        raise PreconditionError("factor distance bound applies to diamond elements")
    distances = [e.quiver.distance(w, m) for w in e.image_support(m)]
    return all(d is not None and d <= 2 * e.n for d in distances)


def naturality_on_arrow(e: GradedCenterElement, arrow: Arrow) -> bool:
    """Factor survival along an irreducible map, on the dihedral family.

    For an arrow u -> v, the factors of the image table at v that can
    reach u at all must be exactly the factors the two tables share:
    composing with the arrow keeps precisely the part of the image
    visible from both ends.  (On this family a nonzero class w -> u
    exists exactly when a directed path does.)
    """
    q = e.quiver
    if not isinstance(q, DihedralFamily):
        raise QuiverKindError("the arrow-naturality identity is modeled on the dihedral family")
    u, v = arrow.source, arrow.target
    if q.arrow_between(u, v) is None:
        raise PreconditionError(f"no arrow {u} -> {v}")
    supp_u = set(e.image_support(u))
    supp_v = set(e.image_support(v))
    reachable = {w for w in supp_v if q.distance(w, u) is not None}
    return reachable == (supp_u & supp_v)

"""Stable translation quivers with explicit finite windows.

Three concrete shapes are provided, all represented intensionally: the
infinite quivers never materialize, and every enumeration goes through
an explicit window radius.

* ``build_tube(n)``: the stable Auslander-Reiten quiver of k[t]/(t^n),
  vertices J_1..J_{n-1}, with the translate fixing every vertex.
* ``build_za_inf(radius)``: the ZA-infinity quiver, levels >= 1 with the
  rim at level 1, translate moving (level, pos) to (level, pos+1).
* ``build_dihedral_family(radius)``: two parity copies of a
  ZA-infinity-infinity component.  Vertices carry coordinates (i, j)
  with i = j (mod 2); ``gamma`` arrows lower the second coordinate by 2
  and ``gamma_prime`` arrows lower the first.  The syzygy-like shift
  adds (1, 1) and swaps parity components, so degree bookkeeping that
  crosses components stays representable.

Each shape supplies private hooks on valid vertices: ``_arrows(v)``,
the ``(label, target)`` pairs of the arrows out of v in label order;
``_tau(v, k)`` and ``_sigma_pow(v, r)``, powers of the translate and of
the inverse shift; ``_distance(u, m)``; and ``_in_window(v, radius)``.
A hook validates nothing, and every vertex it builds is valid.
:class:`TranslationQuiver` defines ``tau``, ``tau_inv``, ``sigma``,
``sigma_pow``, ``serre``, ``distance``, ``in_window``, ``mesh``,
``arrows_out`` and ``arrows_in`` once: each validates its vertex
arguments (raising :class:`~meshknit.errors.InvalidVertexError`) and
then calls the hooks.  Code past a validated entry point calls the
hooks too, so each vertex is checked once, where it enters.  The mesh
derivation rests on the quivers being stable translation quivers: the
mesh ending at v starts at tau(v), and its middles are exactly the
targets of the arrows out of tau(v), which are also exactly the sources
of the arrows into v.

Each shape alone also knows its vertex syntax, ``parse(text)``, its
orbits (valid vertices share ``tau_orbit(v)`` or ``shift_orbit(v)``
exactly when they share a tau- or a sigma-orbit) and ``window(radius)``.
The Calabi-Yau degree is -1 for all three shapes: ``sigma(tau(v))`` is
the Serre image of ``v``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    InvalidVertexError,
    QuiverKindError,
    UnsupportedParameterError,
)

TUBE = "tube"
DIHEDRAL_EVEN = "dihedral-even"
DIHEDRAL_ODD = "dihedral-odd"
ZA_INF = "za-inf"


class Vertex(NamedTuple):
    """A quiver vertex: component id plus integer coordinates."""

    component: str
    coords: tuple[int, ...]

    def __str__(self) -> str:
        coords = self.coords
        if self.component == TUBE:
            return f"J{coords[0]}"
        if len(coords) == 2:  # every dihedral and ZA-infinity vertex
            return f"{coords[0]},{coords[1]}"
        return ",".join(map(str, coords))


class Arrow(NamedTuple):
    source: Vertex
    target: Vertex
    label: str

    def __str__(self) -> str:
        return f"{self.source} -[{self.label}]-> {self.target}"


class Mesh(NamedTuple):
    """The configuration start -> middles -> end with start = tau(end)."""

    start: Vertex
    middles: tuple[Vertex, ...]
    end: Vertex


class TranslationQuiver:
    """Common behavior of the three stable translation quiver shapes."""

    kind: str
    cy_degree: int = -1
    # True when all paths between any fixed vertex pair share one length.
    grade_forced: bool = True

    def __init__(self):
        # arrows_out and mesh results per vertex, so that paths share Arrow objects
        self._arrows_out: dict[Vertex, tuple[Arrow, ...]] = {}
        self._meshes: dict[Vertex, Mesh] = {}

    # -- soul of the shape; subclasses implement these ------------------
    def validate(self, v: Vertex) -> Vertex:
        raise NotImplementedError

    def _arrows(self, v: Vertex) -> tuple[tuple[str, Vertex], ...]:
        """(label, target) of each arrow out of the valid vertex v, by label."""
        raise NotImplementedError

    def _tau(self, v: Vertex, k: int) -> Vertex:
        """tau^k of the valid vertex v."""
        raise NotImplementedError

    def _sigma_pow(self, v: Vertex, r: int) -> Vertex:
        """sigma^r of the valid vertex v."""
        raise NotImplementedError

    def _distance(self, u: Vertex, m: Vertex) -> int | None:
        """:meth:`distance` between valid vertices."""
        raise NotImplementedError

    def _in_window(self, v: Vertex, radius: int) -> bool:
        """:meth:`in_window` for the valid vertex v."""
        raise NotImplementedError

    def parse(self, text: str) -> Vertex:
        """The valid vertex that ``text`` names in this shape's vertex syntax."""
        raise NotImplementedError

    def tau_orbit(self, v: Vertex):
        """Key of the tau-orbit of the valid vertex v."""
        raise NotImplementedError

    def shift_orbit(self, v: Vertex):
        """Key of the shift (sigma) orbit of the valid vertex v."""
        raise NotImplementedError

    def window(self, radius: int) -> list[Vertex]:
        """All vertices of the finite working window, sorted."""
        raise NotImplementedError

    # -- public: validate the arguments, then call the hooks -------------
    def tau(self, v: Vertex) -> Vertex:
        return self._tau(self.validate(v), 1)

    def tau_inv(self, v: Vertex) -> Vertex:
        return self._tau(self.validate(v), -1)

    def sigma(self, v: Vertex) -> Vertex:
        return self._sigma_pow(self.validate(v), 1)

    def sigma_pow(self, v: Vertex, r: int) -> Vertex:
        return self._sigma_pow(self.validate(v), r)

    def serre(self, v: Vertex) -> Vertex:
        """Serre image sigma(tau(v)); the codomain of almost-vanishing classes."""
        return self.sigma(self.tau(v))

    def in_window(self, v: Vertex, radius: int) -> bool:
        return self._in_window(self.validate(v), radius)

    def distance(self, u: Vertex, m: Vertex) -> int | None:
        """Length of the shortest directed path u -> m, or None if none exists.

        On the dihedral and ZA-infinity shapes all directed paths between
        a fixed pair share one length, so this is the forced grade there.
        """
        return self._distance(self.validate(u), self.validate(m))

    def mesh(self, v: Vertex) -> Mesh:
        """The mesh ending at v.  Middles are the targets of arrows out of tau(v)."""
        return self._meshes.get(v) or self._mesh(self.validate(v))

    def _mesh(self, v: Vertex) -> Mesh:
        """:meth:`mesh` of the valid vertex v, cached per vertex."""
        got = self._meshes.get(v)
        if got is None:
            start = self._tau(v, 1)
            got = self._meshes[v] = Mesh(start, tuple(sorted(t for _, t in self._arrows(start))), v)
        return got

    def arrows_out(self, v: Vertex) -> tuple[Arrow, ...]:
        """Arrows out of v in label order; one shared tuple per vertex."""
        got = self._arrows_out.get(v)
        if got is None:
            got = tuple(Arrow(v, t, label) for label, t in self._arrows(self.validate(v)))
            self._arrows_out[v] = got
        return got

    def arrows_in(self, v: Vertex) -> tuple[Arrow, ...]:
        """Arrows into v, one from each middle of the mesh ending at v."""
        return tuple(
            a for w in self.mesh(v).middles for a in self.arrows_out(w) if a.target == v
        )

    def arrow_between(self, s: Vertex, t: Vertex) -> Arrow | None:
        for a in self.arrows_out(s):
            if a.target == t:
                return a
        return None


class Tube(TranslationQuiver):
    """Stable AR quiver of k[t]/(t^n): vertices J_1..J_{n-1}, tau = id."""

    kind = "tube"
    # J_i -> J_{i+1} -> J_i and the identity path have different lengths.
    grade_forced = False

    def __init__(self, n: int):
        if n < 3:
            raise UnsupportedParameterError(
                f"tube requires n >= 3 (n={n} leaves no mesh with a middle term)"
            )
        super().__init__()
        self.n = n

    def vertex(self, i: int) -> Vertex:
        return self.validate(Vertex(TUBE, (i,)))

    def validate(self, v: Vertex) -> Vertex:
        if v.component != TUBE or len(v.coords) != 1:
            raise InvalidVertexError(f"not a tube vertex: {v}")
        i = v.coords[0]
        if not 1 <= i <= self.n - 1:
            raise InvalidVertexError(
                f"tube index out of range: {v} (valid: J1..J{self.n - 1})"
            )
        return v

    def _tau(self, v: Vertex, k: int) -> Vertex:
        return v

    def parse(self, text: str) -> Vertex:
        text = text.strip()
        if not text.startswith("J"):
            raise InvalidVertexError(f"tube vertices look like J<i>, got {text!r}")
        try:
            i = int(text[1:])
        except ValueError:
            raise InvalidVertexError(f"bad tube vertex {text!r}") from None
        return self.vertex(i)

    def tau_orbit(self, v: Vertex) -> Vertex:
        return v

    def shift_orbit(self, v: Vertex) -> int:
        # sigma swaps J_i and J_{n-i}
        return min(v.coords[0], self.n - v.coords[0])

    def _sigma_pow(self, v: Vertex, r: int) -> Vertex:
        return v if r % 2 == 0 else Vertex(TUBE, (self.n - v.coords[0],))

    def _arrows(self, v: Vertex) -> tuple[tuple[str, Vertex], ...]:
        i = v.coords[0]
        arrows = ()
        if i > 1:
            arrows += (("down", Vertex(TUBE, (i - 1,))),)
        if i < self.n - 1:
            arrows += (("up", Vertex(TUBE, (i + 1,))),)
        return arrows

    def window(self, radius: int) -> list[Vertex]:
        # The tube is already finite; the radius is irrelevant.
        return [Vertex(TUBE, (i,)) for i in range(1, self.n)]

    def _in_window(self, v: Vertex, radius: int) -> bool:
        return True

    def _distance(self, u: Vertex, m: Vertex) -> int | None:
        return abs(u.coords[0] - m.coords[0])

    def __repr__(self) -> str:
        return f"Tube(n={self.n})"


class DihedralFamily(TranslationQuiver):
    """Two parity components of a ZA-infinity-infinity translation quiver.

    Vertex (i, j) requires i = j (mod 2); even coordinates form one
    component, odd the other.  tau adds (2, 2), sigma subtracts (1, 1)
    (landing in the opposite component), and every mesh has exactly two
    middle terms, so sigma_pow(v, -2) = tau(v).
    """

    kind = "dihedral"

    def __init__(self, window_radius: int):
        if window_radius < 1:
            raise UnsupportedParameterError("window_radius must be >= 1")
        super().__init__()
        self.window_radius = window_radius

    @staticmethod
    def _component(i: int, j: int) -> str:
        return DIHEDRAL_EVEN if i % 2 == 0 else DIHEDRAL_ODD

    def vertex(self, i: int, j: int) -> Vertex:
        if (i - j) % 2 != 0:
            raise InvalidVertexError(
                f"coordinate parity violation: ({i},{j}) needs i = j (mod 2)"
            )
        return Vertex(self._component(i, j), (i, j))

    def validate(self, v: Vertex) -> Vertex:
        if v.component not in (DIHEDRAL_EVEN, DIHEDRAL_ODD) or len(v.coords) != 2:
            raise InvalidVertexError(f"not a dihedral-family vertex: {v}")
        i, j = v.coords
        if (i - j) % 2 != 0:
            raise InvalidVertexError(f"coordinate parity violation: {v}")
        if self._component(i, j) != v.component:
            raise InvalidVertexError(f"component tag does not match parity: {v}")
        return v

    def _shift(self, v: Vertex, di: int, dj: int) -> Vertex:
        i, j = v.coords  # di = dj (mod 2)
        return Vertex(self._component(i + di, j + dj), (i + di, j + dj))

    def _tau(self, v: Vertex, k: int) -> Vertex:
        i, j = v.coords
        return Vertex(v.component, (i + 2 * k, j + 2 * k))

    def parse(self, text: str) -> Vertex:
        text = text.strip()
        head, sep, suffix = text.partition(":")
        coords = head.split(",")
        if len(coords) != 2:
            raise InvalidVertexError(f"dihedral vertices look like <i>,<j>, got {text!r}")
        try:
            i, j = (int(c) for c in coords)
        except ValueError:
            raise InvalidVertexError(f"bad dihedral vertex {text!r}") from None
        v = self.vertex(i, j)
        if sep:
            if suffix not in ("odd", "even"):
                raise InvalidVertexError(f"unknown parity tag {suffix!r}")
            if (suffix == "odd") != (v.component == DIHEDRAL_ODD):
                raise InvalidVertexError(
                    f"parity tag {suffix!r} contradicts coordinates {head}"
                )
        return v

    def tau_orbit(self, v: Vertex) -> tuple[str, int]:
        return v.component, v.coords[0] - v.coords[1]

    def shift_orbit(self, v: Vertex) -> int:
        # sigma subtracts (1, 1) and crosses components, so the key has none
        return v.coords[0] - v.coords[1]

    def _sigma_pow(self, v: Vertex, r: int) -> Vertex:
        return self._shift(v, -r, -r)

    def tensor_translate(self, v: Vertex, offset: tuple[int, int]) -> Vertex:
        """Relabel v by coordinate addition (the tensor rule for labels)."""
        self.validate(v)
        s, t = offset
        if (s - t) % 2 != 0:
            raise InvalidVertexError(
                f"translation offset must preserve parity, got {offset}"
            )
        return self._shift(v, s, t)

    def _arrows(self, v: Vertex) -> tuple[tuple[str, Vertex], ...]:
        c, (i, j) = v
        return (("gamma", Vertex(c, (i, j - 2))), ("gamma_prime", Vertex(c, (i - 2, j))))

    def window(self, radius: int) -> list[Vertex]:
        bound = 2 * radius
        return sorted(
            Vertex(self._component(i, i), (i, j))
            for i in range(-bound, bound + 1)
            for j in range(-bound + i % 2, bound + 1, 2)
        )

    def _in_window(self, v: Vertex, radius: int) -> bool:
        i, j = v.coords
        bound = 2 * radius
        return -bound <= i <= bound and -bound <= j <= bound

    def _distance(self, u: Vertex, m: Vertex) -> int | None:
        if u.component != m.component:
            return None
        di = u.coords[0] - m.coords[0]
        dj = u.coords[1] - m.coords[1]
        if di < 0 or dj < 0 or di % 2 or dj % 2:
            return None
        return (di + dj) // 2

    def __repr__(self) -> str:
        return f"DihedralFamily(window_radius={self.window_radius})"


class ZAInf(TranslationQuiver):
    """ZA-infinity: vertices (level, pos) with level >= 1, rim at level 1.

    Arrows: ``down`` drops the level, ``up`` raises it while moving one
    step against the translation.  Rim meshes have a single middle term.
    The odd shift power is not representable inside this component, so
    ``sigma`` raises; ``sigma_pow`` accepts even exponents only, with
    sigma_pow(v, 2) = tau_inv(v).
    """

    kind = "za-inf"
    _NO_SIGMA = (
        "the odd shift power leaves the modeled ZA-infinity component; "
        "only even powers are defined (sigma_pow with even exponent)"
    )

    def __init__(self, window_radius: int):
        if window_radius < 1:
            raise UnsupportedParameterError("window_radius must be >= 1")
        super().__init__()
        self.window_radius = window_radius

    def vertex(self, level: int, pos: int) -> Vertex:
        return self.validate(Vertex(ZA_INF, (level, pos)))

    def validate(self, v: Vertex) -> Vertex:
        if v.component != ZA_INF or len(v.coords) != 2:
            raise InvalidVertexError(f"not a ZA-infinity vertex: {v}")
        if v.coords[0] < 1:
            raise InvalidVertexError(f"level must be >= 1: {v}")
        return v

    def _tau(self, v: Vertex, k: int) -> Vertex:
        level, pos = v.coords
        return Vertex(ZA_INF, (level, pos + k))

    def parse(self, text: str) -> Vertex:
        text = text.strip()
        coords = text.split(",")
        if len(coords) != 2:
            raise InvalidVertexError(
                f"ZA-infinity vertices look like <level>,<pos>, got {text!r}"
            )
        try:
            level, pos = (int(c) for c in coords)
        except ValueError:
            raise InvalidVertexError(f"bad ZA-infinity vertex {text!r}") from None
        return self.vertex(level, pos)

    def tau_orbit(self, v: Vertex) -> int:
        return v.coords[0]

    def shift_orbit(self, v: Vertex):
        raise QuiverKindError(self._NO_SIGMA)

    def sigma(self, v: Vertex) -> Vertex:
        raise QuiverKindError(self._NO_SIGMA)

    def _sigma_pow(self, v: Vertex, r: int) -> Vertex:
        if r % 2 != 0:
            raise QuiverKindError(
                f"odd shift power {r} is not representable on the ZA-infinity component"
            )
        level, pos = v.coords
        return Vertex(ZA_INF, (level, pos - r // 2))

    def _arrows(self, v: Vertex) -> tuple[tuple[str, Vertex], ...]:
        level, pos = v.coords
        up = ("up", Vertex(ZA_INF, (level + 1, pos - 1)))
        return (("down", Vertex(ZA_INF, (level - 1, pos))), up) if level >= 2 else (up,)

    def window(self, radius: int) -> list[Vertex]:
        out = []
        for level in range(1, radius + 2):
            for pos in range(-radius, radius + 1):
                out.append(Vertex(ZA_INF, (level, pos)))
        out.sort()
        return out

    def _in_window(self, v: Vertex, radius: int) -> bool:
        level, pos = v.coords
        return level <= radius + 1 and abs(pos) <= radius

    def _distance(self, u: Vertex, m: Vertex) -> int | None:
        ups = u.coords[1] - m.coords[1]
        downs = u.coords[0] - m.coords[0] + ups
        if ups < 0 or downs < 0:
            return None
        return ups + downs

    def __repr__(self) -> str:
        return f"ZAInf(window_radius={self.window_radius})"


def build_tube(n: int) -> Tube:
    """Stable AR quiver of k[t]/(t^n); requires n >= 3."""
    return Tube(n)


def build_dihedral_family(window_radius: int) -> DihedralFamily:
    """Both parity components of the dihedral ZA-infinity-infinity family."""
    return DihedralFamily(window_radius)


def build_za_inf(window_radius: int) -> ZAInf:
    """ZA-infinity component with rim at level 1."""
    return ZAInf(window_radius)

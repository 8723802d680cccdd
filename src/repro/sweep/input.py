"""Problem specifications (input decks) for the transport solver.

An :class:`InputDeck` is the Python analogue of the ``sweep3d.in`` file:
grid, angular order, scattering moments, cross sections, iteration control
and the two pipelining parameters the paper's Figure 3 illustrates --
``mk`` (K-planes per block; "MK must factor KT") and ``mmi`` (angles
pipelined together; "MMI angles (1 or 3)").

The paper's measurements all use the 50-cubed benchmark input
(:func:`benchmark_deck`); tests use small decks where the functional
Cell simulation is fast.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import InputDeckError
from .geometry import Grid
from .quadrature import Quadrature


@dataclass(frozen=True)
class InputDeck:
    """A complete, validated problem specification."""

    grid: Grid
    #: Sn quadrature order (Sweep3D: 6 -> six angles per octant).
    sn: int = 6
    #: number of scattering/flux moments (the kernel's ``nm``).
    nm: int = 4
    #: total macroscopic cross section (uniform single material, as in the
    #: ASCI benchmark configuration).
    sigma_t: float = 1.0
    #: scattering ratio c = sigma_s / sigma_t (must keep the medium
    #: subcritical: c < 1).
    scattering_ratio: float = 0.5
    #: Pn anisotropy decay g (sigma_s_n = sigma_s * g^n).
    anisotropy: float = 0.4
    #: uniform external isotropic source density.
    source: float = 1.0
    #: fixed sweep-iteration count (the benchmark's negative-epsi mode
    #: runs exactly |epsi| iterations; the ASCI timing input uses 12).
    iterations: int = 12
    #: optional convergence tolerance; when set, iteration may stop early.
    epsilon: float | None = None
    #: negative-flux fixups on/off (the paper's ``do_fixups``).
    fixup: bool = True
    #: K-planes per pipeline block.
    mk: int = 10
    #: angles pipelined per block.
    mmi: int = 3
    #: reflective boundary on the low x/y/z faces (vacuum when False).
    #: The standard symmetry trick: a 2N-cube with a symmetric source
    #: equals an N-cube with reflective low faces.  Supported by the
    #: hyperplane reference solver (an extension beyond the paper's
    #: vacuum-only benchmark configuration).
    reflect_low: tuple[bool, bool, bool] = (False, False, False)
    #: optional source region, half-open cell bounds
    #: ``(x0, x1, y0, y1, z0, z1)``; None = uniform source everywhere.
    #: Source/shield configurations (a localized emitter in an
    #: absorber) are the workloads the paper's intro motivates.
    source_box: tuple[int, int, int, int, int, int] | None = None
    #: optional second material region (same half-open bounds):
    #: inside the box the total cross section is ``material_sigma_t``
    #: and the scattering ratio ``material_scattering_ratio``.  With a
    #: material box, the Cell implementation must stream per-cell cross
    #: sections (a ``Sigt`` row per I-line), like original Sweep3D.
    material_box: tuple[int, int, int, int, int, int] | None = None
    material_sigma_t: float = 1.0
    material_scattering_ratio: float = 0.0

    def __post_init__(self) -> None:
        quad = Quadrature(self.sn)  # validates sn
        if self.nm < 1:
            raise InputDeckError(f"nm must be >= 1, got {self.nm}")
        if self.sigma_t <= 0:
            raise InputDeckError(f"sigma_t must be > 0, got {self.sigma_t}")
        if not 0.0 <= self.scattering_ratio < 1.0:
            raise InputDeckError(
                f"scattering ratio must be in [0, 1), got {self.scattering_ratio}"
            )
        if self.source < 0:
            raise InputDeckError(f"source must be >= 0, got {self.source}")
        if self.iterations < 1:
            raise InputDeckError(f"iterations must be >= 1, got {self.iterations}")
        if self.epsilon is not None and self.epsilon <= 0:
            raise InputDeckError(f"epsilon must be > 0, got {self.epsilon}")
        if self.mk < 1 or self.grid.nz % self.mk:
            raise InputDeckError(
                f"mk must factor kt: kt={self.grid.nz}, mk={self.mk}"
            )
        if self.mmi < 1 or quad.per_octant % self.mmi:
            raise InputDeckError(
                f"mmi must factor the angles per octant "
                f"({quad.per_octant}): got mmi={self.mmi}"
            )
        if len(self.reflect_low) != 3 or not all(
            isinstance(b, bool) for b in self.reflect_low
        ):
            raise InputDeckError(
                f"reflect_low must be three booleans, got {self.reflect_low!r}"
            )
        for name, box in (("source_box", self.source_box),
                          ("material_box", self.material_box)):
            if box is None:
                continue
            if len(box) != 6:
                raise InputDeckError(f"{name} needs six bounds, got {box!r}")
            limits = (self.grid.nx, self.grid.nx, self.grid.ny,
                      self.grid.ny, self.grid.nz, self.grid.nz)
            for value, limit in zip(box, limits):
                if not 0 <= value <= limit:
                    raise InputDeckError(
                        f"{name} {box} outside grid {self.grid.shape}"
                    )
            if box[0] >= box[1] or box[2] >= box[3] or box[4] >= box[5]:
                raise InputDeckError(f"{name} {box} is empty")
        if self.material_box is not None:
            if self.material_sigma_t <= 0:
                raise InputDeckError(
                    f"material_sigma_t must be > 0, got {self.material_sigma_t}"
                )
            if not 0.0 <= self.material_scattering_ratio < 1.0:
                raise InputDeckError(
                    f"material scattering ratio must be in [0, 1), got "
                    f"{self.material_scattering_ratio}"
                )

    @property
    def has_reflection(self) -> bool:
        return any(self.reflect_low)

    @property
    def heterogeneous(self) -> bool:
        """True when cross sections vary in space (a material box with
        different properties is present)."""
        return self.material_box is not None and (
            self.material_sigma_t != self.sigma_t
            or self.material_scattering_ratio != self.scattering_ratio
        )

    @staticmethod
    def _box_field(box, base, inside, offset, shape):
        import numpy as np

        field = np.full(shape, base, dtype=np.float64)
        if box is None:
            return field
        x0, x1, y0, y1, z0, z1 = box
        ox, oy, oz = offset
        lx0, lx1 = max(x0 - ox, 0), min(x1 - ox, shape[0])
        ly0, ly1 = max(y0 - oy, 0), min(y1 - oy, shape[1])
        lz0, lz1 = max(z0 - oz, 0), min(z1 - oz, shape[2])
        if lx0 < lx1 and ly0 < ly1 and lz0 < lz1:
            field[lx0:lx1, ly0:ly1, lz0:lz1] = inside
        return field

    def sigma_t_field(
        self,
        offset: tuple[int, int, int] = (0, 0, 0),
        shape: tuple[int, int, int] | None = None,
    ):
        """Per-cell total cross section over (a tile of) the grid."""
        return self._box_field(
            self.material_box, self.sigma_t, self.material_sigma_t,
            offset, shape or self.grid.shape,
        )

    def sigma_s_field(
        self,
        offset: tuple[int, int, int] = (0, 0, 0),
        shape: tuple[int, int, int] | None = None,
    ):
        """Per-cell scattering cross section (moment 0)."""
        return self._box_field(
            self.material_box,
            self.sigma_s,
            self.material_sigma_t * self.material_scattering_ratio,
            offset, shape or self.grid.shape,
        )

    def tile(self, offset: tuple[int, int, int], grid: "Grid") -> "InputDeck":
        """A local deck for one KBA tile: boxes shifted into tile
        coordinates and clamped.

        Careful with the empty-intersection cases: ``source_box = None``
        means *uniform* source, so a tile entirely outside the source
        region instead gets ``source = 0``; a tile outside the material
        box simply reverts to the base material.
        """
        def shift(box):
            if box is None:
                return None
            x0, x1, y0, y1, z0, z1 = box
            ox, oy, oz = offset
            out = (
                max(x0 - ox, 0), min(x1 - ox, grid.nx),
                max(y0 - oy, 0), min(y1 - oy, grid.ny),
                max(z0 - oz, 0), min(z1 - oz, grid.nz),
            )
            if out[0] >= out[1] or out[2] >= out[3] or out[4] >= out[5]:
                return None
            return out

        changes: dict = {"grid": grid}
        if self.source_box is not None:
            local = shift(self.source_box)
            changes["source_box"] = local
            if local is None:
                changes["source"] = 0.0
        if self.material_box is not None:
            local = shift(self.material_box)
            changes["material_box"] = local
            if local is None:
                changes["material_sigma_t"] = self.sigma_t
                changes["material_scattering_ratio"] = self.scattering_ratio
        return self.with_(**changes)

    def source_field(
        self,
        offset: tuple[int, int, int] = (0, 0, 0),
        shape: tuple[int, int, int] | None = None,
    ):
        """The external source density over (a tile of) the grid.

        ``offset``/``shape`` select a tile in global cell coordinates
        (the KBA ranks pass their tile plans); the default is the whole
        grid.  Returns an ``(nx, ny, nz)`` array.
        """
        shape = shape or self.grid.shape
        if self.source_box is None:
            return self._box_field(None, self.source, self.source, offset, shape)
        return self._box_field(self.source_box, 0.0, self.source, offset, shape)

    # -- derived quantities --------------------------------------------------

    @property
    def sigma_s(self) -> float:
        return self.sigma_t * self.scattering_ratio

    @property
    def sigma_a(self) -> float:
        """Absorption cross section (sigma_t - sigma_s0)."""
        return self.sigma_t - self.sigma_s

    def quadrature(self) -> Quadrature:
        return Quadrature(self.sn)

    @property
    def angles_per_octant(self) -> int:
        return Quadrature(self.sn).per_octant

    @property
    def cell_visits(self) -> int:
        """Total cell visits of a full solve: cells x ordinates x
        iterations.  This is the work unit of every performance model."""
        return (
            self.grid.num_cells
            * 8
            * self.angles_per_octant
            * self.iterations
        )

    def with_(self, **changes) -> "InputDeck":
        """A copy with fields replaced (convenience over dataclasses.replace)."""
        return replace(self, **changes)


def benchmark_deck(fixup: bool = True) -> InputDeck:
    """The paper's measurement configuration: the 50-cubed input.

    "we have ported Sweep3D ... with a 50x50x50 input set (50-cubed)"
    (Sec. 5).  S6 gives Sweep3D's six angles per octant; mk=10 and mmi=3
    are representative benchmark pipelining parameters; 12 fixed
    iterations is the ASCI timing input's negative-epsi setting.
    """
    return InputDeck(grid=Grid.cube(50), fixup=fixup)


def cube_deck(
    n: int,
    fixup: bool = True,
    mk: int | None = None,
    mmi: int | None = None,
    **fields,
) -> InputDeck:
    """A cubic deck of edge ``n``: the Figure 9 grind-time sweep's, and
    the ``--cube`` shorthand of ``repro`` and ``repro serve``.

    ``mk`` must factor the cube edge; among the divisors we keep the
    pipeline deep by maximizing ``min(mk, 10)`` (a too-small mk makes
    jkm diagonals so short that most SPEs idle), breaking ties toward
    the benchmark's mk = 10.  ``mmi`` is 3 when it factors the angles
    per octant, else 1.  Other ``fields`` pass through to
    :class:`InputDeck`.
    """
    if mk is None:
        divisors = [m for m in range(1, n + 1) if n % m == 0]
        mk = max(divisors, key=lambda m: (min(m, 10), -abs(m - 10)))
    if mmi is None:
        sn = fields.get("sn", InputDeck.sn)
        mmi = 3 if (sn * (sn + 2) // 8) % 3 == 0 else 1
    return InputDeck(grid=Grid.cube(n), fixup=fixup, mk=mk, mmi=mmi, **fields)


def small_deck(
    n: int = 8,
    sn: int = 4,
    nm: int = 2,
    iterations: int = 4,
    fixup: bool = True,
    mk: int = 2,
    mmi: int = 3,
) -> InputDeck:
    """A test-sized deck: fast enough for the functional Cell simulation.

    ``mmi`` falls back to 1 when it does not factor the quadrature's
    angles per octant (e.g. S2 has a single angle per octant)."""
    per_octant = sn * (sn + 2) // 8
    if per_octant % mmi:
        mmi = 1
    if n % mk:
        mk = 1
    return InputDeck(
        grid=Grid.cube(n),
        sn=sn,
        nm=nm,
        iterations=iterations,
        fixup=fixup,
        mk=mk,
        mmi=mmi,
    )

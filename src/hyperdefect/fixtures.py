"""Bundled example hypersurfaces with published invariants.

Each fixture is a threefold hypersurface in P^4 whose defect and middle
graded Hodge number are known from the literature on nodal quintics and
related constructions; they double as the regression corpus for the whole
pipeline.  `singular_points` is |Sing X| where known.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polynomials import DEFAULT_VARIABLES, HomogeneousForm, parse_expression

_VGW_A = "(x+6*z)*(y^2-x^2)*(5*y^2-4*(x+z)^2)"
_VGW_B = "(x+z)*(3*y^2-(x-2*z)^2)*(5*x^2+5*y^2-8*z^2)"
_W = "(-x-y-z-u-v)"


@dataclass(frozen=True)
class Fixture:
    """One corpus entry: construction text plus expected invariants."""

    name: str
    expression: str
    degree: int
    gamma: int
    defect: int
    singular_points: int | None
    source: str

    def build(self) -> HomogeneousForm:
        form = HomogeneousForm.from_polynomial(
            parse_expression(self.expression, DEFAULT_VARIABLES)
        )
        if form.degree != self.degree:
            raise ValueError(
                f"fixture {self.name}: built degree {form.degree} != expected {self.degree}"
            )
        return form


FIXTURES: tuple[Fixture, ...] = (
    Fixture(
        name="segre-cubic",
        expression="(x+y+z+u+v)^3-(x^3+y^3+z^3+u^3+v^3)",
        degree=3,
        gamma=5,
        defect=5,
        singular_points=10,
        source="Segre's cubic primal with ten nodes",
    ),
    Fixture(
        name="quartic-one-point",
        expression="(y^2-2*x*z)^2+(y^2-2*x*z)*x^2+x^4+u^4+v^4",
        degree=4,
        gamma=30,
        defect=7,
        singular_points=1,
        source="quartic with a single weighted-homogeneous rational singular point",
    ),
    Fixture(
        name="quintic-16-nodes",
        expression="x*(x^4+y^4+z^4+u^4+v^4)+y*(x^4-2*y^4+3*z^4-4*u^4+5*v^4)",
        degree=5,
        gamma=101,
        defect=1,
        singular_points=16,
        source="Cheltsov-style quintic with sixteen nodes",
    ),
    Fixture(
        name="quintic-vgw-118a",
        expression=f"{_VGW_A}-subst({_VGW_A},x,u,y,v)",
        degree=5,
        gamma=101,
        defect=19,
        singular_points=118,
        source="van Geemen-Werner 118-node quintic (first family)",
    ),
    Fixture(
        name="quintic-vgw-118b",
        expression=f"{_VGW_B}-subst({_VGW_B},x,u,y,v)",
        degree=5,
        gamma=101,
        defect=18,
        singular_points=118,
        source="van Geemen-Werner 118-node quintic (second family)",
    ),
    Fixture(
        name="quintic-vanstraten-130",
        expression=(
            f"-(x^5+y^5+z^5+u^5+v^5+{_W}^5)"
            f"+10*(x*y*z*u*v+x*y*z*u*{_W}+x*y*z*v*{_W}"
            f"+x*y*u*v*{_W}+x*z*u*v*{_W}+y*z*u*v*{_W})"
        ),
        degree=5,
        gamma=101,
        defect=29,
        singular_points=130,
        source="van Straten's symmetric 130-node quintic",
    ),
    Fixture(
        name="sextic-285-nodes",
        expression="(x^2+y^2+z^2+u^2+v^2)^3-(x^6+y^6+z^6+u^6+v^6)",
        degree=6,
        gamma=255,
        defect=40,
        singular_points=285,
        source="sextic with 285 ordinary double points",
    ),
    Fixture(
        name="sextic-90-points",
        expression="3*(x^6+y^6+z^6+u^6+v^6)-(x^3+y^3+z^3+u^3+v^3)^2",
        degree=6,
        gamma=255,
        defect=30,
        singular_points=90,
        source="sextic with ninety singular points of Milnor number 4",
    ),
)


def get_fixture(name: str) -> Fixture:
    for fixture in FIXTURES:
        if fixture.name == name:
            return fixture
    raise KeyError(f"no fixture named {name!r}")


def find_fixtures(substring: str) -> list[Fixture]:
    return [f for f in FIXTURES if substring in f.name]

"""The box in tests.  A solve's walk appends the box at its first unbounded
edge that c0 does not rise along, over the basis it stands on there
(`walk.Tableau.box_basis`); the tests build it over any n independent rows,
by default an LP's lead rows, the first n rows of `linalg.independent_rows`:
the boxed integer form (`model.bound_polytope`), and the boxed LP in
`Fraction`s that the tests enumerate and take dot products on
(`reference.bound_polytope`), whose integer form is the boxed form; a
tableau that stands on the boxed form as one that appended the box does
(`on_box`); and LPs whose walks append the box (`lifted`, `orthants`)."""

import reference

from shadow_simplex import linalg, model, walk


def lead_rows(lp):
    return linalg.independent_rows(lp.rows())[: lp.n]


def boxed_form(lp):
    return model.bound_polytope(model.integer_form(lp), lead_rows(lp))


def box(lp):
    return reference.bound_polytope(lp, lead_rows(lp))


def box_rows(boxed):
    """The box rows of a boxed LP or form: its last 2n rows."""
    return range(boxed.m - 2 * boxed.n, boxed.m)


def on_box(form, start, rows):
    """A `walk.Tableau` on form, which `model.bound_polytope` returned over
    rows, standing on start as a tableau that appended that box stands
    there: it is boxed over rows."""
    tab = walk.Tableau(form, start)
    tab.box_basis = tuple(rows)
    return tab


def lifted(lp):
    """lp in one more coordinate t >= 0 that no row of lp and not c0 sees:
    the same status and value, and at each vertex an edge up the t axis
    that no row blocks and c0 does not rise along, so a walk whose
    objective rises along it appends the box."""
    A = [(*row, 0) for row in lp.A] + [(0,) * lp.n + (-1,)]
    return model.make_lp(A, (*lp.b, 0), (*lp.c0, 0))


def orthants(seeds):
    """(LP, seed): max c0 x over x >= 0 in n = 2..5, c0 = e_1 or e_1 - e_n,
    at each of seeds.  About one solve in ten takes an edge at 0 that c0
    does not rise along before the ray e_1: its chain appends the box, ends
    on a box corner whose basis carries c0 only with a box row, and the
    recession walk answers."""
    for n in range(2, 6):
        A = [[-int(i == j) for j in range(n)] for i in range(n)]
        for c0 in ([1] + [0] * (n - 1), [1] + [0] * (n - 2) + [-1]):
            lp = model.make_lp(A, [0] * n, c0)
            for seed in seeds:
                yield lp, seed

"""The box as a solve's walks build it, at their first unbounded edge, over
the lead rows its rank pass finds, the first n rows of
`linalg.independent_rows`: the boxed integer form (`model.bound_polytope`),
and the boxed LP in `Fraction`s that the tests enumerate and take dot
products on (`reference.bound_polytope`), whose integer form is the boxed
form; and a tableau that stands on the boxed form as one that appended
the box does (`on_box`)."""

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


def on_box(form, start, lead):
    """A `walk.Tableau` on form, which `model.bound_polytope` returned over
    the lead rows, standing on start as a tableau that appended that box
    stands there: it holds lead and is marked boxed."""
    tab = walk.Tableau(form, start, lead)
    tab.boxed = True
    return tab

"""The boxed LP as `driver.solve` builds it: the box over the lead rows its
rank pass finds, the first n rows of `linalg.independent_rows`, built on the
LP's integer form."""

from shadow_simplex import linalg, model


def lead_rows(lp):
    return linalg.independent_rows(lp.rows())[: lp.n]


def boxed_and_form(lp):
    return model.bound_polytope(lp, lead_rows(lp), model.integer_form(lp))


def box(lp):
    return boxed_and_form(lp)[0]

#!/usr/bin/env python3
"""Tour of the library on the classic small quotients.

Runs the full pipeline — action, polyhedron, generators, relations,
semistability, Betti numbers, orbit separation — on a handful of
actions whose answers are recognizable, printing each step.
"""

from fractions import Fraction

from toricalc import (
    betti,
    delta,
    evaluate_invariants,
    graded_generators,
    hilbert_function,
    is_semistable,
    linearized_action,
    minimal_unstable_supports,
    orbit_census,
    proj_equal,
    relation_space,
    vrep,
)


def show_action(title, action):
    print(f"\n=== {title} ===")
    print(f"weights: {[list(r) for r in action.weights.entries]}  "
          f"linearization: {list(action.alpha)}")
    p = delta(action)
    print(f"quotient lattice dimension: {p.dim}; "
          f"coordinate images: {[a for a, _ in p.inequalities]}")
    rep = vrep(p)
    print(f"polyhedron vertices: {[tuple(map(str, v)) for v in rep.vertices]}"
          + (f", rays: {list(rep.rays)}" if rep.rays else ""))
    gens = graded_generators(p)
    print(f"semigroup generators (point, degree): "
          f"{[(g.point, g.degree) for g in gens]}")
    return p


def monomial_name(action, point, degree):
    """Render the invariant monomial at a lattice point as x-variables."""
    from toricalc import invariant_monomial

    exps = invariant_monomial(action, point, degree)
    parts = [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
             for i, e in enumerate(exps[:-1]) if e]
    parts += [f"t^{exps[-1]}" if exps[-1] > 1 else "t"] if exps[-1] else []
    return "*".join(parts) or "1"


def main():
    # Scaling C^2 with a degree-one twist: the projective line.
    cp1 = linearized_action([[1, 1]], (-1, 0))
    p = show_action("diagonal scaling of C^2 (projective line)", cp1)
    names = [monomial_name(cp1, g.point, g.degree) for g in graded_generators(p)]
    print(f"invariant ring generated by: {names}")
    print(f"Betti numbers: {betti(p)}")
    print(f"unstable supports: {minimal_unstable_supports(cp1)} (just the origin)")

    # Independent scalings of (x1,x2) and (x3,x4): a product of lines.
    square = linearized_action([[1, 1, 0, 0], [0, 0, 1, 1]], (-1, 0, -1, 0))
    p = show_action("pairwise scaling of C^4 (product of two lines)", square)
    names = [monomial_name(square, g.point, g.degree) for g in graded_generators(p)]
    print(f"invariant ring generated by: {names}")
    pres = relation_space(p, 2)
    rel = pres.relations_by_degree[2]
    print(f"one quadratic relation (kernel dim {rel.kernel_dim}): "
          f"{rel.binomials[0][0]} = {rel.binomials[0][1]} as exponent vectors")
    print(f"unstable supports: {minimal_unstable_supports(square)}")
    print(f"Betti numbers: {betti(p)}  orbit census: {orbit_census(p)}")

    # Orbit separation: group translates agree in the quotient.
    x = (1, 2, 3, 4)
    lam = (2, 2, 5, 5)
    moved = tuple(l * xi for l, xi in zip(lam, x))
    vx = evaluate_invariants(square, x, 1)
    vm = evaluate_invariants(square, moved, 1)
    print(f"values at {x}: {[str(v) for v, _ in vx]}; "
          f"at {moved}: {[str(v) for v, _ in vm]}; "
          f"same quotient point: {proj_equal(vx, vm)}")
    y = (1, 1, 1, 2)
    vy = evaluate_invariants(square, y, 1)
    print(f"values at (1,1,1,1) vs {y} separate: "
          f"{not proj_equal(evaluate_invariants(square, (1, 1, 1, 1), 1), vy)}")

    # Scalar scaling of C^3 at twists 0, -1, -2: point, plane, Veronese.
    for alpha0, label in [(0, "a single point"),
                          (-1, "the projective plane"),
                          (-2, "the quadratic Veronese surface")]:
        act = linearized_action([[1, 1, 1]], (alpha0, 0, 0))
        p = show_action(f"scaling C^3, twist {alpha0} ({label})", act)
        print(f"dimension-1 count: {hilbert_function(p, 1)}"
              if p.dim else "zero-dimensional quotient")

    # A weighted scaling: generators land in different degrees.
    weighted = linearized_action([[2, 1]], (-1, 0))
    p = show_action("weighted scaling of C^2", weighted)
    names = [monomial_name(weighted, g.point, g.degree) for g in graded_generators(p)]
    print(f"invariant ring generated by: {names}")

    # Rational points evaluate exactly.
    vals = evaluate_invariants(square, (Fraction(1, 2), 1, 1, 1), 1)
    print(f"\nexact evaluation at (1/2, 1, 1, 1): {[str(v) for v, _ in vals]}")


if __name__ == "__main__":
    main()

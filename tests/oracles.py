"""Brute-force oracles shared by the test modules: slow, listing routes
that the product code decides by structure."""


def abelian_span(one, gens, mul, order: int) -> set:
    """The subgroup of a finite abelian group of the given order generated
    by gens, grown one coset at a time: H<g> is the union of H g^i for i
    below the order of g modulo H, about |H<g>| - |H| products.
    Stops drawing generators once the whole group is reached."""
    H = [one]
    seen = {one}
    for g in gens:
        base = list(H)
        y = g
        while y not in seen:
            coset = [mul(h, y) for h in base]
            H.extend(coset)
            seen.update(coset)
            y = mul(y, g)
        if len(H) == order:
            break
    return seen

"""Checks shared by the rank tests: the rank kernel's divisors against a
reference elimination's."""

from padicperiods.padic import AtLeast, PadicMatrix, is_exact


def cut(M, N):
    """M with every entry cut to precision N."""
    return PadicMatrix(M.field, [[M.field.from_coeffs(e.coeffs, N, e.shift) for e in row]
                                 for row in M.rows])


def assert_rank_divisors(divisors, ref, N):
    """The rank kernel's divisors at precision N against a reference's: the
    same below N and AtLeast(N) everywhere else, types included; at one flat
    precision every exact divisor is below N, so that is equality."""
    expected = [d if is_exact(d) and d < N else AtLeast(N) for d in ref]
    assert divisors == expected
    assert [type(d) for d in divisors] == [type(d) for d in expected]

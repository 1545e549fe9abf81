"""Independent oracle for constant brackets: plain integers, no tancat code.

`c[a][b][g]` is the coefficient of e_g in [e_a, e_b].
"""

from __future__ import annotations


def alternating(c: list[list[list[int]]]) -> bool:
    """[e_a, e_b] = -[e_b, e_a] for all a, b (so [e_a, e_a] = 0)."""
    r = len(c)
    return all(c[a][b][g] + c[b][a][g] == 0
               for a in range(r) for b in range(r) for g in range(r))


def jacobi(c: list[list[list[int]]]) -> bool:
    """[e_a,[e_b,e_g]] + [e_b,[e_g,e_a]] + [e_g,[e_a,e_b]] = 0 for all a, b, g."""
    r = len(c)

    def nested(x: int, y: int, z: int, out: int) -> int:
        # coefficient of e_out in [e_x, [e_y, e_z]]
        return sum(c[y][z][m] * c[x][m][out] for m in range(r))

    for a in range(r):
        for b in range(r):
            for g in range(r):
                for out in range(r):
                    if nested(a, b, g, out) + nested(b, g, a, out) + nested(g, a, b, out):
                        return False
    return True

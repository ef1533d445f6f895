"""Input lists shared by the claim tests, the golden digests and the
report oracle.

This module imports nothing, so ``tests/make_golden.py`` runs the golden
comparison on an interpreter that has only the package on its path.
"""

EX122 = "(x2 - x1^2 - x1^3)*(x2 - x1^2 - x1^4)^3"

POWER_CASES = [(2, 2), (2, 3), (2, 5), (3, 4), (3, 8)]

# (expression, family, m, n or None for the flat case)
NORMAL_FORMS = [
    ("(x2 - x1^2)^2 + x1^5", "A", 2, 5),
    ("(x2 - x1^2)^2 + x1^6", "A", 2, 6),
    ("(x2 - x1^2)^2 - x1^8", "A", 2, 8),
    ("(x2 - x1^3)^2 + x1^7", "A", 3, 7),
    ("(x2 - x1^3)^2 + x1^9", "A", 3, 9),
    ("(x2 - x1^4)^2 + x1^9", "A", 4, 9),
    ("(x2 - x1^2)^2", "A", 2, None),
    ("(x2 - x1^3)^2", "A", 3, None),
    ("(x2 - x1^2 - x1^3)^2 + x1^7", "A", 2, 7),
    ("(1 + x1)*(x2 - x1^2)^2 + x1^5", "A", 2, 5),
    ("(x2 + 2*x1 - x1^2)^2 + x1^5", "A", 2, 5),
    ("x1*(x2 - x1^2)^2 + x1^7", "D", 2, 7),
    ("x1*(x2 - x1^2)^2 + x1^8", "D", 2, 8),
    ("x1*(x2 - x1^3)^2 + x1^9", "D", 3, 9),
    ("x1*(x2 - x1^3)^2 + x1^10", "D", 3, 10),
    ("x1*(x2 - x1^4)^2 + x1^11", "D", 4, 11),
    ("x1*(x2 - x1^2)^2", "D", 2, None),
    ("x1*(x2 - x1^3)^2", "D", 3, None),
    ("(x1 + x2^2)*(x2 - x1^2)^2 + x1^7", "D", 2, 7),
    ("x1*(x2 - x1^2 + 2*x1^3)^2 + x1^8", "D", 2, 8),
]


def high_contact(a: int, x1_factor: bool = False) -> str:
    """``(x2 - x1^a)*(x2 - x1^a + x2^a)``, times x1 if ``x1_factor``.

    The two branches differ by about x1^(a^2), which gives n = 2a^2 (A) or
    2a^2 + 1 (D): from a = 5 on, n lies above the classifier's series order
    4*deg + 4, for the total degree deg = 2a (or 2a + 1).
    """
    return f"{'x1*' if x1_factor else ''}(x2 - x1^{a})*(x2 - x1^{a} + x2^{a})"


#: the high-contact family of both A/D types, a = 2..6
HIGH_CONTACT = [high_contact(a, x1)
                for a in range(2, 7) for x1 in (False, True)]

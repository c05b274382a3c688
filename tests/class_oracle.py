"""Test-side reads of class functions: the value at one Gamma element, and
a re-read of sampled class members through the class table."""

MEMBERS_PER_CLASS = 10  # a class is re-read at up to this many members


def evaluate(f, x):
    """Exact value of a class function at a Gamma element (g, bit)."""
    return f.values[f.classes.class_of[x[0]]][x[1]]


def reread_members(f, rng):
    """First (class, element, bit) whose value read through the class table
    differs from the class value, over up to MEMBERS_PER_CLASS random
    members per class, or None."""
    values = f.values
    for c, members in enumerate(f.classes.classes):
        picks = members if len(members) <= MEMBERS_PER_CLASS else \
            rng.sample(members, MEMBERS_PER_CLASS)
        for g in picks:
            for bit in (0, 1):
                if evaluate(f, (g, bit)) != values[c][bit]:
                    return c, g, bit
    return None

"""Test-wide settings.

Hypothesis runs with a fixed, derandomized set of examples, no example
database and no deadline, so the results depend neither on a random seed
nor on the speed of the machine.
"""

from hypothesis import settings

settings.register_profile("cemhelm", derandomize=True, database=None, deadline=None)
settings.load_profile("cemhelm")

"""Shared test settings: every hypothesis property runs derandomized and
without a deadline, so a run's examples are the same on every machine."""

from hypothesis import settings

settings.register_profile("impstab", deadline=None, derandomize=True)
settings.load_profile("impstab")

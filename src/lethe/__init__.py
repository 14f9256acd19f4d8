"""Lethe: deletion privacy through intermittent withdrawal.

Non-deleted posts alternate between visible and hidden phases drawn from
tuned duration distributions, so a persistent observer cannot tell a post
the platform is temporarily hiding from one its owner deleted.  The package
provides the duration-distribution engine, likelihood-ratio privacy
analytics, parameter tuning, per-post schedules, an adversary
precision/recall simulator, interaction-utility evaluation and a
visibility-gated archival store with a line-delimited JSON TCP interface.
"""

__version__ = "0.1.0"

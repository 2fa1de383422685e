"""Symbolic deep-learning framework: modules plan allocation sequences.

This substitutes for PyTorch in the reproduction: modules carry parameter
metadata and *plan* their forward pass as a DAG of :class:`~.plan.OpSpec` records
(output sizes, saved-for-backward sets, workspaces).  The training runtime
interprets plans to generate the memory-event streams xMem consumes.
"""

"""Profiler trace model: events, JSON schema, builder, reader (paper §3.2)."""

"""Transformer model zoo (Table 2, transformer half + RQ5 models)."""
